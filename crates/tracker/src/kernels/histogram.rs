//! Color-histogram construction (the paper's Histogram task).

use crate::types::{rgb_bin, Frame, HistModel, FRAME_PIXELS, HIST_BINS};

/// Build the color-histogram model of a frame: the normalized 512-bin
/// histogram and the per-pixel bin map the detector back-projects through.
///
/// Bins are counted as integers and normalized once; a count below 2²⁴
/// converts to `f32` exactly, so each bin equals the one an `f32`
/// accumulation of `1.0` per pixel gives.
///
/// # Panics
///
/// If `frame` is shorter than a full frame.
#[must_use]
pub fn build_histogram(frame: &Frame) -> HistModel {
    let rgb = &frame.rgb[..3 * FRAME_PIXELS];
    let mut counts = [0u32; HIST_BINS];
    let mut pixel_bins = vec![0u32; FRAME_PIXELS];
    for (b, c) in pixel_bins.iter_mut().zip(rgb.chunks_exact(3)) {
        let bin = rgb_bin(c[0], c[1], c[2]);
        *b = bin;
        counts[bin as usize] += 1;
    }
    let total = FRAME_PIXELS as f32;
    let bins = counts.iter().map(|&c| c as f32 / total).collect();
    HistModel {
        frame_no: frame.frame_no,
        bins,
        pixel_bins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::SyntheticVideo;

    #[test]
    fn histogram_is_normalized() {
        let v = SyntheticVideo::two_person_scene(1);
        let h = build_histogram(&v.frame(0));
        let sum: f32 = h.bins.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum {sum}");
        assert_eq!(h.pixel_bins.len(), FRAME_PIXELS);
    }

    #[test]
    fn pixel_bins_consistent_with_frame() {
        let v = SyntheticVideo::two_person_scene(1);
        let f = v.frame(3);
        let h = build_histogram(&f);
        for p in (0..FRAME_PIXELS).step_by(997) {
            let i = 3 * p;
            assert_eq!(
                h.pixel_bins[p],
                rgb_bin(f.rgb[i], f.rgb[i + 1], f.rgb[i + 2])
            );
        }
    }

    #[test]
    fn target_color_bin_has_mass() {
        let v = SyntheticVideo::two_person_scene(1);
        let f = v.frame(10);
        let h = build_histogram(&f);
        let c = v.target(0).color;
        let bin = rgb_bin(c.0, c.1, c.2) as usize;
        assert!(h.bins[bin] > 0.001, "target bin mass {}", h.bins[bin]);
    }
}
