//! The tracker kernels as first written: plain per-pixel loops, kept as the
//! oracles the optimized kernels are checked against, bit for bit.

use super::background::DIFF_THRESHOLD;
use crate::model::ColorModel;
use crate::types::{
    rgb_bin, Frame, HistModel, MotionMask, TargetLocation, FRAME_H, FRAME_PIXELS, FRAME_W,
    HIST_BINS,
};
use crate::video::SyntheticVideo;

const WIN_HALF: usize = 32;
const MIN_SCORE: f32 = 0.5;

/// The static background pixel at (x, y): a smooth two-tone gradient
/// with a checker texture (so background differencing has real work).
fn background_pixel(x: usize, y: usize) -> (u8, u8, u8) {
    let checker = if ((x >> 4) + (y >> 4)) & 1 == 0 {
        18
    } else {
        0
    };
    let r = (40 + (x * 40 / FRAME_W) + checker) as u8;
    let g = (60 + (y * 40 / FRAME_H) + checker) as u8;
    let b = (90 + ((x + y) * 30 / (FRAME_W + FRAME_H)) + checker) as u8;
    (r, g, b)
}

/// `SyntheticVideo::frame`: background, one LCG noise step per pixel, and
/// the visible targets.
pub fn frame(video: &SyntheticVideo, frame_no: u64) -> Frame {
    let mut rgb = vec![0u8; 3 * FRAME_PIXELS];
    // Background with cheap deterministic per-pixel noise.
    let mut state = video
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(frame_no);
    for y in 0..FRAME_H {
        for x in 0..FRAME_W {
            let (r, g, b) = background_pixel(x, y);
            let i = 3 * (y * FRAME_W + x);
            let n = if video.noise_amp > 0 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % (2 * video.noise_amp as u64 + 1)) as i16 - video.noise_amp as i16
            } else {
                0
            };
            rgb[i] = (r as i16 + n).clamp(0, 255) as u8;
            rgb[i + 1] = (g as i16 + n).clamp(0, 255) as u8;
            rgb[i + 2] = (b as i16 + n).clamp(0, 255) as u8;
        }
    }
    // Paint targets (unless absent from the scene).
    for ti in 0..video.target_count() {
        if !video.is_visible(ti, frame_no) {
            continue;
        }
        let t = video.target(ti);
        let gt = video.ground_truth(ti, frame_no);
        let x0 = (gt.cx as isize - t.half_w as isize).max(0) as usize;
        let x1 = ((gt.cx as usize) + t.half_w).min(FRAME_W - 1);
        let y0 = (gt.cy as isize - t.half_h as isize).max(0) as usize;
        let y1 = ((gt.cy as usize) + t.half_h).min(FRAME_H - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                let i = 3 * (y * FRAME_W + x);
                // slight per-pixel shading so target histograms spread
                let shade = ((x ^ y) & 7) as i16 - 3;
                rgb[i] = (t.color.0 as i16 + shade).clamp(0, 255) as u8;
                rgb[i + 1] = (t.color.1 as i16 + shade).clamp(0, 255) as u8;
                rgb[i + 2] = (t.color.2 as i16 + shade).clamp(0, 255) as u8;
            }
        }
    }
    Frame { frame_no, rgb }
}

/// `SyntheticVideo::background_frame`.
pub fn background_frame() -> Frame {
    let mut rgb = vec![0u8; 3 * FRAME_PIXELS];
    for y in 0..FRAME_H {
        for x in 0..FRAME_W {
            let (r, g, b) = background_pixel(x, y);
            let i = 3 * (y * FRAME_W + x);
            rgb[i] = r;
            rgb[i + 1] = g;
            rgb[i + 2] = b;
        }
    }
    Frame {
        frame_no: u64::MAX,
        rgb,
    }
}

/// `kernels::subtract_background`.
pub fn subtract_background(background: &Frame, frame: &Frame) -> MotionMask {
    debug_assert_eq!(background.rgb.len(), frame.rgb.len());
    let mut mask = vec![0u8; FRAME_PIXELS];
    for (p, m) in mask.iter_mut().enumerate() {
        let i = 3 * p;
        let dr = (frame.rgb[i] as i16 - background.rgb[i] as i16).abs();
        let dg = (frame.rgb[i + 1] as i16 - background.rgb[i + 1] as i16).abs();
        let db = (frame.rgb[i + 2] as i16 - background.rgb[i + 2] as i16).abs();
        if dr + dg + db > DIFF_THRESHOLD {
            *m = 255;
        }
    }
    MotionMask {
        frame_no: frame.frame_no,
        mask,
    }
}

/// `kernels::build_histogram`.
pub fn build_histogram(frame: &Frame) -> HistModel {
    let mut bins = vec![0.0f32; HIST_BINS];
    let mut pixel_bins = vec![0u32; FRAME_PIXELS];
    for (p, pb) in pixel_bins.iter_mut().enumerate() {
        let i = 3 * p;
        let bin = rgb_bin(frame.rgb[i], frame.rgb[i + 1], frame.rgb[i + 2]);
        *pb = bin;
        bins[bin as usize] += 1.0;
    }
    let total = FRAME_PIXELS as f32;
    for v in &mut bins {
        *v /= total;
    }
    HistModel {
        frame_no: frame.frame_no,
        bins,
        pixel_bins,
    }
}

/// `kernels::detect_target`: a per-pixel weight map and its full integral
/// image.
pub fn detect_target(
    frame: &Frame,
    mask: &MotionMask,
    hist: &HistModel,
    model: &ColorModel,
) -> TargetLocation {
    // Back-project: weight map over foreground pixels.
    let mut weights = vec![0.0f32; FRAME_W * FRAME_H];
    for (p, w) in weights.iter_mut().enumerate() {
        if mask.mask[p] != 0 {
            *w = model.weight(hist.pixel_bins[p]);
        }
    }
    // Integral image.
    let mut integral = vec![0.0f64; (FRAME_W + 1) * (FRAME_H + 1)];
    for y in 0..FRAME_H {
        let mut row = 0.0f64;
        for x in 0..FRAME_W {
            row += weights[y * FRAME_W + x] as f64;
            integral[(y + 1) * (FRAME_W + 1) + (x + 1)] =
                integral[y * (FRAME_W + 1) + (x + 1)] + row;
        }
    }
    let window_sum = |x0: usize, y0: usize, x1: usize, y1: usize| -> f64 {
        let w = FRAME_W + 1;
        integral[y1 * w + x1] - integral[y0 * w + x1] - integral[y1 * w + x0]
            + integral[y0 * w + x0]
    };
    // Scan windows on a coarse grid, then refine with the centroid.
    let step = 8;
    let mut best = (0usize, 0usize, f64::MIN);
    let mut y = 0;
    while y + 2 * WIN_HALF < FRAME_H {
        let mut x = 0;
        while x + 2 * WIN_HALF < FRAME_W {
            let s = window_sum(x, y, x + 2 * WIN_HALF, y + 2 * WIN_HALF);
            if s > best.2 {
                best = (x, y, s);
            }
            x += step;
        }
        y += step;
    }
    let (bx, by, score) = best;
    if score < MIN_SCORE as f64 {
        return TargetLocation::not_found(mask.frame_no, model.id);
    }
    // Weighted centroid and mean frame color within the best window.
    let (mut sx, mut sy, mut sw, mut support) = (0.0f64, 0.0f64, 0.0f64, 0u32);
    let mut rgb_acc = [0.0f64; 3];
    for y in by..(by + 2 * WIN_HALF).min(FRAME_H) {
        for x in bx..(bx + 2 * WIN_HALF).min(FRAME_W) {
            let w = weights[y * FRAME_W + x] as f64;
            if w > 0.0 {
                sx += w * x as f64;
                sy += w * y as f64;
                sw += w;
                support += 1;
                let (r, g, b) = frame.pixel(x, y);
                rgb_acc[0] += r as f64;
                rgb_acc[1] += g as f64;
                rgb_acc[2] += b as f64;
            }
        }
    }
    if sw <= 0.0 {
        return TargetLocation::not_found(mask.frame_no, model.id);
    }
    TargetLocation {
        frame_no: mask.frame_no,
        model_id: model.id,
        found: 1,
        x: (sx / sw) as f32,
        y: (sy / sw) as f32,
        score: score as f32,
        bbox: [
            bx as f32,
            by as f32,
            (bx + 2 * WIN_HALF) as f32,
            (by + 2 * WIN_HALF) as f32,
        ],
        support,
        mean_rgb: [
            (rgb_acc[0] / support as f64) as f32,
            (rgb_acc[1] / support as f64) as f32,
            (rgb_acc[2] / support as f64) as f32,
        ],
        reserved: [0; 8],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    /// Every kernel on one frame of `video`, fast against reference: frame,
    /// mask, histogram, and a detection per model, all `==`. Returns how
    /// many detections found their target.
    fn check_frame(video: &SyntheticVideo, models: &[ColorModel], frame_no: u64) -> usize {
        let ctx = |what: &str| {
            format!(
                "{what} differs: seed {}, frame {frame_no}, noise {}",
                video.seed, video.noise_amp
            )
        };
        let f = video.frame(frame_no);
        let f_ref = frame(video, frame_no);
        assert!(f == f_ref, "{}", ctx("frame"));
        let bg = video.background_frame();
        let mask = kernels::subtract_background(&bg, &f);
        assert!(mask == subtract_background(&bg, &f), "{}", ctx("mask"));
        let hist = kernels::build_histogram(&f);
        assert!(hist == build_histogram(&f), "{}", ctx("histogram"));
        let mut found = 0;
        for model in models {
            let loc = kernels::detect_target(&f, &mask, &hist, model);
            assert_eq!(
                loc,
                detect_target(&f, &mask, &hist, model),
                "{} model {}",
                ctx("detection"),
                model.id
            );
            found += loc.found as usize;
        }
        found
    }

    /// One thread per seed: unoptimized test builds run the reference
    /// kernels at ~90 ms per frame. That keeps every core busy, so no
    /// wall-clock tracker test may run meanwhile.
    #[test]
    fn kernels_match_reference_bit_for_bit() {
        let _serial = crate::wall_clock_test_guard();
        let found: usize = std::thread::scope(|s| {
            let seeds = [1u64, 3, 5, 7, 21].map(|seed| {
                s.spawn(move || {
                    let video = SyntheticVideo::two_person_scene(seed);
                    let models = ColorModel::scene_models(&video);
                    assert!(video.background_frame() == background_frame());
                    (0..600)
                        .step_by(7)
                        .map(|frame_no| check_frame(&video, &models, frame_no))
                        .sum::<usize>()
                })
            });
            seeds
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .sum()
        });
        assert!(found > 0, "no detection found a target");
    }

    #[test]
    fn kernels_match_reference_on_edge_cases() {
        // An absence window: target 0 is off-scene for frames 50..120.
        let video = SyntheticVideo::two_person_scene(3).with_absence(0, 50, 120);
        let models = ColorModel::scene_models(&video);
        for frame_no in (40..130).step_by(5) {
            check_frame(&video, &models, frame_no);
        }
        // No noise.
        let mut quiet = SyntheticVideo::two_person_scene(5);
        quiet.noise_amp = 0;
        for frame_no in [0, 77, 311] {
            check_frame(&quiet, &models, frame_no);
        }
        // The widest noise: clamping at both ends of the channel range.
        let mut loud = SyntheticVideo::two_person_scene(7);
        loud.noise_amp = 255;
        check_frame(&loud, &models, 9);
        // A model whose weights are not multiples of 1/256 — the frame's own
        // histogram — and an all-zero mask.
        let f = video.frame(10);
        let hist = kernels::build_histogram(&f);
        let model = ColorModel {
            id: 7,
            bins: hist.bins.clone(),
        };
        let mask = kernels::subtract_background(&video.background_frame(), &f);
        let loc = kernels::detect_target(&f, &mask, &hist, &model);
        assert_eq!(loc, detect_target(&f, &mask, &hist, &model));
        assert_eq!(loc.found, 1);
        let empty = MotionMask {
            frame_no: 10,
            mask: vec![0; FRAME_PIXELS],
        };
        for model in models.iter().chain([&model]) {
            let loc = kernels::detect_target(&f, &empty, &hist, model);
            assert_eq!(loc, detect_target(&f, &empty, &hist, model));
            assert_eq!(loc.found, 0);
        }
    }
}
