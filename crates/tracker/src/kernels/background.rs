//! Background differencing (the paper's Motion Mask / Background task).

use crate::types::{Frame, MotionMask, FRAME_PIXELS};

/// Summed absolute channel-difference threshold above which a pixel counts
/// as foreground. The synthetic video applies the same noise sample to all
/// three channels (max summed noise 3·12 = 36), so 60 rejects noise while
/// target pixels differ by hundreds.
pub const DIFF_THRESHOLD: i16 = 60;

/// Pixels per block of the kernel's inner loops.
const BLOCK: usize = 16;

/// Compute the motion mask of `frame` against the static `background`.
///
/// # Panics
///
/// If the two frames differ in length or are shorter than a full frame.
#[must_use]
pub fn subtract_background(background: &Frame, frame: &Frame) -> MotionMask {
    assert_eq!(
        background.rgb.len(),
        frame.rgb.len(),
        "background and frame differ in size"
    );
    let bg = &background.rgb[..3 * FRAME_PIXELS];
    let fr = &frame.rgb[..3 * FRAME_PIXELS];
    let mut mask = vec![0u8; FRAME_PIXELS];
    for ((m, f), b) in mask
        .chunks_exact_mut(BLOCK)
        .zip(fr.chunks_exact(3 * BLOCK))
        .zip(bg.chunks_exact(3 * BLOCK))
    {
        // Per-byte differences, split into channel planes, summed per pixel:
        // the byte pass and the plane sums vectorize, a per-pixel
        // `chunks_exact(3)` loop does not and takes twice as long
        // (EXPERIMENTS.md, "Tracker kernels").
        let mut diff = [0i16; 3 * BLOCK];
        for ((d, &f), &b) in diff.iter_mut().zip(f).zip(b) {
            *d = i16::from(f.abs_diff(b));
        }
        let mut planes = [[0i16; BLOCK]; 3];
        for (p, d) in diff.chunks_exact(3).enumerate() {
            for (plane, &d) in planes.iter_mut().zip(d) {
                plane[p] = d;
            }
        }
        for (p, m) in m.iter_mut().enumerate() {
            let sum = planes[0][p] + planes[1][p] + planes[2][p];
            *m = if sum > DIFF_THRESHOLD { 255 } else { 0 };
        }
    }
    MotionMask {
        frame_no: frame.frame_no,
        mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::SyntheticVideo;

    #[test]
    fn mask_covers_targets_not_background() {
        let mut v = SyntheticVideo::two_person_scene(1);
        v.noise_amp = 0;
        let bg = v.background_frame();
        let f = v.frame(20);
        let m = subtract_background(&bg, &f);
        // the two targets cover ~2-4% of the frame
        let ratio = m.foreground_ratio();
        assert!(
            ratio > 0.01 && ratio < 0.10,
            "foreground ratio {ratio} out of range"
        );
        // target center is foreground
        let gt = v.ground_truth(0, 20);
        let idx = gt.cy as usize * crate::types::FRAME_W + gt.cx as usize;
        assert_eq!(m.mask[idx], 255);
        // far corner is background
        assert_eq!(m.mask[3], 0);
    }

    #[test]
    fn noise_is_rejected() {
        let v = SyntheticVideo::two_person_scene(1); // noise_amp = 12
        let bg = v.background_frame();
        let f = v.frame(20);
        let m = subtract_background(&bg, &f);
        assert!(
            m.foreground_ratio() < 0.15,
            "noise leaked into mask: {}",
            m.foreground_ratio()
        );
    }

    #[test]
    fn identical_frames_give_empty_mask() {
        let v = SyntheticVideo::two_person_scene(1);
        let bg = v.background_frame();
        let m = subtract_background(&bg, &bg);
        assert_eq!(m.foreground_ratio(), 0.0);
    }
}
