//! Histogram back-projection target detection (the paper's Target
//! Detection task — one instance per color model).
//!
//! Every foreground pixel is weighted by the color model's weight for its
//! histogram bin; an integral image over the weight map finds the window
//! with the highest model mass; the weighted centroid inside that window is
//! the reported location.
//!
//! The window scan only reads the integral image on the 8-pixel grid, so
//! the kernel keeps just those 48×80 entries and never builds the weight
//! map. It still performs the floating-point additions of a full per-pixel
//! integral image, in the same order, for every entry it keeps; the
//! additions it skips all add `+0.0` (a background pixel's weight, or an
//! empty row's prefix), which leaves any sum unchanged. The result is
//! therefore identical for every color model, not only for models whose
//! weights sum exactly (DESIGN.md §2.1).

use crate::model::ColorModel;
use crate::types::{Frame, HistModel, MotionMask, TargetLocation, FRAME_H, FRAME_PIXELS, FRAME_W};

/// Detection window half-size (matches the synthetic targets' scale).
const WIN_HALF: usize = 32;
/// Window side.
const WIN: usize = 2 * WIN_HALF;
/// Minimum back-projection mass for a positive detection.
const MIN_SCORE: f32 = 0.5;
/// Grid step of the window scan, in pixels (one mask cell: 8 bytes).
const STEP: usize = 8;
/// Grid columns `x = 0, 8, …, FRAME_W - 8`: every window edge the scan uses
/// (`x + WIN < FRAME_W`).
const GRID_W: usize = FRAME_W / STEP;
/// Grid rows `y = 0, 8, …, FRAME_H - 8`.
const GRID_H: usize = FRAME_H / STEP;

/// Run detection for one color model on one frame's mask + histogram,
/// sampling the joined video frame to report the detection's mean color.
///
/// # Panics
///
/// If the mask or the bin map is shorter than a frame, or a foreground
/// pixel's bin is outside the model.
#[must_use]
pub fn detect_target(
    frame: &Frame,
    mask: &MotionMask,
    hist: &HistModel,
    model: &ColorModel,
) -> TargetLocation {
    // The frame join is exact; the histogram model may legitimately lag
    // (the detector takes the freshest model at or before its mask — the
    // color model evolves slowly).
    debug_assert_eq!(mask.frame_no, frame.frame_no, "frame join mismatch");
    let fg = &mask.mask[..FRAME_PIXELS];
    let bins = &hist.pixel_bins[..FRAME_PIXELS];
    let weight = |p: usize| f64::from(model.weight(bins[p]));
    // integral[r][c]: the weight mass of the rectangle above row 8r and left
    // of column 8c. Row by row, as a full integral image is built: the
    // row's running prefix, read at each grid column, is added to the
    // column's total.
    let mut integral = [[0.0f64; GRID_W]; GRID_H];
    let mut column = [0.0f64; GRID_W];
    for y in 0..(GRID_H - 1) * STEP {
        if y % STEP == 0 {
            integral[y / STEP] = column;
        }
        let row_fg = &fg[y * FRAME_W..(y + 1) * FRAME_W];
        let mut prefix = [0.0f64; GRID_W];
        let mut row = 0.0f64;
        let mut any = false;
        // The last cell only feeds column 640, which no window reads.
        for (c, cell) in row_fg.chunks_exact(STEP).enumerate().take(GRID_W - 1) {
            if u64::from_ne_bytes(cell.try_into().expect("8-byte cell")) != 0 {
                any = true;
                for (i, &m) in cell.iter().enumerate() {
                    if m != 0 {
                        row += weight(y * FRAME_W + c * STEP + i);
                    }
                }
            }
            prefix[c + 1] = row;
        }
        if any {
            for (t, p) in column.iter_mut().zip(&prefix) {
                *t += p;
            }
        }
    }
    integral[GRID_H - 1] = column;
    // Scan windows on the grid, then refine with the centroid.
    let window_sum = |c0: usize, r0: usize| -> f64 {
        let (c1, r1) = (c0 + WIN / STEP, r0 + WIN / STEP);
        integral[r1][c1] - integral[r0][c1] - integral[r1][c0] + integral[r0][c0]
    };
    let mut best = (0usize, 0usize, f64::MIN);
    for r in (0..GRID_H).take_while(|r| r * STEP + WIN < FRAME_H) {
        for c in (0..GRID_W).take_while(|c| c * STEP + WIN < FRAME_W) {
            let s = window_sum(c, r);
            if s > best.2 {
                best = (c * STEP, r * STEP, s);
            }
        }
    }
    let (bx, by, score) = best;
    if score < MIN_SCORE as f64 {
        return TargetLocation::not_found(mask.frame_no, model.id);
    }
    // Weighted centroid and mean frame color within the best window.
    let (mut sx, mut sy, mut sw, mut support) = (0.0f64, 0.0f64, 0.0f64, 0u32);
    let mut rgb_acc = [0.0f64; 3];
    for y in by..(by + WIN).min(FRAME_H) {
        for x in bx..(bx + WIN).min(FRAME_W) {
            let p = y * FRAME_W + x;
            if fg[p] == 0 {
                continue;
            }
            let w = weight(p);
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
        bbox: [bx as f32, by as f32, (bx + WIN) as f32, (by + WIN) as f32],
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
    use crate::kernels::{build_histogram, subtract_background};
    use crate::video::SyntheticVideo;

    fn detect_frame(v: &SyntheticVideo, model_id: usize, frame_no: u64) -> TargetLocation {
        let bg = v.background_frame();
        let f = v.frame(frame_no);
        let mask = subtract_background(&bg, &f);
        let hist = build_histogram(&f);
        let models = ColorModel::scene_models(v);
        detect_target(&f, &mask, &hist, &models[model_id])
    }

    #[test]
    fn finds_target_near_ground_truth() {
        let v = SyntheticVideo::two_person_scene(5);
        for frame_no in [0u64, 40, 123] {
            for model in 0..2usize {
                let det = detect_frame(&v, model, frame_no);
                assert_eq!(det.found, 1, "model {model} frame {frame_no} not found");
                let gt = v.ground_truth(model, frame_no);
                let err = ((det.x as f64 - gt.cx).powi(2) + (det.y as f64 - gt.cy).powi(2)).sqrt();
                assert!(
                    err < 25.0,
                    "model {model} frame {frame_no}: error {err:.1}px (det {},{} vs gt {:.0},{:.0})",
                    det.x,
                    det.y,
                    gt.cx,
                    gt.cy
                );
            }
        }
    }

    #[test]
    fn models_do_not_cross_detect() {
        let v = SyntheticVideo::two_person_scene(5);
        let d0 = detect_frame(&v, 0, 60);
        let d1 = detect_frame(&v, 1, 60);
        let gt0 = v.ground_truth(0, 60);
        let gt1 = v.ground_truth(1, 60);
        let err00 = ((d0.x as f64 - gt0.cx).powi(2) + (d0.y as f64 - gt0.cy).powi(2)).sqrt();
        let err11 = ((d1.x as f64 - gt1.cx).powi(2) + (d1.y as f64 - gt1.cy).powi(2)).sqrt();
        assert!(err00 < 25.0 && err11 < 25.0, "{err00} {err11}");
    }

    #[test]
    fn mean_rgb_matches_target_color() {
        // The mean color sampled from the joined frame must match the
        // model's target color — this validates the exact-timestamp join
        // end-to-end (a mismatched frame would blur toward the background).
        let v = SyntheticVideo::two_person_scene(5);
        for model in 0..2usize {
            let det = detect_frame(&v, model, 33);
            assert_eq!(det.found, 1);
            let c = v.target(model).color;
            let want = [c.0 as f32, c.1 as f32, c.2 as f32];
            for (got, want) in det.mean_rgb.iter().zip(want) {
                assert!(
                    (got - want).abs() < 25.0,
                    "model {model}: mean_rgb {:?} vs target {:?}",
                    det.mean_rgb,
                    want
                );
            }
        }
    }

    #[test]
    fn absent_target_reports_not_found_while_other_tracks() {
        let v = SyntheticVideo::two_person_scene(5).with_absence(0, 0, 1000);
        let bg = v.background_frame();
        let f = v.frame(50);
        let mask = subtract_background(&bg, &f);
        let hist = build_histogram(&f);
        let models = ColorModel::scene_models(&v);
        let d0 = detect_target(&f, &mask, &hist, &models[0]);
        let d1 = detect_target(&f, &mask, &hist, &models[1]);
        assert_eq!(d0.found, 0, "absent target must not be found");
        assert_eq!(d1.found, 1, "present target still tracked");
    }

    #[test]
    fn empty_mask_reports_not_found() {
        let v = SyntheticVideo::two_person_scene(5);
        let f = v.frame(0);
        let hist = build_histogram(&f);
        let empty = MotionMask {
            frame_no: 0,
            mask: vec![0u8; FRAME_W * FRAME_H],
        };
        let models = ColorModel::scene_models(&v);
        let det = detect_target(&f, &empty, &hist, &models[0]);
        assert_eq!(det.found, 0);
    }
}
