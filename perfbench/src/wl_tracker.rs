//! `tracker_overrun`: the Figure-5 tracker on real threads, configuration
//! 1, ARU-min + DGC, with target detection slowed by 25 ms so that without
//! ARU the digitizer would overrun it.

use crate::breakdown::{pace_overshoot, stage_metrics, Counts};
use crate::layers::{self, timed};
use crate::threaded::{run_window, Probes, ThreadedRun};
use crate::window::Window;
use crate::{Args, Outcome};
use aru_core::AruConfig;
use std::collections::BTreeMap;
use tracker::{build_threaded, ThreadedTrackerParams};
use vtime::Micros;

/// Builds timed per `setup_s` sample process.
const SETUPS: usize = 41;
/// Warm-up before the timed window: the feedback loop settles the
/// digitizer's pace within the first few hundred ms.
const WARM_S: f64 = 1.0;
/// A detection farther than this from the ground truth is a failure (the
/// rule `threaded_tracker_end_to_end` asserts).
const MAX_ERR_PX: f64 = 30.0;

fn params(seed: u64) -> ThreadedTrackerParams {
    let mut p = ThreadedTrackerParams::new(AruConfig::aru_min());
    p.seed = seed;
    p.delays.target_detection = Micros::from_millis(25);
    p
}

/// `setup_s` samples: `build_threaded` timed, its graph dropped unstarted.
pub fn setup_samples(seed: u64) -> Vec<f64> {
    let p = params(seed);
    (0..SETUPS)
        .map(|_| {
            let (t, s) = timed(|| build_threaded(&p).expect("tracker graph builds"));
            drop(t);
            s
        })
        .collect()
}

/// One timed run plus its correctness verdict `(attempted, failed)`.
fn run(seed: u64, secs: f64) -> (ThreadedRun, u64, u64) {
    let t = build_threaded(&params(seed)).expect("tracker graph builds");
    let detections = std::sync::Arc::clone(&t.detections);
    let run = run_window(t.runtime, WARM_S, (secs - WARM_S).max(0.5));
    let dets = detections.lock();
    let (mut attempted, mut failed) = (0, 0);
    for d in dets.iter().filter(|d| d.found == 1) {
        let gt = t.video.ground_truth(d.model_id as usize, d.frame_no);
        let err = ((f64::from(d.x) - gt.cx).powi(2) + (f64::from(d.y) - gt.cy).powi(2)).sqrt();
        attempted += 1;
        if err >= MAX_ERR_PX {
            failed += 1;
            eprintln!(
                "tracker_overrun: frame {} model {} detected {:.1} px from ground truth",
                d.frame_no, d.model_id, err
            );
        }
    }
    if attempted == 0 {
        // No positive detection at all: the tracker is broken.
        failed = 1;
        attempted = 1;
    }
    (run, attempted, failed)
}

pub fn untraced(a: &Args) -> Outcome {
    let (r, attempted, failed) = run(a.seed, a.seconds);
    let mut o = Outcome::new(attempted, failed);
    o.end_to_end(std::slice::from_ref(&r.window));
    o
}

pub fn traced(a: &Args) -> Outcome {
    let (r, attempted, failed) = run(a.seed, a.seconds);
    let mut o = Outcome::new(attempted, failed);
    let w: &Window = &r.window;
    let counts = Counts::of(&r.report.trace, &r.report.topo);
    let k = layers::tracker_kernels(a.seed, 12);
    let calls = |task: &str| counts.per_output(counts.producing.get(task).copied().unwrap_or(0));
    let kernel_calls = [
        "digitizer",
        "change-detection",
        "histogram",
        "target-det-1",
        "target-det-2",
    ]
    .iter()
    .map(|t| calls(t))
    .sum::<f64>();
    let kernel_us = 1e3
        * (calls("digitizer") * k.frame
            + calls("change-detection") * k.subtract
            + calls("histogram") * k.histogram
            + (calls("target-det-1") + calls("target-det-2")) * k.detect);
    let mut m = BTreeMap::new();
    m.insert("tracker.kernel_calls_per_output".into(), kernel_calls);
    let probes = Probes::measure(
        a.seed,
        &r.report.topo,
        &r.report.trace,
        r.report.t_end,
        None,
        || {
            tracker::app_sim::build_sim(
                &tracker::SimTrackerParams::new(
                    AruConfig::aru_min(),
                    tracker::TrackerConfigId::OneNode,
                )
                .with_seed(a.seed)
                .with_duration(Micros::from_secs(20)),
            )
        },
    );
    stage_metrics(
        &r.report.trace,
        &r.report.topo,
        counts.outputs,
        r.run_secs,
        &mut m,
    );
    m.insert(
        "aru.pace_overshoot".into(),
        pace_overshoot(&r.report.trace, &r.report.topo, r.run_secs),
    );
    probes.layer_metrics(&counts, &r, w.cpu_us_per_output(), kernel_us, 0.0, &mut m);
    m.insert("tracker.frame_ms".into(), k.frame);
    m.insert("tracker.subtract_background_ms".into(), k.subtract);
    m.insert("tracker.build_histogram_ms".into(), k.histogram);
    m.insert("tracker.detect_target_ms".into(), k.detect);
    m.insert("tracker.serial_ms_per_frame".into(), k.serial);
    m.insert(
        "tracker.kernel_share".into(),
        kernel_us / w.cpu_us_per_output(),
    );
    m.insert("metrics.footprint_mb".into(), w.footprint_bytes / 1e6);
    // Every per-layer probe here runs outside the pipeline: the timed run
    // itself carries no extra instrumentation.
    m.insert("tracing_overhead".into(), 0.0);
    o.diagnostics(&w.latency_ms, w.jitter_ms, &mut m);
    o.per_layer = m;
    o
}
