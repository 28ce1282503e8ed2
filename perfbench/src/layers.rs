//! Per-call costs of single layers, each timed in isolation around calls
//! into the crates' public functions.

use crate::stats::median;
use aru_core::{AruConfig, AruController, NodeKind, Stp, Topology};
use aru_gc::{ConsumerMarks, DgcEngine, IdealGc};
use aru_metrics::{
    FaultReport, FootprintReport, ItemId, IterKey, Lineage, PerfReport, SharedTrace, Trace,
    WasteReport,
};
use desim::{EventQueue, EventQueueKind, QueueOp, Sim, SimBuilder, SimConfig, SimReport};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use tracker::kernels::{build_histogram, detect_target, subtract_background};
use tracker::{ColorModel, SyntheticVideo};
use vtime::{SimTime, Timestamp};

/// Seconds `f` took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Per-call costs of the tracker's pixel kernels, in ms.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    pub frame: f64,
    pub subtract: f64,
    pub histogram: f64,
    pub detect: f64,
    /// Every kernel of one frame, back to back in one thread: the
    /// single-threaded baseline.
    pub serial: f64,
}

/// Time each kernel on `frames` frames of the seed's video (medians).
#[must_use]
pub fn tracker_kernels(seed: u64, frames: u64) -> KernelCosts {
    let video = SyntheticVideo::two_person_scene(seed);
    let background = video.background_frame();
    let models = ColorModel::scene_models(&video);
    let (mut fr, mut sub, mut hist, mut det, mut serial) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..frames {
        let (frame, s) = timed(|| video.frame(i));
        fr.push(s);
        let (mask, s) = timed(|| subtract_background(&background, &frame));
        sub.push(s);
        let (h, s) = timed(|| build_histogram(&frame));
        hist.push(s);
        for m in &models {
            let (loc, s) = timed(|| detect_target(&frame, &mask, &h, m));
            black_box(loc);
            det.push(s);
        }
        let ((), s) = timed(|| {
            let frame = video.frame(i);
            let mask = subtract_background(&background, &frame);
            let h = build_histogram(&frame);
            for m in &models {
                black_box(detect_target(&frame, &mask, &h, m));
            }
        });
        serial.push(s);
    }
    KernelCosts {
        frame: median(&fr) * 1e3,
        subtract: median(&sub) * 1e3,
        histogram: median(&hist) * 1e3,
        detect: median(&det) * 1e3,
        serial: median(&serial) * 1e3,
    }
}

/// One source thread's controller cycle — iteration begin, a piggybacked
/// summary-STP arriving on its output, iteration end with the control law
/// — in ns, under `config`.
#[must_use]
pub fn aru_feedback_ns(config: &AruConfig) -> f64 {
    const CYCLES: u64 = 200_000;
    let mut reps = Vec::new();
    for _ in 0..5 {
        let mut c = AruController::new(NodeKind::Thread, 1, true, config);
        let t0 = Instant::now();
        for i in 0..CYCLES {
            let now = SimTime(i * 100);
            c.iteration_begin(now);
            // A downstream period that wanders, so the law keeps deciding.
            let stp = Stp::from_micros(900 + (i * 7919) % 200);
            black_box(c.receive_feedback_at(0, black_box(stp), now));
            black_box(c.iteration_end(SimTime(i * 100 + 40)));
        }
        reps.push(t0.elapsed().as_secs_f64() * 1e9 / CYCLES as f64);
    }
    median(&reps)
}

/// One dead-timestamp GC pass over `topo`, in µs, with every buffer's
/// consumers at staggered marks.
#[must_use]
pub fn dgc_pass_us(topo: &Topology) -> f64 {
    let engine = DgcEngine::new(topo);
    let mut marks = HashMap::new();
    for n in topo.node_ids() {
        if topo.kind(n) != NodeKind::Thread {
            let k = topo.out_degree(n);
            let mut m = ConsumerMarks::new(k);
            for i in 0..k {
                m.advance(i, Timestamp(1_000 + i as u64));
            }
            marks.insert(n, m);
        }
    }
    let passes = (200_000 / topo.node_count().max(1)).max(50);
    let mut reps = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..passes {
            black_box(engine.compute(topo, black_box(&marks)));
        }
        reps.push(t0.elapsed().as_secs_f64() * 1e6 / passes as f64);
    }
    median(&reps)
}

/// One trace-event append through a buffer-owned writer, in ns (flushes
/// included).
#[must_use]
pub fn trace_append_ns() -> f64 {
    const EVENTS: u64 = 200_000;
    let mut reps = Vec::new();
    for _ in 0..5 {
        let shared = SharedTrace::new();
        let mut local = shared.local();
        let consumer = IterKey::new(aru_core::NodeId(1), 0);
        let t0 = Instant::now();
        for i in 0..EVENTS {
            local.get(SimTime(i), ItemId(i), consumer);
        }
        local.flush();
        reps.push(t0.elapsed().as_secs_f64() * 1e9 / EVENTS as f64);
        black_box(shared.snapshot().len());
    }
    median(&reps)
}

/// Seconds each postmortem analysis took on one trace, each called alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadCosts {
    pub lineage: f64,
    pub footprint: f64,
    pub waste: f64,
    pub perf: f64,
    pub fault: f64,
    pub igc: f64,
}

impl ReadCosts {
    #[must_use]
    pub fn total(&self) -> f64 {
        self.lineage + self.footprint + self.waste + self.perf + self.fault + self.igc
    }
}

/// Time the postmortem suite on `trace`, one analysis at a time.
#[must_use]
pub fn postmortem(trace: &Trace, t_end: SimTime) -> ReadCosts {
    let (lineage, lineage_s) = timed(|| Lineage::analyze(trace));
    let (fp, footprint) = timed(|| FootprintReport::compute(trace, &lineage, t_end));
    let (w, waste) = timed(|| WasteReport::compute(&lineage, t_end));
    let (p, perf) = timed(|| PerfReport::compute(trace, &lineage, t_end));
    let (f, fault) = timed(|| FaultReport::compute(trace));
    let (i, igc) = timed(|| IdealGc::from_lineage(&lineage, t_end));
    black_box((fp, w, p, f, i));
    ReadCosts {
        lineage: lineage_s,
        footprint,
        waste,
        perf,
        fault,
        igc,
    }
}

/// What simulating one scenario cost the discrete-event engine.
#[derive(Debug)]
pub struct DesimCosts {
    pub report: SimReport,
    pub run_s: f64,
    /// Replaying the run's captured event-queue operations through the
    /// public calendar `EventQueue`, in seconds.
    pub equeue_s: f64,
}

/// Run `make()`'s scenario once plain (timed) and once with queue capture,
/// then replay the captured push/pop sequence.
pub fn desim(make: impl Fn() -> (SimBuilder, SimConfig)) -> DesimCosts {
    let (b, cfg) = make();
    let (report, run_s) = timed(|| Sim::run(b, cfg).expect("scenario builds"));
    let (b, cfg) = make();
    let (_, ops) = Sim::run_with_queue_capture(b, cfg).expect("scenario builds");
    DesimCosts {
        report,
        run_s,
        equeue_s: replay(&ops),
    }
}

/// Seconds to replay `ops` through a calendar `EventQueue`.
#[must_use]
pub fn replay(ops: &[QueueOp]) -> f64 {
    let mut q: EventQueue<[u64; 5]> = EventQueue::new(EventQueueKind::Calendar);
    let t0 = Instant::now();
    for op in ops {
        match *op {
            QueueOp::Push(t, s) => q.push(t, s, [s; 5]),
            QueueOp::Pop => {
                black_box(q.pop().expect("a captured pop has an event to pop"));
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_probes_return_positive_costs() {
        let k = tracker_kernels(3, 1);
        assert!(k.frame > 0.0 && k.subtract > 0.0 && k.histogram > 0.0 && k.detect > 0.0);
        assert!(k.serial > 0.0);
        assert!(aru_feedback_ns(&AruConfig::aru_min()) > 0.0);
        assert!(dgc_pass_us(&tracker::TrackerGraph::topology()) > 0.0);
    }
}
