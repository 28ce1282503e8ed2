//! `desim_scale`: one `repro --exp scale` cell as the sweep runs it — the
//! 100-node bench scenario (heterogeneous speeds, bursty load, injected
//! crashes, 8-way fan-out over a congested fabric), 4 s of virtual time —
//! simulated and then analysed, single-threaded.

use crate::breakdown::{pace_overshoot, Counts};
use crate::layers::{self, timed, ReadCosts};
use crate::stats::median;
use crate::sys::process_cpu_s;
use crate::threaded::{desim_metrics, read_metrics};
use crate::{Args, Outcome};
use aru_core::NodeId;
use aru_metrics::footprint::observed_series;
use aru_metrics::TraceEvent;
use desim::{EventQueueKind, Sim, SimBuilder, SimConfig, SimReport};
use experiments::scale;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use vtime::{Micros, SimTime, Timestamp};

const NODES: usize = 100;
/// The sweep's seed (`ExpParams::default().seeds[0]`): it fixes the
/// cluster — node speed classes, pipeline service times, crash schedule —
/// so that the run's `--seed` drives the service-time noise of a cluster
/// that does not change from run to run.
const CLUSTER_SEED: u64 = 2005;
/// The sweep's virtual duration for a 100-node cell (`scale::matrix`).
const VIRTUAL_S: u64 = 4;
/// The simulator's DGC pass period (`SimConfig` default), s.
const DGC_INTERVAL_S: f64 = 0.010;
/// Scenario builds timed per `setup_s` sample process.
const SETUPS: usize = 101;
const MIN_CELLS: usize = 3;

fn make(seed: u64) -> (SimBuilder, SimConfig) {
    let (b, mut cfg) = scale::build(&scale::bench_scenario(
        NODES,
        Micros::from_secs(VIRTUAL_S),
        CLUSTER_SEED,
    ));
    cfg.seed = seed;
    (b, cfg)
}

/// What must not change between two runs of one seed: dispatched events,
/// sink outputs, trace length and the observed footprint's mean (bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub events: u64,
    pub outputs: usize,
    pub trace_len: usize,
    pub footprint_bits: u64,
}

impl Digest {
    #[must_use]
    pub fn of(r: &SimReport) -> Digest {
        Digest {
            events: r.events_dispatched,
            outputs: r.outputs(),
            trace_len: r.trace.len(),
            footprint_bits: observed_series(&r.trace)
                .weighted_summary(r.t_end)
                .mean
                .to_bits(),
        }
    }
}

/// Simulate `(b, cfg)` and digest the run.
#[must_use]
pub fn digest(b: SimBuilder, cfg: SimConfig) -> Digest {
    Digest::of(&Sim::run(b, cfg).expect("scale cell builds"))
}

/// The same seed's run on the binary-heap event queue, the calendar
/// queue's oracle.
fn oracle(seed: u64) -> Digest {
    let (b, mut cfg) = make(seed);
    cfg.queue = EventQueueKind::BinaryHeap;
    digest(b, cfg)
}

/// One timed cell.
struct Cell {
    report: SimReport,
    run_s: f64,
    reads: ReadCosts,
    /// Wall seconds of run + analysis, and the CPU seconds over them.
    wall_s: f64,
    cpu_s: f64,
    footprint_mean: f64,
}

fn cell(seed: u64, per_analysis: bool) -> Cell {
    let (b, cfg) = make(seed);
    let (t0, cpu0) = (Instant::now(), process_cpu_s());
    let (report, run_s) = timed(|| Sim::run(b, cfg).expect("scale cell builds"));
    let (reads, footprint_mean) = if per_analysis {
        let reads = layers::postmortem(&report.trace, report.t_end);
        let fp = observed_series(&report.trace)
            .weighted_summary(report.t_end)
            .mean;
        (reads, fp)
    } else {
        let a = report.analyze();
        (ReadCosts::default(), a.footprint.observed_summary().mean)
    };
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), process_cpu_s() - cpu0);
    Cell {
        report,
        run_s,
        reads,
        wall_s,
        cpu_s,
        footprint_mean,
    }
}

/// Run cells for `secs` (at least [`MIN_CELLS`]); every cell's digest must
/// equal the oracle's. Returns each cell's figures, the last cell, and
/// `(attempted, failed)`.
fn cells(a: &Args, per_analysis: bool) -> (Vec<(f64, f64)>, Cell, u64, u64) {
    let want = oracle(a.seed);
    let t0 = Instant::now();
    let (mut figures, mut attempted, mut failed) = (Vec::new(), 0, 0);
    loop {
        let c = cell(a.seed, per_analysis);
        attempted += 1;
        if Digest::of(&c.report) != want {
            failed += 1;
        }
        let outputs = c.report.outputs().max(1) as f64;
        figures.push((outputs / c.wall_s, c.cpu_s * 1e6 / outputs));
        if figures.len() >= MIN_CELLS && t0.elapsed().as_secs_f64() >= a.seconds {
            return (figures, c, attempted, failed);
        }
    }
}

/// Virtual put-to-output latencies of the simulated sinks, ms. Every
/// pipeline numbers its items from 0, so an item's birth is its put into
/// the channel its sink reads, not the earliest put of that timestamp
/// anywhere in the cluster.
fn latencies_ms(r: &SimReport) -> Vec<f64> {
    let mut born: HashMap<(NodeId, Timestamp), SimTime> = HashMap::new();
    for e in r.trace.events() {
        if let TraceEvent::Alloc { t, buffer, ts, .. } = *e {
            born.entry((buffer, ts)).or_insert(t);
        }
    }
    r.trace
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::SinkOutput { t, iter, ts } => r
                .topo
                .inputs(iter.node)
                .filter_map(|edge| born.get(&(edge.from, ts)))
                .min()
                .map(|b| t.since(*b).as_micros() as f64 / 1e3),
            _ => None,
        })
        .collect()
}

fn jitter_ms(r: &SimReport) -> f64 {
    let mut outs: Vec<f64> = r
        .trace
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::SinkOutput { t, .. } => Some(t.0 as f64 / 1e3),
            _ => None,
        })
        .collect();
    outs.sort_by(f64::total_cmp);
    let gaps: Vec<f64> = outs.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
    (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len().max(1) as f64).sqrt()
}

/// `setup_s` samples: the scenario built into simulator inputs.
pub fn setup_samples(seed: u64) -> Vec<f64> {
    (0..SETUPS).map(|_| timed(|| make(seed)).1).collect()
}

pub fn untraced(a: &Args) -> Outcome {
    let (figures, last, attempted, failed) = cells(a, false);
    let mut o = Outcome::new(attempted, failed);
    let rates: Vec<f64> = figures.iter().map(|f| f.0).collect();
    let cpu: Vec<f64> = figures.iter().map(|f| f.1).collect();
    o.set_end_to_end(&rates, &cpu, &latencies_ms(&last.report));
    o
}

pub fn traced(a: &Args) -> Outcome {
    let (figures, c, attempted, failed) = cells(a, true);
    let mut o = Outcome::new(attempted, failed);
    let r = &c.report;
    let counts = Counts::of(&r.trace, &r.topo);
    let outputs = counts.outputs.max(1) as f64;
    let cpu_us = median(&figures.iter().map(|f| f.1).collect::<Vec<_>>());
    let mut m = BTreeMap::new();

    let (_, ops) =
        Sim::run_with_queue_capture(make(a.seed).0, make(a.seed).1).expect("scale cell builds");
    let equeue_s = layers::replay(&ops);
    drop(ops);
    let ops = crate::wl_small::op_probe(a.seed);
    let aru_ns = layers::aru_feedback_ns(&aru_core::AruConfig::aru_min());
    let dgc_us = layers::dgc_pass_us(&r.topo);
    let append_ns = layers::trace_append_ns();

    let virtual_s = VIRTUAL_S as f64;
    let passes = virtual_s / DGC_INTERVAL_S / outputs;
    let aru_us = counts.per_output(counts.iterations) * aru_ns / 1e3;
    let write_us = counts.per_output(counts.events) * append_ns / 1e3;
    let dgc_in_run_us = passes * dgc_us;
    let read_us = (c.reads.total() - c.reads.igc) * 1e6 / outputs;
    let igc_us = c.reads.igc * 1e6 / outputs;
    // The engine's own time: the run less the layers it calls into.
    let desim_us = c.run_s * 1e6 / outputs - aru_us - write_us - dgc_in_run_us;
    let journal = r.telemetry.journal.snapshot();
    for (k, v) in [
        ("stampede.channel_put_us", ops.channel_put_us),
        ("stampede.channel_get_latest_us", ops.channel_get_latest_us),
        ("stampede.queue_put_us", ops.queue_put_us),
        ("stampede.queue_get_us", ops.queue_get_us),
        ("stampede.source_gap_us", ops.source_gap_us),
        ("stampede.ops_per_output", 0.0),
        ("stampede.share", 0.0),
        ("aru.feedback_ns", aru_ns),
        (
            "aru.pace_decisions_per_output",
            counts.per_output(counts.pace_decisions),
        ),
        (
            "aru.pace_overshoot",
            pace_overshoot(&r.trace, &r.topo, virtual_s),
        ),
        ("aru.share", aru_us / cpu_us),
        ("gc.dgc_pass_us", dgc_us),
        ("gc.dgc_passes_per_output", passes),
        ("gc.frees_per_output", counts.per_output(counts.frees)),
        ("gc.igc_s", c.reads.igc),
        ("gc.share", (dgc_in_run_us + igc_us) / cpu_us),
        (
            "metrics.trace_events_per_output",
            counts.per_output(counts.events),
        ),
        (
            "metrics.journal_records_per_output",
            (journal.records.len() as f64 + journal.dropped as f64) / outputs,
        ),
        ("metrics.trace_append_ns", append_ns),
        ("metrics.share", (write_us + read_us) / cpu_us),
        ("desim.share", desim_us / cpu_us),
        (
            "residual_share",
            1.0 - (aru_us + write_us + dgc_in_run_us + read_us + igc_us + desim_us) / cpu_us,
        ),
        ("tracing_overhead", 0.0),
    ] {
        m.insert(k.into(), v);
    }
    read_metrics(&c.reads, &mut m);
    m.insert("metrics.footprint_mb".into(), c.footprint_mean / 1e6);
    let d = layers::DesimCosts {
        run_s: c.run_s,
        equeue_s,
        report: c.report,
    };
    desim_metrics(&d, &mut m);
    crate::no_tracker_work(a.seed, &mut m);
    for task in crate::catalogue::TASKS {
        for k in ["iters_per_output", "busy_share", "useful_ratio"] {
            m.insert(format!("stampede.{task}.{k}"), 0.0);
        }
    }
    o.diagnostics(&latencies_ms(&d.report), jitter_ms(&d.report), &mut m);
    o.per_layer = m;
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_digest() {
        let small = |seed| scale::build(&scale::bench_scenario(10, Micros::from_millis(500), seed));
        let (b, c) = small(7);
        let first = digest(b, c);
        let (b, c) = small(7);
        assert_eq!(digest(b, c), first);
        let (b, mut c) = small(7);
        c.queue = EventQueueKind::BinaryHeap;
        assert_eq!(digest(b, c), first, "calendar and heap queues disagree");
        assert!(first.outputs > 0 && first.events > 0);
    }
}
