//! Shared driver of the two threaded workloads: one timed window of a
//! built pipeline, and the per-layer probes and additive layer model.

use crate::breakdown::Counts;
use crate::layers::{self, DesimCosts, ReadCosts};
use crate::sys::process_cpu_s;
use crate::window::{measure, Window};
use crate::wl_small::{self, OpCosts};
use aru_core::{AruConfig, Topology};
use aru_metrics::trace::wall_clock_unix_us;
use aru_metrics::Trace;
use desim::{SimBuilder, SimConfig};
use stampede::{RunReport, Runtime};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use vtime::SimTime;

/// The runtime's DGC driver period (`RuntimeBuilder`'s default), s.
const GC_INTERVAL_S: f64 = 0.002;

/// One finished threaded run.
pub struct ThreadedRun {
    pub report: RunReport,
    /// The timed window, after warm-up.
    pub window: Window,
    /// Start to stop, warm-up included, s.
    pub run_secs: f64,
    /// Flight-recorder records written during the run.
    pub journal_records: usize,
    /// The timed window's bounds on the wall clock.
    pub from: Instant,
    pub to: Instant,
}

/// Start `runtime`, let it warm up for `warm_s`, time `measure_s`, stop.
#[must_use]
pub fn run_window(runtime: Runtime, warm_s: f64, measure_s: f64) -> ThreadedRun {
    let telemetry = runtime.telemetry().clone();
    let running = runtime.start();
    std::thread::sleep(Duration::from_secs_f64(warm_s));
    let (tw, cpu0, t_from) = (wall_clock_unix_us(), process_cpu_s(), Instant::now());
    std::thread::sleep(Duration::from_secs_f64(measure_s));
    let (t_to, cpu1, tt) = (Instant::now(), process_cpu_s(), wall_clock_unix_us());
    let report = running.stop().expect("pipeline stops cleanly");
    // Trace times count from the trace's creation, stamped in Unix µs.
    let epoch = report.trace.epoch_unix_us();
    let from = SimTime(tw.saturating_sub(epoch));
    let to = SimTime(tt.saturating_sub(epoch));
    let window = measure(&report.trace, from, to, cpu1 - cpu0);
    let snap = telemetry.journal.snapshot();
    ThreadedRun {
        run_secs: report.t_end.0 as f64 / 1e6,
        window,
        journal_records: snap.records.len() + snap.dropped as usize,
        report,
        from: t_from,
        to: t_to,
    }
}

/// Isolated per-call layer costs for one threaded run.
pub struct Probes {
    pub ops: OpCosts,
    pub aru_ns: f64,
    pub dgc_us: f64,
    pub append_ns: f64,
    pub reads: ReadCosts,
    pub desim: DesimCosts,
}

impl Probes {
    /// Time every layer alone: buffer ops on the `runtime_small` graph, the
    /// controller cycle, a DGC pass over `topo`, a trace append, the
    /// postmortem suite on `trace`, and the simulator on `twin` — the
    /// workload's model in `desim`.
    pub fn measure(
        seed: u64,
        topo: &Topology,
        trace: &Trace,
        t_end: SimTime,
        ops: Option<OpCosts>,
        twin: impl Fn() -> (SimBuilder, SimConfig),
    ) -> Probes {
        Probes {
            ops: ops.unwrap_or_else(|| wl_small::op_probe(seed)),
            aru_ns: layers::aru_feedback_ns(&AruConfig::aru_min()),
            dgc_us: layers::dgc_pass_us(topo),
            append_ns: layers::trace_append_ns(),
            reads: layers::postmortem(trace, t_end),
            desim: layers::desim(twin),
        }
    }

    /// Fill the stampede, aru, gc, metrics and desim metrics plus
    /// `residual_share`. `kernel_us` and `app_us` are the tracker-kernel
    /// and benchmark-closure work per output.
    pub fn layer_metrics(
        &self,
        c: &Counts,
        run: &ThreadedRun,
        cpu_us: f64,
        kernel_us: f64,
        app_us: f64,
        m: &mut BTreeMap<String, f64>,
    ) {
        let o = &self.ops;
        let stampede_us = c.per_output(c.channel_puts) * o.channel_put_us
            + c.per_output(c.channel_gets) * o.channel_get_latest_us
            + c.per_output(c.queue_puts) * o.queue_put_us
            + c.per_output(c.queue_gets) * o.queue_get_us;
        let aru_us = c.per_output(c.iterations) * self.aru_ns / 1e3;
        let passes = run.run_secs / GC_INTERVAL_S / c.outputs.max(1) as f64;
        let gc_us = passes * self.dgc_us;
        let metrics_us = c.per_output(c.events_outside_ops()) * self.append_ns / 1e3;
        let ops = c.channel_puts + c.channel_gets + c.queue_puts + c.queue_gets;
        for (k, v) in [
            ("stampede.channel_put_us", o.channel_put_us),
            ("stampede.channel_get_latest_us", o.channel_get_latest_us),
            ("stampede.queue_put_us", o.queue_put_us),
            ("stampede.queue_get_us", o.queue_get_us),
            ("stampede.source_gap_us", o.source_gap_us),
            ("stampede.ops_per_output", c.per_output(ops)),
            ("stampede.share", stampede_us / cpu_us),
            ("aru.feedback_ns", self.aru_ns),
            (
                "aru.pace_decisions_per_output",
                c.per_output(c.pace_decisions),
            ),
            ("aru.share", aru_us / cpu_us),
            ("gc.dgc_pass_us", self.dgc_us),
            ("gc.dgc_passes_per_output", passes),
            ("gc.frees_per_output", c.per_output(c.frees)),
            ("gc.igc_s", self.reads.igc),
            ("gc.share", gc_us / cpu_us),
            ("metrics.trace_events_per_output", c.per_output(c.events)),
            (
                "metrics.journal_records_per_output",
                c.per_output(run.journal_records),
            ),
            ("metrics.trace_append_ns", self.append_ns),
            ("metrics.share", metrics_us / cpu_us),
            (
                "residual_share",
                1.0 - (kernel_us + stampede_us + aru_us + gc_us + metrics_us + app_us) / cpu_us,
            ),
            // The simulator does not run inside a threaded pipeline.
            ("desim.share", 0.0),
        ] {
            m.insert(k.into(), v);
        }
        read_metrics(&self.reads, m);
        desim_metrics(&self.desim, m);
    }
}

/// `metrics.<analysis>_s` of one postmortem.
pub fn read_metrics(r: &ReadCosts, m: &mut BTreeMap<String, f64>) {
    for (k, v) in [
        ("metrics.lineage_s", r.lineage),
        ("metrics.footprint_s", r.footprint),
        ("metrics.waste_s", r.waste),
        ("metrics.perf_s", r.perf),
        ("metrics.fault_s", r.fault),
    ] {
        m.insert(k.into(), v);
    }
}

/// `desim.*` of one simulation.
pub fn desim_metrics(d: &DesimCosts, m: &mut BTreeMap<String, f64>) {
    let events = d.report.events_dispatched as f64;
    for (k, v) in [
        ("desim.run_s", d.run_s),
        ("desim.events_per_s", events / d.run_s),
        (
            "desim.events_per_output",
            events / d.report.outputs().max(1) as f64,
        ),
        ("desim.peak_pending", d.report.peak_pending as f64),
        ("desim.equeue_s", d.equeue_s),
    ] {
        m.insert(k.into(), v);
    }
}
