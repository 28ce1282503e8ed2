//! `runtime_small`: the benchmark's own small graph on the threaded
//! runtime — src → channel (`get_latest`) → relay → queue → sink, 64-byte
//! items, ARU-min + DGC. No kernels run, so the per-item cost of the
//! runtime itself dominates.

use crate::breakdown::{pace_overshoot, stage_metrics, Counts};
use crate::layers::timed;
use crate::stats::median;
use crate::sys::thread_cpu_ns;
use crate::threaded::{run_window, Probes, ThreadedRun};
use crate::{Args, Outcome};
use aru_core::AruConfig;
use aru_gc::GcMode;
use desim::{InputPolicy, ServiceModel, SimBuilder, SimConfig, TaskSpec};
use parking_lot::Mutex;
use stampede::{Record, Runtime, RuntimeBuilder, Step};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vtime::{Micros, Timestamp};

type Payload = Record<[u8; 64]>;

/// Length of one timed window; a process makes `--seconds` / this many,
/// each on a freshly built graph, so a trace (15-odd events per output)
/// stays bounded however long the run.
const WINDOW_S: f64 = 2.5;
/// Graph builds timed per `setup_s` sample process.
const SETUPS: usize = 101;
const WARM_S: f64 = 0.25;
/// Mixing rounds of the relay's fixed work (~1 µs).
const RELAY_ROUNDS: u64 = 256;
/// Items the sink may not have reached when the graph stops: they are
/// still queued, not lost.
const MAX_IN_FLIGHT: usize = 64;

/// The payload of timestamp `ts` under `seed`.
#[must_use]
pub fn payload(seed: u64, ts: u64) -> [u8; 64] {
    let mut out = [0u8; 64];
    let mut x = seed ^ ts.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for chunk in out.chunks_mut(8) {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        chunk.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out
}

fn relay_work(p: &[u8; 64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in 0..RELAY_ROUNDS {
        h = (h ^ u64::from(p[(r % 64) as usize])).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// CPU ns and calls of one instrumented operation, each written by one
/// thread only.
#[derive(Default)]
struct Acc {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Acc {
    fn add(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn us_per_call(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64
            / 1e3
            / self.calls.load(Ordering::Relaxed).max(1) as f64
    }
}

/// The graph's probes: what the relay forwarded, what the sink saw, and
/// (traced) the per-call CPU cost of each buffer operation.
#[derive(Default)]
struct Shared {
    /// When the source put each timestamp (indexed by timestamp).
    born: Mutex<Vec<Instant>>,
    relayed: Mutex<Vec<u64>>,
    /// Timestamp, payload intact, and when the sink got it.
    received: Mutex<Vec<(u64, bool, Instant)>>,
    channel_put: Acc,
    channel_get: Acc,
    queue_put: Acc,
    queue_get: Acc,
    relay_work: Acc,
    source_gap: Acc,
}

/// Per-call costs of the graph's buffer operations, in µs of the calling
/// thread's CPU time (waiting excluded); `source_gap_us` is wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCosts {
    pub channel_put_us: f64,
    pub channel_get_latest_us: f64,
    pub queue_put_us: f64,
    pub queue_get_us: f64,
    pub source_gap_us: f64,
    pub relay_work_us: f64,
}

/// CPU ns spent in `f` by this thread, when `on`.
fn cpu<T>(on: bool, acc: &Acc, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t0 = thread_cpu_ns();
    let v = f();
    acc.add(thread_cpu_ns() - t0);
    v
}

fn build(seed: u64, traced: bool) -> (Runtime, Arc<Shared>) {
    let shared = Arc::new(Shared::default());
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
    let ch = b.channel::<Payload>("C");
    let q = b.queue::<Payload>("Q");
    let src = b.thread("src");
    let relay = b.thread("relay");
    let sink = b.thread("sink");
    let out = b.connect_out(src, &ch).expect("src → C");
    let mut inp = b.connect_in(&ch, relay).expect("C → relay");
    let mut qout = b.connect_queue_out(relay, &q).expect("relay → Q");
    let mut qin = b.connect_queue_in(&q, sink).expect("Q → sink");

    let s = Arc::clone(&shared);
    let mut ts = Timestamp::ZERO;
    let mut last_exit: Option<Instant> = None;
    b.spawn(src, move |ctx| {
        if let (true, Some(t)) = (traced, last_exit) {
            s.source_gap.add(t.elapsed().as_nanos() as u64);
        }
        let item = Record(payload(seed, ts.raw()));
        s.born.lock().push(Instant::now());
        cpu(traced, &s.channel_put, || out.put(ctx, ts, item))?;
        ts = ts.next();
        last_exit = Some(Instant::now());
        Ok(Step::Continue)
    });

    let s = Arc::clone(&shared);
    b.spawn(relay, move |ctx| {
        let item = cpu(traced, &s.channel_get, || inp.get_latest(ctx))?;
        if ctx.should_skip(item.ts) {
            return Ok(Step::Continue);
        }
        black_box(cpu(traced, &s.relay_work, || relay_work(&item.value.0)));
        cpu(traced, &s.queue_put, || {
            qout.put(ctx, item.ts, Record(item.value.0))
        })?;
        s.relayed.lock().push(item.ts.raw());
        Ok(Step::Continue)
    });

    let s = Arc::clone(&shared);
    b.spawn(sink, move |ctx| {
        let item = cpu(traced, &s.queue_get, || qin.get(ctx))?;
        let got = Instant::now();
        let intact = item.value.0 == payload(seed, item.ts.raw());
        s.received.lock().push((item.ts.raw(), intact, got));
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });
    (b.build().expect("small graph builds"), shared)
}

/// The sink must see every relayed item exactly once, in FIFO timestamp
/// order, with its payload intact; up to [`MAX_IN_FLIGHT`] items relayed
/// last may still sit in the queue at stop. Returns `(attempted, failed)`.
fn check(shared: &Shared) -> (u64, u64) {
    let relayed = shared.relayed.lock();
    let received = shared.received.lock();
    let mut failed = 0usize;
    // In order, once each, intact.
    let mut seen = HashSet::new();
    let mut last: Option<u64> = None;
    for &(ts, intact, _) in received.iter() {
        let first = seen.insert(ts);
        if !intact || !first || last.is_some_and(|l| ts <= l) {
            failed += 1;
        }
        last = Some(ts);
    }
    // Nothing relayed went missing, apart from a short in-flight tail.
    let relayed_set: HashSet<u64> = relayed.iter().copied().collect();
    failed += seen.iter().filter(|ts| !relayed_set.contains(ts)).count();
    let missing: Vec<u64> = relayed
        .iter()
        .copied()
        .filter(|ts| !seen.contains(ts))
        .collect();
    let in_flight = missing
        .iter()
        .filter(|&&ts| last.is_none_or(|l| ts > l))
        .count();
    failed += missing.len() - in_flight;
    if in_flight > MAX_IN_FLIGHT {
        failed += in_flight - MAX_IN_FLIGHT;
    }
    (relayed.len() as u64, failed as u64)
}

/// Put-to-get latency of every item the sink got inside `run`'s timed
/// window, ms — measured on the benchmark's own clock, since these
/// latencies are a few µs, the trace clock's resolution.
fn latencies_ms(shared: &Shared, run: &ThreadedRun) -> Vec<f64> {
    let born = shared.born.lock();
    shared
        .received
        .lock()
        .iter()
        .filter(|r| r.2 >= run.from && r.2 <= run.to)
        .filter_map(|&(ts, _, got)| {
            born.get(ts as usize)
                .map(|b| (got - *b).as_secs_f64() * 1e3)
        })
        .collect()
}

fn op_costs(s: &Shared) -> OpCosts {
    OpCosts {
        channel_put_us: s.channel_put.us_per_call(),
        channel_get_latest_us: s.channel_get.us_per_call(),
        queue_put_us: s.queue_put.us_per_call(),
        queue_get_us: s.queue_get.us_per_call(),
        source_gap_us: s.source_gap.us_per_call(),
        relay_work_us: s.relay_work.us_per_call(),
    }
}

/// Per-call buffer-operation costs from a one-second traced run of this
/// graph: the `stampede` probe of the other workloads' traced runs.
#[must_use]
pub fn op_probe(seed: u64) -> OpCosts {
    let (rt, shared) = build(seed, true);
    drop(run_window(rt, 0.1, 0.9));
    op_costs(&shared)
}

/// The graph's model in the simulator: three tasks with the measured
/// shape of the threaded graph (a 10 µs source, 2 µs relay and sink).
fn twin(seed: u64) -> (SimBuilder, SimConfig) {
    let mut b = SimBuilder::new();
    let node = b.node(2);
    let c = b.channel("C", node);
    let q = b.channel("Q", node);
    let src = b.task(
        "src",
        node,
        TaskSpec::new(ServiceModel::new(Micros(10), 0.1)),
    );
    let relay = b.task(
        "relay",
        node,
        TaskSpec::new(ServiceModel::new(Micros(2), 0.1)),
    );
    let sink = b.task(
        "sink",
        node,
        TaskSpec::sink(ServiceModel::new(Micros(2), 0.1)),
    );
    b.output(src, c, 64).expect("src → C");
    b.input(relay, c, InputPolicy::DriverLatest)
        .expect("C → relay");
    b.output(relay, q, 64).expect("relay → Q");
    b.input(sink, q, InputPolicy::FifoNext).expect("Q → sink");
    let mut cfg = SimConfig::new(AruConfig::aru_min());
    cfg.duration = Micros::from_secs(2);
    cfg.seed = seed;
    (b, cfg)
}

/// `setup_s` samples: the graph built, and dropped unstarted.
pub fn setup_samples(seed: u64) -> Vec<f64> {
    (0..SETUPS)
        .map(|_| {
            let ((rt, _), s) = timed(|| build(seed, false));
            drop(rt);
            s
        })
        .collect()
}

fn window(seed: u64, secs: f64, traced: bool) -> (ThreadedRun, Arc<Shared>) {
    let (rt, shared) = build(seed, traced);
    (run_window(rt, WARM_S, secs - WARM_S), shared)
}

/// Windows in a run of `seconds` (at least one).
fn windows(seconds: f64) -> usize {
    ((seconds / WINDOW_S).round() as usize).max(1)
}

pub fn untraced(a: &Args) -> Outcome {
    let n = windows(a.seconds);
    let per = a.seconds / n as f64;
    let (mut attempted, mut failed, mut windows) = (0, 0, Vec::new());
    for _ in 0..n {
        let (r, shared) = window(a.seed, per, false);
        let (n, f) = check(&shared);
        attempted += n;
        failed += f;
        let mut w = r.window.clone();
        w.latency_ms = latencies_ms(&shared, &r);
        windows.push(w);
    }
    let mut o = Outcome::new(attempted, failed);
    o.end_to_end(&windows);
    o
}

pub fn traced(a: &Args) -> Outcome {
    // Alternate untraced and traced windows: the traced ones time every
    // buffer operation from the closures, the untraced ones price that.
    let n = windows(a.seconds).max(2);
    let per = a.seconds / n as f64;
    let (mut attempted, mut failed) = (0, 0);
    let (mut plain, mut timed_rates, mut last) = (Vec::new(), Vec::new(), None);
    for i in 0..n {
        let traced = i % 2 == 1;
        let (r, shared) = window(a.seed, per, traced);
        let (n, f) = check(&shared);
        attempted += n;
        failed += f;
        if traced {
            timed_rates.push(r.window.outputs_per_s());
            let lat = latencies_ms(&shared, &r);
            last = Some((r, op_costs(&shared), lat));
        } else {
            plain.push(r.window.outputs_per_s());
        }
    }
    let (r, ops, lat) = last.expect("at least one traced window");
    let mut o = Outcome::new(attempted, failed);
    let w = &r.window;
    let counts = Counts::of(&r.report.trace, &r.report.topo);
    let mut m = BTreeMap::new();
    let probes = Probes::measure(
        a.seed,
        &r.report.topo,
        &r.report.trace,
        r.report.t_end,
        Some(ops),
        || twin(a.seed),
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
    let app_us = counts.per_output(counts.queue_puts) * ops.relay_work_us;
    probes.layer_metrics(&counts, &r, w.cpu_us_per_output(), 0.0, app_us, &mut m);
    crate::no_tracker_work(a.seed, &mut m);
    m.insert("metrics.footprint_mb".into(), w.footprint_bytes / 1e6);
    m.insert(
        "tracing_overhead".into(),
        1.0 - median(&timed_rates) / median(&plain),
    );
    o.diagnostics(&lat, w.jitter_ms, &mut m);
    o.per_layer = m;
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_a_function_of_seed_and_timestamp() {
        assert_eq!(payload(1, 2), payload(1, 2));
        assert_ne!(payload(1, 2), payload(1, 3));
        assert_ne!(payload(1, 2), payload(2, 2));
    }

    fn shared(relayed: &[u64], received: &[(u64, bool, Instant)]) -> Shared {
        let s = Shared::default();
        s.relayed.lock().extend_from_slice(relayed);
        s.received.lock().extend_from_slice(received);
        s
    }

    #[test]
    fn check_counts_loss_duplicates_disorder_and_corruption() {
        let t = Instant::now();
        let ok = [(1, true, t), (2, true, t), (4, true, t)];
        assert_eq!(check(&shared(&[1, 2, 4, 7], &ok)), (4, 0), "7 is in flight");
        assert_eq!(check(&shared(&[1, 2, 3, 4], &ok)), (4, 1), "3 was lost");
        let dup = [(1, true, t), (2, true, t), (2, true, t)];
        assert_eq!(check(&shared(&[1, 2], &dup)).1, 1);
        let disorder = [(2, true, t), (1, true, t)];
        assert_eq!(check(&shared(&[1, 2], &disorder)).1, 1);
        let corrupt = [(1, true, t), (2, false, t)];
        assert_eq!(check(&shared(&[1, 2], &corrupt)).1, 1);
    }
}
