//! `hotpath` — put/get hot-path overhead bench, machine-readable.
//!
//! Two families of workloads:
//!
//! **Trace layer** (regression guard for the sharded recorder): per-op cost
//! of trace recording under concurrent tasks, comparing the pre-sharding
//! recorder (`CoarseTrace`: one global `Mutex<Vec>`) against the sharded
//! `SharedTrace` the runtime uses, plus the one-time snapshot (k-way merge)
//! cost.
//!
//! * `put_path`  — one `alloc` per op (what `Channel::put` records)
//! * `get_path`  — one `get` per op (what a channel get records)
//! * `mixed`     — alloc + get + free per op (a full item lifetime)
//!
//! **Batch layer** (the amortized fast path): full channel/queue operations,
//! comparing a per-item loop against the batched equivalent.
//!
//! * `put_batch` — `Channel::put` loop vs `Channel::put_batch` (one lock /
//!   clock read / trace append / wakeup per batch; ring-store appends)
//! * `get_batch` — `Queue::get` loop vs `Queue::get_batch` (drain)
//! * `fanout`    — frame to 3 channels: 3 puts with deep clones vs
//!   `FanOut::put` (one `Arc`, one clock read)
//!
//! **Lock-free layer** (DESIGN.md §14): the mutex `Queue` against the
//! lock-free `LfQueue` ring on the same op mix.
//!
//! * `put_lockfree`   — uncontended single put, one private queue per worker
//! * `get_lockfree`   — uncontended single get (timed drains, untimed refills)
//! * `mixed_lockfree` — one shared queue, half the threads put, half get
//! * `threaded_app`   — a full `RuntimeBuilder` src → mid → sink pipeline
//!   per backend: queue transport as the supervised runtime actually
//!   drives it (blocking endpoints, occupancy feedback, task loops)
//!
//! ```text
//! hotpath [--threads N] [--ops N] [--reps N] [--out FILE]
//!         [--baseline FILE] [--max-regress F]
//! ```
//!
//! Trace/batch cells are measured `--reps` times and the minimum duration
//! is reported — the best-observed cost, which filters scheduler
//! interference on shared/single-core runners. The `get_batch` and
//! lock-free cells instead run a per-worker warm-up round and trim at
//! round granularity (each worker reports the trimmed mean of its
//! per-round durations, scaled to the round count): their numbers were
//! bimodal — on a single-core runner a preemption landing inside a timed
//! window inflates it — and a minimum hides the slow mode instead of
//! fixing it.
//!
//! Writes `BENCH_hotpath.json` (default) with the measured ns/op and a set
//! of **shape checks** — event counts identical across implementations,
//! batch results identical to the single-op loop (counts, occupancy,
//! ordering), snapshot time-ordered, no item ids lost or duplicated. The
//! checks are what CI asserts; timings are recorded for trend tracking and
//! only gated when `--baseline` is given: each workload's ns/op must then
//! be within `--max-regress` (default 0.35 = +35%) of the baseline file.
//! Exits non-zero iff a check fails.

use aru_core::graph::NodeId;
use aru_core::{AruConfig, Stp};
use aru_gc::GcMode;
use aru_metrics::json::{find_number_after, pretty, Fixed, JsonArr, JsonObj};
use aru_metrics::{CoarseTrace, ItemId, IterKey, SharedTrace, Trace, TraceEvent};
use stampede::{bench_api, Channel, FanOut, LfQueue, Queue, TaskCtx};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use vtime::{Clock, Micros, SimTime, Timestamp, WallClock};

/// Items per batched call in the batch workloads.
const BATCH: usize = 64;
/// Payload bytes for put_batch/get_batch items.
const ITEM_BYTES: usize = 64;
/// Payload bytes for fan-out frames (clone elimination is the point, so
/// use a frame-sized payload).
const FRAME_BYTES: usize = 16 * 1024;
/// Fan-out timestamps cycle through this window so the (consumer-less)
/// bench channels hold a bounded working set; a put at an existing
/// timestamp replaces the item on both sides of the comparison.
const FANOUT_WINDOW: u64 = 256;

#[derive(Clone, Copy)]
enum Kind {
    PutPath,
    GetPath,
    Mixed,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::PutPath => "put_path",
            Kind::GetPath => "get_path",
            Kind::Mixed => "mixed",
        }
    }

    /// Events recorded per op.
    fn events_per_op(self) -> u64 {
        match self {
            Kind::PutPath | Kind::GetPath => 1,
            Kind::Mixed => 3,
        }
    }
}

/// Release all threads at once; each worker times its own loop. Returns
/// the overall span (`max(end) - min(start)`) — robust even when the
/// spawning thread is descheduled around the barrier (e.g. on a
/// single-core runner, workers can finish before the spawner runs again).
fn time_threads(threads: usize, f: impl Fn(usize) + Sync) -> Duration {
    let barrier = Barrier::new(threads);
    let spans: Vec<_> = (0..threads).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for (k, span) in spans.iter().enumerate() {
            let f = &f;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let t0 = Instant::now();
                f(k);
                *span.lock().unwrap() = Some((t0, Instant::now()));
            });
        }
    });
    let spans: Vec<(Instant, Instant)> =
        spans.iter().map(|m| m.lock().unwrap().expect("worker finished")).collect();
    let start = spans.iter().map(|s| s.0).min().expect("at least one thread");
    let end = spans.iter().map(|s| s.1).max().expect("at least one thread");
    end - start
}

/// Trimmed mean over timing samples: drop the top and bottom quarter
/// (rounded down) and average the middle. Used for the cells whose
/// distribution is bimodal — a sample inflated by a preemption landing
/// inside the timed window (single-core runners timeshare the workers) is
/// discarded instead of dragging the mean, and a lucky fast sample
/// doesn't get reported as "the" cost the way a minimum would.
fn trimmed_mean(samples: &[Duration]) -> Duration {
    let mut s = samples.to_vec();
    s.sort_unstable();
    let trim = s.len() / 4;
    let mid = &s[trim..s.len() - trim];
    mid.iter().sum::<Duration>() / mid.len() as u32
}

/// Robust total for a round-based worker: the trimmed mean of the
/// per-round durations, scaled back to the full round count. Rounds are
/// equally sized, so preemption-inflated rounds are outliers the trim
/// removes while the middle quantiles estimate the true per-round cost.
fn trimmed_total(rounds: &[Duration]) -> Duration {
    trimmed_mean(rounds) * rounds.len() as u32
}

/// Like [`time_threads`], but each worker returns its own accumulated
/// duration (letting it exclude untimed setup between rounds) and the
/// slowest thread's total is reported — the same "slowest participant
/// dominates" semantics as the wall span.
fn time_threads_accum(threads: usize, f: impl Fn(usize) -> Duration + Sync) -> Duration {
    let barrier = Barrier::new(threads);
    let accs: Vec<_> = (0..threads).map(|_| std::sync::Mutex::new(Duration::ZERO)).collect();
    std::thread::scope(|s| {
        for (k, acc) in accs.iter().enumerate() {
            let f = &f;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                *acc.lock().unwrap() = f(k);
            });
        }
    });
    accs.iter().map(|m| *m.lock().unwrap()).max().expect("at least one thread")
}

fn drive_sharded(tr: &SharedTrace, thread: usize, ops: u64, kind: Kind) {
    // One buffered writer per worker — exactly how a channel records: its
    // `LocalTrace` lives inside the channel state lock, one owner at a
    // time. Dropping at the end flushes the tail into the shard.
    let mut local = tr.local();
    let p = IterKey::new(NodeId(thread as u32), 0);
    for j in 0..ops {
        match kind {
            Kind::PutPath => {
                local.alloc(SimTime(j), NodeId(99), Timestamp(j), 64, p);
            }
            Kind::GetPath => local.get(SimTime(j), ItemId(j), p),
            Kind::Mixed => {
                let id = local.alloc(SimTime(j), NodeId(99), Timestamp(j), 64, p);
                local.get(SimTime(j), id, p);
                local.free(SimTime(j), id);
            }
        }
    }
}

fn drive_coarse(tr: &CoarseTrace, thread: usize, ops: u64, kind: Kind) {
    let p = IterKey::new(NodeId(thread as u32), 0);
    for j in 0..ops {
        match kind {
            Kind::PutPath => {
                tr.alloc(SimTime(j), NodeId(99), Timestamp(j), 64, p);
            }
            Kind::GetPath => tr.get(SimTime(j), ItemId(j), p),
            Kind::Mixed => {
                let id = tr.alloc(SimTime(j), NodeId(99), Timestamp(j), 64, p);
                tr.get(SimTime(j), id, p);
                tr.free(SimTime(j), id);
            }
        }
    }
}

struct WorkloadRow {
    name: &'static str,
    coarse_ns_per_op: f64,
    sharded_ns_per_op: f64,
    coarse_events: usize,
    sharded_events: usize,
    expected_events: u64,
}

impl WorkloadRow {
    fn speedup(&self) -> f64 {
        self.coarse_ns_per_op / self.sharded_ns_per_op
    }
}

struct BatchRow {
    name: &'static str,
    singles_ns_per_op: f64,
    batched_ns_per_op: f64,
    /// Per-thread op count (items for put/get, frames for fanout).
    ops: u64,
}

impl BatchRow {
    fn speedup(&self) -> f64 {
        self.singles_ns_per_op / self.batched_ns_per_op
    }
}

struct LockfreeRow {
    name: &'static str,
    mutex_ns_per_op: f64,
    lockfree_ns_per_op: f64,
    /// Per-thread (uncontended cells) or per-producer (mixed) item count.
    ops: u64,
}

impl LockfreeRow {
    fn speedup(&self) -> f64 {
        self.mutex_ns_per_op / self.lockfree_ns_per_op
    }
}

struct Check {
    name: String,
    passed: bool,
    detail: String,
}

fn is_time_sorted(tr: &Trace) -> bool {
    tr.events().windows(2).all(|w| w[0].time() <= w[1].time())
}

fn alloc_count(tr: &Trace) -> usize {
    tr.events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Alloc { .. }))
        .count()
}

fn unique_alloc_ids(tr: &Trace) -> (usize, usize) {
    let mut ids: Vec<u64> = tr
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Alloc { item, .. } => Some(item.0),
            _ => None,
        })
        .collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    (ids.len(), n)
}

fn aru_min() -> AruConfig {
    AruConfig::aru_min()
}

fn bench_channels(
    threads: usize,
    trace: &SharedTrace,
    clock: &Arc<dyn Clock>,
    per_thread: usize,
) -> Vec<Arc<Channel<Vec<u8>>>> {
    (0..threads * per_thread)
        .map(|i| {
            bench_api::channel::<Vec<u8>>(
                NodeId(1000 + i as u32),
                "bench-ch",
                &aru_min(),
                GcMode::Ref,
                None,
                Arc::clone(clock),
                trace.clone(),
                1,
            )
        })
        .collect()
}

/// `put_batch`: per-item `Channel::put` loop vs `Channel::put_batch`.
/// Payloads are pre-built outside the timed region on both sides so the
/// comparison isolates the channel-op cost (lock, clock, trace, insert,
/// wakeup) the batch path amortizes.
fn bench_put_batch(threads: usize, ops: u64, reps: usize, checks: &mut Vec<Check>) -> BatchRow {
    let total_ops = threads as u64 * ops;
    let mut d_singles = Duration::MAX;
    let mut d_batched = Duration::MAX;
    let mut final_state = None;
    for _ in 0..reps {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());

        let singles_trace = SharedTrace::new();
        let chans = bench_channels(threads, &singles_trace, &clock, 1);
        let vals: Vec<std::sync::Mutex<Vec<Vec<u8>>>> = (0..threads)
            .map(|_| std::sync::Mutex::new((0..ops).map(|_| vec![0u8; ITEM_BYTES]).collect()))
            .collect();
        d_singles = d_singles.min(time_threads(threads, |k| {
            let ch = &chans[k];
            let p = IterKey::new(NodeId(k as u32), 0);
            let vals = std::mem::take(&mut *vals[k].lock().unwrap());
            for (j, v) in vals.into_iter().enumerate() {
                ch.put(Timestamp(j as u64), v, p).unwrap();
            }
        }));

        let batched_trace = SharedTrace::new();
        let bchans = bench_channels(threads, &batched_trace, &clock, 1);
        let bvals: Vec<std::sync::Mutex<Vec<Vec<u8>>>> = (0..threads)
            .map(|_| std::sync::Mutex::new((0..ops).map(|_| vec![0u8; ITEM_BYTES]).collect()))
            .collect();
        d_batched = d_batched.min(time_threads(threads, |k| {
            let ch = &bchans[k];
            let p = IterKey::new(NodeId(k as u32), 0);
            let vals = std::mem::take(&mut *bvals[k].lock().unwrap());
            let mut it = vals.into_iter();
            let mut j = 0u64;
            loop {
                let batch: Vec<(Timestamp, Vec<u8>)> = it
                    .by_ref()
                    .take(BATCH)
                    .enumerate()
                    .map(|(i, v)| (Timestamp(j + i as u64), v))
                    .collect();
                if batch.is_empty() {
                    break;
                }
                j += batch.len() as u64;
                ch.put_batch(p, batch).unwrap();
            }
        }));
        final_state = Some((singles_trace, chans, batched_trace, bchans));
    }

    let (singles_trace, chans, batched_trace, bchans) = final_state.expect("reps >= 1");
    for ch in chans.iter().chain(bchans.iter()) {
        bench_api::flush_channel_trace(ch);
    }
    let s_snap = singles_trace.snapshot();
    let b_snap = batched_trace.snapshot();
    checks.push(Check {
        name: "put_batch: alloc events identical to single-put loop".into(),
        passed: alloc_count(&s_snap) as u64 == total_ops && alloc_count(&b_snap) as u64 == total_ops,
        detail: format!(
            "singles {} / batched {} / expected {}",
            alloc_count(&s_snap),
            alloc_count(&b_snap),
            total_ops
        ),
    });
    let (uniq, n) = unique_alloc_ids(&b_snap);
    checks.push(Check {
        name: "put_batch: no item id lost or duplicated".into(),
        passed: uniq == n && uniq as u64 == total_ops,
        detail: format!("{uniq} unique of {total_ops} expected"),
    });
    let occ_equal = chans
        .iter()
        .zip(&bchans)
        .all(|(a, b)| a.len() == b.len() && a.live_bytes() == b.live_bytes());
    checks.push(Check {
        name: "put_batch: channel occupancy identical to single-put loop".into(),
        passed: occ_equal && chans.iter().all(|c| c.len() as u64 == ops),
        detail: format!(
            "singles len {:?} / batched len {:?}",
            chans.iter().map(|c| c.len()).collect::<Vec<_>>(),
            bchans.iter().map(|c| c.len()).collect::<Vec<_>>()
        ),
    });
    let spill_free = bchans.iter().all(|c| c.store_depths().1 == 0);
    checks.push(Check {
        name: "put_batch: dense in-order stream stays in the ring store".into(),
        passed: spill_free,
        detail: format!(
            "(ring, spill) {:?}",
            bchans.iter().map(|c| c.store_depths()).collect::<Vec<_>>()
        ),
    });

    BatchRow {
        name: "put_batch",
        singles_ns_per_op: d_singles.as_nanos() as f64 / total_ops as f64,
        batched_ns_per_op: d_batched.as_nanos() as f64 / total_ops as f64,
        ops,
    }
}

/// `get_batch`: per-item `Queue::get` loop vs drain-style
/// `Queue::get_batch` (one consumer per queue, warm summary so every get
/// exercises the feedback deposit). Steady-state measurement: the queue
/// is refilled in cache-resident rounds and only the drains are timed, so
/// the number is the dequeue-op cost, not memory streaming over a
/// many-megabyte backlog. Each worker runs one untimed warm-up round
/// (first-touch faults on the queue/store pages land there) and reports
/// the trimmed mean of its per-round durations scaled to the round count;
/// the rep values are trim-averaged again. This cell was bimodal under
/// best-of-reps: on a single-core runner a preemption inside the timed
/// drain inflates the whole rep, and round-level trimming discards
/// exactly those windows.
fn bench_get_batch(threads: usize, ops: u64, reps: usize, checks: &mut Vec<Check>) -> BatchRow {
    /// Items per refill round (~a few hundred kB of queue + payloads).
    const ROUND: u64 = 4096;
    // Equal-size rounds so per-round durations are comparable for trimming.
    let ops = ops.max(ROUND).next_multiple_of(ROUND);
    let total_ops = threads as u64 * ops;
    let mut s_samples = Vec::with_capacity(reps);
    let mut b_samples = Vec::with_capacity(reps);
    let mut final_state = None;
    let order_violations = AtomicUsize::new(0);

    let make_queues = |trace: &SharedTrace, clock: &Arc<dyn Clock>| -> Vec<Arc<Queue<Vec<u8>>>> {
        (0..threads)
            .map(|k| {
                bench_api::queue::<Vec<u8>>(
                    NodeId(2000 + k as u32),
                    "bench-q",
                    &aru_min(),
                    Arc::clone(clock),
                    trace.clone(),
                    1,
                )
            })
            .collect()
    };
    let refill = |q: &Queue<Vec<u8>>, k: usize, base: u64, n: u64| {
        let p = IterKey::new(NodeId(k as u32), 0);
        let mut j = 0u64;
        while j < n {
            let take = 512.min(n - j) as usize;
            q.put_batch(
                p,
                (0..take).map(|i| (Timestamp(base + j + i as u64), vec![0u8; ITEM_BYTES])),
            )
            .unwrap();
            j += take as u64;
        }
    };
    let make_ctx = |k: usize, trace: &SharedTrace, clock: &Arc<dyn Clock>| {
        let mut ctx = bench_api::task_ctx(
            NodeId(3000 + k as u32),
            "bench-getter",
            1,
            false,
            &aru_min(),
            Arc::clone(clock),
            trace.clone(),
        );
        // Give the consumer a summary-STP to piggyback and an op timeout,
        // as a supervised mid-pipeline task would have.
        bench_api::warm_summary(&mut ctx, Stp(Micros(1_000)));
        bench_api::set_op_timeout(&mut ctx, Micros(30_000_000));
        ctx
    };

    for _ in 0..reps {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());

        let singles_trace = SharedTrace::new();
        let queues = make_queues(&singles_trace, &clock);
        s_samples.push(time_threads_accum(threads, |k| {
            let q = &queues[k];
            let mut ctx = make_ctx(k, &singles_trace, &clock);
            // Warm-up round, untimed: faults the queue pages in.
            refill(q, k, 0, ROUND);
            while !q.is_empty() {
                q.get_batch(0, &mut ctx, 512).unwrap();
            }
            let mut last = None;
            let mut rounds = Vec::with_capacity((ops / ROUND) as usize);
            let mut done = 0u64;
            while done < ops {
                let n = ROUND.min(ops - done);
                refill(q, k, done, n);
                let t0 = Instant::now();
                for _ in 0..n {
                    let item = q.get(0, &mut ctx).unwrap();
                    if last.is_some_and(|l| item.ts <= l) {
                        order_violations.fetch_add(1, Ordering::Relaxed);
                    }
                    last = Some(item.ts);
                }
                rounds.push(t0.elapsed());
                done += n;
            }
            trimmed_total(&rounds)
        }));

        let batched_trace = SharedTrace::new();
        let bqueues = make_queues(&batched_trace, &clock);
        b_samples.push(time_threads_accum(threads, |k| {
            let q = &bqueues[k];
            let mut ctx = make_ctx(k, &batched_trace, &clock);
            // Warm-up round, untimed (see the singles side).
            refill(q, k, 0, ROUND);
            while !q.is_empty() {
                q.get_batch(0, &mut ctx, 512).unwrap();
            }
            let mut last = None;
            let mut rounds = Vec::with_capacity((ops / ROUND) as usize);
            let mut done = 0u64;
            while done < ops {
                let n = ROUND.min(ops - done);
                refill(q, k, done, n);
                let t0 = Instant::now();
                let mut taken = 0u64;
                while taken < n {
                    let batch = q.get_batch(0, &mut ctx, BATCH).unwrap();
                    for item in &batch {
                        if last.is_some_and(|l| item.ts <= l) {
                            order_violations.fetch_add(1, Ordering::Relaxed);
                        }
                        last = Some(item.ts);
                    }
                    taken += batch.len() as u64;
                }
                rounds.push(t0.elapsed());
                assert_eq!(taken, n, "drained more than enqueued");
                done += n;
            }
            trimmed_total(&rounds)
        }));
        final_state = Some((singles_trace, queues, batched_trace, bqueues));
    }

    let (singles_trace, queues, batched_trace, bqueues) = final_state.expect("reps >= 1");
    for q in queues.iter().chain(bqueues.iter()) {
        bench_api::flush_queue_trace(q);
    }
    let s_snap = singles_trace.snapshot();
    let b_snap = batched_trace.snapshot();
    checks.push(Check {
        name: "get_batch: queues fully drained on both sides".into(),
        passed: queues.iter().all(|q| q.is_empty()) && bqueues.iter().all(|q| q.is_empty()),
        detail: format!(
            "singles left {:?} / batched left {:?}",
            queues.iter().map(|q| q.len()).collect::<Vec<_>>(),
            bqueues.iter().map(|q| q.len()).collect::<Vec<_>>()
        ),
    });
    // alloc + get + free per item on both sides, warm-up round included.
    let expected_events = (total_ops + threads as u64 * ROUND) * 3;
    checks.push(Check {
        name: "get_batch: event counts identical to single-get loop".into(),
        passed: s_snap.len() as u64 == expected_events && b_snap.len() as u64 == expected_events,
        detail: format!(
            "singles {} / batched {} / expected {}",
            s_snap.len(),
            b_snap.len(),
            expected_events
        ),
    });
    checks.push(Check {
        name: "get_batch: FIFO timestamp order preserved".into(),
        passed: order_violations.load(Ordering::Relaxed) == 0,
        detail: format!("{} violations", order_violations.load(Ordering::Relaxed)),
    });

    BatchRow {
        name: "get_batch",
        singles_ns_per_op: trimmed_mean(&s_samples).as_nanos() as f64 / total_ops as f64,
        batched_ns_per_op: trimmed_mean(&b_samples).as_nanos() as f64 / total_ops as f64,
        ops,
    }
}

/// `fanout`: one frame to 3 channels — a loop of 3 puts with deep clones
/// vs `FanOut::put` (one `Arc`, one clock read). Timestamps cycle through
/// a fixed window so the consumer-less channels hold a bounded working
/// set; a put at an existing timestamp replaces the item on both sides.
fn bench_fanout(threads: usize, ops: u64, reps: usize, checks: &mut Vec<Check>) -> BatchRow {
    const WIDTH: usize = 3;
    let total_frames = threads as u64 * ops;
    let mut d_singles = Duration::MAX;
    let mut d_batched = Duration::MAX;
    let mut final_state = None;

    for _ in 0..reps {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());

        let singles_trace = SharedTrace::new();
        let chans = bench_channels(threads, &singles_trace, &clock, WIDTH);
        d_singles = d_singles.min(time_threads(threads, |k| {
            let outs: Vec<_> = (0..WIDTH)
                .map(|i| bench_api::output(&chans[k * WIDTH + i], i))
                .collect();
            let mut ctx = bench_api::task_ctx(
                NodeId(4000 + k as u32),
                "bench-fan",
                WIDTH,
                true,
                &aru_min(),
                Arc::clone(&clock),
                singles_trace.clone(),
            );
            for j in 0..ops {
                let ts = Timestamp(j % FANOUT_WINDOW);
                let frame = vec![0u8; FRAME_BYTES];
                outs[0].put(&mut ctx, ts, frame.clone()).unwrap();
                outs[1].put(&mut ctx, ts, frame.clone()).unwrap();
                outs[2].put(&mut ctx, ts, frame).unwrap();
            }
        }));

        let batched_trace = SharedTrace::new();
        let bchans = bench_channels(threads, &batched_trace, &clock, WIDTH);
        d_batched = d_batched.min(time_threads(threads, |k| {
            let fan = FanOut::new(
                (0..WIDTH)
                    .map(|i| bench_api::output(&bchans[k * WIDTH + i], i))
                    .collect(),
            );
            let mut ctx = bench_api::task_ctx(
                NodeId(5000 + k as u32),
                "bench-fan",
                WIDTH,
                true,
                &aru_min(),
                Arc::clone(&clock),
                batched_trace.clone(),
            );
            for j in 0..ops {
                let frame = vec![0u8; FRAME_BYTES];
                fan.put(&mut ctx, Timestamp(j % FANOUT_WINDOW), frame).unwrap();
            }
        }));
        final_state = Some((singles_trace, chans, batched_trace, bchans));
    }

    let (singles_trace, chans, batched_trace, bchans) = final_state.expect("reps >= 1");
    for ch in chans.iter().chain(bchans.iter()) {
        bench_api::flush_channel_trace(ch);
    }
    let s_snap = singles_trace.snapshot();
    let b_snap = batched_trace.snapshot();
    let expected_allocs = total_frames * WIDTH as u64;
    checks.push(Check {
        name: "fanout: alloc events identical to per-channel put loop".into(),
        passed: alloc_count(&s_snap) as u64 == expected_allocs
            && alloc_count(&b_snap) as u64 == expected_allocs,
        detail: format!(
            "singles {} / batched {} / expected {}",
            alloc_count(&s_snap),
            alloc_count(&b_snap),
            expected_allocs
        ),
    });
    let expected_len = ops.min(FANOUT_WINDOW) as usize;
    let occ_ok = chans
        .iter()
        .zip(&bchans)
        .all(|(a, b)| a.len() == expected_len && b.len() == expected_len);
    checks.push(Check {
        name: "fanout: every channel holds the window, no frame lost".into(),
        passed: occ_ok,
        detail: format!(
            "expected {} / singles {:?} / batched {:?}",
            expected_len,
            chans.iter().map(|c| c.len()).collect::<Vec<_>>(),
            bchans.iter().map(|c| c.len()).collect::<Vec<_>>()
        ),
    });
    checks.push(Check {
        name: "fanout: cycling window stays in the ring store".into(),
        passed: bchans.iter().all(|c| c.store_depths().1 == 0),
        detail: format!(
            "(ring, spill) {:?}",
            bchans.iter().map(|c| c.store_depths()).collect::<Vec<_>>()
        ),
    });

    BatchRow {
        name: "fanout",
        singles_ns_per_op: d_singles.as_nanos() as f64 / total_frames as f64,
        batched_ns_per_op: d_batched.as_nanos() as f64 / total_frames as f64,
        ops,
    }
}

/// Ring capacity for the lock-free bench queues (power of two, larger
/// than a refill round so uncontended workers never park on a full ring).
const LF_CAP: usize = 4096;
/// Items per timed round in the uncontended lock-free cells.
const LF_ROUND: u64 = 2048;

/// Consumer context for the lock-free cells: warm summary so every get
/// exercises the feedback deposit, generous op timeout like a supervised
/// mid-pipeline task.
fn lf_ctx(node: u32, trace: &SharedTrace, clock: &Arc<dyn Clock>) -> TaskCtx {
    let mut ctx = bench_api::task_ctx(
        NodeId(node),
        "bench-lf",
        1,
        false,
        &aru_min(),
        Arc::clone(clock),
        trace.clone(),
    );
    bench_api::warm_summary(&mut ctx, Stp(Micros(1_000)));
    bench_api::set_op_timeout(&mut ctx, Micros(30_000_000));
    ctx
}

/// `put_lockfree`: uncontended single-put cost — mutex `Queue::put` vs
/// the lock-free `LfQueue::put` (DESIGN.md §14). Each worker owns its
/// queue pair and alternates timed put rounds with untimed drains
/// (steady state, bounded working set); payloads are pre-built outside
/// the timed region so the number isolates the enqueue op itself.
/// Warm-up round + per-round trimmed mean, like `get_batch`.
fn bench_put_lockfree(threads: usize, ops: u64, reps: usize, checks: &mut Vec<Check>) -> LockfreeRow {
    let ops = ops.max(LF_ROUND).next_multiple_of(LF_ROUND);
    let total_ops = threads as u64 * ops;
    let mut mx_samples = Vec::with_capacity(reps);
    let mut lf_samples = Vec::with_capacity(reps);
    let mut final_state = None;
    for _ in 0..reps {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());

        let mx_trace = SharedTrace::new();
        let queues: Vec<Arc<Queue<Vec<u8>>>> = (0..threads)
            .map(|k| {
                bench_api::queue(
                    NodeId(6000 + k as u32),
                    "mx-q",
                    &aru_min(),
                    Arc::clone(&clock),
                    mx_trace.clone(),
                    1,
                )
            })
            .collect();
        mx_samples.push(time_threads_accum(threads, |k| {
            let q = &queues[k];
            let mut ctx = lf_ctx(6100 + k as u32, &mx_trace, &clock);
            let p = IterKey::new(NodeId(k as u32), 0);
            let mut rounds = Vec::with_capacity((ops / LF_ROUND) as usize);
            let mut done = 0u64;
            let mut warm = true;
            while warm || done < ops {
                let n = if warm { LF_ROUND } else { LF_ROUND.min(ops - done) };
                let vals: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; ITEM_BYTES]).collect();
                let t0 = Instant::now();
                for (i, v) in vals.into_iter().enumerate() {
                    q.put(Timestamp(done + i as u64), v, p).unwrap();
                }
                let dt = t0.elapsed();
                while !q.is_empty() {
                    q.get_batch(0, &mut ctx, 512).unwrap();
                }
                if warm {
                    warm = false;
                } else {
                    rounds.push(dt);
                    done += n;
                }
            }
            trimmed_total(&rounds)
        }));

        let lf_trace = SharedTrace::new();
        let lfqueues: Vec<Arc<LfQueue<Vec<u8>>>> = (0..threads)
            .map(|k| {
                bench_api::lfqueue(
                    NodeId(6200 + k as u32),
                    "lf-q",
                    &aru_min(),
                    LF_CAP,
                    lf_trace.clone(),
                    1,
                )
            })
            .collect();
        lf_samples.push(time_threads_accum(threads, |k| {
            let q = &lfqueues[k];
            let mut ctx = lf_ctx(6300 + k as u32, &lf_trace, &clock);
            let p = IterKey::new(NodeId(k as u32), 0);
            let mut rounds = Vec::with_capacity((ops / LF_ROUND) as usize);
            let mut done = 0u64;
            let mut warm = true;
            while warm || done < ops {
                let n = if warm { LF_ROUND } else { LF_ROUND.min(ops - done) };
                let vals: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; ITEM_BYTES]).collect();
                let t0 = Instant::now();
                for (i, v) in vals.into_iter().enumerate() {
                    q.put(Timestamp(done + i as u64), v, p).unwrap();
                }
                let dt = t0.elapsed();
                while !q.is_empty() {
                    q.get_batch(0, &mut ctx, 512).unwrap();
                }
                if warm {
                    warm = false;
                } else {
                    rounds.push(dt);
                    done += n;
                }
            }
            trimmed_total(&rounds)
        }));
        final_state = Some((queues, lfqueues));
    }

    let (queues, lfqueues) = final_state.expect("reps >= 1");
    checks.push(Check {
        name: "put_lockfree: both sides fully drained, byte accounting zeroed".into(),
        passed: queues.iter().all(|q| q.is_empty() && q.live_bytes() == 0)
            && lfqueues.iter().all(|q| q.is_empty() && q.live_bytes() == 0),
        detail: format!(
            "mutex len {:?} / lockfree len {:?}",
            queues.iter().map(|q| q.len()).collect::<Vec<_>>(),
            lfqueues.iter().map(|q| q.len()).collect::<Vec<_>>()
        ),
    });

    LockfreeRow {
        name: "put_lockfree",
        mutex_ns_per_op: trimmed_mean(&mx_samples).as_nanos() as f64 / total_ops as f64,
        lockfree_ns_per_op: trimmed_mean(&lf_samples).as_nanos() as f64 / total_ops as f64,
        ops,
    }
}

/// `get_lockfree`: uncontended single-get cost — mutex `Queue::get` vs
/// `LfQueue::get`, both depositing backward STP on every op. Untimed
/// refills, timed drains, FIFO order asserted on both sides. Warm-up
/// round + per-round trimmed mean, like `get_batch`.
fn bench_get_lockfree(threads: usize, ops: u64, reps: usize, checks: &mut Vec<Check>) -> LockfreeRow {
    let ops = ops.max(LF_ROUND).next_multiple_of(LF_ROUND);
    let total_ops = threads as u64 * ops;
    let mut mx_samples = Vec::with_capacity(reps);
    let mut lf_samples = Vec::with_capacity(reps);
    let mut final_state = None;
    let order_violations = AtomicUsize::new(0);
    for _ in 0..reps {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());

        let mx_trace = SharedTrace::new();
        let queues: Vec<Arc<Queue<Vec<u8>>>> = (0..threads)
            .map(|k| {
                bench_api::queue(
                    NodeId(6400 + k as u32),
                    "mx-q",
                    &aru_min(),
                    Arc::clone(&clock),
                    mx_trace.clone(),
                    1,
                )
            })
            .collect();
        mx_samples.push(time_threads_accum(threads, |k| {
            let q = &queues[k];
            let mut ctx = lf_ctx(6500 + k as u32, &mx_trace, &clock);
            let p = IterKey::new(NodeId(k as u32), 0);
            let mut rounds = Vec::with_capacity((ops / LF_ROUND) as usize);
            let mut done = 0u64;
            let mut warm = true;
            while warm || done < ops {
                let n = if warm { LF_ROUND } else { LF_ROUND.min(ops - done) };
                for j in 0..n {
                    q.put(Timestamp(done + j), vec![0u8; ITEM_BYTES], p).unwrap();
                }
                let mut last = None;
                let t0 = Instant::now();
                for _ in 0..n {
                    let item = q.get(0, &mut ctx).unwrap();
                    if last.is_some_and(|l| item.ts <= l) {
                        order_violations.fetch_add(1, Ordering::Relaxed);
                    }
                    last = Some(item.ts);
                }
                let dt = t0.elapsed();
                if warm {
                    warm = false;
                } else {
                    rounds.push(dt);
                    done += n;
                }
            }
            trimmed_total(&rounds)
        }));

        let lf_trace = SharedTrace::new();
        let lfqueues: Vec<Arc<LfQueue<Vec<u8>>>> = (0..threads)
            .map(|k| {
                bench_api::lfqueue(
                    NodeId(6600 + k as u32),
                    "lf-q",
                    &aru_min(),
                    LF_CAP,
                    lf_trace.clone(),
                    1,
                )
            })
            .collect();
        lf_samples.push(time_threads_accum(threads, |k| {
            let q = &lfqueues[k];
            let mut ctx = lf_ctx(6700 + k as u32, &lf_trace, &clock);
            let p = IterKey::new(NodeId(k as u32), 0);
            let mut rounds = Vec::with_capacity((ops / LF_ROUND) as usize);
            let mut done = 0u64;
            let mut warm = true;
            while warm || done < ops {
                let n = if warm { LF_ROUND } else { LF_ROUND.min(ops - done) };
                for j in 0..n {
                    q.put(Timestamp(done + j), vec![0u8; ITEM_BYTES], p).unwrap();
                }
                let mut last = None;
                let t0 = Instant::now();
                for _ in 0..n {
                    let item = q.get(0, &mut ctx).unwrap();
                    if last.is_some_and(|l| item.ts <= l) {
                        order_violations.fetch_add(1, Ordering::Relaxed);
                    }
                    last = Some(item.ts);
                }
                let dt = t0.elapsed();
                if warm {
                    warm = false;
                } else {
                    rounds.push(dt);
                    done += n;
                }
            }
            trimmed_total(&rounds)
        }));
        final_state = Some((queues, lfqueues));
    }

    let (queues, lfqueues) = final_state.expect("reps >= 1");
    checks.push(Check {
        name: "get_lockfree: FIFO timestamp order preserved on both sides".into(),
        passed: order_violations.load(Ordering::Relaxed) == 0,
        detail: format!("{} violations", order_violations.load(Ordering::Relaxed)),
    });
    checks.push(Check {
        name: "get_lockfree: both sides fully drained".into(),
        passed: queues.iter().all(|q| q.is_empty()) && lfqueues.iter().all(|q| q.is_empty()),
        detail: format!(
            "mutex len {:?} / lockfree len {:?}",
            queues.iter().map(|q| q.len()).collect::<Vec<_>>(),
            lfqueues.iter().map(|q| q.len()).collect::<Vec<_>>()
        ),
    });

    LockfreeRow {
        name: "get_lockfree",
        mutex_ns_per_op: trimmed_mean(&mx_samples).as_nanos() as f64 / total_ops as f64,
        lockfree_ns_per_op: trimmed_mean(&lf_samples).as_nanos() as f64 / total_ops as f64,
        ops,
    }
}

/// `mixed_lockfree`: one shared queue per side, half the workers putting
/// and half getting concurrently — the contended MPMC case the ring's
/// slot-claim CAS exists for (at `--threads 4`: 2 producers + 2
/// consumers). Wall-clock over the whole transfer, reported per item
/// moved. Trimmed mean over the reps.
fn bench_mixed_lockfree(
    threads: usize,
    ops: u64,
    reps: usize,
    checks: &mut Vec<Check>,
) -> LockfreeRow {
    let producers = (threads / 2).max(1);
    let consumers = (threads / 2).max(1);
    let workers = producers + consumers;
    let total = producers as u64 * ops;
    // Consumer quotas partition the total transfer.
    let quota = |c: usize| total / consumers as u64 + u64::from((c as u64) < total % consumers as u64);
    // Distinct monotone timestamp range per producer.
    let ts_for = |p: usize, j: u64| Timestamp(((p as u64) << 40) | j);
    let received = AtomicUsize::new(0);

    let mut mx_samples = Vec::with_capacity(reps);
    let mut lf_samples = Vec::with_capacity(reps);
    let mut final_state = None;
    for _ in 0..reps {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());

        let mx_trace = SharedTrace::new();
        let mx: Arc<Queue<Vec<u8>>> = bench_api::queue(
            NodeId(6800),
            "mx-mixed",
            &aru_min(),
            Arc::clone(&clock),
            mx_trace.clone(),
            consumers,
        );
        let vals: Vec<std::sync::Mutex<Vec<Vec<u8>>>> = (0..producers)
            .map(|_| std::sync::Mutex::new((0..ops).map(|_| vec![0u8; ITEM_BYTES]).collect()))
            .collect();
        mx_samples.push(time_threads(workers, |k| {
            if k < producers {
                let p = IterKey::new(NodeId(k as u32), 0);
                let vals = std::mem::take(&mut *vals[k].lock().unwrap());
                for (j, v) in vals.into_iter().enumerate() {
                    mx.put(ts_for(k, j as u64), v, p).unwrap();
                }
            } else {
                let c = k - producers;
                let mut ctx = lf_ctx(6900 + c as u32, &mx_trace, &clock);
                for _ in 0..quota(c) {
                    mx.get(c, &mut ctx).unwrap();
                    received.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));

        let lf_trace = SharedTrace::new();
        let lf: Arc<LfQueue<Vec<u8>>> = bench_api::lfqueue(
            NodeId(7000),
            "lf-mixed",
            &aru_min(),
            LF_CAP,
            lf_trace.clone(),
            consumers,
        );
        let lvals: Vec<std::sync::Mutex<Vec<Vec<u8>>>> = (0..producers)
            .map(|_| std::sync::Mutex::new((0..ops).map(|_| vec![0u8; ITEM_BYTES]).collect()))
            .collect();
        lf_samples.push(time_threads(workers, |k| {
            if k < producers {
                let p = IterKey::new(NodeId(k as u32), 0);
                let vals = std::mem::take(&mut *lvals[k].lock().unwrap());
                for (j, v) in vals.into_iter().enumerate() {
                    lf.put(ts_for(k, j as u64), v, p).unwrap();
                }
            } else {
                let c = k - producers;
                let mut ctx = lf_ctx(7100 + c as u32, &lf_trace, &clock);
                for _ in 0..quota(c) {
                    lf.get(c, &mut ctx).unwrap();
                    received.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
        final_state = Some((mx, lf));
    }

    let (mx, lf) = final_state.expect("reps >= 1");
    checks.push(Check {
        name: "mixed_lockfree: every item transferred, nothing stranded".into(),
        passed: received.load(Ordering::Relaxed) as u64 == 2 * total * reps as u64
            && mx.is_empty()
            && lf.is_empty(),
        detail: format!(
            "received {} of {} / mutex left {} / lockfree left {}",
            received.load(Ordering::Relaxed),
            2 * total * reps as u64,
            mx.len(),
            lf.len()
        ),
    });

    LockfreeRow {
        name: "mixed_lockfree",
        mutex_ns_per_op: trimmed_mean(&mx_samples).as_nanos() as f64 / total as f64,
        lockfree_ns_per_op: trimmed_mean(&lf_samples).as_nanos() as f64 / total as f64,
        ops,
    }
}

/// `threaded_app`: the whole runtime stack — `RuntimeBuilder` wiring,
/// supervised task loops, blocking endpoint wrappers, occupancy feedback
/// — on a src → Q1 → mid → Q2 → sink pipeline, once per queue backend.
/// Pacing is disabled so the number measures queue transport, not the
/// controller. Wall-clock from start until the sink has drained every
/// item, reported per item moved. Trimmed mean over the reps.
fn bench_threaded_app(ops: u64, reps: usize, checks: &mut Vec<Check>) -> LockfreeRow {
    use stampede::{QueueBackend, RuntimeBuilder, Step};

    let run_once = |backend: QueueBackend| -> (Duration, u64) {
        let mut b =
            RuntimeBuilder::new(AruConfig::disabled(), GcMode::Ref).with_queue_backend(backend);
        let q1 = b.queue::<Vec<u8>>("bench-q1");
        let q2 = b.queue::<Vec<u8>>("bench-q2");
        let src = b.thread("src");
        let mid = b.thread("mid");
        let snk = b.thread("snk");
        let mut out1 = b.connect_queue_out(src, &q1).unwrap();
        let mut in1 = b.connect_queue_in(&q1, mid).unwrap();
        let mut out2 = b.connect_queue_out(mid, &q2).unwrap();
        let mut in2 = b.connect_queue_in(&q2, snk).unwrap();
        let total = ops;
        let mut sent = 0u64;
        b.spawn(src, move |ctx| {
            if sent == total {
                return Ok(Step::Stop);
            }
            out1.put(ctx, Timestamp(sent), vec![0u8; ITEM_BYTES])?;
            sent += 1;
            Ok(Step::Continue)
        });
        let mut moved = 0u64;
        b.spawn(mid, move |ctx| {
            let batch = in1.get_batch(ctx, BATCH)?;
            moved += batch.len() as u64;
            let relay: Vec<(Timestamp, Vec<u8>)> = batch
                .into_iter()
                .map(|it| (it.ts, it.value.as_ref().clone()))
                .collect();
            out2.put_batch(ctx, relay)?;
            if moved == total {
                Ok(Step::Stop)
            } else {
                Ok(Step::Continue)
            }
        });
        let done = Arc::new(AtomicUsize::new(0));
        let drained = Arc::clone(&done);
        b.spawn(snk, move |ctx| {
            let batch = in2.get_batch(ctx, BATCH)?;
            for it in &batch {
                ctx.emit_output(it.ts);
            }
            let n = drained.fetch_add(batch.len(), Ordering::Relaxed) + batch.len();
            if n as u64 == total {
                Ok(Step::Stop)
            } else {
                Ok(Step::Continue)
            }
        });
        let t0 = Instant::now();
        let running = b.build().expect("bench pipeline builds").start();
        while (done.load(Ordering::Relaxed) as u64) < total {
            std::thread::yield_now();
        }
        let dur = t0.elapsed();
        running.stop().expect("clean shutdown");
        (dur, done.load(Ordering::Relaxed) as u64)
    };

    let mut mx_samples = Vec::with_capacity(reps);
    let mut lf_samples = Vec::with_capacity(reps);
    let mut mx_delivered = 0u64;
    let mut lf_delivered = 0u64;
    for _ in 0..reps {
        let (d, n) = run_once(QueueBackend::Mutex);
        mx_samples.push(d);
        mx_delivered = n;
        let (d, n) = run_once(QueueBackend::lock_free());
        lf_samples.push(d);
        lf_delivered = n;
    }
    checks.push(Check {
        name: "threaded_app: every item drained by the sink on both backends".into(),
        passed: mx_delivered == ops && lf_delivered == ops,
        detail: format!("mutex {mx_delivered} / lockfree {lf_delivered} of {ops}"),
    });

    LockfreeRow {
        name: "threaded_app",
        mutex_ns_per_op: trimmed_mean(&mx_samples).as_nanos() as f64 / ops as f64,
        lockfree_ns_per_op: trimmed_mean(&lf_samples).as_nanos() as f64 / ops as f64,
        ops,
    }
}

fn main() {
    let mut threads = 4usize;
    let mut ops = 200_000u64;
    let mut reps = 3usize;
    let mut out = PathBuf::from("BENCH_hotpath.json");
    let mut baseline: Option<PathBuf> = None;
    let mut max_regress = 0.35f64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => threads = it.next().expect("--threads N").parse().expect("numeric"),
            "--ops" => ops = it.next().expect("--ops N").parse().expect("numeric"),
            "--reps" => reps = it.next().expect("--reps N").parse().expect("numeric"),
            "--out" => out = PathBuf::from(it.next().expect("--out FILE")),
            "--baseline" => baseline = Some(PathBuf::from(it.next().expect("--baseline FILE"))),
            "--max-regress" => {
                max_regress = it.next().expect("--max-regress F").parse().expect("numeric");
            }
            "--help" | "-h" => {
                println!(
                    "hotpath [--threads N] [--ops N] [--reps N] [--out FILE] \
                     [--baseline FILE] [--max-regress F]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    assert!(threads >= 1 && ops >= 1 && reps >= 1);

    let mut rows = Vec::new();
    let mut checks = Vec::new();
    let mut sharded_snapshot: Option<(Trace, Duration)> = None;
    let mut coarse_snapshot_ms = 0.0f64;

    // Warm-up: run the largest workload once, untimed, for both
    // implementations. This primes the allocator's free pool so the first
    // timed run doesn't pay first-touch page faults the later runs don't.
    {
        let coarse = CoarseTrace::new();
        time_threads(threads, |k| drive_coarse(&coarse.clone(), k, ops, Kind::Mixed));
        let sharded = SharedTrace::new();
        time_threads(threads, |k| drive_sharded(&sharded, k, ops, Kind::Mixed));
    }

    for kind in [Kind::PutPath, Kind::GetPath, Kind::Mixed] {
        let total_ops = threads as u64 * ops;
        let expected_events = total_ops * kind.events_per_op();

        // Best of `reps` runs per implementation; the last rep's traces
        // feed the shape checks.
        let mut d_coarse = Duration::MAX;
        let mut d_sharded = Duration::MAX;
        let mut coarse_state = None;
        let mut sharded_state = None;
        for _ in 0..reps {
            let coarse = CoarseTrace::new();
            d_coarse =
                d_coarse.min(time_threads(threads, |k| drive_coarse(&coarse.clone(), k, ops, kind)));
            let t0 = Instant::now();
            let coarse_trace = coarse.snapshot();
            coarse_state = Some((coarse_trace, t0.elapsed()));

            // Sharded: one buffered LocalTrace writer per thread, like the
            // runtime's channels.
            let sharded = SharedTrace::new();
            d_sharded = d_sharded.min(time_threads(threads, |k| drive_sharded(&sharded, k, ops, kind)));
            let t0 = Instant::now();
            let sharded_trace = sharded.snapshot();
            sharded_state = Some((sharded_trace, t0.elapsed()));
        }
        let (coarse_trace, coarse_snap) = coarse_state.expect("reps >= 1");
        let (sharded_trace, sharded_snap) = sharded_state.expect("reps >= 1");

        let row = WorkloadRow {
            name: kind.name(),
            coarse_ns_per_op: d_coarse.as_nanos() as f64 / total_ops as f64,
            sharded_ns_per_op: d_sharded.as_nanos() as f64 / total_ops as f64,
            coarse_events: coarse_trace.len(),
            sharded_events: sharded_trace.len(),
            expected_events,
        };

        checks.push(Check {
            name: format!("{}: event counts identical across trace impls", kind.name()),
            passed: coarse_trace.len() as u64 == expected_events
                && sharded_trace.len() as u64 == expected_events,
            detail: format!(
                "coarse {} / sharded {} / expected {}",
                coarse_trace.len(),
                sharded_trace.len(),
                expected_events
            ),
        });
        checks.push(Check {
            name: format!("{}: sharded snapshot is time-ordered", kind.name()),
            passed: is_time_sorted(&sharded_trace),
            detail: format!("{} events", sharded_trace.len()),
        });
        if matches!(kind, Kind::PutPath) {
            let (uniq, n) = unique_alloc_ids(&sharded_trace);
            checks.push(Check {
                name: "put_path: no item id lost or duplicated across shards".into(),
                passed: uniq == n && uniq as u64 == total_ops,
                detail: format!("{uniq} unique of {total_ops} expected"),
            });
            sharded_snapshot = Some((sharded_trace, sharded_snap));
            coarse_snapshot_ms = coarse_snap.as_secs_f64() * 1e3;
        }
        rows.push(row);
    }

    // Batch-layer workloads: full channel/queue ops, per-item loop vs the
    // amortized batch path. Fan-out frames are heavyweight, so run fewer.
    let batch_rows = vec![
        bench_put_batch(threads, ops, reps, &mut checks),
        bench_get_batch(threads, ops, reps, &mut checks),
        bench_fanout(threads, (ops / 8).max(1), reps, &mut checks),
    ];

    // Lock-free layer: mutex Queue vs LfQueue ring (DESIGN.md §14).
    let lockfree_rows = vec![
        bench_put_lockfree(threads, ops, reps, &mut checks),
        bench_get_lockfree(threads, ops, reps, &mut checks),
        bench_mixed_lockfree(threads, ops, reps, &mut checks),
        bench_threaded_app((ops / 8).max(1), reps, &mut checks),
    ];

    // Baseline regression gate (CI): every workload's ns/op must be within
    // (1 + max_regress) of the committed baseline. Workloads missing from
    // the baseline are skipped, so the gate survives adding workloads.
    if let Some(bl) = &baseline {
        let doc = std::fs::read_to_string(bl)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", bl.display()));
        let mut gates: Vec<(&str, &str, f64)> = Vec::new();
        for r in &rows {
            gates.push((r.name, "sharded_ns_per_op", r.sharded_ns_per_op));
        }
        for r in &batch_rows {
            gates.push((r.name, "batched_ns_per_op", r.batched_ns_per_op));
        }
        for r in &lockfree_rows {
            gates.push((r.name, "lockfree_ns_per_op", r.lockfree_ns_per_op));
        }
        for (name, key, new_val) in gates {
            let anchor = format!("\"{name}\"");
            match find_number_after(&doc, Some(&anchor), key) {
                Some(old) if old > 0.0 => {
                    let ratio = new_val / old;
                    checks.push(Check {
                        name: format!("{name}: {key} within +{:.0}% of baseline", max_regress * 100.0),
                        passed: ratio <= 1.0 + max_regress,
                        detail: format!("baseline {old:.2} / now {new_val:.2} / ratio {ratio:.2}"),
                    });
                }
                _ => println!("baseline has no {name}/{key}; skipping gate"),
            }
        }
    }

    // Human-readable summary.
    println!("tracing hot path — {threads} threads x {ops} ops");
    println!(
        "{:<10} {:>14} {:>14} {:>9}",
        "workload", "coarse ns/op", "sharded ns/op", "speedup"
    );
    for r in &rows {
        println!(
            "{:<10} {:>14.1} {:>14.1} {:>8.2}x",
            r.name,
            r.coarse_ns_per_op,
            r.sharded_ns_per_op,
            r.speedup()
        );
    }
    println!(
        "{:<10} {:>14} {:>14} {:>9}",
        "batch", "singles ns/op", "batched ns/op", "speedup"
    );
    for r in &batch_rows {
        println!(
            "{:<10} {:>14.1} {:>14.1} {:>8.2}x",
            r.name,
            r.singles_ns_per_op,
            r.batched_ns_per_op,
            r.speedup()
        );
    }
    println!(
        "{:<14} {:>14} {:>16} {:>9}",
        "lockfree", "mutex ns/op", "lockfree ns/op", "speedup"
    );
    for r in &lockfree_rows {
        println!(
            "{:<14} {:>14.1} {:>16.1} {:>8.2}x",
            r.name,
            r.mutex_ns_per_op,
            r.lockfree_ns_per_op,
            r.speedup()
        );
    }
    let (snap_trace, snap_dur) = sharded_snapshot.expect("put_path ran");
    println!(
        "snapshot (k-way merge, {} events): {:.2} ms (coarse sort: {:.2} ms)",
        snap_trace.len(),
        snap_dur.as_secs_f64() * 1e3,
        coarse_snapshot_ms
    );
    for c in &checks {
        println!(
            "[{}] {} — {}",
            if c.passed { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }

    // Machine-readable JSON via the shared escaped writer.
    let workloads = rows
        .iter()
        .fold(JsonArr::new(), |arr, r| {
            arr.item(
                JsonObj::new()
                    .field("name", r.name)
                    .field("coarse_ns_per_op", Fixed(r.coarse_ns_per_op, 2))
                    .field("sharded_ns_per_op", Fixed(r.sharded_ns_per_op, 2))
                    .field("speedup", Fixed(r.speedup(), 3))
                    .field("coarse_events", r.coarse_events)
                    .field("sharded_events", r.sharded_events)
                    .field("expected_events", r.expected_events)
                    .raw(),
            )
        })
        .raw();
    let batch_workloads = batch_rows
        .iter()
        .fold(JsonArr::new(), |arr, r| {
            arr.item(
                JsonObj::new()
                    .field("name", r.name)
                    .field("singles_ns_per_op", Fixed(r.singles_ns_per_op, 2))
                    .field("batched_ns_per_op", Fixed(r.batched_ns_per_op, 2))
                    .field("speedup", Fixed(r.speedup(), 3))
                    .field("items_per_batch", BATCH)
                    .field("ops_per_thread", r.ops)
                    .raw(),
            )
        })
        .raw();
    let lockfree_workloads = lockfree_rows
        .iter()
        .fold(JsonArr::new(), |arr, r| {
            arr.item(
                JsonObj::new()
                    .field("name", r.name)
                    .field("mutex_ns_per_op", Fixed(r.mutex_ns_per_op, 2))
                    .field("lockfree_ns_per_op", Fixed(r.lockfree_ns_per_op, 2))
                    .field("speedup", Fixed(r.speedup(), 3))
                    .field("ops_per_thread", r.ops)
                    .raw(),
            )
        })
        .raw();
    let check_arr = checks
        .iter()
        .fold(JsonArr::new(), |arr, c| {
            arr.item(
                JsonObj::new()
                    .field("name", c.name.as_str())
                    .field("passed", c.passed)
                    .field("detail", c.detail.as_str())
                    .raw(),
            )
        })
        .raw();
    let doc = JsonObj::new()
        .field("bench", "hotpath")
        .field("threads", threads)
        .field("ops_per_thread", ops)
        .field("workloads", workloads)
        .field("batch_workloads", batch_workloads)
        .field("lockfree_workloads", lockfree_workloads)
        .field(
            "snapshot",
            JsonObj::new()
                .field("sharded_merge_ms", Fixed(snap_dur.as_secs_f64() * 1e3, 3))
                .field("coarse_sort_ms", Fixed(coarse_snapshot_ms, 3))
                .field("events", snap_trace.len())
                .raw(),
        )
        .field("checks", check_arr)
        .finish();
    std::fs::write(&out, pretty(&doc)).expect("write bench json");
    println!("bench json written to {}", out.display());

    let failed = checks.iter().filter(|c| !c.passed).count();
    if failed > 0 {
        eprintln!("{failed} shape check(s) FAILED");
        std::process::exit(1);
    }
}
