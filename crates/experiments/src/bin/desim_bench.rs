//! `desim_bench` — calendar-queue vs binary-heap events/s, machine-readable.
//!
//! The tier-1 equivalence suite proves the two [`EventQueueKind`]s produce
//! byte-identical simulations; this binary measures what the calendar buys
//! and guards it against regression. End-to-end engine wall time is the
//! wrong instrument — dispatch work (channel ops, controller steps, GC)
//! dominates and Amdahl hides the queue — so instead the engine runs once
//! per cell with queue capture on ([`Sim::run_with_queue_capture`]) and the
//! recorded push/pop schedule is replayed against each queue kind in
//! isolation. The replayed schedule is the *real* event mix of that
//! scenario — same timestamps, same interleaving, same pending depth — not
//! a synthetic hold model.
//!
//! Cells are [`scale::collapse_scenario`]s: the scale-sweep bench scenario
//! pushed into TCP-incast collapse, where 16-way broadcast against ~1 s
//! effective transfer latency holds six-figure-to-seven-figure pending
//! event sets — deep enough that queue cost, not dispatch, is the bill
//! being measured.
//!
//! ```text
//! desim_bench [--nodes N] [--duration-secs N] [--reps N] [--seed N]
//!             [--out FILE] [--baseline FILE] [--max-regress F]
//! ```
//!
//! By default both the 100-node and the 1000-node cell run; `--nodes`
//! restricts to one (CI runs only the 100-node cell to bound wall time).
//! Each kind replays the captured schedule `--reps` times and the best
//! run is reported — best-observed cost filters scheduler interference on
//! shared/single-core runners.
//!
//! Writes `BENCH_desim.json` (default) with events/s per kind and a set of
//! **shape checks**: the popped `(time, seq)` sequences must be identical
//! across kinds (FNV-hashed on the fly), the captured schedule must be
//! internally consistent, and the calendar must be no slower than the
//! heap. Timings are
//! only gated when `--baseline` is given: each cell's `calendar_mops`
//! must then be at least `1 - --max-regress` of the baseline file's. The
//! default tolerance is generous (0.5) because single-vCPU cloud runners
//! jitter best-of-3 throughput by tens of percent. Exits non-zero iff a
//! check fails.

use aru_metrics::json::{find_number_after, pretty, Fixed, JsonArr, JsonObj};
use desim::{EventQueue, EventQueueKind, QueueOp, Sim};
use experiments::scale;
use std::path::PathBuf;
use std::time::Instant;
use vtime::Micros;

/// Replay payload standing in for the engine's event kind: same order of
/// magnitude (~40 B) so queue entries have realistic cache footprint,
/// opaque so the replay measures the queue and nothing else.
type Payload = [u64; 5];
const PAYLOAD: Payload = [0xA5A5_A5A5; 5];

struct Replay {
    secs: f64,
    pops: u64,
    /// FNV-1a over the popped `(time, seq)` stream — equal hashes mean the
    /// kinds agreed on the full pop order, not just the pop count.
    hash: u64,
}

fn replay(kind: EventQueueKind, ops: &[QueueOp]) -> Replay {
    let mut q: EventQueue<Payload> = EventQueue::new(kind);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut pops = 0u64;
    let t0 = Instant::now();
    for op in ops {
        match *op {
            QueueOp::Push(t, s) => q.push(t, s, PAYLOAD),
            QueueOp::Pop => {
                let (t, s, _) = q.pop().expect("capture never pops an empty queue");
                for w in [t.0, s] {
                    hash = (hash ^ w).wrapping_mul(0x0100_0000_01b3);
                }
                pops += 1;
            }
        }
    }
    Replay {
        secs: t0.elapsed().as_secs_f64(),
        pops,
        hash,
    }
}

struct Cell {
    /// Anchor for baseline lookup (`replay_<nodes>`).
    name: String,
    nodes: usize,
    duration_s: u64,
    fanout: usize,
    net_latency_ms: u64,
    queue_ops: usize,
    events_dispatched: u64,
    peak_pending: usize,
    heap_mops: f64,
    calendar_mops: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.calendar_mops / self.heap_mops
    }
}

struct Check {
    name: String,
    passed: bool,
    detail: String,
}

fn run_cell(
    nodes: usize,
    duration_s: u64,
    seed: u64,
    reps: usize,
    checks: &mut Vec<Check>,
) -> Cell {
    let sc = scale::collapse_scenario(nodes, Micros::from_secs(duration_s), seed);
    let (fanout, net_latency_ms) = (sc.fanout, sc.net.latency.0 / 1000);
    let (builder, cfg) = scale::build(&sc);
    let t0 = Instant::now();
    let (report, ops) = Sim::run_with_queue_capture(builder, cfg).expect("scenario builds");
    println!(
        "cell {nodes} nodes x {duration_s}s: captured {} queue ops ({} dispatched, peak pending {}) in {:.1}s",
        ops.len(),
        report.events_dispatched,
        report.peak_pending,
        t0.elapsed().as_secs_f64()
    );

    let mut best = [f64::MIN; 2];
    let mut runs: [Option<Replay>; 2] = [None, None];
    for _ in 0..reps {
        for (i, kind) in [EventQueueKind::BinaryHeap, EventQueueKind::Calendar]
            .into_iter()
            .enumerate()
        {
            let r = replay(kind, &ops);
            let mops = ops.len() as f64 / r.secs / 1e6;
            if mops > best[i] {
                best[i] = mops;
            }
            runs[i] = Some(r);
        }
    }
    let heap = runs[0].take().expect("reps >= 1");
    let cal = runs[1].take().expect("reps >= 1");

    checks.push(Check {
        name: format!("replay_{nodes}: pop sequences identical across queue kinds"),
        passed: heap.pops == cal.pops && heap.hash == cal.hash,
        detail: format!(
            "heap {} pops hash {:016x} / calendar {} pops hash {:016x}",
            heap.pops, heap.hash, cal.pops, cal.hash
        ),
    });
    // The engine stops at the duration horizon with events still pending,
    // so pushes exceed pops; but a pop can never outrun the pushes, and
    // every dispatched event must have come from a captured pop (the final
    // pop — the one past the horizon — is popped but not dispatched).
    let pushes = ops.len() as u64 - heap.pops;
    checks.push(Check {
        name: format!("replay_{nodes}: captured schedule internally consistent"),
        passed: pushes >= heap.pops && heap.pops >= report.events_dispatched,
        detail: format!(
            "{pushes} pushes / {} pops / {} dispatched",
            heap.pops, report.events_dispatched
        ),
    });
    checks.push(Check {
        name: format!("replay_{nodes}: calendar no slower than heap"),
        passed: best[1] >= best[0],
        detail: format!("heap {:.2} Mops/s / calendar {:.2} Mops/s", best[0], best[1]),
    });

    Cell {
        name: format!("replay_{nodes}"),
        nodes,
        duration_s,
        fanout,
        net_latency_ms,
        queue_ops: ops.len(),
        events_dispatched: report.events_dispatched,
        peak_pending: report.peak_pending,
        heap_mops: best[0],
        calendar_mops: best[1],
    }
}

fn main() {
    let mut nodes: Option<usize> = None;
    let mut duration_secs: Option<u64> = None;
    let mut reps = 3usize;
    let mut seed = 42u64;
    let mut out = PathBuf::from("BENCH_desim.json");
    let mut baseline: Option<PathBuf> = None;
    let mut max_regress = 0.5f64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => nodes = Some(it.next().expect("--nodes N").parse().expect("numeric")),
            "--duration-secs" => {
                duration_secs =
                    Some(it.next().expect("--duration-secs N").parse().expect("numeric"));
            }
            "--reps" => reps = it.next().expect("--reps N").parse().expect("numeric"),
            "--seed" => seed = it.next().expect("--seed N").parse().expect("numeric"),
            "--out" => out = PathBuf::from(it.next().expect("--out FILE")),
            "--baseline" => baseline = Some(PathBuf::from(it.next().expect("--baseline FILE"))),
            "--max-regress" => {
                max_regress = it.next().expect("--max-regress F").parse().expect("numeric");
            }
            "--help" | "-h" => {
                println!(
                    "desim_bench [--nodes N] [--duration-secs N] [--reps N] [--seed N] \
                     [--out FILE] [--baseline FILE] [--max-regress F]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    assert!(reps >= 1);

    let plan: Vec<usize> = match nodes {
        Some(n) => vec![n],
        None => vec![100, 1000],
    };
    let mut cells = Vec::new();
    let mut checks = Vec::new();
    for n in plan {
        cells.push(run_cell(n, duration_secs.unwrap_or(6), seed, reps, &mut checks));
    }

    // Baseline regression gate (CI): each cell's calendar throughput must
    // stay within `max_regress` of the committed baseline. Higher is
    // better here, so the gate is a floor. Cells missing from the baseline
    // are skipped, so the gate survives adding cells.
    if let Some(bl) = &baseline {
        let doc = std::fs::read_to_string(bl)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", bl.display()));
        for c in &cells {
            let anchor = format!("\"{}\"", c.name);
            match find_number_after(&doc, Some(&anchor), "calendar_mops") {
                Some(old) if old > 0.0 => {
                    let floor = old * (1.0 - max_regress);
                    checks.push(Check {
                        name: format!(
                            "{}: calendar_mops at least {:.0}% of baseline",
                            c.name,
                            (1.0 - max_regress) * 100.0
                        ),
                        passed: c.calendar_mops >= floor,
                        detail: format!(
                            "baseline {old:.2} / floor {floor:.2} / now {:.2}",
                            c.calendar_mops
                        ),
                    });
                }
                _ => println!("baseline has no {}/calendar_mops; skipping gate", c.name),
            }
        }
    }

    println!("desim event-queue replay — seed {seed}, best of {reps}");
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "cell", "dur s", "queue ops", "peak pend", "heap Mops", "cal Mops", "speedup"
    );
    for c in &cells {
        println!(
            "{:<12} {:>8} {:>12} {:>12} {:>12.2} {:>12.2} {:>8.2}x",
            c.name,
            c.duration_s,
            c.queue_ops,
            c.peak_pending,
            c.heap_mops,
            c.calendar_mops,
            c.speedup()
        );
    }
    for c in &checks {
        println!(
            "[{}] {} — {}",
            if c.passed { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }

    let cell_arr = cells
        .iter()
        .fold(JsonArr::new(), |arr, c| {
            arr.item(
                JsonObj::new()
                    .field("name", c.name.as_str())
                    .field("nodes", c.nodes)
                    .field("duration_s", c.duration_s)
                    .field("fanout", c.fanout)
                    .field("net_latency_ms", c.net_latency_ms)
                    .field("queue_ops", c.queue_ops)
                    .field("events_dispatched", c.events_dispatched)
                    .field("peak_pending", c.peak_pending)
                    .field("heap_mops", Fixed(c.heap_mops, 3))
                    .field("calendar_mops", Fixed(c.calendar_mops, 3))
                    .field("speedup", Fixed(c.speedup(), 3))
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
        .field("bench", "desim")
        .field("seed", seed)
        .field("reps", reps)
        .field("payload_bytes", std::mem::size_of::<Payload>())
        .field("cells", cell_arr)
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
