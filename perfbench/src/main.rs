//! The repository benchmark: runs one workload through the workspace
//! crates' public APIs and prints its metrics. See `README.md`.
//!
//! ```text
//! perfbench --workload <tracker_overrun|runtime_small|desim_scale>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured in child processes
//! of this program (see [`processes`]); `--trace 1` the per-layer ones, in
//! one process. The last line of standard output is the result object; the
//! line before it holds the machine fingerprint and the per-process spread
//! of each end-to-end metric. Exits 1 when a correctness check fails, 2 on
//! a usage error.

mod breakdown;
mod catalogue;
mod layers;
mod report;
mod stats;
mod sys;
mod threaded;
mod window;
mod wl_scale;
mod wl_small;
mod wl_tracker;

use aru_metrics::json::{JsonObj, Raw};
use catalogue::{END_TO_END, PER_LAYER};
use report::{BenchResult, Metric};
use stats::{median, percentile_bp, supported_tail, Spread};
use std::collections::BTreeMap;
use window::Window;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in the child processes an untraced run is split into.
    pub child: Option<Child>,
}

/// What a child process of an untraced run measures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Child {
    /// Time the workload's set-up, and report the median.
    Setup,
    /// Run the workload for `--seconds` and report its figures.
    Run,
}

const WORKLOADS: &[&str] = &["tracker_overrun", "runtime_small", "desim_scale"];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))?),
            "--child" => {
                child = Some(match value.as_str() {
                    "setup" => Child::Setup,
                    "run" => Child::Run,
                    _ => return Err(format!("unknown child {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be above 0 and at most 60".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        child,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// What one workload run measured.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    e2e: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, f64>,
    /// Per-process figures behind each end-to-end mean.
    spread: BTreeMap<String, Vec<f64>>,
}

impl Outcome {
    fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            e2e: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            spread: BTreeMap::new(),
        }
    }

    /// End-to-end figures of a threaded workload's timed windows.
    fn end_to_end(&mut self, windows: &[Window]) {
        let rates: Vec<f64> = windows.iter().map(Window::outputs_per_s).collect();
        let cpu: Vec<f64> = windows.iter().map(Window::cpu_us_per_output).collect();
        let lat: Vec<f64> = windows.iter().flat_map(|w| w.latency_ms.clone()).collect();
        self.set_end_to_end(&rates, &cpu, &lat);
    }

    /// One process's figures: medians over its windows or cells, latency
    /// percentiles over all its outputs, its own peak RSS.
    fn set_end_to_end(&mut self, rates: &[f64], cpu: &[f64], latency_ms: &[f64]) {
        for (k, v) in [
            ("outputs_per_s", median(rates)),
            ("latency_p50_ms", percentile_bp(latency_ms, 5000)),
            ("latency_p90_ms", percentile_bp(latency_ms, 9000)),
            ("cpu_us_per_output", median(cpu)),
            ("peak_rss_mb", sys::peak_rss_mb()),
        ] {
            self.e2e.insert(k.into(), v);
        }
    }

    /// The untimed diagnostics: supported latency tail and jitter.
    fn diagnostics(&self, latency_ms: &[f64], jitter_ms: f64, m: &mut BTreeMap<String, f64>) {
        let (pct, tail) = supported_tail(latency_ms, 10).unwrap_or((0.0, 0.0));
        m.insert("latency_tail_ms".into(), tail);
        m.insert("latency_tail_pct".into(), pct);
        m.insert("latency_tail_samples".into(), latency_ms.len() as f64);
        m.insert("jitter_ms".into(), jitter_ms);
    }
}

/// The tracker-layer metrics of a workload that runs no pixel kernel: the
/// kernels' isolated costs, and zero calls.
pub fn no_tracker_work(seed: u64, m: &mut BTreeMap<String, f64>) {
    let k = layers::tracker_kernels(seed, 4);
    for (name, v) in [
        ("tracker.frame_ms", k.frame),
        ("tracker.subtract_background_ms", k.subtract),
        ("tracker.build_histogram_ms", k.histogram),
        ("tracker.detect_target_ms", k.detect),
        ("tracker.serial_ms_per_frame", k.serial),
        ("tracker.kernel_calls_per_output", 0.0),
        ("tracker.kernel_share", 0.0),
    ] {
        m.insert(name.into(), v);
    }
}

/// Processes an untraced run is split into: `(set-up, measuring)`.
///
/// Timings on the 2-vCPU host came in per-process modes: one process
/// built the tracker in 0.7 ms every time, the next in 2 ms every time,
/// and `desim_scale` cells ran at ~105k or ~150k outputs/s for a whole
/// process. Averaging over processes inside one run keeps those modes out
/// of the run-to-run spread.
fn processes(workload: &str) -> (usize, usize) {
    match workload {
        "tracker_overrun" => (8, 1),
        "runtime_small" => (8, 4),
        _ => (8, 5),
    }
}

/// Run this program as a child process of `a` and read its result.
fn child(a: &Args, which: &str, seconds: f64) -> BenchResult {
    let out = std::process::Command::new(std::env::current_exe().expect("own path"))
        .args(["--workload", &a.workload, "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
            "--child",
            which,
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("child process runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{which} child failed: {}", out.status);
    BenchResult::from_json(text.lines().last().unwrap_or_default())
        .unwrap_or_else(|e| panic!("{which} child printed no result: {e}"))
}

/// An untraced run: set-up timed in several processes, the workload run in
/// several, the two interleaved so that both sample the whole run; each
/// end-to-end metric is the mean over the processes of each process's
/// figure, and the spread line lists the per-process figures.
fn untraced(a: &Args) -> Outcome {
    let (setup_procs, run_procs) = processes(&a.workload);
    // Evenly spaced positions in the run for each kind of child.
    let mut order: Vec<(f64, &str)> = (0..setup_procs)
        .map(|k| ((k as f64 + 0.5) / setup_procs as f64, "setup"))
        .chain((0..run_procs).map(|j| ((j as f64 + 0.5) / run_procs as f64, "run")))
        .collect();
    order.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut o = Outcome::new(0, 0);
    let mut per: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (_, which) in order {
        let r = child(a, which, a.seconds / run_procs as f64);
        o.attempted += r.attempted;
        o.failed += r.failed;
        for m in r.metrics {
            per.entry(m.name).or_default().push(m.value);
        }
    }
    for (k, v) in &per {
        o.e2e
            .insert(k.clone(), v.iter().sum::<f64>() / v.len() as f64);
    }
    o.e2e.insert(
        "correct_share".into(),
        1.0 - o.failed as f64 / o.attempted.max(1) as f64,
    );
    o.spread = per;
    o
}

/// The body of a child process: its figures as a result line.
fn run_child(a: &Args, which: Child) -> BenchResult {
    let (o, metrics) = match which {
        Child::Setup => {
            let samples = match a.workload.as_str() {
                "tracker_overrun" => wl_tracker::setup_samples(a.seed),
                "runtime_small" => wl_small::setup_samples(a.seed),
                _ => wl_scale::setup_samples(a.seed),
            };
            (
                Outcome::new(0, 0),
                vec![("setup_s".to_string(), median(&samples))],
            )
        }
        Child::Run => {
            let o = match a.workload.as_str() {
                "tracker_overrun" => wl_tracker::untraced(a),
                "runtime_small" => wl_small::untraced(a),
                _ => wl_scale::untraced(a),
            };
            let m = o.e2e.iter().map(|(k, v)| (k.clone(), *v)).collect();
            (o, m)
        }
    };
    BenchResult {
        correct: o.failed == 0,
        attempted: o.attempted,
        failed: o.failed,
        metrics: metrics
            .into_iter()
            .map(|(name, value)| Metric {
                unit: END_TO_END
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("", |(_, u)| u)
                    .into(),
                name,
                value,
            })
            .collect(),
    }
}

fn spread_json(spread: &BTreeMap<String, Vec<f64>>) -> String {
    let mut obj = JsonObj::new();
    for (k, v) in spread.iter().filter(|(_, v)| !v.is_empty()) {
        let s = Spread::of(v);
        obj = obj.field(
            k,
            JsonObj::new()
                .field("min", s.min)
                .field("q1", s.q1)
                .field("median", s.median)
                .field("q3", s.q3)
                .field("max", s.max)
                .field("n", s.n)
                .raw(),
        );
    }
    obj.finish()
}

fn main() {
    sys::reexec_without_aslr();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(which) = args.child {
        println!("{}", run_child(&args, which).to_json());
        return;
    }
    let o = match (args.workload.as_str(), args.trace) {
        (_, false) => untraced(&args),
        ("tracker_overrun", true) => wl_tracker::traced(&args),
        ("runtime_small", true) => wl_small::traced(&args),
        _ => wl_scale::traced(&args),
    };
    let (catalogue, values) = if args.trace {
        (PER_LAYER, &o.per_layer)
    } else {
        (END_TO_END, &o.e2e)
    };
    let metrics = catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("{} did not measure {name}", args.workload));
            assert!(value.is_finite(), "{name} measured {value}");
            assert!(report::valid_name(name), "illegal metric name {name}");
            Metric {
                name: name.into(),
                unit: unit.into(),
                value,
            }
        })
        .collect();
    let mut fp = JsonObj::new();
    for (k, v) in sys::fingerprint() {
        fp = fp.field(k, v);
    }
    println!(
        "{}",
        JsonObj::new()
            .field("workload", args.workload.as_str())
            .field("seed", args.seed)
            .field("fingerprint", Raw(fp.finish()))
            .field("spread", Raw(spread_json(&o.spread)))
            .finish()
    );
    let result = BenchResult {
        correct: o.failed == 0,
        attempted: o.attempted,
        failed: o.failed,
        metrics,
    };
    let line = result.to_json();
    // The line must read back as exactly what was measured.
    assert_eq!(BenchResult::from_json(&line).as_ref(), Ok(&result));
    println!("{line}");
    if !result.correct {
        std::process::exit(1);
    }
}
