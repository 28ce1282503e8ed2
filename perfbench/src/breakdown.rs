//! Counts per output and the additive layer model of a threaded run.

use crate::catalogue::TASKS;
use aru_core::{NodeKind, Topology};
use aru_metrics::{thread_stats, ItemId, Lineage, Trace, TraceEvent};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Event counts of one run's trace.
#[derive(Debug, Default)]
pub struct Counts {
    pub outputs: usize,
    pub events: usize,
    pub channel_puts: usize,
    pub channel_gets: usize,
    pub queue_puts: usize,
    pub queue_gets: usize,
    pub frees: usize,
    pub pace_decisions: usize,
    pub iterations: usize,
    /// Iterations of each thread (by name) that put at least one item —
    /// the iterations that ran their stage's kernel.
    pub producing: BTreeMap<String, usize>,
}

impl Counts {
    #[must_use]
    pub fn of(trace: &Trace, topo: &Topology) -> Counts {
        let mut c = Counts {
            events: trace.len(),
            ..Counts::default()
        };
        let mut owner: HashMap<ItemId, bool> = HashMap::new();
        let mut producers = HashSet::new();
        for ev in trace.events() {
            match *ev {
                TraceEvent::Alloc {
                    item,
                    buffer,
                    producer,
                    ..
                } => {
                    let is_queue = topo.kind(buffer) == NodeKind::Queue;
                    owner.insert(item, is_queue);
                    if is_queue {
                        c.queue_puts += 1;
                    } else {
                        c.channel_puts += 1;
                    }
                    producers.insert(producer);
                }
                TraceEvent::Get { item, .. } => match owner.get(&item) {
                    Some(true) => c.queue_gets += 1,
                    _ => c.channel_gets += 1,
                },
                TraceEvent::Free { .. } => c.frees += 1,
                TraceEvent::PaceDecision { .. } => c.pace_decisions += 1,
                TraceEvent::IterEnd { .. } => c.iterations += 1,
                TraceEvent::SinkOutput { .. } => c.outputs += 1,
                _ => {}
            }
        }
        for p in producers {
            *c.producing
                .entry(topo.name(p.node).to_string())
                .or_default() += 1;
        }
        c
    }

    /// Per output of the whole run.
    #[must_use]
    pub fn per_output(&self, n: usize) -> f64 {
        n as f64 / self.outputs.max(1) as f64
    }

    /// Trace events recorded outside buffer operations (iteration ends,
    /// outputs, frees, pace decisions, faults) — the appends not already
    /// inside a put's or get's own cost.
    #[must_use]
    pub fn events_outside_ops(&self) -> usize {
        self.events - self.channel_puts - self.channel_gets - self.queue_puts - self.queue_gets
    }
}

/// `stampede.<task>.{iters_per_output,busy_share,useful_ratio}` for every
/// catalogued task; tasks absent from this run read 0.
pub fn stage_metrics(
    trace: &Trace,
    topo: &Topology,
    outputs: usize,
    run_secs: f64,
    out: &mut BTreeMap<String, f64>,
) {
    let lineage = Lineage::analyze(trace);
    let by_name: BTreeMap<&str, aru_metrics::ThreadStats> = thread_stats(trace, &lineage)
        .into_iter()
        .map(|(n, s)| (topo.name(n), s))
        .collect();
    for task in TASKS {
        let (iters, busy, useful) = by_name.get(task).map_or((0.0, 0.0, 0.0), |s| {
            (
                s.iterations as f64 / outputs.max(1) as f64,
                s.total_busy.as_micros() as f64 / 1e6 / run_secs,
                s.useful_iterations as f64 / s.iterations.max(1) as f64,
            )
        });
        out.insert(format!("stampede.{task}.iters_per_output"), iters);
        out.insert(format!("stampede.{task}.busy_share"), busy);
        out.insert(format!("stampede.{task}.useful_ratio"), useful);
    }
}

/// `aru.pace_overshoot`: the sources' median achieved period over
/// `run_secs` ÷ the median pace target their `PaceDecision`s set; 0 when
/// no source was paced.
#[must_use]
pub fn pace_overshoot(trace: &Trace, topo: &Topology, run_secs: f64) -> f64 {
    let sources: HashSet<_> = topo.source_threads().collect();
    let mut targets = Vec::new();
    let mut iters: HashMap<aru_core::NodeId, usize> = HashMap::new();
    for ev in trace.events() {
        match *ev {
            TraceEvent::PaceDecision { node, target, .. } if sources.contains(&node) => {
                targets.push(target.as_micros() as f64);
            }
            TraceEvent::IterEnd { iter, .. } if sources.contains(&iter.node) => {
                *iters.entry(iter.node).or_default() += 1;
            }
            _ => {}
        }
    }
    let periods: Vec<f64> = iters
        .values()
        .map(|&n| run_secs * 1e6 / n.max(1) as f64)
        .collect();
    let target = crate::stats::median(&targets);
    if targets.is_empty() || target <= 0.0 {
        return 0.0;
    }
    crate::stats::median(&periods) / target
}
