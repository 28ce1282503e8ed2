//! End-to-end figures of one timed window of a threaded run, computed from
//! the run's own trace.

use aru_metrics::footprint::observed_series;
use aru_metrics::{Trace, TraceEvent};
use std::collections::HashMap;
use vtime::{SimTime, Timestamp};

/// What one window measured.
#[derive(Debug, Clone)]
pub struct Window {
    pub secs: f64,
    pub outputs: usize,
    pub cpu_s: f64,
    /// Birth-to-output latency of every output in the window, ms.
    pub latency_ms: Vec<f64>,
    /// Time-weighted mean of live buffer bytes over the window.
    pub footprint_bytes: f64,
    /// σ of the gaps between successive outputs, ms.
    pub jitter_ms: f64,
}

impl Window {
    #[must_use]
    pub fn outputs_per_s(&self) -> f64 {
        self.outputs as f64 / self.secs
    }

    #[must_use]
    pub fn cpu_us_per_output(&self) -> f64 {
        self.cpu_s * 1e6 / self.outputs.max(1) as f64
    }
}

/// Earliest allocation time of every virtual timestamp — a frame's birth.
#[must_use]
pub fn births(trace: &Trace) -> HashMap<Timestamp, SimTime> {
    let mut birth: HashMap<Timestamp, SimTime> = HashMap::new();
    for ev in trace.events() {
        if let TraceEvent::Alloc { t, ts, .. } = *ev {
            birth
                .entry(ts)
                .and_modify(|b| *b = (*b).min(t))
                .or_insert(t);
        }
    }
    birth
}

/// Time-weighted mean of a step function given as `(time, value)` change
/// points, over `[from, to]`.
#[must_use]
pub fn step_mean(points: &[(SimTime, f64)], from: SimTime, to: SimTime) -> f64 {
    if to <= from {
        return 0.0;
    }
    let mut area = 0.0;
    let mut cur = 0.0;
    let mut t_prev = from;
    for &(t, v) in points {
        if t > from {
            let t_clip = t.min(to);
            area += cur * (t_clip.0 - t_prev.0) as f64;
            t_prev = t_clip;
        }
        if t >= to {
            break;
        }
        cur = v;
    }
    area += cur * to.0.saturating_sub(t_prev.0) as f64;
    area / (to.0 - from.0) as f64
}

/// Measure the window `[from, to]` of `trace`; `cpu_s` is the process CPU
/// time spent over the same interval.
#[must_use]
pub fn measure(trace: &Trace, from: SimTime, to: SimTime, cpu_s: f64) -> Window {
    let birth = births(trace);
    let mut latency_ms = Vec::new();
    let mut out_times = Vec::new();
    for ev in trace.events() {
        if let TraceEvent::SinkOutput { t, ts, .. } = *ev {
            if t >= from && t <= to {
                out_times.push(t.0 as f64 / 1e3);
                if let Some(b) = birth.get(&ts) {
                    latency_ms.push(t.since(*b).as_micros() as f64 / 1e3);
                }
            }
        }
    }
    out_times.sort_by(f64::total_cmp);
    let gaps: Vec<f64> = out_times.windows(2).map(|w| w[1] - w[0]).collect();
    let jitter_ms = if gaps.len() < 2 {
        0.0
    } else {
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt()
    };
    let footprint_bytes = step_mean(observed_series(trace).points(), from, to);
    Window {
        secs: (to.0 - from.0) as f64 / 1e6,
        outputs: out_times.len(),
        cpu_s,
        latency_ms,
        footprint_bytes,
        jitter_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_mean_weights_by_time() {
        let pts = [
            (SimTime(0), 10.0),
            (SimTime(100), 20.0),
            (SimTime(300), 0.0),
        ];
        assert_eq!(step_mean(&pts, SimTime(0), SimTime(200)), 15.0);
        assert_eq!(step_mean(&pts, SimTime(100), SimTime(300)), 20.0);
        assert_eq!(step_mean(&pts, SimTime(200), SimTime(400)), 10.0);
        assert_eq!(step_mean(&pts, SimTime(50), SimTime(150)), 15.0);
    }
}
