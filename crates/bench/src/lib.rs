//! Benchmark-harness crate: all content lives in `benches/` (one Criterion
//! bench per paper table/figure — `fig6_footprint`, `fig7_waste`,
//! `fig8_series`, `fig9_series`, `fig10_perf` — plus `ablation_compress`,
//! `ablation_filters`, `ablation_pacing`, and `micro_overhead`). Each
//! figure bench first regenerates its artifact and asserts the paper-shape
//! invariants, then measures the code that produces it.
//!
//! [`json`] is the shared machine-readable output writer, re-exported
//! from `aru-metrics`.

pub use aru_metrics::json;
