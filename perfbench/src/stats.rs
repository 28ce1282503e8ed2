//! Order statistics over measured samples.

/// The three quartile cut points of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the figures here match the ones the spread check computes.
/// Needs at least two values; a single value is its own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        _ => {
            // Exact integer positions, as the Python implementation does
            // (including its extrapolation for very small samples).
            let m = n + 1;
            let mut out = [0.0; 3];
            for (i, q) in out.iter_mut().enumerate() {
                let i = i + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// Median (mean of the two middle values for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `values`, the percentile given in basis
/// points (9000 = p90) so that ranks are exact integers.
#[must_use]
pub fn percentile_bp(values: &[f64], bp: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), bp).clamp(1, v.len()) - 1]
}

/// 1-based nearest rank of the `bp`-basis-point percentile among `n`.
fn rank(n: usize, bp: usize) -> usize {
    (bp * n).div_ceil(10_000)
}

/// The highest percentile of `values` that still has at least `beyond`
/// samples above it — the tail a sample of this size supports. Tries
/// p99.99, p99.9, p99, p95, p90, p75 and p50 in that order; returns
/// `(percentile, value)`, or `None` when even the median lacks support.
#[must_use]
pub fn supported_tail(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let n = values.len();
    [9999, 9990, 9900, 9500, 9000, 7500, 5000]
        .into_iter()
        .find(|&bp| n - rank(n, bp).min(n) >= beyond)
        .map(|bp| (bp as f64 / 100.0, percentile_bp(values, bp)))
}

/// Min, quartiles and max of a sample, for reporting spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

impl Spread {
    #[must_use]
    pub fn of(values: &[f64]) -> Spread {
        let [q1, _, q3] = quartiles(values);
        Spread {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: median(values),
            q3,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_bp(&v, 5000), 50.0);
        assert_eq!(percentile_bp(&v, 9000), 90.0);
        assert_eq!(percentile_bp(&v, 10_000), 100.0);
        assert_eq!(percentile_bp(&v, 0), 1.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 leaves exactly 10 above, p95 only 5.
        assert_eq!(supported_tail(&v, 10), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v, 10), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(supported_tail(&v, 10), Some((99.99, 99_990.0)));
        // 19 samples cannot support even the median with 10 beyond it.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(supported_tail(&v, 10), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(supported_tail(&v, 10), Some((50.0, 10.0)));
    }

    #[test]
    fn spread_reports_extremes() {
        let s = Spread::of(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 4));
        assert_eq!(s.median, 2.5);
    }
}
