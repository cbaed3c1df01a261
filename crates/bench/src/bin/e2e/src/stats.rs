//! Order statistics behind every metric.
//!
//! Per-round latencies use nearest-rank percentiles, and a tail percentile
//! is only quoted when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
//! Run-to-run spreads use the exclusive-method quartiles of Python's
//! `statistics.quantiles(values, n=4)`, so the spreads printed here match
//! the ones an outside checker computes from the same values.

/// Fewest samples that must lie beyond a quoted tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q·n` samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples that lie strictly beyond the `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples support quoting the `q` percentile.
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_TAIL_SAMPLES
}

/// Median as Python's `statistics.median` computes it.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (exclusive method). A single value is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0]);
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.50), 50);
        assert_eq!(percentile_sorted(&s, 0.99), 99);
        assert_eq!(percentile_sorted(&s, 1.0), 100);
        assert_eq!(percentile_sorted(&s, 0.0), 1, "rank is floored at the first sample");
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1,000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert!(tail_supported(1_000, 0.99));
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!tail_supported(999, 0.99));
        // A pass of the Fig. 3 crawl has 15,069 rounds: 150 beyond p99.
        assert_eq!(samples_beyond(15_069, 0.99), 150);
        assert!(tail_supported(11_000, 0.99));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
        // Two values: j clamps to 1, so the cuts extrapolate past the data
        // exactly as Python does: quantiles([1, 3]) == [0.5, 2.0, 3.5].
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn median_and_relative_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0; 6]), 0.0);
        assert_eq!(relative_iqr(&[0.0, 0.0]), 0.0);
    }
}
