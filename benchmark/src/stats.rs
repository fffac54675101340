//! Order statistics for timing samples.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both are harness bugs.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is
/// what the benchmark's acceptance check uses.  Needs ≥ 2 samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 for < 2 samples).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The tail of a timing distribution of `n` samples: the highest of
/// p90 / p99 / p99.9 that still has at least ten samples beyond it, as
/// `(percent, index into the sorted samples)`.  `None` with fewer than
/// 100 samples (not even p90 qualifies).
pub fn tail_rank(n: usize) -> Option<(f64, usize)> {
    [99.9, 99.0, 90.0].into_iter().find_map(|pct| {
        // Samples strictly beyond the percentile's rank.
        let rank = (n as f64 * pct / 100.0).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then_some((pct, rank - 1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_rank(99), None);
        assert_eq!(tail_rank(100), Some((90.0, 89)));
        assert_eq!(tail_rank(1000), Some((99.0, 989)));
        assert_eq!(tail_rank(10_000), Some((99.9, 9989)));
    }
}
