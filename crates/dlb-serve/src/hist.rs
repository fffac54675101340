//! Log-bucketed latency histograms.
//!
//! The serving driver records every completion into one
//! [`LatencyHistogram`]; the proptests in `tests/hist_props.rs` pin
//! down its quantiles.
//!
//! Buckets are HDR-style: exact below [`SUB_BUCKETS`], then
//! `SUB_BUCKETS` equal-width sub-buckets per power of two.  Reported
//! values are bucket midpoints, so any quantile is off from the true
//! sample by at most a factor of `1/SUB_BUCKETS` (relative).

/// Sub-buckets per octave; also the exact-count threshold.  32 gives a
/// ≤ 1/32 ≈ 3.1 % relative error on every reported quantile.
pub const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Index of the bucket holding `v`.
///
/// Values below `SUB_BUCKETS` get a bucket each; a value with highest
/// set bit `e ≥ SUB_BITS` lands in sub-bucket `(v >> (e - SUB_BITS)) -
/// SUB_BUCKETS` of octave `e`.  The mapping is continuous: bucket
/// `SUB_BUCKETS` starts exactly at value `SUB_BUCKETS`.
// Both casts are of an index below `BUCKETS` (1 920).
#[allow(clippy::cast_possible_truncation)]
pub fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let octave = (e - SUB_BITS + 1) as u64;
        (octave * SUB_BUCKETS + (v >> (e - SUB_BITS)) - SUB_BUCKETS) as usize
    }
}

/// Total bucket count: `u64::MAX` (octave 59, sub-bucket 31) lands in
/// the last bucket.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Inclusive value range `[lo, hi]` covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB_BUCKETS {
        (i, i)
    } else {
        let octave = i / SUB_BUCKETS - 1;
        let offset = i % SUB_BUCKETS;
        let lo = (SUB_BUCKETS + offset) << octave;
        let width = 1u64 << octave;
        (lo, lo + (width - 1))
    }
}

/// A fixed-size log-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as a bucket midpoint, clamped to
    /// the exact maximum.  The rank convention is `ceil(q · count)`, so
    /// `quantile(1.0)` is the bucket of the largest sample and the
    /// result differs from the true order statistic by at most a
    /// `1/SUB_BUCKETS` relative error.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // A float-to-int cast saturates, and the clamp bounds it anyway.
        #[allow(clippy::cast_possible_truncation)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return (lo + (hi - lo) / 2).min(self.max);
            }
        }
        unreachable!("rank ≤ count is always reached");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_range() {
        // Every bucket starts where the previous one ends.
        let mut expected_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} starts at {lo}");
            assert!(hi >= lo);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                return;
            }
            expected_lo = hi + 1;
        }
        panic!("buckets stop short of u64::MAX");
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), (SUB_BUCKETS / 2) - 1);
        assert_eq!(h.quantile(1.0), SUB_BUCKETS - 1);
        assert_eq!(h.max(), SUB_BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_known_distributions() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 500u64), (0.99, 990), (0.999, 999)] {
            let got = h.quantile(q);
            let err = got.abs_diff(exact);
            assert!(err * SUB_BUCKETS <= exact, "p{q}: got {got}, exact {exact}");
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }
}
