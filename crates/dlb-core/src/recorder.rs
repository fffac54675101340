//! Time-series recording of load distributions.
//!
//! Experiments repeatedly need "per-step imbalance statistics plus a
//! summary over a window"; [`LoadRecorder`] collects them once, correctly
//! (warm-up skipping, mean-floor filtering to avoid meaningless ratios on
//! a near-empty system) and exposes quantiles.

use crate::strategy::{imbalance_stats, LoadSummary};

/// Collects the per-step `max/mean` load ratio and summarises it.
#[derive(Debug, Clone)]
pub struct LoadRecorder {
    /// Ignore snapshots before this step (warm-up).
    warmup: usize,
    /// Ignore snapshots whose mean load is below this floor.
    mean_floor: f64,
    /// One `max/mean` ratio per retained step.
    ratios: Vec<f64>,
    steps_seen: usize,
}

impl LoadRecorder {
    /// A recorder that skips the first `warmup` steps and snapshots with
    /// mean load below `mean_floor`.
    pub fn new(warmup: usize, mean_floor: f64) -> Self {
        LoadRecorder {
            warmup,
            mean_floor,
            ratios: Vec::new(),
            steps_seen: 0,
        }
    }

    /// Records one snapshot (call once per step with the current loads).
    pub fn record(&mut self, loads: &[u64]) {
        let step = self.steps_seen;
        self.steps_seen += 1;
        if step < self.warmup {
            return;
        }
        let stats = imbalance_stats(loads);
        if stats.mean >= self.mean_floor {
            self.ratios.push(stats.max_over_mean);
        }
    }

    /// Records one snapshot from an exact min/max/total summary over
    /// `n` processors — the O(1) counterpart of
    /// [`LoadRecorder::record`] for engines with an incremental
    /// [`crate::strategy::LoadBalancer::load_summary`].  The ratio and
    /// the mean-floor filter depend only on max and mean, both carried
    /// exactly (integer sums below 2⁵³ are exact in f64, so the mean
    /// matches [`imbalance_stats`] bit for bit).
    pub fn record_summary(&mut self, summary: LoadSummary, n: usize) {
        let step = self.steps_seen;
        self.steps_seen += 1;
        if step < self.warmup {
            return;
        }
        let mean = summary.mean(n);
        if mean >= self.mean_floor {
            self.ratios.push(if mean > 0.0 {
                summary.max as f64 / mean
            } else {
                1.0
            });
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.ratios.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.ratios.is_empty()
    }

    /// Mean of the per-step `max/mean` ratios (1.0 when empty).
    pub fn mean_ratio(&self) -> f64 {
        if self.ratios.is_empty() {
            return 1.0;
        }
        self.ratios.iter().sum::<f64>() / self.ratios.len() as f64
    }

    /// Quantile `q ∈ [0, 1]` of the per-step `max/mean` ratios
    /// (nearest-rank; 1.0 when empty).
    pub fn ratio_quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
        if self.ratios.is_empty() {
            return 1.0;
        }
        let mut ratios = self.ratios.clone();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let idx = ((ratios.len() - 1) as f64 * q).round() as usize;
        ratios[idx]
    }

    /// Worst `max/mean` ratio retained (1.0 when empty).
    pub fn worst_ratio(&self) -> f64 {
        self.ratio_quantile(1.0)
    }

    /// Absorbs another recorder's retained samples (for aggregating
    /// across runs).
    pub fn merge(&mut self, other: &LoadRecorder) {
        self.ratios.extend_from_slice(&other.ratios);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_and_floor_are_respected() {
        let mut rec = LoadRecorder::new(2, 3.0);
        rec.record(&[100, 0]); // step 0: warm-up
        rec.record(&[100, 0]); // step 1: warm-up
        rec.record(&[1, 1]); // mean 1 < floor
        rec.record(&[10, 0]); // retained
        assert_eq!(rec.len(), 1);
        assert!((rec.mean_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_ordered() {
        let mut rec = LoadRecorder::new(0, 0.0);
        rec.record(&[4, 4]); // ratio 1
        rec.record(&[6, 2]); // ratio 1.5
        rec.record(&[8, 0]); // ratio 2
        assert!((rec.ratio_quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((rec.ratio_quantile(0.5) - 1.5).abs() < 1e-12);
        assert!((rec.worst_ratio() - 2.0).abs() < 1e-12);
        assert!(rec.ratio_quantile(0.5) <= rec.ratio_quantile(0.9));
    }

    #[test]
    fn empty_recorder_defaults() {
        let rec = LoadRecorder::new(0, 0.0);
        assert!(rec.is_empty());
        assert_eq!(rec.mean_ratio(), 1.0);
        assert_eq!(rec.worst_ratio(), 1.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LoadRecorder::new(0, 0.0);
        a.record(&[4, 4]);
        let mut b = LoadRecorder::new(0, 0.0);
        b.record(&[8, 0]);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!((a.worst_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_domain_checked() {
        LoadRecorder::new(0, 0.0).ratio_quantile(1.5);
    }

    #[test]
    fn record_summary_matches_record_on_every_ratio_statistic() {
        let snapshots: [&[u64]; 5] = [&[100, 0], &[1, 1], &[10, 0], &[7, 3], &[0, 0]];
        let mut dense = LoadRecorder::new(1, 3.0);
        let mut summarised = LoadRecorder::new(1, 3.0);
        for loads in snapshots {
            dense.record(loads);
            summarised.record_summary(LoadSummary::from_loads(loads), loads.len());
        }
        assert_eq!(dense.len(), summarised.len());
        assert_eq!(dense.mean_ratio(), summarised.mean_ratio());
        assert_eq!(dense.ratio_quantile(0.95), summarised.ratio_quantile(0.95));
        assert_eq!(dense.worst_ratio(), summarised.worst_ratio());
    }
}
