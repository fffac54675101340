//! The common interface every balancing strategy implements (the full
//! algorithm, the practical variant and the baselines in
//! `dlb-baselines`), plus load-distribution statistics.

use crate::metrics::Metrics;
use dlb_json::{FromJson, Json, ToJson};

/// What a processor does in one global time step (§2: generate one packet,
/// consume one locally available packet, or do nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadEvent {
    /// Generate one work packet.
    Generate,
    /// Consume one locally available packet (skipped when none is held).
    Consume,
    /// Do nothing.
    Idle,
}

impl ToJson for LoadEvent {
    /// Single-letter encoding keeps serialised traces compact.
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                LoadEvent::Generate => "g",
                LoadEvent::Consume => "c",
                LoadEvent::Idle => "i",
            }
            .to_string(),
        )
    }
}

impl FromJson for LoadEvent {
    fn from_json(value: &Json) -> Result<Self, String> {
        match value.as_str() {
            Some("g") => Ok(LoadEvent::Generate),
            Some("c") => Ok(LoadEvent::Consume),
            Some("i") => Ok(LoadEvent::Idle),
            other => Err(format!("unknown load event {other:?}")),
        }
    }
}

/// A distributed load balancing strategy driven by per-processor events.
pub trait LoadBalancer {
    /// Number of processors.
    fn n(&self) -> usize;

    /// Current number of packets on each processor.
    fn loads(&self) -> Vec<u64>;

    /// Writes the current loads into a caller-owned buffer (cleared
    /// first).  The default delegates to [`LoadBalancer::loads`]; engines
    /// on the hot path override it to avoid the per-call allocation —
    /// per-step observers (quality curves, distribution snapshots) call
    /// this with one reusable buffer per run.
    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads());
    }

    /// Advances one global time step; `events[i]` is processor `i`'s
    /// action.  `events.len()` must equal [`LoadBalancer::n`].
    fn step(&mut self, events: &[LoadEvent]);

    /// Advances one global time step given only the *active* processors:
    /// `active` lists the `(processor, event)` pairs whose event is not
    /// [`LoadEvent::Idle`], sorted by ascending processor index with no
    /// duplicates.  Semantically identical to [`LoadBalancer::step`] on
    /// the densified vector (idle everywhere else) — the engines override
    /// it to walk only the active pairs, making an idle processor cost
    /// nothing.  The default densifies, which is correct for every
    /// balancer but O(n).
    fn step_sparse(&mut self, active: &[(usize, LoadEvent)]) {
        check_sparse_events(active, self.n());
        let mut events = vec![LoadEvent::Idle; self.n()];
        for &(i, ev) in active {
            events[i] = ev;
        }
        self.step(&events);
    }

    /// Sparse counterpart of [`LoadBalancer::step_masked`]: advances one
    /// step with only the active `(processor, event)` pairs under a crash
    /// mask.  `down` is full-length (`n`); `active` is sorted-unique as in
    /// [`LoadBalancer::step_sparse`].  The default densifies and
    /// delegates, so sparse and dense masked stepping agree byte for byte
    /// on any balancer.
    fn step_sparse_masked(&mut self, active: &[(usize, LoadEvent)], down: &[bool]) {
        assert_eq!(down.len(), self.n(), "mask length mismatch");
        check_sparse_events(active, self.n());
        let mut events = vec![LoadEvent::Idle; self.n()];
        for &(i, ev) in active {
            events[i] = ev;
        }
        self.step_masked(&events, down);
    }

    /// Advances one step under a crash mask: `down[i]` marks processor `i`
    /// as crashed for this step.  A crashed processor performs no event
    /// (its generate/consume is suppressed) and — for engines that
    /// override this — neither initiates balancing nor serves as a
    /// partner, so its load is frozen.  The default implementation only
    /// masks the events; it is correct for any balancer but does not stop
    /// down processors from being picked as partners.
    fn step_masked(&mut self, events: &[LoadEvent], down: &[bool]) {
        assert_eq!(events.len(), down.len(), "event/mask length mismatch");
        let masked: Vec<LoadEvent> = events
            .iter()
            .zip(down.iter())
            .map(|(&e, &d)| if d { LoadEvent::Idle } else { e })
            .collect();
        self.step(&masked);
    }

    /// Cheap summary of the current load distribution: exact min, max and
    /// total.  Per-step observers that only need these (the CLI recorder,
    /// `LoadSample` trace rows) call this instead of cloning the full
    /// O(n) load vector.  Takes `&mut self` so engines can maintain the
    /// answer incrementally (a count per load value, two counter updates
    /// per load change; the query advances a min and a max cursor); the
    /// default scans [`LoadBalancer::loads`], which is correct for every
    /// balancer but O(n).
    fn load_summary(&mut self) -> LoadSummary {
        LoadSummary::from_loads(&self.loads())
    }

    /// Activity counters accumulated so far.
    fn metrics(&self) -> &Metrics;

    /// Short human-readable strategy name for reports.
    fn name(&self) -> &'static str;

    /// Attaches a trace sink receiving structured balancing events.
    /// The default is a no-op so baselines without instrumentation
    /// still satisfy the trait; the SPAA'93 engines override it.
    fn set_trace_sink(&mut self, _sink: dlb_trace::SharedSink) {}

    /// Requests intra-step parallelism: balance operations drawn within
    /// one step are executed in conflict-free waves on up to `jobs`
    /// pooled workers.  Results, metrics and traces are bit-identical
    /// for every value (including 1 = fully sequential); the default is
    /// a no-op so strategies without a wave executor stay sequential.
    fn set_step_jobs(&mut self, _jobs: usize) {}

    /// Sets the minimum operation count at which the wave executor
    /// engages (see [`crate::wave`]): a step defers its operations only
    /// if the previous step drew at least this many, and a flush of
    /// fewer runs sequentially in trigger order (bit-identical — the
    /// waves reproduce exactly that order per processor), skipping wave
    /// planning and pool dispatch so `step_jobs > 1` never regresses
    /// tiny steps.  `0` forces waves for every flush.  The default is a
    /// no-op for strategies without a wave executor.
    fn set_wave_threshold(&mut self, _threshold: usize) {}
}

/// Default [`LoadBalancer::set_wave_threshold`] value: below this many
/// queued operations per flush, pool dispatch costs more than it saves.
pub const DEFAULT_WAVE_THRESHOLD: usize = 32;

/// Validates the [`LoadBalancer::step_sparse`] contract: indices
/// strictly ascending (hence unique) and in range.  O(active), called
/// by every engine implementation so a malformed list fails loudly
/// instead of silently diverging from the dense semantics.
pub fn check_sparse_events(active: &[(usize, LoadEvent)], n: usize) {
    let mut prev = None;
    for &(i, _) in active {
        assert!(i < n, "sparse event index {i} out of range (n = {n})");
        if let Some(p) = prev {
            assert!(p < i, "sparse events must be sorted by ascending processor");
        }
        prev = Some(i);
    }
}

/// Exact min/max/total of a load distribution, maintained incrementally
/// by the engines (see [`LoadBalancer::load_summary`]).  Mean is
/// `total / n`, so these three values carry everything the per-step
/// observers derive without touching the O(n) load vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSummary {
    /// Smallest per-processor load.
    pub min: u64,
    /// Largest per-processor load.
    pub max: u64,
    /// Sum of all loads.
    pub total: u64,
}

impl LoadSummary {
    /// Computes the summary by scanning a load snapshot.
    pub fn from_loads(loads: &[u64]) -> Self {
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut total = 0u64;
        for &l in loads {
            min = min.min(l);
            max = max.max(l);
            total += l;
        }
        if loads.is_empty() {
            min = 0;
        }
        LoadSummary { min, max, total }
    }

    /// Mean load over `n` processors (0.0 for `n == 0`).
    pub fn mean(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.total as f64 / n as f64
        }
    }
}

/// Summary statistics of a load distribution snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImbalanceStats {
    /// Smallest per-processor load.
    pub min: u64,
    /// Largest per-processor load.
    pub max: u64,
    /// Mean load.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// `max / mean` (1.0 for an empty or perfectly flat system).
    pub max_over_mean: f64,
}

/// Computes [`ImbalanceStats`] for a load snapshot.
pub fn imbalance_stats(loads: &[u64]) -> ImbalanceStats {
    if loads.is_empty() {
        return ImbalanceStats {
            min: 0,
            max: 0,
            mean: 0.0,
            std_dev: 0.0,
            max_over_mean: 1.0,
        };
    }
    let min = *loads.iter().min().expect("non-empty");
    let max = *loads.iter().max().expect("non-empty");
    let n = loads.len() as f64;
    let mean = loads.iter().map(|&x| x as f64).sum::<f64>() / n;
    let var = loads
        .iter()
        .map(|&x| (x as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let max_over_mean = if mean > 0.0 { max as f64 / mean } else { 1.0 };
    ImbalanceStats {
        min,
        max,
        mean,
        std_dev: var.sqrt(),
        max_over_mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_flat_distribution() {
        let s = imbalance_stats(&[5, 5, 5, 5]);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.std_dev, 0.0);
        assert!((s.max_over_mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_skewed_distribution() {
        let s = imbalance_stats(&[0, 10]);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 10);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 5.0).abs() < 1e-12);
        assert!((s.max_over_mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_empty_and_zero() {
        let empty = imbalance_stats(&[]);
        assert_eq!(empty.max, 0);
        let zeros = imbalance_stats(&[0, 0]);
        assert_eq!(zeros.max_over_mean, 1.0);
    }
}
