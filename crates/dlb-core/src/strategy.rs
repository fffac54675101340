//! The common interface every balancing strategy implements (the full
//! algorithm, the practical variant and the baselines in
//! `dlb-baselines`), plus load-distribution statistics.

use crate::metrics::Metrics;

/// What a processor does in one global time step (§2: generate one packet,
/// consume one locally available packet, or do nothing).
///
/// The discriminant is the step's change to the processor's load before
/// a consume is clamped at zero, the action encoding desim's tick reads,
/// so a `&[LoadEvent]` is handed to it as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(i8)]
pub enum LoadEvent {
    /// Generate one work packet.
    Generate = 1,
    /// Consume one locally available packet (skipped when none is held).
    Consume = -1,
    /// Do nothing.
    Idle = 0,
}

impl From<LoadEvent> for i8 {
    /// `1`, `-1` or `0`: the enum's discriminant.
    fn from(e: LoadEvent) -> i8 {
        e as i8
    }
}

/// One global time step's per-processor events, in the form the workload
/// produced them.  The arm is chosen by the workload, never by a flag: a
/// pattern that acts everywhere hands over its dense vector (1 byte per
/// processor, no indices), an event-driven one its active list (O(active)
/// however large `n` is).  Both mean the same step — an absent pair is
/// [`LoadEvent::Idle`], and idle reads nothing, writes nothing and
/// consumes no randomness — so every balancer answers both bit for bit.
#[derive(Debug, Clone, Copy)]
pub enum Events<'a> {
    /// `events[i]` is processor `i`'s action; the length must be `n`.
    Dense(&'a [LoadEvent]),
    /// The `(processor, event)` pairs of the processors that act, sorted
    /// by ascending processor index with no duplicates.
    Active(&'a [(usize, LoadEvent)]),
}

impl Events<'_> {
    /// Validates the step against an `n`-processor balancer — the one
    /// place the length, sortedness, range and mask-length rules are
    /// written — then calls `act(i, event)` in ascending order for every
    /// listed processor that is up.  A crashed processor performs no
    /// event, so it is simply not yielded.
    ///
    /// # Panics
    ///
    /// Panics on a dense vector or mask of the wrong length and on an
    /// active list that is unsorted, repeats or leaves `0..n`.
    #[inline]
    pub fn for_each_up(
        self,
        n: usize,
        down: Option<&[bool]>,
        mut act: impl FnMut(usize, LoadEvent),
    ) {
        self.for_each_up_ahead(n, down, |i, ev, _| act(i, ev));
    }

    /// [`Events::for_each_up`] that also hands `act` the listed pairs
    /// still to come after the current one — validated already, crashed
    /// processors included — so an engine can hint the memory of an
    /// upcoming event.  A dense vector passes an empty slice: its next
    /// processor is the next index, which the hardware guesses unaided.
    #[inline]
    pub(crate) fn for_each_up_ahead(
        self,
        n: usize,
        down: Option<&[bool]>,
        mut act: impl FnMut(usize, LoadEvent, &[(usize, LoadEvent)]),
    ) {
        match self {
            Events::Dense(events) => {
                assert_eq!(events.len(), n, "one event per processor");
                match down {
                    None => events
                        .iter()
                        .enumerate()
                        .for_each(|(i, &ev)| act(i, ev, &[])),
                    Some(down) => {
                        assert_eq!(events.len(), down.len(), "event/mask length mismatch");
                        for (i, (&ev, &d)) in events.iter().zip(down).enumerate() {
                            if !d {
                                act(i, ev, &[]);
                            }
                        }
                    }
                }
            }
            Events::Active(active) => {
                if let Some(down) = down {
                    assert_eq!(down.len(), n, "mask length mismatch");
                }
                let mut prev = None;
                for &(i, _) in active {
                    assert!(i < n, "sparse event index {i} out of range (n = {n})");
                    if let Some(p) = prev {
                        assert!(p < i, "sparse events must be sorted by ascending processor");
                    }
                    prev = Some(i);
                }
                for (k, &(i, ev)) in active.iter().enumerate() {
                    if down.is_none_or(|down| !down[i]) {
                        act(i, ev, &active[k + 1..]);
                    }
                }
            }
        }
    }
}

/// A distributed load balancing strategy driven by per-processor events.
///
/// An implementor writes two things: how it advances one step
/// ([`LoadBalancer::step_events`]) and how it reports its loads
/// ([`LoadBalancer::loads_into`]).  `step`, `step_masked`, `step_sparse`,
/// `step_sparse_masked` and `loads` are one-line spellings of those two
/// for callers that hold a concrete event form; no implementor overrides
/// them.
pub trait LoadBalancer {
    /// Number of processors.
    fn n(&self) -> usize;

    /// Writes the current number of packets on each processor into a
    /// caller-owned buffer (cleared first).  Per-step observers (quality
    /// curves, distribution snapshots) call this with one reusable buffer
    /// per run.
    fn loads_into(&self, out: &mut Vec<u64>);

    /// Current number of packets on each processor, freshly allocated.
    fn loads(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.loads_into(&mut out);
        out
    }

    /// Advances one global time step (§2): every processor listed in
    /// `events` generates one packet, consumes one locally available
    /// packet or idles, and a processor whose load moved by the factor
    /// `f` balances with `δ` partners.
    ///
    /// `down`, when given, is the full-length crash mask of this step:
    /// `down[i]` marks processor `i` as crashed.  A crashed processor
    /// performs no event, hence initiates no balancing, in every
    /// balancer.  Whether it can still be *drawn* differs: the raw-load
    /// engine ([`crate::RawCluster`] under every rule) and the topology
    /// rivals never pick it as a partner, so its load is frozen; the
    /// full model ([`crate::Cluster`]) draws partners from all `n` and
    /// balances a crashed processor like any other; the strawman
    /// baselines only suppress its event.
    ///
    /// Implementations walk the step through [`Events::for_each_up`],
    /// which validates it and makes an idle or crashed processor cost
    /// nothing, so dense and active input agree bit for bit.
    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>);

    /// [`LoadBalancer::step_events`] on a dense vector, nobody crashed.
    fn step(&mut self, events: &[LoadEvent]) {
        self.step_events(Events::Dense(events), None);
    }

    /// [`LoadBalancer::step_events`] on an active list, nobody crashed.
    fn step_sparse(&mut self, active: &[(usize, LoadEvent)]) {
        self.step_events(Events::Active(active), None);
    }

    /// [`LoadBalancer::step_events`] on an active list under a crash mask.
    fn step_sparse_masked(&mut self, active: &[(usize, LoadEvent)], down: &[bool]) {
        self.step_events(Events::Active(active), Some(down));
    }

    /// [`LoadBalancer::step_events`] on a dense vector under a crash mask.
    fn step_masked(&mut self, events: &[LoadEvent], down: &[bool]) {
        self.step_events(Events::Dense(events), Some(down));
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

    /// Does nothing, and no implementor overrides it: every balancer
    /// steps sequentially (DESIGN.md §9).  Its sole caller is
    /// `benchmark/src/replay.rs:207`; delete the two together.
    #[doc(hidden)]
    fn set_step_jobs(&mut self, _jobs: usize) {}
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

/// Summary statistics of a load distribution snapshot.  Public because
/// [`imbalance_stats`] returns it; callers read its fields, not its name.
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
///
/// Minimum, maximum and an integer total come from one pass.  While the
/// total stays below 2⁵³ every partial sum of the sequential `f64`
/// summation is an exactly representable integer, so `total as f64` *is*
/// that sum, bit for bit; at or above 2⁵³ the `f64` loop runs as
/// before.  The variance pass keeps its order, so `std_dev` stays
/// bit-identical to the four-pass body.
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
    let (mut min, mut max, mut total) = (u64::MAX, 0u64, 0u128);
    for &x in loads {
        min = min.min(x);
        max = max.max(x);
        total += u128::from(x);
    }
    let sum = if total < 1 << 53 {
        total as f64
    } else {
        loads.iter().map(|&x| x as f64).sum::<f64>()
    };
    let n = loads.len() as f64;
    let mean = sum / n;
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
    fn a_load_event_is_its_action() {
        let actions = [LoadEvent::Generate, LoadEvent::Consume, LoadEvent::Idle].map(i8::from);
        assert_eq!(actions, [1, -1, 0]);
        assert_eq!(std::mem::size_of::<LoadEvent>(), 1);
    }

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

    /// [`imbalance_stats`] as it was before its passes were fused: the
    /// oracle of `fused_stats_match_the_four_pass_body`.
    fn four_pass_stats(loads: &[u64]) -> ImbalanceStats {
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

    proptest::proptest! {
        /// All five fields, bit for bit — small loads, loads whose
        /// total crosses 2⁵³ (and 2⁶⁴), a single element, the empty
        /// slice.
        #[test]
        fn fused_stats_match_the_four_pass_body(
            small in proptest::collection::vec(0u64..5_000, 0..40),
            big in proptest::collection::vec(proptest::any::<u64>(), 0..6),
            shift in 0u32..64,
        ) {
            let mixed: Vec<u64> = small.iter().copied().chain(big.iter().map(|b| b >> shift)).collect();
            for loads in [&small[..], &mixed[..], &mixed[..mixed.len().min(1)]] {
                let (got, want) = (imbalance_stats(loads), four_pass_stats(loads));
                proptest::prop_assert_eq!((got.min, got.max), (want.min, want.max));
                proptest::prop_assert_eq!(got.mean.to_bits(), want.mean.to_bits());
                proptest::prop_assert_eq!(got.std_dev.to_bits(), want.std_dev.to_bits());
                proptest::prop_assert_eq!(
                    got.max_over_mean.to_bits(),
                    want.max_over_mean.to_bits()
                );
            }
        }
    }

    #[test]
    fn fused_stats_at_the_exactness_boundary() {
        let edge = 1u64 << 53;
        for loads in [
            vec![edge - 1],
            vec![edge - 2, 1],
            vec![edge - 1, 1],
            vec![edge, 1, 1, 1],
            vec![1, edge, 1],
            vec![u64::MAX, u64::MAX, 3],
        ] {
            let (got, want) = (imbalance_stats(&loads), four_pass_stats(&loads));
            assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "{loads:?}");
            assert_eq!(got.std_dev.to_bits(), want.std_dev.to_bits(), "{loads:?}");
            assert_eq!(got, want, "{loads:?}");
        }
    }
}
