//! Exact min/max of a load vector from a count per load value.
//!
//! Per-step observers (the CLI recorder, `LoadSample` trace rows) need
//! only min/max/total, but [`crate::strategy::LoadBalancer::loads`]
//! hands them an O(n) clone per step — at n ≥ 2¹⁸ the observer
//! dominates the simulation.  [`LoadCounts`] keeps the *multiset* of
//! current loads instead: `counts[l]` processors hold exactly `l`
//! packets.  A load change `old → new` is two counter updates
//! ([`LoadCounts::shift`]), nothing is ever stale, and the extrema are
//! the lowest and highest non-zero counters.
//!
//! Loads below [`DENSE`] — the common range — are
//! counted in a flat vector grown to the largest load seen, so memory is
//! O(max load), independent of n.  Two cursors bracket its non-zero
//! range: an insert pulls them outwards in O(1), and a query walks them
//! inwards over counters that have since emptied.  Loads move by one
//! packet per event and by a group average per balance, so between two
//! queries the walk is a few slots; its worst case is the counting
//! range, never n.  Larger loads (a test's initial load of 70 000, an
//! adversarial generator) go to an ordered map, whose first and last
//! keys are their extrema.
//!
//! The caller supplies `old`.  [`crate::Cluster`] keeps each
//! processor's last-noted load in the processor's own record, where the
//! load itself lives; [`crate::RawCluster`] shifts the counts where it
//! writes a load, with the old value in hand.
//!
//! The counts follow the form of the step.  `RawCluster`, whose whole
//! step is tens of nanoseconds per processor, keeps them only across
//! active-list steps.  A dense step walks all n processors anyway, so
//! it drops them, and `load_summary()` after it is one scan of the
//! contiguous `loads` (≈ 2.5 % of a `simple_sweep` run, where the
//! shifts took 15.4 %).  The first active-list step after a dense one
//! rebuilds them, once, in O(n); from then on a step costs O(active)
//! and a query a few cursor moves.  Any workload in the dense form pays
//! the scan per queried step, whatever its activity: a plain
//! `Workload` (a `UniformRandom` with small `p_gen + p_con`, a phase
//! workload in an idle phase) hands over `Events::Dense` every step.
//! The step already walks all n events, so the scan stays in
//! proportion; the worst case is `--dense` on a workload that could
//! have listed its few active processors (n = 2²⁰ under `simple`,
//! +9 %).  `Cluster` counts from
//! construction, where every load is the same and the counts cost
//! nothing to set up, under both forms: its scan would read a 128-byte
//! record per processor, and at n = 2²⁰ the dense run took 2.3× as
//! long with it.

use std::collections::BTreeMap;

/// Loads below this are counted in the flat vector, the rest in the
/// ordered map.
const DENSE: u64 = 1 << 16;

/// The multiset of a load vector's values (see module docs).
pub(crate) struct LoadCounts {
    /// `counts[l]` = processors whose load is `l`, for `l < DENSE`.
    counts: Vec<u32>,
    /// Processors counted in `counts`.
    in_dense: usize,
    /// `lo ≤` every non-zero index of `counts` `≤ hi`, and
    /// `hi < counts.len()`.
    lo: usize,
    hi: usize,
    /// Count per load `≥ DENSE`; no zero entries.
    overflow: BTreeMap<u64, u32>,
}

impl LoadCounts {
    /// The multiset of `loads`.
    pub(crate) fn new(loads: impl Iterator<Item = u64>) -> Self {
        let mut this = LoadCounts {
            counts: vec![0],
            in_dense: 0,
            lo: 0,
            hi: 0,
            overflow: BTreeMap::new(),
        };
        let mut n = 0usize;
        for l in loads {
            this.insert(l, 1);
            n += 1;
        }
        assert!(
            u32::try_from(n).is_ok(),
            "per-load counters are 32 bits wide"
        );
        this
    }

    /// The multiset of `n` loads that all equal `load`, in O(1) of `n`:
    /// what `new` counts one by one.
    pub(crate) fn uniform(n: usize, load: u64) -> Self {
        let n = u32::try_from(n).expect("per-load counters are 32 bits wide");
        let mut this = LoadCounts::new(std::iter::empty());
        if n > 0 {
            this.insert(load, n);
        }
        this
    }

    /// Counts `k > 0` more processors at load `l`.
    #[inline]
    fn insert(&mut self, l: u64, k: u32) {
        if l < DENSE {
            // Below `DENSE`.
            #[allow(clippy::cast_possible_truncation)]
            let l = l as usize;
            if l >= self.counts.len() {
                self.counts.resize(l + 1, 0);
            }
            self.counts[l] += k;
            self.in_dense += k as usize;
            self.lo = self.lo.min(l);
            self.hi = self.hi.max(l);
        } else {
            *self.overflow.entry(l).or_insert(0) += k;
        }
    }

    #[inline]
    fn remove(&mut self, l: u64) {
        if l < DENSE {
            // Below `DENSE`.
            #[allow(clippy::cast_possible_truncation)]
            let l = l as usize;
            self.counts[l] -= 1;
            self.in_dense -= 1;
        } else {
            let count = self.overflow.get_mut(&l).expect("removed load was counted");
            *count -= 1;
            if *count == 0 {
                self.overflow.remove(&l);
            }
        }
    }

    /// One processor's load changed from `old` to `new`.
    #[inline]
    pub(crate) fn shift(&mut self, old: u64, new: u64) {
        // The common case: both loads inside the flat counters (which
        // never grow past `DENSE` slots), so one count moves and nothing
        // is resized.
        let len = self.counts.len() as u64;
        if old < len && new < len {
            // Both below `len ≤ DENSE`.
            #[allow(clippy::cast_possible_truncation)]
            let (old, new) = (old as usize, new as usize);
            self.counts[old] -= 1;
            self.counts[new] += 1;
            self.lo = self.lo.min(new);
            self.hi = self.hi.max(new);
        } else if old != new {
            self.remove(old);
            self.insert(new, 1);
        }
    }

    /// Exact `(min, max)` of the counted loads; `(0, 0)` when nothing
    /// is counted.
    pub(crate) fn min_max(&mut self) -> (u64, u64) {
        let dense = (self.in_dense > 0).then(|| {
            while self.counts[self.lo] == 0 {
                self.lo += 1;
            }
            while self.counts[self.hi] == 0 {
                self.hi -= 1;
            }
            (self.lo as u64, self.hi as u64)
        });
        // Every overflow load exceeds every dense one.
        let over_min = self.overflow.first_key_value().map(|(&l, _)| l);
        let over_max = self.overflow.last_key_value().map(|(&l, _)| l);
        let min = dense.map(|d| d.0).or(over_min);
        let max = over_max.or(dense.map(|d| d.1));
        (min.unwrap_or(0), max.unwrap_or(0))
    }

    /// Checks that these are the counts of `loads` and that the cursors
    /// bracket every non-zero counter; returns the first violation.
    pub(crate) fn check(&self, loads: impl Iterator<Item = u64>) -> Result<(), String> {
        let recount = LoadCounts::new(loads);
        let trimmed = |c: &[u32]| c.len() - c.iter().rev().take_while(|&&k| k == 0).count();
        let (mine, theirs) = (
            &self.counts[..trimmed(&self.counts)],
            &recount.counts[..trimmed(&recount.counts)],
        );
        if mine != theirs || self.overflow != recount.overflow || self.in_dense != recount.in_dense
        {
            return Err("load summary counts are not the loads' counts".into());
        }
        let outside = mine
            .iter()
            .enumerate()
            .any(|(l, &k)| k > 0 && !(self.lo..=self.hi).contains(&l));
        if outside || self.hi >= self.counts.len() {
            return Err(format!(
                "load summary cursors [{}, {}] miss a counted load",
                self.lo, self.hi
            ));
        }
        Ok(())
    }

    /// Heap bytes held: the flat counters at capacity plus the map's
    /// entries (payload only; node headers are not visible from here).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u32>()
            + self.overflow.len() * std::mem::size_of::<(u64, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn scan(loads: &[u64]) -> (u64, u64) {
        (
            loads.iter().copied().min().unwrap_or(0),
            loads.iter().copied().max().unwrap_or(0),
        )
    }

    #[test]
    fn tracks_extrema_through_random_mutations() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // Ranges on both sides of the dense/overflow boundary, and a
        // vector that at times lives wholly on one side of it.
        for (lo, hi) in [(0, 100), (DENSE - 50, DENSE + 50), (DENSE, DENSE + 9)] {
            let mut loads: Vec<u64> = (0..50).map(|_| rng.gen_range(lo..hi)).collect();
            let mut counts = LoadCounts::new(loads.iter().copied());
            assert_eq!(counts.min_max(), scan(&loads));
            for round in 0..2000 {
                let i = rng.gen_range(0..loads.len());
                let old = std::mem::replace(&mut loads[i], rng.gen_range(lo..hi));
                counts.shift(old, loads[i]);
                if round % 7 == 0 {
                    assert_eq!(counts.min_max(), scan(&loads), "round {round}");
                    counts.check(loads.iter().copied()).unwrap();
                }
            }
        }
    }

    #[test]
    fn repeated_queries_between_mutations_are_stable() {
        let mut counts = LoadCounts::new([5, 1, 9, 3].into_iter());
        assert_eq!(counts.min_max(), (1, 9));
        assert_eq!(counts.min_max(), (1, 9));
        counts.shift(9, 0);
        assert_eq!(counts.min_max(), (0, 5));
        assert_eq!(counts.min_max(), (0, 5));
        counts.check([5, 1, 0, 3].into_iter()).unwrap();
    }

    #[test]
    fn extrema_cross_the_counting_range_in_both_directions() {
        let mut counts = LoadCounts::new([3, 4].into_iter());
        counts.shift(4, 70_000);
        assert_eq!(counts.min_max(), (3, 70_000));
        counts.shift(3, 70_000);
        assert_eq!(counts.min_max(), (70_000, 70_000));
        counts.shift(70_000, 80_000);
        assert_eq!(counts.min_max(), (70_000, 80_000));
        counts.shift(80_000, 2);
        counts.shift(70_000, DENSE - 1);
        assert_eq!(counts.min_max(), (2, DENSE - 1));
        assert_eq!(counts.overflow.len(), 0);
        counts.check([2, DENSE - 1].into_iter()).unwrap();
        assert_eq!(LoadCounts::new(std::iter::empty()).min_max(), (0, 0));
    }

    #[test]
    fn memory_follows_the_largest_load_not_the_change_count() {
        let mut loads = [0u64; 8];
        let mut counts = LoadCounts::new(loads.iter().copied());
        for k in 0..100_000u64 {
            let slot = &mut loads[(k % 8) as usize];
            counts.shift(std::mem::replace(slot, k % 1000), k % 1000);
        }
        assert!(counts.heap_bytes() <= 4 * 2048);
    }

    #[test]
    fn a_uniform_start_is_the_counts_of_its_loads() {
        for (n, load) in [
            (0, 0),
            (1, 0),
            (5, 0),
            (5, 3),
            (7, DENSE - 1),
            (7, DENSE),
            (3, u64::MAX),
        ] {
            let mut quick = LoadCounts::uniform(n, load);
            let mut slow = LoadCounts::new(std::iter::repeat_n(load, n));
            quick.check(std::iter::repeat_n(load, n)).unwrap();
            assert_eq!(quick.heap_bytes(), slow.heap_bytes());
            assert_eq!(quick.min_max(), slow.min_max(), "n = {n}, load = {load}");
            if n > 0 {
                quick.shift(load, 2);
                slow.shift(load, 2);
                assert_eq!(quick.min_max(), slow.min_max(), "n = {n}, one {load} → 2");
            }
        }
    }

    #[test]
    fn check_names_a_stale_count() {
        let mut counts = LoadCounts::new([1, 2, DENSE + 1].into_iter());
        counts.check([2, DENSE + 1, 1].into_iter()).unwrap();
        assert!(counts.check([1, 3, DENSE + 1].into_iter()).is_err());
        assert!(counts.check([1, 2, DENSE + 2].into_iter()).is_err());
        counts.shift(2, 3);
        assert!(counts.check([1, 2, DENSE + 1].into_iter()).is_err());
        counts.check([1, 3, DENSE + 1].into_iter()).unwrap();
    }
}
