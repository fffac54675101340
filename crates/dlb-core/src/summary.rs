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
//! load itself lives; [`crate::RawCluster`] has no such record and uses
//! [`SummaryTracker`], which pairs the counts with a last-noted vector.
//!
//! `RawCluster`, whose whole step is tens of nanoseconds per
//! processor, builds its tracker on the first `load_summary()` call, so
//! unobserved runs pay a single `Option` check per load change;
//! `Cluster` counts from construction, where every load is the same
//! and the counts cost nothing to set up.

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
    pub fn new(loads: impl Iterator<Item = u64>) -> Self {
        let mut this = LoadCounts {
            counts: vec![0],
            in_dense: 0,
            lo: 0,
            hi: 0,
            overflow: BTreeMap::new(),
        };
        let mut n = 0usize;
        for l in loads {
            this.insert(l);
            n += 1;
        }
        assert!(
            u32::try_from(n).is_ok(),
            "per-load counters are 32 bits wide"
        );
        this
    }

    #[inline]
    fn insert(&mut self, l: u64) {
        if l < DENSE {
            let l = l as usize;
            if l >= self.counts.len() {
                self.counts.resize(l + 1, 0);
            }
            self.counts[l] += 1;
            self.in_dense += 1;
            self.lo = self.lo.min(l);
            self.hi = self.hi.max(l);
        } else {
            *self.overflow.entry(l).or_insert(0) += 1;
        }
    }

    #[inline]
    fn remove(&mut self, l: u64) {
        if l < DENSE {
            self.counts[l as usize] -= 1;
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
    pub fn shift(&mut self, old: u64, new: u64) {
        if old != new {
            self.remove(old);
            self.insert(new);
        }
    }

    /// Exact `(min, max)` of the counted loads; `(0, 0)` when nothing
    /// is counted.
    pub fn min_max(&mut self) -> (u64, u64) {
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

    /// Heap bytes held: the flat counters at capacity plus the map's
    /// entries (payload only; node headers are not visible from here).
    pub fn heap_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u32>()
            + self.overflow.len() * std::mem::size_of::<(u64, u32)>()
    }
}

/// [`LoadCounts`] over a plain load vector, remembering what it last
/// counted for each processor.
pub(crate) struct SummaryTracker {
    counts: LoadCounts,
    /// `seen[i]` is the load processor `i` is currently counted under.
    seen: Vec<u64>,
}

impl SummaryTracker {
    /// A tracker counting every processor's current load.
    pub fn new(loads: &[u64]) -> Self {
        SummaryTracker {
            counts: LoadCounts::new(loads.iter().copied()),
            seen: loads.to_vec(),
        }
    }

    /// Records that processor `i`'s load is now `load`.
    #[inline]
    pub fn note(&mut self, i: usize, load: u64) {
        let old = std::mem::replace(&mut self.seen[i], load);
        self.counts.shift(old, load);
    }

    /// Exact `(min, max)` of the noted loads.
    pub fn min_max(&mut self) -> (u64, u64) {
        self.counts.min_max()
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
            let mut tracker = SummaryTracker::new(&loads);
            assert_eq!(tracker.min_max(), scan(&loads));
            for round in 0..2000 {
                let i = rng.gen_range(0..loads.len());
                loads[i] = rng.gen_range(lo..hi);
                tracker.note(i, loads[i]);
                if round % 7 == 0 {
                    assert_eq!(tracker.min_max(), scan(&loads), "round {round}");
                }
            }
        }
    }

    #[test]
    fn repeated_queries_between_mutations_are_stable() {
        let mut tracker = SummaryTracker::new(&[5, 1, 9, 3]);
        assert_eq!(tracker.min_max(), (1, 9));
        assert_eq!(tracker.min_max(), (1, 9));
        tracker.note(2, 0);
        assert_eq!(tracker.min_max(), (0, 5));
        assert_eq!(tracker.min_max(), (0, 5));
    }

    #[test]
    fn extrema_cross_the_counting_range_in_both_directions() {
        let mut tracker = SummaryTracker::new(&[3, 4]);
        tracker.note(1, 70_000);
        assert_eq!(tracker.min_max(), (3, 70_000));
        tracker.note(0, 70_000);
        assert_eq!(tracker.min_max(), (70_000, 70_000));
        tracker.note(0, 80_000);
        assert_eq!(tracker.min_max(), (70_000, 80_000));
        tracker.note(0, 2);
        tracker.note(1, DENSE - 1);
        assert_eq!(tracker.min_max(), (2, DENSE - 1));
        assert_eq!(tracker.counts.overflow.len(), 0);
        assert_eq!(SummaryTracker::new(&[]).min_max(), (0, 0));
    }

    #[test]
    fn memory_follows_the_largest_load_not_the_change_count() {
        let mut tracker = SummaryTracker::new(&[0; 8]);
        for k in 0..100_000u64 {
            tracker.note((k % 8) as usize, k % 1000);
        }
        assert!(tracker.counts.heap_bytes() <= 4 * 2048);
    }
}
