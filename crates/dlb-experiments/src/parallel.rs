//! Deterministic parallel execution of independent Monte Carlo runs.
//!
//! The §7 experiments repeat every measurement over `runs` seeded runs;
//! the runs are independent, so they fan out across worker threads.  Two
//! invariants make the parallelism invisible to the results:
//!
//! 1. **In-order reduction** — [`par_map`] returns the per-run results
//!    in run-index order regardless of which worker finished first, so a
//!    caller folding them (including non-associative `f64` sums) gets
//!    bit-identical aggregates for every `jobs` value, including 1.
//! 2. **Hashed seed streams** — [`stream_seed`] derives the seed for
//!    each `(run, component)` pair through a SplitMix64 finaliser, so a
//!    run's workload, its balancer (or asynchronous network) and any
//!    fault injector on top draw from uncorrelated streams.  The previous
//!    `base_seed + run` scheme handed adjacent ChaCha seeds to adjacent
//!    runs *and* the same seed to the trace and the balancer of one run,
//!    which correlated the ensembles the experiments average over.
//!
//! [`par_map`] itself lives in the leaf crate [`dlb_pool`] (so crates
//! below this one can call it without a dependency cycle) and is
//! re-exported here with [`default_jobs`], the import path every
//! experiment uses.  Nested calls run inline, so `--jobs J` occupies at
//! most `J` threads however deep the fan-out nests.

use dlb_net::rng::splitmix64;
pub use dlb_pool::{default_jobs, par_map};

/// A component of one run that needs its own random stream.
///
/// Listing the consumers explicitly (instead of ad-hoc xor constants)
/// keeps any two components of the same run provably on different
/// streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamId {
    /// The workload generator (`paper_workload` and friends).
    Workload = 1,
    /// The balancer under test (cluster tie-breaking, partner choice),
    /// or the asynchronous network that runs the protocol.
    Balancer = 2,
    /// A fault injector layered on the run.
    Faults = 3,
}

/// Derives an independent seed for `(run, component)` from `base`.
///
/// Three chained [`splitmix64`] finalisation steps: adjacent runs, adjacent
/// components and adjacent base seeds all land on unrelated 64-bit
/// values (full avalanche), unlike the old `base.wrapping_add(run)`
/// scheme which seeded adjacent runs with adjacent integers and reused
/// one seed for several components.
pub fn stream_seed(base: u64, run: u64, component: StreamId) -> u64 {
    splitmix64(splitmix64(splitmix64(base).wrapping_add(run)).wrapping_add(component as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_are_pairwise_distinct() {
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 1, 2024, u64::MAX] {
            for run in 0..8 {
                for comp in [StreamId::Workload, StreamId::Balancer, StreamId::Faults] {
                    assert!(
                        seen.insert(stream_seed(base, run, comp)),
                        "collision at base={base} run={run} {comp:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_seed_avalanches_across_adjacent_runs() {
        // Adjacent runs must not produce adjacent seeds (the old bug).
        let a = stream_seed(7, 0, StreamId::Workload);
        let b = stream_seed(7, 1, StreamId::Workload);
        assert!(a.abs_diff(b) > 1 << 32, "{a} vs {b}");
        // And the two components of one run must differ likewise.
        let c = stream_seed(7, 0, StreamId::Balancer);
        assert!(a.abs_diff(c) > 1 << 32, "{a} vs {c}");
    }

    #[test]
    fn par_map_reexport_is_live() {
        // `par_map` lives in dlb-pool; the re-export is the path every
        // experiment imports.
        assert_eq!(par_map(4, 5, |i| i * 3), vec![0, 3, 6, 9, 12]);
        assert!(default_jobs() >= 1);
    }
}
