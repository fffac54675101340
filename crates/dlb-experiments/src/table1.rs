//! Table 1: borrow-machinery statistics as a function of the borrow
//! limit `C` (per-run averages over the §7 workload, `f = 1.1`, `δ = 1`).

use crate::parallel::par_map;
use crate::quality::paper_run;
use dlb_core::{LoadBalancer, Metrics, Params};

/// The metrics of each run of the §7 workload at `params` — which
/// carries `n`, `C` and the exchange policy — in run order, over `jobs`
/// workers (identical for any `jobs`).
///
/// Table 1's counters are these totals *per processor per run*:
/// dividing the run totals by `n` reproduces the paper's magnitudes
/// almost exactly (e.g. total borrow ≈ 108, remote borrow ≈ 4 at
/// `C = 4`), so that is evidently the unit Table 1 uses.
pub fn table1_runs(
    params: Params,
    steps: usize,
    runs: usize,
    base_seed: u64,
    jobs: usize,
) -> Vec<Metrics> {
    par_map(jobs, runs, |r| {
        *paper_run(params, steps, base_seed, r, |_, _| {}).metrics()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(total borrow, remote borrow)` summed over 4 runs at n = 16 and
    /// the paper's `δ = 1`, `f = 1.1` with borrow limit `c`.
    fn borrows(c: usize) -> (u64, u64) {
        let params = Params::new(16, 1, 1.1, c).expect("valid");
        let runs = table1_runs(params, 200, 4, 11, 1);
        let sum = |get: fn(&Metrics) -> u64| runs.iter().map(get).sum();
        (sum(|m| m.total_borrow), sum(|m| m.remote_borrow))
    }

    #[test]
    fn larger_c_reduces_remote_operations() {
        // Table 1's headline: total borrows stay roughly constant while
        // remote borrows / decrease sims collapse as C grows.
        let (small_total, small_remote) = borrows(2);
        let (large_total, large_remote) = borrows(16);
        assert!(small_total > 0);
        assert!(
            large_remote <= small_remote,
            "remote: C=2 {small_remote} vs C=16 {large_remote}"
        );
        let rel_diff = small_total.abs_diff(large_total) as f64 / small_total as f64;
        assert!(
            rel_diff < 0.6,
            "total borrow roughly stable: {small_total} vs {large_total}"
        );
    }
}
