//! Table 1: borrow-machinery statistics as a function of the borrow
//! limit `C` (per-run averages over the §7 workload, `f = 1.1`, `δ = 1`).

use crate::parallel::par_map;
use crate::quality::paper_run;
use dlb_core::{LoadBalancer, Metrics, Params};

/// One row of Table 1.
///
/// Counters are *per-processor per-run* averages: dividing the run totals
/// by `n` reproduces the paper's magnitudes almost exactly (e.g. total
/// borrow ≈ 108, remote borrow ≈ 4 at `C = 4`), so that is evidently the
/// unit Table 1 uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Borrow limit `C`.
    pub c: usize,
    /// Borrowing operations ("total borrow").
    pub total_borrow: f64,
    /// Remote exchanges of markers against generator packets
    /// ("remote borrow").
    pub remote_borrow: f64,
    /// Invocations of the §4 reduce-borrow procedure ("borrow fail").
    pub borrow_fail: f64,
    /// Initiated decrease simulations ("decrease sim").
    pub decrease_sim: f64,
}

/// Computes one row of Table 1 — `params` carries `n`, `C` and the
/// exchange policy — over `jobs` workers (per-run metrics are reduced in
/// run-index order, so the row is identical for any `jobs`).
pub fn table1_row(
    params: Params,
    steps: usize,
    runs: usize,
    base_seed: u64,
    jobs: usize,
) -> Table1Row {
    let n = params.n();
    let per_run = table1_runs(params, steps, runs, base_seed, jobs);
    let mut acc = Table1Row {
        c: params.c_borrow(),
        total_borrow: 0.0,
        remote_borrow: 0.0,
        borrow_fail: 0.0,
        decrease_sim: 0.0,
    };
    for m in &per_run {
        acc.total_borrow += m.total_borrow as f64;
        acc.remote_borrow += m.remote_borrow as f64;
        acc.borrow_fail += m.borrow_fail as f64;
        acc.decrease_sim += m.decrease_sim as f64;
    }
    let scale = runs as f64 * n as f64;
    acc.total_borrow /= scale;
    acc.remote_borrow /= scale;
    acc.borrow_fail /= scale;
    acc.decrease_sim /= scale;
    acc
}

/// The metrics of each run behind [`table1_row`], in run order.
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

    /// The paper's `δ = 1`, `f = 1.1` with borrow limit `c`.
    fn params(n: usize, c: usize) -> Params {
        Params::new(n, 1, 1.1, c).expect("valid")
    }

    #[test]
    fn larger_c_reduces_remote_operations() {
        // Table 1's headline: total borrows stay roughly constant while
        // remote borrows / decrease sims collapse as C grows.
        let small_c = table1_row(params(16, 2), 200, 4, 11, 1);
        let large_c = table1_row(params(16, 16), 200, 4, 11, 1);
        assert!(small_c.total_borrow > 0.0);
        assert!(
            large_c.remote_borrow <= small_c.remote_borrow,
            "remote: C=2 {} vs C=16 {}",
            small_c.remote_borrow,
            large_c.remote_borrow
        );
        let rel_diff =
            (large_c.total_borrow - small_c.total_borrow).abs() / small_c.total_borrow.max(1.0);
        assert!(
            rel_diff < 0.6,
            "total borrow roughly stable: {small_c:?} vs {large_c:?}"
        );
    }
}
