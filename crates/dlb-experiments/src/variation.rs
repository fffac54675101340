//! Figure 6 data: variation density of a non-generating processor in the
//! one-processor-generator model, over balancing steps, for the paper's
//! parameter grid (`δ ∈ {1, 2, 4}`, `f ∈ {1.1, 1.2}`, processor counts
//! `∈ {2, 3, …, 10, 15, 20, 25, 30, 35}`, up to 150 steps).
//!
//! The curves come from the exact `O(t)` moment recursion of
//! `dlb-theory::moments` (cross-validated there against exhaustive
//! enumeration and Monte-Carlo); a Monte-Carlo column is included so the
//! binary's output shows both engines side by side.

use crate::parallel::par_map;
use dlb_theory::moments::{monte_carlo, vd_curve, Selection};

/// One Figure 6 curve.
#[derive(Debug, Clone)]
pub(crate) struct VdCurve {
    /// Neighbourhood size `δ`.
    pub delta: usize,
    /// Trigger factor `f`.
    pub f: f64,
    /// Number of processors `p` *excluding* the generator (the paper's
    /// processor counts are `p + 1`).
    pub p: usize,
    /// `VD(l_{i,t})` for `t = 0 ..= steps`.
    pub vd: Vec<f64>,
}

impl VdCurve {
    /// Converged (final) variation density.
    pub(crate) fn final_vd(&self) -> f64 {
        *self.vd.last().expect("non-empty curve")
    }
}

/// The processor counts of Figure 6.
pub(crate) fn paper_processor_counts() -> Vec<usize> {
    let mut counts: Vec<usize> = (2..=10).collect();
    counts.extend([15, 20, 25, 30, 35]);
    counts
}

/// Computes the full Figure 6 grid exactly, fanning the (feasible) grid
/// points out over `jobs` workers; the output order is the grid order
/// regardless of `jobs` (the recursion is exact, so the values are too).
pub(crate) fn figure6_curves(
    deltas: &[usize],
    fs: &[f64],
    procs: &[usize],
    steps: usize,
    jobs: usize,
) -> Vec<VdCurve> {
    let mut grid = Vec::new();
    for &delta in deltas {
        for &f in fs {
            for &n in procs {
                let p = n - 1; // paper counts include the generator
                if delta > p {
                    continue;
                }
                grid.push((delta, f, p));
            }
        }
    }
    par_map(jobs, grid.len(), |i| {
        let (delta, f, p) = grid[i];
        VdCurve {
            delta,
            f,
            p,
            vd: vd_curve(p, delta, f, steps),
        }
    })
}

/// Monte-Carlo check of one grid point: returns `(exact_vd, mc_vd)` after
/// `steps` balancing operations.
pub(crate) fn mc_crosscheck(
    delta: usize,
    f: f64,
    n: usize,
    steps: usize,
    runs: usize,
    seed: u64,
) -> (f64, f64) {
    let p = n - 1;
    let exact = vd_curve(p, delta, f, steps)[steps];
    let (_, _, _, mc) = monte_carlo(p, delta, f, steps, runs, seed, Selection::Subset);
    (exact, mc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_skips_infeasible_delta() {
        // δ = 4 needs at least 5 processors (p >= 4).
        let curves = figure6_curves(&[4], &[1.1], &[2, 3, 4, 5, 6], 10, 1);
        assert_eq!(curves.len(), 2, "only n = 5 and n = 6 are feasible");
        assert!(curves.iter().all(|c| c.p >= 4));
    }

    #[test]
    fn paper_grid_size() {
        let counts = paper_processor_counts();
        assert_eq!(counts.len(), 14);
        let curves = figure6_curves(&[1, 2, 4], &[1.1, 1.2], &counts, 150, 2);
        // δ=1: 14, δ=2: 13 (n=2 infeasible), δ=4: 11 (n=2,3,4 infeasible),
        // each × 2 values of f.
        assert_eq!(curves.len(), (14 + 13 + 11) * 2);
        for c in &curves {
            assert_eq!(c.vd.len(), 151);
            assert!(c.final_vd() >= 0.0 && c.final_vd() < 1.0, "{c:?}");
        }
    }

    #[test]
    fn parallel_grid_matches_sequential() {
        let counts = [2usize, 5, 10];
        let seq = figure6_curves(&[1, 2], &[1.1], &counts, 40, 1);
        let par = figure6_curves(&[1, 2], &[1.1], &counts, 40, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!((a.delta, a.p), (b.delta, b.p), "grid order preserved");
            assert_eq!(a.vd, b.vd);
        }
    }

    #[test]
    fn crosscheck_engines_agree() {
        let (exact, mc) = mc_crosscheck(2, 1.2, 10, 30, 30_000, 17);
        assert!((exact - mc).abs() < 0.03, "exact {exact} vs MC {mc}");
    }
}
