//! The symmetric travelling salesman problem — the application of the
//! paper's companion work [8] ("Efficient Parallelization of a Branch &
//! Bound Algorithm for the Symmetric TSP").
//!
//! Nodes are partial tours starting at city 0; the admissible bound adds
//! half the sum of the cheapest incident edges of every unfinished city
//! to the accumulated cost.  A Held–Karp dynamic program
//! ([`Tsp::optimum_by_held_karp`]) verifies optimality in the tests.

use crate::solver::{Objective, Problem};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Distance scaling: coordinates in `[0, 1)`, distances in milli-units.
pub const SCALE: f64 = 1_000.0;

/// A symmetric TSP instance on `n ≤ 31` cities.
#[derive(Debug, Clone)]
pub struct Tsp {
    dist: Vec<Vec<u64>>,
    /// Cheapest edge incident to each city (for the bound).
    min_edge: Vec<u64>,
}

/// A partial tour starting at city 0.
#[derive(Debug, Clone)]
pub struct TourNode {
    /// Bitmask of visited cities (bit 0 always set).
    pub visited: u32,
    /// Current city.
    pub last: u8,
    /// Accumulated scaled cost.
    pub cost: u64,
}

impl Tsp {
    /// An instance from an explicit symmetric distance matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty, non-square, asymmetric, has a
    /// non-zero diagonal, or exceeds 31 cities (the visited bitmask).
    pub fn new(dist: Vec<Vec<u64>>) -> Self {
        let n = dist.len();
        assert!((2..=31).contains(&n), "need 2..=31 cities");
        for (i, row) in dist.iter().enumerate() {
            assert_eq!(row.len(), n, "matrix must be square");
            assert_eq!(row[i], 0, "zero diagonal");
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, dist[j][i], "matrix must be symmetric");
            }
        }
        let min_edge = (0..n)
            .map(|v| {
                (0..n)
                    .filter(|&u| u != v)
                    .map(|u| dist[v][u])
                    .min()
                    .expect("n >= 2")
            })
            .collect();
        Tsp { dist, min_edge }
    }

    /// A random Euclidean instance with `n` cities.
    // A distance in the unit square is at most `√2 · SCALE`: the float
    // casts only drop the fraction.
    #[allow(clippy::cast_possible_truncation)]
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        let dist = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                        ((dx * dx + dy * dy).sqrt() * SCALE) as u64
                    })
                    .collect()
            })
            .collect();
        Tsp::new(dist)
    }

    /// Number of cities.
    pub fn n(&self) -> usize {
        self.dist.len()
    }

    /// Distance between two cities.
    pub fn distance(&self, a: usize, b: usize) -> u64 {
        self.dist[a][b]
    }

    /// Exact optimum via the Held–Karp subset DP (`O(2^n n²)`; verifier).
    pub fn optimum_by_held_karp(&self) -> u64 {
        let n = self.n();
        let full = 1u32 << n;
        let mut dp = vec![vec![u64::MAX; n]; full as usize];
        dp[1][0] = 0;
        for mask in 1..full {
            if mask & 1 == 0 {
                continue;
            }
            for last in 0..n {
                let cur = dp[mask as usize][last];
                if cur == u64::MAX || mask & (1 << last) == 0 {
                    continue;
                }
                for (next, d) in self.dist[last].iter().enumerate() {
                    if mask & (1 << next) != 0 {
                        continue;
                    }
                    let nm = (mask | (1 << next)) as usize;
                    let cand = cur + d;
                    if cand < dp[nm][next] {
                        dp[nm][next] = cand;
                    }
                }
            }
        }
        (1..n)
            .map(|last| dp[(full - 1) as usize][last].saturating_add(self.dist[last][0]))
            .min()
            .expect("n >= 2")
    }
}

impl Problem for Tsp {
    type Node = TourNode;

    fn objective(&self) -> Objective {
        Objective::Minimize
    }

    fn root(&self) -> TourNode {
        TourNode {
            visited: 1,
            last: 0,
            cost: 0,
        }
    }

    fn bound(&self, node: &TourNode) -> u64 {
        // cost so far + half the cheapest incident edge of every city
        // still needing both tour edges (unvisited cities and the two
        // open endpoints each need at least one more edge).
        let n = self.n();
        let mut half_sum = 0u64;
        for v in 0..n {
            if node.visited & (1 << v) == 0 || v == node.last as usize || v == 0 {
                half_sum += self.min_edge[v];
            }
        }
        node.cost + half_sum / 2
    }

    fn solution_value(&self, node: &TourNode) -> Option<u64> {
        (node.visited == (1u32 << self.n()) - 1)
            .then(|| node.cost + self.dist[node.last as usize][0])
    }

    // `next < n ≤ 31` (`Tsp::new`), so it fits the `u8`.
    #[allow(clippy::cast_possible_truncation)]
    fn branch(&self, node: &TourNode, out: &mut Vec<TourNode>) {
        for next in 1..self.n() {
            if node.visited & (1 << next) == 0 {
                out.push(TourNode {
                    visited: node.visited | (1 << next),
                    last: next as u8,
                    cost: node.cost + self.dist[node.last as usize][next],
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;

    #[test]
    fn matrix_validation() {
        let ok = Tsp::new(vec![vec![0, 2], vec![2, 0]]);
        assert_eq!(ok.n(), 2);
        let bad_sym = std::panic::catch_unwind(|| Tsp::new(vec![vec![0, 2], vec![3, 0]]));
        assert!(bad_sym.is_err(), "asymmetric rejected");
        let bad_diag = std::panic::catch_unwind(|| Tsp::new(vec![vec![1, 2], vec![2, 0]]));
        assert!(bad_diag.is_err(), "non-zero diagonal rejected");
    }

    #[test]
    fn square_instance_known_optimum() {
        // Four cities on a unit square: optimal tour = perimeter = 4.
        #[allow(clippy::cast_possible_truncation)] // at most √2 · SCALE
        let d = |x: f64| (x * SCALE) as u64;
        let tsp = Tsp::new(vec![
            vec![0, d(1.0), d(2f64.sqrt()), d(1.0)],
            vec![d(1.0), 0, d(1.0), d(2f64.sqrt())],
            vec![d(2f64.sqrt()), d(1.0), 0, d(1.0)],
            vec![d(1.0), d(2f64.sqrt()), d(1.0), 0],
        ]);
        let outcome = Solver::default().solve(&tsp);
        assert_eq!(outcome.best_value, Some(4 * d(1.0)));
        assert_eq!(tsp.optimum_by_held_karp(), 4 * d(1.0));
    }

    #[test]
    fn random_instances_match_held_karp() {
        for seed in 0..4 {
            let tsp = Tsp::random(10, seed);
            let outcome = Solver::with_workers(4).solve(&tsp);
            assert_eq!(
                outcome.best_value,
                Some(tsp.optimum_by_held_karp()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn bound_is_admissible_along_optimal_path() {
        // The bound at the root must not exceed the optimum.
        let tsp = Tsp::random(9, 7);
        let root_bound = tsp.bound(&tsp.root());
        assert!(root_bound <= tsp.optimum_by_held_karp());
    }

    #[test]
    fn parallel_solves_bigger_instance() {
        let tsp = Tsp::random(12, 3);
        let outcome = Solver::with_workers(8).solve(&tsp);
        assert_eq!(outcome.best_value, Some(tsp.optimum_by_held_karp()));
        assert!(outcome.pruned > 0, "bound pruning active");
    }
}
