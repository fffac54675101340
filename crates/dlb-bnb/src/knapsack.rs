//! 0/1 knapsack: a maximisation problem for the branch & bound driver,
//! with the classic fractional-relaxation upper bound and an exact
//! dynamic-programming verifier.

use crate::solver::{Objective, Problem};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A 0/1 knapsack instance (items sorted by value density at
/// construction, which makes the fractional bound tight).
#[derive(Debug, Clone)]
pub struct Knapsack {
    /// `(weight, value)` pairs, sorted by decreasing value/weight.
    items: Vec<(u64, u64)>,
    capacity: u64,
}

/// A partial selection over the density-sorted items.
#[derive(Debug, Clone)]
pub struct KnapsackNode {
    /// Next item index to decide.
    pub depth: usize,
    /// Weight used so far.
    pub weight: u64,
    /// Value collected so far.
    pub value: u64,
}

impl Knapsack {
    /// An instance from explicit items.
    ///
    /// # Panics
    ///
    /// Panics on empty item lists or zero-weight items.
    pub fn new(mut items: Vec<(u64, u64)>, capacity: u64) -> Self {
        assert!(!items.is_empty(), "need at least one item");
        assert!(
            items.iter().all(|&(w, _)| w > 0),
            "weights must be positive"
        );
        items.sort_by(|&(wa, va), &(wb, vb)| (vb * wa).cmp(&(va * wb)));
        Knapsack { items, capacity }
    }

    /// A random instance with `n` items and roughly half the total weight
    /// as capacity.
    pub fn random(n: usize, max_weight: u64, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let items: Vec<(u64, u64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(1..=max_weight),
                    rng.gen_range(1..=max_weight * 2),
                )
            })
            .collect();
        let capacity = items.iter().map(|&(w, _)| w).sum::<u64>() / 2;
        Knapsack::new(items, capacity)
    }

    /// Number of items.
    pub fn n(&self) -> usize {
        self.items.len()
    }

    /// Exact optimum via dynamic programming over capacities (verifier).
    pub fn optimum_by_dp(&self) -> u64 {
        let cap = usize::try_from(self.capacity).expect("the DP table fits in memory");
        let mut best = vec![0u64; cap + 1];
        for &(w, v) in &self.items {
            // Heavier than the whole capacity: the item never fits.
            let w = usize::try_from(w).unwrap_or(usize::MAX);
            for c in (w..=cap).rev() {
                best[c] = best[c].max(best[c - w] + v);
            }
        }
        best[cap]
    }

    /// Fractional-relaxation upper bound from a partial selection.
    fn fractional_bound(&self, node: &KnapsackNode) -> u64 {
        let mut value = node.value;
        let mut room = self.capacity - node.weight;
        for &(w, v) in &self.items[node.depth..] {
            if w <= room {
                room -= w;
                value += v;
            } else {
                // Take the fractional part (items are density-sorted).
                value += v * room / w;
                break;
            }
        }
        value
    }
}

impl Problem for Knapsack {
    type Node = KnapsackNode;

    fn objective(&self) -> Objective {
        Objective::Maximize
    }

    fn root(&self) -> KnapsackNode {
        KnapsackNode {
            depth: 0,
            weight: 0,
            value: 0,
        }
    }

    fn bound(&self, node: &KnapsackNode) -> u64 {
        self.fractional_bound(node)
    }

    fn solution_value(&self, node: &KnapsackNode) -> Option<u64> {
        (node.depth == self.items.len()).then_some(node.value)
    }

    fn branch(&self, node: &KnapsackNode, out: &mut Vec<KnapsackNode>) {
        let (w, v) = self.items[node.depth];
        // Skip the item ...
        out.push(KnapsackNode {
            depth: node.depth + 1,
            weight: node.weight,
            value: node.value,
        });
        // ... or take it, capacity permitting.
        if node.weight + w <= self.capacity {
            out.push(KnapsackNode {
                depth: node.depth + 1,
                weight: node.weight + w,
                value: node.value + v,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;

    #[test]
    fn hand_instance_exact() {
        // Items (w, v): capacity 10; optimum = 5+6 = 11 (weights 4+6).
        let ks = Knapsack::new(vec![(4, 5), (6, 6), (5, 5), (9, 9)], 10);
        let outcome = Solver::default().solve(&ks);
        assert_eq!(outcome.best_value, Some(11));
        assert_eq!(ks.optimum_by_dp(), 11);
    }

    #[test]
    fn random_instances_match_dp() {
        for seed in 0..5 {
            let ks = Knapsack::random(18, 40, seed);
            let outcome = Solver::with_workers(4).solve(&ks);
            assert_eq!(outcome.best_value, Some(ks.optimum_by_dp()), "seed {seed}");
        }
    }

    #[test]
    fn fractional_bound_admissible_at_root() {
        for seed in 0..5 {
            let ks = Knapsack::random(14, 30, seed);
            assert!(ks.bound(&ks.root()) >= ks.optimum_by_dp(), "seed {seed}");
        }
    }

    #[test]
    fn pruning_beats_exhaustive() {
        let ks = Knapsack::random(20, 40, 9);
        let outcome = Solver::default().solve(&ks);
        // Full tree would expand 2^21 − 1 nodes.
        assert!(
            outcome.expanded < (1 << 19),
            "expanded {}",
            outcome.expanded
        );
        assert!(outcome.pruned > 0);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_rejected() {
        Knapsack::new(vec![(0, 5)], 10);
    }
}
