//! PR-4 optimization contract: the arena/active-list [`Cluster`] and the
//! candidate-caching [`SimpleCluster`] must be *bit-identical* to the
//! dense reference implementations retained in `dlb_core::reference` —
//! same RNG consumption, same loads, same metrics, same matrices, on
//! every reachable state.  These proptests drive both side by side on
//! random small instances and compare full state after every step.

use dlb_core::reference::{RefCluster, RefSimpleCluster};
use dlb_core::{
    Cluster, ExchangePolicy, LoadBalancer, LoadEvent, Params, SimpleCluster, TriggerTable,
};
use proptest::{prop_assert, prop_assert_eq, proptest};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Deterministic mixed workload: per-processor generate/consume/idle
/// draws from a seeded stream, biased by `phase` so runs visit both
/// load build-up and drain-down regimes.
fn events_at(rng: &mut ChaCha8Rng, n: usize, t: usize, steps: usize) -> Vec<LoadEvent> {
    let draining = t * 2 > steps;
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen();
            let (p_gen, p_con) = if draining { (0.2, 0.6) } else { (0.55, 0.3) };
            if x < p_gen {
                LoadEvent::Generate
            } else if x < p_gen + p_con {
                LoadEvent::Consume
            } else {
                LoadEvent::Idle
            }
        })
        .collect()
}

/// The initial load and trigger factor of a case: `pick < 3` is a small
/// load at `f`; otherwise every processor starts within four packets of
/// the end of the trigger table, at an `f` close enough to 1 that
/// triggers fire on both sides of it (lookup and fallback).
fn start(pick: u64, small_step: u64, f: f64, edge: u64) -> (u64, f64) {
    if pick < 3 {
        (pick * small_step, f)
    } else {
        (TriggerTable::LEN as u64 - 4 + edge, 1.004)
    }
}

proptest! {
    #[test]
    fn full_cluster_matches_reference_step_for_step(
        n_idx in 0usize..4,
        delta_idx in 0usize..2,
        c_idx in 0usize..3,
        aggressive in 0usize..2,
        initial in 0u64..6,
        edge in 0u64..=8,
        seed in 0u64..1_000_000,
    ) {
        let n = [2usize, 3, 5, 9][n_idx];
        let delta = [1usize, 2][delta_idx].min(n - 1);
        let c_borrow = [0usize, 2, 4][c_idx];
        let (initial, f) = start(initial, 5, 1.2, edge);
        let mut params = Params::new(n, delta, f, c_borrow).unwrap();
        if aggressive == 1 {
            params = params.with_exchange(ExchangePolicy::Aggressive);
        }
        let mut fast = Cluster::with_initial_load(params, seed, initial);
        let mut slow = RefCluster::with_initial_load(params, seed, initial);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let steps = 60;
        for t in 0..steps {
            let events = events_at(&mut ev_rng, n, t, steps);
            fast.step(&events);
            slow.step(&events);
            prop_assert_eq!(fast.loads(), slow.loads(), "loads diverged at step {}", t);
            prop_assert_eq!(fast.metrics(), slow.metrics(), "metrics diverged at step {}", t);
            for i in 0..n {
                for c in 0..n {
                    prop_assert_eq!(fast.d(i, c), slow.d(i, c), "d[{}][{}] at step {}", i, c, t);
                    prop_assert_eq!(fast.b(i, c), slow.b(i, c), "b[{}][{}] at step {}", i, c, t);
                }
            }
        }
        prop_assert!(fast.check_invariants().is_ok());
        prop_assert!(slow.check_invariants().is_ok());
    }

    #[test]
    fn simple_cluster_matches_reference_under_changing_masks(
        n_idx in 0usize..3,
        delta_idx in 0usize..2,
        initial in 0u64..6,
        edge in 0u64..=8,
        seed in 0u64..1_000_000,
    ) {
        let n = [3usize, 6, 10][n_idx];
        let delta = [1usize, 3][delta_idx].min(n - 1);
        let (initial, f) = start(initial, 10, 1.3, edge);
        let params = Params::new(n, delta, f, 4).unwrap();
        let mut fast = SimpleCluster::with_initial_load(params, seed, initial);
        let mut slow = RefSimpleCluster::with_initial_load(params, seed, initial);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let mut mask_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
        let steps = 80;
        let mut down = vec![false; n];
        for t in 0..steps {
            // Flip the mask every few steps so the cached candidate list
            // is exercised through rebuilds, including all-alive phases.
            if t % 7 == 0 {
                for f in down.iter_mut() {
                    *f = mask_rng.gen_bool(0.25);
                }
            }
            let events = events_at(&mut ev_rng, n, t, steps);
            fast.step_masked(&events, &down);
            slow.step_masked(&events, &down);
            prop_assert_eq!(fast.loads(), slow.loads(), "loads diverged at step {}", t);
            prop_assert_eq!(fast.metrics(), slow.metrics(), "metrics diverged at step {}", t);
        }
        prop_assert!(fast.check_invariants().is_ok());
        prop_assert!(slow.check_invariants().is_ok());
    }

    #[test]
    fn simple_cluster_matches_reference_unmasked(
        n_idx in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let n = [2usize, 5, 12][n_idx];
        let params = Params::paper_section7(n);
        let mut fast = SimpleCluster::new(params, seed);
        let mut slow = RefSimpleCluster::new(params, seed);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let steps = 100;
        for t in 0..steps {
            let events = events_at(&mut ev_rng, n, t, steps);
            fast.step(&events);
            slow.step(&events);
            prop_assert_eq!(fast.loads(), slow.loads(), "loads diverged at step {}", t);
            prop_assert_eq!(fast.metrics(), slow.metrics(), "metrics diverged at step {}", t);
        }
    }
}
