//! PR-9 sparse-engine contract: the compressed-row [`Cluster`] must be
//! *bit-identical* to the naive [`RefCluster`] oracle — same RNG
//! consumption, same loads, same metrics, same full `d`/`b` matrices on
//! every reachable state and under crash masks.  These proptests drive
//! both side by side on random small instances and compare full state
//! after every step, mirroring the PR-4 `opt_equivalence` suite one
//! engine generation later.  The oracle emits no trace, so the trace
//! stream is checked the other way round: what it records must add up
//! to the oracle's counters.

use dlb_core::reference::RefCluster;
use dlb_core::{Cluster, ExchangePolicy, LoadBalancer, LoadEvent, Metrics, Params};
use dlb_trace::TraceEvent;
use proptest::{prop_assert, prop_assert_eq, proptest, TestCaseError};
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

/// Drives engine and oracle side by side for `steps` steps of
/// [`events_at`], comparing loads, metrics and every `d`/`b` entry after
/// each.
fn check_step_for_step(
    params: Params,
    seed: u64,
    initial: u64,
    steps: usize,
) -> Result<(), TestCaseError> {
    let n = params.n();
    let mut sparse = Cluster::with_initial_load(params, seed, initial);
    let mut oracle = RefCluster::with_initial_load(params, seed, initial);
    let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    for t in 0..steps {
        let events = events_at(&mut ev_rng, n, t, steps);
        sparse.step(&events);
        oracle.step(&events);
        prop_assert_eq!(
            sparse.loads(),
            oracle.loads(),
            "loads diverged at step {}",
            t
        );
        prop_assert_eq!(
            sparse.metrics(),
            oracle.metrics(),
            "metrics diverged at step {}",
            t
        );
        for i in 0..n {
            let (active_d, active_b) = sparse.active_classes(i);
            let mut seen_d = 0usize;
            let mut seen_b = 0usize;
            for c in 0..n {
                let d = sparse.d(i, c);
                let b = sparse.b(i, c);
                prop_assert_eq!(d, oracle.d(i, c), "d[{}][{}] at step {}", i, c, t);
                prop_assert_eq!(b, oracle.b(i, c), "b[{}][{}] at step {}", i, c, t);
                seen_d += (d > 0) as usize;
                seen_b += (b > 0) as usize;
            }
            prop_assert_eq!(active_d, seen_d, "active d count of {} at step {}", i, t);
            prop_assert_eq!(active_b, seen_b, "active b count of {} at step {}", i, t);
        }
    }
    prop_assert!(sparse.check_invariants().is_ok());
    prop_assert!(oracle.check_invariants().is_ok());
    // The compressed representation can never exceed two dense
    // matrices plus the fixed per-processor vectors by construction;
    // at small n this is a smoke check, at large n the point.
    prop_assert!(sparse.state_bytes() > 0);
    Ok(())
}

/// `Params` accepts any δ < n, and so must both engines: groups of more
/// than 64 used to overrun a fixed-size scratch and panic at the first
/// trigger.
#[test]
fn groups_wider_than_64_match_the_reference() {
    let params = Params::new(80, 70, 1.1, 4).unwrap();
    check_step_for_step(params, 42, 0, 30).unwrap();
}

proptest! {
    #[test]
    fn sparse_matches_reference_step_for_step(
        n_idx in 0usize..4,
        delta_idx in 0usize..5,
        c_idx in 0usize..3,
        aggressive in 0usize..2,
        initial in 0u64..3,
        seed in 0u64..1_000_000,
    ) {
        let n = [2usize, 3, 5, 9][n_idx];
        let delta = [1usize, 2, 3, 5, n - 1][delta_idx].min(n - 1);
        let c_borrow = [0usize, 2, 4][c_idx];
        let mut params = Params::new(n, delta, 1.2, c_borrow).unwrap();
        if aggressive == 1 {
            params = params.with_exchange(ExchangePolicy::Aggressive);
        }
        check_step_for_step(params, seed, initial * 5, 60)?;
    }

    #[test]
    fn sparse_matches_reference_under_crash_masks(
        n_idx in 0usize..3,
        delta_idx in 0usize..5,
        initial in 0u64..3,
        seed in 0u64..1_000_000,
    ) {
        let n = [3usize, 6, 10][n_idx];
        let delta = [1usize, 2, 3, 5, n - 1][delta_idx].min(n - 1);
        let params = Params::new(n, delta, 1.3, 4).unwrap();
        let initial = initial * 10;
        let mut sparse = Cluster::with_initial_load(params, seed, initial);
        let mut oracle = RefCluster::with_initial_load(params, seed, initial);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let mut mask_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
        let steps = 80;
        let mut down = vec![false; n];
        for t in 0..steps {
            // Flip the mask every few steps so runs mix crashed and
            // all-alive phases.
            if t % 7 == 0 {
                for f in down.iter_mut() {
                    *f = mask_rng.gen_bool(0.25);
                }
            }
            let events = events_at(&mut ev_rng, n, t, steps);
            sparse.step_masked(&events, &down);
            // The oracle has no mask entry point; apply the exact
            // event-masking rule the trait default uses, which the
            // engine's filtering `step_masked` must agree with.
            let masked: Vec<LoadEvent> = events
                .iter()
                .zip(down.iter())
                .map(|(&e, &d)| if d { LoadEvent::Idle } else { e })
                .collect();
            oracle.step(&masked);
            prop_assert_eq!(sparse.loads(), oracle.loads(), "loads diverged at step {}", t);
            prop_assert_eq!(sparse.metrics(), oracle.metrics(), "metrics diverged at step {}", t);
        }
        prop_assert!(sparse.check_invariants().is_ok());
        prop_assert!(oracle.check_invariants().is_ok());
    }

    #[test]
    fn trace_reconstructs_reference_metrics(
        n_idx in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let n = [3usize, 5, 9][n_idx];
        let params = Params::paper_section7(n);
        let steps = 50;
        let mut sparse = Cluster::new(params, seed);
        let buf = dlb_trace::BufferSink::new();
        sparse.set_trace_sink(buf.handle());
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        for t in 0..steps {
            sparse.step(&events_at(&mut ev_rng, n, t, steps));
        }
        let events = buf.take();
        prop_assert!(
            !events.is_empty(),
            "workload must actually trigger balancing for the check to bite"
        );

        let mut oracle = RefCluster::new(params, seed);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        for t in 0..steps {
            oracle.step(&events_at(&mut ev_rng, n, t, steps));
        }
        let mut replayed = Metrics::new();
        let mut balances = 0u64;
        let mut migrated = 0u64;
        for ev in &events {
            match ev {
                TraceEvent::StepDelta { counters, .. } => {
                    for (name, inc) in counters {
                        replayed.add_named(name, *inc).unwrap();
                    }
                }
                TraceEvent::BalanceInitiated { .. } => balances += 1,
                TraceEvent::PacketsMigrated { count, .. } => migrated += count,
                _ => {}
            }
        }
        prop_assert_eq!(&replayed, oracle.metrics(), "summed StepDeltas");
        prop_assert_eq!(balances, oracle.metrics().balance_ops);
        prop_assert_eq!(migrated, oracle.metrics().packets_migrated);
    }
}
