//! Property-based tests (proptest) on the core invariants: the balance
//! primitive, the trigger predicates, the full cluster's structural
//! invariants under arbitrary event sequences, and the theory layer.

use dlb::core::balance::{distribute_capped, distribute_classes, even_shares, spread};
use dlb::core::batch::{step_batch, BatchEvent};
use dlb::core::{
    Cluster, ExchangePolicy, LoadBalancer, LoadEvent, LoadSummary, Params, SimpleCluster,
};
use dlb::faults::{CrashEvent, CrashMode, FaultPlan, PartitionEvent};
use dlb::net::{AsyncConfig, AsyncNetwork, PartnerMode, TopoCluster, TopoRule, Topology};
use dlb::theory::operators::{fix, fix_limit, g_op};
use proptest::prelude::*;

/// Steps `balancer` through `rows` under the crash mask `down` (lifted
/// every third step, so the crashed rejoin), alternating dense and
/// sparse masked stepping, and after every step holds the incremental
/// [`LoadBalancer::load_summary`] against a scan of the loads.
fn summary_tracks_scan<B: LoadBalancer>(
    mut balancer: B,
    down: &[bool],
    rows: &[Vec<u8>],
) -> Result<(), TestCaseError> {
    let n = balancer.n();
    for (t, row) in rows.iter().enumerate() {
        let events: Vec<LoadEvent> = (0..n)
            .map(|i| match row[i % row.len()] {
                0 => LoadEvent::Generate,
                1 => LoadEvent::Consume,
                _ => LoadEvent::Idle,
            })
            .collect();
        let mask = if t % 3 == 2 {
            vec![false; n]
        } else {
            down.to_vec()
        };
        if t % 2 == 0 {
            balancer.step_masked(&events, &mask);
        } else {
            let active: Vec<(usize, LoadEvent)> = events
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, e)| e != LoadEvent::Idle)
                .collect();
            balancer.step_sparse_masked(&active, &mask);
        }
        prop_assert_eq!(
            balancer.load_summary(),
            LoadSummary::from_loads(&balancer.loads()),
            "{} after step {}",
            balancer.name(),
            t
        );
    }
    Ok(())
}

proptest! {
    /// `even_shares` conserves the total, spreads ≤ 1 and is sorted
    /// descending (larger shares first).
    #[test]
    fn even_shares_properties(total in 0u64..10_000, m in 1usize..20) {
        let shares = even_shares(total, m);
        prop_assert_eq!(shares.iter().sum::<u64>(), total);
        prop_assert!(spread(&shares) <= 1);
        prop_assert!(shares.windows(2).all(|w| w[0] >= w[1]));
    }

    /// The snake distribution meets both appendix constraints for any
    /// class totals: per-class spread ≤ 1 and grand-total spread ≤ 1.
    #[test]
    fn distribute_classes_properties(
        totals in prop::collection::vec(0u64..500, 1..40),
        m in 1usize..9,
    ) {
        let mut running = vec![0u64; m];
        let out = distribute_classes(&totals, m, &mut running);
        for (j, shares) in out.iter().enumerate() {
            prop_assert_eq!(shares.iter().sum::<u64>(), totals[j]);
            prop_assert!(spread(shares) <= 1, "class {} spread {:?}", j, shares);
        }
        let grand: Vec<u64> = (0..m).map(|s| out.iter().map(|sh| sh[s]).sum()).collect();
        prop_assert!(spread(&grand) <= 1, "grand {:?}", grand);
        prop_assert_eq!(&grand, &running);
    }

    /// The capped distribution respects caps, conserves the total and is
    /// maximally even: a member can only lag another by 2+ if its cap is
    /// exhausted.
    #[test]
    fn distribute_capped_properties(caps in prop::collection::vec(0u64..20, 1..10), frac in 0.0f64..1.0) {
        let capacity: u64 = caps.iter().sum();
        let total = (capacity as f64 * frac) as u64;
        let out = distribute_capped(total, &caps);
        prop_assert_eq!(out.iter().sum::<u64>(), total);
        for (o, c) in out.iter().zip(caps.iter()) {
            prop_assert!(o <= c);
        }
        for a in 0..out.len() {
            for b in 0..out.len() {
                if out[a] + 1 < out[b] {
                    prop_assert_eq!(out[a], caps[a], "member {} starved below {} without cap", a, b);
                }
            }
        }
    }

    /// Grow and shrink triggers are mutually exclusive and fire exactly
    /// on the factor-f thresholds.
    #[test]
    fn triggers_exclusive(cur in 0u64..100_000, last in 0u64..100_000, f_scaled in 0u32..10) {
        let f = 1.0 + f_scaled as f64 / 10.0;
        let delta = 2usize;
        prop_assume!(f < delta as f64 + 1.0);
        let params = Params::new(8, delta, f, 4).unwrap();
        let grow = params.grow_triggered(cur, last);
        let shrink = params.shrink_triggered(cur, last);
        prop_assert!(!(grow && shrink));
        if grow { prop_assert!(cur > last); }
        if shrink { prop_assert!(cur < last); }
    }

    /// FIX is a fixed point of G, bounded by the Theorem 2 limit, and
    /// monotonically increasing in f.
    #[test]
    fn fix_properties(n in 3usize..2000, delta in 1usize..8, f_scaled in 0u32..80) {
        prop_assume!(delta < n);
        let f = 1.0 + f_scaled as f64 / 100.0;
        prop_assume!(f < delta as f64 + 1.0);
        let fx = fix(n, delta, f);
        prop_assert!(fx >= 1.0 - 1e-9);
        prop_assert!(fx <= fix_limit(delta, f) + 1e-9);
        prop_assert!((g_op(n, delta, f, fx) - fx).abs() < 1e-6 * fx.max(1.0));
        let f2 = f + 0.05;
        if f2 < delta as f64 + 1.0 {
            prop_assert!(fix(n, delta, f2) >= fx - 1e-9, "FIX monotone in f");
        }
    }

    /// The full cluster's structural invariants survive arbitrary event
    /// sequences, parameters and exchange policies.
    #[test]
    fn cluster_invariants_random_walk(
        seed in 0u64..1000,
        n in 3usize..9,
        delta_raw in 1usize..4,
        f_scaled in 0u32..8,
        c_borrow in 1usize..6,
        aggressive in any::<bool>(),
        steps in prop::collection::vec(prop::collection::vec(0u8..3, 3..9), 1..60),
    ) {
        let delta = delta_raw.min(n - 1);
        let f = 1.0 + f_scaled as f64 / 10.0;
        prop_assume!(f < delta as f64 + 1.0);
        let mut params = Params::new(n, delta, f, c_borrow).unwrap();
        if aggressive {
            params = params.with_exchange(ExchangePolicy::Aggressive);
        }
        let mut cluster = Cluster::new(params, seed);
        for row in &steps {
            let events: Vec<LoadEvent> = (0..n)
                .map(|i| match row[i % row.len()] {
                    0 => LoadEvent::Generate,
                    1 => LoadEvent::Consume,
                    _ => LoadEvent::Idle,
                })
                .collect();
            cluster.step(&events);
        }
        prop_assert!(cluster.check_invariants().is_ok(),
            "{:?}", cluster.check_invariants());
    }

    /// The exact moment recursion's mean ratio equals the operator
    /// iteration `G^t(1)` for arbitrary valid parameters.
    #[test]
    fn moments_match_operator(p in 2usize..40, delta_raw in 1usize..5, f_scaled in 0u32..8, t in 1usize..60) {
        let delta = delta_raw.min(p);
        let f = 1.0 + f_scaled as f64 / 10.0;
        prop_assume!(f < delta as f64 + 1.0);
        let n = p + 1;
        let algo = dlb::theory::AlgoParams::new(n, delta, f).unwrap();
        let mut st = dlb::theory::moments::MomentState::balanced(p, delta, f, 1.0);
        st.advance(t);
        let expected = algo.g_iter(1.0, t);
        prop_assert!((st.ratio() - expected).abs() < 1e-9 * expected);
    }

    /// Random circulant topologies are connected and undirected.
    #[test]
    fn circulant_topology_properties(n in 3usize..60, k in 1usize..4, seed in 0u64..100) {
        let topo = dlb::net::Topology::random_circulant(n, k, seed);
        prop_assert!(topo.is_connected());
        for v in 0..n {
            for u in topo.neighbors(v) {
                prop_assert!(u < n && u != v);
                prop_assert!(topo.neighbors(u).contains(&v));
            }
        }
    }

    /// Load is conserved by the simple cluster under arbitrary events.
    #[test]
    fn simple_cluster_conservation(
        seed in 0u64..500,
        events_code in prop::collection::vec(0u8..3, 30..300),
    ) {
        let n = 6;
        let params = Params::paper_section7(n);
        let mut cluster = SimpleCluster::new(params, seed);
        for chunk in events_code.chunks(n) {
            if chunk.len() < n { break; }
            let events: Vec<LoadEvent> = chunk.iter().map(|&c| match c {
                0 => LoadEvent::Generate,
                1 => LoadEvent::Consume,
                _ => LoadEvent::Idle,
            }).collect();
            cluster.step(&events);
        }
        prop_assert!(cluster.check_invariants().is_ok());
    }

    /// The asynchronous message protocol conserves packets and releases
    /// every lock for arbitrary action sequences, latencies and control
    /// losses.
    #[test]
    fn async_network_conserves_and_stays_live(
        seed in 0u64..200,
        latency in 1u64..12,
        loss_pct in 0u32..50,
        plan in prop::collection::vec(prop::collection::vec(-1i8..=1, 6), 5..60),
    ) {
        let n = 6;
        let params = Params::new(n, 2, 1.3, 4).unwrap();
        let mut cfg = AsyncConfig::reliable(params, latency, seed);
        cfg.control_loss = loss_pct as f64 / 100.0;
        let mut net = AsyncNetwork::new(cfg);
        for (t, row) in plan.iter().enumerate() {
            net.tick(t as u64, row);
        }
        net.quiesce();
        prop_assert!(net.check_conservation().is_ok(), "{:?}", net.check_conservation());
        prop_assert_eq!(net.locked_count(), 0);
        prop_assert_eq!(net.in_flight(), 0);
    }

    /// Extended conservation — `Σ loads + pooled + in_flight + lost =
    /// generated − consumed` — holds after every tick for *arbitrary*
    /// fault plans (loss on both message classes, duplication, jitter,
    /// crashes in both modes, partitions), so do the relations between
    /// the simulator's state arrays, and quiescence releases every lock
    /// and drains every message.
    #[test]
    fn arbitrary_fault_plans_conserve_and_unlock(
        seed in 0u64..200,
        fault_seed in 0u64..1000,
        latency in 1u64..8,
        loss_pct in 0u32..40,
        transfer_pct in 0u32..40,
        dup_pct in 0u32..30,
        jitter in 0u64..6,
        frozen in any::<bool>(),
        crashes_raw in prop::collection::vec((0u32..6, 0u64..150, 0u64..150), 0..3),
        partition_raw in prop::collection::vec((0u64..120, 1u64..80, 1u32..63), 0..2),
        rows in prop::collection::vec(prop::collection::vec(-1i8..=1, 6), 5..50),
    ) {
        let n = 6;
        let params = Params::new(n, 2, 1.3, 4).unwrap();
        let plan = FaultPlan {
            seed: fault_seed,
            loss: loss_pct as f64 / 100.0,
            transfer_loss: transfer_pct as f64 / 100.0,
            duplication: dup_pct as f64 / 100.0,
            jitter,
            crash_mode: if frozen { CrashMode::Frozen } else { CrashMode::Lost },
            // recover offset 0 encodes "never recovers".
            crashes: crashes_raw
                .iter()
                .map(|&(proc, at, rec)| CrashEvent {
                    proc: proc as usize,
                    at,
                    recover_at: (rec > 0).then_some(at + rec),
                })
                .collect(),
            partitions: partition_raw
                .iter()
                .map(|&(from, dur, bits)| PartitionEvent {
                    from,
                    until: from + dur,
                    group: (0..n).filter(|&p| bits >> p & 1 == 1).collect(),
                })
                .collect(),
        };
        prop_assume!(plan.validate(n).is_ok());
        let cfg = AsyncConfig::reliable(params, latency, seed);
        let mut net = AsyncNetwork::with_faults(cfg, plan).unwrap();
        for (t, row) in rows.iter().enumerate() {
            net.tick(t as u64, row);
            prop_assert!(net.check_conservation().is_ok(),
                "at tick {}: {:?}", t, net.check_conservation());
            prop_assert!(net.check_invariants().is_ok(),
                "at tick {}: {:?}", t, net.check_invariants());
        }
        net.quiesce();
        prop_assert!(net.check_conservation().is_ok(), "{:?}", net.check_conservation());
        prop_assert!(net.check_invariants().is_ok(), "{:?}", net.check_invariants());
        prop_assert_eq!(net.locked_count(), 0, "leaked lock after quiescence");
        prop_assert_eq!(net.in_flight(), 0);
    }

    /// The synchronous cluster under an arbitrary crash mask conserves
    /// load and freezes exactly the masked processors.
    #[test]
    fn masked_sync_cluster_conserves(
        seed in 0u64..200,
        mask_bits in 0u32..63,
        rows in prop::collection::vec(prop::collection::vec(0u8..3, 6), 5..60),
    ) {
        let n = 6;
        let params = Params::paper_section7(n);
        let mut cluster = SimpleCluster::with_initial_load(params, seed, 20);
        let down: Vec<bool> = (0..n).map(|p| mask_bits >> p & 1 == 1).collect();
        let frozen_loads: Vec<(usize, u64)> =
            (0..n).filter(|&p| down[p]).map(|p| (p, cluster.load(p))).collect();
        for row in &rows {
            let events: Vec<LoadEvent> = row
                .iter()
                .map(|&c| match c {
                    0 => LoadEvent::Generate,
                    1 => LoadEvent::Consume,
                    _ => LoadEvent::Idle,
                })
                .collect();
            cluster.step_masked(&events, &down);
        }
        prop_assert!(cluster.check_invariants().is_ok());
        for (p, load) in frozen_loads {
            prop_assert_eq!(cluster.load(p), load, "down processor {} drifted", p);
        }
    }

    /// The engines' incremental load observer agrees with a scan after
    /// every step: full model, practical variant and topology variant,
    /// under a crash mask, dense and sparse.  Initial loads sit well
    /// inside the observer's flat counting range (0, 3), astride its
    /// upper end at 2¹⁶ (so single packets carry the extrema across it
    /// in both directions) and beyond it (70 000); `f` barely above 1
    /// makes every event balance even at those loads.
    #[test]
    fn load_summary_matches_a_scan_after_every_step(
        seed in 0u64..500,
        pick in 0usize..5,
        near_one in any::<bool>(),
        mask_bits in 0u32..64,
        rows in prop::collection::vec(prop::collection::vec(0u8..3, 3..7), 1..40),
    ) {
        let n = 6;
        let initial = [0, 3, 65_533, 65_538, 70_000][pick];
        let f = if near_one { 1.000_01 } else { 1.1 };
        let params = Params::new(n, 2, f, 4).unwrap();
        let down: Vec<bool> = (0..n).map(|p| mask_bits >> p & 1 == 1).collect();
        summary_tracks_scan(Cluster::with_initial_load(params, seed, initial), &down, &rows)?;
        summary_tracks_scan(SimpleCluster::with_initial_load(params, seed, initial), &down, &rows)?;
        let ring = TopoRule::new(Topology::Ring { n }, PartnerMode::Neighbors);
        summary_tracks_scan(TopoCluster::with_rule(params, ring, seed), &down, &rows)?;
    }

    /// §2's batch decomposition: total generation equals the batch sum,
    /// consumption never exceeds it, and cluster invariants hold.
    #[test]
    fn batch_steps_decompose_correctly(
        seed in 0u64..100,
        batches in prop::collection::vec((0u32..4, 0u32..4), 5),
        rounds in 1usize..12,
    ) {
        let n = 5;
        let params = Params::paper_section7(n);
        let mut cluster = Cluster::new(params, seed);
        let events: Vec<BatchEvent> = batches
            .iter()
            .map(|&(g, c)| BatchEvent { generate: g, consume: c })
            .collect();
        for _ in 0..rounds {
            step_batch(&mut cluster, &events);
        }
        let total_gen: u64 =
            batches.iter().map(|&(g, _)| g as u64).sum::<u64>() * rounds as u64;
        prop_assert_eq!(cluster.metrics().generated, total_gen);
        prop_assert!(cluster.check_invariants().is_ok());
    }

    /// Snapshot/restore is the identity on behaviour for any prefix.
    #[test]
    fn snapshot_roundtrip_identity(
        seed in 0u64..100,
        prefix in prop::collection::vec(prop::collection::vec(0u8..3, 4), 1..30),
        suffix in prop::collection::vec(prop::collection::vec(0u8..3, 4), 1..20),
    ) {
        let n = 4;
        let params = Params::paper_section7(n);
        let mut original = Cluster::new(params, seed);
        let to_events = |row: &Vec<u8>| -> Vec<LoadEvent> {
            row.iter()
                .map(|&c| match c {
                    0 => LoadEvent::Generate,
                    1 => LoadEvent::Consume,
                    _ => LoadEvent::Idle,
                })
                .collect()
        };
        for row in &prefix {
            original.step(&to_events(row));
        }
        let snap = original.snapshot();
        let mut restored = Cluster::restore(&snap).unwrap();
        for row in &suffix {
            let ev = to_events(row);
            original.step(&ev);
            restored.step(&ev);
        }
        prop_assert_eq!(original.loads(), restored.loads());
        prop_assert_eq!(original.metrics(), restored.metrics());
    }
}
