//! Cross-crate integration tests: the full algorithm, workloads,
//! baselines and theory bounds working together end to end.

use dlb::baselines::{NoBalance, RandomScatter, Rsu91};
use dlb::core::{
    imbalance_stats, Cluster, ExchangePolicy, LoadBalancer, LoadEvent, Params, SimpleCluster,
    WeightedCluster,
};
use dlb::net::{PartnerMode, TopoCluster, TopoRule, Topology};
use dlb::theory::claims::{self, Observation};
use dlb::workload::patterns::{MovingHotspot, ProducerConsumerSplit};
use dlb::workload::phase::PhaseWorkload;
use dlb::workload::trace::EventTrace;
use dlb::workload::{drive, Workload};

/// The paper's §7 experiment end to end: 64 processors, 500 steps, full
/// algorithm, all invariants checked afterwards, quality within the
/// qualitative claims.
#[test]
fn paper_section7_end_to_end() {
    let params = Params::paper_section7(64);
    let mut cluster = Cluster::new(params, 17);
    let mut workload = PhaseWorkload::paper_section7(3);
    let mut late_ratios = Vec::new();
    drive(&mut cluster, &mut workload, 500, |t, c| {
        if t >= 250 {
            let stats = imbalance_stats(&c.loads());
            if stats.mean >= 10.0 {
                late_ratios.push(stats.max_over_mean);
            }
        }
    });
    cluster
        .check_invariants()
        .expect("invariants hold after 500 steps");
    assert!(!late_ratios.is_empty());
    let mean_ratio = late_ratios.iter().sum::<f64>() / late_ratios.len() as f64;
    assert!(
        mean_ratio < 1.5,
        "well balanced: mean max/mean = {mean_ratio}"
    );
    assert_eq!(cluster.metrics().consume_failed, 0);
}

/// The same recorded trace drives every strategy; totals must agree
/// because generation/consumption opportunities are identical only in
/// events, not outcomes — so instead we assert each strategy conserves
/// its own ledger and the full algorithm balances best.
#[test]
fn strategies_on_identical_trace() {
    let n = 32;
    let mut wl = PhaseWorkload::new(n, 300, Default::default(), 5);
    assert_eq!(wl.n(), 32);
    let trace = EventTrace::record(&mut wl, 300);

    let run = |balancer: &mut dyn LoadBalancer| -> (f64, u64) {
        let mut replay = trace.replay();
        let mut events = Vec::new();
        let mut ratio = 0.0;
        let mut samples = 0usize;
        for t in 0..300 {
            replay.events_at(t, &mut events);
            balancer.step(&events);
            if t >= 100 && t % 20 == 0 {
                let stats = imbalance_stats(&balancer.loads());
                if stats.mean >= 5.0 {
                    ratio += stats.max_over_mean;
                    samples += 1;
                }
            }
        }
        let m = balancer.metrics();
        assert_eq!(
            balancer.loads().iter().sum::<u64>(),
            m.generated - m.consumed,
            "{} conserves packets",
            balancer.name()
        );
        (ratio / samples.max(1) as f64, m.generated)
    };

    let params = Params::paper_section7(n);
    let mut full = Cluster::new(params, 1);
    let mut simple = SimpleCluster::new(params, 1);
    let mut rsu = Rsu91::new(n, 1);
    let mut scatter = RandomScatter::new(n, 1);
    let mut none = NoBalance::new(n);

    let (r_full, _) = run(&mut full);
    let (r_simple, _) = run(&mut simple);
    let (r_rsu, _) = run(&mut rsu);
    let (r_scatter, _) = run(&mut scatter);
    let (r_none, _) = run(&mut none);

    full.check_invariants().expect("full invariants");
    assert!(r_full < r_rsu, "full ({r_full}) beats rsu91 ({r_rsu})");
    assert!(
        r_full < r_scatter,
        "full ({r_full}) beats scatter ({r_scatter})"
    );
    assert!(r_full < r_none, "full ({r_full}) beats none ({r_none})");
    assert!(
        r_simple < r_none,
        "simple ({r_simple}) beats none ({r_none})"
    );
}

/// Theorem 4's bound holds for expected loads estimated over runs, for an
/// adversarial split workload (half producers, half consumers).
#[test]
fn theorem4_on_adversarial_split() {
    let n = 16;
    let params = Params::new(n, 2, 1.3, 4).expect("valid");
    let thm4 = claims::by_id("thm4");
    let runs = 12;
    let mut means = vec![0.0f64; n];
    for seed in 0..runs {
        let mut cluster = Cluster::new(params, seed);
        let mut workload = ProducerConsumerSplit::new(n, 60);
        drive(&mut cluster, &mut workload, 400, |_, _| {});
        cluster.check_invariants().expect("invariants");
        for (m, &l) in means.iter_mut().zip(cluster.loads().iter()) {
            *m += l as f64;
        }
    }
    for m in &mut means {
        *m /= runs as f64;
    }
    for (i, &load_i) in means.iter().enumerate() {
        for (j, &load_j) in means.iter().enumerate() {
            if i != j {
                let observed = Observation::Pair {
                    load_i,
                    load_j,
                    c_borrow: params.c_borrow(),
                };
                let margin = thm4.evaluate(params.algo(), &observed).expect("inside");
                // 12 runs estimate the expectations: 15 % sampling slack.
                assert!(margin.holds_within(0.15), "pair ({i},{j}): {margin:?}");
            }
        }
    }
}

/// A moving hotspot: the balancer adapts as the generating processor
/// wanders (the §1 adaptivity requirement).
#[test]
fn adapts_to_moving_hotspot() {
    let n = 16;
    let params = Params::new(n, 2, 1.2, 4).expect("valid");
    let mut cluster = Cluster::new(params, 9);
    let mut workload = MovingHotspot::new(n, 50, 0.2, 4);
    let mut worst = 1.0f64;
    drive(&mut cluster, &mut workload, 800, |t, c| {
        if t >= 200 && t % 25 == 0 {
            let stats = imbalance_stats(&c.loads());
            if stats.mean >= 10.0 {
                worst = worst.max(stats.max_over_mean);
            }
        }
    });
    cluster.check_invariants().expect("invariants");
    assert!(worst < 2.0, "hotspot tracked: worst ratio {worst}");
}

/// Aggressive exchange policy: same end-to-end workload, ledger still
/// conserved globally, comparable balance quality.
#[test]
fn aggressive_policy_end_to_end() {
    let params = Params::paper_section7(16).with_exchange(ExchangePolicy::Aggressive);
    let mut cluster = Cluster::new(params, 23);
    let mut workload = PhaseWorkload::new(
        16,
        400,
        dlb::workload::phase::PhaseConfig::paper_section7(),
        8,
    );
    drive(&mut cluster, &mut workload, 400, |_, _| {});
    cluster
        .check_invariants()
        .expect("aggressive policy keeps ledger");
}

/// Degenerate collapse: on a complete topology with global partners, or
/// with uniform speeds, the topology and proportional rules are the even
/// rule — the three aliases are one engine, equal step for step on loads
/// and every metric (which extends `RefSimpleCluster`, the oracle for
/// the engine, to the other two rules).
#[test]
fn topo_complete_matches_simple_shape() {
    use rand::prelude::*;
    for (n, delta, f) in [(16, 1, 1.1), (9, 2, 1.3), (32, 4, 1.8)] {
        let params = Params::new(n, delta, f, 4).expect("valid");
        let mut simple = SimpleCluster::new(params, 3);
        let complete = TopoRule::new(Topology::Complete { n }, PartnerMode::GlobalRandom);
        let mut topo = TopoCluster::with_rule(params, complete, 3);
        let mut weighted = WeightedCluster::new(params, vec![3; n], 3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for t in 0..2000 {
            let events: Vec<LoadEvent> = (0..n)
                .map(|_| match rng.gen_range(0..3) {
                    0 => LoadEvent::Generate,
                    1 => LoadEvent::Consume,
                    _ => LoadEvent::Idle,
                })
                .collect();
            simple.step(&events);
            topo.step(&events);
            weighted.step(&events);
            assert_eq!(simple.loads(), topo.loads(), "n={n} step {t}");
            assert_eq!(simple.loads(), weighted.loads(), "n={n} step {t}");
            assert_eq!(simple.metrics(), topo.metrics(), "n={n} step {t}");
            assert_eq!(simple.metrics(), weighted.metrics(), "n={n} step {t}");
        }
        let comm = topo.rule().comm();
        assert_eq!(comm.packet_hops, comm.packets, "all distances are 1");
        assert_eq!(comm.ops, simple.metrics().balance_ops);
    }
}

/// The non-degenerate rules, pinned to the values the three separate
/// engines produced before they became one.
#[test]
fn practical_rules_pinned() {
    let events = |n: usize| -> Vec<LoadEvent> {
        (0..n)
            .map(|i| match i % 3 {
                0 => LoadEvent::Generate,
                1 => LoadEvent::Consume,
                _ => LoadEvent::Idle,
            })
            .collect()
    };
    let run_torus = |mode| {
        let params = Params::new(16, 2, 1.3, 4).expect("valid");
        let rule = TopoRule::new(Topology::Torus2D { w: 4, h: 4 }, mode);
        let mut cluster = TopoCluster::with_rule(params, rule, 7);
        let events = events(16);
        for _ in 0..400 {
            cluster.step(&events);
        }
        let c = *cluster.rule().comm();
        (
            [c.ops, c.packets, c.packet_hops, c.control_hops],
            cluster.loads(),
        )
    };
    assert_eq!(
        run_torus(PartnerMode::GlobalRandom),
        (
            [1231, 3117, 6613, 10532],
            vec![33, 21, 27, 26, 21, 25, 31, 26, 21, 23, 21, 21, 33, 24, 27, 35]
        )
    );
    assert_eq!(
        run_torus(PartnerMode::Neighbors),
        (
            [1216, 3119, 3581, 4864],
            vec![26, 19, 28, 28, 24, 22, 29, 24, 24, 29, 26, 28, 27, 25, 21, 35]
        )
    );

    let params = Params::new(8, 2, 1.3, 4).expect("valid");
    let mut weighted = WeightedCluster::new(params, (1..=8).collect(), 11);
    let events = events(8);
    for _ in 0..400 {
        weighted.step(&events);
    }
    let m = weighted.metrics();
    assert_eq!((m.balance_ops, m.packets_migrated), (2204, 1815));
    assert_eq!(weighted.loads(), vec![1, 1, 1, 2, 2, 3, 5, 3]);
}

/// The branch & bound application layer finds verified optima while the
/// runtime balances the subproblem pools (the paper's [7, 8] workloads).
#[test]
fn branch_and_bound_applications_end_to_end() {
    use dlb::bnb::{knapsack::Knapsack, nqueens::NQueens, tsp::Tsp, Solver};
    let solver = Solver::with_workers(4);

    let tsp = Tsp::random(11, 2);
    assert_eq!(
        solver.solve(&tsp).best_value,
        Some(tsp.optimum_by_held_karp())
    );

    let ks = Knapsack::random(17, 35, 3);
    assert_eq!(solver.solve(&ks).best_value, Some(ks.optimum_by_dp()));

    let (count, stats) = solver.count_solutions(&NQueens::new(8));
    assert_eq!(count, 92);
    assert!(stats.total_processed() > 92);
}

/// The asynchronous protocol at latency 1 approaches the synchronous
/// simulator's balance quality on the same workload intensity.
#[test]
fn async_low_latency_matches_sync_quality() {
    use dlb::net::{AsyncConfig, AsyncNetwork};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    let n = 16;
    let params = Params::new(n, 2, 1.3, 4).expect("valid");

    // Async at latency 1.
    let mut net = AsyncNetwork::new(AsyncConfig::reliable(params, 1, 3));
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let mut async_ratio = 0.0;
    let mut samples = 0usize;
    for t in 0..3_000u64 {
        let actions: Vec<i8> = (0..n)
            .map(|_| if rng.gen_bool(0.6) { 1 } else { -1 })
            .collect();
        net.tick(t, &actions);
        if t >= 1_000 && t % 50 == 0 {
            let stats = imbalance_stats(&net.loads());
            if stats.mean >= 5.0 {
                async_ratio += stats.max_over_mean;
                samples += 1;
            }
        }
    }
    net.quiesce();
    net.check_conservation().expect("conservation");
    let async_ratio = async_ratio / samples.max(1) as f64;

    // Synchronous simple cluster, same intensity.
    let mut sync = SimpleCluster::new(params, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let mut sync_ratio = 0.0;
    let mut samples = 0usize;
    for t in 0..3_000usize {
        let events: Vec<dlb::core::LoadEvent> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.6) {
                    LoadEvent::Generate
                } else {
                    LoadEvent::Consume
                }
            })
            .collect();
        sync.step(&events);
        if t >= 1_000 && t % 50 == 0 {
            let stats = imbalance_stats(&sync.loads());
            if stats.mean >= 5.0 {
                sync_ratio += stats.max_over_mean;
                samples += 1;
            }
        }
    }
    let sync_ratio = sync_ratio / samples.max(1) as f64;
    assert!(
        (async_ratio - sync_ratio).abs() < 0.25,
        "async {async_ratio} vs sync {sync_ratio}"
    );
}

/// Heterogeneous speeds: the weighted balancer drains a shared pool so
/// that processing finishes together, unlike the uniform balancer.
#[test]
fn weighted_balancer_tracks_speeds() {
    let n = 6;
    let params = Params::new(n, 2, 1.2, 4).expect("valid");
    let speeds = vec![1u64, 1, 2, 2, 6, 6];
    let mut cluster = WeightedCluster::new(params, speeds.clone(), 11);
    let mut events = vec![LoadEvent::Idle; n];
    events[0] = LoadEvent::Generate;
    for _ in 0..4_000 {
        cluster.step(&events);
    }
    assert!(
        cluster.normalized_imbalance() < 1.5,
        "{:?}",
        cluster.normalized_loads()
    );
    let loads = cluster.loads();
    assert!(loads[4] + loads[5] > 3 * (loads[0] + loads[1]), "{loads:?}");
}

/// Determinism across the whole stack: same seeds, same curves.
#[test]
fn full_stack_determinism() {
    let run = || {
        let params = Params::paper_section7(16);
        let mut cluster = Cluster::new(params, 5);
        let mut workload = PhaseWorkload::new(
            16,
            200,
            dlb::workload::phase::PhaseConfig::paper_section7(),
            6,
        );
        let mut trail = Vec::new();
        drive(&mut cluster, &mut workload, 200, |_, c| {
            trail.push(c.loads())
        });
        trail
    };
    assert_eq!(run(), run());
}
