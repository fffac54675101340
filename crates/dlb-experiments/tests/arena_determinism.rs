//! Property tests for the balancer arena: the league table is
//! byte-identical for every `--jobs` count and across repeated runs, the
//! trigger-rule contender consumes its RNG streams exactly as a direct
//! simulation does, and the four literature balancers conserve load and
//! freeze crashed processors under arbitrary crash windows.

use dlb_baselines::{DimensionExchange, DynamicAveraging, LocallyOptimal, Quasirandom};
use dlb_core::{Cluster, LoadBalancer, LoadEvent, LoadRecorder, Params};
use dlb_experiments::arena::{league_csv_rows, run_league, ArenaConfig, Contender};
use dlb_experiments::quality::paper_trace;
use dlb_experiments::{stream_seed, StreamId};
use dlb_faults::{CrashEvent, CrashMode, FaultInjector, FaultPlan};
use dlb_net::Topology;
use dlb_workload::Workload;
use proptest::{prop_assert, prop_assert_eq, proptest};

const N: usize = 8;

fn cube() -> Topology {
    Topology::Hypercube { dim: 3 }
}

/// The full league: trigger rule plus all four literature balancers.
fn contenders() -> Vec<Contender> {
    let params = Params::new(N, 1, 1.1, 4).expect("valid params");
    vec![
        Contender::new("spaa93-full", move |seed| {
            Box::new(Cluster::new(params, seed))
        }),
        Contender::new("quasirandom", |_| Box::new(Quasirandom::new(cube()))),
        Contender::new("dynamic-averaging", |seed| {
            Box::new(DynamicAveraging::new(cube(), seed))
        }),
        Contender::new("locally-optimal", |_| Box::new(LocallyOptimal::new(cube()))),
        Contender::new("dimension-exchange", |_| {
            Box::new(DimensionExchange::new(cube()))
        }),
    ]
}

fn arena_cfg(steps: usize, runs: usize, seed: u64, jobs: usize) -> ArenaConfig {
    ArenaConfig {
        n: N,
        steps,
        runs,
        seed,
        warmup_fraction: 0.25,
        faults: Some(FaultPlan {
            seed: 5,
            crash_mode: CrashMode::Frozen,
            crashes: vec![CrashEvent {
                proc: 2,
                at: (steps / 4) as u64,
                recover_at: Some((steps / 2) as u64),
            }],
            ..FaultPlan::default()
        }),
        jobs,
    }
}

fn league_csv(cfg: &ArenaConfig) -> Vec<Vec<String>> {
    let entrants = contenders();
    let rows = run_league(cfg, &entrants, |s| paper_trace(N, cfg.steps, s), None);
    league_csv_rows(&rows, Some(6))
}

proptest! {
    #[test]
    fn league_parallel_equals_sequential(
        steps in 30usize..60,
        runs in 1usize..4,
        jobs in 2usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let seq = league_csv(&arena_cfg(steps, runs, seed, 1));
        let par = league_csv(&arena_cfg(steps, runs, seed, jobs));
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn repeated_leagues_are_identical(
        steps in 30usize..60,
        runs in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = arena_cfg(steps, runs, seed, 2);
        prop_assert_eq!(league_csv(&cfg), league_csv(&cfg));
    }

    /// The trigger-rule contender inside the league draws from exactly
    /// the RNG streams a standalone simulation of the same run would —
    /// racing it against rivals must not perturb a single draw.
    #[test]
    fn trigger_rule_fingerprint_survives_the_league(
        steps in 40usize..80,
        runs in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = arena_cfg(steps, runs, seed, 1);
        let rows = {
            let entrants = contenders();
            run_league(&cfg, &entrants, |s| paper_trace(N, steps, s), None)
        };
        let full = &rows[0];
        prop_assert_eq!(&full.strategy, "spaa93-full");

        // Re-simulate directly with the same per-run streams.
        let params = Params::new(N, 1, 1.1, 4).expect("valid params");
        let warmup = (steps as f64 * 0.25) as usize;
        let mut recorder = LoadRecorder::new(warmup, 3.0);
        let mut ops = 0u64;
        for r in 0..runs {
            let mut balancer = Cluster::new(params, stream_seed(seed, r as u64, StreamId::Balancer));
            let trace = paper_trace(N, steps, stream_seed(seed, r as u64, StreamId::Workload));
            let mut replay = trace.replay();
            let mut plan = cfg.faults.clone().expect("faults set");
            plan.seed = stream_seed(plan.seed, r as u64, StreamId::Faults);
            let injector = FaultInjector::new(plan, N).expect("valid plan");
            let mut run_recorder = LoadRecorder::new(warmup, 3.0);
            let mut events = Vec::new();
            let mut loads = Vec::new();
            for t in 0..steps {
                replay.events_at(t, &mut events);
                balancer.step_masked(&events, &injector.mask_at(t as u64));
                balancer.loads_into(&mut loads);
                run_recorder.record(&loads);
            }
            recorder.merge(&run_recorder);
            ops += balancer.metrics().balance_ops;
        }
        prop_assert_eq!(full.ops_per_run, ops as f64 / runs as f64);
        prop_assert_eq!(full.mean_ratio, recorder.mean_ratio());
        prop_assert_eq!(full.worst_ratio, recorder.worst_ratio());
    }

    /// Conservation and crash-freezing for the four literature
    /// balancers, under an arbitrary crash window: a frozen processor's
    /// load never changes while it is down, no packet is created or
    /// destroyed, and `loads_into` agrees with `loads`.
    #[test]
    fn literature_balancers_conserve_and_freeze(
        which in 0usize..4,
        seed in 0u64..u64::MAX,
        crash_proc in 0usize..N,
        crash_at in 5usize..20,
        crash_len in 1usize..20,
        steps in 40usize..70,
    ) {
        let mut balancer: Box<dyn LoadBalancer> = match which {
            0 => Box::new(Quasirandom::new(cube())),
            1 => Box::new(DynamicAveraging::new(cube(), seed)),
            2 => Box::new(LocallyOptimal::new(cube())),
            _ => Box::new(DimensionExchange::new(cube())),
        };
        let mut mask = vec![false; N];
        let mut events = vec![LoadEvent::Idle; N];
        let mut loads = Vec::new();
        for t in 0..steps {
            // Deterministic generate-only workload (no consumes, so the
            // total must equal the generated counter exactly).
            for (i, e) in events.iter_mut().enumerate() {
                *e = if (t + i) % 3 != 0 {
                    LoadEvent::Generate
                } else {
                    LoadEvent::Idle
                };
            }
            let down = t >= crash_at && t < crash_at + crash_len;
            mask[crash_proc] = down;
            let frozen = balancer.loads()[crash_proc];
            balancer.step_masked(&events, &mask);
            balancer.loads_into(&mut loads);
            prop_assert_eq!(&loads, &balancer.loads(), "loads_into agrees");
            if down {
                prop_assert_eq!(loads[crash_proc], frozen, "crashed proc frozen at t={}", t);
            }
            let total: u64 = loads.iter().sum();
            prop_assert_eq!(total, balancer.metrics().generated, "conservation at t={}", t);
        }
        prop_assert!(balancer.metrics().generated > 0);
    }
}
