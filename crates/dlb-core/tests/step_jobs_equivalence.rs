//! PR-5 intra-step parallelism contract: stepping with `step_jobs > 1`
//! (draw phase sequential, balance operations executed in conflict-free
//! waves on the worker pool) must be *bit-identical* to the sequential
//! engines — and those are already bit-identical to the dense reference
//! implementations (see `opt_equivalence.rs`).  These proptests replay
//! random small instances three ways — parallel optimized, sequential
//! optimized, and `dlb_core::reference` — and compare loads, metrics,
//! the full `d`/`b` marker matrices, and the merged trace byte stream
//! for every `step_jobs` in {1, 2, 4, 8}.  The raw-load engine is
//! replayed under each of its rules (even, proportional, topology in
//! both partner modes); the reference leg covers the even one.

use dlb_core::reference::{RefCluster, RefSimpleCluster};
use dlb_core::{
    BalanceRule, Cluster, LoadBalancer, LoadEvent, Metrics, Params, RawCluster, SimpleCluster,
    WeightedCluster, DEFAULT_WAVE_THRESHOLD,
};
use dlb_net::{PartnerMode, TopoCluster, TopoRule, Topology};
use dlb_trace::BufferSink;
use proptest::prelude::TestCaseError;
use proptest::{prop_assert, prop_assert_eq, proptest};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

const STEP_JOBS: [usize; 4] = [1, 2, 4, 8];

/// Every path: 0 forces the wave executor for every flush; 2 mixes
/// eager steps, deferred wave flushes and deferred sequential flushes;
/// under the default these small instances never defer and execute at
/// the trigger.
const THRESHOLDS: [usize; 3] = [0, 2, DEFAULT_WAVE_THRESHOLD];

/// Same mixed workload shape as `opt_equivalence.rs`: build-up first,
/// drain-down after the halfway point.
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

/// The trace stream as raw JSONL bytes — the strongest equality we can
/// ask for (field order, numeric formatting, event order).
fn trace_bytes(buffer: &BufferSink) -> Vec<u8> {
    let mut out = Vec::new();
    for ev in buffer.take() {
        ev.write_line(&mut out);
        out.push(b'\n');
    }
    out
}

/// Replays `trace` (events and down-mask per step) through a fresh
/// engine sequentially, then under every `step_jobs` × threshold, and
/// requires loads, metrics, trace bytes and the rule's own `tally` to
/// agree; returns the sequential loads and metrics.
fn across_step_jobs<R: BalanceRule, T: PartialEq + std::fmt::Debug>(
    make: impl Fn() -> RawCluster<R>,
    tally: impl Fn(&R) -> T,
    trace: &[(Vec<LoadEvent>, Vec<bool>)],
) -> Result<(Vec<u64>, Metrics), TestCaseError> {
    let run = |jobs: usize, threshold: Option<usize>| {
        let mut cluster = make();
        cluster.set_step_jobs(jobs);
        if let Some(threshold) = threshold {
            cluster.set_wave_threshold(threshold);
        }
        let buffer = BufferSink::new();
        cluster.set_trace_sink(buffer.handle());
        for (events, down) in trace {
            cluster.step_masked(events, down);
        }
        (cluster, trace_bytes(&buffer))
    };
    let (seq, seq_trace) = run(1, None);
    for jobs in STEP_JOBS {
        for threshold in THRESHOLDS {
            let (par, par_trace) = run(jobs, Some(threshold));
            prop_assert_eq!(
                par.loads(),
                seq.loads(),
                "loads diverged at step_jobs={}",
                jobs
            );
            prop_assert_eq!(
                par.metrics(),
                seq.metrics(),
                "metrics diverged at step_jobs={}",
                jobs
            );
            prop_assert_eq!(
                &par_trace,
                &seq_trace,
                "trace bytes diverged at step_jobs={}",
                jobs
            );
            prop_assert_eq!(
                tally(par.rule()),
                tally(seq.rule()),
                "rule tally diverged at step_jobs={}",
                jobs
            );
            prop_assert!(par.check_invariants().is_ok());
        }
    }
    Ok((seq.loads(), *seq.metrics()))
}

proptest! {
    /// Full virtual-class model: parallel == sequential == reference on
    /// loads, metrics, the complete `d`/`b` matrices, and trace bytes.
    #[test]
    fn full_cluster_is_bit_identical_across_step_jobs(
        n_idx in 0usize..4,
        delta_idx in 0usize..2,
        initial in 0u64..3,
        seed in 0u64..1_000_000,
    ) {
        let n = [2usize, 3, 5, 9][n_idx];
        let delta = [1usize, 2][delta_idx].min(n - 1);
        let params = Params::new(n, delta, 1.2, 4).unwrap();
        let initial = initial * 5;
        let steps = 50;

        // Sequential baseline plus the dense reference, traced.
        let mut seq = Cluster::with_initial_load(params, seed, initial);
        let seq_buf = BufferSink::new();
        seq.set_trace_sink(seq_buf.handle());
        let mut reference = RefCluster::with_initial_load(params, seed, initial);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let mut trace = Vec::new();
        for t in 0..steps {
            let events = events_at(&mut ev_rng, n, t, steps);
            seq.step(&events);
            reference.step(&events);
            trace.push(events);
        }
        prop_assert_eq!(seq.loads(), reference.loads());
        prop_assert_eq!(seq.metrics(), reference.metrics());
        let seq_trace = trace_bytes(&seq_buf);

        for jobs in STEP_JOBS {
          for threshold in THRESHOLDS {
            let mut par = Cluster::with_initial_load(params, seed, initial);
            par.set_step_jobs(jobs);
            par.set_wave_threshold(threshold);
            let par_buf = BufferSink::new();
            par.set_trace_sink(par_buf.handle());
            for events in &trace {
                par.step(events);
            }
            prop_assert_eq!(
                par.loads(), seq.loads(), "loads diverged at step_jobs={}", jobs);
            prop_assert_eq!(
                par.metrics(), seq.metrics(), "metrics diverged at step_jobs={}", jobs);
            for i in 0..n {
                for c in 0..n {
                    prop_assert_eq!(
                        par.d(i, c), seq.d(i, c),
                        "d[{}][{}] diverged at step_jobs={}", i, c, jobs);
                    prop_assert_eq!(
                        par.b(i, c), seq.b(i, c),
                        "b[{}][{}] diverged at step_jobs={}", i, c, jobs);
                }
            }
            prop_assert_eq!(
                trace_bytes(&par_buf), seq_trace.clone(),
                "trace bytes diverged at step_jobs={}", jobs);
            prop_assert!(par.check_invariants().is_ok());
          }
        }
    }

    /// Practical variant, every rule, under a changing down-mask:
    /// parallel == sequential on loads, metrics, and trace bytes — and,
    /// for the even rule, == reference.
    #[test]
    fn raw_cluster_is_bit_identical_across_step_jobs(
        n_idx in 0usize..3,
        delta_idx in 0usize..2,
        rule in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let n = [3usize, 6, 10][n_idx];
        let delta = [1usize, 3][delta_idx].min(n - 1);
        let params = Params::new(n, delta, 1.3, 4).unwrap();
        let steps = 60;

        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let mut mask_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
        let mut trace = Vec::new();
        let mut down = vec![false; n];
        for t in 0..steps {
            if t % 7 == 0 {
                for f in down.iter_mut() {
                    *f = mask_rng.gen_bool(0.25);
                }
            }
            trace.push((events_at(&mut ev_rng, n, t, steps), down.clone()));
        }

        let topo = |mode| {
            TopoCluster::with_rule(params, TopoRule::new(Topology::Ring { n }, mode), seed)
        };
        match rule {
            0 => {
                let (loads, metrics) = across_step_jobs(|| SimpleCluster::new(params, seed), |_| (), &trace)?;
                let mut reference = RefSimpleCluster::new(params, seed);
                for (events, down) in &trace {
                    reference.step_masked(events, down);
                }
                prop_assert_eq!(loads, reference.loads());
                prop_assert_eq!(&metrics, reference.metrics());
            }
            1 => {
                let speeds: Vec<u64> = (0..n as u64).map(|i| 1 + (i * 7 + seed) % 5).collect();
                across_step_jobs(|| WeightedCluster::new(params, speeds.clone(), seed), |_| (), &trace)?;
            }
            2 => {
                across_step_jobs(|| topo(PartnerMode::GlobalRandom), |r| *r.comm(), &trace)?;
            }
            _ => {
                across_step_jobs(|| topo(PartnerMode::Neighbors), |r| *r.comm(), &trace)?;
            }
        }
    }
}
