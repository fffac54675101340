//! Property tests: the event-driven sparse path is *bit-identical* to
//! the dense one.
//!
//! For both engines — `Cluster`, and the raw-load engine under each of
//! its rules (`SimpleCluster`, `WeightedCluster`, `TopoCluster` in both
//! partner modes) — every sparse pattern and randomly drawn fault plans
//! with crashes/rejoins, a run through `step_sparse`/`step_sparse_masked`
//! must reproduce the dense `step`/`step_masked` run exactly: final
//! loads, metrics, serialized trace bytes — and for the full engine the
//! complete snapshot (the d/b class matrices included).  A third leg
//! records the workload into an [`EventTrace`] and replays it densely,
//! so the sparse stream is also checked against an independently
//! serialized record.

use dlb_core::{Cluster, LoadBalancer, Metrics, Params, SimpleCluster, WeightedCluster};
use dlb_faults::{CrashEvent, FaultInjector, FaultPlan};
use dlb_net::{PartnerMode, TopoCluster, TopoRule, Topology};
use dlb_trace::{BufferSink, TraceEvent};
use dlb_workload::sparse::{SparseActivity, SparsePattern, SparseWorkload};
use dlb_workload::trace::EventTrace;
use dlb_workload::Workload;
use proptest::prelude::*;

/// Folds three raw draws into one of the four sparse patterns, always
/// landing on valid parameters.
fn build_pattern(kind: u8, a: u32, b: u32, c: u32) -> SparsePattern {
    match kind % 4 {
        0 => {
            let lo = 1 + b % 7;
            SparsePattern::Phase {
                work: 1 + a % 4,
                gap: (lo, lo + c % 8),
            }
        }
        1 => SparsePattern::Hotspot {
            period: 1 + a % 11,
            consumer_gap: 1 + b % 9,
        },
        2 => SparsePattern::Bursty {
            burst: 1 + a % 4,
            quiet: 1 + b % 19,
            quiet_gap: 1 + c % 11,
        },
        _ => SparsePattern::Arrivals {
            arrival_gap: 1 + a % 9,
            service_gap: 1 + b % 5,
        },
    }
}

/// Clamps raw crash draws into a valid plan over `n` processors
/// (`recover` draw 0 means "never rejoins").
fn build_plan(raw: &[(usize, u64, u64)], n: usize) -> Option<FaultPlan> {
    if raw.is_empty() {
        return None;
    }
    let crashes: Vec<CrashEvent> = raw
        .iter()
        .map(|&(proc, at, recover)| CrashEvent {
            proc: proc % n,
            at,
            recover_at: (recover > 0).then_some(at + recover),
        })
        .collect();
    Some(FaultPlan {
        crashes,
        ..FaultPlan::reliable()
    })
}

fn make_engine(kind: u8, n: usize, seed: u64) -> Box<dyn LoadBalancer> {
    let params = Params::paper_section7(n);
    let topo =
        |mode| TopoCluster::with_rule(params, TopoRule::new(Topology::Ring { n }, mode), seed);
    match kind % 5 {
        0 => Box::new(Cluster::new(params, seed)),
        1 => Box::new(SimpleCluster::new(params, seed)),
        2 => {
            let speeds = (0..n as u64).map(|i| 1 + (i + seed) % 4).collect();
            Box::new(WeightedCluster::new(params, speeds, seed))
        }
        3 => Box::new(topo(PartnerMode::GlobalRandom)),
        _ => Box::new(topo(PartnerMode::Neighbors)),
    }
}

/// Final loads, metrics and the serialized trace of one run.
type Outcome = (Vec<u64>, Metrics, String);

fn run_dense(
    mut balancer: Box<dyn LoadBalancer>,
    pattern: SparsePattern,
    wseed: u64,
    steps: usize,
    injector: Option<&FaultInjector>,
) -> Outcome {
    let buf = BufferSink::new();
    balancer.set_trace_sink(buf.handle());
    let n = balancer.n();
    let mut workload = SparseActivity::new(n, pattern, wseed);
    let mut events = Vec::new();
    for t in 0..steps {
        workload.events_at(t, &mut events);
        match injector {
            Some(inj) => balancer.step_masked(&events, &inj.mask_at(t as u64)),
            None => balancer.step(&events),
        }
    }
    finish(balancer, buf)
}

fn run_sparse(
    mut balancer: Box<dyn LoadBalancer>,
    pattern: SparsePattern,
    wseed: u64,
    steps: usize,
    injector: Option<&FaultInjector>,
) -> Outcome {
    let buf = BufferSink::new();
    balancer.set_trace_sink(buf.handle());
    let n = balancer.n();
    let mut workload = SparseActivity::new(n, pattern, wseed);
    let mut active = Vec::new();
    for t in 0..steps {
        workload.active_at(t, &mut active);
        match injector {
            Some(inj) => balancer.step_sparse_masked(&active, &inj.mask_at(t as u64)),
            None => balancer.step_sparse(&active),
        }
    }
    finish(balancer, buf)
}

/// Replays an independently recorded [`EventTrace`] of the same
/// workload through the dense path — the serialization oracle.
fn run_replayed(
    mut balancer: Box<dyn LoadBalancer>,
    pattern: SparsePattern,
    wseed: u64,
    steps: usize,
    injector: Option<&FaultInjector>,
) -> Outcome {
    let buf = BufferSink::new();
    balancer.set_trace_sink(buf.handle());
    let n = balancer.n();
    let mut source = SparseActivity::new(n, pattern, wseed);
    let trace = EventTrace::record(&mut source, steps);
    let mut replay = trace.replay();
    let mut events = Vec::new();
    for t in 0..steps {
        replay.events_at(t, &mut events);
        match injector {
            Some(inj) => balancer.step_masked(&events, &inj.mask_at(t as u64)),
            None => balancer.step(&events),
        }
    }
    finish(balancer, buf)
}

fn finish(balancer: Box<dyn LoadBalancer>, buf: BufferSink) -> Outcome {
    let loads = balancer.loads();
    let metrics = *balancer.metrics();
    let bytes: String = buf
        .take()
        .iter()
        .map(|e| e.to_line())
        .collect::<Vec<_>>()
        .join("\n");
    (loads, metrics, bytes)
}

proptest! {
    /// The core bit-identity property across engines, patterns and
    /// crash schedules.
    #[test]
    fn sparse_path_is_bit_identical_to_dense(
        kind in 0u8..4,
        a in 0u32..1_000,
        b in 0u32..1_000,
        c in 0u32..1_000,
        n in 8usize..40,
        raw_crashes in prop::collection::vec((0usize..4096, 0u64..120, 0u64..80), 0..3),
        engine in 0u8..5,
        eseed in 0u64..1_000,
        wseed in 0u64..1_000,
        steps in 120usize..240,
    ) {
        let pattern = build_pattern(kind, a, b, c);
        let injector = build_plan(&raw_crashes, n)
            .map(|p| FaultInjector::new(p, n).expect("valid plan"));
        let inj = injector.as_ref();
        let dense = run_dense(make_engine(engine, n, eseed), pattern, wseed, steps, inj);
        let sparse = run_sparse(make_engine(engine, n, eseed), pattern, wseed, steps, inj);
        prop_assert_eq!(&dense.0, &sparse.0, "loads diverge");
        prop_assert_eq!(&dense.1, &sparse.1, "metrics diverge");
        prop_assert_eq!(&dense.2, &sparse.2, "trace bytes diverge");
        // Serialization oracle: an EventTrace recorded from a same-seed
        // workload, replayed densely, lands in the same state.
        let replayed = run_replayed(make_engine(engine, n, eseed), pattern, wseed, steps, inj);
        prop_assert_eq!(&dense.0, &replayed.0, "replay loads diverge");
        prop_assert_eq!(&dense.1, &replayed.1, "replay metrics diverge");
    }

    /// For the full engine the *entire* snapshot — including the d/b
    /// virtual-class matrices — must match, not just the load vector.
    #[test]
    fn full_engine_snapshots_match_exactly(
        kind in 0u8..4,
        a in 0u32..1_000,
        b in 0u32..1_000,
        c in 0u32..1_000,
        eseed in 0u64..1_000,
        wseed in 0u64..1_000,
    ) {
        let n = 24;
        let steps = 200;
        let pattern = build_pattern(kind, a, b, c);
        let params = Params::paper_section7(n);
        let mut x = Cluster::new(params, eseed);
        let mut y = Cluster::new(params, eseed);
        let mut dense_w = SparseActivity::new(n, pattern, wseed);
        let mut sparse_w = SparseActivity::new(n, pattern, wseed);
        let mut events = Vec::new();
        let mut active = Vec::new();
        for t in 0..steps {
            dense_w.events_at(t, &mut events);
            x.step(&events);
            sparse_w.active_at(t, &mut active);
            y.step_sparse(&active);
        }
        prop_assert_eq!(x.snapshot(), y.snapshot());
    }
}

/// The crash-mask contract under the neighbour rule: a down processor's
/// load is frozen and it never serves as a balance partner, even while
/// both of its ring neighbours keep triggering.
#[test]
fn neighbour_rule_never_draws_a_down_partner() {
    let n = 12;
    let params = Params::new(n, 2, 1.3, 4).expect("valid");
    let ring = TopoRule::new(Topology::Ring { n }, PartnerMode::Neighbors);
    let mut cluster = TopoCluster::with_rule(params, ring, 9);
    let buf = BufferSink::new();
    cluster.set_trace_sink(buf.handle());
    let mut workload = SparseActivity::new(
        n,
        SparsePattern::Hotspot {
            period: 5,
            consumer_gap: 3,
        },
        4,
    );
    let mut down = vec![false; n];
    let mut active = Vec::new();
    for t in 0..100 {
        workload.active_at(t, &mut active);
        cluster.step_sparse_masked(&active, &down);
    }
    down[4] = true;
    let frozen = cluster.load(4);
    buf.take();
    for t in 100..400 {
        workload.active_at(t, &mut active);
        cluster.step_sparse_masked(&active, &down);
        assert_eq!(cluster.load(4), frozen, "step {t}");
    }
    let mut ops = 0;
    for event in buf.take() {
        if let TraceEvent::BalanceInitiated {
            initiator,
            partners,
            ..
        } = event
        {
            ops += usize::from(initiator == 3 || initiator == 5);
            assert_ne!(initiator, 4);
            assert!(!partners.contains(&4), "{initiator} drew {partners:?}");
        }
    }
    assert!(ops > 0, "the down processor's neighbours balanced");
    cluster.check_invariants().expect("conserved");
}
