//! End-to-end tests of the sharded wall engine: the conservation
//! ledger must close exactly for every acceptor count, the fault plan
//! must be honoured wherever its ticks fall, and every key's home must
//! be a valid shard.

use dlb_faults::{CrashEvent, CrashMode, FaultPlan};
use dlb_serve::{home_shard, run_wall, ServiceScenario};
use dlb_trace::{BufferSink, TraceEvent};
use dlb_workload::service::{RatePhase, ServiceLoad};

/// A few milliseconds of wall schedule: 8 shards, a Zipf-skewed burst
/// (so triggers actually fire), and a crash/rejoin pair per half.
fn scenario() -> ServiceScenario {
    ServiceScenario {
        shards: 8,
        ticks: 400,
        seed: 42,
        delta: 2,
        f: 2.0,
        acceptors: 1,
        load: ServiceLoad {
            phases: vec![RatePhase {
                ticks: 120,
                rate: 2.5,
            }],
            keys: 200,
            zipf_s: 1.1,
            service_ticks: (1, 2),
        },
        tick_us: 20,
        faults: FaultPlan {
            crash_mode: CrashMode::Lost,
            crashes: vec![
                CrashEvent {
                    proc: 3,
                    at: 60,
                    recover_at: Some(200),
                },
                CrashEvent {
                    proc: 6,
                    at: 90,
                    recover_at: Some(260),
                },
            ],
            ..FaultPlan::reliable()
        },
    }
}

#[test]
fn ledger_closes_for_every_acceptor_count() {
    for acceptors in [1usize, 2, 4] {
        let stats = run_wall(&scenario(), 2, acceptors, None)
            .unwrap_or_else(|e| panic!("acceptors={acceptors}: {e}"));
        assert_eq!(stats.acceptors, acceptors);
        assert!(stats.issued > 0);
        assert!(
            stats.conservation_holds(),
            "acceptors={acceptors}: ledger must close at exit"
        );
        // Wall-mode crashes only redistribute queued work, so with at
        // least one shard alive everything completes.
        assert_eq!(stats.completed, stats.issued, "acceptors={acceptors}");
        assert_eq!(stats.dropped, 0, "acceptors={acceptors}");
        assert_eq!(stats.in_flight, 0, "acceptors={acceptors}");
        assert_eq!(stats.crashes, 2, "acceptors={acceptors}");
        assert_eq!(stats.recoveries, 2, "acceptors={acceptors}");
        assert_eq!(stats.latency.count(), stats.completed);
        assert_eq!(
            stats.per_shard_completed.iter().sum::<u64>(),
            stats.completed
        );
        assert_eq!(stats.per_acceptor_rebalances.len(), acceptors);
        assert_eq!(
            stats.per_acceptor_rebalances.iter().sum::<u64>(),
            stats.rebalances,
            "per-acceptor rebalances must sum to the total"
        );
        if acceptors == 1 {
            assert_eq!(
                stats.handoffs, 0,
                "a single acceptor owns every shard; nothing crosses a group"
            );
        }
    }
}

#[test]
fn wall_trace_is_consistent_with_the_stats_under_sharding() {
    let buffer = BufferSink::new();
    let stats = run_wall(&scenario(), 2, 4, Some(buffer.handle())).expect("run");
    let events = buffer.take();
    let routed = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RequestRouted { .. }))
        .count() as u64;
    let done = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RequestCompleted { .. }))
        .count() as u64;
    let redirected: u64 = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RequestsRedirected { count, .. } => Some(*count),
            _ => None,
        })
        .sum();
    let handoff_events = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::AcceptorHandoff { .. }))
        .count() as u64;
    assert_eq!(
        routed,
        stats.issued - stats.dropped,
        "every surviving request is traced as routed exactly once, at its landing"
    );
    assert_eq!(done, stats.completed);
    assert_eq!(
        redirected, stats.redirected,
        "redirect trace counts sum to the stats counter"
    );
    assert!(
        handoff_events <= stats.handoffs,
        "handoff events cover donations only; the counter covers every message"
    );
    if stats.rebalances > 0 {
        // With 8 shards in 4 groups of 2, any δ=2 trigger has at most
        // one own-group partner, so every fired rebalance donates (or
        // baseline-resets) across a group boundary.
        assert!(
            stats.handoffs > 0,
            "cross-group rebalance must ride the inboxes"
        );
    }
}

#[test]
fn every_keys_home_is_a_valid_shard() {
    // Placement is one call site (`ShardGroup::arrive`), so there is no
    // second copy to agree with; what is left to check is the range.
    for n in [1usize, 2, 3, 8, 64] {
        for key in (0..2_000u64).chain([u64::MAX, u64::MAX - 1, 1 << 60]) {
            assert!(home_shard(key, n) < n, "home must be a valid shard");
        }
    }
}
