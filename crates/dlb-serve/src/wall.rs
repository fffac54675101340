//! The wall-clock serving engine: `A` sharded acceptors plus `W` shard
//! workers, one scoped thread each (`dlb_pool::par_map` with
//! `jobs == count`).
//!
//! This mode exists to produce *bench numbers* (`BENCH_service.json`):
//! sustained requests/sec and latency quantiles under the same request
//! stream, trigger rule and crash plan as the simulated engine.  It is
//! deliberately not bit-reproducible — thread interleavings decide how
//! deep a queue is when a trigger fires — but the conservation ledger
//! still holds exactly: every generated request is completed or
//! (all-shards-down only) dropped.
//!
//! Division of labour is lock-free end to end (see [`crate::ring`]):
//!
//! - each **acceptor** (`par_map` indices `0..A`) drives the
//!   `ShardGroup` (`crate::group`) of a contiguous shard range — private
//!   queues, private `l_old` trigger baselines, a private ChaCha
//!   partner stream; the same state machine the simulated engine runs —
//!   and replays its slice of the precomputed arrival schedule and
//!   fault timeline against the wall clock; cross-group moves ride MPSC
//!   inbox messages (see `crate::acceptor`);
//! - each **worker** (indices `A..A+W`) drains the SPSC work
//!   rings of its shards (`shard % W == worker`), sleeps out the
//!   service demand, and records latency into its own histogram; the
//!   per-worker histograms are merged in index order at the end
//!   (merging is order-independent, see `hist`).
//!
//! Crash composition differs from the simulated engine in one honest
//! way: a request already handed to a worker (in its shard's work ring
//! or in service) when the shard crashes cannot be yanked out of an OS
//! thread, so wall mode lets it complete regardless of the crash mode:
//! `Lost`/`Frozen` act on the queued backlog only, which is
//! redistributed by the very code sim mode runs.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dlb_faults::CrashEvent;
use dlb_trace::{SharedSink, TraceEvent};
use dlb_workload::service::{Request, RequestSource};

use crate::acceptor::Acceptor;
use crate::group::{Msg, ShardGroup};
use crate::hist::LatencyHistogram;
use crate::home_shard;
use crate::ring::{MpscRing, SpscRing};
use crate::scenario::ServiceScenario;
use crate::stats::{ServiceStats, WallTiming};

/// Per-shard SPSC work-ring capacity.  A request in the ring has left
/// its shard's queue — it no longer counts as depth and no plan or
/// crash can move it — so the ring holds only what keeps a worker fed
/// between two acceptor passes (a busy acceptor polls every few tens of
/// microseconds; a service demand is at least one tick).
const WORK_RING_CAP: usize = 4;

/// Per-acceptor MPSC inbox capacity.  Senders never block on a full
/// inbox — they park the message locally and retry — so this only
/// sizes the fast path.
const INBOX_CAP: usize = 1024;

/// Everything the acceptors and workers share.  No locks: SPSC rings
/// carry owned-shard work, MPSC rings carry cross-group messages, and
/// the scalars are atomics.
pub(crate) struct Shared {
    /// One SPSC work ring per shard: producer = owning acceptor,
    /// consumer = the worker with `shard % workers == worker`.
    pub(crate) work: Vec<SpscRing<Request>>,
    /// One MPSC inbox per acceptor for cross-group handoffs.
    pub(crate) inboxes: Vec<MpscRing<Msg>>,
    /// `owner[s]` = the acceptor owning shard `s` (shard groups are
    /// contiguous, see [`Shared::group`]).
    pub(crate) owner: Vec<usize>,
    /// Queue depths and liveness, published by the owning acceptor
    /// once per pass so any acceptor can cut a plan over any shard.
    pub(crate) depths: Vec<AtomicU64>,
    pub(crate) down: Vec<AtomicBool>,
    /// Acceptors still replaying arrivals/faults (termination protocol).
    pub(crate) producing: AtomicUsize,
    /// Acceptors still running at all (workers drain until this is 0).
    pub(crate) accepting: AtomicUsize,
    /// Messages sent but not yet fully processed, counted up *before*
    /// each send and down only *after* processing (cascades included).
    pub(crate) msgs_in_flight: AtomicU64,
    pub(crate) completed: AtomicU64,
}

impl Shared {
    /// The shared state of `n` shards under `acceptors` acceptors, with
    /// the given per-shard work-ring and per-acceptor inbox capacities.
    pub(crate) fn new(n: usize, acceptors: usize, work_cap: usize, inbox_cap: usize) -> Self {
        let mut owner = vec![0; n];
        for a in 0..acceptors {
            owner[a * n / acceptors..(a + 1) * n / acceptors].fill(a);
        }
        Shared {
            work: (0..n).map(|_| SpscRing::with_capacity(work_cap)).collect(),
            inboxes: (0..acceptors)
                .map(|_| MpscRing::with_capacity(inbox_cap))
                .collect(),
            owner,
            depths: (0..n).map(|_| AtomicU64::new(0)).collect(),
            down: (0..n).map(|_| AtomicBool::new(false)).collect(),
            producing: AtomicUsize::new(acceptors),
            accepting: AtomicUsize::new(acceptors),
            msgs_in_flight: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        }
    }

    /// Acceptor `a`'s contiguous shard group `[a·n/A, (a+1)·n/A)`.
    pub(crate) fn group(&self, a: usize) -> (usize, usize) {
        let (n, acceptors) = (self.owner.len(), self.inboxes.len());
        (a * n / acceptors, (a + 1) * n / acceptors)
    }

    /// Splits the schedule by owner: each acceptor replays the requests
    /// whose *home* shard it owns and its owned shards' transitions.
    pub(crate) fn feeds(&self, requests: &[Request], crashes: &[CrashEvent]) -> Vec<Feed> {
        let n = self.owner.len();
        let mut feeds = vec![Feed::default(); self.inboxes.len()];
        for &r in requests {
            feeds[self.owner[home_shard(r.key, n)]].arrivals.push(r);
        }
        for c in crashes {
            let timeline = &mut feeds[self.owner[c.proc]].timeline;
            timeline.push((c.at, c.proc, false));
            timeline.extend(c.recover_at.map(|at| (at, c.proc, true)));
        }
        // Downs before Ups on ties, like the sim engine.
        for feed in &mut feeds {
            feed.timeline.sort_by_key(|&(at, _, up)| (at, up));
        }
        feeds
    }
}

/// One acceptor's share of the schedule, both in tick order.
#[derive(Clone, Default)]
pub(crate) struct Feed {
    pub(crate) arrivals: Vec<Request>,
    /// `(tick, shard, up)` crash/recovery transitions.
    pub(crate) timeline: Vec<(u64, usize, bool)>,
}

/// Wall-clock duration of `ticks` ticks of `tick_us` microseconds
/// each.
///
/// PR 6 computed these as `Duration::from_micros(tick_us) * (ticks as
/// u32)` — a silent `u64 → u32` truncation for any tick past 2^32 (and
/// a potential `Duration * u32` overflow panic before that).
/// Multiplying in µs-space with saturation is exact for every
/// representable schedule (saturation kicks in past ~584k years).
pub(crate) fn ticks_to_duration(tick_us: u64, ticks: u64) -> Duration {
    Duration::from_micros(tick_us.saturating_mul(ticks))
}

/// Whole ticks of `tick_us` microseconds in `elapsed`, saturating at
/// `u64::MAX` (the inverse of [`ticks_to_duration`]).
pub(crate) fn duration_to_ticks(elapsed: Duration, tick_us: u64) -> u64 {
    u64::try_from(elapsed.as_micros() / u128::from(tick_us)).unwrap_or(u64::MAX)
}

struct WorkerOut {
    hist: LatencyHistogram,
    per_shard_completed: Vec<(usize, u64)>,
}

enum Out {
    Acceptor(Box<ShardGroup>, u64),
    Worker(WorkerOut),
}

fn worker_run(
    w: usize,
    workers: usize,
    shared: &Shared,
    start: Instant,
    tick_us: u64,
    sink: Option<&SharedSink>,
) -> WorkerOut {
    let n = shared.work.len();
    let my_shards: Vec<usize> = (0..n).filter(|s| s % workers == w).collect();
    let mut hist = LatencyHistogram::new();
    let mut completed: Vec<(usize, u64)> = my_shards.iter().map(|&s| (s, 0)).collect();
    loop {
        let mut served = false;
        for (k, &s) in my_shards.iter().enumerate() {
            let Some(r) = shared.work[s].pop() else {
                continue;
            };
            served = true;
            std::thread::sleep(ticks_to_duration(tick_us, r.service));
            let elapsed_ticks = duration_to_ticks(start.elapsed(), tick_us);
            let latency = elapsed_ticks.saturating_sub(r.arrival);
            hist.record(latency);
            completed[k].1 += 1;
            shared.completed.fetch_add(1, Ordering::Release);
            if let Some(sink) = sink {
                if sink.enabled() {
                    sink.record(&TraceEvent::RequestCompleted {
                        step: elapsed_ticks,
                        req: r.id,
                        shard: s as u64,
                        latency_ticks: latency,
                    });
                }
            }
        }
        if !served {
            // Acceptors keep feeding the rings from their backlogs
            // until everything drained, so "all acceptors exited and my
            // rings are empty" is a sound exit condition.
            if shared.accepting.load(Ordering::Acquire) == 0
                && my_shards.iter().all(|&s| shared.work[s].is_empty())
            {
                break;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    WorkerOut {
        hist,
        per_shard_completed: completed,
    }
}

/// Runs the scenario against the wall clock with `acceptors` sharded
/// acceptor threads and `workers` shard workers, and returns the report
/// with the throughput/latency figures filled in.
pub fn run_wall(
    scenario: &ServiceScenario,
    workers: usize,
    acceptors: usize,
    sink: Option<SharedSink>,
) -> Result<ServiceStats, String> {
    scenario.validate()?;
    let n = scenario.shards;
    let workers = workers.clamp(1, n);
    let acceptors = acceptors.clamp(1, n);
    let shared = Shared::new(n, acceptors, WORK_RING_CAP, INBOX_CAP);

    // The whole request stream is precomputed so both engines replay
    // the same arrivals and the acceptors' hot loops do no generation.
    let mut source = RequestSource::new(scenario.load.clone(), scenario.seed);
    let mut all = Vec::new();
    for t in 0..scenario.ticks {
        source.arrivals_at(t, &mut all);
    }
    let issued = source.issued();
    let feeds = shared.feeds(&all, &scenario.faults.crashes);

    let start = Instant::now();
    let jobs = acceptors + workers;
    // Every loop below waits for all the others, so each index needs a
    // thread of its own: `par_map` guarantees that for `jobs == count`
    // (and pins it with a barrier test), not for a nested call.
    let results: Vec<Out> = dlb_pool::par_map(jobs, jobs, |i| {
        if i < acceptors {
            let acceptor = Acceptor::new(i, &shared, scenario, sink.clone(), &feeds[i]);
            let (group, handoffs) = acceptor.run(start, scenario.tick_us);
            Out::Acceptor(Box::new(group), handoffs)
        } else {
            Out::Worker(worker_run(
                i - acceptors,
                workers,
                &shared,
                start,
                scenario.tick_us,
                sink.as_ref(),
            ))
        }
    });
    let elapsed = start.elapsed();

    let mut latency = LatencyHistogram::new();
    let mut per_shard_completed = vec![0u64; n];
    let mut per_acceptor_rebalances = vec![0u64; acceptors];
    let (mut dropped, mut redirected, mut crashes, mut recoveries, mut handoffs) = (0, 0, 0, 0, 0);
    for (i, out) in results.into_iter().enumerate() {
        match out {
            Out::Acceptor(group, sent) => {
                per_acceptor_rebalances[i] = group.router().rebalances();
                dropped += group.dropped;
                redirected += group.redirected;
                crashes += group.crashes;
                recoveries += group.recoveries;
                handoffs += sent;
            }
            Out::Worker(w) => {
                latency.merge(&w.hist);
                for (s, c) in w.per_shard_completed {
                    per_shard_completed[s] = c;
                }
            }
        }
    }
    let completed = shared.completed.load(Ordering::Acquire);
    if completed + dropped != issued {
        return Err(format!(
            "conservation broken: issued {issued} != completed {completed} + dropped {dropped}"
        ));
    }
    if shared.work.iter().any(|r| !r.is_empty())
        || shared.inboxes.iter().any(|r| !r.is_empty())
        || shared.msgs_in_flight.load(Ordering::Acquire) != 0
    {
        return Err("sharded engine exited with undrained rings or messages in flight".into());
    }
    if let Some(sink) = &sink {
        sink.flush();
    }
    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    Ok(ServiceStats {
        mode: "wall",
        shards: n,
        workers,
        acceptors,
        seed: scenario.seed,
        ticks_run: duration_to_ticks(elapsed, scenario.tick_us),
        issued,
        completed,
        dropped,
        in_flight: 0,
        redirected,
        rebalances: per_acceptor_rebalances.iter().sum(),
        crashes,
        recoveries,
        handoffs,
        per_acceptor_rebalances,
        latency,
        per_shard_completed,
        wall: Some(WallTiming {
            elapsed_ms,
            req_per_s: if elapsed_ms > 0.0 {
                completed as f64 / (elapsed_ms / 1e3)
            } else {
                0.0
            },
            tick_us: scenario.tick_us,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_faults::{CrashEvent, CrashMode, FaultPlan};
    use dlb_workload::service::{RatePhase, ServiceLoad};

    fn quick_scenario() -> ServiceScenario {
        ServiceScenario {
            shards: 4,
            ticks: 200,
            seed: 9,
            delta: 2,
            f: 2.0,
            acceptors: 1,
            load: ServiceLoad {
                phases: vec![RatePhase {
                    ticks: 50,
                    rate: 2.0,
                }],
                keys: 32,
                zipf_s: 1.1,
                service_ticks: (1, 2),
            },
            tick_us: 20, // 200 ticks · 20 µs = 4 ms of schedule
            faults: FaultPlan {
                crash_mode: CrashMode::Lost,
                crashes: vec![CrashEvent {
                    proc: 1,
                    at: 60,
                    recover_at: Some(140),
                }],
                ..FaultPlan::reliable()
            },
        }
    }

    #[test]
    fn wall_run_conserves_requests_under_crash() {
        let stats = run_wall(&quick_scenario(), 3, 1, None).expect("run");
        assert_eq!(stats.mode, "wall");
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.acceptors, 1);
        assert!(stats.issued > 0);
        // Wall-mode crashes only redistribute queued requests; nothing
        // is dropped while at least one shard stays up.
        assert_eq!(stats.completed, stats.issued);
        assert_eq!(stats.dropped, 0);
        assert!(stats.conservation_holds());
        assert_eq!(stats.latency.count(), stats.completed);
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);
        assert!(stats.wall.is_some());
        assert_eq!(
            stats.per_shard_completed.iter().sum::<u64>(),
            stats.completed
        );
    }

    #[test]
    fn wall_run_conserves_with_sharded_acceptors() {
        let stats = run_wall(&quick_scenario(), 2, 2, None).expect("run");
        assert_eq!(stats.acceptors, 2);
        assert_eq!(stats.per_acceptor_rebalances.len(), 2);
        assert_eq!(
            stats.per_acceptor_rebalances.iter().sum::<u64>(),
            stats.rebalances
        );
        assert_eq!(stats.completed, stats.issued);
        assert_eq!(stats.dropped, 0);
        assert!(stats.conservation_holds());
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn tick_durations_do_not_truncate_past_u32() {
        // The PR 6 bug: `Duration::from_micros(20) * (tick as u32)`
        // silently wrapped for ticks past 2^32.  An arrival scheduled
        // at tick u32::MAX + 2 must map to a strictly later deadline
        // than one at u32::MAX + 1.
        let big = u32::MAX as u64 + 1;
        assert_eq!(
            ticks_to_duration(20, big),
            Duration::from_micros(20 * (u32::MAX as u64 + 1))
        );
        assert!(ticks_to_duration(20, big + 1) > ticks_to_duration(20, big));
        // The old expression wrapped to zero here.
        assert_eq!(
            duration_to_ticks(ticks_to_duration(20, big), 20),
            big,
            "no truncation at 2^32 ticks"
        );
        // Saturation instead of panic at the extreme.
        assert_eq!(
            ticks_to_duration(u64::MAX, 2),
            Duration::from_micros(u64::MAX)
        );
    }

    #[test]
    fn late_fault_transitions_still_fire() {
        // PR 6 drained the fault timeline only while placing arrivals,
        // so a recovery scheduled after the last arrival's tick never
        // fired and `recoveries` disagreed with the scenario.  Recovery
        // at tick 180 is well past the last arrival (phase ends at
        // tick 50).
        let mut scenario = quick_scenario();
        scenario.faults.crashes = vec![CrashEvent {
            proc: 2,
            at: 100,
            recover_at: Some(180),
        }];
        let stats = run_wall(&scenario, 2, 2, None).expect("run");
        assert_eq!(stats.crashes, 1);
        assert_eq!(
            stats.recoveries, 1,
            "recovery past the last arrival must still fire"
        );
        assert!(stats.conservation_holds());
        assert_eq!(stats.completed, stats.issued);
    }
}
