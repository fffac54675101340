//! The wall-clock serving engine: one acceptor thread plus `W` shard
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
//! Division of labour:
//!
//! - the **acceptor** (`par_map` index 0) drives the one `ShardGroup`
//!   (`crate::group`) over every shard — the group the simulated engine
//!   builds, seeded the same — replaying the precomputed arrival
//!   schedule and fault timeline against the wall clock and dequeuing
//!   queue heads into the shards' SPSC work rings ([`crate::ring`]).
//!   Its turn, `Feeder::pass`, takes `now` as an argument, so the tests
//!   step the real code under a seeded scheduler;
//! - each **worker** (indices `1..=W`) drains the work rings of its
//!   shards (`shard % W == worker`), sleeps out the service demand, and
//!   records latency into its own histogram; the per-worker histograms
//!   are merged in index order at the end (merging is
//!   order-independent, see `hist`).
//!
//! Crash composition differs from the simulated engine in one honest
//! way: a request already handed to a worker (in its shard's work ring
//! or in service) when the shard crashes cannot be yanked out of an OS
//! thread, so wall mode lets it complete regardless of the crash mode:
//! `Lost`/`Frozen` act on the queued backlog only, which is
//! redistributed by the very code sim mode runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dlb_trace::{SharedSink, TraceEvent};
use dlb_workload::service::{Request, RequestSource};

use crate::group::ShardGroup;
use crate::hist::LatencyHistogram;
use crate::ring::SpscRing;
use crate::router::TriggerRouter;
use crate::scenario::ServiceScenario;
use crate::stats::{ServiceStats, WallTiming};

/// Per-shard SPSC work-ring capacity.  A request in the ring has left
/// its shard's queue — it no longer counts as depth and no plan or
/// crash can move it — so the ring holds only what keeps a worker fed
/// between two acceptor passes (a busy acceptor polls every few tens of
/// microseconds; a service demand is at least one tick).
const WORK_RING_CAP: usize = 4;

/// What the acceptor and the workers share: no locks, the work rings
/// and two atomics.
struct Shared {
    /// One SPSC work ring per shard: producer = the acceptor, consumer
    /// = the worker with `shard % workers == worker`.
    work: Vec<SpscRing<Request>>,
    /// Cleared when the acceptor exits; workers drain until then.
    accepting: AtomicBool,
    completed: AtomicU64,
}

/// Wall-clock duration of `ticks` ticks of `tick_us` microseconds
/// each.
///
/// PR 6 computed these as `Duration::from_micros(tick_us) * (ticks as
/// u32)` — a silent `u64 → u32` truncation for any tick past 2^32 (and
/// a potential `Duration * u32` overflow panic before that).
/// Multiplying in µs-space with saturation is exact for every
/// representable schedule (saturation kicks in past ~584k years).
fn ticks_to_duration(tick_us: u64, ticks: u64) -> Duration {
    Duration::from_micros(tick_us.saturating_mul(ticks))
}

/// Whole ticks of `tick_us` microseconds in `elapsed`, saturating at
/// `u64::MAX` (the inverse of [`ticks_to_duration`]).
fn duration_to_ticks(elapsed: Duration, tick_us: u64) -> u64 {
    u64::try_from(elapsed.as_micros() / u128::from(tick_us)).unwrap_or(u64::MAX)
}

/// What one [`Feeder::pass`] left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Requests are queued behind full work rings: pass again shortly.
    Busy,
    /// Nothing is queued: wait for the next scheduled arrival or fault.
    Idle,
    /// The schedule is replayed and every queue handed to the rings.
    Done,
}

/// The acceptor: the group over every shard and its cursors into the
/// precomputed schedule.
struct Feeder<'a> {
    group: ShardGroup,
    work: &'a [SpscRing<Request>],
    /// Every arrival, in tick order.
    arrivals: &'a [Request],
    /// `(tick, shard, up)` crash/recovery transitions, downs before
    /// ups on ties like the simulated engine.
    timeline: Vec<(u64, usize, bool)>,
    next_arrival: usize,
    next_fault: usize,
}

impl<'a> Feeder<'a> {
    /// The acceptor of a validated `scenario`, feeding `work`.
    fn new(
        scenario: &ServiceScenario,
        sink: Option<SharedSink>,
        work: &'a [SpscRing<Request>],
        arrivals: &'a [Request],
    ) -> Self {
        let router = TriggerRouter::new(scenario.shards, scenario.delta, scenario.f, scenario.seed)
            .expect("validate() checked the trigger parameters");
        let mut timeline = Vec::new();
        for c in &scenario.faults.crashes {
            timeline.push((c.at, c.proc, false));
            timeline.extend(c.recover_at.map(|at| (at, c.proc, true)));
        }
        timeline.sort_by_key(|&(at, _, up)| (at, up));
        Feeder {
            group: ShardGroup::new(router, scenario.faults.crash_mode, sink),
            work,
            arrivals,
            timeline,
            next_arrival: 0,
            next_fault: 0,
        }
    }

    /// One turn at tick `now`: replay the faults and arrivals due, then
    /// dequeue queue heads into the work rings (FIFO) as far as they
    /// take them.  Room is checked first: a dequeue runs the shrink
    /// trigger and cannot be undone.
    fn pass(&mut self, now: u64) -> Status {
        while let Some(&(at, s, up)) = self.timeline.get(self.next_fault) {
            if at > now {
                break;
            }
            if up {
                self.group.recover(s, at);
            } else {
                // A request already in a work ring or in service cannot
                // be yanked out of an OS thread: it completes whatever
                // the crash mode says.
                self.group.crash(s, at, None);
            }
            self.next_fault += 1;
        }
        while let Some(&r) = self.arrivals.get(self.next_arrival) {
            if r.arrival > now {
                break;
            }
            self.group.arrive(r, now);
            self.next_arrival += 1;
        }
        for (s, ring) in self.work.iter().enumerate() {
            while ring.len() < ring.capacity() {
                let Some(r) = self.group.dequeue(s, now) else {
                    break;
                };
                ring.try_push(r).expect("the ring's only producer saw room");
            }
        }
        if self.group.queued() > 0 {
            Status::Busy
        } else if self.next_due().is_some() {
            Status::Idle
        } else {
            Status::Done
        }
    }

    /// The tick of the next scheduled arrival or fault.
    fn next_due(&self) -> Option<u64> {
        let arrival = self.arrivals.get(self.next_arrival).map(|r| r.arrival);
        let fault = self.timeline.get(self.next_fault).map(|&(at, _, _)| at);
        arrival.into_iter().chain(fault).min()
    }

    /// The acceptor thread: [`pass`](Feeder::pass) against the wall
    /// clock until it reports [`Status::Done`], polling shortly while
    /// busy and sleeping toward the next scheduled tick while idle.
    /// Returns the group, for its counters.
    fn run(mut self, start: Instant, tick_us: u64, accepting: &AtomicBool) -> ShardGroup {
        loop {
            let now = duration_to_ticks(start.elapsed(), tick_us);
            let wait = match self.pass(now) {
                Status::Done => break,
                Status::Busy => Duration::from_micros(20),
                Status::Idle => {
                    let due = self.next_due().expect("an idle pass has a schedule left");
                    ticks_to_duration(tick_us, due).saturating_sub(start.elapsed())
                }
            };
            std::thread::sleep(wait);
        }
        accepting.store(false, Ordering::Release);
        self.group
    }
}

struct WorkerOut {
    hist: LatencyHistogram,
    per_shard_completed: Vec<(usize, u64)>,
}

enum Out {
    Group(Box<ShardGroup>),
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
            // The acceptor keeps feeding the rings from its queues
            // until everything drained, so "the acceptor exited and my
            // rings are empty" is a sound exit condition.
            if !shared.accepting.load(Ordering::Acquire)
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

/// Runs the scenario against the wall clock with one acceptor thread
/// and `workers` shard workers, and returns the report with the
/// throughput/latency figures filled in.
pub fn run_wall(
    scenario: &ServiceScenario,
    workers: usize,
    sink: Option<SharedSink>,
) -> Result<ServiceStats, String> {
    scenario.validate()?;
    let n = scenario.shards;
    let workers = workers.clamp(1, n);
    let shared = Shared {
        work: (0..n)
            .map(|_| SpscRing::with_capacity(WORK_RING_CAP))
            .collect(),
        accepting: AtomicBool::new(true),
        completed: AtomicU64::new(0),
    };

    // The whole request stream is precomputed so both engines replay
    // the same arrivals and the acceptor's hot loop does no generation.
    let mut source = RequestSource::new(scenario.load.clone(), scenario.seed);
    let mut arrivals = Vec::new();
    for t in 0..scenario.ticks {
        source.arrivals_at(t, &mut arrivals);
    }
    let issued = source.issued();

    let start = Instant::now();
    let jobs = 1 + workers;
    // Every loop below waits for all the others, so each index needs a
    // thread of its own: `par_map` guarantees that for `jobs == count`
    // (and pins it with a barrier test), not for a nested call.
    let results: Vec<Out> = dlb_pool::par_map(jobs, jobs, |i| {
        if i == 0 {
            let feeder = Feeder::new(scenario, sink.clone(), &shared.work, &arrivals);
            let group = feeder.run(start, scenario.tick_us, &shared.accepting);
            Out::Group(Box::new(group))
        } else {
            Out::Worker(worker_run(
                i - 1,
                workers,
                &shared,
                start,
                scenario.tick_us,
                sink.as_ref(),
            ))
        }
    });
    let elapsed = start.elapsed();

    let mut results = results.into_iter();
    let Some(Out::Group(group)) = results.next() else {
        unreachable!("index 0 is the acceptor");
    };
    let mut latency = LatencyHistogram::new();
    let mut per_shard_completed = vec![0u64; n];
    for out in results {
        if let Out::Worker(w) = out {
            latency.merge(&w.hist);
            for (s, c) in w.per_shard_completed {
                per_shard_completed[s] = c;
            }
        }
    }
    let completed = shared.completed.load(Ordering::Acquire);
    if completed + group.dropped != issued {
        return Err(format!(
            "conservation broken: issued {issued} != completed {completed} + dropped {}",
            group.dropped
        ));
    }
    if shared.work.iter().any(|r| !r.is_empty()) {
        return Err("the wall engine exited with undrained work rings".into());
    }
    if let Some(sink) = &sink {
        sink.flush();
    }
    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    Ok(ServiceStats {
        mode: "wall",
        shards: n,
        workers,
        seed: scenario.seed,
        ticks_run: duration_to_ticks(elapsed, scenario.tick_us),
        issued,
        completed,
        dropped: group.dropped,
        in_flight: 0,
        redirected: group.redirected,
        rebalances: group.router().rebalances(),
        crashes: group.crashes,
        recoveries: group.recoveries,
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
    use crate::home_shard;
    use dlb_faults::{CrashEvent, CrashMode, FaultPlan};
    use dlb_workload::service::{RatePhase, ServiceLoad};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn quick_scenario() -> ServiceScenario {
        ServiceScenario {
            shards: 4,
            ticks: 200,
            seed: 9,
            delta: 2,
            f: 2.0,
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
        let stats = run_wall(&quick_scenario(), 3, None).expect("run");
        assert_eq!(stats.mode, "wall");
        assert_eq!(stats.workers, 3);
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
        let stats = run_wall(&scenario, 2, None).expect("run");
        assert_eq!(stats.crashes, 1);
        assert_eq!(
            stats.recoveries, 1,
            "recovery past the last arrival must still fire"
        );
        assert!(stats.conservation_holds());
        assert_eq!(stats.completed, stats.issued);
    }

    // The acceptor under a deterministic scheduler: the real
    // `Feeder::pass` over real work rings, but no threads and no clock
    // — one seeded scheduler decides when the acceptor passes, which
    // simulated worker moves and when `now` advances, and the
    // conservation ledger is checked after every single move.

    const N: usize = 8;
    const STEP_BOUND: usize = 200_000;

    /// One deterministic run.  Of the scenario only the trigger
    /// parameters, the seed and the fault plan matter: the arrivals are
    /// explicit.
    struct Case {
        scenario: ServiceScenario,
        requests: Vec<Request>,
        work_cap: usize,
        /// Relative odds of the scheduler's three moves: advance `now`,
        /// run an acceptor pass, step a worker.
        odds: [u32; 3],
    }

    fn scenario(delta: usize, f: f64, seed: u64) -> ServiceScenario {
        ServiceScenario {
            shards: N,
            ticks: 1,
            seed,
            delta,
            f,
            load: ServiceLoad {
                phases: vec![RatePhase {
                    ticks: 1,
                    rate: 0.0,
                }],
                keys: 1,
                zipf_s: 0.0,
                service_ticks: (1, 1),
            },
            tick_us: 1,
            faults: FaultPlan::reliable(),
        }
    }

    impl Case {
        /// Ring capacity, trigger parameters, the arrivals, the crash
        /// plan and the scheduler's odds, all drawn from the one seed —
        /// which therefore replays a failure.
        fn from_seed(seed: u64) -> Case {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut scenario = scenario(
                rng.gen_range(1..=3usize),
                [1.2, 1.5, 1.9][rng.gen_range(0..3usize)],
                seed,
            );
            let mut requests = Vec::new();
            for arrival in 0..30 {
                for _ in 0..rng.gen_range(0..=4u32) {
                    // Half the traffic hits two hot keys.
                    let hot = rng.gen_bool(0.5);
                    requests.push(Request {
                        id: requests.len() as u64,
                        key: rng.gen_range(0..if hot { 2u64 } else { 64 }),
                        arrival,
                        service: rng.gen_range(1..=3u64),
                    });
                }
            }
            scenario.faults.crash_mode =
                [CrashMode::Lost, CrashMode::Frozen][rng.gen_range(0..2usize)];
            scenario.faults.crashes = match rng.gen_range(0..4u32) {
                0 => vec![],
                // A few shards crash; most of them rejoin.
                1 => (0..N)
                    .filter(|_| rng.gen_bool(0.25))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|proc| {
                        let at = rng.gen_range(0..30u64);
                        CrashEvent {
                            proc,
                            at,
                            recover_at: rng.gen_bool(0.75).then(|| at + rng.gen_range(1..=15u64)),
                        }
                    })
                    .collect(),
                // Every shard is down for a window…
                2 => (0..N)
                    .map(|proc| CrashEvent {
                        proc,
                        at: rng.gen_range(8..14u64),
                        recover_at: Some(rng.gen_range(16..26u64)),
                    })
                    .collect(),
                // …or for good.
                _ => (0..N)
                    .map(|proc| CrashEvent {
                        proc,
                        at: rng.gen_range(10..20u64),
                        recover_at: None,
                    })
                    .collect(),
            };
            Case {
                scenario,
                requests,
                work_cap: rng.gen_range(2..=3usize),
                odds: [
                    rng.gen_range(1..=3u32),
                    rng.gen_range(1..=4u32),
                    rng.gen_range(1..=4u32),
                ],
            }
        }
    }

    struct Outcome {
        per_shard_completed: Vec<u64>,
        rebalances: u64,
    }

    fn run(case: &Case) -> Result<Outcome, String> {
        let work: Vec<SpscRing<Request>> = (0..N)
            .map(|_| SpscRing::with_capacity(case.work_cap))
            .collect();
        let mut feeder = Feeder::new(&case.scenario, None, &work, &case.requests);
        let mut done = false;
        // One simulated worker per shard: what it serves, and until when.
        let mut serving: Vec<Option<u64>> = vec![None; N];
        let mut completed = vec![0u64; N];
        let mut rng = ChaCha8Rng::seed_from_u64(case.scenario.seed ^ 0x5c4e_d01e);
        let mut now = 0u64;
        for step in 0..STEP_BOUND {
            let pick = rng.gen_range(0..case.odds.iter().sum::<u32>());
            if pick < case.odds[0] {
                now += 1;
            } else if pick < case.odds[0] + case.odds[1] {
                // Like the thread it stands for, an acceptor that
                // reported `Done` never runs again.
                if !done {
                    done = feeder.pass(now) == Status::Done;
                }
            } else {
                let s = rng.gen_range(0..N);
                match serving[s] {
                    Some(due) if due <= now => {
                        serving[s] = None;
                        completed[s] += 1;
                    }
                    Some(_) => {}
                    None => serving[s] = work[s].pop().map(|r| now + r.service),
                }
            }

            let issued = feeder.next_arrival as u64;
            let in_rings: usize = work.iter().map(|r| r.len()).sum();
            let in_service = serving.iter().flatten().count();
            let held = completed.iter().sum::<u64>()
                + feeder.group.dropped
                + (feeder.group.queued() + in_rings + in_service) as u64;
            if issued != held {
                return Err(format!(
                    "step {step}: {issued} requests issued, {held} accounted for"
                ));
            }

            if done && in_rings == 0 && in_service == 0 {
                if feeder.group.queued() > 0 {
                    return Err(format!(
                        "the acceptor left {} requests queued",
                        feeder.group.queued()
                    ));
                }
                if feeder.next_arrival != case.requests.len() {
                    return Err(format!("only {issued} requests were ever issued"));
                }
                if feeder.next_fault != feeder.timeline.len() {
                    return Err(format!("only {} transitions fired", feeder.next_fault));
                }
                return Ok(Outcome {
                    per_shard_completed: completed,
                    rebalances: feeder.group.router().rebalances(),
                });
            }
        }
        Err(format!(
            "not finished after {STEP_BOUND} steps (done: {done})"
        ))
    }

    proptest! {
        /// To replay a failure, `run(&Case::from_seed(seed))` with the
        /// seed the failure message prints.
        #[test]
        fn every_schedule_conserves_and_terminates(seed in any::<u64>()) {
            if let Err(e) = run(&Case::from_seed(seed)) {
                return Err(TestCaseError::fail(e));
            }
        }
    }

    /// The half of the trigger rule wall mode once lacked: a shard
    /// whose queue *shrinks* rebalances too.  A burst lands on shard 0
    /// while every other shard is down and known to be (so its grow
    /// trigger finds no partner and only resets its baseline), the
    /// others rejoin long before shard 0 could serve the burst alone,
    /// and no further request ever arrives — the only event left that
    /// can fire a trigger is a dequeue.
    #[test]
    fn a_draining_shard_rebalances_after_arrivals_stop() {
        let key = (0..).find(|&k| home_shard(k, N) == 0).expect("some key");
        let mut scenario = scenario(2, 2.0, 7);
        scenario.faults.crashes = (1..N)
            .map(|proc| CrashEvent {
                proc,
                at: 0,
                recover_at: Some(40),
            })
            .collect();
        let case = Case {
            scenario,
            requests: (0..64)
                .map(|id| Request {
                    id,
                    key,
                    arrival: 10,
                    service: 4,
                })
                .collect(),
            work_cap: 2,
            odds: [1, 2, 2],
        };
        let outcome = run(&case).expect("run");
        assert!(
            outcome.per_shard_completed[0] < 64,
            "the burst completed on one shard only: {:?}",
            outcome.per_shard_completed
        );
        // No arrival found a partner alive: whatever fired, a dequeue
        // fired.
        assert!(outcome.rebalances > 0, "no shard that drained rebalanced");
    }
}
