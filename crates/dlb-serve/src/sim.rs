//! The serving driver, on a simulated clock.
//!
//! A single-threaded event loop over [`dlb_net::CalendarQueue`] around
//! one `ShardGroup` that owns every shard: completions are scheduled
//! events, the fault plan's crashes/recoveries are events pushed up
//! front, and each tick's arrivals go from the open-loop source
//! straight to the group once the tick's due events have popped.  The
//! shard state machine — placement, both triggers, plans, crash
//! redistribution — is `crate::group`; what lives here is only what is
//! about simulated time: who is in service until when, the latency
//! histogram, the ledger.  Time is the paper's: discrete steps, one
//! tick per loop iteration.  Being single-threaded is the point — the
//! report is a pure function of `(scenario, seed)`, bit-identical
//! across repeated runs, which is what lets CI golden-gate the stats
//! JSON.
//!
//! Crash composition with `dlb-faults`: the request a crashing shard
//! was *serving* is handed to `ShardGroup::crash`, which lets it follow
//! the plan's [`dlb_faults::CrashMode`] (`Lost` drops it, `Frozen`
//! requeues it to restart from scratch); its *queued* requests are
//! always redistributed — a request is not state that can be frozen
//! away, the client is still waiting.  The conservation ledger `issued
//! == completed + dropped + in_flight` is checked after every tick,
//! not just at the end.

use dlb_faults::FaultInjector;
use dlb_net::CalendarQueue;
use dlb_trace::{SharedSink, TraceEvent};
use dlb_workload::service::{Request, RequestSource};

use crate::group::ShardGroup;
use crate::hist::LatencyHistogram;
use crate::router::TriggerRouter;
use crate::scenario::ServiceScenario;
use crate::stats::ServiceStats;

/// 24 bytes: a completion names its shard, not its request — while
/// `epoch` matches, the request is the one in `in_service[shard]`.
#[derive(Clone, Copy)]
enum Ev {
    /// `epoch` guards against completions of a since-crashed shard.
    Complete {
        shard: usize,
        epoch: u64,
    },
    Down(usize),
    Up(usize),
}

/// The calendar window that holds every completion: one is pushed at
/// most `service_ticks.1` ahead of the tick whose due events have just
/// popped, so `service_ticks.1 + 1` buckets (8 at `[2, 6]`) cover it,
/// capped at the 1024 of [`CalendarQueue::new`].  The crash schedule
/// waits in the queue's overflow heap; pop order does not depend on
/// the window.
fn queue_window(scenario: &ServiceScenario) -> usize {
    let farthest = scenario.load.service_ticks.1.saturating_add(1);
    usize::try_from(farthest.min(1024)).expect("at most 1024")
}

/// Runs the scenario on the simulated clock and returns the report.
///
/// Errors if the conservation ledger ever breaks or the drain exceeds a
/// generous safety horizon (which would mean requests are stuck).
pub fn run_sim(
    scenario: &ServiceScenario,
    sink: Option<SharedSink>,
) -> Result<ServiceStats, String> {
    run_windowed(scenario, sink, queue_window(scenario))
}

/// [`run_sim`] on a calendar ring of `window` buckets.
fn run_windowed(
    scenario: &ServiceScenario,
    sink: Option<SharedSink>,
    window: usize,
) -> Result<ServiceStats, String> {
    scenario.validate()?;
    let n = scenario.shards;
    let injector = FaultInjector::new(scenario.faults.clone(), n)?;
    let mut source = RequestSource::new(scenario.load.clone(), scenario.seed);
    let mut eq: CalendarQueue<Ev> = CalendarQueue::with_capacity(window);
    // Crash/recovery events first: construction-time pushes carry the
    // earliest stamps, so within a tick they pop before completions,
    // and arrivals come after both (down-then-reroute, never
    // route-then-down).
    for c in injector.crashes() {
        eq.push(c.at, Ev::Down(c.proc));
        if let Some(r) = c.recover_at {
            eq.push(r, Ev::Up(c.proc));
        }
    }
    // The group is the whole shard machine; what is left here is what
    // is about simulated time.
    let router = TriggerRouter::new(n, scenario.delta, scenario.f, scenario.seed)?;
    let mut group = ShardGroup::new(router, injector.crash_mode(), sink.clone());
    let mut in_service: Vec<Option<Request>> = vec![None; n];
    // One bit per shard with nothing in service.
    let mut idle = vec![0u64; n.div_ceil(64)];
    (0..n).for_each(|s| set_idle(&mut idle, s));
    let mut epoch = vec![0u64; n];
    let mut latency = LatencyHistogram::new();
    let mut per_shard_completed = vec![0u64; n];
    let mut completed = 0u64;

    let horizon = scenario.ticks;
    // Worst-case drain: every request serialised on one shard, plus the
    // latest fault event.  Exceeding this means requests are stuck.
    let fault_horizon = injector
        .crashes()
        .iter()
        .map(|c| c.recover_at.unwrap_or(c.at))
        .max()
        .unwrap_or(0);
    let mut batch = Vec::new();
    let mut now = 0u64;
    loop {
        while let Some((_, ev)) = eq.pop_due(now) {
            match ev {
                Ev::Complete {
                    shard,
                    epoch: at_dispatch,
                } => {
                    if epoch[shard] != at_dispatch {
                        continue; // the shard crashed since; already handled
                    }
                    let req = in_service[shard]
                        .take()
                        .expect("a shard whose epoch matches is serving");
                    set_idle(&mut idle, shard);
                    completed += 1;
                    per_shard_completed[shard] += 1;
                    let ticks = now - req.arrival;
                    latency.record(ticks);
                    group.trace(|| TraceEvent::RequestCompleted {
                        step: now,
                        req: req.id,
                        shard: shard as u64,
                        latency_ticks: ticks,
                    });
                }
                Ev::Down(s) => {
                    epoch[s] += 1;
                    group.crash(s, now, in_service[s].take());
                    set_idle(&mut idle, s);
                }
                Ev::Up(s) => group.recover(s, now),
            }
        }
        if now < horizon {
            batch.clear();
            source.arrivals_at(now, &mut batch);
            for &r in &batch {
                group.arrive(r, now);
            }
        }
        // Dispatch idle shards (a crashed shard's queue is empty).
        dispatch(&mut idle, |s| {
            let Some(req) = group.dequeue(s, now) else {
                return false;
            };
            in_service[s] = Some(req);
            eq.push(
                now + req.service,
                Ev::Complete {
                    shard: s,
                    epoch: epoch[s],
                },
            );
            true
        });
        let serving = in_service.iter().filter(|s| s.is_some()).count();
        let in_flight = (group.queued() + serving) as u64;
        if source.issued() != completed + group.dropped + in_flight {
            return Err(format!(
                "conservation broken at tick {now}: issued {} != completed {completed} + dropped {} \
                 + in_flight {in_flight}",
                source.issued(),
                group.dropped,
            ));
        }
        if now >= horizon && in_flight == 0 && eq.is_empty() {
            break;
        }
        let safety = horizon
            .max(fault_horizon)
            .saturating_add(
                source
                    .issued()
                    .saturating_mul(scenario.load.service_ticks.1),
            )
            .saturating_add(1);
        if now > safety {
            return Err(format!("drain exceeded safety horizon {safety}"));
        }
        now += 1;
    }
    if let Some(sink) = &sink {
        sink.flush();
    }
    Ok(ServiceStats {
        shards: n,
        seed: scenario.seed,
        ticks_run: now,
        issued: source.issued(),
        completed,
        dropped: group.dropped,
        in_flight: 0,
        redirected: group.redirected,
        rebalances: group.router().rebalances(),
        crashes: group.crashes,
        recoveries: group.recoveries,
        latency,
        per_shard_completed,
    })
}

fn set_idle(idle: &mut [u64], s: usize) {
    idle[s / 64] |= 1 << (s % 64);
}

/// Offers every idle shard, ascending, to `serve`, which reports whether
/// it took a request into service; a shard that did leaves the set.  A
/// plan fired by a dequeue moves queued requests but makes no shard idle
/// or busy, so this offers exactly the shards a scan of all `n` skipping
/// the busy ones would, in the same order.
fn dispatch(idle: &mut [u64], mut serve: impl FnMut(usize) -> bool) {
    for (w, word) in idle.iter_mut().enumerate() {
        let mut bits = *word;
        while bits != 0 {
            let bit = bits & bits.wrapping_neg();
            bits ^= bit;
            if serve(w * 64 + bit.trailing_zeros() as usize) {
                *word ^= bit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_faults::{CrashEvent, CrashMode, FaultPlan};
    use dlb_json::ToJson;
    use dlb_trace::BufferSink;
    use dlb_workload::service::{RatePhase, ServiceLoad};
    use proptest::prelude::*;

    fn scenario() -> ServiceScenario {
        ServiceScenario {
            shards: 4,
            ticks: 400,
            seed: 11,
            delta: 2,
            f: 2.0,
            load: ServiceLoad {
                phases: vec![
                    RatePhase {
                        ticks: 100,
                        rate: 1.2,
                    },
                    RatePhase {
                        ticks: 100,
                        rate: 3.0,
                    },
                ],
                keys: 64,
                zipf_s: 1.1,
                service_ticks: (1, 3),
            },
            faults: FaultPlan::reliable(),
        }
    }

    fn with_crash(mode: CrashMode) -> ServiceScenario {
        let mut s = scenario();
        s.faults.crash_mode = mode;
        s.faults.crashes = vec![CrashEvent {
            proc: 1,
            at: 150,
            recover_at: Some(300),
        }];
        s
    }

    #[test]
    fn reliable_run_completes_everything() {
        let stats = run_sim(&scenario(), None).expect("run");
        assert!(stats.issued > 0);
        assert_eq!(stats.completed, stats.issued);
        assert_eq!(stats.dropped, 0);
        assert!(stats.conservation_holds());
        assert_eq!(stats.latency.count(), stats.completed);
        assert_eq!(
            stats.per_shard_completed.iter().sum::<u64>(),
            stats.completed
        );
        assert!(stats.rebalances > 0, "skewed keys must fire the trigger");
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = run_sim(&scenario(), None).unwrap().to_json().render();
        let b = run_sim(&scenario(), None).unwrap().to_json().render();
        assert_eq!(a, b);
    }

    #[test]
    fn lost_crash_drops_at_most_the_in_service_request() {
        let stats = run_sim(&with_crash(CrashMode::Lost), None).expect("run");
        assert!(stats.crashes == 1 && stats.recoveries == 1);
        assert!(stats.dropped <= 1, "only the in-service request can die");
        assert!(stats.conservation_holds());
        assert!(stats.redirected > 0, "queued requests were redistributed");
    }

    #[test]
    fn frozen_crash_drops_nothing() {
        let stats = run_sim(&with_crash(CrashMode::Frozen), None).expect("run");
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.completed, stats.issued);
        assert!(stats.conservation_holds());
    }

    #[test]
    fn trace_carries_the_request_lifecycle() {
        let buffer = BufferSink::new();
        let stats = run_sim(&with_crash(CrashMode::Lost), Some(buffer.handle())).expect("run");
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
        assert_eq!(routed, stats.issued, "every request is routed once");
        assert_eq!(done, stats.completed);
        assert_eq!(redirected, stats.redirected);
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::CrashRecovered { .. })));
    }

    /// A recovery due after the last arrival still fires: the drain
    /// runs until the fault schedule is spent, not only until the
    /// queues are empty.
    #[test]
    fn late_fault_transitions_still_fire() {
        let mut s = scenario();
        s.faults.crash_mode = CrashMode::Frozen;
        // Arrivals stop at tick 400; both transitions come after.
        s.faults.crashes = vec![CrashEvent {
            proc: 2,
            at: 450,
            recover_at: Some(520),
        }];
        let stats = run_sim(&s, None).expect("run");
        assert_eq!((stats.crashes, stats.recoveries), (1, 1));
        assert!(stats.ticks_run >= 520, "ran to tick {}", stats.ticks_run);
        assert!(stats.conservation_holds());
        assert_eq!(stats.completed, stats.issued);
    }

    /// The shrink half of the trigger rule, end to end: a shard whose
    /// queue drains rebalances too.  A burst lands on one shard while
    /// every other shard is down (so its grow trigger finds no partner
    /// and only resets its baseline), the others rejoin long before it
    /// could serve the burst alone, and no request arrives after the
    /// burst — the only event left that can fire a trigger is a
    /// dequeue.
    #[test]
    fn a_draining_shard_rebalances_after_arrivals_stop() {
        const N: usize = 8;
        let mut s = scenario();
        s.shards = N;
        s.ticks = 11;
        // One key, so one home shard; 64 requests at tick 10.
        s.load.keys = 1;
        s.load.zipf_s = 0.0;
        s.load.phases = vec![
            RatePhase {
                ticks: 10,
                rate: 0.0,
            },
            RatePhase {
                ticks: 1,
                rate: 64.0,
            },
        ];
        s.load.service_ticks = (4, 4);
        let home = crate::home_shard(0, N);
        s.faults.crashes = (0..N)
            .filter(|&proc| proc != home)
            .map(|proc| CrashEvent {
                proc,
                at: 0,
                recover_at: Some(40),
            })
            .collect();
        let buffer = BufferSink::new();
        let stats = run_sim(&s, Some(buffer.handle())).expect("run");
        assert_eq!((stats.issued, stats.completed), (64, 64));
        assert!(
            stats.per_shard_completed[home] < 64,
            "the burst completed on one shard only: {:?}",
            stats.per_shard_completed
        );
        // No request arrives after tick 10, and the crashes at tick 0
        // found every queue empty: a redirect after tick 10 was fired
        // by a dequeue.
        let moved_late = buffer
            .take()
            .iter()
            .any(|e| matches!(e, TraceEvent::RequestsRedirected { step, .. } if *step > 10));
        assert!(moved_late, "no shard that drained rebalanced");
    }

    /// 64-bit FNV-1a, as `benchmark/src/check.rs` computes it.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// SHA-256 (FIPS 180-4) as lowercase hex — what `sha256sum` prints.
    fn sha256(data: &[u8]) -> String {
        const K: [u32; 64] = [
            0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
            0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
            0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
            0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
            0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
            0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
            0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
            0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
            0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
            0xc67178f2,
        ];
        let mut h: [u32; 8] = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        for block in msg.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (t, word) in block.chunks_exact(4).enumerate() {
                w[t] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
            }
            for t in 16..64 {
                let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
                let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
                w[t] = w[t - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[t - 7])
                    .wrapping_add(s1);
            }
            let mut v = h;
            for t in 0..64 {
                let s1 = v[4].rotate_right(6) ^ v[4].rotate_right(11) ^ v[4].rotate_right(25);
                let ch = (v[4] & v[5]) ^ (!v[4] & v[6]);
                let t1 = v[7]
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[t])
                    .wrapping_add(w[t]);
                let s0 = v[0].rotate_right(2) ^ v[0].rotate_right(13) ^ v[0].rotate_right(22);
                let maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
                v = [
                    t1.wrapping_add(s0.wrapping_add(maj)),
                    v[0],
                    v[1],
                    v[2],
                    v[3].wrapping_add(t1),
                    v[4],
                    v[5],
                    v[6],
                ];
            }
            for (a, b) in h.iter_mut().zip(v) {
                *a = a.wrapping_add(b);
            }
        }
        h.iter().map(|x| format!("{x:08x}")).collect()
    }

    #[test]
    fn sha256_matches_the_published_vectors() {
        assert_eq!(
            sha256(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    /// `(FNV-1a of the rendered stats, SHA-256 of the JSONL trace)`.
    fn pin(s: &ServiceScenario) -> (String, String) {
        let buffer = BufferSink::new();
        let stats = run_sim(s, Some(buffer.handle())).expect("run");
        let mut trace = Vec::new();
        for ev in buffer.take() {
            ev.write_line(&mut trace);
            trace.push(b'\n');
        }
        (
            format!("{:016x}", fnv1a(stats.to_json().render().as_bytes())),
            sha256(&trace),
        )
    }

    /// δ = 3 on 12 shards: four-member plans, the only way to get two
    /// donors *and* two receivers in one balance.
    fn wide_plans() -> ServiceScenario {
        let mut s = scenario();
        s.shards = 12;
        s.delta = 3;
        s.f = 1.5;
        s.load.phases = vec![
            RatePhase {
                ticks: 100,
                rate: 4.0,
            },
            RatePhase {
                ticks: 100,
                rate: 9.0,
            },
        ];
        s.load.keys = 48;
        s.faults.crashes = vec![CrashEvent {
            proc: 7,
            at: 120,
            recover_at: Some(260),
        }];
        s
    }

    /// Every shard is down from tick 160 to 180: arrivals in the window
    /// and the last crash's orphans are dropped.
    fn blackout() -> ServiceScenario {
        let mut s = scenario();
        s.faults.crash_mode = CrashMode::Lost;
        s.faults.crashes = (0..4)
            .map(|proc| CrashEvent {
                proc,
                at: 140 + 5 * proc as u64,
                recover_at: Some(180 + 10 * proc as u64),
            })
            .collect();
        s
    }

    /// The benchmark's `serve_sim` shape scaled down: 64 shards, δ = 2,
    /// f = 2.0, several arrivals a tick, two `lost` crashes — what pins
    /// the order of one tick: crashes, then completions, then arrivals.
    fn tick_order() -> ServiceScenario {
        let mut s = scenario();
        s.shards = 64;
        s.ticks = 900;
        s.load.phases = [8.0, 14.0, 3.0]
            .map(|rate| RatePhase { ticks: 300, rate })
            .to_vec();
        s.load.keys = 1000;
        s.load.service_ticks = (2, 6);
        s.faults.crash_mode = CrashMode::Lost;
        s.faults.crashes = vec![
            CrashEvent {
                proc: 3,
                at: 360,
                recover_at: Some(600),
            },
            CrashEvent {
                proc: 40,
                at: 450,
                recover_at: Some(750),
            },
        ];
        s
    }

    /// 130 shards, δ = 3: three words of one bit per shard, a crash in
    /// each (shard 5 recovers, 70 recovers, 129 stays down), and a
    /// middle phase above what the shards can serve.
    fn wide_shards(mode: CrashMode) -> ServiceScenario {
        let mut s = scenario();
        s.shards = 130;
        s.ticks = 600;
        s.delta = 3;
        s.f = 1.5;
        s.load.phases = [10.0, 36.0, 4.0]
            .map(|rate| RatePhase { ticks: 200, rate })
            .to_vec();
        s.load.keys = 2000;
        s.load.service_ticks = (2, 6);
        s.faults.crash_mode = mode;
        s.faults.crashes = [(5, 150, Some(400)), (70, 250, Some(450)), (129, 300, None)]
            .map(|(proc, at, recover_at)| CrashEvent {
                proc,
                at,
                recover_at,
            })
            .to_vec();
        s
    }

    #[test]
    fn tick_order_crash_lands_among_completions_and_arrivals() {
        let buffer = BufferSink::new();
        let stats = run_sim(&tick_order(), Some(buffer.handle())).expect("run");
        assert_eq!(stats.dropped, 2, "both crashes caught a request in service");
        let events = buffer.take();
        for at in [360, 450] {
            let busy = |pick: fn(&TraceEvent) -> bool| {
                events.iter().any(|e| e.step() == Some(at) && pick(e))
            };
            assert!(busy(|e| matches!(e, TraceEvent::FaultInjected { .. })));
            assert!(busy(|e| matches!(e, TraceEvent::RequestCompleted { .. })));
            assert!(busy(|e| matches!(e, TraceEvent::RequestRouted { .. })));
        }
    }

    /// Runs the committed pins do not reach, captured before the
    /// machine was rewritten under them — the first three at the parent
    /// of the PR that moved it into `group.rs` (commit 8587a86,
    /// `Engine::{route, apply_plan, crash, recover}`): it must
    /// reproduce them to the byte.
    #[test]
    fn parent_captured_pins_hold() {
        // `Frozen`, with a request in service on shard 1 when it
        // crashes: the `Lost` twin of the same run drops exactly it.
        let lost = run_sim(&with_crash(CrashMode::Lost), None).expect("run");
        assert_eq!(lost.dropped, 1, "a request was in service at the crash");
        let pins = [
            (
                with_crash(CrashMode::Frozen),
                "9cc126559c3ac4b2",
                "73b23483c017d2687e2bf0df559879ae0c49fac995e3df4671e5ada803ab7203",
            ),
            // 149 of its 1104 plans have two donors and two receivers.
            (
                wide_plans(),
                "39317fe7dfbf0f23",
                "50fcae3ee4ff508204f9fa7bc3f9c48b7abe0fbc08683b0ed218a29ad54e7c5f",
            ),
            (
                blackout(),
                "9358d312693c7b75",
                "ecddab0eb4f34cf2bb1d25c049787298a784fdcbf7d4ef6db00cac0c17443641",
            ),
            // Captured at commit 904c278, where a tick's arrivals still
            // went through the calendar queue as events.
            (
                tick_order(),
                "b021504d00f656ec",
                "ac9c0467a211138b55a06d01348059bd1461730fc5140f33b62f4bf2169cd1ae",
            ),
            // Captured at commit 1d62f5d, before dispatch walked a
            // bitset of idle shards: the walk crosses two words.
            (
                wide_shards(CrashMode::Frozen),
                "6ceff7f0dff36b8a",
                "42babe447cfbd9b7c7c54f9f7b08af0c7e1bc500e528edb588fdbbb81f7481b9",
            ),
            // Drops 2: two of the three crashes catch a request in service.
            (
                wide_shards(CrashMode::Lost),
                "132b9680eda90038",
                "0e11911bcf8bcbff33c6385d0ac8a71681bd2164aabda1429096fada48d23998",
            ),
        ];
        for (scenario, stats, trace) in pins {
            assert_eq!(pin(&scenario), (stats.to_string(), trace.to_string()));
        }
    }

    /// The rendered stats of `s` on the 1024-bucket ring the queue had
    /// before it was sized to the service times: the window oracle.
    fn on_the_wide_ring(s: &ServiceScenario) -> Result<String, String> {
        run_windowed(s, None, 1024).map(|stats| stats.to_json().render())
    }

    fn rendered(s: &ServiceScenario) -> Result<String, String> {
        run_sim(s, None).map(|stats| stats.to_json().render())
    }

    /// `service_ticks.1 + 1` buckets (4 here, 8 on the benchmark's
    /// `[2, 6]`) pop what 1024 did: both crash modes, and a crash due
    /// far past either window, which waits in the overflow heap through
    /// the whole run and still fires on its tick.
    #[test]
    fn the_service_window_is_the_wide_ring() {
        assert_eq!(std::mem::size_of::<Ev>(), 24);
        assert_eq!(queue_window(&scenario()), 4);
        let mut far = with_crash(CrashMode::Lost);
        far.faults.crashes[0].at = 3000;
        far.faults.crashes[0].recover_at = Some(3500);
        for s in [
            with_crash(CrashMode::Lost),
            with_crash(CrashMode::Frozen),
            far,
        ] {
            let stats = run_sim(&s, None).expect("run");
            assert_eq!((stats.crashes, stats.recoveries), (1, 1));
            assert_eq!(rendered(&s), on_the_wide_ring(&s));
        }
    }

    /// The dispatch loop as it stood before the idle bitset: every
    /// shard, ascending, skipping the busy ones.  Returns the `(shard,
    /// request id)` pairs it put into service, in order.
    fn scan_reference(group: &mut ShardGroup, busy: &mut [bool], now: u64) -> Vec<(usize, u64)> {
        let mut served = Vec::new();
        for (s, busy) in busy.iter_mut().enumerate() {
            if *busy {
                continue;
            }
            if let Some(req) = group.dequeue(s, now) {
                *busy = true;
                served.push((s, req.id));
            }
        }
        served
    }

    proptest! {
        /// The identity argument for the idle walk, checked: on any busy
        /// set and queue state — dead shards, and dequeues whose shrink
        /// trigger fires a plan mid-walk, included — the walk puts the
        /// shards the scan puts into service, in its order, leaves every
        /// queue and the RNG where the scan leaves them, and ends with
        /// the bitset equal to the scan's idle set.  (One shard is no
        /// service: δ ≥ 1 partner needs n ≥ 2.)
        #[test]
        fn the_idle_walk_is_the_scan(
            n in 2usize..=200,
            delta in 1usize..=3,
            shards in prop::collection::vec((any::<bool>(), 0u64..6, 0u64..10), 200),
            down in prop::collection::vec(0usize..200, 0..4),
            seed in any::<u64>(),
        ) {
            let is_down = |s: usize| down.iter().any(|&d| d % n == s);
            let build = || {
                let router = TriggerRouter::new(n, delta.min(n - 1), 1.5, seed).expect("valid params");
                let mut g = ShardGroup::new(router, CrashMode::Lost, None);
                let mut next_id = 0;
                for (s, &(_, queued, l_old)) in shards[..n].iter().enumerate() {
                    if is_down(s) {
                        g.crash(s, 0, None);
                    } else {
                        g.stock(s, queued, l_old, &mut next_id);
                    }
                }
                g
            };
            // A dead shard is idle: `Down` took what it was serving.
            let mut busy: Vec<bool> = (0..n).map(|s| shards[s].0 && !is_down(s)).collect();
            let bits_of = |busy: &[bool]| {
                let mut idle = vec![0u64; n.div_ceil(64)];
                (0..n).filter(|&s| !busy[s]).for_each(|s| set_idle(&mut idle, s));
                idle
            };
            let mut idle = bits_of(&busy);
            let (mut walked, mut scanned) = (build(), build());
            let mut order = Vec::new();
            dispatch(&mut idle, |s| {
                let Some(req) = walked.dequeue(s, 1) else {
                    return false;
                };
                order.push((s, req.id));
                true
            });
            prop_assert_eq!(order, scan_reference(&mut scanned, &mut busy, 1));
            prop_assert_eq!(walked.queue_ids(), scanned.queue_ids());
            prop_assert_eq!(walked.router().word_pos(), scanned.router().word_pos());
            prop_assert_eq!(walked.router().rebalances(), scanned.router().rebalances());
            prop_assert_eq!(idle, bits_of(&busy));
        }

        /// Small random scenarios — windows of 2 to 64 buckets, up to
        /// three crashes anywhere from tick 0 to well past the last
        /// arrival, either mode — render the same stats (or the same
        /// error) on the service-sized ring as on the 1024-bucket one.
        #[test]
        fn any_service_window_is_the_wide_ring(
            shards in 2usize..12,
            ticks in 20u64..200,
            delta in 1usize..=3,
            rates in prop::collection::vec(0.0f64..4.0, 1..4),
            service in (1u64..6, 0u64..40),
            crashes in prop::collection::vec((0usize..12, 0u64..400, 0u64..200, any::<bool>()), 0..4),
            lost in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut s = scenario();
            s.shards = shards;
            s.ticks = ticks;
            s.seed = seed;
            s.delta = delta.min(shards - 1);
            s.f = 1.5;
            s.load.phases = rates
                .iter()
                .map(|&rate| RatePhase { ticks: 30, rate })
                .collect();
            s.load.service_ticks = (service.0, service.0 + service.1);
            s.faults.crash_mode = if lost { CrashMode::Lost } else { CrashMode::Frozen };
            s.faults.crashes = crashes
                .iter()
                .map(|&(proc, at, down_for, recovers)| CrashEvent {
                    proc: proc % shards,
                    at,
                    recover_at: recovers.then_some(at + 1 + down_for),
                })
                .collect();
            prop_assert_eq!(rendered(&s), on_the_wide_ring(&s));
        }
    }
}
