//! The simulated-clock serving engine.
//!
//! A single-threaded event loop over [`dlb_net::CalendarQueue`] around
//! one `ShardGroup` that owns every shard: completions are scheduled
//! events, the fault plan's crashes/recoveries are events pushed up
//! front, and each tick's arrivals go from the open-loop source
//! straight to the group once the tick's due events have popped.  The
//! shard state machine — placement, both triggers, plans, crash
//! redistribution — is `crate::group`, the same code the wall acceptors
//! run; what lives here is only what is about simulated time: who is
//! in service until when, the latency histograms, the ledger.
//! Being single-threaded is the point — the report is a pure function
//! of `(scenario, seed)`, bit-identical across repeated runs *and*
//! across `--workers` values (the worker count is deliberately ignored
//! here), which is what lets CI golden-gate the stats JSON.
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

enum Ev {
    /// `epoch` guards against completions of a since-crashed shard.
    Complete {
        shard: usize,
        epoch: u64,
        req: Request,
    },
    Down(usize),
    Up(usize),
}

/// Runs the scenario on the simulated clock and returns the report.
///
/// Errors if the conservation ledger ever breaks or the drain exceeds a
/// generous safety horizon (which would mean requests are stuck).
pub fn run_sim(
    scenario: &ServiceScenario,
    sink: Option<SharedSink>,
) -> Result<ServiceStats, String> {
    scenario.validate()?;
    let n = scenario.shards;
    let injector = FaultInjector::new(scenario.faults.clone(), n)?;
    let mut source = RequestSource::new(scenario.load.clone(), scenario.seed);
    let mut eq: CalendarQueue<Ev> = CalendarQueue::new();
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
    // The whole service is one group, so nothing ever crosses a group
    // boundary and the outbox stays empty; what is left here is what is
    // about simulated time.
    let router = TriggerRouter::new(n, scenario.delta, scenario.f, scenario.seed)?;
    let mut group = ShardGroup::new((0, n), router, injector.crash_mode(), sink.clone());
    let mut in_service: Vec<Option<Request>> = vec![None; n];
    let mut epoch = vec![0u64; n];
    let mut hists = vec![LatencyHistogram::new(); n];
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
                    req,
                } => {
                    if epoch[shard] != at_dispatch {
                        continue; // the shard crashed since; already handled
                    }
                    in_service[shard] = None;
                    completed += 1;
                    per_shard_completed[shard] += 1;
                    let latency = now - req.arrival;
                    hists[shard].record(latency);
                    group.trace(|| TraceEvent::RequestCompleted {
                        step: now,
                        req: req.id,
                        shard: shard as u64,
                        latency_ticks: latency,
                    });
                }
                Ev::Down(s) => {
                    epoch[s] += 1;
                    group.crash(s, now, in_service[s].take());
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
        for s in 0..n {
            if in_service[s].is_some() {
                continue;
            }
            if let Some(req) = group.dequeue(s, now) {
                in_service[s] = Some(req);
                eq.push(
                    now + req.service,
                    Ev::Complete {
                        shard: s,
                        epoch: epoch[s],
                        req,
                    },
                );
            }
        }
        debug_assert!(group.outbox.is_empty(), "one group owns every shard");
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

    let mut latency = LatencyHistogram::new();
    for h in &hists {
        latency.merge(h);
    }
    Ok(ServiceStats {
        mode: "sim",
        shards: n,
        workers: 1,
        acceptors: 1,
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
        handoffs: 0,
        per_acceptor_rebalances: vec![],
        latency,
        per_shard_completed,
        wall: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_faults::{CrashEvent, CrashMode, FaultPlan};
    use dlb_json::ToJson;
    use dlb_trace::BufferSink;
    use dlb_workload::service::{RatePhase, ServiceLoad};

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
            tick_us: 50,
            acceptors: 1,
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
        ];
        for (scenario, stats, trace) in pins {
            assert_eq!(pin(&scenario), (stats.to_string(), trace.to_string()));
        }
    }
}
