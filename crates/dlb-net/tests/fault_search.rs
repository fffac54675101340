//! A seeded search of desim's fault space.  Each case draws a network
//! and a `FaultPlan` over the whole space the protocol must survive:
//!
//! * n 2–39, δ 1–5 (below n), latency 0–16, jitter 0–19;
//! * control loss ≤ 0.6, transfer loss ≤ 0.3, duplication ≤ 0.4;
//! * up to 3 crashes in either crash mode, up to 2 partitions;
//! * up to 800 ticks of random generate / consume / idle actions.
//!
//! Conservation and the network's invariants must hold after every
//! tick, and after `quiesce` no processor may stay locked and no message
//! be in flight.  A reply that arrived after its operation's retries
//! were written off once leaked locks here within a few cases (a debug
//! build panicked on the reply count's underflow instead).
//!
//! The cases are seeded by index, so a failure names the case that
//! reproduces it.  Tier-1 runs 300; `PROPTEST_CASES`, the count the
//! repository's property tests read, sets another (CI runs 20 000 in
//! release).

use dlb_core::Params;
use dlb_faults::{CrashEvent, CrashMode, FaultPlan, PartitionEvent};
use dlb_net::{AsyncConfig, AsyncNetwork};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// One drawn case: the network, its plan and its workload.
#[derive(Debug)]
struct Case {
    n: usize,
    delta: usize,
    f: f64,
    latency: u64,
    steps: u64,
    /// Per tick and processor: generate below `p_gen`, consume below
    /// `p_gen + p_con`, else idle.
    p_gen: f64,
    p_con: f64,
    plan: FaultPlan,
}

impl Case {
    fn draw(rng: &mut ChaCha8Rng) -> Case {
        let n = rng.gen_range(2..=39);
        let steps = rng.gen_range(1..=800);
        // Fault times reach a little past the last tick, into `quiesce`.
        let horizon = steps + 20;
        let crashes = (0..rng.gen_range(0..=3))
            .map(|_| {
                let at = rng.gen_range(0..horizon);
                let recover_at = rng.gen_bool(0.5).then(|| at + rng.gen_range(1..=horizon));
                CrashEvent {
                    proc: rng.gen_range(0..n),
                    at,
                    recover_at,
                }
            })
            .collect();
        let partitions = (0..rng.gen_range(0..=2))
            .map(|_| {
                let from = rng.gen_range(0..horizon);
                let mut group: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.5)).collect();
                if group.is_empty() {
                    group.push(rng.gen_range(0..n));
                }
                PartitionEvent {
                    from,
                    until: from + rng.gen_range(1..=horizon),
                    group,
                }
            })
            .collect();
        let plan = FaultPlan {
            seed: rng.gen(),
            loss: rng.gen_range(0.0..=0.6),
            transfer_loss: rng.gen_range(0.0..=0.3),
            duplication: rng.gen_range(0.0..=0.4),
            jitter: rng.gen_range(0..=19),
            crash_mode: if rng.gen_bool(0.5) {
                CrashMode::Lost
            } else {
                CrashMode::Frozen
            },
            crashes,
            partitions,
        };
        let p_gen = rng.gen_range(0.0..=1.0);
        Case {
            n,
            delta: rng.gen_range(1..=5usize.min(n - 1)),
            f: rng.gen_range(1.05..=2.0),
            latency: rng.gen_range(0..=16),
            steps,
            p_gen,
            p_con: rng.gen_range(0.0..=1.0 - p_gen),
            plan,
        }
    }

    /// Runs the case; the first broken check, with the tick it broke at.
    fn run(&self, rng: &mut ChaCha8Rng) -> Result<(), String> {
        let params = Params::new(self.n, self.delta, self.f, 4).map_err(|e| e.to_string())?;
        let config = AsyncConfig::reliable(params, self.latency, rng.gen());
        let mut net = AsyncNetwork::with_faults(config, self.plan.clone())?;
        let mut actions = vec![0i8; self.n];
        for t in 0..self.steps {
            for a in actions.iter_mut() {
                let u: f64 = rng.gen();
                *a = if u < self.p_gen {
                    1
                } else if u < self.p_gen + self.p_con {
                    -1
                } else {
                    0
                };
            }
            net.tick(t, &actions);
            net.check_conservation()
                .and_then(|()| net.check_invariants())
                .map_err(|e| format!("tick {t}: {e}"))?;
        }
        net.quiesce();
        net.check_conservation()
            .and_then(|()| net.check_invariants())
            .map_err(|e| format!("after quiesce: {e}"))?;
        match (net.locked_count(), net.in_flight()) {
            (0, 0) => Ok(()),
            (locked, in_flight) => Err(format!(
                "after quiesce: {locked} processors locked, {in_flight} messages in flight"
            )),
        }
    }
}

/// Cases to run: `PROPTEST_CASES`, else 300.
fn case_count() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

#[test]
fn every_drawn_fault_plan_conserves_and_quiesces_unlocked() {
    for index in 0..case_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(index);
        let case = Case::draw(&mut rng);
        assert_eq!(case.plan.validate(case.n), Ok(()), "case {index}: {case:?}");
        if let Err(e) = case.run(&mut rng) {
            panic!("case {index}: {e}\n{case:#?}");
        }
    }
}
