//! A sharded acceptor: one of `A` placement threads, each driving the
//! [`ShardGroup`] of a contiguous shard range against the wall clock.
//!
//! The paper's algorithm is fully distributed — every processor runs
//! its own `f`-trigger — and the wall engine partitions it the same
//! way: acceptor `a` owns shards `[a·n/A, (a+1)·n/A)`, and its group
//! draws balance partners from its own ChaCha stream.  The state
//! machine itself is [`crate::group`], the same code the simulated
//! engine runs; what lives here is only what is about threads.
//!
//! Nothing an acceptor does ever takes a lock or blocks on a peer:
//!
//! - the heads of the *owned* queues are dequeued into the shards' SPSC
//!   work rings as fast as the rings take them;
//! - whatever the group addresses to a shard outside it — a placement
//!   whose home lives elsewhere, a remote member's part of a plan, a
//!   crash-redistributed orphan — is a [`Msg`] pushed onto the owning
//!   acceptor's MPSC inbox.  A full inbox parks the message in the
//!   sender's local `pending_out` queue (retried every pass), so a send
//!   can never deadlock two acceptors against each other.
//!
//! Cross-group rebalance is *plan handoff, not remote locking*: the
//! initiator cuts the plan from its mirror of the other groups' depths
//! (each acceptor publishes its owned depths and liveness with a plain
//! store per pass, and reads the others' at the top of the next), and
//! sends each remote member's owner its [`Msg::Donate`] part — the
//! owner stays the only writer of its own state.
//!
//! Conservation: a request leaves an acceptor only by (a) entering a
//! work ring, (b) being counted `dropped` when no shard is alive, or
//! (c) riding a message whose in-flight count is incremented *before*
//! the send and decremented only *after* the receiver fully processed
//! it (including any cascaded sends).  A non-empty backlog is counted
//! the same way — its dequeues run the shrink trigger, so it can still
//! originate sends: the acceptor takes one in-flight count for it while
//! something already counted (its own `producing` registration, or the
//! inbox message that filled it) still covers it, and gives the count
//! back only after a pass that left the backlog empty.  Acceptors exit
//! when production is done everywhere and nothing is in flight — so
//! `issued == completed + dropped` holds exactly at `run_wall` exit.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dlb_net::rng::splitmix64;
use dlb_trace::{SharedSink, TraceEvent};

use crate::group::{Msg, ShardGroup};
use crate::router::TriggerRouter;
use crate::scenario::ServiceScenario;
use crate::wall::{duration_to_ticks, ticks_to_duration, Feed, Shared};

/// Per-acceptor ChaCha stream seed: chained SplitMix64 finalisers (the
/// `stream_seed` discipline from `dlb-experiments::parallel`), so
/// adjacent acceptor ids land on uncorrelated 64-bit seeds and no
/// acceptor shares the partner-draw stream of another.
fn acceptor_stream_seed(base: u64, acceptor: u64) -> u64 {
    splitmix64(splitmix64(base ^ 0x5e_55_1d_b5).wrapping_add(acceptor))
}

/// What one [`Acceptor::pass`] left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Local work is pending: poll again shortly.
    Busy,
    /// Nothing to do until the next scheduled arrival/fault or a peer's
    /// message.
    Idle,
    /// Production is done everywhere, nothing is in flight, nothing is
    /// queued: this acceptor will never be needed again.
    Done,
}

pub(crate) struct Acceptor<'a> {
    id: usize,
    shared: &'a Shared,
    pub(crate) group: ShardGroup,
    /// This acceptor's slice of the precomputed schedule, replayed
    /// against `now`, and the cursors into it.
    feed: &'a Feed,
    next_arrival: usize,
    next_fault: usize,
    /// Whether this acceptor has left [`Shared::producing`].
    deregistered: bool,
    /// Whether the backlog is holding one `msgs_in_flight` count.
    holding: bool,
    /// Messages that found a full inbox, retried in order every pass.
    pending_out: VecDeque<(usize, Msg)>,
    /// Messages sent to peers.
    handoffs: u64,
}

impl<'a> Acceptor<'a> {
    /// Acceptor `id` over `shared`, its group seeded with its
    /// own partner-draw stream.  `scenario` must have been validated.
    pub(crate) fn new(
        id: usize,
        shared: &'a Shared,
        scenario: &ServiceScenario,
        sink: Option<SharedSink>,
        feed: &'a Feed,
    ) -> Self {
        let seed = acceptor_stream_seed(scenario.seed, id as u64);
        let router = TriggerRouter::new(shared.owner.len(), scenario.delta, scenario.f, seed)
            .expect("validate() checked the trigger parameters");
        Acceptor {
            id,
            shared,
            group: ShardGroup::new(shared.group(id), router, scenario.faults.crash_mode, sink),
            feed,
            next_arrival: 0,
            next_fault: 0,
            deregistered: false,
            holding: false,
            pending_out: VecDeque::new(),
            handoffs: 0,
        }
    }

    /// Sends `msg` to a peer acceptor without ever blocking: the
    /// in-flight count goes up *before* the push (the termination
    /// protocol's invariant), and a full inbox parks the message
    /// locally for retry.
    fn send(&mut self, dest: usize, msg: Msg, now: u64) {
        self.shared.msgs_in_flight.fetch_add(1, Ordering::SeqCst);
        self.handoffs += 1;
        if let Msg::Donate { transfers, .. } = &msg {
            let count = transfers.iter().map(|&(_, c)| c).sum();
            self.group.trace(|| TraceEvent::AcceptorHandoff {
                step: now,
                from: self.id as u64,
                to: dest as u64,
                count,
            });
        }
        if let Err(back) = self.shared.inboxes[dest].try_push(msg) {
            self.pending_out.push_back((dest, back));
        }
    }

    /// Sends whatever the group addressed to shards outside it.
    fn ship(&mut self, now: u64) {
        let mut outbox = std::mem::take(&mut self.group.outbox);
        for (shard, msg) in outbox.drain(..) {
            self.send(self.shared.owner[shard], msg, now);
        }
        self.group.outbox = outbox;
    }

    /// Takes the backlog's in-flight count if it needs one.  Only
    /// called while something already counted covers the backlog, so
    /// the global count never reads zero while a queue can still fire
    /// a trigger.
    fn hold_for_backlog(&mut self) {
        if !self.holding && self.group.queued() > 0 {
            self.shared.msgs_in_flight.fetch_add(1, Ordering::SeqCst);
            self.holding = true;
        }
    }

    /// Drains the inbox.  The in-flight decrement happens only after a
    /// message is fully processed — *including* any sends it cascaded
    /// (donations forwarding to a third group, deliveries skipping a
    /// crashed shard) and the count for a backlog it filled — so the
    /// global count can never read zero while a causal chain is still
    /// running.
    fn process_inbox(&mut self, now: u64) {
        while let Some(msg) = self.shared.inboxes[self.id].pop() {
            self.group.receive(msg, now);
            self.ship(now);
            self.hold_for_backlog();
            self.shared.msgs_in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Retries parked messages once per destination per pass,
    /// preserving per-destination FIFO order (later messages for a
    /// destination that just failed go straight back without a push
    /// attempt).
    fn flush_pending(&mut self) {
        let mut blocked: Vec<usize> = Vec::new();
        for _ in 0..self.pending_out.len() {
            let (dest, msg) = self.pending_out.pop_front().expect("len checked");
            if blocked.contains(&dest) {
                self.pending_out.push_back((dest, msg));
                continue;
            }
            if let Err(back) = self.shared.inboxes[dest].try_push(msg) {
                blocked.push(dest);
                self.pending_out.push_back((dest, back));
            }
        }
    }

    /// Dequeues the owned queues' heads into the shards' SPSC work
    /// rings (FIFO), as far as ring capacity allows.  Room is checked
    /// first: a dequeue runs the shrink trigger and cannot be undone.
    fn refill_rings(&mut self, now: u64) {
        for s in self.group.shards() {
            let ring = &self.shared.work[s];
            while ring.len() < ring.capacity() {
                let Some(r) = self.group.dequeue(s, now) else {
                    break;
                };
                ring.try_push(r).expect("the ring's only producer saw room");
            }
        }
        self.ship(now);
    }

    /// One turn of the acceptor at tick `now`: refresh the mirror of
    /// the other groups' shards, replay due faults and arrivals, drain
    /// the inbox, retry parked sends, feed the work rings, publish the
    /// owned depths.  Faults drain whenever they are due, not only when
    /// an arrival happens to be processed.
    pub(crate) fn pass(&mut self, now: u64) -> Status {
        let owned = self.group.shards();
        for s in (0..owned.start).chain(owned.end..self.shared.owner.len()) {
            let depth = self.shared.depths[s].load(Ordering::Acquire);
            let alive = !self.shared.down[s].load(Ordering::Acquire);
            self.group.mirror(s, depth, alive);
        }
        while let Some(&(at, s, up)) = self.feed.timeline.get(self.next_fault) {
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
        while let Some(&r) = self.feed.arrivals.get(self.next_arrival) {
            if r.arrival > now {
                break;
            }
            self.group.arrive(r, now);
            self.next_arrival += 1;
        }
        self.ship(now);
        self.process_inbox(now);
        self.flush_pending();
        self.refill_rings(now);
        for s in owned {
            self.shared.depths[s].store(self.group.router().depth(s), Ordering::Release);
            self.shared.down[s].store(!self.group.router().is_alive(s), Ordering::Release);
        }
        if !self.deregistered
            && self.next_arrival == self.feed.arrivals.len()
            && self.next_fault == self.feed.timeline.len()
        {
            // Production done here; one SeqCst decrement announces it
            // *after* every send this acceptor will ever originate
            // unprompted — and after the count for what it still has
            // queued.
            self.hold_for_backlog();
            self.shared.producing.fetch_sub(1, Ordering::SeqCst);
            self.deregistered = true;
        }
        let backlog_pending = self.group.queued() > 0;
        if self.holding && !backlog_pending {
            self.shared.msgs_in_flight.fetch_sub(1, Ordering::SeqCst);
            self.holding = false;
        }
        // Exit: nothing left to produce anywhere, no message in
        // flight, nothing parked, nothing queued behind the rings.
        // Reading `producing` before `msgs_in_flight` (both SeqCst)
        // is sound: a producer's sends increment the in-flight
        // count before its producing decrement, and a receiver's
        // cascaded sends increment before its decrement — so both
        // reading zero proves no send can ever happen again.
        if self.deregistered
            && !backlog_pending
            && self.pending_out.is_empty()
            && self.shared.producing.load(Ordering::SeqCst) == 0
            && self.shared.msgs_in_flight.load(Ordering::SeqCst) == 0
            && self.shared.inboxes[self.id].is_empty()
        {
            return Status::Done;
        }
        if backlog_pending
            || !self.pending_out.is_empty()
            || !self.shared.inboxes[self.id].is_empty()
        {
            Status::Busy
        } else {
            Status::Idle
        }
    }

    /// Parks between passes: a short poll when local work is pending,
    /// otherwise sleep toward the next scheduled arrival/fault —
    /// capped so inbox messages from peers are noticed promptly.  The
    /// deadline is built with [`ticks_to_duration`] (µs-space
    /// saturating multiply), not the `Duration * u32` of PR 6 that
    /// silently truncated ticks past 2^32.
    fn idle_wait(&self, start: Instant, tick_us: u64, busy: bool) {
        if busy {
            std::thread::sleep(Duration::from_micros(20));
            return;
        }
        let cap = Duration::from_micros(200);
        let next_due_tick = [
            self.feed.arrivals.get(self.next_arrival).map(|r| r.arrival),
            self.feed
                .timeline
                .get(self.next_fault)
                .map(|&(at, _, _)| at),
        ]
        .into_iter()
        .flatten()
        .min();
        match next_due_tick {
            Some(t) => {
                let due = ticks_to_duration(tick_us, t);
                let elapsed = start.elapsed();
                if elapsed < due {
                    std::thread::sleep((due - elapsed).min(cap));
                }
            }
            None => std::thread::sleep(cap),
        }
    }

    /// The acceptor loop: [`pass`](Acceptor::pass) against the shared
    /// wall clock until it reports [`Status::Done`].  Returns the
    /// group (for its counters) and the handoff count.
    pub(crate) fn run(mut self, start: Instant, tick_us: u64) -> (ShardGroup, u64) {
        loop {
            let now = duration_to_ticks(start.elapsed(), tick_us);
            match self.pass(now) {
                Status::Done => break,
                status => self.idle_wait(start, tick_us, status == Status::Busy),
            }
        }
        self.shared.accepting.fetch_sub(1, Ordering::SeqCst);
        (self.group, self.handoffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home_shard;
    use crate::ring::MpscRing;
    use dlb_faults::{CrashEvent, CrashMode, FaultPlan};
    use dlb_workload::service::{RatePhase, Request, ServiceLoad};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn stream_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..16).map(|a| acceptor_stream_seed(42, a)).collect();
        for (i, &a) in seeds.iter().enumerate() {
            assert_eq!(a, acceptor_stream_seed(42, i as u64));
            for &b in &seeds[i + 1..] {
                assert_ne!(a, b, "adjacent acceptors must not share a stream");
            }
        }
        assert_ne!(acceptor_stream_seed(42, 0), acceptor_stream_seed(43, 0));
    }

    // The multi-acceptor protocol under a deterministic scheduler: real
    // `Acceptor`s over a real `Shared` (rings and atomics included),
    // but no threads and no clock — one seeded scheduler decides which
    // acceptor passes, which simulated worker moves and when `now`
    // advances, and the conservation ledger is checked after every
    // single move.

    const N: usize = 8;
    const STEP_BOUND: usize = 200_000;

    /// One deterministic run.  Of the scenario only the trigger
    /// parameters, the seed and the fault plan matter: the arrivals are
    /// explicit.
    struct Case {
        scenario: ServiceScenario,
        requests: Vec<Request>,
        work_cap: usize,
        inbox_cap: usize,
        /// Relative odds of the scheduler's three moves: advance `now`,
        /// run an acceptor pass, step a worker.
        odds: [u32; 3],
    }

    fn scenario(acceptors: usize, delta: usize, f: f64, seed: u64) -> ServiceScenario {
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
            acceptors,
            faults: FaultPlan::reliable(),
        }
    }

    impl Case {
        /// Acceptor count, ring capacities, trigger parameters, the
        /// arrivals, the crash plan and the scheduler's odds, all drawn
        /// from the one seed — which therefore replays a failure.
        fn from_seed(seed: u64) -> Case {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut scenario = scenario(
                [2, 4][rng.gen_range(0..2usize)],
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
                inbox_cap: rng.gen_range(2..=3usize),
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
        per_acceptor_rebalances: Vec<u64>,
        /// Whether a send ever found a full inbox.
        parked: bool,
        /// Whether a pass ever left a work ring full.
        ring_full: bool,
    }

    /// Requests riding `Deliver` messages in `inbox` (drained and
    /// refilled in order: nothing else runs in between).
    fn deliveries_in(inbox: &MpscRing<Msg>) -> usize {
        let msgs: Vec<Msg> = std::iter::from_fn(|| inbox.pop()).collect();
        let count = msgs.iter().filter(|m| is_delivery(m)).count();
        for msg in msgs {
            assert!(inbox.try_push(msg).is_ok(), "it fitted a moment ago");
        }
        count
    }

    fn is_delivery(msg: &Msg) -> bool {
        matches!(msg, Msg::Deliver { .. })
    }

    fn run(case: &Case) -> Result<Outcome, String> {
        let acceptors = case.scenario.acceptors;
        let shared = Shared::new(N, acceptors, case.work_cap, case.inbox_cap);
        let feeds = shared.feeds(&case.requests, &case.scenario.faults.crashes);
        let mut acceptor: Vec<Acceptor> = (0..acceptors)
            .map(|a| Acceptor::new(a, &shared, &case.scenario, None, &feeds[a]))
            .collect();
        let mut done = vec![false; acceptors];
        // One simulated worker per shard: what it serves, and until when.
        let mut serving: Vec<Option<u64>> = vec![None; N];
        let mut completed = vec![0u64; N];
        let mut rng = ChaCha8Rng::seed_from_u64(case.scenario.seed ^ 0x5c4e_d01e);
        let mut now = 0u64;
        let (mut parked, mut ring_full) = (false, false);
        for step in 0..STEP_BOUND {
            let pick = rng.gen_range(0..case.odds.iter().sum::<u32>());
            if pick < case.odds[0] {
                now += 1;
            } else if pick < case.odds[0] + case.odds[1] {
                let a = rng.gen_range(0..acceptors);
                // Like the thread it stands for, an acceptor that
                // reported `Done` never runs again.
                if !done[a] {
                    done[a] = acceptor[a].pass(now) == Status::Done;
                    ring_full |= shared.work.iter().any(|r| r.len() == r.capacity());
                }
            } else {
                let s = rng.gen_range(0..N);
                match serving[s] {
                    Some(due) if due <= now => {
                        serving[s] = None;
                        completed[s] += 1;
                    }
                    Some(_) => {}
                    None => serving[s] = shared.work[s].pop().map(|r| now + r.service),
                }
            }
            parked |= acceptor.iter().any(|a| !a.pending_out.is_empty());

            let placed: usize = acceptor.iter().map(|a| a.next_arrival).sum();
            let queued = acceptor
                .iter()
                .map(|a| {
                    a.group.queued() + a.pending_out.iter().filter(|(_, m)| is_delivery(m)).count()
                })
                .sum::<usize>()
                + shared.work.iter().map(|r| r.len()).sum::<usize>()
                + serving.iter().flatten().count()
                + shared.inboxes.iter().map(deliveries_in).sum::<usize>();
            let held = completed.iter().sum::<u64>()
                + acceptor.iter().map(|a| a.group.dropped).sum::<u64>()
                + queued as u64;
            if placed as u64 != held {
                return Err(format!(
                    "step {step}: {placed} requests placed, {held} accounted for"
                ));
            }
            if acceptor.iter().any(|a| !a.group.outbox.is_empty()) {
                return Err(format!("step {step}: a pass left its outbox unshipped"));
            }

            let drained =
                shared.work.iter().all(|r| r.is_empty()) && serving.iter().all(|s| s.is_none());
            if done.iter().all(|&d| d) && drained {
                let in_flight = shared.msgs_in_flight.load(Ordering::SeqCst);
                if in_flight != 0
                    || shared.producing.load(Ordering::SeqCst) != 0
                    || shared.inboxes.iter().any(|i| !i.is_empty())
                    || acceptor
                        .iter()
                        .any(|a| a.holding || !a.pending_out.is_empty())
                {
                    return Err(format!(
                        "every acceptor is done with {in_flight} in flight or a message stranded"
                    ));
                }
                if placed != case.requests.len() {
                    return Err(format!("only {placed} requests were ever placed"));
                }
                return Ok(Outcome {
                    per_shard_completed: completed,
                    per_acceptor_rebalances: acceptor
                        .iter()
                        .map(|a| a.group.router().rebalances())
                        .collect(),
                    parked,
                    ring_full,
                });
            }
        }
        Err(format!(
            "not finished after {STEP_BOUND} steps (done: {done:?})"
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

    #[test]
    fn small_rings_do_park_sends_and_fill_up() {
        let outcomes: Vec<Outcome> = (0..32)
            .map(|seed| run(&Case::from_seed(seed)).unwrap_or_else(|e| panic!("seed {seed}: {e}")))
            .collect();
        assert!(outcomes.iter().any(|o| o.parked), "no send was ever parked");
        assert!(outcomes.iter().any(|o| o.ring_full), "no ring ever filled");
    }

    /// The half of the trigger rule wall mode had lost: a shard whose
    /// queue *shrinks* rebalances too.  A burst lands on shard 0 while
    /// every other shard is down and known to be (so its grow trigger
    /// finds no partner and only resets its baseline), the others
    /// rejoin long before shard 0 could serve the burst alone, and no
    /// further request ever arrives — the only event left that can fire
    /// a trigger is a dequeue.
    #[test]
    fn a_draining_shard_rebalances_after_arrivals_stop() {
        let key = (0..).find(|&k| home_shard(k, N) == 0).expect("some key");
        let mut scenario = scenario(2, 2, 2.0, 7);
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
            inbox_cap: 3,
            odds: [1, 2, 2],
        };
        let outcome = run(&case).expect("run");
        assert!(
            outcome.per_shard_completed[0] < 64,
            "the burst completed on one shard only: {:?}",
            outcome.per_shard_completed
        );
        // Acceptor 1's shards never saw an arrival: whatever it
        // initiated, a shard running dry initiated.
        assert!(
            outcome.per_acceptor_rebalances[1] > 0,
            "no shard that ran dry pulled work: {:?}",
            outcome.per_acceptor_rebalances
        );
    }
}
