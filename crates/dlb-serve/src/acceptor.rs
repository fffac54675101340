//! A sharded acceptor: one of `A` placement threads, each owning a
//! contiguous shard group with its *own* trigger state.
//!
//! The paper's algorithm is fully distributed — every processor runs
//! its own `f`-trigger — and this module partitions that machinery the
//! same way: acceptor `a` owns shards `[a·n/A, (a+1)·n/A)`, keeps their
//! `l_old` baselines and backlogs privately, and draws balance partners
//! from its own ChaCha stream (split per acceptor with the
//! `stream_seed` discipline from `dlb-experiments::parallel`).
//!
//! Nothing an acceptor does ever takes a lock or blocks on a peer:
//!
//! - requests for *owned* shards go straight into the private backlog
//!   (and from there into the shard's SPSC work ring);
//! - anything crossing a group boundary — a placement whose home lives
//!   elsewhere, a rebalance donation, a crash-redistributed orphan —
//!   becomes a [`Msg`] pushed onto the destination acceptor's MPSC
//!   inbox.  A full inbox parks the message in the sender's local
//!   `pending_out` queue (retried every loop pass), so a send can never
//!   deadlock two acceptors against each other.
//!
//! Cross-group rebalance is *plan handoff, not remote locking*: the
//! initiator snapshots depths (the shared atomic mirrors), computes
//! even-share targets, and sends each remote member's owner a
//! [`DonatePlan`].  The owner pops from its own backlog, ships the
//! requests, and resets the member's `l_old` to the plan's target —
//! exactly the baseline discipline the paper's trigger requires, with
//! the owner the only writer of its own state.
//!
//! Conservation: a request leaves an acceptor only by (a) entering a
//! work ring, (b) being counted `dropped` when no shard is alive, or
//! (c) riding a message whose in-flight count is incremented *before*
//! the send and decremented only *after* the receiver fully processed
//! it (including any cascaded sends).  Acceptors exit when production
//! is done everywhere, no messages are in flight and their backlogs
//! have drained — so `issued == completed + dropped` holds exactly at
//! `run_wall` exit.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dlb_core::balance::even_shares;
use dlb_core::Params;
use dlb_net::rng::splitmix64;
use dlb_trace::{SharedSink, TraceEvent};
use dlb_workload::service::Request;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::home_shard;
use crate::router::draw_members;
use crate::wall::{ticks_to_duration, Shared};

/// A scheduled crash or recovery, replayed against the wall clock.
#[derive(Clone)]
pub(crate) enum Transition {
    Down,
    Up,
}

/// Cross-acceptor messages.  Everything that crosses a group boundary
/// rides one of these through the destination's MPSC inbox.
pub(crate) enum Msg {
    /// A request bound for `shard` (owned by the receiver).  `routed`
    /// distinguishes first placement (traced as `req`, runs the trigger
    /// at landing) from a rebalance/crash move (already accounted by
    /// the mover; enqueue only).
    Deliver {
        shard: usize,
        req: Request,
        routed: bool,
    },
    /// A rebalance plan for one remote member of a fired trigger; the
    /// owning acceptor applies it against its own backlog.  Boxed to
    /// keep the message word-sized in the ring.
    Donate(Box<DonatePlan>),
}

/// What a trigger initiator asks a remote member's owner to do.
pub(crate) struct DonatePlan {
    /// The member shard this plan concerns (owned by the receiver).
    pub shard: usize,
    /// The member's even-share target; becomes its new `l_old`
    /// baseline whether or not it donated anything.
    pub target: u64,
    /// `(destination shard, count)` transfers to pop from `shard`'s
    /// backlog — empty for receivers/neutral members, which get a plan
    /// purely for the baseline reset.
    pub transfers: Vec<(usize, u64)>,
}

/// Per-acceptor counters, merged by `run_wall` after the join.
#[derive(Default)]
pub(crate) struct AcceptorOut {
    pub rebalances: u64,
    pub redirected: u64,
    pub crashes: u64,
    pub recoveries: u64,
    pub handoffs: u64,
}

/// Per-acceptor ChaCha stream seed: chained SplitMix64 finalisers (the
/// `stream_seed` discipline from `dlb-experiments::parallel`), so
/// adjacent acceptor ids land on uncorrelated 64-bit seeds and no
/// acceptor shares the partner-draw stream of another.
fn acceptor_stream_seed(base: u64, acceptor: u64) -> u64 {
    splitmix64(splitmix64(base ^ 0x5e_55_1d_b5).wrapping_add(acceptor))
}

pub(crate) struct Acceptor<'a> {
    id: usize,
    shared: &'a Shared,
    params: Params,
    /// First owned shard (inclusive).
    lo: usize,
    /// Past-the-end owned shard.
    hi: usize,
    /// Owner-private queues, indexed `shard - lo`; the shard's SPSC
    /// work ring is refilled from here, FIFO.
    backlog: Vec<VecDeque<Request>>,
    /// Trigger baselines for owned shards, indexed `shard - lo`.
    l_old: Vec<u64>,
    rng: ChaCha8Rng,
    sink: Option<&'a SharedSink>,
    start: Instant,
    tick_us: u64,
    /// Messages that found a full inbox, retried in order every pass.
    pending_out: VecDeque<(usize, Msg)>,
    out: AcceptorOut,
}

impl<'a> Acceptor<'a> {
    pub(crate) fn new(
        id: usize,
        shared: &'a Shared,
        params: Params,
        seed: u64,
        sink: Option<&'a SharedSink>,
        start: Instant,
        tick_us: u64,
    ) -> Self {
        let (lo, hi) = shared.group(id);
        Acceptor {
            id,
            shared,
            params,
            lo,
            hi,
            backlog: vec![VecDeque::new(); hi - lo],
            l_old: vec![0; hi - lo],
            rng: ChaCha8Rng::seed_from_u64(acceptor_stream_seed(seed, id as u64)),
            sink,
            start,
            tick_us,
            pending_out: VecDeque::new(),
            out: AcceptorOut::default(),
        }
    }

    fn n(&self) -> usize {
        self.shared.depths.len()
    }

    fn alive(&self, s: usize) -> bool {
        !self.shared.down[s].load(Ordering::Acquire)
    }

    fn owns(&self, s: usize) -> bool {
        (self.lo..self.hi).contains(&s)
    }

    fn now_ticks(&self) -> u64 {
        (self.start.elapsed().as_micros() / self.tick_us as u128) as u64
    }

    fn trace(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink {
            if sink.enabled() {
                sink.record(&build());
            }
        }
    }

    /// Enqueues onto an owned shard's backlog, mirroring the depth.
    fn enqueue_local(&mut self, s: usize, r: Request, routed: bool) {
        debug_assert!(self.owns(s));
        self.backlog[s - self.lo].push_back(r);
        self.shared.depths[s].fetch_add(1, Ordering::Release);
        if routed {
            self.trace(|| TraceEvent::RequestRouted {
                step: r.arrival,
                req: r.id,
                shard: s as u64,
            });
        }
    }

    /// Sends `msg` to a peer acceptor without ever blocking: the
    /// in-flight count goes up *before* the push (the termination
    /// protocol's invariant), and a full inbox parks the message
    /// locally for retry.
    fn send(&mut self, dest: usize, msg: Msg, now: u64) {
        self.shared.msgs_in_flight.fetch_add(1, Ordering::SeqCst);
        self.out.handoffs += 1;
        if let Msg::Donate(plan) = &msg {
            let count = plan.transfers.iter().map(|&(_, c)| c).sum();
            self.trace(|| TraceEvent::AcceptorHandoff {
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

    /// Lands `r` on the first alive shard scanning from `s`: owned →
    /// backlog (running the trigger when this is a first placement),
    /// remote → `Deliver` message.  No shard alive → dropped.
    fn deliver_or_forward(&mut self, s: usize, r: Request, routed: bool, now: u64) {
        let n = self.n();
        for k in 0..n {
            let cand = (s + k) % n;
            if !self.alive(cand) {
                continue;
            }
            if self.owns(cand) {
                self.enqueue_local(cand, r, routed);
                if routed {
                    self.maybe_trigger(cand, now);
                }
            } else {
                self.send(
                    self.shared.owner[cand],
                    Msg::Deliver {
                        shard: cand,
                        req: r,
                        routed,
                    },
                    now,
                );
            }
            return;
        }
        self.shared.dropped.fetch_add(1, Ordering::Release);
    }

    fn place_arrival(&mut self, r: Request, now: u64) {
        self.deliver_or_forward(home_shard(r.key, self.n()), r, true, now);
    }

    /// The paper's grow/shrink trigger for an owned shard; fires a
    /// rebalance with `δ` random alive partners drawn from this
    /// acceptor's private stream.
    fn maybe_trigger(&mut self, s: usize, now: u64) {
        let depth = self.shared.depths[s].load(Ordering::Acquire);
        let l_old = self.l_old[s - self.lo];
        if !self.params.grow_triggered(depth, l_old) && !self.params.shrink_triggered(depth, l_old)
        {
            return;
        }
        let (n, down) = (self.n(), &self.shared.down);
        let drawn = draw_members(
            &mut self.rng,
            n,
            s,
            self.params.delta(),
            |p| !down[p].load(Ordering::Acquire),
            &mut Vec::new(),
        );
        let Some(members) = drawn else {
            self.l_old[s - self.lo] = depth;
            return;
        };
        self.rebalance(&members, now);
    }

    /// Equalises `members` toward even-share targets.  Depths are read
    /// from the shared atomic mirrors (racing workers may drain under
    /// us, so targets are best-effort — but nothing is ever lost);
    /// moves out of *owned* members apply immediately, moves out of
    /// remote members become [`DonatePlan`] handoffs to their owner.
    /// Every remote member gets a plan — donors with transfers,
    /// receivers and neutral members an empty one — so each owner
    /// resets the member's `l_old` baseline exactly as the paper's
    /// trigger demands.
    fn rebalance(&mut self, members: &[usize], now: u64) {
        let lens: Vec<u64> = members
            .iter()
            .map(|&m| self.shared.depths[m].load(Ordering::Acquire))
            .collect();
        let total: u64 = lens.iter().sum();
        let targets = even_shares(total, members.len());
        // Surpluses flow to deficits greedily; member indices keep the
        // mapping back to shards.
        let mut donors: Vec<(usize, u64)> = Vec::new();
        let mut receivers: Vec<(usize, u64)> = Vec::new();
        for (i, (&len, &target)) in lens.iter().zip(&targets).enumerate() {
            if len > target {
                donors.push((i, len - target));
            } else if len < target {
                receivers.push((i, target - len));
            }
        }
        let mut moves: Vec<(usize, usize, u64)> = Vec::new();
        let (mut di, mut ri) = (0, 0);
        while di < donors.len() && ri < receivers.len() {
            let take = donors[di].1.min(receivers[ri].1);
            if take > 0 {
                moves.push((donors[di].0, receivers[ri].0, take));
            }
            donors[di].1 -= take;
            receivers[ri].1 -= take;
            if donors[di].1 == 0 {
                di += 1;
            }
            if ri < receivers.len() && receivers[ri].1 == 0 {
                ri += 1;
            }
        }
        for (mi, &m) in members.iter().enumerate() {
            let member_moves: Vec<(usize, u64)> = moves
                .iter()
                .filter(|&&(from, _, _)| from == mi)
                .map(|&(_, to, count)| (members[to], count))
                .collect();
            if self.owns(m) {
                self.apply_transfers(m, &member_moves, now);
                self.l_old[m - self.lo] = targets[mi];
            } else {
                self.send(
                    self.shared.owner[m],
                    Msg::Donate(Box::new(DonatePlan {
                        shard: m,
                        target: targets[mi],
                        transfers: member_moves,
                    })),
                    now,
                );
            }
        }
        self.out.rebalances += 1;
    }

    /// Pops up to the planned counts from an owned donor's backlog and
    /// ships them.  The backlog may have fewer than the snapshot
    /// promised (workers drained it); whatever is popped lands
    /// somewhere, so conservation never depends on the plan being
    /// exact.
    fn apply_transfers(&mut self, from: usize, transfers: &[(usize, u64)], now: u64) {
        debug_assert!(self.owns(from));
        for &(to, count) in transfers {
            let mut moved = 0u64;
            for _ in 0..count {
                let Some(r) = self.backlog[from - self.lo].pop_back() else {
                    break;
                };
                self.shared.depths[from].fetch_sub(1, Ordering::Release);
                self.deliver_or_forward(to, r, false, now);
                moved += 1;
            }
            if moved > 0 {
                self.out.redirected += moved;
                self.trace(|| TraceEvent::RequestsRedirected {
                    step: now,
                    from: from as u64,
                    to: to as u64,
                    count: moved,
                });
            }
        }
    }

    fn apply_donate(&mut self, plan: &DonatePlan, now: u64) {
        debug_assert!(self.owns(plan.shard));
        // A shard that crashed since the plan was cut has nothing to
        // donate, and its baseline resets at recovery anyway.
        if !self.alive(plan.shard) {
            return;
        }
        self.apply_transfers(plan.shard, &plan.transfers, now);
        self.l_old[plan.shard - self.lo] = plan.target;
    }

    fn crash(&mut self, s: usize, now: u64) {
        self.shared.down[s].store(true, Ordering::Release);
        self.out.crashes += 1;
        self.trace(|| TraceEvent::FaultInjected {
            step: now,
            proc: s as u64,
            kind: "crash".into(),
        });
        let orphans = std::mem::take(&mut self.backlog[s - self.lo]);
        self.shared.depths[s].fetch_sub(orphans.len() as u64, Ordering::Release);
        self.l_old[s - self.lo] = 0;
        // Round-robin the orphaned backlog over alive shards, exactly
        // like the sim engine.  Requests already in the work ring (or
        // in service) cannot be yanked out of an OS thread; they
        // complete regardless of crash mode — the same honest wall-mode
        // divergence PR 6 documented for in-service work.
        let n = self.n();
        let mut landed = vec![0u64; n];
        let mut cursor = s;
        'next: for r in orphans {
            for _ in 0..n {
                cursor = (cursor + 1) % n;
                if self.alive(cursor) {
                    landed[cursor] += 1;
                    self.out.redirected += 1;
                    self.deliver_or_forward(cursor, r, false, now);
                    continue 'next;
                }
            }
            self.shared.dropped.fetch_add(1, Ordering::Release);
        }
        for (to, &count) in landed.iter().enumerate() {
            if count > 0 {
                self.trace(|| TraceEvent::RequestsRedirected {
                    step: now,
                    from: s as u64,
                    to: to as u64,
                    count,
                });
            }
        }
    }

    fn recover(&mut self, s: usize, now: u64) {
        self.shared.down[s].store(false, Ordering::Release);
        self.l_old[s - self.lo] = 0;
        self.out.recoveries += 1;
        self.trace(|| TraceEvent::CrashRecovered {
            step: now,
            proc: s as u64,
        });
    }

    /// Drains the inbox.  The in-flight decrement happens only after a
    /// message is fully processed — *including* any sends it cascaded
    /// (donations forwarding to a third group, deliveries skipping a
    /// crashed shard) — so the global count can never read zero while a
    /// causal chain is still running.
    fn process_inbox(&mut self, now: u64) {
        while let Some(msg) = self.shared.inboxes[self.id].pop() {
            match msg {
                Msg::Deliver { shard, req, routed } => {
                    self.deliver_or_forward(shard, req, routed, now)
                }
                Msg::Donate(plan) => self.apply_donate(&plan, now),
            }
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

    /// Moves backlog heads into the shards' SPSC work rings (FIFO), as
    /// far as ring capacity allows.  Ring occupancy stays part of the
    /// mirrored depth — workers decrement on pop — so triggers keep
    /// seeing the full queue.
    fn refill_rings(&mut self) {
        for s in self.lo..self.hi {
            while let Some(r) = self.backlog[s - self.lo].pop_front() {
                if let Err(back) = self.shared.work[s].try_push(r) {
                    self.backlog[s - self.lo].push_front(back);
                    break;
                }
            }
        }
    }

    /// Parks between passes: a short poll when local work is pending,
    /// otherwise sleep toward the next scheduled arrival/fault —
    /// capped so inbox messages from peers are noticed promptly.  The
    /// deadline is built with [`ticks_to_duration`] (µs-space
    /// saturating multiply), not the `Duration * u32` of PR 6 that
    /// silently truncated ticks past 2^32.
    fn idle_wait(&self, next_due_tick: Option<u64>, busy: bool) {
        if busy {
            std::thread::sleep(Duration::from_micros(20));
            return;
        }
        let cap = Duration::from_micros(200);
        match next_due_tick {
            Some(t) => {
                let due = ticks_to_duration(self.tick_us, t);
                let elapsed = self.start.elapsed();
                if elapsed < due {
                    std::thread::sleep((due - elapsed).min(cap));
                }
            }
            None => std::thread::sleep(cap),
        }
    }

    /// The acceptor loop.  `arrivals` is this acceptor's slice of the
    /// precomputed open-loop schedule (requests whose *home* shard it
    /// owns); `timeline` its owned shards' crash/recovery transitions.
    /// Both are replayed against the shared wall clock — faults drain
    /// whenever they are due, not only when an arrival happens to be
    /// processed, which is the PR 6 late-fault bug this loop fixes.
    pub(crate) fn run(
        mut self,
        arrivals: &[Request],
        timeline: &[(u64, usize, Transition)],
    ) -> AcceptorOut {
        let mut next_arrival = 0usize;
        let mut next_fault = 0usize;
        let mut deregistered = false;
        loop {
            let now = self.now_ticks();
            while let Some(&(at, s, ref tr)) = timeline.get(next_fault) {
                if at > now {
                    break;
                }
                match tr {
                    Transition::Down => self.crash(s, at),
                    Transition::Up => self.recover(s, at),
                }
                next_fault += 1;
            }
            while let Some(&r) = arrivals.get(next_arrival) {
                if r.arrival > now {
                    break;
                }
                self.place_arrival(r, now);
                next_arrival += 1;
            }
            self.process_inbox(now);
            self.flush_pending();
            self.refill_rings();
            if !deregistered && next_arrival == arrivals.len() && next_fault == timeline.len() {
                // Production done here; one SeqCst decrement announces
                // it *after* every send this acceptor will ever
                // originate unprompted.
                self.shared.producing.fetch_sub(1, Ordering::SeqCst);
                deregistered = true;
            }
            let backlog_pending = self.backlog.iter().any(|b| !b.is_empty());
            // Exit: nothing left to produce anywhere, no message in
            // flight, nothing parked, nothing queued behind the rings.
            // Reading `producing` before `msgs_in_flight` (both SeqCst)
            // is sound: a producer's sends increment the in-flight
            // count before its producing decrement, and a receiver's
            // cascaded sends increment before its decrement — so both
            // reading zero proves no send can ever happen again.
            if deregistered
                && !backlog_pending
                && self.pending_out.is_empty()
                && self.shared.producing.load(Ordering::SeqCst) == 0
                && self.shared.msgs_in_flight.load(Ordering::SeqCst) == 0
                && self.shared.inboxes[self.id].is_empty()
            {
                break;
            }
            let next_due = [
                arrivals.get(next_arrival).map(|r| r.arrival),
                timeline.get(next_fault).map(|&(at, _, _)| at),
            ]
            .into_iter()
            .flatten()
            .min();
            let busy = backlog_pending
                || !self.pending_out.is_empty()
                || !self.shared.inboxes[self.id].is_empty();
            self.idle_wait(next_due, busy);
        }
        self.shared.accepting.fetch_sub(1, Ordering::SeqCst);
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
