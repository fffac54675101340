//! The shard state machine, written once and driven by either clock.
//!
//! A [`ShardGroup`] owns the contiguous shards `[lo, hi)` of an
//! `n`-shard service: their FIFO queues, a [`TriggerRouter`] as trigger
//! bookkeeping (exact for the owned shards, a depth/alive mirror for
//! the rest), the fault and redirect counters and the trace sink.  The
//! whole machine is five entry points — [`arrive`](ShardGroup::arrive),
//! [`dequeue`](ShardGroup::dequeue), [`crash`](ShardGroup::crash),
//! [`recover`](ShardGroup::recover), [`receive`](ShardGroup::receive) —
//! and it knows nothing about time or threads: the clock is the `now`
//! argument, and the transport is [`ShardGroup::outbox`], which
//! collects whatever is addressed to a shard outside `[lo, hi)` for the
//! driver to carry.
//!
//! [`crate::sim::run_sim`] drives one group over `0..n` from a
//! `CalendarQueue` (its outbox is therefore always empty);
//! [`crate::wall::run_wall`] drives one group per acceptor thread and
//! ships the outbox through the MPSC inboxes.
//!
//! Semantics:
//! - A shard's *depth* is what sits in its queue: requests placed and
//!   not yet handed to service by [`dequeue`](ShardGroup::dequeue).
//! - Every enqueue of a first placement runs the grow trigger, every
//!   dequeue the shrink trigger; a fired plan's donors give up their
//!   tail block (the newest requests) in FIFO order.
//! - A crashed shard's queue is dealt round-robin over the alive shards
//!   from the crash site, without running the trigger; the request in
//!   service, if the driver can hand it over, follows the plan's
//!   [`CrashMode`].  With every shard down a request is dropped.

use std::collections::VecDeque;

use dlb_faults::CrashMode;
use dlb_trace::{SharedSink, TraceEvent};
use dlb_workload::service::Request;

use crate::home_shard;
use crate::router::{RebalancePlan, TriggerRouter};

/// What crosses a group boundary.
pub(crate) enum Msg {
    /// A request bound for `shard`.  `routed` distinguishes a first
    /// placement (traced as `req`, runs the trigger at landing) from a
    /// rebalance/crash move (already accounted by the mover).
    Deliver {
        shard: usize,
        req: Request,
        routed: bool,
    },
    /// One remote member's part of a fired plan: hand `transfers`'
    /// `(destination shard, count)` out of `shard`'s tail block and
    /// take `target` as the new `l_old` baseline.  Receivers and
    /// neutral members get one too, with no transfers, for the
    /// baseline reset the paper's trigger demands of every participant.
    Donate {
        shard: usize,
        target: u64,
        transfers: Vec<(usize, u64)>,
    },
}

pub(crate) struct ShardGroup {
    /// First owned shard (inclusive).
    lo: usize,
    /// Owned queues, indexed `shard - lo`.
    queues: Vec<VecDeque<Request>>,
    router: TriggerRouter,
    crash_mode: CrashMode,
    sink: Option<SharedSink>,
    pub(crate) dropped: u64,
    pub(crate) redirected: u64,
    pub(crate) crashes: u64,
    pub(crate) recoveries: u64,
    /// `(destination shard, message)` for shards outside `[lo, hi)`,
    /// in send order; the driver drains it.
    pub(crate) outbox: Vec<(usize, Msg)>,
    /// Scratch for the tail block a donor is giving up.
    block: Vec<Request>,
}

impl ShardGroup {
    /// A group owning shards `lo..hi` of the `router.n()` in the
    /// service.
    pub(crate) fn new(
        (lo, hi): (usize, usize),
        router: TriggerRouter,
        crash_mode: CrashMode,
        sink: Option<SharedSink>,
    ) -> Self {
        debug_assert!(lo < hi && hi <= router.n());
        ShardGroup {
            lo,
            queues: vec![VecDeque::new(); hi - lo],
            router,
            crash_mode,
            sink,
            dropped: 0,
            redirected: 0,
            crashes: 0,
            recoveries: 0,
            outbox: Vec::new(),
            block: Vec::new(),
        }
    }

    /// Owned shards `lo..hi`.
    pub(crate) fn shards(&self) -> std::ops::Range<usize> {
        self.lo..self.lo + self.queues.len()
    }

    fn owns(&self, s: usize) -> bool {
        self.shards().contains(&s)
    }

    /// The trigger bookkeeping: depths and liveness (exact for owned
    /// shards, mirrored otherwise) and the rebalances this group fired.
    pub(crate) fn router(&self) -> &TriggerRouter {
        &self.router
    }

    /// Requests queued on the owned shards.
    pub(crate) fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Refreshes the mirror of a shard another group owns.
    pub(crate) fn mirror(&mut self, s: usize, depth: u64, alive: bool) {
        debug_assert!(!self.owns(s));
        self.router.set_alive(s, alive);
        self.router.rebase(s, depth, 0);
    }

    pub(crate) fn trace(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            if sink.enabled() {
                sink.record(&build());
            }
        }
    }

    /// First alive shard scanning from `s` (wrapping); `None` when
    /// every shard is down.
    fn next_alive(&self, s: usize) -> Option<usize> {
        (s..self.router.n())
            .chain(0..s)
            .find(|&c| self.router.is_alive(c))
    }

    /// Lands `r` on the first alive shard from `s`: an owned one
    /// queues it — a first placement is traced and runs the grow
    /// trigger, a move only bumps the depth — a remote one gets a
    /// [`Msg::Deliver`].
    fn deliver(&mut self, s: usize, r: Request, routed: bool, now: u64) {
        let Some(s) = self.next_alive(s) else {
            self.dropped += 1;
            return;
        };
        if !self.owns(s) {
            let msg = Msg::Deliver {
                shard: s,
                req: r,
                routed,
            };
            self.outbox.push((s, msg));
            return;
        }
        self.queues[s - self.lo].push_back(r);
        if !routed {
            // No trigger check: a mass move would fire a cascade of
            // overlapping rebalances; the next organic enqueue/dequeue
            // re-arms the rule against the new depth.
            self.router.note_redistributed(s);
            return;
        }
        self.trace(|| TraceEvent::RequestRouted {
            step: now,
            req: r.id,
            shard: s as u64,
        });
        if self.router.note_enqueue(s).is_some() {
            self.apply_fired(now);
        }
    }

    /// A new request: sticky placement on its key's home shard (hot
    /// keys stay skewed, which is what the trigger rule then repairs),
    /// or the next alive shard after it.
    pub(crate) fn arrive(&mut self, r: Request, now: u64) {
        self.deliver(home_shard(r.key, self.router.n()), r, true, now);
    }

    /// Hands the head of owned shard `s`'s queue to service and runs
    /// the shrink trigger (the paper's work-stealing direction).
    /// Inlined: the simulated driver asks every idle shard every tick,
    /// and most of those calls find an empty queue.
    #[inline]
    pub(crate) fn dequeue(&mut self, s: usize, now: u64) -> Option<Request> {
        let r = self.queues[s - self.lo].pop_front()?;
        debug_assert!(self.router.is_alive(s), "a crashed shard's queue is empty");
        if self.router.note_dequeue(s).is_some() {
            self.apply_fired(now);
        }
        Some(r)
    }

    /// Carries out the plan the router just fired.  Moving requests
    /// updates the router's depths, so the plan is lifted out of it for
    /// the duration and handed back, buffers intact, for the next fire.
    fn apply_fired(&mut self, now: u64) {
        let plan = std::mem::take(&mut self.router.plan);
        self.apply_plan(&plan, now);
        self.router.plan = plan;
    }

    /// Moves queued requests to match a fired trigger: a receiver's
    /// queue grows by the last donor's tail block first — each block
    /// oldest first, the FIFO order of what stays put untouched.  Owned
    /// donors give at once; every remote member is sent its part of
    /// the plan.
    fn apply_plan(&mut self, plan: &RebalancePlan, now: u64) {
        let RebalancePlan {
            members,
            targets,
            moves,
        } = plan;
        // Donors come up in reverse member order, each one's moves in
        // a row: peel them off the front as the members go by.
        let mut rest = &moves[..];
        for (i, &m) in members.iter().enumerate().rev() {
            let mine = rest.iter().take_while(|&&(from, _, _)| from == i).count();
            let (mine, later) = rest.split_at(mine);
            rest = later;
            let transfers = mine.iter().map(|&(_, to, count)| (members[to], count));
            if self.owns(m) {
                if !mine.is_empty() {
                    self.give(m, transfers, now);
                }
                self.settle(m, targets[i]);
            } else {
                let msg = Msg::Donate {
                    shard: m,
                    target: targets[i],
                    transfers: transfers.collect(),
                };
                self.outbox.push((m, msg));
            }
        }
    }

    /// Deals owned shard `from`'s tail block — its newest requests —
    /// out to `transfers`' `(shard, count)`, oldest first.  A remote
    /// plan was cut from a mirrored depth, so the queue may hold less
    /// than it promised; whatever is there goes.
    fn give(
        &mut self,
        from: usize,
        transfers: impl Iterator<Item = (usize, u64)> + Clone,
        now: u64,
    ) {
        // A stack kept for its allocation: the block goes in newest
        // first, so it comes out oldest first.
        let mut block = std::mem::take(&mut self.block);
        let planned: u64 = transfers.clone().map(|(_, count)| count).sum();
        let q = &mut self.queues[from - self.lo];
        block.extend((0..planned).map_while(|_| q.pop_back()));
        for (to, count) in transfers {
            let mut moved = 0;
            while moved < count {
                let Some(r) = block.pop() else { break };
                self.deliver(to, r, false, now);
                moved += 1;
            }
            self.note_redirected(from, to, moved, now);
        }
        self.block = block;
    }

    /// Counts and traces `count` requests moved from `from` to `to`.
    fn note_redirected(&mut self, from: usize, to: usize, count: u64, now: u64) {
        if count > 0 {
            self.redirected += count;
            self.trace(|| TraceEvent::RequestsRedirected {
                step: now,
                from: from as u64,
                to: to as u64,
                count,
            });
        }
    }

    /// After a plan: the depth is what the queue holds, the baseline
    /// the plan's target.
    fn settle(&mut self, s: usize, target: u64) {
        let depth = self.queues[s - self.lo].len() as u64;
        self.router.rebase(s, depth, target);
    }

    /// Owned shard `s` goes down at `now`.  Its queue — led, under
    /// [`CrashMode::Frozen`], by the request it was serving — is dealt
    /// round-robin over the alive shards; under [`CrashMode::Lost`]
    /// the request in service dies with it.  A driver that cannot take
    /// a request back from service passes `None`.
    pub(crate) fn crash(&mut self, s: usize, now: u64, in_service: Option<Request>) {
        self.crashes += 1;
        self.router.set_alive(s, false);
        self.trace(|| TraceEvent::FaultInjected {
            step: now,
            proc: s as u64,
            kind: "crash".into(),
        });
        let mut orphans = std::mem::take(&mut self.queues[s - self.lo]);
        match (self.crash_mode, in_service) {
            (CrashMode::Lost, Some(_)) => self.dropped += 1,
            (CrashMode::Frozen, Some(r)) => orphans.push_front(r),
            (_, None) => {}
        }
        self.router.clear(s);
        if orphans.is_empty() {
            return;
        }
        // Per-destination counts feed the trace.
        let n = self.router.n();
        let mut landed = vec![0u64; n];
        let mut cursor = s;
        for r in orphans {
            let Some(to) = self.next_alive((cursor + 1) % n) else {
                // Every shard is down: the request cannot survive.
                self.dropped += 1;
                continue;
            };
            cursor = to;
            landed[to] += 1;
            self.deliver(to, r, false, now);
        }
        for (to, count) in landed.into_iter().enumerate() {
            self.note_redirected(s, to, count, now);
        }
    }

    /// Owned shard `s` rejoins at `now`, its trigger baseline at zero.
    pub(crate) fn recover(&mut self, s: usize, now: u64) {
        self.recoveries += 1;
        self.router.set_alive(s, true);
        self.trace(|| TraceEvent::CrashRecovered {
            step: now,
            proc: s as u64,
        });
    }

    /// Takes in what another group's outbox addressed to an owned
    /// shard.  A shard that crashed since a plan was cut has nothing
    /// to donate, and its baseline resets at recovery anyway.
    pub(crate) fn receive(&mut self, msg: Msg, now: u64) {
        match msg {
            Msg::Deliver { shard, req, routed } => self.deliver(shard, req, routed, now),
            Msg::Donate {
                shard,
                target,
                transfers,
            } => {
                if self.router.is_alive(shard) {
                    self.give(shard, transfers.into_iter(), now);
                    self.settle(shard, target);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::balance::even_shares;
    use dlb_trace::BufferSink;
    use proptest::prelude::*;

    fn group(n: usize, (lo, hi): (usize, usize), sink: Option<SharedSink>) -> ShardGroup {
        let router = TriggerRouter::new(n, 2, 2.0, 7).expect("valid params");
        ShardGroup::new((lo, hi), router, CrashMode::Lost, sink)
    }

    fn req(id: u64, key: u64) -> Request {
        Request {
            id,
            key,
            arrival: 0,
            service: 1,
        }
    }

    /// Queued request ids of owned shard `s`, head first.
    fn ids(g: &ShardGroup, s: usize) -> Vec<u64> {
        g.queues[s - g.lo].iter().map(|r| r.id).collect()
    }

    #[test]
    fn placement_is_sticky_and_skips_dead_shards() {
        let mut g = group(8, (0, 8), None);
        let home = home_shard(42, 8);
        g.arrive(req(0, 42), 0);
        assert_eq!(ids(&g, home), [0]);
        g.crash(home, 1, None);
        g.arrive(req(1, 42), 1);
        assert!(ids(&g, home).is_empty(), "a dead shard takes nothing");
        assert_eq!(g.queued(), 2, "orphan and newcomer both live elsewhere");
        g.recover(home, 2);
        g.arrive(req(2, 42), 2);
        assert_eq!(ids(&g, home), [2]);
        for s in 0..8 {
            g.crash(s, 3, None);
        }
        g.arrive(req(3, 42), 3);
        assert_eq!((g.queued(), g.dropped), (0, 4), "nowhere left to queue");
    }

    #[test]
    fn a_shard_that_runs_dry_pulls_work() {
        let mut g = group(4, (0, 4), None);
        for id in 0..12 {
            g.deliver(1, req(id, 0), false, 0);
        }
        g.deliver(0, req(99, 0), false, 0);
        g.settle(0, 1);
        let before = g.router.rebalances();
        assert_eq!(g.dequeue(0, 1).map(|r| r.id), Some(99));
        assert_eq!(
            g.router.rebalances(),
            before + 1,
            "the shrink trigger fired"
        );
        let depths: Vec<u64> = (0..4).map(|s| g.router.depth(s)).collect();
        assert_eq!(depths.iter().sum::<u64>(), 12);
        assert!(depths.iter().filter(|&&d| d > 0).count() > 1, "{depths:?}");
        for s in 0..4 {
            assert_eq!(
                g.router.depth(s),
                ids(&g, s).len() as u64,
                "depth is what is queued"
            );
        }
    }

    #[test]
    fn a_plan_across_groups_is_carried_by_the_outbox() {
        let sink = BufferSink::new();
        let mut a = group(4, (0, 2), Some(sink.handle()));
        let mut b = group(4, (2, 4), Some(sink.handle()));
        for id in 0..6 {
            b.deliver(3, req(id, 0), false, 0);
        }
        // Group `a` cuts a plan from a mirror that promises 8 on shard 3.
        a.mirror(3, 8, true);
        let plan = RebalancePlan::new(vec![0, 3], |s| a.router.depth(s));
        a.apply_plan(&plan, 5);
        assert_eq!(a.router.depth(0), 0, "nothing has arrived yet");
        let (to, msg) = a.outbox.pop().expect("the remote member's part");
        assert!(a.outbox.is_empty() && to == 3);
        b.receive(msg, 6);
        // It holds 6, not 8: the planned 4 go, newest block, oldest first.
        assert_eq!(ids(&b, 3), [0, 1]);
        assert_eq!((b.router.depth(3), b.redirected), (2, 4));
        let delivered: Vec<u64> = b
            .outbox
            .drain(..)
            .map(|(to, msg)| match msg {
                Msg::Deliver {
                    shard: 0,
                    req,
                    routed: false,
                } if to == 0 => req.id,
                _ => panic!("expected a move to shard 0"),
            })
            .collect();
        assert_eq!(delivered, [2, 3, 4, 5]);
        assert_eq!(
            sink.take(),
            [TraceEvent::RequestsRedirected {
                step: 6,
                from: 3,
                to: 0,
                count: 4
            }]
        );
    }

    /// `sim.rs`'s `Engine::apply_plan` as it stood before this module
    /// existed: members in order push their surplus, newest first, onto
    /// the *front* of one pool, then fill up from its front.  Returns
    /// the `(from, to, count)` redirects in emission order.
    fn pool_reference(
        queues: &mut [VecDeque<Request>],
        members: &[usize],
        targets: &[u64],
    ) -> Vec<(usize, usize, u64)> {
        let mut pool: VecDeque<(usize, Request)> = VecDeque::new();
        for (&m, &target) in members.iter().zip(targets) {
            while queues[m].len() as u64 > target {
                pool.push_front((m, queues[m].pop_back().expect("len > target")));
            }
        }
        let mut redirects = Vec::new();
        for (&m, &target) in members.iter().zip(targets) {
            let first = redirects.len();
            while (queues[m].len() as u64) < target {
                let (from, r) = pool.pop_front().expect("targets sum to total");
                queues[m].push_back(r);
                match redirects[first..].iter_mut().find(|(f, _, _)| *f == from) {
                    Some((_, _, c)) => *c += 1,
                    None => redirects.push((from, m, 1)),
                }
            }
        }
        assert!(pool.is_empty());
        redirects
    }

    proptest! {
        /// The byte-identity argument for the donor order, checked: on
        /// any queues and any member list the staircase leaves every
        /// queue, and emits every redirect, exactly as the pool did.
        #[test]
        fn the_staircase_reproduces_the_pool(
            lens in prop::collection::vec(0usize..12, 6),
            picks in prop::collection::vec(0usize..6, 2..5),
        ) {
            let mut members = picks.clone();
            members.sort_unstable();
            members.dedup();
            prop_assume!(members.len() >= 2);
            // Back in draw order, which is arbitrary.
            members.sort_by_key(|m| picks.iter().position(|p| p == m));

            let sink = BufferSink::new();
            let mut g = group(6, (0, 6), Some(sink.handle()));
            let mut next_id = 0;
            for (s, &len) in lens.iter().enumerate() {
                for _ in 0..len {
                    g.deliver(s, req(next_id, 0), false, 0);
                    next_id += 1;
                }
            }
            let mut expected = g.queues.clone();
            let plan = RebalancePlan::new(members.clone(), |s| lens[s] as u64);
            let targets = even_shares(members.iter().map(|&m| lens[m] as u64).sum(), members.len());
            prop_assert_eq!(&plan.targets, &targets);
            let redirects = pool_reference(&mut expected, &members, &targets);

            g.apply_plan(&plan, 9);
            for (s, queue) in expected.iter().enumerate() {
                let want: Vec<u64> = queue.iter().map(|r| r.id).collect();
                prop_assert_eq!(ids(&g, s), want, "queue of shard {}", s);
                prop_assert_eq!(g.router.depth(s), queue.len() as u64);
            }
            let events: Vec<TraceEvent> = redirects
                .iter()
                .map(|&(from, to, count)| TraceEvent::RequestsRedirected {
                    step: 9,
                    from: from as u64,
                    to: to as u64,
                    count,
                })
                .collect();
            prop_assert_eq!(sink.take(), events);
            prop_assert_eq!(g.redirected, redirects.iter().map(|r| r.2).sum::<u64>());
            prop_assert!(g.outbox.is_empty());
        }
    }
}
