//! The shard state machine.
//!
//! A [`ShardGroup`] owns every shard of an `n`-shard service: their
//! FIFO queues, a [`TriggerRouter`] as trigger bookkeeping, the fault
//! and redirect counters and the trace sink.  The whole machine is four
//! entry points — [`arrive`](ShardGroup::arrive),
//! [`dequeue`](ShardGroup::dequeue), [`crash`](ShardGroup::crash),
//! [`recover`](ShardGroup::recover) — and it knows nothing about time:
//! the clock is the `now` argument, which [`crate::sim::run_sim`]
//! advances one tick at a time from its `CalendarQueue`.
//!
//! Semantics:
//! - A shard's *depth* is what sits in its queue: requests placed and
//!   not yet handed to service by [`dequeue`](ShardGroup::dequeue).
//! - Every enqueue of a first placement runs the grow trigger, every
//!   dequeue the shrink trigger; a fired plan's donors give up their
//!   tail block (the newest requests) in FIFO order.
//! - A crashed shard's queue is dealt round-robin over the alive shards
//!   from the crash site, without running the trigger; the request in
//!   service, if any, follows the plan's [`CrashMode`].  With every
//!   shard down a request is dropped.

use std::collections::VecDeque;

use dlb_faults::CrashMode;
use dlb_trace::{SharedSink, TraceEvent};
use dlb_workload::service::Request;

use crate::home_shard;
use crate::router::TriggerRouter;

pub(crate) struct ShardGroup {
    /// One queue per shard.
    queues: Vec<VecDeque<Request>>,
    router: TriggerRouter,
    crash_mode: CrashMode,
    sink: Option<SharedSink>,
    pub(crate) dropped: u64,
    pub(crate) redirected: u64,
    pub(crate) crashes: u64,
    pub(crate) recoveries: u64,
}

impl ShardGroup {
    /// A group over the `router.n()` shards of the service.
    pub(crate) fn new(
        router: TriggerRouter,
        crash_mode: CrashMode,
        sink: Option<SharedSink>,
    ) -> Self {
        ShardGroup {
            queues: vec![VecDeque::new(); router.n()],
            router,
            crash_mode,
            sink,
            dropped: 0,
            redirected: 0,
            crashes: 0,
            recoveries: 0,
        }
    }

    /// The trigger bookkeeping: depths, liveness and the rebalances
    /// fired.
    pub(crate) fn router(&self) -> &TriggerRouter {
        &self.router
    }

    /// Requests queued over all shards.
    pub(crate) fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
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

    /// Queues `r` on the first alive shard from `s`: a first placement
    /// (`routed`) is traced and runs the grow trigger, a move only
    /// bumps the depth.
    fn deliver(&mut self, s: usize, r: Request, routed: bool, now: u64) {
        let Some(s) = self.next_alive(s) else {
            self.dropped += 1;
            return;
        };
        self.queues[s].push_back(r);
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
            self.apply_plan(now);
        }
    }

    /// A new request: sticky placement on its key's home shard (hot
    /// keys stay skewed, which is what the trigger rule then repairs),
    /// or the next alive shard after it.
    pub(crate) fn arrive(&mut self, r: Request, now: u64) {
        self.deliver(home_shard(r.key, self.router.n()), r, true, now);
    }

    /// Hands the head of shard `s`'s queue to service and runs
    /// the shrink trigger (the paper's work-stealing direction).
    /// Inlined: the simulated driver asks every idle shard every tick,
    /// and most of those calls find an empty queue.
    #[inline]
    pub(crate) fn dequeue(&mut self, s: usize, now: u64) -> Option<Request> {
        let r = self.queues[s].pop_front()?;
        debug_assert!(self.router.is_alive(s), "a crashed shard's queue is empty");
        if self.router.note_dequeue(s).is_some() {
            self.apply_plan(now);
        }
        Some(r)
    }

    /// Moves queued requests to match the plan the router just fired,
    /// which already committed every member's depth and baseline.
    /// Donors in *reverse* member order meet receivers in member order
    /// (a monotone staircase); each donor deals its tail block — its
    /// newest requests — oldest first, so the FIFO order of what stays
    /// put is untouched.  The plan is lifted out of the router for the
    /// duration and handed back, buffers intact, for the next fire.
    fn apply_plan(&mut self, now: u64) {
        let plan = std::mem::take(&mut self.router.plan);
        let (members, targets) = (&plan.members, &plan.targets);
        let keep = |i: usize| usize::try_from(targets[i]).expect("a target is a queue length");
        let mut to = 0;
        for (from, &m) in members.iter().enumerate().rev() {
            if self.queues[m].len() <= keep(from) {
                continue;
            }
            // On loan while its tail is dealt: it is no receiver, and
            // its live length would read as a deficit.
            let mut donor = std::mem::take(&mut self.queues[m]);
            let mut dealt = keep(from);
            while dealt < donor.len() {
                // Even shares conserve the total: a surplus always
                // finds a deficit further on.
                let need = loop {
                    let len = self.queues[members[to]].len();
                    if to != from && len < keep(to) {
                        break keep(to) - len;
                    }
                    to += 1;
                };
                let take = need.min(donor.len() - dealt);
                self.queues[members[to]].extend(donor.range(dealt..dealt + take));
                dealt += take;
                self.note_redirected(m, members[to], take as u64, now);
            }
            donor.truncate(keep(from));
            self.queues[m] = donor;
        }
        debug_assert!(members
            .iter()
            .all(|&m| self.queues[m].len() as u64 == self.router.depth(m)));
        self.router.plan = plan;
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

    /// Shard `s` goes down at `now`.  Its queue — led, under
    /// [`CrashMode::Frozen`], by the request it was serving — is dealt
    /// round-robin over the alive shards; under [`CrashMode::Lost`]
    /// the request in service dies with it.  An idle shard passes
    /// `None`.
    pub(crate) fn crash(&mut self, s: usize, now: u64, in_service: Option<Request>) {
        self.crashes += 1;
        self.router.set_alive(s, false);
        self.trace(|| TraceEvent::FaultInjected {
            step: now,
            proc: s as u64,
            kind: "crash".into(),
        });
        let mut orphans = std::mem::take(&mut self.queues[s]);
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

    /// Shard `s` rejoins at `now`, its trigger baseline at zero.
    pub(crate) fn recover(&mut self, s: usize, now: u64) {
        self.recoveries += 1;
        self.router.set_alive(s, true);
        self.trace(|| TraceEvent::CrashRecovered {
            step: now,
            proc: s as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::balance::even_shares;
    use dlb_trace::BufferSink;
    use proptest::prelude::*;

    fn group(n: usize, sink: Option<SharedSink>) -> ShardGroup {
        let router = TriggerRouter::new(n, 2, 2.0, 7).expect("valid params");
        ShardGroup::new(router, CrashMode::Lost, sink)
    }

    fn req(id: u64, key: u64) -> Request {
        Request {
            id,
            key,
            arrival: 0,
            service: 1,
        }
    }

    /// Test-only access for the engine's oracles.
    impl ShardGroup {
        /// Queues `count` requests numbered from `*next_id` on alive
        /// shard `s` and sets its trigger baseline to `l_old`, without
        /// running the trigger.
        pub(crate) fn stock(&mut self, s: usize, count: u64, l_old: u64, next_id: &mut u64) {
            for _ in 0..count {
                self.queues[s].push_back(req(*next_id, 0));
                *next_id += 1;
            }
            self.router.rebase(s, self.queues[s].len() as u64, l_old);
        }

        /// Every shard's queued request ids, head first.
        pub(crate) fn queue_ids(&self) -> Vec<Vec<u64>> {
            (0..self.queues.len()).map(|s| ids(self, s)).collect()
        }
    }

    /// Queued request ids of shard `s`, head first.
    fn ids(g: &ShardGroup, s: usize) -> Vec<u64> {
        g.queues[s].iter().map(|r| r.id).collect()
    }

    #[test]
    fn placement_is_sticky_and_skips_dead_shards() {
        let mut g = group(8, None);
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
        let mut g = group(4, None);
        for id in 0..12 {
            g.deliver(1, req(id, 0), false, 0);
        }
        g.deliver(0, req(99, 0), false, 0);
        g.router.rebase(0, 1, 1);
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
            let mut g = group(6, Some(sink.handle()));
            let mut next_id = 0;
            for (s, &len) in lens.iter().enumerate() {
                for _ in 0..len {
                    g.deliver(s, req(next_id, 0), false, 0);
                    next_id += 1;
                }
            }
            let mut expected = g.queues.clone();
            // Committed through the router as `fire` commits a draw.
            g.router.plan.members.clone_from(&members);
            g.router.commit();
            let targets = even_shares(members.iter().map(|&m| lens[m] as u64).sum(), members.len());
            prop_assert_eq!(&g.router.plan.targets, &targets);
            let redirects = pool_reference(&mut expected, &members, &targets);

            g.apply_plan(9);
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
        }
    }
}
