//! Trigger-rule bookkeeping over live shard queue depths.
//!
//! The paper's processors watch their *own* load and fire a balancing
//! operation with `δ` random partners when it grows or shrinks by the
//! factor `f` since the last balance.  [`TriggerRouter`] transplants
//! that rule onto a request-routing front-end: the "load" of a shard is
//! its queue depth — requests queued and not yet handed to service —
//! and every enqueue/dequeue runs the grow/shrink trigger check.  A
//! fired trigger produces a [`RebalancePlan`]: the member set, the
//! equal-share target depths from the paper's balancing primitive
//! ([`dlb_core::balance`]), and the moves that reach them.
//!
//! The router only does bookkeeping — `group::ShardGroup` owns the
//! actual queues, places arrivals and moves requests to match the plan
//! (newest requests migrate, so FIFO service order of the old requests
//! is preserved).

use dlb_core::{balance::even_shares_into, Params};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// One fired trigger: equalise `members` (initiator first) so member
/// `k` holds exactly `targets[k]` queued requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalancePlan {
    /// Participating shards, initiator first, partners in draw order.
    pub members: Vec<usize>,
    /// Target queue depth per member (paper's even split, ±1).
    pub targets: Vec<u64>,
    /// Who gives how many to whom to get there: `(donor, receiver,
    /// count)` by member index.  Surpluses meet deficits with donors
    /// taken in *reverse* member order against receivers in member
    /// order, so one donor's moves are consecutive.
    pub(crate) moves: Vec<(usize, usize, u64)>,
}

impl RebalancePlan {
    /// The plan that equalises `members`, shard `s` holding `depth(s)`.
    pub(crate) fn new(members: Vec<usize>, depth: impl Fn(usize) -> u64) -> Self {
        let mut targets = Vec::with_capacity(members.len());
        let total = members.iter().map(|&m| depth(m)).sum();
        even_shares_into(total, members.len(), &mut targets);
        let deficit = |i: usize| targets[i].saturating_sub(depth(members[i]));
        let mut moves = Vec::new();
        let (mut to, mut need) = (0, deficit(0));
        for (from, &m) in members.iter().enumerate().rev() {
            let mut surplus = depth(m).saturating_sub(targets[from]);
            while surplus > 0 {
                // Even shares conserve the total: a surplus always
                // finds a deficit further on.
                while need == 0 {
                    to += 1;
                    need = deficit(to);
                }
                let take = surplus.min(need);
                moves.push((from, to, take));
                surplus -= take;
                need -= take;
            }
        }
        RebalancePlan {
            members,
            targets,
            moves,
        }
    }
}

/// Deterministic trigger-rule bookkeeping over `n` shard depths.
pub struct TriggerRouter {
    params: Params,
    /// Queued (not in-service) requests per shard.
    depths: Vec<u64>,
    /// Depth at each shard's last balance — the paper's `l_old`.
    l_old: Vec<u64>,
    alive: Vec<bool>,
    rng: ChaCha8Rng,
    rebalances: u64,
    scratch: Vec<usize>,
}

impl TriggerRouter {
    /// A router over `shards` shards with trigger partners `delta` and
    /// trigger factor `f` (validated by [`Params::new`]).
    pub fn new(shards: usize, delta: usize, f: f64, seed: u64) -> Result<Self, String> {
        let params = Params::new(shards, delta, f, 1).map_err(|e| e.to_string())?;
        Ok(TriggerRouter {
            params,
            depths: vec![0; shards],
            l_old: vec![0; shards],
            alive: vec![true; shards],
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5e_55_1d_b5),
            rebalances: 0,
            scratch: Vec::new(),
        })
    }

    /// Number of shards.
    pub fn n(&self) -> usize {
        self.depths.len()
    }

    /// Queued depth of shard `s`.
    pub fn depth(&self, s: usize) -> u64 {
        self.depths[s]
    }

    /// Whether shard `s` is up.
    pub fn is_alive(&self, s: usize) -> bool {
        self.alive[s]
    }

    /// Trigger-rule rebalances fired so far.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Records one request enqueued on `s` and runs the grow trigger.
    pub fn note_enqueue(&mut self, s: usize) -> Option<RebalancePlan> {
        self.depths[s] += 1;
        if self.params.grow_triggered(self.depths[s], self.l_old[s]) {
            self.fire(s)
        } else {
            None
        }
    }

    /// Records one request dequeued from `s` and runs the shrink
    /// trigger (the paper's work-stealing direction).
    pub fn note_dequeue(&mut self, s: usize) -> Option<RebalancePlan> {
        debug_assert!(self.depths[s] > 0, "dequeue from empty shard {s}");
        self.depths[s] -= 1;
        if self.params.shrink_triggered(self.depths[s], self.l_old[s]) {
            self.fire(s)
        } else {
            None
        }
    }

    /// Marks shard `s` up or down.  A revived shard restarts its
    /// trigger baseline at zero.
    pub fn set_alive(&mut self, s: usize, alive: bool) {
        self.alive[s] = alive;
        if alive {
            self.l_old[s] = 0;
        }
    }

    /// Zeroes the depth of a crashed shard whose queue the engine just
    /// confiscated for redistribution.
    pub fn clear(&mut self, s: usize) {
        self.rebase(s, 0, 0);
    }

    /// Overwrites shard `s`'s depth and trigger baseline without
    /// running the trigger: how a `ShardGroup` settles a member after
    /// a plan moved its requests, and how it refreshes its mirror of a
    /// shard another group owns.
    pub(crate) fn rebase(&mut self, s: usize, depth: u64, l_old: u64) {
        self.depths[s] = depth;
        self.l_old[s] = l_old;
    }

    /// Reflects a crash-redistributed request landing on `s` *without*
    /// running the trigger check (mass moves would otherwise fire a
    /// cascade of overlapping rebalances mid-redistribution; the next
    /// organic enqueue/dequeue re-arms the rule against the new depth).
    pub fn note_redistributed(&mut self, s: usize) {
        self.depths[s] += 1;
    }

    /// Fires a balance at initiator `s`: draws up to `δ` distinct alive
    /// partners, computes the even-share targets, commits the new
    /// depths and `l_old`, and returns the plan for the engine to act
    /// on.  With no alive partner the trigger only resets its baseline.
    fn fire(&mut self, s: usize) -> Option<RebalancePlan> {
        let Some(members) = self.draw_members(s) else {
            self.l_old[s] = self.depths[s];
            return None;
        };
        let plan = RebalancePlan::new(members, |m| self.depths[m]);
        for (&m, &t) in plan.members.iter().zip(&plan.targets) {
            self.rebase(m, t, t);
        }
        self.rebalances += 1;
        Some(plan)
    }

    /// The partner draw: `[s, partners…]` with up to `δ` distinct
    /// partners uniform over the alive shards other than `s`, or `None`
    /// when no other shard is alive.  A partial Fisher–Yates over the
    /// alive peers: draw order is the partner order, so the group is a
    /// pure function of the RNG stream and the alive set.
    fn draw_members(&mut self, s: usize) -> Option<Vec<usize>> {
        let (peers, alive) = (&mut self.scratch, &self.alive);
        peers.clear();
        peers.extend((0..alive.len()).filter(|&p| p != s && alive[p]));
        let want = self.params.delta().min(peers.len());
        if want == 0 {
            return None;
        }
        for k in 0..want {
            let j = self.rng.gen_range(k..peers.len());
            peers.swap(k, j);
        }
        let mut members = Vec::with_capacity(want + 1);
        members.push(s);
        members.extend_from_slice(&peers[..want]);
        Some(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(n: usize) -> TriggerRouter {
        TriggerRouter::new(n, 2, 2.0, 7).expect("valid params")
    }

    #[test]
    fn grow_trigger_equalises_depths() {
        let mut r = router(4);
        let mut plans = Vec::new();
        for _ in 0..64 {
            if let Some(plan) = r.note_enqueue(0) {
                plans.push(plan);
            }
        }
        assert!(!plans.is_empty(), "piling onto one shard must trigger");
        for plan in &plans {
            assert_eq!(plan.members[0], 0, "initiator leads the member list");
            assert_eq!(plan.members.len(), 3, "initiator + delta partners");
            let (lo, hi) = (
                plan.targets.iter().min().unwrap(),
                plan.targets.iter().max().unwrap(),
            );
            assert!(hi - lo <= 1, "even split ±1, got {:?}", plan.targets);
        }
        let total: u64 = (0..4).map(|s| r.depth(s)).sum();
        assert_eq!(total, 64, "rebalancing conserves requests");
    }

    #[test]
    fn dead_shards_never_join_a_balance() {
        let mut r = router(4);
        r.set_alive(3, false);
        for _ in 0..200 {
            if let Some(plan) = r.note_enqueue(1) {
                assert!(!plan.members.contains(&3));
            }
        }
        assert_eq!(r.depth(3), 0);
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let run = |seed| {
            let mut r = TriggerRouter::new(6, 2, 1.5, seed).unwrap();
            let mut log = Vec::new();
            for i in 0..300u64 {
                if let Some(p) = r.note_enqueue((i % 3) as usize) {
                    log.push(p);
                }
            }
            log
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
