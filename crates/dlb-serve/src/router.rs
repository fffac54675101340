//! Trigger-rule request placement over live shard queue depths.
//!
//! The paper's processors watch their *own* load and fire a balancing
//! operation with `δ` random partners when it grows or shrinks by the
//! factor `f` since the last balance.  [`TriggerRouter`] transplants
//! that rule onto a request-routing front-end: the "load" of a shard is
//! its queue depth, a new request lands on its key's home shard
//! (sticky placement preserves hot-key skew, which is precisely what
//! the trigger rule then has to fix), and every enqueue/dequeue runs
//! the grow/shrink trigger check.  A fired trigger produces a
//! [`RebalancePlan`]: the member set and the equal-share target depths
//! from the paper's balancing primitive ([`dlb_core::balance`]).
//!
//! The router only does bookkeeping — the engine owns the actual queues
//! and moves requests to match the plan (newest requests migrate, so
//! FIFO service order of the old requests is preserved).

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
}

/// Deterministic trigger-rule placement state (simulated-clock engine).
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

    /// The key's home shard, ignoring liveness.  Delegates to the
    /// crate-level [`crate::home_shard`] so sim and wall placement can
    /// never drift.
    pub fn home_shard(&self, key: u64) -> usize {
        crate::home_shard(key, self.depths.len())
    }

    /// Placement shard for `key`: the home shard, or the next alive
    /// shard after it (wrapping) when the home is down.  `None` when
    /// every shard is down.
    pub fn place(&self, key: u64) -> Option<usize> {
        let n = self.depths.len();
        let home = self.home_shard(key);
        (0..n).map(|k| (home + k) % n).find(|&s| self.alive[s])
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
        self.depths[s] = 0;
        self.l_old[s] = 0;
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
        let drawn = draw_members(
            &mut self.rng,
            self.depths.len(),
            s,
            self.params.delta(),
            |p| self.alive[p],
            &mut self.scratch,
        );
        let Some(members) = drawn else {
            self.l_old[s] = self.depths[s];
            return None;
        };
        let total: u64 = members.iter().map(|&m| self.depths[m]).sum();
        let mut targets = Vec::with_capacity(members.len());
        even_shares_into(total, members.len(), &mut targets);
        for (&m, &t) in members.iter().zip(&targets) {
            self.depths[m] = t;
            self.l_old[m] = t;
        }
        self.rebalances += 1;
        Some(RebalancePlan { members, targets })
    }
}

/// The partner draw of both serving engines: `[s, partners…]` with up
/// to `delta` distinct partners uniform over the alive shards other
/// than `s`, or `None` when no other shard is alive.  A partial
/// Fisher–Yates over the alive peers (collected into the scratch
/// `peers`): draw order is the partner order, so the group is a pure
/// function of the RNG stream and the alive set.
pub(crate) fn draw_members(
    rng: &mut ChaCha8Rng,
    n: usize,
    s: usize,
    delta: usize,
    alive: impl Fn(usize) -> bool,
    peers: &mut Vec<usize>,
) -> Option<Vec<usize>> {
    peers.clear();
    peers.extend((0..n).filter(|&p| p != s && alive(p)));
    let want = delta.min(peers.len());
    if want == 0 {
        return None;
    }
    for k in 0..want {
        let j = rng.gen_range(k..peers.len());
        peers.swap(k, j);
    }
    let mut members = Vec::with_capacity(want + 1);
    members.push(s);
    members.extend_from_slice(&peers[..want]);
    Some(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(n: usize) -> TriggerRouter {
        TriggerRouter::new(n, 2, 2.0, 7).expect("valid params")
    }

    #[test]
    fn placement_is_sticky_and_skips_dead_shards() {
        let mut r = router(8);
        let home = r.home_shard(42);
        assert_eq!(r.place(42), Some(home));
        r.set_alive(home, false);
        let moved = r.place(42).expect("others alive");
        assert_ne!(moved, home);
        r.set_alive(home, true);
        assert_eq!(r.place(42), Some(home));
        for s in 0..8 {
            r.set_alive(s, false);
        }
        assert_eq!(r.place(42), None);
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
