//! Trigger-rule bookkeeping over live shard queue depths.
//!
//! The paper's processors watch their *own* load and fire a balancing
//! operation with `δ` random partners when it grows or shrinks by the
//! factor `f` since the last balance.  [`TriggerRouter`] transplants
//! that rule onto a request-routing front-end: the "load" of a shard is
//! its queue depth — requests queued and not yet handed to service —
//! and every enqueue/dequeue runs the grow/shrink trigger check.  A
//! fired trigger produces a [`RebalancePlan`]: the member set and the
//! equal-share target depths from the paper's balancing primitive
//! ([`dlb_core::balance`]).
//!
//! A fire costs what its `δ + 1` members cost, whatever `n` is, and
//! allocates nothing: the partners are drawn from a cached list of the
//! alive shards without copying it, and the plan is one buffer the
//! router refills in place and lends out.
//!
//! The router only does bookkeeping — `group::ShardGroup` owns the
//! actual queues, places arrivals and moves requests to match the plan
//! (newest requests migrate, so FIFO service order of the old requests
//! is preserved).

use dlb_core::{balance::even_shares_into, Params};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// One fired trigger: equalise `members` (initiator first) so member
/// `k` holds exactly `targets[k]` queued requests.  Public because
/// [`TriggerRouter::note_enqueue`] and [`TriggerRouter::note_dequeue`]
/// return it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalancePlan {
    /// Participating shards, initiator first, partners in draw order.
    pub members: Vec<usize>,
    /// Target queue depth per member (paper's even split, ±1).
    pub targets: Vec<u64>,
}

/// Deterministic trigger-rule bookkeeping over `n` shard depths.
pub struct TriggerRouter {
    params: Params,
    /// Queued (not in-service) requests per shard.
    depths: Vec<u64>,
    /// Depth at each shard's last balance — the paper's `l_old`.
    l_old: Vec<u64>,
    alive: Vec<bool>,
    /// The shards with `alive[s]`, ascending; [`Self::set_alive`] is the
    /// only writer of either.
    alive_list: Vec<usize>,
    rng: ChaCha8Rng,
    rebalances: u64,
    /// The last fired plan, recut in place by the next fire.  A
    /// `ShardGroup` lifts it out while it moves the requests and puts
    /// it back for its buffers.
    pub(crate) plan: RebalancePlan,
    /// The partner draw's `(slot, shard)` log of swapped-away slots.
    displaced: Vec<(usize, usize)>,
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
            alive_list: (0..shards).collect(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5e_55_1d_b5),
            rebalances: 0,
            plan: RebalancePlan::default(),
            displaced: Vec::new(),
        })
    }

    /// Number of shards.
    pub(crate) fn n(&self) -> usize {
        self.depths.len()
    }

    /// Queued depth of shard `s`.
    pub fn depth(&self, s: usize) -> u64 {
        self.depths[s]
    }

    /// Whether shard `s` is up.
    pub(crate) fn is_alive(&self, s: usize) -> bool {
        self.alive[s]
    }

    /// Trigger-rule rebalances fired so far.
    pub(crate) fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Records one request enqueued on `s` and runs the grow trigger.
    /// A fired plan is on loan until the next call.
    pub fn note_enqueue(&mut self, s: usize) -> Option<&RebalancePlan> {
        self.depths[s] += 1;
        if self.params.grow_triggered(self.depths[s], self.l_old[s]) {
            self.fire(s)
        } else {
            None
        }
    }

    /// Records one request dequeued from `s` and runs the shrink
    /// trigger (the paper's work-stealing direction).
    pub fn note_dequeue(&mut self, s: usize) -> Option<&RebalancePlan> {
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
    pub(crate) fn set_alive(&mut self, s: usize, alive: bool) {
        if self.alive[s] != alive {
            self.alive[s] = alive;
            let at = self.alive_list.partition_point(|&p| p < s);
            if alive {
                self.alive_list.insert(at, s);
            } else {
                self.alive_list.remove(at);
            }
        }
        if alive {
            self.l_old[s] = 0;
        }
    }

    /// Zeroes the depth and baseline of a crashed shard whose queue the
    /// engine just confiscated for redistribution.
    pub(crate) fn clear(&mut self, s: usize) {
        self.depths[s] = 0;
        self.l_old[s] = 0;
    }

    /// Reflects a crash-redistributed request landing on `s` *without*
    /// running the trigger check (mass moves would otherwise fire a
    /// cascade of overlapping rebalances mid-redistribution; the next
    /// organic enqueue/dequeue re-arms the rule against the new depth).
    pub(crate) fn note_redistributed(&mut self, s: usize) {
        self.depths[s] += 1;
    }

    /// Fires a balance at initiator `s`: draws up to `δ` distinct alive
    /// partners, commits the plan, and returns it for the engine to act
    /// on.  With no alive partner the trigger only resets its baseline.
    fn fire(&mut self, s: usize) -> Option<&RebalancePlan> {
        if !self.draw_members(s) {
            self.l_old[s] = self.depths[s];
            return None;
        }
        self.commit();
        Some(&self.plan)
    }

    /// Splits the plan's members' depths evenly and commits each share
    /// as that member's depth and `l_old`: the queues the engine then
    /// moves requests between end up holding exactly these depths.
    pub(crate) fn commit(&mut self) {
        let RebalancePlan { members, targets } = &mut self.plan;
        let total = members.iter().map(|&m| self.depths[m]).sum();
        even_shares_into(total, members.len(), targets);
        for (&m, &t) in members.iter().zip(targets.iter()) {
            self.depths[m] = t;
            self.l_old[m] = t;
        }
        self.rebalances += 1;
    }

    /// The partner draw: sets the plan's members to `[s, partners…]`
    /// with up to `δ` distinct partners uniform over the alive shards
    /// other than `s`, or returns `false` when no other shard is alive.
    /// A partial Fisher–Yates over "alive list minus `s`": draw order
    /// is the partner order, so the group is a pure function of the RNG
    /// stream and the alive set.  The sequence is never written out —
    /// slot `i` reads straight off the alive list unless one of the at
    /// most `δ` swaps so far displaced it — so a draw costs `δ` RNG
    /// calls and `O(δ²)` comparisons whatever `n` is, and draws exactly
    /// what the written-out shuffle would.
    fn draw_members(&mut self, s: usize) -> bool {
        let list = &self.alive_list;
        // The list is ascending, so `s` (if it is in there) splits it:
        // slots below it read as they are, the rest one further on.
        let skip = usize::from(self.alive[s]);
        let len = list.len() - skip;
        let want = self.params.delta().min(len);
        if want == 0 {
            return false;
        }
        let untouched = |i: usize| if list[i] < s { list[i] } else { list[i + skip] };
        let (members, displaced) = (&mut self.plan.members, &mut self.displaced);
        members.clear();
        members.push(s);
        displaced.clear();
        for k in 0..want {
            let j = self.rng.gen_range(k..len);
            let slot = |i: usize| {
                let moved = displaced.iter().find(|&&(at, _)| at == i);
                moved.map_or_else(|| untouched(i), |&(_, shard)| shard)
            };
            let (at_k, at_j) = (slot(k), slot(j));
            members.push(at_j);
            // The other half of the swap; slot `k` itself is final and
            // no later draw reaches back to it.
            match displaced.iter_mut().find(|(at, _)| *at == j) {
                Some(entry) => entry.1 = at_k,
                None => displaced.push((j, at_k)),
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Test-only access for the engine's oracles.
    impl TriggerRouter {
        /// Overwrites shard `s`'s depth and trigger baseline without
        /// running the trigger.
        pub(crate) fn rebase(&mut self, s: usize, depth: u64, l_old: u64) {
            self.depths[s] = depth;
            self.l_old[s] = l_old;
        }

        /// How far the partner draw's RNG has run.
        pub(crate) fn word_pos(&self) -> u128 {
            self.rng.get_word_pos()
        }
    }

    fn router(n: usize) -> TriggerRouter {
        TriggerRouter::new(n, 2, 2.0, 7).expect("valid params")
    }

    #[test]
    fn grow_trigger_equalises_depths() {
        let mut r = router(4);
        let mut plans = Vec::new();
        for _ in 0..64 {
            plans.extend(r.note_enqueue(0).cloned());
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
                log.extend(r.note_enqueue((i % 3) as usize).cloned());
            }
            log
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    /// The partner draw as it stood before the alive list was cached:
    /// write out the alive peers of `s`, shuffle the first `δ` slots.
    fn materialised_draw(r: &mut TriggerRouter, s: usize) -> Option<Vec<usize>> {
        let mut peers: Vec<usize> = (0..r.n()).filter(|&p| p != s && r.alive[p]).collect();
        let want = r.params.delta().min(peers.len());
        if want == 0 {
            return None;
        }
        for k in 0..want {
            let j = r.rng.gen_range(k..peers.len());
            peers.swap(k, j);
        }
        let mut members = vec![s];
        members.extend_from_slice(&peers[..want]);
        Some(members)
    }

    proptest! {
        /// The identity argument for the draw, checked: `alive_list` is
        /// `alive` filtered whatever `set_alive` saw, and on any alive
        /// set and any initiator — a dead one included — the virtual
        /// shuffle names the members the written-out one names and
        /// leaves the RNG where it leaves it.
        #[test]
        fn the_virtual_draw_is_the_materialised_draw(
            n in 2usize..=80,
            flips in prop::collection::vec((0usize..80, any::<bool>()), 0..200),
            picks in (0usize..80, 0usize..79),
            seed in any::<u64>(),
        ) {
            let (s, delta) = (picks.0 % n, 1 + picks.1 % (n - 1));
            let mut new = TriggerRouter::new(n, delta, 1.5, seed).expect("valid params");
            let mut old = TriggerRouter::new(n, delta, 1.5, seed).expect("valid params");
            for (p, up) in flips {
                new.set_alive(p % n, up);
                old.alive[p % n] = up;
                let filtered: Vec<usize> = (0..n).filter(|&p| old.alive[p]).collect();
                prop_assert_eq!(&new.alive_list, &filtered);
            }
            // Twice, the second time with `s` in its other state: both
            // kinds of initiator, and the log of one draw must not leak
            // into the next.
            for other_state in [false, true] {
                let up = old.alive[s] != other_state;
                new.set_alive(s, up);
                old.alive[s] = up;
                let want = materialised_draw(&mut old, s);
                let got = new.draw_members(s).then(|| new.plan.members.clone());
                prop_assert_eq!(got, want);
                prop_assert_eq!(new.word_pos(), old.word_pos());
            }
        }
    }
}
