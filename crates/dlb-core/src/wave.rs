//! The conflict-free wave executor behind `step_jobs`.
//!
//! A balancing operation is *drawn* at its trigger — partner sampling,
//! the only randomness it consumes — and everything after the draw
//! reads and writes only the state of its δ + 1 members.  Operations
//! with disjoint member sets therefore commute bit-exactly, and an
//! engine may defer drawn operations into a [`WaveQueue`] and execute
//! them later, in parallel, as long as every processor still sees its
//! operations in trigger order.  This module owns the three decisions
//! that make that safe, so the two engines ([`crate::Cluster`] and the
//! raw-load [`crate::RawCluster`]) keep only their `execute_*` body and
//! their `fold_outcome`:
//!
//! * **Defer policy.**  Operations are queued only when `jobs > 1` and
//!   the previous step drew at least `threshold` operations (threshold
//!   0: always).  A step expected to stay under the threshold would pay
//!   the queue bookkeeping only to run sequentially at the flush, so
//!   [`WaveQueue::push`] declines and the engine executes at the
//!   trigger.  Execution draws no randomness and outcomes are folded in
//!   trigger order, so the policy can only affect speed, never results.
//! * **Planner.**  Greedy by trigger index: operation k lands in wave
//!   `1 + max(wave of any earlier queued operation sharing a member)`.
//!   The cross-wave order preserves the sequential read/write order on
//!   every shared processor, and the schedule depends only on the
//!   queued member sets, never on `jobs`.  A flush of fewer than
//!   `threshold` operations skips planning and pool dispatch and runs in
//!   trigger order on the calling thread — exactly the per-processor
//!   order the waves reproduce.
//! * **Disjointness invariant.**  Two operations in one wave never
//!   share a processor.  The engines' executors write per-processor
//!   state through raw views from several pool workers at once; this
//!   invariant (checked per wave in debug builds) is what their
//!   `// SAFETY:` comments cite.
//!
//! The engine's side of the contract: flush the queue
//! ([`WaveQueue::execute`], then [`WaveQueue::fold`]) before any
//! non-idle event of a processor for which [`WaveQueue::involves`]
//! holds (the event reads state a queued operation rewrites), and once
//! more at the end of every step, followed by [`WaveQueue::end_step`].

use dlb_pool::par_map;

/// Deferred balancing operations of one engine (see the module docs).
/// `O` is the engine's per-operation outcome, folded in trigger order.
pub struct WaveQueue<O> {
    /// Processors the queue spans.
    n: usize,
    /// Workers a wave is dispatched on; 1 never defers.
    jobs: usize,
    /// Minimum operation count for deferring a step and for
    /// wave-planning a flush.
    threshold: usize,
    /// Operations offered to [`WaveQueue::push`] during the previous
    /// step (the defer predictor) and so far in the current one.
    prev_step_ops: usize,
    step_ops: usize,
    /// Member lists of queued operations, flat, in trigger order.
    members: Vec<usize>,
    /// End offset into `members` of each queued operation.
    ends: Vec<usize>,
    /// Per-processor flag: member of some queued operation.  Like
    /// `wave_mark`, empty until [`WaveQueue::set_jobs`] asks for more
    /// than one job: a sequential queue never defers, so it never reads
    /// either.
    queued: Vec<bool>,
    /// Planner scratch: 1 + index of the last wave touching a
    /// processor (zeroed outside [`WaveQueue::execute`]).
    wave_mark: Vec<u32>,
    wave_of: Vec<u32>,
    wave_ops: Vec<usize>,
    outcomes: Vec<O>,
}

/// A queue over zero processors: the placeholder an engine leaves
/// behind while it `mem::take`s its queue for the duration of a flush.
impl<O> Default for WaveQueue<O> {
    fn default() -> Self {
        WaveQueue {
            n: 0,
            jobs: 1,
            threshold: 0,
            prev_step_ops: 0,
            step_ops: 0,
            members: Vec::new(),
            ends: Vec::new(),
            queued: Vec::new(),
            wave_mark: Vec::new(),
            wave_of: Vec::new(),
            wave_ops: Vec::new(),
            outcomes: Vec::new(),
        }
    }
}

impl<O: Copy + Default + Send> WaveQueue<O> {
    /// An empty, sequential (`jobs = 1`) queue over `n` processors.
    pub fn new(n: usize, threshold: usize) -> Self {
        WaveQueue {
            n,
            threshold,
            ..Self::default()
        }
    }

    /// See [`crate::LoadBalancer::set_step_jobs`].
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
        if self.jobs > 1 && self.queued.len() < self.n {
            self.queued = vec![false; self.n];
            self.wave_mark = vec![0; self.n];
        }
    }

    /// See [`crate::LoadBalancer::set_wave_threshold`].
    pub fn set_threshold(&mut self, threshold: usize) {
        self.threshold = threshold;
    }

    /// Heap bytes of the per-processor planner state (none while the
    /// queue has only ever been sequential).
    pub fn heap_bytes(&self) -> usize {
        self.queued.capacity() + 4 * self.wave_mark.capacity()
    }

    /// Offers a freshly drawn operation over `members` (initiator
    /// first).  Returns `true` if it was queued for the next flush;
    /// `false` means this step is not deferring and the caller must
    /// execute the operation now.
    #[must_use]
    pub fn push(&mut self, members: &[usize]) -> bool {
        self.step_ops += 1;
        let defer = self.jobs > 1 && (self.threshold == 0 || self.prev_step_ops >= self.threshold);
        if defer {
            for &m in members {
                self.queued[m] = true;
            }
            self.members.extend_from_slice(members);
            self.ends.push(self.members.len());
        }
        defer
    }

    /// Whether processor `i` is a member of a queued operation, i.e.
    /// its state is stale until the next flush.  With nothing queued —
    /// always, for a sequential queue — no per-processor state is read.
    #[inline]
    pub fn involves(&self, i: usize) -> bool {
        !self.is_empty() && self.queued[i]
    }

    /// Whether nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// First half of a flush: executes every queued operation —
    /// `exec(members)`, concurrently only for operations with
    /// pairwise-disjoint member sets — and keeps the outcomes for
    /// [`WaveQueue::fold`], which must follow.  Two calls rather than
    /// one taking both closures, so whatever `exec` borrows shared is
    /// free again for the fold to mutate.
    pub fn execute<X>(&mut self, exec: X)
    where
        X: Fn(&[usize]) -> O + Sync,
    {
        let count = self.ends.len();
        let (members, ends) = (self.members.as_slice(), self.ends.as_slice());
        let op = |k: usize| &members[if k == 0 { 0 } else { ends[k - 1] }..ends[k]];
        for &p in members {
            self.queued[p] = false;
        }
        self.outcomes.clear();
        if count < self.threshold {
            self.outcomes.extend((0..count).map(|k| exec(op(k))));
        } else if count > 0 {
            let waves = plan_waves((0..count).map(op), &mut self.wave_mark, &mut self.wave_of);
            self.outcomes.resize(count, O::default());
            for w in 0..waves {
                self.wave_ops.clear();
                self.wave_ops
                    .extend((0..count).filter(|&k| self.wave_of[k] == w));
                let wave_ops = self.wave_ops.as_slice();
                debug_assert!(
                    pairwise_disjoint(wave_ops.iter().map(|&k| op(k)), &mut self.queued),
                    "wave {w} schedules two operations on one processor"
                );
                let results = par_map(self.jobs.min(wave_ops.len()), wave_ops.len(), |i| {
                    exec(op(wave_ops[i]))
                });
                for (&k, out) in wave_ops.iter().zip(results) {
                    self.outcomes[k] = out;
                }
            }
        }
    }

    /// Second half of a flush: hands each executed operation's outcome
    /// to `fold(members, outcome)` in trigger order on the calling
    /// thread, leaving the queue empty.
    pub fn fold<F>(&mut self, mut fold: F)
    where
        F: FnMut(&[usize], O),
    {
        debug_assert_eq!(self.outcomes.len(), self.ends.len(), "fold follows execute");
        let mut start = 0;
        for (&end, &out) in self.ends.iter().zip(&self.outcomes) {
            fold(&self.members[start..end], out);
            start = end;
        }
        self.members.clear();
        self.ends.clear();
        self.outcomes.clear();
    }

    /// Closes the current step (after its final flush): the number of
    /// operations it drew becomes the next step's defer predictor.
    pub fn end_step(&mut self) {
        debug_assert!(self.is_empty(), "operations must not outlive their step");
        self.prev_step_ops = self.step_ops;
        self.step_ops = 0;
    }
}

/// The planner: assigns each operation (in trigger order) the wave
/// `1 + max(wave of any earlier operation sharing a member)`, written
/// 0-based into `wave_of`; returns the number of waves.  `wave_mark` is
/// all zero on entry and on return.
fn plan_waves<'a>(
    ops: impl Iterator<Item = &'a [usize]> + Clone,
    wave_mark: &mut [u32],
    wave_of: &mut Vec<u32>,
) -> u32 {
    wave_of.clear();
    let mut waves = 0;
    for members in ops.clone() {
        let w = members.iter().map(|&m| wave_mark[m]).max().unwrap_or(0);
        for &m in members {
            wave_mark[m] = w + 1;
        }
        wave_of.push(w);
        waves = waves.max(w + 1);
    }
    for &m in ops.flatten() {
        wave_mark[m] = 0;
    }
    waves
}

/// Whether no processor occurs twice across `sets`, using `seen` (all
/// false on entry and on return) as the occurrence scratch.
fn pairwise_disjoint<'a>(
    sets: impl Iterator<Item = &'a [usize]> + Clone,
    seen: &mut [bool],
) -> bool {
    let mut disjoint = true;
    for &m in sets.clone().flatten() {
        disjoint &= !std::mem::replace(&mut seen[m], true);
    }
    for &m in sets.flatten() {
        seen[m] = false;
    }
    disjoint
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn defer_gate_follows_previous_step_op_count() {
        let mut q: WaveQueue<u64> = WaveQueue::new(8, 2);
        // One job never defers, and owns no per-processor state.
        assert!(!q.push(&[0, 1]));
        assert!(!q.push(&[2, 3]));
        assert!(!q.involves(1));
        assert_eq!(q.heap_bytes(), 0);
        q.end_step();
        assert!(!q.push(&[0, 1]));
        assert!(!q.push(&[2, 3]));
        q.end_step();
        // Several jobs do once the previous step reached the threshold.
        q.set_jobs(4);
        assert_eq!(q.heap_bytes(), 8 * 5);
        assert!(q.push(&[0, 1]));
        assert!(q.involves(1) && !q.involves(2));
        q.execute(|m| m[0] as u64);
        q.fold(|_, _| {});
        assert!(q.is_empty() && !q.involves(1));
        q.end_step();
        // One operation last step is under the threshold.
        assert!(!q.push(&[4, 5]));
    }

    #[test]
    fn disjointness_check_spots_a_shared_processor() {
        let mut seen = vec![false; 4];
        let ok: [&[usize]; 2] = [&[0, 1], &[2, 3]];
        assert!(pairwise_disjoint(ok.iter().copied(), &mut seen));
        let bad: [&[usize]; 2] = [&[0, 1], &[1, 3]];
        assert!(!pairwise_disjoint(bad.iter().copied(), &mut seen));
        assert!(seen.iter().all(|&s| !s), "scratch restored");
    }

    const N: usize = 10;

    /// Raw draw for random operations over `N` processors: 1–4 members
    /// each, overlapping freely between operations.
    fn raw_ops() -> impl Strategy<Value = Vec<Vec<usize>>> {
        prop::collection::vec(prop::collection::vec(0usize..N, 1..=4), 0..40)
    }

    /// Drops repeated members inside each operation (an engine's group
    /// lists a processor once).
    fn distinct(raw: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        raw.into_iter()
            .map(|mut members| {
                let mut seen = [false; N];
                members.retain(|&m| !std::mem::replace(&mut seen[m], true));
                members
            })
            .collect()
    }

    /// A state-dependent stand-in for a balance operation: every member
    /// is rewritten from the members' current sum, so overlapping
    /// operations do not commute and any reordering shows.
    fn exec_on(state: &[AtomicU64], members: &[usize]) -> u64 {
        let sum = members.iter().fold(0u64, |acc, &m| {
            acc.wrapping_add(state[m].load(Ordering::Relaxed))
        });
        for (slot, &m) in members.iter().enumerate() {
            let v = sum.wrapping_mul(31).wrapping_add(slot as u64 + 1);
            state[m].store(v, Ordering::Relaxed);
        }
        sum
    }

    type Folded = Vec<(Vec<usize>, u64)>;

    /// Drives a queue the way an engine does: offer each operation,
    /// execute declined ones at once, flush every `flush_every`
    /// operations and at the end of the step.
    fn drive(
        ops: &[Vec<usize>],
        jobs: usize,
        threshold: usize,
        flush_every: usize,
    ) -> (Vec<u64>, Folded) {
        let state: Vec<AtomicU64> = (0..N as u64).map(AtomicU64::new).collect();
        let mut folded = Vec::new();
        let mut q: WaveQueue<u64> = WaveQueue::new(N, threshold);
        q.set_jobs(jobs);
        // A warm-up step that draws `threshold` operations opens the
        // defer gate for the measured one.
        for _ in 0..threshold {
            assert!(!q.push(&[]));
        }
        q.end_step();
        for (k, members) in ops.iter().enumerate() {
            if !q.push(members) {
                assert_eq!(jobs, 1, "only one job declines behind an open gate");
                folded.push((members.clone(), exec_on(&state, members)));
            }
            if (k + 1) % flush_every == 0 {
                q.execute(|m| exec_on(&state, m));
                q.fold(|m, out| folded.push((m.to_vec(), out)));
            }
        }
        q.execute(|m| exec_on(&state, m));
        q.fold(|m, out| folded.push((m.to_vec(), out)));
        q.end_step();
        let state = state.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        (state, folded)
    }

    proptest! {
        /// The planner's two guarantees in one ordering property: an
        /// operation lands in a strictly later wave than every earlier
        /// operation it shares a processor with.  Hence each wave is
        /// member-disjoint and every processor sees its operations in
        /// trigger order.
        #[test]
        fn planned_waves_are_disjoint_and_keep_trigger_order(raw in raw_ops()) {
            let ops = distinct(raw);
            let mut wave_mark = vec![0u32; N];
            let mut wave_of = Vec::new();
            let waves = plan_waves(ops.iter().map(Vec::as_slice), &mut wave_mark, &mut wave_of);
            prop_assert!(wave_mark.iter().all(|&m| m == 0), "scratch restored");
            prop_assert_eq!(wave_of.len(), ops.len());
            prop_assert!(wave_of.iter().all(|&w| w < waves));
            for late in 0..ops.len() {
                for early in 0..late {
                    if ops[early].iter().any(|m| ops[late].contains(m)) {
                        prop_assert!(wave_of[early] < wave_of[late], "ops {} and {}", early, late);
                    }
                }
            }
            let mut seen = vec![false; N];
            for w in 0..waves {
                let wave = (0..ops.len()).filter(|&k| wave_of[k] == w).map(|k| ops[k].as_slice());
                prop_assert!(pairwise_disjoint(wave, &mut seen), "wave {}", w);
            }
        }

        /// End to end: whatever `jobs`, `threshold` (0 = always waves,
        /// large = sequential flushes) and flush points, the state and
        /// the fold sequence equal plain execution in trigger order.
        #[test]
        fn flush_equals_sequential_execution_in_trigger_order(
            raw in raw_ops(),
            flush_every in 1usize..50,
        ) {
            let ops = distinct(raw);
            let state: Vec<AtomicU64> = (0..N as u64).map(AtomicU64::new).collect();
            let expect_folded: Folded = ops
                .iter()
                .map(|members| (members.clone(), exec_on(&state, members)))
                .collect();
            let expect_state: Vec<u64> = state.iter().map(|s| s.load(Ordering::Relaxed)).collect();
            for jobs in [1, 4] {
                for threshold in [0, 1000] {
                    let (state, folded) = drive(&ops, jobs, threshold, flush_every);
                    prop_assert_eq!(&state, &expect_state, "jobs={} threshold={}", jobs, threshold);
                    prop_assert_eq!(&folded, &expect_folded, "jobs={} threshold={}", jobs, threshold);
                }
            }
        }
    }
}
