//! The full n-processor-generator-consumer algorithm (§4 and the paper's
//! appendix).
//!
//! Every processor `i` holds, besides its real packets, the bookkeeping
//! the proof of Theorem 4 needs:
//!
//! * `d_{i,j}` — the number of *virtual class-`j`* packets residing on
//!   `i` (class `j` = packets generated by processor `j`);  the real load
//!   is `l_i = Σ_j d_{i,j}`;
//! * `b_{i,j}` — *borrowed-packet markers*: class-`j` packets `i` consumed
//!   even though it had no self-generated work (`d_{i,i} = 0`), bounded by
//!   `Σ_j b_{i,j} ≤ C` and at most one fresh borrow per class.
//!
//! A balancing operation is initiated by `i` whenever `d_{i,i}` has grown
//! or shrunk by the factor `f` since `i`'s last participation; it equalises
//! the real loads *and* the `d`/`b` matrices of `δ + 1` processors within
//! ±1 per class and ±1 in total (the "snake" distribution of the appendix,
//! implemented in [`crate::balance`]).
//!
//! Borrow settlement follows §4: when a processor's borrow capacity is
//! exhausted it contacts the generator `j` of one of its markers; if `j`
//! still owns self-generated packets they are *exchanged* against the
//! markers and `j` simulates a workload decrease; otherwise the
//! reduce-borrow procedure balances load class `j` over a random
//! neighbourhood until the marker can be settled.
//!
//! Deviation from the appendix (documented in DESIGN.md): the literal
//! exchange rule `x = min{d_{j,j}, Σ_k b_{i,k}}` lets class-`j` packets
//! cancel markers of *other* classes; [`ExchangePolicy::Strict`] (the
//! default) restricts settlement to class-`j` markers, which is what the
//! per-class expected-value argument actually uses.  Both are implemented.
//!
//! # Representation
//!
//! One `Proc` record per processor, 128 bytes on a 128-byte boundary,
//! in one `Vec<Proc>`: its real load, marker count, `l_old`, its three
//! ledger counters, the load the observer last counted it under, and its
//! two matrix rows.  Everything an event or a balance operation reads or
//! writes about a processor is in that record — two adjacent cache
//! lines — so a step at n = 2²⁰, where every touched processor is a
//! cold miss, pays for one or two lines per processor instead of one
//! per field.
//!
//! The `d`/`b` matrices are stored *sparsely*: one [`SparseRow`] per
//! processor and matrix — sorted active class ids with parallel values,
//! held inside the record while the row has at most
//! `crate::sparse::INLINE` entries and spilled to the heap beyond.  In
//! any reachable state a processor holds
//! packets of few classes (its own plus what balancing brought in), so
//! a row operation costs O(active) or O(log active) and the whole
//! cluster costs O(n + Σ active) memory instead of the O(n²) of two
//! flat n × n arenas; that is what makes
//! n ≥ 2¹⁸ full-model runs tractable (see DESIGN.md §10 and the
//! `large` rows of BENCH_core.json).  Cached per-processor sums
//! (`load`, `sum_b`) are maintained incrementally on every insert and
//! remove.  All balancing paths write into scratch buffers owned by the
//! cluster — steady-state operation performs no heap allocation beyond
//! amortised row growth.  The behaviour is *bit identical* to the naive
//! reference implementation retained in [`crate::reference`]: same RNG
//! consumption, same loads, metrics and `d`/`b` matrices, with the trace
//! stream reconstructing its counters (enforced by the `sparse_equivalence` and
//! `opt_equivalence` proptests and the benchmark checksums).  The RNG
//! contract is the subtle part: every random class choice must scan
//! candidates in ascending class order exactly like the reference's
//! dense `0..n` filter-then-nth sweep — the sorted key lists make that
//! order intrinsic.
//!
//! # Memory-level parallelism
//!
//! At n = 2²⁰ the records span 128 MiB: every processor a step touches
//! is a cache and TLB miss that no hardware prefetcher can guess, and an
//! operation used to wait for two of them one after the other — the
//! initiator's record, then the random partner's.  The program knows
//! both addresses well in advance, so the sequential step overlaps its
//! misses in two ways, neither visible outside this module:
//!
//! * an active list is complete before the step starts, so while one
//!   event is processed the record of the event `AHEAD` places on is
//!   hinted (`prefetch`);
//! * a balance operation is *drawn at the trigger and executed up to
//!   `depth` draws later*: the partner draw — the only randomness an
//!   operation consumes — happens exactly where it always did, the
//!   partners' records are hinted, and the member list waits in a short
//!   FIFO (`Lag`) while the FIFO's oldest operation executes in its
//!   place, its records by now in cache.
//!
//! The FIFO is the only place a drawn operation waits.  It drains,
//! oldest first, before any non-idle event of a waiting member, before
//! the §4 settlement path and at the end of every step (the flush rules
//! of DESIGN.md §9): every processor still sees its operations in
//! trigger order, execution draws no randomness and outcomes fold in
//! trigger order, so loads, metrics, matrices and trace bytes are what
//! immediate execution produces.  The depth is a function of the
//! scenario alone, `min(8, n / (64·(δ+1)))`: 0 — execute at the
//! trigger — for a cluster that fits in cache anyway.

use crate::balance::{distribute_capped_into, even_shares_into, moved, sample_others_into};
use crate::metrics::Metrics;
use crate::pages::{Zeroable, Zeroed};
use crate::params::{ExchangePolicy, Params, TriggerTable};
use crate::sparse::{count_diff, key, nth_diff, SparseRow};
use crate::strategy::{Events, LoadBalancer, LoadEvent, LoadSummary};
use crate::summary::LoadCounts;
use dlb_trace::{SharedSink, TraceEvent};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use std::mem::ManuallyDrop;

/// Scratch of [`equalise`], owned by the cluster so steady-state
/// execution allocates nothing.
#[derive(Default)]
struct BalanceScratch {
    /// One [`Slot`] per member: the merge state of a group of other than
    /// two or three, and after any group each member's new row sum.
    slots: Vec<Slot>,
    /// The new rows under construction: member `s`'s is the `Slot::len`
    /// entries from `s * stride`, `stride` a bound on the length of the
    /// rows' union.  Grown, never shrunk or cleared.
    new_keys: Vec<u32>,
    new_vals: Vec<u64>,
}

/// What [`equalise`] keeps per member.
#[derive(Default, Clone, Copy)]
struct Slot {
    /// Where the member's smallest class not yet equalised sits in its
    /// old row.
    cur: usize,
    /// That class's key, `u32::MAX` past the row's end.
    key: u32,
    /// Entries of the member's new row so far.
    len: usize,
    /// Sum of the member's shares so far; its new row's sum at the end.
    run: u64,
    /// What the member held of the class at hand.
    old: u64,
}

/// Which of a processor's two rows [`equalise`] balances.
#[derive(Clone, Copy)]
enum Matrix {
    D,
    B,
}

impl Matrix {
    #[inline(always)]
    fn of(self, p: &Proc) -> &SparseRow {
        match self {
            Matrix::D => &p.d,
            Matrix::B => &p.b,
        }
    }

    #[inline(always)]
    fn of_mut(self, p: &mut Proc) -> &mut SparseRow {
        match self {
            Matrix::D => &mut p.d,
            Matrix::B => &mut p.b,
        }
    }
}

/// What executing one full balance operation produced, for
/// [`Cluster::fold_outcome`].
struct OpOutcome {
    /// The f-factor ratio that fired the trigger (0.0 unless tracing).
    trigger: f64,
    /// Net packets that physically moved between members.
    op_packets: u64,
    /// Markers that moved between members.
    op_markers: u64,
    /// Markers annihilated on their home processor afterwards.
    home_settled: u64,
}

/// Everything the algorithm keeps for one processor (see the module
/// docs).  `repr(C)` fixes the offsets: the first cache line holds what
/// every event reads — the sums, `l_old` and the `d` row with the
/// processor's own class — the second the marker row and the ledger.
///
/// All-zero bytes are an empty processor ([`Zeroable`]), so the cluster
/// builds its records by writing nothing ([`Zeroed`]).  A record never
/// frees its rows (`ManuallyDrop`, so dropping the records reads none
/// of them): the cluster lists each processor whose row goes to the
/// heap and frees exactly those rows ([`Cluster::free_spilled`]).
#[repr(C, align(128))]
struct Proc {
    /// Cached real load `Σ_j d_{i,j}`.
    load: u64,
    /// Cached marker count `Σ_j b_{i,j}`.
    sum_b: u64,
    /// Self-generated load `d_{i,i}` at the last balancing participation.
    l_old: u64,
    /// Observer state: the load this processor is counted under in
    /// [`Cluster::summary`]; trails `load` only between a write and its
    /// `note_load`.
    seen: u64,
    /// Sparse `d_{i,·}` row.
    d: ManuallyDrop<SparseRow>,
    /// Sparse `b_{i,·}` row.
    b: ManuallyDrop<SparseRow>,
    /// Ledger: fresh class-`i` packets generated (excluding marker
    /// repayments).
    fresh_generated: u64,
    /// Ledger: class-`i` packets consumed directly by their generator.
    direct_consumed: u64,
    /// Ledger: class-`i` markers settled (exchange or home annihilation).
    settled: u64,
}

const _: () = assert!(
    std::mem::size_of::<Proc>() <= 128 && std::mem::size_of::<SparseRow>() <= 32,
    "a processor is one 128-byte record"
);
const _: () = assert!(
    !std::mem::needs_drop::<Proc>(),
    "dropping the records reads none of them"
);

// SAFETY: the fields are `u64`s and two `SparseRow`s, whose `Repr` is
// `repr(u8)` with `Inline = 0`: zero bytes select the in-place variant
// with `len`, `keys` and `vals` zero, an empty row, and the `Box` of
// `Heap` is out of reach.  Padding may hold anything.  So zero bytes
// are `Proc::new(SparseRow::new(), SparseRow::new())`, which
// `a_zeroed_record_is_an_empty_processor` checks field by field.
#[allow(unsafe_code)]
unsafe impl Zeroable for Proc {}

impl Proc {
    /// A record holding rows `d` and `b` with their sums cached and
    /// counted, `l_old` and the ledger at zero.
    fn new(d: SparseRow, b: SparseRow) -> Self {
        let load = d.sum();
        Proc {
            load,
            sum_b: b.sum(),
            l_old: 0,
            seen: load,
            d: ManuallyDrop::new(d),
            b: ManuallyDrop::new(b),
            fresh_generated: 0,
            direct_consumed: 0,
            settled: 0,
        }
    }

    /// Whether both rows live in the record, owning no heap block.
    #[inline(always)]
    fn inline(&self) -> bool {
        self.d.is_inline() && self.b.is_inline()
    }

    /// Frees both rows, leaving them empty in place; returns how many
    /// of them owned a heap block.
    fn free_rows(&mut self) -> usize {
        [&mut self.d, &mut self.b]
            .into_iter()
            .map(|row| {
                let row = ManuallyDrop::into_inner(std::mem::take(row));
                usize::from(!row.is_inline())
            })
            .sum()
    }
}

/// Lists processor `i` in `spilled` when a write moved the first row of
/// its record `p` to the heap: `was_inline` is [`Proc::inline`] before
/// the write.  A row leaves its record only by growing, and stays out
/// once out, so every write that can grow a row — `equalise`'s
/// write-back, `add_d`/`add_b`, `balance_class`'s `set`s — is followed
/// by this, and `spilled` names each processor that owns a heap block
/// exactly once.
#[inline(always)]
fn note_spill(spilled: &mut Vec<u32>, i: usize, was_inline: bool, p: &Proc) {
    if was_inline && !p.inline() {
        spilled.push(key(i));
    }
}

/// Hints both cache lines of a processor record towards L1, for a
/// record the step will read a few events or draws from now.  Changes
/// no result on any target and compiles to nothing off x86-64.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch(p: &Proc) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint — it neither dereferences its
        // address nor faults — and SSE is part of the x86-64 baseline.
        // Both addresses are those of live fields of `*p` at that: the
        // record's first line starts at `load`, its second at `b`.
        // Driven by every stepping test, `mixed_workload_keeps_all_invariants`
        // among them.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(&p.load).cast());
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(&p.b).cast());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

const _: () = assert!(
    std::mem::offset_of!(Proc, load) == 0 && std::mem::offset_of!(Proc, b) == 64,
    "prefetch hints one field per cache line"
);

/// How many events ahead of the current one an active list's `Proc`
/// record is hinted, and the most drawn operations that wait in
/// [`Lag`]: far enough for a miss to be answered in the meantime.  A
/// constant because the curve is flat — 4 measured like 8, 16 worse
/// (DESIGN.md §11).
const AHEAD: usize = 8;

/// The lag FIFO: balance operations that are drawn but not yet executed
/// (see "Memory-level parallelism" in the module docs).  A ring of
/// `depth + 1` member lists of `δ + 1` indices each, oldest first, every
/// free slot holding `usize::MAX` so membership is one scan of a few
/// cache lines.
struct Lag {
    /// Operations that may wait: a drawn operation executes once `depth`
    /// younger ones have been drawn.  0 executes at the trigger.
    depth: usize,
    /// Members per operation, `δ + 1`.
    width: usize,
    /// `(depth + 1) * width` member slots.
    ring: Box<[usize]>,
    /// Slot of the oldest waiting operation.
    head: usize,
    /// Waiting operations, at most `depth + 1` (the newest is pushed
    /// before the oldest is popped).
    len: usize,
}

impl Lag {
    /// The FIFO of an `n`-processor cluster with `δ = delta`: depth
    /// `min(AHEAD, n / (64·(δ+1)))`, so waiting members never cover more
    /// than 1/64 of the processors and an event rarely meets one.  Small
    /// clusters — n = 64 — get depth 0: all of it is in cache, and with
    /// a sixth of the processors waiting nearly every event would drain
    /// the FIFO.
    fn new(n: usize, delta: usize) -> Self {
        Self::with_depth(AHEAD.min(n / (64 * (delta + 1))), delta + 1)
    }

    fn with_depth(depth: usize, width: usize) -> Self {
        Lag {
            depth,
            width,
            ring: vec![usize::MAX; (depth + 1) * width].into(),
            head: 0,
            len: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether processor `i` is a member of a waiting operation, i.e.
    /// its record is stale until the FIFO drains.
    #[inline]
    fn involves(&self, i: usize) -> bool {
        self.len > 0 && self.ring.contains(&i)
    }

    /// Appends a freshly drawn operation.
    #[inline]
    fn push(&mut self, members: &[usize]) {
        debug_assert!(self.len <= self.depth, "pop before the ring overflows");
        let slot = (self.head + self.len) % (self.depth + 1);
        self.ring[slot * self.width..][..self.width].copy_from_slice(members);
        self.len += 1;
    }

    /// Moves the oldest waiting operation's members into `out`.
    #[inline]
    fn pop_into(&mut self, out: &mut Vec<usize>) {
        debug_assert!(self.len > 0, "pop from an empty lag");
        let slot = &mut self.ring[self.head * self.width..][..self.width];
        out.clear();
        out.extend_from_slice(slot);
        slot.fill(usize::MAX);
        self.head = (self.head + 1) % (self.depth + 1);
        self.len -= 1;
    }
}

/// Equalises one matrix of `members`' rows: every class any of them
/// holds is split evenly (±1), and the leftovers are dealt as the
/// paper's snake, so the new row sums differ by at most one too.  Leaves
/// each member's new row sum in `s.slots[..].run` and returns the units
/// that left a member, `Σ max(old − new, 0)` over classes and members.
/// A member whose first row goes to the heap is listed in `spilled`.
fn equalise(
    procs: &mut [Proc],
    spilled: &mut Vec<u32>,
    members: &[usize],
    s: &mut BalanceScratch,
    matrix: Matrix,
) -> u64 {
    // A group size known at compile time unrolls the per-member loops,
    // keeps the slots in registers, looks each row up once and turns the
    // division into a multiplication.  Any other size — δ runs up to
    // n − 1 — keeps the slots in scratch and looks a row up at each read.
    let m = members.len();
    let old = |i: usize| {
        let row = matrix.of(&procs[members[i]]);
        (row.keys(), row.vals())
    };
    let (outflow, stride) = match m {
        2 => on_stack::<2>(old, &mut s.slots, &mut s.new_keys, &mut s.new_vals),
        3 => on_stack::<3>(old, &mut s.slots, &mut s.new_keys, &mut s.new_vals),
        _ => {
            s.slots.clear();
            s.slots.resize(m, Slot::default());
            deal(old, &mut s.slots, &mut s.new_keys, &mut s.new_vals)
        }
    };
    if stride == 0 {
        // Nobody holds anything of this matrix — most marker passes.
        return 0;
    }
    for (i, (&mm, t)) in members.iter().zip(&s.slots).enumerate() {
        let at = i * stride;
        let p = &mut procs[mm];
        let was_inline = p.inline();
        matrix
            .of_mut(p)
            .assign(&s.new_keys[at..at + t.len], &s.new_vals[at..at + t.len]);
        note_spill(spilled, mm, was_inline, p);
    }
    outflow
}

/// [`deal`] for `M` members, their slots on the stack and their rows
/// looked up once; leaves the slots in `slots`.
#[inline(always)]
fn on_stack<'r, const M: usize>(
    old: impl Fn(usize) -> (&'r [u32], &'r [u64]),
    slots: &mut Vec<Slot>,
    new_keys: &mut Vec<u32>,
    new_vals: &mut Vec<u64>,
) -> (u64, usize) {
    let rows: [_; M] = std::array::from_fn(old);
    let mut on_stack = [Slot::default(); M];
    let dealt = deal(|i| rows[i], &mut on_stack, new_keys, new_vals);
    slots.clear();
    slots.extend_from_slice(&on_stack);
    dealt
}

/// The body of [`equalise`] over the members' old rows, member `i`'s
/// keys and values `old(i)`, one slot per member.  One pass: the rows
/// are k-way-merged in place by ascending class, and each class's shares
/// are appended to the new rows as they are computed — member `i`'s
/// `slots[i].len` entries from `i * stride` of `new_keys`/`new_vals`,
/// `stride` a bound on the length of the rows' union.  Returns the
/// outflow and `stride`.  Classes no member holds get zero shares and
/// leave the sums alone, so walking the union equals the reference's
/// dense `0..n` sweep.
///
/// A class's `total mod m` leftovers go to the members with the smallest
/// running sums, lowest slot first ([`crate::balance`]).  From zeros the
/// members one above the rest are always the slots `0..h`, so the
/// leftovers are dealt from slot `h` on, cyclically, and `h` moves on by
/// as many: the paper's snake.
#[inline(always)]
fn deal<'r>(
    old: impl Fn(usize) -> (&'r [u32], &'r [u64]),
    slots: &mut [Slot],
    new_keys: &mut Vec<u32>,
    new_vals: &mut Vec<u64>,
) -> (u64, usize) {
    let m = slots.len();
    // The union is no longer than the rows together, and its classes
    // are below the largest last key.
    let (entries, classes) = (0..m).fold((0, 0), |(entries, classes), i| {
        let keys = old(i).0;
        let end = keys.last().map_or(0, |&c| c as usize + 1);
        (entries + keys.len(), end.max(classes))
    });
    let stride = entries.min(classes);
    if stride == 0 {
        return (0, 0);
    }
    if new_keys.len() < m * stride {
        new_keys.resize(m * stride, 0);
        new_vals.resize(m * stride, 0);
    }
    let (new_keys, new_vals) = (&mut new_keys[..m * stride], &mut new_vals[..m * stride]);
    let mut outflow = 0;
    // The slots `0..h` hold one more than the others.
    let mut h = 0;
    // A row ends at `u32::MAX`, which no class reaches: [`Cluster`]
    // asserts that `n` fits 32 bits.
    for (i, t) in slots.iter_mut().enumerate() {
        t.key = old(i).0.first().copied().unwrap_or(u32::MAX);
    }
    loop {
        let c = slots.iter().map(|t| t.key).fold(u32::MAX, u32::min);
        if c == u32::MAX {
            break;
        }
        let mut total = 0;
        for (i, t) in slots.iter_mut().enumerate() {
            // Read whether or not the member holds `c` — most do, so a
            // branch on it would often be mispredicted — and masked
            // after; the bounds checks fail once per row.
            let (keys, vals) = old(i);
            let holds = t.key == c;
            t.old = vals.get(t.cur).copied().unwrap_or(0) & 0u64.wrapping_sub(u64::from(holds));
            t.cur += usize::from(holds);
            t.key = keys.get(t.cur).copied().unwrap_or(u32::MAX);
            total += t.old;
        }
        let (base, extras) = if total < m as u64 {
            (0, total)
        } else {
            (total / m as u64, total % m as u64)
        };
        // Below `m`.
        #[allow(clippy::cast_possible_truncation)]
        let extras = extras as usize;
        debug_assert!({
            let lo = slots[m - 1].run;
            (0..m).all(|i| slots[i].run == lo + u64::from(i < h))
        });
        for (i, t) in slots.iter_mut().enumerate() {
            // Slot `i` is `(i − h) mod m`-th in line for a leftover.
            let line = if i < h { i + m - h } else { i - h };
            let share = base + u64::from(line < extras);
            // Written whatever the share: a zero is overwritten by the
            // next class or cut off by `len`, and `len` trails the
            // classes walked, of which there are at most `stride`.
            let at = i * stride + t.len;
            new_keys[at] = c;
            new_vals[at] = share;
            t.len += usize::from(share > 0);
            t.run += share;
            outflow += t.old.saturating_sub(share);
        }
        h += extras;
        if h >= m {
            h -= m;
        }
    }
    (outflow, stride)
}

/// Executes one full balancing operation over `members` (initiator
/// first): the body of the appendix's equalisation.  Touches the
/// members' records only, consumes no RNG and emits nothing — it
/// returns an [`OpOutcome`] the caller folds in trigger order.
fn execute_full_balance(
    procs: &mut [Proc],
    spilled: &mut Vec<u32>,
    members: &[usize],
    tracing: bool,
    s: &mut BalanceScratch,
) -> OpOutcome {
    let initiator = members[0];
    // The f-factor ratio that fired the trigger.  The initiator's row is
    // untouched between draw and execution (a waiting operation involving
    // it would have been flushed before its event was processed), so
    // this read equals the draw-time value.
    let trigger = if tracing {
        let p = &procs[initiator];
        p.d.get(key(initiator)) as f64 / p.l_old.max(1) as f64
    } else {
        0.0
    };
    // The two matrices share nothing — each has its own running sums —
    // so they are two passes of one kernel.  Packets are fungible (§2:
    // any packet can be consumed by any processor), so only the *net*
    // load difference moves physically; the per-class matrices are
    // bookkeeping carried by the control messages.  Markers are
    // bookkeeping only, and each one that changes holder counts.
    equalise(procs, spilled, members, s, Matrix::D);
    let mut op_packets = 0u64;
    for (&mm, t) in members.iter().zip(&s.slots) {
        let p = &mut procs[mm];
        op_packets += p.load.saturating_sub(t.run);
        p.load = t.run;
    }
    let op_markers = equalise(procs, spilled, members, s, Matrix::B);
    let mut home_settled = 0u64;
    for (&mm, t) in members.iter().zip(&s.slots) {
        let p = &mut procs[mm];
        p.sum_b = t.run;
        // Every participant counts this as a balancing of its own class
        // (§4: a group balance acts like δ + 1 self-initiated balances):
        // home markers annihilate and l_old resets.
        let k = p.b.take(key(mm));
        if k > 0 {
            p.sum_b -= k;
            p.settled += k;
            home_settled += k;
        }
        p.l_old = p.d.get(key(mm));
    }
    OpOutcome {
        trigger,
        op_packets,
        op_markers,
        home_settled,
    }
}

/// The full virtual-load-class algorithm on `n` processors.
///
/// Deterministic: all randomness (partner choice, class choice) comes from
/// a seeded ChaCha stream.
pub struct Cluster {
    params: Params,
    triggers: TriggerTable,
    /// Cached `params.n()`.
    n: usize,
    /// One record per processor.
    procs: Zeroed<Proc>,
    /// The processors whose records own a heap block, each once, in the
    /// order their first row spilled: what teardown frees.
    spilled: Vec<u32>,
    rng: ChaCha8Rng,
    metrics: Metrics,
    /// Sum of loads the cluster was constructed with.
    initial_total: u64,
    /// Scratch buffers reused across balancing operations (all cleared
    /// before use; `mem::take`n where simultaneous borrows are needed).
    scratch_members: Vec<usize>,
    scratch_partners: Vec<usize>,
    scratch_group: Vec<usize>,
    scratch_before_d: Vec<u64>,
    scratch_before_b: Vec<u64>,
    scratch_caps: Vec<u64>,
    scratch_new_d: Vec<u64>,
    scratch_new_b: Vec<u64>,
    /// Optional structured event sink (absent or disabled: emission
    /// sites reduce to one branch).
    sink: Option<SharedSink>,
    /// The partner list lent to each `BalanceInitiated` event.
    trace_partners: Vec<u64>,
    /// The counter list lent to each `StepDelta` event.
    trace_counters: Vec<(Cow<'static, str>, u64)>,
    /// Driver steps completed — the logical clock stamped onto events.
    step_no: u64,
    /// Operations drawn and waiting to execute up to `lag.depth` draws
    /// later, their records on the way to cache.
    lag: Lag,
    /// True while inside the §4 settlement machinery (exchange /
    /// reduce-borrow): balances triggered there execute immediately,
    /// because the settlement loop reads arbitrary processors next.
    eager: bool,
    /// Scratch of [`execute_full_balance`].
    scratch_balance: BalanceScratch,
    /// Load counts backing [`LoadBalancer::load_summary`]: the
    /// multiset of every `Proc::seen`.  Kept from construction — at
    /// two counter updates per load change, cheaper than the O(n) sweep
    /// that installing it at the first query would cost.
    summary: LoadCounts,
}

impl Cluster {
    /// An empty cluster (all loads zero).
    pub fn new(params: Params, seed: u64) -> Self {
        Self::with_initial_load(params, seed, 0)
    }

    /// A cluster where every processor starts with `initial` self-generated
    /// packets (a *balanced state* in the sense of Theorems 1–4).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`: classes are 32-bit row keys.
    /// Panics if the total, `initial · n`, does not fit in a `u64`.
    pub fn with_initial_load(params: Params, seed: u64, initial: u64) -> Self {
        let n = params.n();
        assert!(u32::try_from(n).is_ok(), "class keys are 32 bits wide");
        let initial_total = params.initial_total(initial);
        // Zero bytes are an empty processor: the kernel's zero pages are
        // every record, and a loaded start writes what differs in one
        // pass.
        let mut procs = Zeroed::<Proc>::new(n);
        if initial > 0 {
            for (i, p) in procs.iter_mut().enumerate() {
                p.d.push(key(i), initial);
                p.load = initial;
                p.seen = initial;
                p.l_old = initial;
                p.fresh_generated = initial;
            }
        }
        Self::from_parts(
            params,
            procs,
            Vec::new(),
            ChaCha8Rng::seed_from_u64(seed),
            Metrics::new(),
            initial_total,
            LoadCounts::uniform(n, initial),
        )
    }

    /// [`Cluster::with_initial_load`] built record by record from
    /// [`Proc::new`], every one written: the oracle the zero-built
    /// cluster is stepped beside.
    #[cfg(test)]
    fn with_initial_load_elementwise(params: Params, seed: u64, initial: u64) -> Self {
        let n = params.n();
        let mut procs = Zeroed::<Proc>::new(n);
        for (i, p) in procs.iter_mut().enumerate() {
            *p = Proc {
                l_old: initial,
                fresh_generated: initial,
                ..Proc::new(SparseRow::with_entry(key(i), initial), SparseRow::new())
            };
        }
        Self::from_parts(
            params,
            procs,
            Vec::new(),
            ChaCha8Rng::seed_from_u64(seed),
            Metrics::new(),
            params.initial_total(initial),
            LoadCounts::new((0..n).map(|_| initial)),
        )
    }

    /// A cluster over `procs`, whose heap rows are the records `spilled`
    /// lists, at the start of a run: untraced, step 0, nothing waiting.
    fn from_parts(
        params: Params,
        procs: Zeroed<Proc>,
        spilled: Vec<u32>,
        rng: ChaCha8Rng,
        metrics: Metrics,
        initial_total: u64,
        summary: LoadCounts,
    ) -> Self {
        let n = params.n();
        Cluster {
            params,
            triggers: TriggerTable::new(params),
            n,
            procs,
            spilled,
            rng,
            metrics,
            initial_total,
            scratch_members: Vec::new(),
            scratch_partners: Vec::new(),
            scratch_group: Vec::new(),
            scratch_before_d: Vec::new(),
            scratch_before_b: Vec::new(),
            scratch_caps: Vec::new(),
            scratch_new_d: Vec::new(),
            scratch_new_b: Vec::new(),
            sink: None,
            trace_partners: Vec::new(),
            trace_counters: Vec::new(),
            step_no: 0,
            lag: Lag::new(n, params.delta()),
            eager: false,
            scratch_balance: BalanceScratch::default(),
            summary,
        }
    }

    /// Whether events should be constructed at all this step.
    fn trace_on(&self) -> bool {
        self.sink.as_ref().is_some_and(|s| s.enabled())
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
    }

    /// Real load of processor `i`.
    #[cfg(test)]
    pub(crate) fn load(&self, i: usize) -> u64 {
        self.procs[i].load
    }

    /// `d_{i,c}`: real class-`c` packets on processor `i`.
    pub fn d(&self, i: usize, c: usize) -> u64 {
        self.procs[i].d.get(key(c))
    }

    /// `b_{i,c}`: class-`c` markers on processor `i`.
    pub fn b(&self, i: usize, c: usize) -> u64 {
        self.procs[i].b.get(key(c))
    }

    /// Number of active (nonzero) classes on processor `i`, `d` then `b`.
    /// Public only for `crates/dlb-core/tests/sparse_equivalence.rs`,
    /// which checks the sparse rows stay sparse.
    pub fn active_classes(&self, i: usize) -> (usize, usize) {
        (self.procs[i].d.len(), self.procs[i].b.len())
    }

    /// Heap bytes the algorithm state currently occupies: the processor
    /// records, the rows that spilled out of them (at reserved
    /// capacity) and the load observer's counts.  This is the number
    /// the `bytes_per_proc` column of BENCH_core.json reports — it
    /// scales with n + Σ active classes, not n².
    pub fn state_bytes(&self) -> usize {
        let records = std::mem::size_of_val(&*self.procs);
        let spilled: usize = self
            .spilled
            .iter()
            .map(|&i| {
                let p = &self.procs[i as usize];
                p.d.heap_bytes() + p.b.heap_bytes()
            })
            .sum();
        records + spilled + self.summary.heap_bytes()
    }

    /// Adds `x > 0` class-`c` packets to `i`.
    #[inline]
    fn add_d(&mut self, i: usize, c: usize, x: u64) {
        let p = &mut self.procs[i];
        let was_inline = p.inline();
        p.d.add(key(c), x);
        note_spill(&mut self.spilled, i, was_inline, p);
    }

    /// Removes `x > 0` class-`c` packets from `i`.
    #[inline]
    fn sub_d(&mut self, i: usize, c: usize, x: u64) {
        self.procs[i].d.sub(key(c), x);
    }

    /// Adds `x > 0` class-`c` markers to `i`.
    #[inline]
    fn add_b(&mut self, i: usize, c: usize, x: u64) {
        let p = &mut self.procs[i];
        let was_inline = p.inline();
        p.b.add(key(c), x);
        note_spill(&mut self.spilled, i, was_inline, p);
    }

    /// Removes `x > 0` class-`c` markers from `i`.
    #[inline]
    fn sub_b(&mut self, i: usize, c: usize, x: u64) {
        self.procs[i].b.sub(key(c), x);
    }

    /// Moves processor `i` to its (already updated) load in the
    /// observer's counts.  Must follow every `Proc::load` mutation;
    /// [`execute_full_balance`]'s writes are covered per-member in
    /// [`Cluster::fold_outcome`].
    #[inline]
    fn note_load(&mut self, i: usize) {
        let p = &mut self.procs[i];
        self.summary
            .shift(std::mem::replace(&mut p.seen, p.load), p.load);
    }

    /// Verifies every structural invariant of the algorithm — including
    /// the sparse rows' internal soundness — and returns a description
    /// of the first violation.  O(n + Σ active): cheap enough that tests
    /// call it after every step even at large n.
    pub fn check_invariants(&self) -> Result<(), String> {
        debug_assert!(self.lag.is_empty(), "observed between steps");
        let c_borrow = self.params.c_borrow() as u64;
        let mut listed = vec![false; self.n];
        for &i in &self.spilled {
            let slot = listed
                .get_mut(i as usize)
                .ok_or_else(|| format!("spill list names {i}, past n"))?;
            if std::mem::replace(slot, true) {
                return Err(format!("proc {i}: listed as spilled twice"));
            }
        }
        let mut virt = vec![0u64; self.n];
        for (i, p) in self.procs.iter().enumerate() {
            p.d.check().map_err(|e| format!("proc {i}: d row: {e}"))?;
            p.b.check().map_err(|e| format!("proc {i}: b row: {e}"))?;
            if p.inline() == listed[i] {
                return Err(format!(
                    "proc {i}: owns a heap row: {}, listed as spilled: {}",
                    !p.inline(),
                    listed[i]
                ));
            }
            let sum_d = p.d.sum();
            if sum_d != p.load {
                return Err(format!("proc {i}: load cache {} != sum(d) {sum_d}", p.load));
            }
            let sum_b = p.b.sum();
            if sum_b != p.sum_b {
                return Err(format!(
                    "proc {i}: marker cache {} != sum(b) {sum_b}",
                    p.sum_b
                ));
            }
            if p.sum_b > c_borrow {
                return Err(format!(
                    "proc {i}: {} markers exceed C = {c_borrow}",
                    p.sum_b
                ));
            }
            for (c, v) in p.d.iter().chain(p.b.iter()) {
                let slot = &mut virt[c as usize];
                *slot = slot
                    .checked_add(v)
                    .ok_or_else(|| format!("class {c}: virtual load sums past u64::MAX"))?;
            }
        }
        for (c, (&v, p)) in virt.iter().zip(self.procs.iter()).enumerate() {
            let expect = p
                .direct_consumed
                .checked_add(p.settled)
                .and_then(|gone| p.fresh_generated.checked_sub(gone))
                .ok_or_else(|| format!("class {c}: ledger went negative"))?;
            if v != expect {
                return Err(format!(
                    "class {c}: virtual load {v} != fresh {} - consumed {} - settled {}",
                    p.fresh_generated, p.direct_consumed, p.settled
                ));
            }
        }
        let total = self
            .procs
            .iter()
            .try_fold(0u64, |sum, p| sum.checked_add(p.load))
            .ok_or("global load sums past u64::MAX")?;
        let expect = self
            .initial_total
            .checked_add(self.metrics.generated)
            .and_then(|made| made.checked_sub(self.metrics.consumed));
        if expect != Some(total) {
            return Err(format!(
                "global load {total} != initial {} + generated {} - consumed {}",
                self.initial_total, self.metrics.generated, self.metrics.consumed
            ));
        }
        Ok(())
    }

    fn generate(&mut self, i: usize) {
        self.metrics.generated += 1;
        if self.procs[i].sum_b > 0 {
            // Repay a marker: the new packet takes the identity of a
            // borrowed class, restoring its real packet.  Uniform over the
            // marked classes = uniform index into the sorted key list
            // (ascending order matches the reference's nth-match scan).
            let pick = self.rng.gen_range(0..self.procs[i].b.len());
            let j = self.procs[i].b.keys()[pick] as usize;
            self.sub_b(i, j, 1);
            self.procs[i].sum_b -= 1;
            self.add_d(i, j, 1);
            self.procs[i].load += 1;
            self.note_load(i);
        } else {
            self.add_d(i, i, 1);
            self.procs[i].load += 1;
            self.note_load(i);
            self.procs[i].fresh_generated += 1;
            self.trigger_check(i);
        }
    }

    fn consume(&mut self, i: usize) {
        if self.procs[i].load == 0 {
            self.metrics.consume_blocked += 1;
            return;
        }
        if self.procs[i].d.get(key(i)) > 0 {
            self.sub_d(i, i, 1);
            self.procs[i].load -= 1;
            self.note_load(i);
            self.procs[i].direct_consumed += 1;
            self.metrics.consumed += 1;
            self.trigger_check(i);
            return;
        }
        // d_{i,i} = 0: consume a foreign packet via the borrow machinery.
        // The settlement operations below read and write arbitrary
        // processors, so waiting balances must land first and any
        // balance triggered inside must execute immediately.
        self.flush_pending();
        self.eager = true;
        self.consume_slow(i);
        self.eager = false;
    }

    /// The §4 settlement retry loop of [`Cluster::consume`].  Every
    /// settlement attempt either frees a marker slot or hands `i` a
    /// borrowable (or own-class) packet, so C + 2 attempts always
    /// suffice; the bound is a safety net, with failures counted.
    fn consume_slow(&mut self, i: usize) {
        let max_attempts = self.params.c_borrow().saturating_add(2);
        for _ in 0..max_attempts.max(4) {
            if self.procs[i].load == 0 {
                // Settlement operations may have drained the processor.
                self.metrics.consume_blocked += 1;
                return;
            }
            if self.procs[i].d.get(key(i)) > 0 {
                // Settlement balancing brought some of i's own packets home
                // (§4: "... or has received some of his own load packets").
                self.sub_d(i, i, 1);
                self.procs[i].load -= 1;
                self.note_load(i);
                self.procs[i].direct_consumed += 1;
                self.metrics.consumed += 1;
                self.trigger_check(i);
                return;
            }
            if self.procs[i].sum_b < self.params.c_borrow() as u64 {
                if let Some(j) = self.random_borrowable_class(i) {
                    self.add_b(i, j, 1);
                    self.procs[i].sum_b += 1;
                    self.sub_d(i, j, 1);
                    self.procs[i].load -= 1;
                    self.note_load(i);
                    self.metrics.total_borrow += 1;
                    self.metrics.consumed += 1;
                    return;
                }
            }
            // Capacity exhausted (or every loaded class already borrowed):
            // settle markers remotely, then retry.
            let Some(j) = self.random_marker_class(i) else {
                break; // only possible when C = 0
            };
            if self.procs[j].d.get(key(j)) > 0 {
                self.exchange(i, j);
            } else {
                self.reduce_borrow(i, j);
            }
        }
        self.metrics.consume_failed += 1;
    }

    /// Picks a uniformly random class `j` of `i` with `d_{i,j} > 0` and
    /// `b_{i,j} = 0` (a fresh borrow candidate).  Candidates are counted
    /// and indexed in ascending class order over the two sorted key
    /// lists, exactly like the reference's dense filter-then-nth scan, so
    /// RNG consumption is identical.
    fn random_borrowable_class(&mut self, i: usize) -> Option<usize> {
        let count = count_diff(self.procs[i].d.keys(), self.procs[i].b.keys());
        if count == 0 {
            return None;
        }
        let pick = self.rng.gen_range(0..count);
        nth_diff(self.procs[i].d.keys(), self.procs[i].b.keys(), pick).map(|j| j as usize)
    }

    /// Picks a uniformly random class `j` of `i` with `b_{i,j} > 0`.
    fn random_marker_class(&mut self, i: usize) -> Option<usize> {
        if self.procs[i].b.is_empty() {
            return None;
        }
        let pick = self.rng.gen_range(0..self.procs[i].b.len());
        Some(self.procs[i].b.keys()[pick] as usize)
    }

    /// §4 exchange: settle markers held by `i` against real class-`j`
    /// packets still owned by the generator `j`, then let `j` simulate the
    /// corresponding workload decrease.
    fn exchange(&mut self, i: usize, j: usize) {
        debug_assert_ne!(i, j);
        let available = self.procs[j].d.get(key(j));
        let x = match self.params.exchange() {
            ExchangePolicy::Strict => available.min(self.procs[i].b.get(key(j))),
            ExchangePolicy::Aggressive => available.min(self.procs[i].sum_b),
        };
        if x == 0 {
            return;
        }
        self.metrics.remote_borrow += 1;
        // x real class-j packets migrate j -> i ...
        self.sub_d(j, j, x);
        self.procs[j].load -= x;
        self.note_load(j);
        self.add_d(i, j, x);
        self.procs[i].load += x;
        self.note_load(i);
        self.metrics.packets_migrated += x;
        self.metrics.messages += 2;
        if self.trace_on() {
            self.emit(TraceEvent::PacketsMigrated {
                step: self.step_no,
                initiator: j as u64,
                count: x,
            });
        }
        // ... and cancel x markers on i.
        let mut remaining = x;
        let own = self.procs[i].b.get(key(j)).min(remaining);
        if own > 0 {
            self.sub_b(i, j, own);
            self.procs[i].sum_b -= own;
            self.procs[j].settled += own;
            remaining -= own;
        }
        while remaining > 0 {
            // Aggressive policy: spill into markers of other classes, in
            // ascending class order (the reference's 0..n scan) — i.e.
            // drain the front of the sorted key list.
            debug_assert!(!self.procs[i].b.is_empty(), "sum_b guarantees markers");
            let k = self.procs[i].b.keys()[0] as usize;
            let take = self.procs[i].b.vals()[0].min(remaining);
            self.sub_b(i, k, take);
            self.procs[i].sum_b -= take;
            self.procs[k].settled += take;
            remaining -= take;
        }
        self.metrics.markers_settled += x;
        // j simulates a workload decrease of x packets.
        self.metrics.decrease_sim += 1;
        self.trigger_check(j);
    }

    /// §4 reduce-borrow procedure for a marker of class `j` held by `i`
    /// when the generator has no own packets (`d_{j,j} = 0`): balance load
    /// class `j` over a random neighbourhood so that either real class-`j`
    /// packets reach `j` (and can be exchanged) or markers reach `j` (and
    /// annihilate).
    fn reduce_borrow(&mut self, i: usize, j: usize) {
        debug_assert_ne!(i, j);
        debug_assert_eq!(self.procs[j].d.get(key(j)), 0);
        self.metrics.borrow_fail += 1;
        let mut candidates = std::mem::take(&mut self.scratch_partners);
        candidates.clear();
        sample_others_into(
            &mut self.rng,
            self.n,
            j,
            self.params.delta(),
            &mut candidates,
        );
        let mut group = std::mem::take(&mut self.scratch_group);
        if candidates.contains(&i) {
            // i is among j's candidates: one class balance moves packets or
            // markers between i and j directly.
            group.clear();
            group.extend_from_slice(&candidates);
            group.push(j);
            self.balance_class(j, &group);
        } else {
            let helpful = candidates
                .iter()
                .any(|&k| self.procs[k].d.get(key(j)) > 0 || self.procs[k].b.get(key(j)) == 0)
                || self.procs[i].d.get(key(j)) > 0;
            if helpful {
                // Spread i's markers / gather real packets, then pull them
                // towards j.
                group.clear();
                group.extend_from_slice(&candidates);
                group.push(i);
                self.balance_class(j, &group);
                group.pop();
                group.push(j);
                self.balance_class(j, &group);
            } else {
                // Everyone holds only markers: push markers to j first
                // (where they annihilate), then relieve i.
                group.clear();
                group.extend_from_slice(&candidates);
                group.push(j);
                self.balance_class(j, &group);
                group.pop();
                group.push(i);
                self.balance_class(j, &group);
            }
        }
        // Restore the scratch buffers before `exchange`, which may trigger
        // a nested full balance that needs them.
        self.scratch_group = group;
        self.scratch_partners = candidates;
        self.settle_home_markers(j);
        if self.procs[j].d.get(key(j)) > 0 && self.procs[i].b.get(key(j)) > 0 {
            self.exchange(i, j);
        } else if self.procs[i].b.get(key(j)) > 0 {
            // Guaranteed progress (§4: "the borrowed packet on processor i
            // has migrated to processor j where it is also consumed"): one
            // marker moves home and annihilates.  Without this the
            // capacity-capped class balances can shuffle markers without
            // ever relieving i.
            self.sub_b(i, j, 1);
            self.procs[i].sum_b -= 1;
            self.procs[j].settled += 1;
            self.metrics.markers_settled += 1;
            self.metrics.markers_migrated += 1;
            self.metrics.messages += 1;
            if self.trace_on() {
                self.emit(TraceEvent::MarkerMoved {
                    step: self.step_no,
                    initiator: i as u64,
                    count: 1,
                });
            }
            // From j's perspective its virtual class shrank: decrease
            // simulation bookkeeping.
            self.trigger_check(j);
        }
    }

    /// Balances a single load class `c` (both `d_{·,c}` and `b_{·,c}`)
    /// over `members` within ±1, as used by the reduce-borrow procedure.
    fn balance_class(&mut self, c: usize, members: &[usize]) {
        self.metrics.class_balance_ops += 1;
        self.metrics.messages += members.len() as u64;
        let m = members.len();
        let mut before_d = std::mem::take(&mut self.scratch_before_d);
        let mut before_b = std::mem::take(&mut self.scratch_before_b);
        let mut caps = std::mem::take(&mut self.scratch_caps);
        let mut new_d = std::mem::take(&mut self.scratch_new_d);
        let mut new_b = std::mem::take(&mut self.scratch_new_b);
        before_d.clear();
        before_d.extend(members.iter().map(|&mm| self.procs[mm].d.get(key(c))));
        before_b.clear();
        before_b.extend(members.iter().map(|&mm| self.procs[mm].b.get(key(c))));
        let total_d: u64 = before_d.iter().sum();
        let total_b: u64 = before_b.iter().sum();
        // A single class over zeroed running totals degenerates to the
        // plain even split (extras go to the lowest slots first).
        even_shares_into(total_d, m, &mut new_d);
        // Markers must respect the borrow limit C per processor, counting
        // the markers of *other* classes each member already holds.
        caps.clear();
        caps.extend(members.iter().zip(before_b.iter()).map(|(&mm, &own)| {
            (self.params.c_borrow() as u64).saturating_sub(self.procs[mm].sum_b - own)
        }));
        distribute_capped_into(total_b, &caps, &mut new_b);
        let moved_d = moved(&before_d, &new_d);
        let moved_b = moved(&before_b, &new_b);
        self.metrics.packets_migrated += moved_d;
        self.metrics.markers_migrated += moved_b;
        if self.trace_on() {
            if moved_d > 0 {
                self.emit(TraceEvent::PacketsMigrated {
                    step: self.step_no,
                    initiator: c as u64,
                    count: moved_d,
                });
            }
            if moved_b > 0 {
                self.emit(TraceEvent::MarkerMoved {
                    step: self.step_no,
                    initiator: c as u64,
                    count: moved_b,
                });
            }
        }
        for (s, &mm) in members.iter().enumerate() {
            self.procs[mm].load = self.procs[mm].load + new_d[s] - before_d[s];
            self.note_load(mm);
            let p = &mut self.procs[mm];
            p.sum_b = p.sum_b + new_b[s] - before_b[s];
            let was_inline = p.inline();
            p.d.set(key(c), new_d[s]);
            p.b.set(key(c), new_b[s]);
            note_spill(&mut self.spilled, mm, was_inline, p);
        }
        self.scratch_before_d = before_d;
        self.scratch_before_b = before_b;
        self.scratch_caps = caps;
        self.scratch_new_d = new_d;
        self.scratch_new_b = new_b;
    }

    /// Markers of class `m` residing on processor `m` annihilate: the
    /// earlier foreign consumption of `m`'s packets is finally accounted
    /// to `m`'s own load class.
    fn settle_home_markers(&mut self, m: usize) {
        let k = self.procs[m].b.take(key(m));
        if k > 0 {
            self.procs[m].sum_b -= k;
            self.procs[m].settled += k;
            self.metrics.markers_settled += k;
        }
    }

    pub(crate) fn snapshot_impl(&self) -> crate::snapshot::ClusterSnapshot {
        debug_assert!(self.lag.is_empty(), "observed between steps");
        let n = self.n;
        // The snapshot format stays dense (stable on-disk schema); the
        // sparse rows densify row by row.
        let collect = |field: fn(&Proc) -> u64| self.procs.iter().map(field).collect();
        crate::snapshot::ClusterSnapshot {
            n,
            delta: self.params.delta(),
            f: self.params.f(),
            c_borrow: self.params.c_borrow(),
            exchange: self.params.exchange(),
            d: self.procs.iter().map(|p| p.d.to_dense(n)).collect(),
            b: self.procs.iter().map(|p| p.b.to_dense(n)).collect(),
            l_old: collect(|p| p.l_old),
            fresh_generated: collect(|p| p.fresh_generated),
            direct_consumed: collect(|p| p.direct_consumed),
            settled: collect(|p| p.settled),
            initial_total: self.initial_total,
            metrics: self.metrics,
            rng_seed: self.rng.get_seed(),
            rng_word_pos: self.rng.get_word_pos(),
        }
    }

    pub(crate) fn restore_impl(snap: &crate::snapshot::ClusterSnapshot) -> Result<Cluster, String> {
        let params = Params::new(snap.n, snap.delta, snap.f, snap.c_borrow)
            .map_err(|e| e.to_string())?
            .with_exchange(snap.exchange);
        let n = snap.n;
        let rows_ok = |m: &Vec<Vec<u64>>| m.len() == n && m.iter().all(|r| r.len() == n);
        if !rows_ok(&snap.d) || !rows_ok(&snap.b) {
            return Err("snapshot matrices have the wrong shape".into());
        }
        if snap.l_old.len() != n
            || snap.fresh_generated.len() != n
            || snap.direct_consumed.len() != n
            || snap.settled.len() != n
        {
            return Err("snapshot vectors have the wrong length".into());
        }
        // Each record caches its rows' sums.
        let fits = |row: &Vec<u64>| row.iter().try_fold(0u64, |sum, &v| sum.checked_add(v));
        for (what, m) in [("d", &snap.d), ("b", &snap.b)] {
            if let Some(i) = m.iter().position(|row| fits(row).is_none()) {
                return Err(format!("proc {i}: {what} row sums past u64::MAX"));
            }
        }
        let compress = |row: &Vec<u64>| {
            let mut r = SparseRow::new();
            for (c, &v) in row.iter().enumerate() {
                if v > 0 {
                    r.push(key(c), v);
                }
            }
            r
        };
        let mut procs = Zeroed::<Proc>::new(n);
        for (i, p) in procs.iter_mut().enumerate() {
            *p = Proc {
                l_old: snap.l_old[i],
                fresh_generated: snap.fresh_generated[i],
                direct_consumed: snap.direct_consumed[i],
                settled: snap.settled[i],
                ..Proc::new(compress(&snap.d[i]), compress(&snap.b[i]))
            };
        }
        let summary = LoadCounts::new(procs.iter().map(|p| p.load));
        // `push` spilled the rows longer than `INLINE`.
        let spilled = (0..n).filter(|&i| !procs[i].inline()).map(key).collect();
        let mut rng = ChaCha8Rng::from_seed(snap.rng_seed);
        rng.set_word_pos(snap.rng_word_pos);
        // Sinks and the step clock are run-local observer/driver state,
        // not algorithm state — a restored cluster starts untraced.
        let cluster = Self::from_parts(
            params,
            procs,
            spilled,
            rng,
            snap.metrics,
            snap.initial_total,
            summary,
        );
        cluster.check_invariants()?;
        Ok(cluster)
    }

    /// Fires a full balancing operation if processor `i`'s self-generated
    /// load has grown or shrunk by the factor `f` since its last
    /// participation.
    fn trigger_check(&mut self, i: usize) {
        let p = &self.procs[i];
        if self.triggers.triggered(p.d.get(key(i)), p.l_old) {
            self.full_balance(i);
        }
    }

    /// The full balancing operation of the appendix: the initiator and `δ`
    /// random partners equalise their real loads, `d`-matrices and
    /// `b`-matrices within ±1 per class and ±1 in total.
    ///
    /// The operation is *drawn* here, at the trigger — partner sampling,
    /// the only RNG it consumes — and executed up to `lag.depth` draws
    /// later through [`execute_full_balance`]: it is appended to the lag
    /// FIFO with its partners' records hinted, and the FIFO's oldest
    /// operation runs in its place, those hints long since answered.
    /// Inside the settlement path (`eager`) the FIFO is empty and stays
    /// so: the operation just pushed is the oldest.
    fn full_balance(&mut self, initiator: usize) {
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        members.push(initiator);
        let delta = self.params.delta();
        sample_others_into(&mut self.rng, self.n, initiator, delta, &mut members);
        for &partner in &members[1..] {
            prefetch(&self.procs[partner]);
        }
        self.lag.push(&members);
        self.scratch_members = members;
        let depth = if self.eager { 0 } else { self.lag.depth };
        while self.lag.len > depth {
            self.execute_oldest();
        }
    }

    /// Executes the lag FIFO's oldest operation and folds its outcome.
    fn execute_oldest(&mut self) {
        let mut members = std::mem::take(&mut self.scratch_members);
        self.lag.pop_into(&mut members);
        let tracing = self.trace_on();
        let out = execute_full_balance(
            &mut self.procs,
            &mut self.spilled,
            &members,
            tracing,
            &mut self.scratch_balance,
        );
        self.fold_outcome(&members, out, tracing);
        self.scratch_members = members;
    }

    /// Folds one executed operation's outcome into the observer's
    /// counts, the metrics and the trace.  Called in trigger order, so
    /// counter sums and event stream are those of execution at the
    /// trigger: per operation BalanceInitiated, then PacketsMigrated
    /// and MarkerMoved when nonzero.
    fn fold_outcome(&mut self, members: &[usize], out: OpOutcome, tracing: bool) {
        // The executor rewrote the members' loads; the observer's
        // counts catch up here.
        for &mm in members {
            self.note_load(mm);
        }
        self.metrics.balance_ops += 1;
        self.metrics.messages += members.len() as u64;
        self.metrics.packets_migrated += out.op_packets;
        self.metrics.markers_migrated += out.op_markers;
        self.metrics.markers_settled += out.home_settled;
        if let Some(sink) = self.sink.as_ref().filter(|_| tracing) {
            let initiator = members[0] as u64;
            self.trace_partners.clear();
            self.trace_partners
                .extend(members[1..].iter().map(|&p| p as u64));
            sink.record_balance(
                self.step_no,
                initiator,
                &mut self.trace_partners,
                out.trigger,
            );
            if out.op_packets > 0 {
                self.emit(TraceEvent::PacketsMigrated {
                    step: self.step_no,
                    initiator,
                    count: out.op_packets,
                });
            }
            if out.op_markers > 0 {
                self.emit(TraceEvent::MarkerMoved {
                    step: self.step_no,
                    initiator,
                    count: out.op_markers,
                });
            }
        }
    }

    /// Executes every operation that is drawn but not yet executed,
    /// oldest first.
    fn flush_pending(&mut self) {
        while !self.lag.is_empty() {
            self.execute_oldest();
        }
    }

    /// Frees the rows of every listed processor, leaving them empty in
    /// place, and empties the list; returns how many rows owned a heap
    /// block.  O(listed): no other record is read.
    fn free_spilled(&mut self) -> usize {
        let procs = &mut self.procs;
        self.spilled
            .drain(..)
            .map(|i| procs[i as usize].free_rows())
            .sum()
    }
}

/// Teardown frees the listed rows and releases the records without
/// reading the rest: at n = 2²⁰ with no row spilled, that is the
/// deallocation of 128 MiB and nothing else.
impl Drop for Cluster {
    fn drop(&mut self) {
        self.free_spilled();
        // A heap row that no listing site recorded would leak here.
        // Debug builds read every record to say so (not while a panic
        // is already unwinding: a second one would abort).
        if cfg!(debug_assertions) && !std::thread::panicking() {
            if let Some(i) = self.procs.iter().position(|p| !p.inline()) {
                panic!("proc {i}: a heap row that no listing site recorded");
            }
        }
    }
}

impl LoadBalancer for Cluster {
    fn n(&self) -> usize {
        self.n
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        debug_assert!(self.lag.is_empty(), "observed between steps");
        out.clear();
        out.extend(self.procs.iter().map(|p| p.load));
    }

    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        // The counters before the step, kept only if a sink wants the delta.
        let before = self.trace_on().then_some(self.metrics);
        events.for_each_up_ahead(self.n, down, |i, ev, rest| {
            // An active list names its processors in advance, so the
            // record of the event `AHEAD` places on is on its way to
            // cache while this one is processed.
            if let Some(&(soon, _)) = rest.get(AHEAD - 1) {
                prefetch(&self.procs[soon]);
            }
            // A drawn balance involving i must land before i acts:
            // generation, consumption and the trigger check all read
            // row-i state the waiting operation rewrites.  (Idle reads
            // nothing, so operations keep waiting across idlers.)
            if !matches!(ev, LoadEvent::Idle) && self.lag.involves(i) {
                self.flush_pending();
            }
            match ev {
                LoadEvent::Generate => self.generate(i),
                LoadEvent::Consume => self.consume(i),
                LoadEvent::Idle => {}
            }
        });
        // Operations never outlive their step: the StepDelta below (and
        // any observer between steps) must see fully-settled state.
        self.flush_pending();
        debug_assert!(
            self.lag.is_empty(),
            "operations must not outlive their step"
        );
        if let (Some(before), Some(sink)) = (&before, &self.sink) {
            self.metrics.delta_into(before, &mut self.trace_counters);
            sink.record_delta(self.step_no, &mut self.trace_counters);
        }
        self.step_no += 1;
    }

    fn load_summary(&mut self) -> LoadSummary {
        debug_assert!(self.lag.is_empty(), "observed between steps");
        let (min, max) = self.summary.min_max();
        // The global-ledger invariant (checked by `check_invariants`):
        // total load is initial + generated − consumed.
        let summary = LoadSummary {
            min,
            max,
            total: self.initial_total + self.metrics.generated - self.metrics.consumed,
        };
        // A load write that skipped `note_load` skews every later
        // report; debug builds pay the O(n) scan to fail at once.
        debug_assert_eq!(summary, LoadSummary::from_loads(&self.loads()));
        summary
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "spaa93-full"
    }

    fn set_trace_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "initial load 9223372036854775808 × n = 2 overflows u64")]
    fn initial_total_past_u64_is_refused() {
        Cluster::with_initial_load(Params::paper_section7(2), 0, 1 << 63);
    }

    fn run_random(params: Params, seed: u64, steps: usize, p_gen: f64, p_con: f64) -> Cluster {
        let mut cluster = Cluster::new(params, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfeed);
        let n = params.n();
        for _ in 0..steps {
            let events: Vec<LoadEvent> = (0..n)
                .map(|_| {
                    let x: f64 = rng.gen();
                    if x < p_gen {
                        LoadEvent::Generate
                    } else if x < p_gen + p_con {
                        LoadEvent::Consume
                    } else {
                        LoadEvent::Idle
                    }
                })
                .collect();
            cluster.step(&events);
        }
        cluster
    }

    #[test]
    fn generation_only_stays_invariant_and_balanced() {
        let params = Params::paper_section7(8);
        let mut cluster = Cluster::new(params, 1);
        let events = vec![LoadEvent::Generate; 8];
        for _ in 0..200 {
            cluster.step(&events);
            cluster.check_invariants().unwrap();
        }
        let loads = cluster.loads();
        assert_eq!(loads.iter().sum::<u64>(), 8 * 200);
        // Every processor generated equally; the balancer keeps spread low.
        let stats = crate::strategy::imbalance_stats(&loads);
        assert!(stats.max_over_mean < 1.5, "stats: {stats:?}");
    }

    #[test]
    fn one_producer_spreads_load_through_network() {
        let params = Params::new(16, 2, 1.3, 4).unwrap();
        let mut cluster = Cluster::new(params, 7);
        let mut events = vec![LoadEvent::Idle; 16];
        events[0] = LoadEvent::Generate;
        for _ in 0..2000 {
            cluster.step(&events);
        }
        cluster.check_invariants().unwrap();
        let loads = cluster.loads();
        assert_eq!(loads.iter().sum::<u64>(), 2000);
        // Everyone received work.
        assert!(loads.iter().all(|&l| l > 0), "{loads:?}");
        // Theorem 3 flavour: producer within a small factor of the others.
        let others_mean = loads[1..].iter().sum::<u64>() as f64 / 15.0;
        let ratio = loads[0] as f64 / others_mean;
        assert!(ratio < 3.0, "producer ratio {ratio}");
    }

    #[test]
    fn consume_without_load_is_blocked() {
        let params = Params::paper_section7(4);
        let mut cluster = Cluster::new(params, 3);
        cluster.step(&[
            LoadEvent::Consume,
            LoadEvent::Idle,
            LoadEvent::Idle,
            LoadEvent::Idle,
        ]);
        assert_eq!(cluster.metrics().consume_blocked, 1);
        assert_eq!(cluster.metrics().consumed, 0);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn borrowing_kicks_in_for_consumer_without_own_class() {
        // Processor 1 never generates but receives migrated class-0 load;
        // consuming it must go through the borrow machinery.
        let params = Params::new(4, 1, 1.1, 4).unwrap();
        let mut cluster = Cluster::new(params, 11);
        // Build up load from processor 0.
        let mut gen = vec![LoadEvent::Idle; 4];
        gen[0] = LoadEvent::Generate;
        for _ in 0..400 {
            cluster.step(&gen);
        }
        assert!(cluster.load(1) > 0, "balancing moved work to processor 1");
        let mut con = vec![LoadEvent::Idle; 4];
        con[1] = LoadEvent::Consume;
        for _ in 0..50 {
            cluster.step(&con);
            cluster.check_invariants().unwrap();
        }
        assert!(
            cluster.metrics().total_borrow > 0,
            "borrows: {:?}",
            cluster.metrics()
        );
        assert_eq!(cluster.metrics().consume_failed, 0);
    }

    #[test]
    fn exchange_settles_markers_against_generator() {
        let params = Params::new(4, 1, 1.1, 2).unwrap();
        let mut cluster = Cluster::new(params, 5);
        let mut gen = vec![LoadEvent::Idle; 4];
        gen[0] = LoadEvent::Generate;
        for _ in 0..600 {
            cluster.step(&gen);
        }
        // Processor 1 consumes aggressively; with C = 2 it must exchange.
        let mut con = vec![LoadEvent::Idle; 4];
        con[1] = LoadEvent::Consume;
        con[0] = LoadEvent::Generate;
        for _ in 0..300 {
            cluster.step(&con);
            cluster.check_invariants().unwrap();
        }
        let m = cluster.metrics();
        assert!(m.remote_borrow > 0, "exchanges happened: {m:?}");
        assert!(m.decrease_sim >= m.remote_borrow);
    }

    #[test]
    fn aggressive_policy_also_preserves_global_ledger() {
        let params = Params::new(8, 2, 1.4, 4)
            .unwrap()
            .with_exchange(ExchangePolicy::Aggressive);
        let cluster = run_random(params, 23, 800, 0.4, 0.4);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn mixed_workload_keeps_all_invariants() {
        for seed in 0..5 {
            let params = Params::paper_section7(16);
            let cluster = run_random(params, seed, 500, 0.45, 0.45);
            cluster.check_invariants().unwrap();
            assert_eq!(cluster.metrics().consume_failed, 0, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let params = Params::paper_section7(8);
        let a = run_random(params, 42, 300, 0.5, 0.3).loads();
        let b = run_random(params, 42, 300, 0.5, 0.3).loads();
        assert_eq!(a, b);
        let c = run_random(params, 43, 300, 0.5, 0.3).loads();
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn marker_capacity_never_exceeded() {
        let params = Params::new(8, 1, 1.1, 3).unwrap();
        let mut cluster = Cluster::new(params, 9);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..600 {
            let events: Vec<LoadEvent> = (0..8)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        LoadEvent::Generate
                    } else {
                        LoadEvent::Consume
                    }
                })
                .collect();
            cluster.step(&events);
            for i in 0..8 {
                let total_b: u64 = (0..8).map(|c| cluster.b(i, c)).sum();
                assert!(total_b <= 3, "proc {i} holds {total_b} markers");
            }
        }
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn balanced_initial_load_consumable_to_zero() {
        // Start loaded, consume everything: the borrow machinery must let
        // every processor drain the system completely.
        let params = Params::new(6, 1, 1.2, 4).unwrap();
        let mut cluster = Cluster::with_initial_load(params, 2, 50);
        let events = vec![LoadEvent::Consume; 6];
        for _ in 0..400 {
            cluster.step(&events);
            cluster.check_invariants().unwrap();
        }
        assert_eq!(
            cluster.loads().iter().sum::<u64>(),
            0,
            "{:?}",
            cluster.loads()
        );
    }

    #[test]
    fn theorem4_style_ratio_stays_bounded() {
        // Adversarial pattern: half the processors only generate, half only
        // consume; claim `thm4` bounds the loads.
        let params = Params::new(16, 4, 1.4, 4).unwrap();
        let mut cluster = Cluster::new(params, 31);
        let events: Vec<LoadEvent> = (0..16)
            .map(|i| {
                if i < 8 {
                    LoadEvent::Generate
                } else {
                    LoadEvent::Consume
                }
            })
            .collect();
        for _ in 0..1500 {
            cluster.step(&events);
        }
        cluster.check_invariants().unwrap();
        let loads = cluster.loads();
        // Max against min is the binding pair; one run, judged as exact.
        let load = |l: &u64| dlb_theory::claims::Estimate::exact(*l as f64);
        let observed = dlb_theory::claims::Observation::Pair {
            load_i: load(loads.iter().max().unwrap()),
            load_j: load(loads.iter().min().unwrap()),
            c_borrow: params.c_borrow(),
        };
        let margin = dlb_theory::claims::by_id("thm4")
            .evaluate(params.algo(), &observed)
            .expect("inside");
        assert!(margin.holds(), "{margin:?}");
    }

    #[test]
    fn tracing_does_not_change_behaviour_and_deltas_reconstruct_metrics() {
        let params = Params::paper_section7(8);
        let untraced = run_random(params, 77, 400, 0.45, 0.45);

        let mut traced = Cluster::new(params, 77);
        let buffer = dlb_trace::BufferSink::new();
        traced.set_trace_sink(buffer.handle());
        let mut rng = ChaCha8Rng::seed_from_u64(77 ^ 0xfeed);
        for _ in 0..400 {
            let events: Vec<LoadEvent> = (0..8)
                .map(|_| {
                    let x: f64 = rng.gen();
                    if x < 0.45 {
                        LoadEvent::Generate
                    } else if x < 0.9 {
                        LoadEvent::Consume
                    } else {
                        LoadEvent::Idle
                    }
                })
                .collect();
            traced.step(&events);
        }
        assert_eq!(traced.loads(), untraced.loads(), "tracing must be passive");
        assert_eq!(traced.metrics(), untraced.metrics());

        let events = buffer.take();
        let balances = events
            .iter()
            .filter(|e| matches!(e, dlb_trace::TraceEvent::BalanceInitiated { .. }))
            .count() as u64;
        assert_eq!(balances, traced.metrics().balance_ops);
        // Summing the per-step deltas reproduces the final Metrics.
        let mut replayed = Metrics::new();
        for ev in &events {
            if let dlb_trace::TraceEvent::StepDelta { counters, .. } = ev {
                for (name, inc) in counters {
                    replayed.add_named(name, *inc).unwrap();
                }
            }
        }
        assert_eq!(&replayed, traced.metrics());
    }

    #[test]
    fn null_sink_emits_nothing_and_changes_nothing() {
        let params = Params::paper_section7(8);
        let plain = run_random(params, 13, 200, 0.5, 0.3).loads();
        let mut nulled = Cluster::new(params, 13);
        nulled.set_trace_sink(dlb_trace::SharedSink::new(dlb_trace::NullSink));
        let mut rng = ChaCha8Rng::seed_from_u64(13 ^ 0xfeed);
        for _ in 0..200 {
            let events: Vec<LoadEvent> = (0..8)
                .map(|_| {
                    let x: f64 = rng.gen();
                    if x < 0.5 {
                        LoadEvent::Generate
                    } else if x < 0.8 {
                        LoadEvent::Consume
                    } else {
                        LoadEvent::Idle
                    }
                })
                .collect();
            nulled.step(&events);
        }
        assert_eq!(nulled.loads(), plain);
    }

    #[test]
    fn state_bytes_scales_with_activity_not_n_squared() {
        // A lightly-loaded n=1024 cluster must cost orders of magnitude
        // less than the 2 * 8 * n² bytes the dense arenas would pay.
        let params = Params::new(1024, 2, 1.3, 4).unwrap();
        let mut cluster = Cluster::new(params, 5);
        let mut events = vec![LoadEvent::Idle; 1024];
        events[0] = LoadEvent::Generate;
        events[1] = LoadEvent::Generate;
        for _ in 0..200 {
            cluster.step(&events);
        }
        let dense_bytes = 2 * 8 * 1024 * 1024;
        let sparse_bytes = cluster.state_bytes();
        assert!(
            sparse_bytes * 10 < dense_bytes,
            "sparse {sparse_bytes} bytes vs dense {dense_bytes}"
        );
    }

    #[test]
    #[should_panic(expected = "one event per processor")]
    fn step_requires_full_event_vector() {
        let params = Params::paper_section7(4);
        let mut cluster = Cluster::new(params, 0);
        cluster.step(&[LoadEvent::Idle]);
    }

    fn random_events(rng: &mut ChaCha8Rng, n: usize, p_gen: f64, p_con: f64) -> Vec<LoadEvent> {
        (0..n)
            .map(|_| {
                let x: f64 = rng.gen();
                if x < p_gen {
                    LoadEvent::Generate
                } else if x < p_gen + p_con {
                    LoadEvent::Consume
                } else {
                    LoadEvent::Idle
                }
            })
            .collect()
    }

    #[test]
    fn load_summary_is_exact_mid_run() {
        let params = Params::paper_section7(8);
        let mut cluster = Cluster::new(params, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for _ in 0..300 {
            let events = random_events(&mut rng, 8, 0.45, 0.4);
            cluster.step(&events);
            let s = cluster.load_summary();
            let loads = cluster.loads();
            assert_eq!(s.min, *loads.iter().min().unwrap());
            assert_eq!(s.max, *loads.iter().max().unwrap());
            assert_eq!(s.total, loads.iter().sum::<u64>());
        }
    }

    #[test]
    fn querying_load_summary_does_not_change_behaviour() {
        let params = Params::paper_section7(8);
        let plain = run_random(params, 57, 300, 0.4, 0.4);
        let mut observed = Cluster::new(params, 57);
        let mut rng = ChaCha8Rng::seed_from_u64(57 ^ 0xfeed);
        for _ in 0..300 {
            let events = random_events(&mut rng, 8, 0.4, 0.4);
            observed.step(&events);
            observed.load_summary();
        }
        assert_eq!(observed.loads(), plain.loads());
        assert_eq!(observed.metrics(), plain.metrics());
    }

    #[test]
    #[should_panic(expected = "sorted by ascending")]
    fn step_sparse_rejects_unsorted_input() {
        let params = Params::paper_section7(4);
        let mut cluster = Cluster::new(params, 0);
        cluster.step_sparse(&[(2, LoadEvent::Generate), (1, LoadEvent::Generate)]);
    }

    /// Today's crash semantics of the full model, stated so that
    /// changing them is a decision (ROADMAP, "Theorem monitors"): the
    /// mask only withholds the crashed processor's own event.
    #[test]
    fn down_processor_takes_no_event_but_is_still_drawn_and_balanced() {
        let params = Params::new(8, 1, 1.1, 4).unwrap();
        let mut cluster = Cluster::new(params, 1);
        let buffer = dlb_trace::BufferSink::new();
        cluster.set_trace_sink(buffer.handle());
        let events = vec![LoadEvent::Generate; 8];
        let mut down = vec![false; 8];
        down[3] = true;
        for _ in 0..50 {
            cluster.step_masked(&events, &down);
        }
        cluster.check_invariants().unwrap();
        assert_eq!(cluster.metrics().generated, 7 * 50, "no event on 3");
        assert_eq!(cluster.procs[3].fresh_generated, 0);
        assert_eq!(cluster.d(3, 3), 0);
        let (mut initiated, mut partnered) = (0, 0);
        for ev in buffer.take() {
            if let TraceEvent::BalanceInitiated {
                initiator,
                partners,
                ..
            } = ev
            {
                initiated += usize::from(initiator == 3);
                partnered += usize::from(partners.contains(&3));
            }
        }
        assert_eq!(initiated, 0, "a down processor initiates nothing");
        assert!(partnered > 0, "but the partner draw ranges over all n");
        assert!(cluster.load(3) > 0, "and balancing moves load onto it");
    }

    /// A cluster whose lag FIFO has the full depth whatever `n`: the
    /// shipped rule gives every size the suites run at depth 0.
    fn lagged(params: Params, seed: u64, initial: u64) -> Cluster {
        let mut cluster = Cluster::with_initial_load(params, seed, initial);
        assert_eq!(cluster.lag.depth, 0, "n < 128 executes at the trigger");
        cluster.lag = Lag::with_depth(AHEAD, params.delta() + 1);
        cluster
    }

    /// Records in one 2 MiB huge page: one more is mapped, not on the
    /// heap (`pages.rs`).
    const PER_PAGE: usize = (2 << 20) / std::mem::size_of::<Proc>();

    #[test]
    fn a_zeroed_record_is_an_empty_processor() {
        // One record, and either side of a huge page of them: on the
        // heap, then mapped and advised onto 2 MiB pages.
        for n in [1, PER_PAGE - 1, PER_PAGE + 1] {
            let mut procs = Zeroed::<Proc>::new(n);
            assert_eq!(procs.len(), n);
            for p in procs.iter() {
                // Every field by name: a new one fails to compile here.
                let Proc {
                    load,
                    sum_b,
                    l_old,
                    seen,
                    d,
                    b,
                    fresh_generated,
                    direct_consumed,
                    settled,
                } = p;
                let empty = Proc::new(SparseRow::new(), SparseRow::new());
                assert_eq!(
                    (*load, *sum_b, *l_old, *seen),
                    (empty.load, empty.sum_b, empty.l_old, empty.seen)
                );
                assert_eq!(
                    (*fresh_generated, *direct_consumed, *settled),
                    (empty.fresh_generated, empty.direct_consumed, empty.settled)
                );
                assert_eq!((&**d, &**b), (&*empty.d, &*empty.b));
                assert!(d.is_inline() && b.is_inline() && empty.inline());
                assert_eq!((d.heap_bytes(), b.heap_bytes()), (0, 0));
            }
            // The first write to a zeroed row is an ordinary one.
            procs[n - 1].d.add(7, 3);
            assert_eq!((procs[n - 1].d.get(7), procs[n - 1].d.len()), (3, 1));
        }
    }

    /// Clusters one record past a huge page — mapped records — each
    /// built, stepped and dropped on a `par_map` thread of its own, both
    /// alive at once (a `Cluster` is not `Send`: its sink handle is an
    /// `Rc`), equal step for step to the same clusters here.
    #[test]
    fn a_mapped_cluster_crosses_par_map_threads() {
        let n = PER_PAGE + 1;
        let params = Params::new(n, 1, 1.1, 4).unwrap();
        let run = |seed: u64, both: Option<&std::sync::Barrier>| {
            let mut cluster = Cluster::with_initial_load(params, seed, 2);
            if let Some(both) = both {
                both.wait();
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..4 {
                cluster.step(&random_events(&mut rng, n, 0.5, 0.3));
            }
            cluster.check_invariants().unwrap();
            (cluster.loads().to_vec(), *cluster.metrics())
        };
        let both = std::sync::Barrier::new(2);
        let threaded = dlb_pool::par_map(2, 2, |i| {
            (std::thread::current().id(), run(i as u64, Some(&both)))
        });
        assert_ne!(threaded[0].0, threaded[1].0, "two threads");
        for (i, (_, got)) in threaded.into_iter().enumerate() {
            assert_eq!(got, run(i as u64, None), "cluster {i}");
        }
    }

    #[test]
    fn lag_depth_follows_the_scenario() {
        let depth = |n, delta| Lag::new(n, delta).depth;
        assert_eq!(depth(64, 1), 0, "paper_dense: today's path");
        assert_eq!(depth(127, 1), 0);
        assert_eq!(depth(128, 1), 1);
        assert_eq!(depth(8192, 2), 8, "full_large");
        assert_eq!(depth(1 << 20, 1), 8, "million_sparse");
        assert_eq!(depth(1 << 20, 63), 8);
        // Waiting members never cover more than 1/64 of the processors.
        for (n, delta) in [(128, 1), (500, 2), (4096, 7), (1 << 14, 63)] {
            assert!(depth(n, delta) * (delta + 1) * 64 <= n, "n={n} δ={delta}");
        }
    }

    #[test]
    fn event_on_a_pending_partner_sees_the_post_balance_row() {
        // δ = n − 1: every operation spans all four processors.  With
        // f = 3.9 processor 0's fourth packet triggers (4 ≥ 3.9 · 1).
        let params = Params::new(4, 3, 3.9, 4).unwrap();
        let mut cluster = lagged(params, 5, 0);
        let mut gen = vec![LoadEvent::Idle; 4];
        gen[0] = LoadEvent::Generate;
        for _ in 0..3 {
            cluster.step(&gen);
        }
        assert_eq!(cluster.loads(), [3, 0, 0, 0]);
        let ops = cluster.metrics().balance_ops;
        // The fourth packet, outside a step: its operation is drawn —
        // and waits, the rows still as they were at the trigger.
        cluster.generate(0);
        assert_eq!(cluster.lag.len, 1);
        assert!(cluster.lag.involves(1));
        assert_eq!(cluster.metrics().balance_ops, ops, "not yet folded");
        assert_eq!((cluster.procs[0].load, cluster.procs[1].load), (4, 0));
        // Processor 1 consumes.  Its pre-balance row is empty (a blocked
        // consume); the operation hands it one class-0 packet, which it
        // must find — and borrow, having no class of its own.
        cluster.step_sparse(&[(1, LoadEvent::Consume)]);
        assert!(cluster.lag.is_empty());
        let m = cluster.metrics();
        assert_eq!(m.balance_ops, ops + 1);
        assert_eq!((m.consumed, m.consume_blocked, m.total_borrow), (1, 0, 1));
        assert_eq!(cluster.loads(), [1, 0, 1, 1]);
        assert_eq!(cluster.b(1, 0), 1);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn borrowing_consume_drains_the_fifo_before_the_first_settlement_read() {
        // C = 1, so the borrower's second foreign packet needs a
        // settlement: an exchange with generator 0, which reads and
        // rewrites 0's record — a member of the waiting operation.
        let params = Params::new(4, 1, 1.1, 1).unwrap();
        let borrower = 1;
        let run = |mut cluster: Cluster, generates: Option<usize>| {
            let mut gen = vec![LoadEvent::Idle; 4];
            gen[0] = LoadEvent::Generate;
            for _ in 0..400 {
                cluster.step(&gen);
            }
            cluster.step_sparse(&[(borrower, LoadEvent::Consume)]);
            assert_eq!(cluster.b(borrower, 0), 1, "capacity used up");
            // Generate on 0, outside a step, until an operation that
            // leaves the borrower out is waiting (the depth-0 twin
            // replays the count: nothing ever waits there).
            let mut count = 0;
            while generates.map_or(cluster.lag.is_empty(), |k| count < k) {
                cluster.generate(0);
                count += 1;
                if cluster.lag.involves(borrower) {
                    cluster.flush_pending();
                }
            }
            if generates.is_none() {
                assert_eq!(cluster.lag.len, 1);
                assert!(cluster.lag.involves(0) && !cluster.lag.involves(borrower));
            }
            assert_eq!(cluster.b(borrower, 0), 1, "still at capacity");
            assert!(cluster.procs[borrower].load > 0 && cluster.d(borrower, borrower) == 0);
            let exchanges = cluster.metrics().remote_borrow;
            cluster.consume(borrower);
            assert!(cluster.lag.is_empty());
            assert_eq!(cluster.metrics().remote_borrow, exchanges + 1);
            cluster.check_invariants().unwrap();
            (cluster, count)
        };
        let (late, count) = run(lagged(params, 11, 0), None);
        let (plain, _) = run(Cluster::new(params, 11), Some(count));
        assert_eq!(late.loads(), plain.loads());
        assert_eq!(late.metrics(), plain.metrics());
        assert_eq!(late.rng.get_word_pos(), plain.rng.get_word_pos());
        for i in 0..4 {
            for c in 0..4 {
                assert_eq!(late.d(i, c), plain.d(i, c), "d[{i}][{c}]");
                assert_eq!(late.b(i, c), plain.b(i, c), "b[{i}][{c}]");
            }
            assert_eq!(late.procs[i].l_old, plain.procs[i].l_old, "l_old[{i}]");
        }
    }

    #[test]
    fn fifo_is_empty_after_every_step() {
        let params = Params::paper_section7(12);
        let mut cluster = lagged(params, 3, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for t in 0..100 {
            let events = random_events(&mut rng, 12, 0.5, 0.4);
            cluster.step(&events);
            assert!(cluster.lag.is_empty(), "step {t}");
            // Each of these asserts as much in debug builds.
            cluster.load_summary();
            cluster.loads();
            cluster.snapshot_impl();
            cluster.check_invariants().unwrap();
        }
        assert!(cluster.metrics().balance_ops > 100, "the FIFO was used");
    }

    /// The bytes `FileSink` would persist for a captured stream.
    fn trace_text(events: &[TraceEvent]) -> String {
        let mut out = Vec::new();
        for ev in events {
            ev.write_line(&mut out);
            out.push(b'\n');
        }
        String::from_utf8(out).expect("trace lines are UTF-8")
    }

    /// One case of `the_zero_fill_steps_like_the_elementwise_build`.
    fn zero_fill_case(
        n: usize,
        delta_pick: usize,
        c_idx: usize,
        initial: u64,
        p_gen: f64,
        seed: u64,
    ) -> Result<(), proptest::TestCaseError> {
        use proptest::{prop_assert, prop_assert_eq};
        let delta = 1 + delta_pick % (n - 1).min(4);
        // C = 3, 6 let a processor hold markers of three classes,
        // so marker rows spill too.
        let params = Params::new(n, delta, 1.2, [1usize, 3, 6][c_idx]).unwrap();
        let initial = initial * 4;
        let mut zero = Cluster::with_initial_load(params, seed, initial);
        let mut elem = Cluster::with_initial_load_elementwise(params, seed, initial);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let mut down = vec![false; n];
        // Large clusters differ from small ones only in where their
        // records live: a few steps show that.
        let steps = if n <= 300 { 40 } else { 4 };
        for t in 0..steps {
            if t % 9 == 0 {
                down.iter_mut().for_each(|f| *f = ev_rng.gen_bool(0.1));
            }
            // A snapshot is dense, n² words per matrix: small n only.
            if t == 20 && n <= 300 {
                zero = Cluster::restore(&zero.snapshot()).map_err(proptest::TestCaseError::fail)?;
            }
            let events = random_events(&mut ev_rng, n, p_gen, 0.9 - p_gen);
            zero.step_masked(&events, &down);
            elem.step_masked(&events, &down);
            prop_assert_eq!(zero.loads(), elem.loads(), "loads at step {}", t);
            prop_assert_eq!(zero.metrics(), elem.metrics(), "metrics at step {}", t);
            prop_assert_eq!(zero.load_summary(), elem.load_summary());
            for (i, (z, e)) in zero.procs.iter().zip(elem.procs.iter()).enumerate() {
                prop_assert_eq!(
                    (z.load, z.sum_b, z.l_old, z.seen, &*z.d, &*z.b),
                    (e.load, e.sum_b, e.l_old, e.seen, &*e.d, &*e.b),
                    "proc {} at step {}",
                    i,
                    t
                );
                prop_assert_eq!(
                    (z.fresh_generated, z.direct_consumed, z.settled),
                    (e.fresh_generated, e.direct_consumed, e.settled),
                    "ledger of proc {} at step {}",
                    i,
                    t
                );
            }
            zero.check_invariants()
                .map_err(proptest::TestCaseError::fail)?;
            elem.check_invariants()
                .map_err(proptest::TestCaseError::fail)?;
        }
        for cluster in [&mut zero, &mut elem] {
            let heap: usize = cluster
                .procs
                .iter()
                .map(|p| usize::from(!p.d.is_inline()) + usize::from(!p.b.is_inline()))
                .sum();
            prop_assert_eq!(cluster.free_spilled(), heap);
            prop_assert!(cluster.procs.iter().all(Proc::inline));
            prop_assert_eq!(cluster.procs.len(), n);
        }
        Ok(())
    }

    /// The zero-built records against the element-wise build: either
    /// side of a huge page of records (on the heap, then mapped), and on
    /// 2–300 processors drawn like a proptest's (one cannot be built),
    /// empty or loaded, under random events and crash masks, the
    /// zero-built one through a snapshot round trip half-way when small.
    /// After every step the two agree on loads, metrics and every
    /// record, rows included, and both pass `check_invariants`, whose
    /// spill-list check names a heap row no listing site recorded.  At
    /// teardown `free_spilled` frees exactly the heap rows there are,
    /// and leaves every record in place.
    #[test]
    fn the_zero_fill_steps_like_the_elementwise_build() {
        for n in [PER_PAGE - 1, PER_PAGE + 1] {
            if let Err(e) = zero_fill_case(n, 1, 2, 1, 0.45, n as u64) {
                panic!("n = {n}: {e:?}");
            }
        }
        proptest::test_runner::run("the_zero_fill_steps_like_the_elementwise_build", |rng| {
            use proptest::Strategy;
            let n = (2usize..=300).generate(rng);
            let delta_pick = (0usize..64).generate(rng);
            let c_idx = (0usize..3).generate(rng);
            let initial = (0u64..3).generate(rng);
            let p_gen = (0.3f64..0.6).generate(rng);
            let seed = (0u64..1_000_000).generate(rng);
            let case = (n, delta_pick, c_idx, initial, p_gen, seed);
            zero_fill_case(n, delta_pick, c_idx, initial, p_gen, seed)
                .map_err(|e| proptest::TestCaseError::fail(format!("{e:?}\n    case: {case:?}")))
        });
    }

    proptest::proptest! {
        /// The kernel against the rule as stated: on any member rows —
        /// in place, spilled, or spilled and shrunk back — `equalise`
        /// leaves the shares [`distribute_classes_flat`] sorts its way
        /// to, class by class over the rows' union, with the same
        /// running sums and the outflow counted from them.  Up to nine
        /// members, so the general instantiation runs beside m = 2, 3.
        /// The sixteen classes are 0..15 and `u32::MAX − 1`, the largest
        /// a cluster has, next to the `u32::MAX` that ends a row.
        #[test]
        fn equalise_matches_the_sorting_distributor(
            rows in proptest::collection::vec(
                (
                    proptest::collection::vec((0u32..16, 0u64..50), 0..=12),
                    proptest::any::<bool>(),
                ),
                1..=9,
            ),
            rotate in 0usize..9,
        ) {
            use crate::balance::distribute_classes_flat;
            use proptest::prop_assert_eq;
            use std::collections::BTreeMap;
            let m = rows.len();
            let class = |i: u32| if i == 15 { u32::MAX - 1 } else { i };
            // Values 1..=5, one in ten around 2⁴⁰.
            let rows: Vec<(BTreeMap<u32, u64>, bool)> = rows
                .into_iter()
                .map(|(entries, spill_first)| {
                    let value = |v: u64| if v < 45 { 1 + v % 5 } else { (1 << 40) + v };
                    (entries.into_iter().map(|(i, v)| (class(i), value(v))).collect(), spill_first)
                })
                .collect();
            let mut procs: Vec<Proc> = rows
                .iter()
                .map(|(entries, spill_first)| {
                    let mut d = SparseRow::new();
                    if *spill_first {
                        (100..120).for_each(|c| d.push(c, 1));
                    }
                    let (keys, vals): (Vec<u32>, Vec<u64>) =
                        entries.iter().map(|(&c, &v)| (c, v)).unzip();
                    d.assign(&keys, &vals);
                    Proc::new(d, SparseRow::new())
                })
                .collect();
            // Slot s is processor (s + rotate) mod m: slot order, not
            // processor order, breaks the ties.
            let members: Vec<usize> = (0..m).map(|s| (s + rotate) % m).collect();
            let held = |s: usize, i: u32| rows[members[s]].0.get(&class(i)).copied().unwrap_or(0);
            let totals: Vec<u64> = (0..16).map(|c| (0..m).map(|s| held(s, c)).sum()).collect();
            let mut run = vec![0u64; m];
            let mut shares = Vec::new();
            distribute_classes_flat(&totals, m, &mut run, &mut shares);

            let mut scratch = BalanceScratch::default();
            let mut spilled = Vec::new();
            let outflow = equalise(&mut procs, &mut spilled, &members, &mut scratch, Matrix::D);
            let mut expect_outflow = 0;
            for (s, &mm) in members.iter().enumerate() {
                let row = &procs[mm].d;
                prop_assert_eq!(row.check(), Ok(()));
                let column: Vec<u64> = (0..16).map(|i| shares[i * m + s]).collect();
                let got: Vec<u64> = (0..16).map(|i| row.get(class(i))).collect();
                prop_assert_eq!(got, column.clone(), "slot {}", s);
                prop_assert_eq!(row.len(), column.iter().filter(|&&v| v > 0).count());
                prop_assert_eq!(scratch.slots[s].run, run[s], "slot {}", s);
                let (old, spill_first) = &rows[mm];
                prop_assert_eq!(
                    row.heap_bytes() > 0,
                    *spill_first || old.len().max(row.len()) > crate::sparse::INLINE
                );
                expect_outflow += (0..16)
                    .map(|i| held(s, i).saturating_sub(shares[i as usize * m + s]))
                    .sum::<u64>();
            }
            prop_assert_eq!(outflow, expect_outflow);
            // The write-back listed the members it spilled; the rows
            // built spilled were never listed.
            let built_inline = |i: usize| !rows[i].1 && rows[i].0.len() <= crate::sparse::INLINE;
            let mut fresh: Vec<usize> = (0..m).filter(|&i| !procs[i].inline() && built_inline(i)).collect();
            let mut listed: Vec<usize> = spilled.iter().map(|&i| i as usize).collect();
            fresh.sort_unstable();
            listed.sort_unstable();
            prop_assert_eq!(listed, fresh);
            procs.iter_mut().for_each(|p| { p.free_rows(); });
        }

        /// The lag under maximal conflict: depth 8 on 3–12 processors,
        /// where most events find themselves a waiting member.  Step for
        /// step the lagged cluster equals the dense oracle on loads,
        /// metrics and every `d`/`b` entry, and its depth-0 twin — whose
        /// ChaCha stream, unlike the oracle's, is in reach — on the next
        /// RNG draw and on the captured trace bytes.
        #[test]
        fn lagged_execution_matches_reference_and_depth_zero(
            n in 3usize..=12,
            delta_pick in 0usize..64,
            c_idx in 0usize..3,
            active_input in proptest::any::<bool>(),
            masked in proptest::any::<bool>(),
            initial in 0u64..3,
            seed in 0u64..1_000_000,
        ) {
            use crate::reference::RefCluster;
            use proptest::prop_assert_eq;
            let delta = 1 + delta_pick % (n - 1);
            let params = Params::new(n, delta, 1.2, [0usize, 2, 4][c_idx]).unwrap();
            let initial = initial * 5;
            let mut late = lagged(params, seed, initial);
            let mut plain = Cluster::with_initial_load(params, seed, initial);
            let mut oracle = RefCluster::with_initial_load(params, seed, initial);
            let (late_buf, plain_buf) = (dlb_trace::BufferSink::new(), dlb_trace::BufferSink::new());
            late.set_trace_sink(late_buf.handle());
            plain.set_trace_sink(plain_buf.handle());
            let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            let mut mask_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
            let mut down = vec![false; n];
            for t in 0..60 {
                if masked && t % 7 == 0 {
                    down.iter_mut().for_each(|f| *f = mask_rng.gen_bool(0.25));
                }
                let dense = random_events(&mut ev_rng, n, 0.5, 0.35);
                let active: Vec<(usize, LoadEvent)> = dense
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, ev)| ev != LoadEvent::Idle || seed % 2 == 0)
                    .collect();
                let events = if active_input {
                    Events::Active(&active)
                } else {
                    Events::Dense(&dense)
                };
                late.step_events(events, masked.then_some(&down));
                plain.step_events(events, masked.then_some(&down));
                // The oracle has no mask: a crashed processor idles.
                let up: Vec<LoadEvent> = dense
                    .iter()
                    .zip(&down)
                    .map(|(&ev, &d)| if d { LoadEvent::Idle } else { ev })
                    .collect();
                oracle.step(&up);
                prop_assert_eq!(late.loads(), oracle.loads(), "loads at step {}", t);
                prop_assert_eq!(late.metrics(), oracle.metrics(), "metrics at step {}", t);
                for i in 0..n {
                    for c in 0..n {
                        prop_assert_eq!(late.d(i, c), oracle.d(i, c), "d[{}][{}] at step {}", i, c, t);
                        prop_assert_eq!(late.b(i, c), oracle.b(i, c), "b[{}][{}] at step {}", i, c, t);
                    }
                }
                prop_assert_eq!(
                    late.rng.get_word_pos(),
                    plain.rng.get_word_pos(),
                    "next draw at step {}",
                    t
                );
                prop_assert_eq!(late.load_summary(), plain.load_summary());
            }
            late.check_invariants().map_err(proptest::TestCaseError::fail)?;
            prop_assert_eq!(trace_text(&late_buf.take()), trace_text(&plain_buf.take()));
        }
    }
}
