//! Compressed per-processor class state.
//!
//! The paper's virtual-class machinery is naturally sparse: at any moment
//! a processor holds packets (and markers) of few classes — its own plus
//! whatever balancing brought in — while the dense `d`/`b` matrices are
//! `n × n`.  A [`SparseRow`] stores one processor's row as a sorted list
//! of active class ids with parallel values, so a full-model
//! cluster costs O(Σ active classes) memory instead of O(n²) and every
//! row operation costs O(active) or O(log active) instead of O(n).  This
//! is what lets [`crate::Cluster`] simulate n ≥ 2¹⁸ processors (see
//! `BENCH_core.json`'s `large` rows); the naive dense original in
//! [`crate::reference`] is the bit-identity oracle at small sizes.
//!
//! # Representation
//!
//! A row of at most `INLINE` entries lives *in place*: the 32-byte
//! `SparseRow` itself holds the keys and values, so a processor whose
//! rows are that short — the common case at large n, where a processor
//! holds its own class plus at most one visitor — owns no heap block
//! and reading its row is reading its record.  The first insert past
//! `INLINE` *spills* the row into one heap block holding both arrays —
//! `cap` value slots followed by `cap` key slots — which doubles when
//! full.  One block, not a vector per array: a spilled row is one
//! pointer away from its record and its keys sit next to its values,
//! which at n ≥ 2¹⁶, where every hop is a cache miss, is worth ~20 % of
//! a §7-workload step over a boxed pair of vectors.  A spilled row
//! stays spilled when it shrinks, keeping its capacity the way
//! `Vec::clear` does — a balance operation rewrites every member row
//! (`SparseRow::assign`), and a wide row that bounced between the two
//! forms would allocate on every rewrite.  Which form a row is in is
//! invisible from outside: `SparseRow::keys`/`SparseRow::vals` hand
//! out slices either way and `==` compares entries.
//!
//! Invariants (checked by [`crate::Cluster::check_invariants`] and the
//! debug assertions here):
//!
//! * `keys` is strictly ascending;
//! * `vals[k] > 0` for every entry — a value reaching zero removes its
//!   key, so `keys` *is* the active-class set;
//! * `keys.len() == vals.len()`.

/// Entries a row keeps in place before it spills to the heap.  Two is
/// what fits beside the tag in 32 bytes, and with it both rows of a
/// processor fit its 128-byte record (see `cluster.rs`).
pub(crate) const INLINE: usize = 2;

/// Class `c` as a row key, or a row length (at most one entry per
/// class) as its 32-bit field.  Classes are processor indices below the
/// cluster's `n`, which [`crate::Cluster`] checks fits 32 bits.
#[inline(always)]
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn key(c: usize) -> u32 {
    debug_assert!(u32::try_from(c).is_ok(), "class {c} has no 32-bit key");
    c as u32
}

/// `repr(u8)` with `Inline = 0` makes all-zero bytes an empty row in
/// place: the tag selects `Inline`, and `len`, `keys` and `vals` are
/// zero.  That is what lets [`crate::Cluster`] take its records from
/// memory the kernel zeroed (`pages.rs`, `Zeroable`).
#[derive(Clone)]
#[repr(u8)]
enum Repr {
    /// The first `len` slots are the row; the rest are stale.
    Inline {
        len: u8,
        keys: [u32; INLINE],
        vals: [u64; INLINE],
    } = 0,
    /// A spilled row: `block` is `cap` value slots followed by `cap`
    /// key slots packed two to a word (see [`split`]), of which the
    /// first `len` of each are the row.  `cap` is even.
    Heap {
        len: u32,
        cap: u32,
        block: Box<[u64]>,
    },
}

/// Splits a spilled row's block into its `cap` value slots and `cap`
/// key slots.
#[inline]
#[allow(unsafe_code)]
fn split(block: &[u64], cap: usize) -> (&[u64], &[u32]) {
    debug_assert_eq!(block.len(), cap + cap / 2);
    let (vals, packed) = block.split_at(cap);
    // SAFETY: `packed` is `packed.len()` initialised, 8-aligned words
    // borrowed for the returned lifetime, so the same bytes are
    // `2 · packed.len()` u32s: u32 needs only 4-byte alignment and
    // every bit pattern is a valid u32.  Edges driven by
    // `views_at_the_smallest_capacity_and_a_full_row`.
    let keys = unsafe { std::slice::from_raw_parts(packed.as_ptr().cast(), 2 * packed.len()) };
    (vals, keys)
}

/// [`split`] for writing.
#[inline]
#[allow(unsafe_code)]
fn split_mut(block: &mut [u64], cap: usize) -> (&mut [u64], &mut [u32]) {
    debug_assert_eq!(block.len(), cap + cap / 2);
    let (vals, packed) = block.split_at_mut(cap);
    // SAFETY: as in `split`; `packed` is borrowed mutably and not used
    // again, so the returned slice is the only path to these bytes, and
    // any u32 written leaves the words initialised.  Edges driven by
    // `views_at_the_smallest_capacity_and_a_full_row`.
    let keys =
        unsafe { std::slice::from_raw_parts_mut(packed.as_mut_ptr().cast(), 2 * packed.len()) };
    (vals, keys)
}

/// Opens slot `pos` among the first `n` entries and writes `(c, v)`.
#[inline]
fn shift_in(keys: &mut [u32], vals: &mut [u64], n: usize, pos: usize, c: u32, v: u64) {
    // An append moves nothing: skip the two zero-length `memmove` calls.
    if pos < n {
        keys.copy_within(pos..n, pos + 1);
        vals.copy_within(pos..n, pos + 1);
    }
    keys[pos] = c;
    vals[pos] = v;
}

/// Closes slot `pos` among the first `n` entries, returning its value.
#[inline]
fn shift_out(keys: &mut [u32], vals: &mut [u64], n: usize, pos: usize) -> u64 {
    let v = vals[pos];
    keys.copy_within(pos + 1..n, pos);
    vals.copy_within(pos + 1..n, pos);
    v
}

/// One processor's sparse class row: sorted active class ids with
/// parallel values, in place up to `INLINE` entries and on the heap
/// beyond (see the module docs).  Absent keys read as zero.
#[derive(Clone)]
pub struct SparseRow(Repr);

const _: () = assert!(std::mem::size_of::<SparseRow>() <= 32 && INLINE & 1 == 0);

impl Default for SparseRow {
    fn default() -> Self {
        SparseRow(Repr::Inline {
            len: 0,
            keys: [0; INLINE],
            vals: [0; INLINE],
        })
    }
}

/// Rows are equal when they hold the same entries, whichever form each
/// is in.
impl PartialEq for SparseRow {
    fn eq(&self, other: &Self) -> bool {
        self.keys() == other.keys() && self.vals() == other.vals()
    }
}

impl Eq for SparseRow {}

impl std::fmt::Debug for SparseRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl SparseRow {
    /// An empty row (all classes zero).
    pub(crate) fn new() -> Self {
        SparseRow::default()
    }

    #[cfg(test)]
    /// A row holding `v` units of class `c` (empty when `v == 0`).
    pub(crate) fn with_entry(c: u32, v: u64) -> Self {
        let mut row = SparseRow::default();
        if v > 0 {
            row.push(c, v);
        }
        row
    }

    /// Whether the row lives in place, owning no heap block.
    #[inline]
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Number of active (nonzero) classes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap { len, .. } => *len as usize,
        }
    }

    /// Whether every class is zero.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted active class ids.
    #[inline]
    pub(crate) fn keys(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, keys, .. } => &keys[..*len as usize],
            Repr::Heap { len, cap, block } => &split(block, *cap as usize).1[..*len as usize],
        }
    }

    /// The values parallel to [`SparseRow::keys`].
    #[inline]
    pub(crate) fn vals(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, vals, .. } => &vals[..*len as usize],
            Repr::Heap { len, block, .. } => &block[..*len as usize],
        }
    }

    #[inline]
    fn vals_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::Inline { len, vals, .. } => &mut vals[..*len as usize],
            Repr::Heap { len, block, .. } => &mut block[..*len as usize],
        }
    }

    /// Entries in ascending class order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.keys().iter().copied().zip(self.vals().iter().copied())
    }

    /// Entries the row holds before its next insert must grow it.
    #[inline]
    fn capacity(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => INLINE,
            Repr::Heap { cap, .. } => *cap as usize,
        }
    }

    /// Moves the row into a fresh block of `cap` slots, a power of two
    /// above `INLINE` (so `cap` is even, and a row that doubles when
    /// full and one that is assigned its entries in bulk reserve the
    /// same).
    #[cold]
    fn grow_to(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap > self.capacity());
        let n = self.len();
        let mut block = vec![0u64; cap + cap / 2].into_boxed_slice();
        let (vals, keys) = split_mut(&mut block, cap);
        keys[..n].copy_from_slice(self.keys());
        vals[..n].copy_from_slice(self.vals());
        self.0 = Repr::Heap {
            len: key(n),
            cap: u32::try_from(cap).expect("keys are distinct u32s"),
            block,
        };
    }

    /// Inserts the entry `(c, v)` at position `pos` of the sorted order.
    #[inline]
    fn insert_at(&mut self, pos: usize, c: u32, v: u64) {
        if self.len() == self.capacity() {
            self.grow_to(2 * self.capacity());
        }
        match &mut self.0 {
            Repr::Inline { len, keys, vals } => {
                shift_in(keys, vals, *len as usize, pos, c, v);
                *len += 1;
            }
            Repr::Heap { len, cap, block } => {
                let (vals, keys) = split_mut(block, *cap as usize);
                shift_in(keys, vals, *len as usize, pos, c, v);
                *len += 1;
            }
        }
    }

    /// Removes the entry at position `pos`, returning its value.
    #[inline]
    fn remove_at(&mut self, pos: usize) -> u64 {
        match &mut self.0 {
            Repr::Inline { len, keys, vals } => {
                *len -= 1;
                shift_out(keys, vals, *len as usize + 1, pos)
            }
            Repr::Heap { len, cap, block } => {
                let (vals, keys) = split_mut(block, *cap as usize);
                *len -= 1;
                shift_out(keys, vals, *len as usize + 1, pos)
            }
        }
    }

    /// The value of class `c` (zero when inactive).  O(log active).
    #[inline]
    pub(crate) fn get(&self, c: u32) -> u64 {
        match self.keys().binary_search(&c) {
            Ok(pos) => self.vals()[pos],
            Err(_) => 0,
        }
    }

    /// Adds `x > 0` units to class `c`, activating it if needed.
    #[inline]
    pub(crate) fn add(&mut self, c: u32, x: u64) {
        debug_assert!(x > 0);
        match self.keys().binary_search(&c) {
            Ok(pos) => self.vals_mut()[pos] += x,
            Err(pos) => self.insert_at(pos, c, x),
        }
    }

    /// Removes `x` units from class `c`, deactivating it on zero.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the class holds fewer than `x` units.
    #[inline]
    pub(crate) fn sub(&mut self, c: u32, x: u64) {
        debug_assert!(x > 0);
        let pos = self
            .keys()
            .binary_search(&c)
            .expect("sub from an inactive class");
        let v = &mut self.vals_mut()[pos];
        debug_assert!(*v >= x);
        *v -= x;
        if *v == 0 {
            self.remove_at(pos);
        }
    }

    /// Sets class `c` to `v`, activating or deactivating as needed.
    #[inline]
    pub(crate) fn set(&mut self, c: u32, v: u64) {
        match self.keys().binary_search(&c) {
            Ok(pos) => {
                if v == 0 {
                    self.remove_at(pos);
                } else {
                    self.vals_mut()[pos] = v;
                }
            }
            Err(pos) => {
                if v > 0 {
                    self.insert_at(pos, c, v);
                }
            }
        }
    }

    /// Removes class `c` entirely, returning the units it held.
    #[inline]
    pub(crate) fn take(&mut self, c: u32) -> u64 {
        match self.keys().binary_search(&c) {
            Ok(pos) => self.remove_at(pos),
            Err(_) => 0,
        }
    }

    /// Replaces the row by the entries `keys`/`vals` — strictly
    /// ascending keys, nonzero values — in one copy: a balance
    /// operation's write-back.  A row that must grow gets the capacity
    /// pushing the entries one by one would have given it (the smallest
    /// power of two ≥ the length); a spilled row stays spilled.
    #[inline]
    pub(crate) fn assign(&mut self, keys: &[u32], vals: &[u64]) {
        let n = keys.len();
        debug_assert_eq!(n, vals.len());
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]) && !vals.contains(&0));
        if n > self.capacity() {
            self.grow_to(n.next_power_of_two());
        }
        match &mut self.0 {
            Repr::Inline {
                len,
                keys: k,
                vals: v,
            } => {
                k[..n].copy_from_slice(keys);
                v[..n].copy_from_slice(vals);
                // `n ≤ INLINE` in place.
                #[allow(clippy::cast_possible_truncation)]
                let short = n as u8;
                *len = short;
            }
            Repr::Heap { len, cap, block } => {
                let (v, k) = split_mut(block, *cap as usize);
                k[..n].copy_from_slice(keys);
                v[..n].copy_from_slice(vals);
                *len = key(n);
            }
        }
    }

    /// Appends an entry with `v > 0`; `c` must exceed every present key:
    /// builds a row from an ascending sweep in O(1) per entry.
    #[inline]
    pub(crate) fn push(&mut self, c: u32, v: u64) {
        debug_assert!(v > 0);
        debug_assert!(self.keys().last().is_none_or(|&last| last < c));
        self.insert_at(self.len(), c, v);
    }

    /// Sum of all values.  O(active).
    pub(crate) fn sum(&self) -> u64 {
        self.vals().iter().sum()
    }

    /// Heap bytes currently reserved by this row (capacity, not length —
    /// what the process actually pays); zero while the row is in place.
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Heap { block, .. } => std::mem::size_of_val(&**block),
        }
    }

    /// Verifies the structural invariants, returning the first violation.
    pub(crate) fn check(&self) -> Result<(), String> {
        let (keys, vals) = (self.keys(), self.vals());
        if keys.len() != vals.len() {
            return Err(format!(
                "key/value length mismatch: {} != {}",
                keys.len(),
                vals.len()
            ));
        }
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err("keys not strictly sorted".into());
        }
        if vals.contains(&0) {
            return Err("row holds a zero entry".into());
        }
        Ok(())
    }

    /// Densifies into a length-`n` vector (test/snapshot helper; O(n)).
    pub(crate) fn to_dense(&self, n: usize) -> Vec<u64> {
        let mut row = vec![0u64; n];
        for (c, v) in self.iter() {
            row[c as usize] = v;
        }
        row
    }
}

/// Number of keys present in `a` but absent from `b` (both sorted) — the
/// fresh-borrow candidate count, `|a|` less the keys of `b` found in `a`
/// by one binary search each: O(|b| log |a|), and `b` holds at most `C`
/// marker classes.
pub(crate) fn count_diff(a: &[u32], b: &[u32]) -> usize {
    a.len() - b.iter().filter(|k| a.binary_search(k).is_ok()).count()
}

/// The `pick`-th key (ascending) present in `a` but absent from `b`:
/// `a[pick + s]`, `s` the keys of `b` found in `a` at or before that
/// entry, which their ascending positions count one by one.
pub(crate) fn nth_diff(a: &[u32], b: &[u32], pick: usize) -> Option<u32> {
    let mut at = pick;
    for p in b.iter().filter_map(|k| a.binary_search(k).ok()) {
        if p <= at {
            at += 1;
        } else {
            break;
        }
    }
    a.get(at).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn add_sub_set_roundtrip() {
        let mut row = SparseRow::new();
        row.add(5, 3);
        row.add(2, 1);
        row.add(5, 2);
        assert_eq!(row.get(5), 5);
        assert_eq!(row.get(2), 1);
        assert_eq!(row.get(7), 0);
        assert_eq!(row.keys(), &[2, 5]);
        row.sub(5, 5);
        assert_eq!(row.get(5), 0);
        assert_eq!(row.keys(), &[2]);
        row.set(9, 4);
        row.set(2, 0);
        assert_eq!(row.keys(), &[9]);
        assert_eq!(row.sum(), 4);
        row.check().unwrap();
    }

    #[test]
    fn take_and_push_maintain_order() {
        let mut row = SparseRow::with_entry(3, 7);
        assert_eq!(row.take(3), 7);
        assert_eq!(row.take(3), 0);
        row.push(1, 2);
        row.push(8, 1);
        assert_eq!(row.to_dense(10), vec![0, 2, 0, 0, 0, 0, 0, 0, 1, 0]);
        row.check().unwrap();
        row.assign(&[], &[]);
        assert!(row.is_empty());
    }

    /// The row `model` describes, built by appending — in place when it
    /// fits.
    fn row_of(model: &BTreeMap<u32, u64>) -> SparseRow {
        let mut row = SparseRow::new();
        for (&c, &v) in model {
            row.push(c, v);
        }
        row
    }

    proptest! {
        /// The borrow lookups are the dense filter-then-nth: `a` a
        /// strictly ascending row of up to 40 keys below 64, `b` up to 8
        /// keys, each drawn from `a` or from anywhere below 64 (so some
        /// are absent from `a`), every `pick` up to one past the last
        /// candidate.
        #[test]
        fn diff_lookups_match_the_filter(
            a in prop::collection::vec(0u32..64, 0..=40),
            b in prop::collection::vec((any::<bool>(), 0u32..64, any::<usize>()), 0..=8),
        ) {
            let mut a = a;
            a.sort_unstable();
            a.dedup();
            let mut b: Vec<u32> = b
                .into_iter()
                .map(|(held, k, at)| if held && !a.is_empty() { a[at % a.len()] } else { k })
                .collect();
            b.sort_unstable();
            b.dedup();
            let kept: Vec<u32> = a.iter().copied().filter(|k| !b.contains(k)).collect();
            prop_assert_eq!(count_diff(&a, &b), kept.len());
            for pick in 0..=kept.len() {
                prop_assert_eq!(nth_diff(&a, &b, pick), kept.get(pick).copied());
            }
        }

        /// Model-based: any sequence of the public operations leaves the
        /// row holding exactly what a `BTreeMap` holds.  Eight keys keep
        /// the length wandering through `INLINE − 1 ..= INLINE + 2` in
        /// both directions, so rows spill, shrink while spilled, empty
        /// and refill; a bulk `assign` replaces the row by the keys of a
        /// bit mask, none included.  Equality is by content: the row
        /// equals a fresh one with the same entries and one that was
        /// forced to spill — and reserves what appending would have.
        #[test]
        fn any_operation_sequence_matches_a_btreemap(
            ops in prop::collection::vec((0u8..8, 0u32..8, 0u64..4, any::<u8>()), 0..120),
        ) {
            let mut row = SparseRow::new();
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            // The capacity pushing every row so far entry by entry
            // reserves: it doubles from `INLINE` and never shrinks.
            let mut pushed_cap = INLINE;
            for (op, c, x, mask) in ops {
                let held = model.get(&c).copied().unwrap_or(0);
                let top = model.keys().next_back().copied();
                match op {
                    0 | 1 => {
                        row.add(c, x + 1);
                        *model.entry(c).or_insert(0) += x + 1;
                    }
                    2 if held > 0 => {
                        let x = 1 + x % held;
                        row.sub(c, x);
                        if held == x {
                            model.remove(&c);
                        } else {
                            model.insert(c, held - x);
                        }
                    }
                    3 => {
                        row.set(c, x);
                        if x == 0 {
                            model.remove(&c);
                        } else {
                            model.insert(c, x);
                        }
                    }
                    4 => prop_assert_eq!(row.take(c), model.remove(&c).unwrap_or(0)),
                    5 if top.is_none_or(|t| t < c) => {
                        row.push(c, x + 1);
                        model.insert(c, x + 1);
                    }
                    6 => {
                        let keys: Vec<u32> = (0..8).filter(|k| mask >> k & 1 == 1).collect();
                        let vals = vec![x + 1; keys.len()];
                        row.assign(&keys, &vals);
                        model = keys.into_iter().zip(vals).collect();
                    }
                    _ => {}
                }
                while pushed_cap < model.len() {
                    pushed_cap *= 2;
                }
                let reserved = if pushed_cap == INLINE { 0 } else { 12 * pushed_cap };
                prop_assert_eq!(row.heap_bytes(), reserved);
                prop_assert_eq!(row.check(), Ok(()));
                prop_assert_eq!(row.keys(), model.keys().copied().collect::<Vec<_>>());
                prop_assert_eq!(row.vals(), model.values().copied().collect::<Vec<_>>());
                prop_assert_eq!(row.len(), model.len());
                prop_assert_eq!(row.is_empty(), model.is_empty());
                prop_assert_eq!(row.sum(), model.values().sum::<u64>());
                for k in 0..9 {
                    prop_assert_eq!(row.get(k), model.get(&k).copied().unwrap_or(0));
                }
                let fresh = row_of(&model);
                prop_assert_eq!(fresh.heap_bytes() == 0, model.len() <= INLINE);
                let mut spilled = fresh.clone();
                for k in 0..=key(INLINE) {
                    spilled.push(100 + k, 1);
                }
                for k in 0..=key(INLINE) {
                    spilled.take(100 + k);
                }
                prop_assert!(spilled.heap_bytes() > 0);
                prop_assert_eq!(&row, &fresh);
                prop_assert_eq!(&row, &spilled);
                prop_assert_eq!(&fresh, &spilled);
            }
        }
    }

    /// `split`/`split_mut` at the smallest spilled capacity, every slot
    /// written through one view and read back through the other, and a
    /// row at exactly its capacity, whose last key is the block's last
    /// half-word, before and after it grows.
    #[test]
    fn views_at_the_smallest_capacity_and_a_full_row() {
        let cap = 2 * INLINE;
        let mut block = vec![0u64; cap + cap / 2];
        let (vals, keys) = split_mut(&mut block, cap);
        assert_eq!((vals.len(), keys.len()), (cap, cap));
        for (i, (v, k)) in vals.iter_mut().zip(keys.iter_mut()).enumerate() {
            *v = 10 + i as u64;
            *k = u32::MAX - key(i);
        }
        let (vals, keys) = split(&block, cap);
        assert!(vals.iter().copied().eq((0..cap).map(|i| 10 + i as u64)));
        assert!(keys.iter().copied().eq((0..cap).map(|i| u32::MAX - key(i))));

        let mut row = SparseRow::new();
        for c in 0..key(cap) {
            row.push(c, u64::from(c) + 1);
        }
        assert_eq!((row.len(), row.capacity()), (cap, cap));
        assert!(row.keys().iter().copied().eq(0..key(cap)));
        assert_eq!(row.get(key(cap) - 1), u64::from(key(cap)));
        assert_eq!(row.take(key(cap) - 1), u64::from(key(cap)));
        row.push(key(cap) - 1, 7);
        row.push(key(cap), 9);
        assert_eq!((row.len(), row.capacity()), (cap + 1, 2 * cap));
        assert!(row.keys().iter().copied().eq(0..=key(cap)));
        assert_eq!(&row.vals()[cap - 1..], [7, 9]);
        row.check().unwrap();
    }

    #[test]
    fn dense_conversion_and_zero_entry() {
        let row = SparseRow::with_entry(0, 0);
        assert!(row.is_empty());
        let row = SparseRow::with_entry(2, 9);
        assert_eq!(row.to_dense(3), vec![0, 0, 9]);
        assert_eq!(row.heap_bytes() % 4, 0);
    }
}
