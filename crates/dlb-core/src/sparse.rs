//! Compressed per-processor class state.
//!
//! The paper's virtual-class machinery is naturally sparse: at any moment
//! a processor holds packets (and markers) of few classes — its own plus
//! whatever balancing brought in — while the dense `d`/`b` matrices are
//! `n × n`.  A [`SparseRow`] stores one processor's row as a sorted list
//! of active class ids with a parallel value arena, so a full-model
//! cluster costs O(Σ active classes) memory instead of O(n²) and every
//! row operation costs O(active) or O(log active) instead of O(n).  This
//! is what lets [`crate::Cluster`] simulate n ≥ 2¹⁸ processors (see
//! `BENCH_core.json`'s `large` rows); the naive dense original in
//! [`crate::reference`] is the bit-identity oracle at small sizes.
//!
//! Invariants (checked by [`crate::Cluster::check_invariants`] and the
//! debug assertions here):
//!
//! * `keys` is strictly ascending;
//! * `vals[k] > 0` for every entry — a value reaching zero removes its
//!   key, so `keys` *is* the active-class set;
//! * `keys.len() == vals.len()`.

/// One processor's sparse class row: sorted active class ids plus a
/// parallel growable value arena.  Absent keys read as zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseRow {
    /// Strictly ascending active class ids.
    keys: Vec<u32>,
    /// `vals[k]` is the value of class `keys[k]`; always positive.
    vals: Vec<u64>,
}

impl SparseRow {
    /// An empty row (all classes zero).
    pub fn new() -> Self {
        SparseRow::default()
    }

    /// A row holding `v` units of class `c` (empty when `v == 0`).
    pub fn with_entry(c: u32, v: u64) -> Self {
        if v == 0 {
            SparseRow::default()
        } else {
            SparseRow {
                keys: vec![c],
                vals: vec![v],
            }
        }
    }

    /// Number of active (nonzero) classes.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether every class is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sorted active class ids.
    #[inline]
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// The values parallel to [`SparseRow::keys`].
    #[inline]
    pub fn vals(&self) -> &[u64] {
        &self.vals
    }

    /// Entries in ascending class order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.keys.iter().copied().zip(self.vals.iter().copied())
    }

    /// The value of class `c` (zero when inactive).  O(log active).
    #[inline]
    pub fn get(&self, c: u32) -> u64 {
        match self.keys.binary_search(&c) {
            Ok(pos) => self.vals[pos],
            Err(_) => 0,
        }
    }

    /// Adds `x > 0` units to class `c`, activating it if needed.
    #[inline]
    pub fn add(&mut self, c: u32, x: u64) {
        debug_assert!(x > 0);
        match self.keys.binary_search(&c) {
            Ok(pos) => self.vals[pos] += x,
            Err(pos) => {
                self.keys.insert(pos, c);
                self.vals.insert(pos, x);
            }
        }
    }

    /// Removes `x` units from class `c`, deactivating it on zero.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the class holds fewer than `x` units.
    #[inline]
    pub fn sub(&mut self, c: u32, x: u64) {
        debug_assert!(x > 0);
        let pos = self
            .keys
            .binary_search(&c)
            .expect("sub from an inactive class");
        debug_assert!(self.vals[pos] >= x);
        self.vals[pos] -= x;
        if self.vals[pos] == 0 {
            self.keys.remove(pos);
            self.vals.remove(pos);
        }
    }

    /// Sets class `c` to `v`, activating or deactivating as needed.
    #[inline]
    pub fn set(&mut self, c: u32, v: u64) {
        match self.keys.binary_search(&c) {
            Ok(pos) => {
                if v == 0 {
                    self.keys.remove(pos);
                    self.vals.remove(pos);
                } else {
                    self.vals[pos] = v;
                }
            }
            Err(pos) => {
                if v > 0 {
                    self.keys.insert(pos, c);
                    self.vals.insert(pos, v);
                }
            }
        }
    }

    /// Removes class `c` entirely, returning the units it held.
    #[inline]
    pub fn take(&mut self, c: u32) -> u64 {
        match self.keys.binary_search(&c) {
            Ok(pos) => {
                self.keys.remove(pos);
                self.vals.remove(pos)
            }
            Err(_) => 0,
        }
    }

    /// Deactivates every class (capacity retained for reuse).
    #[inline]
    pub fn clear(&mut self) {
        self.keys.clear();
        self.vals.clear();
    }

    /// Appends an entry with `v > 0`; `c` must exceed every present key.
    /// The O(1) rebuild primitive for balance write-backs that walk a
    /// sorted class union.
    #[inline]
    pub fn push(&mut self, c: u32, v: u64) {
        debug_assert!(v > 0);
        debug_assert!(self.keys.last().is_none_or(|&last| last < c));
        self.keys.push(c);
        self.vals.push(v);
    }

    /// Sum of all values.  O(active).
    pub fn sum(&self) -> u64 {
        self.vals.iter().sum()
    }

    /// Heap bytes currently reserved by this row (capacity, not length —
    /// what the process actually pays).
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<u64>()
    }

    /// Verifies the structural invariants, returning the first violation.
    pub fn check(&self) -> Result<(), String> {
        if self.keys.len() != self.vals.len() {
            return Err(format!(
                "key/value length mismatch: {} != {}",
                self.keys.len(),
                self.vals.len()
            ));
        }
        if !self.keys.windows(2).all(|w| w[0] < w[1]) {
            return Err("keys not strictly sorted".into());
        }
        if self.vals.contains(&0) {
            return Err("row holds a zero entry".into());
        }
        Ok(())
    }

    /// Densifies into a length-`n` vector (test/snapshot helper; O(n)).
    pub fn to_dense(&self, n: usize) -> Vec<u64> {
        let mut row = vec![0u64; n];
        for (c, v) in self.iter() {
            row[c as usize] = v;
        }
        row
    }
}

/// Merges sorted `src` into sorted `dst` (set union) using `buf` as
/// scratch.  Linear in `dst.len() + src.len()`.
pub fn merge_sorted_into(dst: &mut Vec<u32>, src: &[u32], buf: &mut Vec<u32>) {
    if src.is_empty() {
        return;
    }
    if dst.is_empty() {
        dst.extend_from_slice(src);
        return;
    }
    buf.clear();
    let (mut a, mut b) = (0usize, 0usize);
    while a < dst.len() && b < src.len() {
        match dst[a].cmp(&src[b]) {
            std::cmp::Ordering::Less => {
                buf.push(dst[a]);
                a += 1;
            }
            std::cmp::Ordering::Greater => {
                buf.push(src[b]);
                b += 1;
            }
            std::cmp::Ordering::Equal => {
                buf.push(dst[a]);
                a += 1;
                b += 1;
            }
        }
    }
    buf.extend_from_slice(&dst[a..]);
    buf.extend_from_slice(&src[b..]);
    std::mem::swap(dst, buf);
}

/// Number of keys present in `a` but absent from `b` (both sorted) — the
/// merge-walk core of the fresh-borrow candidate count, O(|a| + |b|).
pub fn count_diff(a: &[u32], b: &[u32]) -> usize {
    let mut count = 0;
    let mut bi = 0;
    for &k in a {
        while bi < b.len() && b[bi] < k {
            bi += 1;
        }
        if bi >= b.len() || b[bi] != k {
            count += 1;
        }
    }
    count
}

/// The `pick`-th key (ascending) present in `a` but absent from `b`.
pub fn nth_diff(a: &[u32], b: &[u32], pick: usize) -> Option<u32> {
    let mut seen = 0;
    let mut bi = 0;
    for &k in a {
        while bi < b.len() && b[bi] < k {
            bi += 1;
        }
        if bi >= b.len() || b[bi] != k {
            if seen == pick {
                return Some(k);
            }
            seen += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

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
        row.clear();
        assert!(row.is_empty());
    }

    #[test]
    fn diff_walks_match_naive_filter() {
        let a = [1u32, 3, 4, 8, 9];
        let b = [3u32, 5, 9];
        let naive: Vec<u32> = a.iter().copied().filter(|k| !b.contains(k)).collect();
        assert_eq!(count_diff(&a, &b), naive.len());
        for (i, &k) in naive.iter().enumerate() {
            assert_eq!(nth_diff(&a, &b, i), Some(k));
        }
        assert_eq!(nth_diff(&a, &b, naive.len()), None);
        assert_eq!(count_diff(&[], &b), 0);
        assert_eq!(count_diff(&a, &[]), a.len());
    }

    #[test]
    fn merge_union_matches_naive() {
        let mut dst = vec![1u32, 4, 7];
        let mut buf = Vec::new();
        merge_sorted_into(&mut dst, &[2, 4, 9], &mut buf);
        assert_eq!(dst, vec![1, 2, 4, 7, 9]);
        merge_sorted_into(&mut dst, &[], &mut buf);
        assert_eq!(dst, vec![1, 2, 4, 7, 9]);
        let mut empty = Vec::new();
        merge_sorted_into(&mut empty, &[3, 5], &mut buf);
        assert_eq!(empty, vec![3, 5]);
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
