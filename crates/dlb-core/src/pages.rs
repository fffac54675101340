//! Two audited allocation helpers: a vector the kernel may back with
//! 2 MiB pages, and the same vector filled with zero bytes.
//!
//! At n = 2²⁰ the full model's `Vec<Proc>` is 128 MiB.  On 4 KiB pages
//! its first touch is ~32 k minor faults, and each record a balancing
//! operation reads at random is a TLB miss as well as a cache miss
//! (DESIGN.md §11).  [`vec_on_huge_pages`] advises the kernel, once,
//! that the allocation's 2 MiB-aligned interior wants transparent huge
//! pages.  Under THP `madvise` or `always` mode one fault then maps
//! 2 MiB; under `never`, or on another target, nothing changes.  The
//! advice moves no byte of the vector's contents.
//!
//! [`zeroed_on_huge_pages`] is the same allocation for a type whose
//! all-zero bytes are a value ([`Zeroable`]): one `memset` instead of
//! building n values one by one.  At n = 2²⁰ that builds `Cluster`'s
//! 128 MiB of records at memory speed, each one an empty processor.

/// A transparent huge page on x86-64 and on 4 KiB-granule aarch64.
const HUGE_PAGE: usize = 2 << 20;

/// `(start, len)` of the whole huge pages inside the byte range
/// `[addr, addr + bytes)`: `start` rounded up and the end rounded down
/// to [`HUGE_PAGE`], or `None` when no whole huge page fits.
#[cfg_attr(
    not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )),
    allow(dead_code)
)]
fn huge_interior(addr: usize, bytes: usize) -> Option<(usize, usize)> {
    let start = addr.checked_add(HUGE_PAGE - 1)? & !(HUGE_PAGE - 1);
    let end = addr.checked_add(bytes)? & !(HUGE_PAGE - 1);
    (end > start).then(|| (start, end - start))
}

/// `(0..n).map(f).collect()`, into an allocation whose 2 MiB-aligned
/// interior was first advised onto transparent huge pages (Linux on
/// x86-64 or aarch64; elsewhere it is exactly that `collect`).  An
/// allocation holding no whole huge page makes no system call.
///
/// For the per-processor arrays of the n = 2²⁰ path, where it was
/// measured; a smaller vector gains nothing from it.
pub fn vec_on_huge_pages<T>(n: usize, f: impl FnMut(usize) -> T) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    advise_huge_pages(&mut v);
    v.extend((0..n).map(f));
    v
}

/// A type whose all-zero bytes are a valid value of it.  Only
/// `cluster.rs`'s processor record implements it.
///
/// # Safety
///
/// Every field, at every depth, must accept all-zero bytes: integers,
/// arrays of them, and enums whose tag 0 names such a variant.  No
/// reference, `Box`, `NonZero*` or other non-null field may be reachable
/// from tag 0.
#[allow(unsafe_code)]
pub(crate) unsafe trait Zeroable {}

/// `n` all-zero values in one allocation advised like
/// [`vec_on_huge_pages`]'s: one fill, however large `n`.  The fill
/// writes every byte, so the pages are faulted in here, as an
/// element-wise build would.
#[allow(unsafe_code)]
pub(crate) fn zeroed_on_huge_pages<T: Zeroable>(n: usize) -> Vec<T> {
    let mut v = Vec::<T>::with_capacity(n);
    advise_huge_pages(&mut v);
    // SAFETY: `with_capacity(n)` reserved room for `n` values, so the
    // fill stays inside the allocation (a zero-sized `T` writes no
    // byte).  After it every value's bytes are zero, which `T:
    // Zeroable` promises is a valid `T`, so `set_len(n)` exposes only
    // initialised values.  Driven either side of a huge page by
    // `a_zeroed_record_is_an_empty_processor`.
    unsafe {
        v.as_mut_ptr().write_bytes(0, n);
        v.set_len(n);
    }
    v
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
fn advise_huge_pages<T>(v: &mut Vec<T>) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;
    let base = v.as_mut_ptr().cast::<u8>();
    let addr = base as usize;
    let bytes = v.capacity() * std::mem::size_of::<T>();
    if let Some((start, len)) = huge_interior(addr, bytes) {
        let at = base.wrapping_add(start - addr);
        // SAFETY: `[at, at + len)` lies inside the live allocation `v`
        // owns (`huge_interior` only rounds inwards), and MADV_HUGEPAGE
        // changes neither its contents nor its protection.  The advice
        // is advisory, so its result is ignored.  Driven just under and
        // just over one huge page by
        // `the_vector_is_the_plain_collect_either_side_of_a_huge_page`.
        let _ = unsafe { madvise(at.cast(), len, MADV_HUGEPAGE) };
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn advise_huge_pages<T>(_: &mut Vec<T>) {}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    #[test]
    fn a_range_shorter_than_a_huge_page_has_no_interior() {
        assert_eq!(huge_interior(0, HUGE_PAGE - 1), None);
        assert_eq!(huge_interior(4096, MIB), None);
        // Long enough, but straddling a boundary without a whole page.
        assert_eq!(huge_interior(HUGE_PAGE - 4096, HUGE_PAGE), None);
    }

    #[test]
    fn an_unaligned_start_rounds_inwards_at_both_ends() {
        let addr = 3 * HUGE_PAGE + 16;
        assert_eq!(
            huge_interior(addr, 5 * HUGE_PAGE),
            Some((4 * HUGE_PAGE, 4 * HUGE_PAGE))
        );
        // 128 MiB of `Proc` records behind a 16-byte malloc header.
        assert_eq!(
            huge_interior(addr, 128 * MIB),
            Some((4 * HUGE_PAGE, 63 * HUGE_PAGE))
        );
    }

    #[test]
    fn an_aligned_exact_multiple_is_covered_whole() {
        assert_eq!(
            huge_interior(HUGE_PAGE, 3 * HUGE_PAGE),
            Some((HUGE_PAGE, 3 * HUGE_PAGE))
        );
    }

    #[test]
    fn empty_and_zero_sized_vectors_have_no_interior() {
        assert_eq!(huge_interior(HUGE_PAGE, 0), None);
        assert_eq!(huge_interior(usize::MAX - 7, 0), None);
        // A zero-sized `T` reports `usize::MAX` capacity and 0 bytes.
        let v: Vec<()> = vec_on_huge_pages(1000, |_| ());
        assert_eq!(v.len(), 1000);
        assert!(vec_on_huge_pages(0, |i| i).is_empty());
    }

    #[test]
    fn the_vector_is_the_plain_collect_either_side_of_a_huge_page() {
        let item = std::mem::size_of::<u64>();
        for n in [
            1,
            HUGE_PAGE / item - 1,
            HUGE_PAGE / item,
            HUGE_PAGE / item + 1,
            3 * HUGE_PAGE / item + 5,
        ] {
            let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let got = vec_on_huge_pages(n, f);
            assert_eq!(got, (0..n).map(f).collect::<Vec<_>>(), "n = {n}");
        }
    }
}
