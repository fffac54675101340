//! One audited allocation: `n` all-zero values in memory the kernel
//! handed out zeroed, on 2 MiB pages where there are enough of them.
//!
//! At n = 2²⁰ the full model's records are 128 MiB.  On 4 KiB pages
//! their first touch is ~32 k minor faults, and each record a balancing
//! operation reads at random is a TLB miss as well as a cache miss
//! (DESIGN.md §11).  And a fresh anonymous page is zero already: a fill
//! that writes zeros over it writes every byte twice, once by the kernel
//! when the fill faults the page in and once by the fill.
//!
//! [`Zeroed`] owns `len` values of a type whose all-zero bytes are a
//! value ([`Zeroable`]) and builds them by writing nothing.  When they
//! span at least one huge page (Linux on x86-64 or aarch64) they are a
//! private anonymous mapping, advised onto transparent huge pages before
//! anything touches it: under THP `madvise` or `always` mode each 2 MiB
//! page is zeroed once, by the kernel, at the first write to a value in
//! it (under `never`, 4 KiB at a time).  Smaller, or on another target,
//! they come from the heap's `alloc_zeroed`: one `mmap`, fault and
//! `munmap` per small cluster cost more than the fill they save.
//! Either way they are one `&[T]`; the source is a function of the
//! length, read only when the values are freed.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// A transparent huge page on x86-64 and on 4 KiB-granule aarch64.
const HUGE_PAGE: usize = 2 << 20;

/// Whether `bytes` of values are mapped; else they are on the heap.
fn mapped(bytes: usize) -> bool {
    sys::MAPS && bytes >= HUGE_PAGE
}

/// A type whose all-zero bytes are a valid value of it.
///
/// # Safety
///
/// Every field, at every depth, must accept all-zero bytes: integers,
/// arrays of them, and enums whose tag 0 names such a variant.  No
/// reference, `Box`, `NonZero*` or other non-null field may be reachable
/// from tag 0.
#[allow(unsafe_code)]
pub unsafe trait Zeroable {}

// SAFETY: every bit pattern is a `u32`, zero among them.  Driven by
// `the_bytes_are_zero_either_side_of_a_huge_page` and every sparse
// workload, whose per-processor state starts at 0.
#[allow(unsafe_code)]
unsafe impl Zeroable for u32 {}

/// `len` values, each all zero bytes when built, that dereference to
/// one `[T]`.  From one 2 MiB huge page of bytes up (Linux on x86-64 or
/// aarch64) they are an anonymous mapping advised onto huge pages, each
/// zeroed by the kernel at its first write; smaller, they come from
/// `alloc_zeroed`.
pub struct Zeroed<T> {
    /// Aligned for `T` and non-null; dangling when the values take no
    /// bytes.
    ptr: NonNull<T>,
    len: usize,
}

impl<T: Zeroable> Zeroed<T> {
    /// `len` all-zero values.
    ///
    /// # Panics
    ///
    /// Panics if `len` values exceed `isize::MAX` bytes, and aborts
    /// through [`handle_alloc_error`] if the memory cannot be had.
    #[allow(unsafe_code)]
    pub fn new(len: usize) -> Self {
        const {
            assert!(
                !std::mem::needs_drop::<T>(),
                "freeing the values reads none of them"
            );
            assert!(
                std::mem::align_of::<T>() <= 4096,
                "a mapping is page-aligned"
            );
        }
        let layout = Self::layout(len);
        if layout.size() == 0 {
            return Zeroed {
                ptr: NonNull::dangling(),
                len,
            };
        }
        let base = if mapped(layout.size()) {
            sys::map(layout.size())
        } else {
            // SAFETY: `layout` has a non-zero size.  Driven below one
            // huge page by `a_zeroed_record_is_an_empty_processor` and
            // `the_bytes_are_zero_either_side_of_a_huge_page`.
            unsafe { alloc_zeroed(layout) }
        };
        let ptr = NonNull::new(base.cast::<T>()).unwrap_or_else(|| handle_alloc_error(layout));
        Zeroed { ptr, len }
    }
}

impl<T> Zeroed<T> {
    /// The layout of `len` values: the same in `new` and `drop`, so the
    /// two agree on the source.
    fn layout(len: usize) -> Layout {
        Layout::array::<T>(len).expect("the values fit in isize::MAX bytes")
    }
}

impl<T> Deref for Zeroed<T> {
    type Target = [T];

    #[inline(always)]
    #[allow(unsafe_code)]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is non-null, aligned for `T` and heads `len`
        // initialised values — zero bytes, a `T` by `Zeroable`, or what
        // was written through `deref_mut` since — that `self` owns until
        // `drop`; `&self` lends them shared.  Driven by every test that
        // reads a `Cluster`'s records or a sparse workload's state.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> DerefMut for Zeroed<T> {
    #[inline(always)]
    #[allow(unsafe_code)]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`; `&mut self` lends them exclusively.
        // Driven by every test that steps a `Cluster` or a sparse
        // workload.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for Zeroed<T> {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        let layout = Self::layout(self.len);
        if layout.size() == 0 {
            return;
        }
        let base = self.ptr.as_ptr().cast::<u8>();
        // SAFETY: `new` took `base` from `sys::map(layout.size())` when
        // `mapped(layout.size())`, else from `alloc_zeroed(layout)`, and
        // `layout` is a function of `len`, which nothing changes; so
        // each branch returns the memory to where it came from, once.
        // The values need no drop (asserted in `new`).  Driven by
        // `a_dropped_mapping_leaves_the_address_space` (mapped; ASan
        // sees neither an `mmap` nor its leak) and, under
        // LeakSanitizer, by every test that drops a small `Cluster`.
        unsafe {
            if mapped(layout.size()) {
                // A failure would leave the range mapped, a leak; with
                // the mapping's own arguments there is none to report.
                let _ = sys::munmap(base.cast(), layout.size());
            } else {
                dealloc(base, layout);
            }
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_long, c_void};

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // The same numbers on both architectures.
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 2;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MADV_HUGEPAGE: c_int = 14;

    pub(super) const MAPS: bool = true;

    /// A fresh private anonymous mapping of `bytes` read-write, zero,
    /// advised onto huge pages and not yet faulted in; null if the
    /// kernel refuses it.
    pub(super) fn map(bytes: usize) -> *mut u8 {
        // SAFETY: a mapping at an address the kernel picks overlaps
        // nothing the program holds.  MADV_HUGEPAGE on the whole of it
        // changes neither its contents nor its protection (the kernel
        // backs the 2 MiB-aligned stretches with huge pages); it is
        // advisory, so its result is ignored.  Driven by
        // `a_dropped_mapping_leaves_the_address_space`, by
        // `a_zeroed_record_is_an_empty_processor` one record past a
        // huge page and by `a_mapped_cluster_crosses_par_map_threads`.
        unsafe {
            let base = mmap(
                std::ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            );
            // MAP_FAILED.
            if base as isize == -1 {
                return std::ptr::null_mut();
            }
            let _ = madvise(base, bytes, MADV_HUGEPAGE);
            base.cast()
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
#[allow(unsafe_code)]
mod sys {
    //! Nothing is mapped on this target: [`super::mapped`] is false.

    pub(super) const MAPS: bool = false;

    pub(super) fn map(_: usize) -> *mut u8 {
        unreachable!("nothing is mapped on this target")
    }

    /// # Safety
    ///
    /// Never called: nothing was mapped.
    pub(super) unsafe fn munmap(_: *mut std::ffi::c_void, _: usize) -> std::ffi::c_int {
        unreachable!("nothing is mapped on this target")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_zero_sized_slices_hold_no_memory() {
        let none = Zeroed::<u32>::new(0);
        assert!(none.is_empty());
        // A zero-sized `T` takes no byte however many there are.
        struct Unit;
        // SAFETY: `Unit` has no bytes, so zero of them is a `Unit`.
        #[allow(unsafe_code)]
        unsafe impl Zeroable for Unit {}
        let units = Zeroed::<Unit>::new(1000);
        assert_eq!(units.len(), 1000);
        assert_eq!(units.as_ptr(), NonNull::<Unit>::dangling().as_ptr());
    }

    /// Either side of the size rule and well past it: every byte is
    /// zero, at both ends and where a 2 MiB boundary falls inside the
    /// values, and every value takes a write.  A mapping starts on a
    /// page, so its boundary is at most a huge page in; the rule is
    /// what `Drop` trusts, checked here for the sizes it splits.
    #[test]
    fn the_bytes_are_zero_either_side_of_a_huge_page() {
        let per_page = HUGE_PAGE / std::mem::size_of::<u32>();
        for len in [1, per_page - 1, per_page, per_page + 1, 3 * per_page + 5] {
            assert_eq!(mapped(len * 4), sys::MAPS && len >= per_page, "len {len}");
            let mut v = Zeroed::<u32>::new(len);
            assert_eq!(v.len(), len);
            let addr = v.as_ptr() as usize;
            let boundary = (addr + HUGE_PAGE - 1) & !(HUGE_PAGE - 1);
            let mut probe = vec![0, len / 2, len - 1];
            if boundary < addr + 4 * len {
                let at = (boundary - addr) / 4;
                probe.extend([at.saturating_sub(1), at, (at + 1).min(len - 1)]);
            }
            for i in probe {
                assert_eq!(v[i], 0, "len {len}, value {i}");
            }
            assert!(v.iter().all(|&x| x == 0), "len {len}");
            let word = |i: usize| u32::try_from(i).expect("under 2³²") ^ 0x9E37_79B9;
            for (i, x) in v.iter_mut().enumerate() {
                *x = word(i);
            }
            assert!(v.iter().enumerate().all(|(i, &x)| x == word(i)));
        }
    }

    #[test]
    fn the_base_is_aligned_for_the_type_and_the_length_exact() {
        #[repr(C, align(128))]
        struct Record([u64; 16]);
        // SAFETY: an array of integers.
        #[allow(unsafe_code)]
        unsafe impl Zeroable for Record {}
        let per_page = HUGE_PAGE / 128;
        for len in [1, 3, per_page - 1, per_page + 1] {
            let v = Zeroed::<Record>::new(len);
            assert_eq!(v.as_ptr() as usize % 128, 0, "len {len}");
            assert_eq!((v.len(), std::mem::size_of_val(&*v)), (len, 128 * len));
            assert!(v.iter().all(|r| r.0 == [0; 16]));
        }
    }
}
