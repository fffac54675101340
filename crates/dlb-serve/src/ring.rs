//! A bounded lock-free single-producer single-consumer ring.
//!
//! No serving driver uses it.  It is kept only because the benchmark's
//! `serve.ring_ns_per_op` micro-loop measures it, and goes with that
//! metric.
//!
//! [`SpscRing`] — a fixed-capacity array of slots with monotonically
//! increasing positions (wrap = `pos & mask`).  Push and pop are one
//! load + one store of the opposite index each; no CAS, no lock.
//! `try_push` fails fast when full instead of blocking.
//!
//! # Safety contract
//!
//! The type is `Sync` so rings can sit in a shared arena, but its
//! safety relies on the caller upholding the
//! single-producer/single-consumer discipline: one thread pushes, one
//! thread pops.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A bounded single-producer single-consumer ring.
///
/// Capacity is rounded up to a power of two.  `head` is the consumer
/// position, `tail` the producer position; both only ever increase, and
/// `tail - head` is the occupancy.
pub struct SpscRing<T> {
    mask: usize,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer position (next slot to pop).
    head: AtomicUsize,
    /// Producer position (next slot to fill).
    tail: AtomicUsize,
}

// SAFETY: slots are only touched by the unique producer (between
// reserving and publishing `tail`) and the unique consumer (between
// observing `tail` and publishing `head`); the release/acquire pair on
// `tail` (push → pop) and `head` (pop → push) orders the data accesses.
// Driven across threads by `spsc_transfers_everything_in_order_across_threads`.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// A ring holding at least `cap` items (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        SpscRing {
            mask: cap - 1,
            buf: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Slot count.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Current occupancy: a snapshot, which the other side may change
    /// at once (the producer can only see it shrink, the consumer only
    /// grow).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }

    /// Whether the ring is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: appends `v`, or returns it when the ring is full.
    ///
    /// Must only be called from the ring's unique producer thread.
    pub fn try_push(&self, v: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.mask {
            return Err(v);
        }
        // SAFETY: the slot at `tail` is outside the live [head, tail)
        // window, so the consumer cannot be reading it; we are the only
        // producer, so nobody else is writing it.  Wrapping driven by
        // `a_capacity_two_ring_wraps_full_for_several_laps`.
        unsafe { (*self.buf[tail & self.mask].get()).write(v) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: removes the oldest item, if any.
    ///
    /// Must only be called from the ring's unique consumer thread.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head < tail` means the slot was fully written before
        // the producer's release-store of `tail`, which our acquire-load
        // observed; publishing `head` afterwards hands the slot back.
        // Wrapping driven by `a_capacity_two_ring_wraps_full_for_several_laps`.
        let v = unsafe { (*self.buf[head & self.mask].get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // &mut self: no concurrent access remains; drain to run drops.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spsc_fifo_and_full_empty_edges() {
        let r: SpscRing<u64> = SpscRing::with_capacity(4);
        assert_eq!(r.capacity(), 4);
        assert!(r.is_empty());
        assert_eq!(r.pop(), None);
        for v in 0..4u64 {
            assert!(r.try_push(v).is_ok());
        }
        assert_eq!(r.try_push(99), Err(99), "full ring refuses");
        assert_eq!(r.len(), 4);
        for v in 0..4u64 {
            assert_eq!(r.pop(), Some(v), "FIFO order");
        }
        assert_eq!(r.pop(), None);
        // Wrap around a few laps.
        for lap in 0..10u64 {
            assert!(r.try_push(lap).is_ok());
            assert_eq!(r.pop(), Some(lap));
        }
    }

    /// The smallest ring filled on every lap and drained either to empty
    /// or to one item, so that it is full with `head` on either slot, and
    /// dropped holding an item that wrapped.
    #[test]
    fn a_capacity_two_ring_wraps_full_for_several_laps() {
        let payload = Arc::new(0u64);
        let r: SpscRing<(u64, Arc<u64>)> = SpscRing::with_capacity(1);
        assert_eq!(r.capacity(), 2);
        let (mut pushed, mut popped) = (0u64, 0u64);
        for lap in 0..10 {
            while r.try_push((pushed, Arc::clone(&payload))).is_ok() {
                pushed += 1;
            }
            assert_eq!(r.len(), 2, "lap {lap}");
            while r.len() > lap % 2 {
                assert_eq!(r.pop().map(|(v, _)| v), Some(popped), "lap {lap}");
                popped += 1;
            }
        }
        assert_eq!((pushed, popped), (16, 15));
        assert_eq!(Arc::strong_count(&payload), 2);
        drop(r);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn spsc_transfers_everything_in_order_across_threads() {
        const N: u64 = 100_000;
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::with_capacity(64));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for v in 0..N {
                    let mut item = v;
                    loop {
                        match ring.try_push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                item = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            })
        };
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = ring.pop() {
                assert_eq!(v, expected, "SPSC must preserve order");
                expected += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().expect("producer");
        assert!(ring.is_empty());
    }

    #[test]
    fn drop_releases_queued_items() {
        // `Arc` payloads: leaked slots would show as a refcount leak.
        let payload = Arc::new(42u64);
        {
            let r: SpscRing<Arc<u64>> = SpscRing::with_capacity(8);
            for _ in 0..5 {
                r.try_push(Arc::clone(&payload)).expect("space");
            }
            assert_eq!(Arc::strong_count(&payload), 6);
        }
        assert_eq!(Arc::strong_count(&payload), 1, "SpscRing dropped items");
    }
}
