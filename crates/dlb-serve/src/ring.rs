//! Bounded lock-free rings for the sharded wall engine.
//!
//! The single-acceptor wall engine (PR 6) kept every shard queue behind
//! a `Mutex<VecDeque<Request>>`; with `A` acceptors that lock is both a
//! scalability ceiling and a deadlock hazard.  The sharded engine
//! replaces it with two ring flavours, both fixed-capacity arrays of
//! slots with monotonically increasing positions (wrap = `pos & mask`):
//!
//! - [`SpscRing`] — single producer, single consumer.  One per shard:
//!   the *owning acceptor* produces ready-to-serve requests, the shard's
//!   worker consumes them.  Push and pop are one load + one store of the
//!   opposite index each; no CAS, no lock.
//! - [`MpscRing`] — multi-producer, single consumer (Vyukov's bounded
//!   queue with per-slot sequence numbers, used MPSC).  One per
//!   acceptor: every *other* acceptor produces cross-group handoff
//!   messages (placement fallbacks, rebalance plan segments, crash
//!   redistribution), the owning acceptor consumes them.
//!
//! Both `try_push` variants fail fast when full instead of blocking —
//! the acceptors keep a local overflow queue and retry on the next loop
//! pass, so two full inboxes can never deadlock each other.
//!
//! # Safety contract
//!
//! The types are `Sync` so they can sit in a shared arena indexed by
//! shard/acceptor, but the SPSC ring's safety relies on the caller
//! upholding the single-producer/single-consumer discipline (the wall
//! engine's ownership map guarantees it: only `owner(s)` pushes to
//! `work[s]`, only `worker_of(s)` pops).  The MPSC ring additionally
//! requires a single consumer per ring (each acceptor drains only its
//! own inbox).

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
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Current occupancy.  Exact for the producer and the consumer;
    /// racy-but-monotone for anyone else (a trigger check reading a
    /// depth mirror tolerates that).
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
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
        // producer, so nobody else is writing it.
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

/// One slot of the MPSC ring: Vyukov's sequence-stamped cell.
struct Slot<T> {
    /// `seq == pos`: free for the producer claiming position `pos`;
    /// `seq == pos + 1`: filled, ready for the consumer at `pos`;
    /// after consumption the consumer stores `pos + capacity`, making
    /// the slot free for the producer one lap later.
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer single-consumer ring (Vyukov's bounded
/// queue; the general algorithm is MPMC, we use it with one consumer).
pub struct MpscRing<T> {
    mask: usize,
    buf: Box<[Slot<T>]>,
    /// Consumer position.
    head: AtomicUsize,
    /// Producer claim counter (CAS-incremented).
    tail: AtomicUsize,
}

// SAFETY: a producer only writes a slot it claimed by CAS on `tail`
// while the slot's `seq` marked it free; the consumer only reads a slot
// whose `seq` marks it filled; `seq` release/acquire pairs order the
// data accesses in both directions.
unsafe impl<T: Send> Send for MpscRing<T> {}
unsafe impl<T: Send> Sync for MpscRing<T> {}

impl<T> MpscRing<T> {
    /// A ring holding at least `cap` items (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        MpscRing {
            mask: cap - 1,
            buf: (0..cap)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    val: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Approximate occupancy (exact once all producers are quiescent —
    /// which is when the termination protocol reads it).
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }

    /// Whether the ring is (approximately) empty; see [`Self::len`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Any-producer side: appends `v`, or returns it when the ring is
    /// full.  Lock-free: a stalled producer cannot block others (it
    /// stalls only *its own* claimed slot's visibility).
    pub fn try_push(&self, v: T) -> Result<(), T> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // Slot free at our position: claim it.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave us exclusive write access
                        // to this slot until we publish `seq`.
                        unsafe { (*slot.val.get()).write(v) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                // The slot is still occupied from one lap ago: full.
                return Err(v);
            } else {
                // Another producer claimed `pos`; chase the tail.
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Consumer side: removes the oldest item, if any.
    ///
    /// Must only be called from the ring's unique consumer thread.
    pub fn pop(&self) -> Option<T> {
        let pos = self.head.load(Ordering::Relaxed);
        let slot = &self.buf[pos & self.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq as isize - pos.wrapping_add(1) as isize != 0 {
            return None; // not yet filled (or mid-write)
        }
        // SAFETY: `seq == pos + 1` means the producer's release-store
        // published the value; storing `pos + capacity` afterwards
        // recycles the slot for the next lap.
        let v = unsafe { (*slot.val.get()).assume_init_read() };
        slot.seq
            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
        self.head.store(pos.wrapping_add(1), Ordering::Relaxed);
        Some(v)
    }
}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
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
    fn mpsc_fifo_single_thread_and_full_edge() {
        let r: MpscRing<u64> = MpscRing::with_capacity(4);
        for v in 0..4u64 {
            assert!(r.try_push(v).is_ok());
        }
        assert_eq!(r.try_push(99), Err(99), "full ring refuses");
        for v in 0..4u64 {
            assert_eq!(r.pop(), Some(v));
        }
        assert_eq!(r.pop(), None);
        for lap in 0..10u64 {
            assert!(r.try_push(lap).is_ok());
            assert_eq!(r.pop(), Some(lap));
        }
    }

    #[test]
    fn mpsc_delivers_every_message_exactly_once() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 20_000;
        let ring: Arc<MpscRing<usize>> = Arc::new(MpscRing::with_capacity(32));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut item = p * PER_PRODUCER + i;
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
            })
            .collect();
        let total = PRODUCERS * PER_PRODUCER;
        let mut seen = vec![false; total];
        let mut last_per_producer = [None::<usize>; PRODUCERS];
        let mut received = 0;
        while received < total {
            if let Some(v) = ring.pop() {
                assert!(!seen[v], "duplicate delivery of {v}");
                seen[v] = true;
                // Per-producer order is preserved (MPSC interleaves
                // producers but never reorders one producer's stream).
                let producer = v / PER_PRODUCER;
                if let Some(prev) = last_per_producer[producer] {
                    assert!(v > prev, "producer {producer} reordered");
                }
                last_per_producer[producer] = Some(v);
                received += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().expect("producer");
        }
        assert!(seen.iter().all(|&s| s), "every message arrived");
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
        {
            let r: MpscRing<Arc<u64>> = MpscRing::with_capacity(8);
            for _ in 0..5 {
                r.try_push(Arc::clone(&payload)).expect("space");
            }
            assert_eq!(Arc::strong_count(&payload), 6);
        }
        assert_eq!(Arc::strong_count(&payload), 1, "MpscRing dropped items");
    }
}
