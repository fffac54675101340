//! A bucketed (calendar) event queue keyed on the delivery tick.
//!
//! The asynchronous simulator (`desim`) delivers almost every event a
//! small constant distance into the future (`now + latency`, plus
//! timeout echoes a few multiples further out).  A binary heap pays
//! `O(log n)` per operation and a cache miss per sift; this queue pays
//! `O(1)` per push and amortised `O(1)` per pop by hashing events into a
//! ring of per-tick FIFO buckets covering the window
//! `[cur, cur + capacity)`.  Events beyond the window (e.g. a fault
//! plan's crash schedule, pushed at construction time) wait in a small
//! overflow heap and migrate into the ring when the cursor reaches them.
//!
//! # Ordering contract
//!
//! [`CalendarQueue::pop_due`] yields events in `(time, push order)`
//! order — exactly the `(time, seq)` order of the heap implementation it
//! replaces, **provided pushes are globally FIFO-stamped**, which they
//! are here: the queue stamps every push with a monotone counter, and
//! per-tick buckets are FIFO, so two events on the same tick pop in push
//! order.  The property test below checks this against a plain
//! `BinaryHeap` model for arbitrary push/pop interleavings.

use std::collections::{BinaryHeap, VecDeque};

/// An overflow event waiting outside the bucket window; ordered by
/// `(time, stamp)` so the earliest-pushed event of the earliest tick
/// migrates first.
struct Far<T> {
    time: u64,
    stamp: u64,
    item: T,
}

impl<T> PartialEq for Far<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.stamp) == (other.time, other.stamp)
    }
}

impl<T> Eq for Far<T> {}

impl<T> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Far<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.stamp).cmp(&(other.time, other.stamp))
    }
}

/// A calendar queue over items of type `T`; see the module docs.
pub struct CalendarQueue<T> {
    /// Ring of per-tick FIFO buckets; `buckets[time & mask]` holds the
    /// events of tick `time` while `time` is inside the window.
    buckets: Vec<VecDeque<T>>,
    mask: u64,
    /// Lowest tick that may still hold an event.  Only ever advances.
    cur: u64,
    /// Events inside the bucket window.
    in_window: usize,
    /// Total events (window + overflow).
    len: usize,
    /// Events at ticks `>= cur + capacity`.
    overflow: BinaryHeap<std::cmp::Reverse<Far<T>>>,
    /// Monotone push stamp backing the FIFO-within-tick contract.
    stamp: u64,
}

impl<T> CalendarQueue<T> {
    /// A queue whose bucket ring covers `capacity` ticks (rounded up to
    /// a power of two).  Events further out than that still work — they
    /// wait in the overflow heap — so the capacity is a performance
    /// knob, not a limit.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        CalendarQueue {
            buckets: (0..cap).map(|_| VecDeque::new()).collect(),
            mask: cap as u64 - 1,
            cur: 0,
            in_window: 0,
            len: 0,
            overflow: BinaryHeap::new(),
            stamp: 0,
        }
    }

    /// A queue with the default window (1024 ticks — comfortably wider
    /// than the simulator's largest timeout echo at common latencies).
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `item` for delivery at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before an already-delivered tick (the
    /// simulator never schedules into the past).
    pub fn push(&mut self, time: u64, item: T) {
        assert!(time >= self.cur, "event scheduled into the past");
        self.stamp += 1;
        self.len += 1;
        if time - self.cur <= self.mask {
            let slot = self.slot(time);
            self.buckets[slot].push_back(item);
            self.in_window += 1;
        } else {
            self.overflow.push(std::cmp::Reverse(Far {
                time,
                stamp: self.stamp,
                item,
            }));
        }
    }

    /// Pops the earliest event if it is due at or before `t`; `None`
    /// when the queue is empty or the next event is later than `t`.
    /// Ties on the same tick pop in push order.
    pub fn pop_due(&mut self, t: u64) -> Option<(u64, T)> {
        loop {
            if self.len == 0 {
                return None;
            }
            if self.in_window == 0 {
                // Everything lives in the overflow: jump the cursor to
                // the earliest far tick and pull its window in.
                let next = self.overflow.peek().expect("len > 0").0.time;
                if next > t {
                    return None;
                }
                self.cur = next;
                self.migrate();
                continue;
            }
            // Scan the ring from the cursor; window events sit within
            // `capacity` ticks of it, so the scan is bounded and the
            // cursor advances monotonically (amortised O(1) per tick).
            loop {
                let idx = self.slot(self.cur);
                if !self.buckets[idx].is_empty() {
                    if self.cur > t {
                        return None;
                    }
                    let item = self.buckets[idx].pop_front().expect("checked");
                    self.in_window -= 1;
                    self.len -= 1;
                    return Some((self.cur, item));
                }
                if self.cur >= t {
                    return None;
                }
                self.cur += 1;
                self.migrate();
            }
        }
    }

    /// The ring bucket of tick `time`.
    // Masked below the ring's length, a `usize`: nothing is truncated.
    #[allow(clippy::cast_possible_truncation)]
    fn slot(&self, time: u64) -> usize {
        (time & self.mask) as usize
    }

    /// Moves overflow events whose tick entered the window into their
    /// buckets.  Heap order is `(time, stamp)`, and every overflow event
    /// was pushed before any directly-bucketed event of the same tick
    /// (the tick was out of the window back then), so FIFO per tick is
    /// preserved.
    fn migrate(&mut self) {
        while let Some(top) = self.overflow.peek() {
            if top.0.time - self.cur > self.mask {
                break;
            }
            let far = self.overflow.pop().expect("peeked").0;
            let slot = self.slot(far.time);
            self.buckets[slot].push_back(far.item);
            self.in_window += 1;
        }
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// Drains both queues fully and compares the pop sequences.
    fn drain_matches(pushes: &[(u64, u32)]) {
        let mut cal = CalendarQueue::with_capacity(64);
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        for (stamp, &(time, id)) in pushes.iter().enumerate() {
            cal.push(time, id);
            heap.push(Reverse((time, stamp as u64, id)));
        }
        let mut got = Vec::new();
        while let Some((time, id)) = cal.pop_due(u64::MAX) {
            got.push((time, id));
        }
        let mut want = Vec::new();
        while let Some(Reverse((time, _, id))) = heap.pop() {
            want.push((time, id));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn fifo_within_a_tick() {
        drain_matches(&[(5, 1), (5, 2), (3, 3), (5, 4), (3, 5)]);
    }

    #[test]
    fn far_events_overflow_and_come_back() {
        // Window 64: events at 10_000 overflow, then migrate once the
        // cursor gets there.
        drain_matches(&[(10_000, 1), (1, 2), (10_000, 3), (70, 4), (9_999, 5)]);
    }

    #[test]
    fn pop_due_respects_the_horizon() {
        let mut q = CalendarQueue::with_capacity(16);
        q.push(4, "a");
        q.push(9, "b");
        assert_eq!(q.pop_due(3), None);
        assert_eq!(q.pop_due(4), Some((4, "a")));
        assert_eq!(q.pop_due(8), None);
        assert_eq!(q.pop_due(100), Some((9, "b")));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn pushing_into_the_past_panics() {
        let mut q = CalendarQueue::with_capacity(16);
        q.push(10, ());
        q.pop_due(20);
        q.push(5, ());
    }

    proptest! {
        /// Interleaved pushes (relative to the advancing clock) and
        /// horizon-bounded pops match the binary-heap model event for
        /// event.
        #[test]
        fn matches_heap_under_interleaving(
            ops in prop::collection::vec(
                // (advance the clock by, delay of a pushed event, pop?)
                (0u64..20, 0u64..300, any::<bool>()), 1..200)
        ) {
            let mut cal = CalendarQueue::with_capacity(32);
            let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut stamp = 0u64;
            for (id, &(advance, delay, pop)) in ops.iter().enumerate() {
                now += advance;
                if pop {
                    let got = cal.pop_due(now);
                    let due = heap.peek().is_some_and(|Reverse((t, _, _))| *t <= now);
                    let want = if due {
                        heap.pop().map(|Reverse((t, _, id))| (t, id))
                    } else {
                        None
                    };
                    prop_assert_eq!(got, want);
                } else {
                    stamp += 1;
                    cal.push(now + delay, id);
                    heap.push(Reverse((now + delay, stamp, id)));
                }
            }
            // Drain the rest.
            while let Some(Reverse((t, _, id))) = heap.pop() {
                prop_assert_eq!(cal.pop_due(u64::MAX), Some((t, id)));
            }
            prop_assert!(cal.is_empty());
        }
    }
}
