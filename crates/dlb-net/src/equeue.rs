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
//! A bucket is a flat `Vec<T>` and a read cursor: a push appends, a pop
//! copies out the slot under the cursor, and the pop that drains the
//! bucket `clear`s it, keeping its capacity.  A bucket holds one tick's
//! events at a time and the cursor only leaves a tick once its bucket
//! is drained, so after a lap of the ring every bucket is as large as
//! its busiest tick needed and a warm queue allocates nothing.  Items
//! are `Copy`, so a pop leaves nothing behind to drop.
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

use std::collections::BinaryHeap;

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

/// One tick's events in push order: `items[read..]` are still queued.
/// Never holds a drained prefix alone: the pop that reaches the end
/// clears it, so `items` is empty exactly when the bucket is.
struct Bucket<T> {
    items: Vec<T>,
    read: usize,
}

/// A calendar queue over items of type `T`; see the module docs.
pub struct CalendarQueue<T> {
    /// Ring of per-tick FIFO buckets; `buckets[time & mask]` holds the
    /// events of tick `time` while `time` is inside the window.
    buckets: Vec<Bucket<T>>,
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

impl<T: Copy> CalendarQueue<T> {
    /// A queue whose bucket ring covers `capacity` ticks (rounded up to
    /// a power of two).  Events further out than that still work — they
    /// wait in the overflow heap — so the capacity is a performance
    /// knob, not a limit.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        CalendarQueue {
            buckets: (0..cap)
                .map(|_| Bucket {
                    items: Vec::new(),
                    read: 0,
                })
                .collect(),
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

    /// Makes room for `per_tick` more events on each tick of `times`
    /// inside the bucket window, so that many pushes to each tick
    /// allocate nothing.  A tick beyond the window gets none: its events
    /// wait in the overflow heap.
    pub fn reserve_ticks(&mut self, times: std::ops::Range<u64>, per_tick: usize) {
        let end = times.end.min(self.cur.saturating_add(self.mask + 1));
        for time in times.start.max(self.cur)..end {
            let slot = self.slot(time);
            self.buckets[slot].items.reserve(per_tick);
        }
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
            self.buckets[slot].items.push(item);
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
                let bucket = &mut self.buckets[idx];
                if !bucket.items.is_empty() {
                    if self.cur > t {
                        return None;
                    }
                    let item = bucket.items[bucket.read];
                    bucket.read += 1;
                    if bucket.read == bucket.items.len() {
                        bucket.items.clear();
                        bucket.read = 0;
                    }
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
            self.buckets[slot].items.push(far.item);
            self.in_window += 1;
        }
    }
}

impl<T: Copy> Default for CalendarQueue<T> {
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
    fn reserved_ticks_take_their_pushes_in_place() {
        let mut cal = CalendarQueue::with_capacity(64);
        cal.push(5, (0, 0));
        assert_eq!(cal.pop_due(5), Some((5, (0, 0))));
        // Ticks 5..69 are the window; 69..100 lie beyond it.
        cal.reserve_ticks(0..100, 10);
        let bases: Vec<_> = cal.buckets.iter().map(|b| b.items.as_ptr()).collect();
        assert!(cal.buckets.iter().all(|b| b.items.capacity() >= 10));
        for time in 5..100 {
            for id in 0..10 {
                cal.push(time, (time, id));
            }
        }
        let moved = cal
            .buckets
            .iter()
            .zip(&bases)
            .filter(|(b, &p)| b.items.as_ptr() != p);
        assert_eq!(moved.count(), 0, "no bucket grew");
        let popped: Vec<_> = std::iter::from_fn(|| cal.pop_due(u64::MAX))
            .map(|(_, x)| x)
            .collect();
        let pushed: Vec<_> = (5..100)
            .flat_map(|t| (0..10).map(move |id| (t, id)))
            .collect();
        assert_eq!(popped, pushed);
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
        /// event.  The clock stands still for half the ops and a
        /// quarter of the pushes land on the current tick, so a bucket
        /// is pushed to while its tick drains (latency 0) and refilled
        /// after the pop that cleared it.
        #[test]
        fn matches_heap_under_interleaving(
            ops in prop::collection::vec(
                // (the clock's advance plus 20, so that about half the
                // ops keep the clock; a pushed event's delay; the op:
                // 0–1 pop, 2 push now, 3 push within 3 ticks, 4–5 push
                // within 299)
                (0u64..40, 0u64..300, 0u8..6),
                1..200,
            )
        ) {
            let mut cal = CalendarQueue::with_capacity(32);
            let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut stamp = 0u64;
            for (id, &(advance, delay, op)) in ops.iter().enumerate() {
                now += advance.saturating_sub(20);
                let delay = match op {
                    2 => 0,
                    3 => delay % 4,
                    _ => delay,
                };
                if op < 2 {
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

        /// Traffic that repeats with the ring's period — each tick
        /// pushes its pattern's delays, near and past the window, and a
        /// popped event may echo once onto the tick it pops at — grows
        /// no bucket and not the overflow heap once the queue has run
        /// long enough to be warm: from then on no capacity changes at
        /// all, since a bucket keeps its capacity across the `clear`
        /// that drains it.
        #[test]
        fn a_warm_lap_grows_no_capacity(
            pattern in prop::collection::vec(
                prop::collection::vec((0u64..100, any::<bool>()), 0..4), 32)
        ) {
            const CAP: u64 = 32;
            let mut q = CalendarQueue::with_capacity(pattern.len());
            let capacities = |q: &CalendarQueue<(u64, bool)>| {
                let buckets: Vec<usize> = q.buckets.iter().map(|b| b.items.capacity()).collect();
                (buckets, q.overflow.capacity())
            };
            // Past the farthest delay, every tick holds what it holds on
            // the same tick of every later lap; one more lap is warm.
            let warm = (100 / CAP + 2) * CAP;
            let mut before = None;
            for (t, pushes) in (0..warm + 3 * CAP).zip(pattern.iter().cycle()) {
                if t == warm {
                    before = Some(capacities(&q));
                }
                if t > warm {
                    prop_assert_eq!(Some(capacities(&q)), before.clone(), "tick {}", t);
                }
                for &(delay, echo) in pushes {
                    q.push(t + delay, (t, echo));
                }
                while let Some((at, (from, echo))) = q.pop_due(t) {
                    if echo {
                        q.push(at, (from, false));
                    }
                }
            }
        }
    }
}
