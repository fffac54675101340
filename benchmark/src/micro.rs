//! Micro-loops over single public data structures, for the per-layer
//! rows that no scenario-level span can isolate.  Each returns
//! nanoseconds per operation over [`OPS`] operations.

use std::hint::black_box;
use std::time::Instant;

use dlb_net::CalendarQueue;
use dlb_serve::{LatencyHistogram, SpscRing, TriggerRouter};

pub const OPS: u64 = 1_000_000;

fn ns_per_op(started: Instant, ops: u64) -> f64 {
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// `CalendarQueue` on the simulators' dominant traffic shape: every
/// tick pushes a few events `latency` ticks ahead and pops what is due.
pub fn equeue() -> f64 {
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    let started = Instant::now();
    let mut popped = 0u64;
    for t in 0..OPS / 8 {
        for k in 0..4 {
            q.push(t + 4, black_box(k));
        }
        while let Some((_, item)) = q.pop_due(t) {
            popped += black_box(item);
        }
    }
    black_box(popped);
    // 4 pushes per tick, and every push but the last few is popped.
    ns_per_op(started, OPS)
}

/// `TriggerRouter::note_enqueue` / `note_dequeue` on 64 shards with a
/// skewed fill, so triggers do fire.
pub fn router(seed: u64) -> f64 {
    let mut router = TriggerRouter::new(64, 2, 2.0, seed).expect("valid router parameters");
    let started = Instant::now();
    let mut fired = 0u64;
    for i in 0..OPS / 2 {
        let s = ((i * i) % 61) as usize;
        fired += u64::from(router.note_enqueue(black_box(s)).is_some());
        // Rebalances move depth around; dequeue only where some is left.
        if router.depth(s) > 0 {
            fired += u64::from(router.note_dequeue(s).is_some());
        }
    }
    black_box(fired);
    ns_per_op(started, OPS)
}

/// `LatencyHistogram::record` over a spread of magnitudes.
pub fn hist() -> f64 {
    let mut h = LatencyHistogram::new();
    let started = Instant::now();
    for i in 0..OPS {
        h.record(black_box((i * 2_654_435_761) % 100_000));
    }
    black_box(h.count());
    ns_per_op(started, OPS)
}

/// `SpscRing` push then pop from one thread (the uncontended cost).
pub fn ring() -> f64 {
    let ring: SpscRing<u64> = SpscRing::with_capacity(1024);
    let started = Instant::now();
    let mut sum = 0u64;
    for i in 0..OPS / 2 {
        // Launder the ring each time, or the pair folds to `sum += i`.
        black_box(&ring).try_push(i).expect("ring has room");
        sum += black_box(&ring).pop().expect("just pushed");
    }
    black_box(sum);
    ns_per_op(started, OPS)
}

/// Round trip of an empty two-way `par_map`, microseconds.
pub fn pool_dispatch() -> f64 {
    const CALLS: u32 = 2_000;
    dlb_pool::par_map(2, 2, |i| i); // spawn the pooled worker first
    let started = Instant::now();
    for _ in 0..CALLS {
        black_box(dlb_pool::par_map(2, 2, black_box));
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
}
