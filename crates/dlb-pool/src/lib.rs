//! Deterministic, index-ordered [`par_map`] over `std::thread::scope`.
//!
//! A leaf crate so that the experiment harness and the CLI fan out
//! through one function without a dependency cycle.  Every caller hands
//! it a whole simulated run per index and calls it once to a few dozen
//! times per process, so a call simply spawns `jobs − 1` scoped threads
//! and joins them: about 20 µs, no state between calls.
//!
//! Two invariants make the parallelism invisible to the results:
//!
//! 1. **In-order reduction** — [`par_map`] returns the per-index results
//!    in index order regardless of which thread finished first, so a
//!    caller folding them (including non-associative `f64` sums) gets
//!    bit-identical aggregates for every `jobs` value, including 1.
//! 2. **Nesting runs inline** — a `par_map` call from a thread already
//!    executing `par_map` work maps sequentially on that thread, so
//!    nested fan-out never oversubscribes and still returns
//!    index-ordered results.
//!
//! Threads claim indices from a shared atomic cursor, so uneven item
//! times do not serialise the tail.  The calling thread participates as
//! one of the `jobs` threads.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count used when `--jobs` is not given: the machine's available
/// parallelism (1 when it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

thread_local! {
    /// True on a thread while it executes `par_map` work: nested calls
    /// from such a thread run inline.
    static IN_PAR_MAP: Cell<bool> = const { Cell::new(false) };
}

/// A slot's lock is held for one store, never while `f` runs.
const UNPOISONED: &str = "no panic can happen under a slot lock";

/// Maps `f` over `0..count` on `jobs` threads (the calling thread plus
/// `jobs − 1` scoped threads), returning results in index order.
///
/// `jobs <= 1` runs inline on the calling thread; any higher value
/// produces the *same* `Vec` (same values, same order), so sequential
/// and parallel paths share one code path and cannot drift apart.
///
/// With `jobs == count` every index runs on a thread of its own, all of
/// them alive at once: `f` may block on the other indices.  With fewer
/// threads than indices, or from inside another `par_map`, it may not.
///
/// A panic in `f` reaches the caller once every thread has been joined.
pub fn par_map<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(count.max(1));
    if jobs == 1 || IN_PAR_MAP.with(Cell::get) {
        return (0..count).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let work = || {
        IN_PAR_MAP.with(|flag| flag.set(true));
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let value = f(i);
            *slots[i].lock().expect(UNPOISONED) = Some(value);
        }
    };
    // The scope joins every spawned thread before it returns and then
    // re-raises a panic from any of them, the caller's own included.
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(work);
        }
        let own = catch_unwind(AssertUnwindSafe(work));
        IN_PAR_MAP.with(|flag| flag.set(false));
        if let Err(payload) = own {
            resume_unwind(payload);
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect(UNPOISONED)
                .expect("every index was claimed by exactly one thread")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_index_order() {
        for jobs in [1, 2, 4, 9] {
            let out = par_map(jobs, 37, |i| i * i);
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_map_float_fold_is_bit_identical_across_jobs() {
        // The exact guarantee the experiments rely on: folding the
        // returned Vec in order gives bit-identical f64 sums.
        let fold = |jobs: usize| -> f64 {
            par_map(jobs, 100, |i| ((i as f64) * 0.37).sin())
                .into_iter()
                .fold(0.0, |acc, x| acc + x)
        };
        let seq = fold(1).to_bits();
        for jobs in [2, 3, 8] {
            assert_eq!(seq, fold(jobs).to_bits(), "jobs={jobs}");
        }
    }

    #[test]
    fn repeated_calls_each_spawn_and_join_cleanly() {
        // No state survives a call: fifty back-to-back calls each get
        // fresh threads, a fresh cursor and complete results.
        for round in 0..50u64 {
            let out = par_map(4, 16, |i| i as u64 + round);
            assert_eq!(out, (0..16).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_par_map_runs_inline_and_stays_ordered() {
        let out = par_map(4, 4, |i| par_map(4, 3, |j| i * 10 + j));
        let expect: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..3).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn shrinking_jobs_respects_the_limit() {
        // A wide call first, then a narrow one: the narrow call runs on
        // at most `jobs` threads whatever came before it.
        let _ = par_map(8, 32, |i| i);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = par_map(2, 24, |i| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            concurrent.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out, (0..24).collect::<Vec<_>>());
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "jobs=2 ran {} ways parallel",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn panicking_closure_propagates_and_pool_survives() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(3, 20, |i| {
                if i == 7 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(result.is_err(), "panic must reach the caller");
        // The caller's thread must still fan out afterwards.
        assert_eq!(par_map(3, 5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn jobs_equal_to_count_runs_every_index_on_its_own_thread_at_once() {
        // The documented `jobs == count` contract: `f` may wait for every
        // other index.  A barrier across every index only opens if all
        // of them run concurrently; the timeout turns a regression into
        // a failure, not a hang.
        const COUNT: usize = 6;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let barrier = std::sync::Barrier::new(COUNT);
            let out = par_map(COUNT, COUNT, |i| {
                barrier.wait();
                i
            });
            let _ = tx.send(out);
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("par_map(jobs == count) did not run every index concurrently");
        assert_eq!(out, (0..COUNT).collect::<Vec<_>>());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
