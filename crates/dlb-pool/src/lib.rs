//! Process-lifetime worker pool with a deterministic, index-ordered
//! [`par_map`].
//!
//! Originally part of `dlb-experiments::parallel` (PR 4), promoted to its
//! own leaf crate so crates below the experiment harness (`dlb-serve`'s
//! wall engine) can fan out on the same pool without a dependency
//! cycle.  Every caller shares this single pool, so nested fan-out never
//! oversubscribes: the pool holds one job at a time, and calls made from
//! inside a pool worker run inline on that thread.
//!
//! Two invariants make the parallelism invisible to the results:
//!
//! 1. **In-order reduction** — [`par_map`] returns the per-index results
//!    in index order regardless of which worker finished first, so a
//!    caller folding them (including non-associative `f64` sums) gets
//!    bit-identical aggregates for every `jobs` value, including 1.
//! 2. **Nesting runs inline** — a `par_map` call from a thread already
//!    executing pool work maps sequentially on that thread, so nesting
//!    cannot deadlock and still returns index-ordered results.
//!
//! Worker threads are spawned once (grown lazily to the largest
//! `jobs − 1` ever requested) and *park on a condvar* between jobs, so an
//! idle pool costs nothing and a [`par_map`] call costs a couple of mutex
//! operations rather than `jobs` thread spawns.  Within a job, idle
//! workers claim indices from a shared atomic cursor, so uneven item
//! times do not serialise the tail.  The calling thread participates as
//! one of the `jobs` workers.  Concurrent top-level calls serialise on a
//! submission lock.
//!
//! No external crate is needed; the pool is ~100 lines of `std`.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Worker count used when `--jobs` is not given: the machine's available
/// parallelism (1 when it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

thread_local! {
    /// True on pool workers and on a caller while it executes its own
    /// share of a job: nested `par_map` calls from such threads run
    /// inline instead of re-entering the (single-job) pool.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The job a worker executes: a lifetime-erased borrow of the caller's
/// work closure.  Validity is guaranteed by the submission protocol —
/// the caller does not return from [`par_map`] until every worker that
/// claimed this reference has dropped out of it (`running == 0`).
#[derive(Clone, Copy)]
struct TaskRef(&'static (dyn Fn() + Sync));

struct PoolState {
    /// Bumped once per submitted job; a worker only claims a task whose
    /// generation differs from the last one it executed.
    generation: u64,
    /// The current job, or `None` between jobs / after the caller
    /// closed submission.
    task: Option<TaskRef>,
    /// How many more workers may still join the current job (keeps a
    /// large pool from exceeding a smaller `--jobs` request).
    slots_open: usize,
    /// Workers currently inside the current job's closure.
    running: usize,
    /// Worker threads spawned so far (they never exit).
    spawned: usize,
    /// Set when a worker's closure panicked; re-raised by the caller.
    panicked: bool,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The caller parks here until `running` drains to zero.
    done_cv: Condvar,
    /// Serialises top-level `par_map` calls (the pool holds one job).
    submit: Mutex<()>,
}

/// Poison-tolerant lock: a panic inside a caller-supplied closure can
/// poison the submission lock while `par_map` unwinds; the pool's own
/// invariants never depend on poisoning, so we keep going.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    fn new() -> Arc<Pool> {
        Arc::new(Pool {
            state: Mutex::new(PoolState {
                generation: 0,
                task: None,
                slots_open: 0,
                running: 0,
                spawned: 0,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            submit: Mutex::new(()),
        })
    }

    fn global() -> &'static Arc<Pool> {
        static POOL: OnceLock<Arc<Pool>> = OnceLock::new();
        POOL.get_or_init(Pool::new)
    }

    /// Grows the pool to at least `needed` parked workers.
    fn ensure_workers(self: &Arc<Self>, needed: usize) {
        let mut st = lock(&self.state);
        while st.spawned < needed {
            st.spawned += 1;
            let pool = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("dlb-par-{}", st.spawned))
                .spawn(move || pool.worker_loop())
                .expect("spawn pool worker");
        }
    }

    fn worker_loop(&self) {
        IN_POOL.with(|flag| flag.set(true));
        let mut last_gen = 0u64;
        loop {
            let task = {
                let mut st = lock(&self.state);
                loop {
                    if st.generation != last_gen && st.slots_open > 0 {
                        if let Some(task) = st.task {
                            last_gen = st.generation;
                            st.slots_open -= 1;
                            st.running += 1;
                            break task;
                        }
                    }
                    st = self
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| (task.0)()));
            let mut st = lock(&self.state);
            if outcome.is_err() {
                st.panicked = true;
            }
            st.running -= 1;
            if st.running == 0 {
                self.done_cv.notify_all();
            }
        }
    }
}

/// Maps `f` over `0..count` on `jobs` workers (the calling thread plus
/// `jobs − 1` pooled threads), returning results in index order.
///
/// `jobs <= 1` runs inline on the calling thread; any higher value
/// produces the *same* `Vec` (same values, same order), so sequential
/// and parallel paths share one code path and cannot drift apart.
pub fn par_map<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(count.max(1));
    if jobs == 1 || IN_POOL.with(|flag| flag.get()) {
        return (0..count).map(f).collect();
    }

    let pool = Pool::global();
    let _submit = lock(&pool.submit);
    pool.ensure_workers(jobs - 1);

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        let value = f(i);
        *lock(&slots[i]) = Some(value);
    };

    // Publish the job.  The reference is lifetime-erased; see `TaskRef`
    // for why this is sound.
    {
        let work_ref: &(dyn Fn() + Sync) = &work;
        let task = TaskRef(unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work_ref)
        });
        let mut st = lock(&pool.state);
        st.generation += 1;
        st.task = Some(task);
        st.slots_open = jobs - 1;
        pool.work_cv.notify_all();
    }

    // Participate as one of the `jobs` workers.  IN_POOL makes nested
    // par_map calls from inside `f` run inline (re-entering the
    // single-job pool from here would deadlock on the submission lock).
    IN_POOL.with(|flag| flag.set(true));
    let own = catch_unwind(AssertUnwindSafe(&work));
    IN_POOL.with(|flag| flag.set(false));

    // Close submission and wait for every worker that claimed the task
    // to leave it; only then may the borrow of `work`/`slots` end.
    let worker_panicked = {
        let mut st = lock(&pool.state);
        st.task = None;
        st.slots_open = 0;
        while st.running > 0 {
            st = pool
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut st.panicked)
    };
    if let Err(payload) = own {
        resume_unwind(payload);
    }
    assert!(!worker_panicked, "a par_map worker panicked");

    slots
        .into_iter()
        .map(|slot| {
            lock(&slot)
                .take()
                .expect("every index was claimed by exactly one worker")
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
    fn repeated_calls_reuse_the_pool() {
        // Exercises worker re-claiming across generations: the pool is
        // spawned once and every later call must drain correctly.
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
        // Grow the pool with a wide call, then check a narrow call still
        // admits at most jobs−1 pooled workers (slots_open budget).
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
        // The pool must still be usable afterwards.
        assert_eq!(par_map(3, 5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
