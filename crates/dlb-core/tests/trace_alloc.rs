//! A traced step allocates nothing per event.  This binary counts every
//! allocation its threads make (a counting global allocator, so it holds
//! this one test): each engine streams its trace into a
//! `RunOrderedWriter`, warms up, and then runs thousands of balancing
//! operations whose allocations must stay within a per-step constant —
//! the `StepDelta` counter names — however many events the steps emit.

use dlb_core::{Cluster, LoadBalancer, LoadEvent, Params, SimpleCluster};
use dlb_trace::RunOrderedWriter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made by this thread.  A `const`
    /// `Cell` needs no lazy initialisation, which would allocate.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is passed to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` made on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    f();
    ALLOCATIONS.get() - before
}

/// The most a step may allocate: the `StepDelta` event's counter list,
/// one name per nonzero counter (`Metrics` has 14), and the filtered
/// list it is built from, which grows on the way.
const PER_STEP: u64 = 20;

/// Steps `engine` traced for `steps` after as many warm-up steps, and
/// returns the allocations and balancing operations of the timed half.
/// Each processor alternates a 40-step generate burst with a 40-step
/// drain, phase-shifted, so both triggers keep firing.
fn traced(engine: &mut dyn LoadBalancer, steps: u64) -> (u64, u64) {
    let writer = RunOrderedWriter::from_writer(std::io::sink());
    engine.set_trace_sink(writer.handle(0));
    let n = engine.loads().len();
    let mut events = vec![LoadEvent::Idle; n];
    let mut step = |engine: &mut dyn LoadBalancer, t: u64| {
        for (i, e) in events.iter_mut().enumerate() {
            *e = if (t + 3 * i as u64) % 80 < 40 {
                LoadEvent::Generate
            } else {
                LoadEvent::Consume
            };
        }
        engine.step(&events);
    };
    for t in 0..steps {
        step(engine, t);
    }
    let ops = engine.metrics().balance_ops;
    let allocated = allocations(|| {
        for t in steps..2 * steps {
            step(engine, t);
        }
    });
    (allocated, engine.metrics().balance_ops - ops)
}

#[test]
fn a_traced_step_allocates_nothing_per_event() {
    let steps = 400;
    let params = Params::new(256, 1, 1.02, 4).unwrap();
    let mut simple = SimpleCluster::new(params, 7);
    let mut full = Cluster::new(params, 7);
    for (name, engine) in [
        ("RawCluster", &mut simple as &mut dyn LoadBalancer),
        ("Cluster", &mut full),
    ] {
        let (allocated, ops) = traced(engine, steps);
        // Each operation writes a `balance` line at least: one
        // allocation per operation would pass the bound twice over.
        assert!(ops >= 2 * PER_STEP * steps, "{name}: only {ops} operations");
        assert!(
            allocated <= PER_STEP * steps,
            "{name}: {allocated} allocations over {steps} steps and {ops} operations"
        );
    }
}
