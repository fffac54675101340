//! A traced step allocates nothing.  This binary counts every
//! allocation its threads make (a counting global allocator, so it holds
//! this one test): each engine streams its trace into a
//! `RunOrderedWriter`, warms up, and then runs thousands of balancing
//! operations without one allocation: every `BalanceInitiated` and every
//! `StepDelta` is written from a list the engine lends it.

use dlb_core::{Cluster, LoadBalancer, LoadEvent, Params, SimpleCluster};
use dlb_trace::{RunOrderedWriter, SharedSink};
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

/// Steps `engine` for `steps` after as many warm-up steps, traced when
/// `sink` is given, and returns the allocations and balancing operations
/// of the timed half.  Each processor alternates a 40-step generate
/// burst with a 40-step drain, phase-shifted, so both triggers keep
/// firing.
fn run(engine: &mut dyn LoadBalancer, steps: u64, sink: Option<SharedSink>) -> (u64, u64) {
    if let Some(sink) = sink {
        engine.set_trace_sink(sink);
    }
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
    let engines = |seed| -> [(&str, Box<dyn LoadBalancer>); 2] {
        [
            ("RawCluster", Box::new(SimpleCluster::new(params, seed))),
            ("Cluster", Box::new(Cluster::new(params, seed))),
        ]
    };
    for ((name, mut traced), (_, mut untraced)) in engines(7).into_iter().zip(engines(7)) {
        let writer = RunOrderedWriter::from_writer(std::io::sink());
        let (allocated, ops) = run(&mut *traced, steps, Some(writer.handle(0)));
        let (engine_own, untraced_ops) = run(&mut *untraced, steps, None);
        assert_eq!(ops, untraced_ops, "{name}: the trace changed the run");
        // Dozens of operations a step, each a `balance` line at least.
        assert!(ops >= 40 * steps, "{name}: only {ops} operations");
        // The trace adds none: what is left is the engine's own (the
        // full model's load histogram grows once, to a new maximum
        // load, traced or not).
        assert!(engine_own <= 1, "{name}: {engine_own} untraced allocations");
        assert_eq!(
            allocated, engine_own,
            "{name}: {allocated} allocations over {steps} steps and {ops} operations"
        );
    }
}
