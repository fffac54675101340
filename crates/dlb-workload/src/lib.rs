//! Workload pattern generators for the SPAA'93 load balancing
//! reproduction.
//!
//! §2 of the paper makes *no* assumption about how packets are generated
//! and consumed — the theorems hold for any load pattern.  The experiments
//! of §7 use a specific synthetic *phase model* ([`phase::PhaseWorkload`]);
//! this crate implements that model plus a family of other patterns
//! ([`patterns`]) used by the analysis sections, the baseline comparisons
//! and the stress tests.
//!
//! Every pattern implements [`Workload`]: a deterministic, seeded stream
//! of per-processor [`LoadEvent`]s.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

pub mod branching;
pub mod patterns;
pub mod phase;
pub mod service;
pub mod sparse;

use dlb_core::{LoadBalancer, LoadEvent};

/// A deterministic stream of per-processor load events.
pub trait Workload {
    /// Number of processors this workload drives.
    fn n(&self) -> usize;

    /// Fills `out` (resized to `n`) with the events of global step `t`.
    /// Must be called with strictly increasing `t` starting at 0.
    fn events_at(&mut self, t: usize, out: &mut Vec<LoadEvent>);
}

/// Boxed workloads forward, so a `Box<dyn Workload>` built from runtime
/// configuration can drive the same generic entry points (for example
/// [`drive`]) as a concrete pattern.
impl<W: Workload + ?Sized> Workload for Box<W> {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn events_at(&mut self, t: usize, out: &mut Vec<LoadEvent>) {
        (**self).events_at(t, out);
    }
}

/// Drives a balancer with a workload for `steps` global time steps,
/// invoking `observe(t, balancer)` after each step.
pub fn drive<B: LoadBalancer + ?Sized, W: Workload + ?Sized>(
    balancer: &mut B,
    workload: &mut W,
    steps: usize,
    mut observe: impl FnMut(usize, &B),
) {
    assert_eq!(
        balancer.n(),
        workload.n(),
        "balancer/workload size mismatch"
    );
    let mut events = Vec::with_capacity(balancer.n());
    for t in 0..steps {
        workload.events_at(t, &mut events);
        balancer.step(&events);
        observe(t, balancer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{Params, SimpleCluster};

    #[test]
    fn drive_runs_observer_each_step() {
        let params = Params::paper_section7(4);
        let mut balancer = SimpleCluster::new(params, 1);
        let mut workload = patterns::UniformRandom::new(4, 0.5, 0.2, 9);
        let mut seen = 0usize;
        drive(&mut balancer, &mut workload, 25, |t, b| {
            assert_eq!(t, seen);
            assert_eq!(b.n(), 4);
            seen += 1;
        });
        assert_eq!(seen, 25);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn drive_rejects_mismatched_sizes() {
        let params = Params::paper_section7(4);
        let mut balancer = SimpleCluster::new(params, 1);
        let mut workload = patterns::UniformRandom::new(8, 0.5, 0.2, 9);
        drive(&mut balancer, &mut workload, 1, |_, _| {});
    }
}
