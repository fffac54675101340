//! Balancing-quality measurements: Figures 7/8 (load curves over time),
//! Figures 9/10 (per-processor distributions at fixed times) and the
//! full model's side of claim `thm4`.
//!
//! Methodology mirrors §7: the §7 phase workload on `n` processors, every
//! experiment repeated over `runs` seeded runs; we record the mean load
//! (over processors and runs) plus the minimum and maximum load *ever
//! observed in any run* at each time step.  For comparability across
//! parameter sets, run `r` always replays the same recorded event trace.
//!
//! Runs fan out through [`crate::parallel::par_map`] (`jobs` threads)
//! and are reduced in run-index order, so every aggregate is
//! bit-identical for any `jobs` value.  Each run's workload trace and
//! balancer draw from independent [`stream_seed`] streams.

use crate::parallel::{par_map, stream_seed, StreamId};
use dlb_core::{Cluster, LoadBalancer, Params};
use dlb_theory::claims::Observation;
use dlb_workload::phase::{PhaseConfig, PhaseWorkload};
use dlb_workload::trace::EventTrace;
use dlb_workload::{drive, Workload};

/// Mean/min/max load per time step, aggregated over processors and runs
/// (the curves of Figures 7 and 8).
#[derive(Debug, Clone)]
pub struct QualityCurves {
    /// Mean load over processors and runs, per step.
    pub mean: Vec<f64>,
    /// Minimum load of any processor in any run, per step.
    pub min: Vec<u64>,
    /// Maximum load of any processor in any run, per step.
    pub max: Vec<u64>,
}

impl QualityCurves {
    /// `max[t] − min[t]` at the final step: the paper's visual gap.
    pub fn final_spread(&self) -> u64 {
        let last = self.mean.len() - 1;
        self.max[last] - self.min[last]
    }

    /// Largest `max/mean` over all steps with `mean ≥ floor` (small means
    /// make the ratio meaningless at startup).
    pub fn worst_ratio(&self, floor: f64) -> f64 {
        self.mean
            .iter()
            .zip(self.max.iter())
            .filter(|(&m, _)| m >= floor)
            .map(|(&m, &mx)| mx as f64 / m)
            .fold(1.0, f64::max)
    }
}

/// Records the §7 phase workload trace for run `r` (same trace for every
/// parameter set, so differences are attributable to the balancer).
pub fn paper_trace(n: usize, steps: usize, run: u64) -> EventTrace {
    let mut workload = PhaseWorkload::new(n, steps, PhaseConfig::paper_section7(), run);
    EventTrace::record(&mut workload, steps)
}

/// Figures 7/8 for an arbitrary balancer factory: `make(seed)` builds
/// the balancer for one run from that run's balancer-stream seed, and is
/// then driven by the run's recorded paper trace (recorded from the
/// run's independent workload stream).  Runs execute on `jobs` workers;
/// the reduction is in run-index order, so the curves are identical for
/// every `jobs` value.
pub fn quality_curves_with<B: LoadBalancer>(
    make: impl Fn(u64) -> B + Sync,
    n: usize,
    steps: usize,
    runs: usize,
    base_seed: u64,
    jobs: usize,
) -> QualityCurves {
    let per_run = par_map(jobs, runs, |r| {
        let trace = paper_trace(
            n,
            steps,
            stream_seed(base_seed, r as u64, StreamId::Workload),
        );
        let mut replay = trace.replay();
        let mut balancer = make(stream_seed(base_seed, r as u64, StreamId::Balancer));
        let mut run = QualityCurves {
            mean: vec![0.0; steps],
            min: vec![u64::MAX; steps],
            max: vec![0; steps],
        };
        let mut loads = Vec::with_capacity(n);
        drive(&mut balancer, &mut replay, steps, |t, b| {
            b.loads_into(&mut loads);
            run.mean[t] = loads.iter().map(|&l| l as f64).sum::<f64>() / n as f64;
            run.min[t] = *loads.iter().min().expect("n > 0");
            run.max[t] = *loads.iter().max().expect("n > 0");
        });
        run
    });
    let mut mean = vec![0.0f64; steps];
    let mut min = vec![u64::MAX; steps];
    let mut max = vec![0u64; steps];
    for run in &per_run {
        for t in 0..steps {
            mean[t] += run.mean[t];
            min[t] = min[t].min(run.min[t]);
            max[t] = max[t].max(run.max[t]);
        }
    }
    for m in &mut mean {
        *m /= runs as f64;
    }
    QualityCurves { mean, min, max }
}

/// Figures 7/8 with the full virtual-class algorithm.
pub fn balancing_quality(
    params: Params,
    steps: usize,
    runs: usize,
    base_seed: u64,
    jobs: usize,
) -> QualityCurves {
    quality_curves_with(
        |seed| Cluster::new(params, seed),
        params.n(),
        steps,
        runs,
        base_seed,
        jobs,
    )
}

/// Per-processor load distribution at one checkpoint (Figures 9/10):
/// mean over runs plus min/max ever observed, per processor.
#[derive(Debug, Clone)]
pub struct SnapshotDistribution {
    /// The global time step of the snapshot.
    pub t: usize,
    /// Mean load per processor over runs.
    pub mean: Vec<f64>,
    /// Minimum load per processor over runs.
    pub min: Vec<u64>,
    /// Maximum load per processor over runs.
    pub max: Vec<u64>,
}

impl SnapshotDistribution {
    /// Gap between the most and least loaded processor means.
    pub fn mean_spread(&self) -> f64 {
        let lo = self.mean.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.mean.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }
}

/// Figures 9/10: distributions at each checkpoint for the full algorithm.
pub fn distribution_at(
    params: Params,
    steps: usize,
    checkpoints: &[usize],
    runs: usize,
    base_seed: u64,
    jobs: usize,
) -> Vec<SnapshotDistribution> {
    let n = params.n();
    let fresh = || -> Vec<SnapshotDistribution> {
        checkpoints
            .iter()
            .map(|&t| SnapshotDistribution {
                t,
                mean: vec![0.0; n],
                min: vec![u64::MAX; n],
                max: vec![0; n],
            })
            .collect()
    };
    let per_run = par_map(jobs, runs, |r| {
        let trace = paper_trace(
            n,
            steps,
            stream_seed(base_seed, r as u64, StreamId::Workload),
        );
        let mut replay = trace.replay();
        let mut balancer =
            Cluster::new(params, stream_seed(base_seed, r as u64, StreamId::Balancer));
        let mut snaps = fresh();
        let mut loads = Vec::with_capacity(n);
        drive(&mut balancer, &mut replay, steps, |t, b| {
            for snap in snaps.iter_mut().filter(|s| s.t == t) {
                b.loads_into(&mut loads);
                for (i, &l) in loads.iter().enumerate() {
                    snap.mean[i] = l as f64;
                    snap.min[i] = l;
                    snap.max[i] = l;
                }
            }
        });
        snaps
    });
    let mut snaps = fresh();
    for run in &per_run {
        for (snap, run_snap) in snaps.iter_mut().zip(run.iter()) {
            for i in 0..n {
                snap.mean[i] += run_snap.mean[i];
                snap.min[i] = snap.min[i].min(run_snap.min[i]);
                snap.max[i] = snap.max[i].max(run_snap.max[i]);
            }
        }
    }
    for snap in &mut snaps {
        for m in &mut snap.mean {
            *m /= runs as f64;
        }
    }
    snaps
}

/// Claim `thm4`'s observations of the §7 workload: every ordered pair
/// `i ≠ j` of per-processor mean loads, at each checkpoint.
pub fn theorem4_pairs(
    params: Params,
    steps: usize,
    checkpoints: &[usize],
    runs: usize,
    base_seed: u64,
    jobs: usize,
) -> Vec<Observation> {
    let snaps = distribution_at(params, steps, checkpoints, runs, base_seed, jobs);
    let mut pairs = Vec::new();
    for mean in snaps.iter().map(|snap| &snap.mean) {
        for (i, &load_i) in mean.iter().enumerate() {
            let others = mean.iter().enumerate().filter(|&(j, _)| j != i);
            pairs.extend(others.map(|(_, &load_j)| Observation::Pair {
                load_i,
                load_j,
                c_borrow: params.c_borrow(),
            }));
        }
    }
    pairs
}

/// Drives a single balancer over an existing trace and returns final
/// loads (Table 1 replays each run this way).
pub fn run_on_trace<B: LoadBalancer>(balancer: &mut B, trace: &EventTrace) -> Vec<u64> {
    let mut replay = trace.replay();
    let steps = trace.steps();
    let mut events = Vec::new();
    for t in 0..steps {
        replay.events_at(t, &mut events);
        balancer.step(&events);
    }
    balancer.loads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_theory::claims;

    fn small_params() -> Params {
        Params::new(8, 1, 1.1, 4).expect("valid")
    }

    #[test]
    fn quality_curves_shape_and_ordering() {
        let q = balancing_quality(small_params(), 60, 3, 1, 1);
        assert_eq!(q.mean.len(), 60);
        for t in 0..60 {
            assert!(q.min[t] as f64 <= q.mean[t] + 1e-9, "t={t}");
            assert!(q.mean[t] <= q.max[t] as f64 + 1e-9, "t={t}");
        }
        assert!(q.worst_ratio(5.0) >= 1.0);
    }

    #[test]
    fn smaller_f_tightens_the_band() {
        // The headline claim of Figures 7/8: lower f (or higher δ) gives a
        // narrower min–max band.
        let tight = balancing_quality(Params::new(8, 4, 1.1, 4).unwrap(), 150, 5, 7, 1);
        let loose = balancing_quality(Params::new(8, 1, 1.8, 4).unwrap(), 150, 5, 7, 1);
        assert!(
            tight.final_spread() <= loose.final_spread(),
            "tight {} vs loose {}",
            tight.final_spread(),
            loose.final_spread()
        );
    }

    #[test]
    fn distribution_checkpoints_match_requested_times() {
        let snaps = distribution_at(small_params(), 50, &[10, 40], 3, 2, 1);
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].t, 10);
        assert_eq!(snaps[1].t, 40);
        for snap in &snaps {
            assert_eq!(snap.mean.len(), 8);
            for i in 0..8 {
                assert!(snap.min[i] as f64 <= snap.mean[i] + 1e-9);
                assert!(snap.mean[i] <= snap.max[i] as f64 + 1e-9);
            }
        }
    }

    #[test]
    fn theorem4_holds_on_small_instance() {
        let pairs = theorem4_pairs(small_params(), 80, &[40, 79], 5, 3, 1);
        assert_eq!(pairs.len(), 2 * 8 * 7);
        let thm4 = claims::by_id("thm4");
        for observed in &pairs {
            let margin = thm4.evaluate(small_params().algo(), observed);
            assert!(margin.unwrap().holds_within(0.0), "{observed:?}");
        }
    }

    #[test]
    fn identical_seeds_reproduce_curves() {
        let a = balancing_quality(small_params(), 40, 2, 9, 1);
        let b = balancing_quality(small_params(), 40, 2, 9, 1);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.max, b.max);
    }

    #[test]
    fn parallel_curves_are_bit_identical_to_sequential() {
        for jobs in [2, 4] {
            let seq = balancing_quality(small_params(), 50, 5, 13, 1);
            let par = balancing_quality(small_params(), 50, 5, 13, jobs);
            assert_eq!(seq.mean, par.mean, "jobs={jobs}");
            assert_eq!(seq.min, par.min, "jobs={jobs}");
            assert_eq!(seq.max, par.max, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_distribution_is_bit_identical_to_sequential() {
        let seq = distribution_at(small_params(), 50, &[10, 40], 4, 2, 1);
        let par = distribution_at(small_params(), 50, &[10, 40], 4, 2, 3);
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.mean, b.mean);
            assert_eq!(a.min, b.min);
            assert_eq!(a.max, b.max);
        }
    }

    #[test]
    fn workload_and_balancer_streams_are_decorrelated() {
        // Regression for the correlated-seeding bug: the trace seed and
        // the balancer seed of one run must differ (the old scheme fed
        // `base + r` to both).
        let w = stream_seed(2024, 0, StreamId::Workload);
        let b = stream_seed(2024, 0, StreamId::Balancer);
        assert_ne!(w, b);
    }
}
