//! Property tests: for arbitrary small experiment shapes, the parallel
//! harness aggregates to output byte-identical to the sequential run.
//!
//! "Byte-identical" is checked on the `Debug` rendering of the full
//! result (which includes every `f64` digit-exactly) — the same
//! guarantee the `--jobs` flag makes for the binaries' CSV/JSON output.

use dlb_core::Params;
use dlb_experiments::quality::QualityCurves;
use dlb_experiments::{balancing_quality, distribution_at, table1_runs};
use proptest::{prop_assert_eq, proptest};

fn render(q: &QualityCurves) -> String {
    format!("{:?} {:?} {:?}", q.mean, q.min, q.max)
}

proptest! {
    #[test]
    fn quality_curves_parallel_equals_sequential(
        n_idx in 0usize..3,
        delta_idx in 0usize..2,
        f_idx in 0usize..3,
        steps in 10usize..40,
        runs in 1usize..6,
        jobs in 2usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let n = [4usize, 6, 9][n_idx];
        let delta = [1usize, 2][delta_idx];
        let f = [1.1f64, 1.4, 1.8][f_idx];
        let params = Params::new(n, delta, f, 4).expect("valid small params");
        let seq = balancing_quality(params, steps, runs, seed, 1);
        let par = balancing_quality(params, steps, runs, seed, jobs);
        prop_assert_eq!(render(&seq), render(&par));
    }

    #[test]
    fn distribution_parallel_equals_sequential(
        steps in 20usize..50,
        runs in 1usize..5,
        jobs in 2usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let params = Params::new(6, 1, 1.2, 4).expect("valid small params");
        let checkpoints = [steps / 4, steps - 1];
        let seq = distribution_at(params, steps, &checkpoints, runs, seed, 1);
        let par = distribution_at(params, steps, &checkpoints, runs, seed, jobs);
        prop_assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn table1_parallel_equals_sequential(
        steps in 20usize..60,
        runs in 1usize..6,
        jobs in 2usize..6,
        c_idx in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let params = Params::new(8, 1, 1.1, [2usize, 4, 8][c_idx]).expect("valid");
        let seq = table1_runs(params, steps, runs, seed, 1);
        let par = table1_runs(params, steps, runs, seed, jobs);
        prop_assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }
}
