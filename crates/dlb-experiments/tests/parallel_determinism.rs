//! Property tests: for arbitrary small draws, the parallel harness keeps
//! output byte-identical to the sequential run.
//!
//! "Byte-identical" is checked on the `Debug` rendering of the whole
//! draw (every run's per-step curves, checkpoint loads and counters), and
//! of the part of one configuration's runs that each §7 view reads — the
//! same guarantee the `--jobs` flag makes for the binaries' CSV/JSON
//! output.

use dlb_core::ExchangePolicy;
use dlb_experiments::quality::{Config, Run, Setting};
use proptest::collection::vec;
use proptest::{prop_assert_eq, proptest};

/// `config`'s runs under `setting`, drawn with one worker and with
/// `jobs`, each rendered through `part`.
fn seq_and_par(
    setting: Setting,
    config: Config,
    jobs: usize,
    part: impl Fn(&Run) -> String,
) -> (Vec<String>, Vec<String>) {
    let render = |jobs| {
        let draw = setting.draw(&[config], jobs);
        draw.runs(config).iter().map(&part).collect()
    };
    (render(1), render(jobs))
}

proptest! {
    #[test]
    fn draw_parallel_equals_sequential(
        n_idx in 0usize..3,
        cells in vec((0usize..2, 0usize..3, 0usize..3, 0usize..2), 1..4),
        steps in 10usize..40,
        runs in 1usize..6,
        jobs in 2usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let n = [4usize, 6, 9][n_idx];
        let configs: Vec<Config> = cells
            .iter()
            .map(|&(d, f, c, p)| Config {
                delta: [1, 2][d],
                f: [1.1, 1.4, 1.8][f],
                c: [2, 4, 8][c],
                policy: [ExchangePolicy::Strict, ExchangePolicy::Aggressive][p],
            })
            .collect();
        let setting = Setting { n, steps, runs, seed, checkpoints: &[3, 9] };
        let seq = setting.draw(&configs, 1);
        let par = setting.draw(&configs, jobs);
        prop_assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    /// Figures 7/8's input: the per-step load total, minimum and maximum.
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
        let config = Config::strict([1, 2][delta_idx], [1.1, 1.4, 1.8][f_idx], 4);
        let setting = Setting { n, steps, runs, seed, checkpoints: &[] };
        let curves = |run: &Run| format!("{:?} {:?} {:?}", run.total, run.min, run.max);
        let (seq, par) = seq_and_par(setting, config, jobs, curves);
        prop_assert_eq!(seq, par);
    }

    /// Figures 9/10's input: every processor's load at the checkpoints.
    #[test]
    fn distribution_parallel_equals_sequential(
        steps in 20usize..50,
        runs in 1usize..5,
        jobs in 2usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let config = Config::strict(1, 1.2, 4);
        let setting = Setting { n: 6, steps, runs, seed, checkpoints: &[5, 19] };
        let loads = |run: &Run| format!("{:?}", run.loads);
        let (seq, par) = seq_and_par(setting, config, jobs, loads);
        prop_assert_eq!(seq, par);
    }

    /// Table 1's input: the counters at the end of each run.
    #[test]
    fn table1_parallel_equals_sequential(
        steps in 20usize..60,
        runs in 1usize..6,
        jobs in 2usize..6,
        c_idx in 0usize..3,
        policy_idx in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let config = Config {
            policy: [ExchangePolicy::Strict, ExchangePolicy::Aggressive][policy_idx],
            ..Config::strict(1, 1.1, [2, 4, 8][c_idx])
        };
        let setting = Setting { n: 8, steps, runs, seed, checkpoints: &[] };
        let metrics = |run: &Run| format!("{:?}", run.metrics);
        let (seq, par) = seq_and_par(setting, config, jobs, metrics);
        prop_assert_eq!(seq, par);
    }
}
