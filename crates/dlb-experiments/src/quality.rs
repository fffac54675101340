//! Section 7, drawn once: Figures 7/8 (load curves over time), Figures
//! 9/10 (per-processor loads at fixed times), Table 1 (the borrow
//! counters) and the full model's side of claim `thm4` all read the runs
//! of one [`Draw`].
//!
//! A draw runs every distinct [`Config`] of a list under one
//! [`Setting`]: the §7 phase workload on `n` processors, `runs` seeded
//! runs of `steps` steps each.  Each run is observed once and keeps what
//! every view reads ([`Run`]): the load total, minimum and maximum at
//! every step, every processor's load at the setting's checkpoints and
//! the counters at the end.  Run `r` of any configuration steps through
//! [`run_seeded`], whose workload and balancer streams depend only on
//! the setting's seed and `r`, so a configuration's runs are the same
//! whether it is drawn alone or inside a union: `dlb-exp claims` draws
//! the union of the §7 rows' configurations once and hands it to each.
//!
//! The (configuration, run) pairs fan out through one
//! [`crate::parallel::par_map`] (`jobs` threads) and are kept in index
//! order, so every aggregate is bit-identical for any `jobs` value.

use crate::arena::{run_seeded, RunWorkload};
use crate::parallel::par_map;
use dlb_core::{Cluster, ExchangePolicy, LoadBalancer, Metrics, Params};
use dlb_theory::claims::{Estimate, Observation};
use dlb_workload::phase::{PhaseConfig, PhaseWorkload};

/// The paper's §7 setting: 64 processors, 500 steps and 100 runs, kept
/// at Figures 9/10's checkpoints.
pub(crate) const PAPER: Setting = Setting {
    n: 64,
    steps: 500,
    runs: 100,
    seed: 2024,
    checkpoints: &[50, 200, 400],
};

/// Figures 7–10's panels, one row per `δ ∈ {1, 4}` and one column per
/// `f ∈ {1.1, 1.8}`, at `C = 4`.
pub(crate) const PANELS: [[Config; 2]; 2] = [
    [Config::strict(1, 1.1, 4), Config::strict(1, 1.8, 4)],
    [Config::strict(4, 1.1, 4), Config::strict(4, 1.8, 4)],
];

/// The size of a draw, its base seed and the steps at which each run's
/// loads are kept.
#[derive(Debug, Clone, Copy)]
pub struct Setting {
    pub n: usize,
    pub steps: usize,
    pub runs: usize,
    pub seed: u64,
    pub checkpoints: &'static [usize],
}

/// One configuration of the full model: `δ`, `f`, the borrow limit `C`
/// and the exchange policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    pub delta: usize,
    pub f: f64,
    pub c: usize,
    pub policy: ExchangePolicy,
}

impl Config {
    /// `δ`, `f` and `C` under the strict exchange policy.
    pub const fn strict(delta: usize, f: f64, c: usize) -> Self {
        Config {
            delta,
            f,
            c,
            policy: ExchangePolicy::Strict,
        }
    }

    /// Its parameters at `n` processors.
    pub(crate) fn params(&self, n: usize) -> Params {
        let params = Params::new(n, self.delta, self.f, self.c).expect("a valid configuration");
        params.with_exchange(self.policy)
    }
}

/// What a draw keeps of one run.
#[derive(Debug, Default)]
pub struct Run {
    /// Load total, per step.
    pub total: Vec<u64>,
    /// Least and greatest processor load, per step.
    pub min: Vec<u64>,
    pub max: Vec<u64>,
    /// Every processor's load at each of the setting's checkpoints.
    pub loads: Vec<Vec<u64>>,
    /// The counters at the end of the run.
    pub metrics: Metrics,
}

/// The runs of each distinct configuration of a list, under one
/// setting.
#[derive(Debug)]
pub struct Draw {
    pub setting: Setting,
    configs: Vec<Config>,
    /// Every configuration's runs in turn, each in run order.
    runs: Vec<Run>,
}

impl Setting {
    /// Every distinct configuration of `configs`, [`Setting::runs`] runs
    /// each, over `jobs` workers.
    pub fn draw(self, configs: &[Config], jobs: usize) -> Draw {
        let mut distinct: Vec<Config> = Vec::new();
        for config in configs {
            if !distinct.contains(config) {
                distinct.push(*config);
            }
        }
        let per_config = self.runs;
        let runs = par_map(jobs, distinct.len() * per_config, |i| {
            self.run(distinct[i / per_config], i % per_config)
        });
        Draw {
            setting: self,
            configs: distinct,
            runs,
        }
    }

    /// Run `r` of `config`.
    fn run(&self, config: Config, r: usize) -> Run {
        let mut run = Run {
            loads: vec![Vec::new(); self.checkpoints.len()],
            ..Run::default()
        };
        let (params, steps) = (config.params(self.n), self.steps);
        let mut loads = Vec::with_capacity(self.n);
        let observe = |t, b: &mut Cluster| {
            b.loads_into(&mut loads);
            run.total.push(loads.iter().sum());
            run.min.push(*loads.iter().min().expect("n > 0"));
            run.max.push(*loads.iter().max().expect("n > 0"));
            let at = run.loads.iter_mut().zip(self.checkpoints);
            for (kept, _) in at.filter(|(_, &at)| at == t) {
                kept.clone_from(&loads);
            }
        };
        let cluster = run_seeded(
            self.seed,
            r as u64,
            steps,
            None,
            |seed| Box::new(Cluster::new(params, seed)),
            |seed| paper_workload(self.n, steps, seed),
            observe,
        );
        run.metrics = *cluster.metrics();
        run
    }
}

impl Draw {
    /// The runs of `config`, in run order.
    pub fn runs(&self, config: Config) -> &[Run] {
        let k = self.configs.iter().position(|c| *c == config);
        let per_config = self.setting.runs;
        &self.runs[k.expect("a configuration of the draw") * per_config..][..per_config]
    }

    /// Each run's max − min load at step `t`, panel by panel of
    /// [`PANELS`].
    pub(crate) fn panel_spreads(&self, t: usize) -> [[Vec<f64>; 2]; 2] {
        let spread = |run: &Run| (run.max[t] - run.min[t]) as f64;
        PANELS.map(|row| row.map(|config| self.runs(config).iter().map(spread).collect()))
    }

    /// Where every configuration's runs come from, for a claim row.
    pub(crate) fn provenance(&self) -> String {
        format!("{} runs of seed {}", self.setting.runs, self.setting.seed)
    }
}

/// Mean, least and greatest value over runs, index by index.
#[derive(Debug)]
pub(crate) struct Band {
    pub mean: Vec<f64>,
    pub min: Vec<f64>,
    pub max: Vec<f64>,
}

impl Band {
    /// Per step (Figures 7/8): the mean load per processor, and the
    /// least and greatest load of any processor in any run.
    pub(crate) fn per_step(runs: &[Run], n: usize) -> Band {
        Band::over(runs, n as f64, |run| [&run.total, &run.min, &run.max])
    }

    /// Per processor at checkpoint `k` (Figures 9/10).
    pub(crate) fn per_processor(runs: &[Run], k: usize) -> Band {
        Band::over(runs, 1.0, |run| [&run.loads[k]; 3])
    }

    /// The mean over runs of `sum / per`, the least `lo` and the
    /// greatest `hi`, where `row` gives a run's `[sum, lo, hi]`.
    fn over(runs: &[Run], per: f64, row: impl Fn(&Run) -> [&Vec<u64>; 3]) -> Band {
        let len = row(&runs[0])[0].len();
        let mut band = Band {
            mean: vec![0.0; len],
            min: vec![f64::INFINITY; len],
            max: vec![0.0; len],
        };
        for [sum, lo, hi] in runs.iter().map(row) {
            for i in 0..len {
                band.mean[i] += sum[i] as f64 / per;
                band.min[i] = band.min[i].min(lo[i] as f64);
                band.max[i] = band.max[i].max(hi[i] as f64);
            }
        }
        for m in &mut band.mean {
            *m /= runs.len() as f64;
        }
        band
    }
}

/// The §7 phase workload on `n` processors for `steps` steps, drawn
/// from `seed` (a run's workload-stream seed).
pub fn paper_workload(n: usize, steps: usize, seed: u64) -> RunWorkload {
    let config = PhaseConfig::paper_section7();
    RunWorkload::Dense(Box::new(PhaseWorkload::new(n, steps, config, seed)))
}

/// Claim `thm4`'s observations of `config` drawn under `setting`: every
/// ordered pair `i ≠ j` of per-processor mean loads, at each checkpoint.
pub(crate) fn theorem4_pairs(setting: Setting, config: Config, jobs: usize) -> Vec<Observation> {
    let draw = setting.draw(&[config], jobs);
    let runs = draw.runs(config);
    let mut pairs = Vec::new();
    for k in 0..setting.checkpoints.len() {
        let load = |i: usize| {
            let loads: Vec<f64> = runs.iter().map(|run| run.loads[k][i] as f64).collect();
            Estimate::of_runs(&loads)
        };
        let loads: Vec<Estimate> = (0..setting.n).map(load).collect();
        for (i, &load_i) in loads.iter().enumerate() {
            let others = loads.iter().enumerate().filter(|&(j, _)| j != i);
            pairs.extend(others.map(|(_, &load_j)| Observation::Pair {
                load_i,
                load_j,
                c_borrow: config.c,
            }));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{stream_seed, StreamId};
    use dlb_theory::claims;

    /// `runs` runs of `steps` steps at 8 processors from `seed`.
    fn small(steps: usize, runs: usize, seed: u64, checkpoints: &'static [usize]) -> Setting {
        Setting {
            n: 8,
            steps,
            runs,
            seed,
            checkpoints,
        }
    }

    const SMALL: Config = Config::strict(1, 1.1, 4);

    #[test]
    fn quality_curves_shape_and_ordering() {
        let draw = small(60, 3, 1, &[]).draw(&[SMALL], 1);
        let q = Band::per_step(draw.runs(SMALL), 8);
        assert_eq!(q.mean.len(), 60);
        for t in 0..60 {
            assert!(q.min[t] <= q.mean[t] + 1e-9, "t={t}");
            assert!(q.mean[t] <= q.max[t] + 1e-9, "t={t}");
        }
    }

    #[test]
    fn smaller_f_tightens_the_band() {
        // The headline claim of Figures 7/8: lower f (or higher δ) gives a
        // narrower min–max band.
        let (tight, loose) = (Config::strict(4, 1.1, 4), Config::strict(1, 1.8, 4));
        let draw = small(150, 5, 7, &[]).draw(&[tight, loose], 1);
        let final_spread = |config| {
            let q = Band::per_step(draw.runs(config), 8);
            q.max[149] - q.min[149]
        };
        let (tight, loose) = (final_spread(tight), final_spread(loose));
        assert!(tight <= loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn distribution_checkpoints_match_requested_times() {
        let checkpoints = &[10, 40];
        let draw = small(50, 3, 2, checkpoints).draw(&[SMALL], 1);
        let runs = draw.runs(SMALL);
        for (k, &t) in checkpoints.iter().enumerate() {
            for run in runs {
                let loads = &run.loads[k];
                assert_eq!(loads.iter().sum::<u64>(), run.total[t], "t={t}");
                assert_eq!(loads.iter().min(), Some(&run.min[t]), "t={t}");
                assert_eq!(loads.iter().max(), Some(&run.max[t]), "t={t}");
            }
            let snap = Band::per_processor(runs, k);
            assert_eq!(snap.mean.len(), 8);
            for i in 0..8 {
                assert!(snap.min[i] <= snap.mean[i] + 1e-9);
                assert!(snap.mean[i] <= snap.max[i] + 1e-9);
            }
        }
    }

    #[test]
    fn theorem4_holds_on_small_instance() {
        let pairs = theorem4_pairs(small(80, 5, 3, &[40, 79]), SMALL, 1);
        assert_eq!(pairs.len(), 2 * 8 * 7);
        let thm4 = claims::by_id("thm4");
        // Judged as exact means: no allowance for their standard errors.
        let exact = |e: Estimate| Estimate::exact(e.mean);
        for observed in &pairs {
            let Observation::Pair {
                load_i,
                load_j,
                c_borrow,
            } = *observed
            else {
                panic!("{observed:?} is not a pair");
            };
            let (load_i, load_j) = (exact(load_i), exact(load_j));
            let observed = Observation::Pair {
                load_i,
                load_j,
                c_borrow,
            };
            let margin = thm4.evaluate(SMALL.params(8).algo(), &observed);
            assert!(margin.unwrap().holds(), "{observed:?}");
        }
    }

    #[test]
    fn larger_c_reduces_remote_operations() {
        // Table 1's headline: total borrows stay roughly constant while
        // remote borrows / decrease sims collapse as C grows.
        let (c2, c16) = (Config::strict(1, 1.1, 2), Config::strict(1, 1.1, 16));
        let draw = Setting {
            n: 16,
            ..small(200, 4, 11, &[])
        }
        .draw(&[c2, c16], 1);
        // `(total borrow, remote borrow)` summed over the runs.
        let borrows = |config| {
            let runs = draw.runs(config).iter().map(|run| run.metrics);
            runs.fold((0, 0), |(t, r), m| {
                (t + m.total_borrow, r + m.remote_borrow)
            })
        };
        let (small_total, small_remote) = borrows(c2);
        let (large_total, large_remote) = borrows(c16);
        assert!(small_total > 0);
        assert!(
            large_remote <= small_remote,
            "remote: C=2 {small_remote} vs C=16 {large_remote}"
        );
        let rel_diff = small_total.abs_diff(large_total) as f64 / small_total as f64;
        assert!(
            rel_diff < 0.6,
            "total borrow roughly stable: {small_total} vs {large_total}"
        );
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
