//! Every claim of `dlb_theory::claims` checked where it can be measured.
//! This row judges the theorems: the one-processor model's load ratio
//! (by operator and by simulation), the full model's processor pairs on
//! the §7 workload and the decrease simulation's operation counts, plus
//! the sparse engine against dense stepping.  It then runs every other
//! row of the table once, each of which writes its artefacts under
//! `--out` and judges its own shapes on the runs it drew; the §7 rows
//! share one draw of the union of their configurations.  One CSV row
//! per claim × regime × observation, with the observation's standard
//! error, in `<out>/claims.csv`; `dlb-exp` exits 1 naming each claim
//! that is violated inside its hypothesis.  A Table 1 value the paper
//! prints and this repository does not reproduce `deviates`, with its
//! reason, and does not fail the run.
//!
//! Usage: `dlb-exp claims [--jobs N] [--out results]`

use super::{fig7_quality, fig9_distribution, row, shape, table1_borrow, Row, EXPERIMENTS};
use crate::args::{Args, Key};
use crate::outln;
use crate::parallel::{default_jobs, par_map};
use crate::quality::{theorem4_pairs, Config, Setting, PANELS, PAPER};
use crate::report::{f3, write_csv};
use dlb_core::one_proc::{mean_decrease_ops, mean_ratio_after_ops};
use dlb_core::{Cluster, LoadBalancer, Params};
use dlb_net::rng::splitmix64;
use dlb_theory::claims::{self, Estimate, Observation, BATCHES, CLAIMS};
use dlb_theory::schedule::{
    contraction_rate, measured_convergence_steps, predicted_convergence_steps,
};
use dlb_theory::TheoremBounds;
use dlb_workload::sparse::{drive_sparse, SparseActivity, SparsePattern};
use dlb_workload::Workload;

pub const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

/// `(n, δ, f)` of the one-processor model.
const RATIO_GRID: [(usize, usize, f64); 7] = [
    (16, 1, 1.1),
    (64, 1, 1.1),
    (64, 1, 1.8),
    (64, 4, 1.1),
    (64, 4, 1.8),
    (256, 2, 1.3),
    (1024, 8, 2.0),
];
/// Balancing operations per ratio observation, simulated runs before
/// they are raised, the standard error they are raised to (relative to
/// `FIX`), and packets per processor at the simulation's balanced start.
const OPS: usize = 300;
const RATIO_RUNS: usize = 4000;
const RATIO_SE: f64 = 0.0025;
const INITIAL: u64 = 10_000;
/// Relative distance from `FIX` at which `G^t(1)` counts as converged.
const CONVERGED: f64 = 1e-4;

/// `(δ, f, C)` of the full model: `PAIR_RUNS` runs of the §7 setting
/// ([`PAPER`]'s processors and steps), each regime from its own seed.
const PAIR_GRID: [(usize, f64, usize); 6] = [
    (1, 1.1, 4),
    (1, 1.1, 32),
    (1, 1.8, 4),
    (4, 1.1, 4),
    (4, 1.8, 4),
    (2, 1.4, 8),
];
const N: usize = PAPER.n;
const PAIR_RUNS: usize = 20;
const CHECKPOINTS: [usize; 3] = [PAPER.steps / 10, PAPER.steps / 2, PAPER.steps - 1];

/// `(δ, f, c)` of the decrease simulation from load `X`, `DECREASE_RUNS`
/// runs at `N` processors.
const DECREASE_GRID: [(usize, f64, u64); 9] = [
    (1, 1.05, 500),
    (1, 1.1, 250),
    (1, 1.1, 500),
    (1, 1.1, 750),
    (1, 1.3, 500),
    (1, 1.8, 500),
    (2, 1.1, 500),
    (4, 1.1, 500),
    (8, 1.1, 500),
];
const X: u64 = 1000;
const DECREASE_RUNS: usize = 100;

/// A seed of its own for each regime, hashed from its parameters, so no
/// two regimes share a run.
fn regime_seed(parts: &[u64]) -> u64 {
    parts.iter().fold(0, |seed, &part| splitmix64(seed ^ part))
}

/// The one-processor ratio after `ops` operations: [`RATIO_RUNS`] runs
/// from the regime's seed, raised until the standard error is at most
/// [`RATIO_SE`] of `FIX`.
fn sampled_ratio(params: Params, ops: u64) -> Estimate {
    let (n, delta, f) = (params.n() as u64, params.delta() as u64, params.f());
    let seed = regime_seed(&[n, delta, f.to_bits(), ops]);
    let target = RATIO_SE * TheoremBounds::for_params(params.algo()).fix;
    let mut runs = RATIO_RUNS;
    loop {
        let ratio = mean_ratio_after_ops(params, ops, runs, INITIAL, seed);
        assert!(ratio.se.is_finite(), "{ratio:?}");
        if ratio.se <= target {
            return ratio;
        }
        // The error falls as 1/√runs: aim 10 % past the target.
        let grow = (ratio.se / target).powi(2) * 1.1;
        #[allow(clippy::cast_possible_truncation)]
        let raised = (runs as f64 * grow).ceil() as usize;
        runs = raised.next_multiple_of(BATCHES);
    }
}

/// Theorems 1–3 on the one-processor model at `(n, δ, f)`.
fn ratio_rows(n: usize, delta: usize, f: f64) -> Vec<Row> {
    let params = Params::new(n, delta, f, 4).expect("grid is valid");
    let regime = format!("n={n} delta={delta} f={f:.2}");
    let algo = *params.algo();
    let at = |id, observation: &str, ratio| {
        row(id, &regime, observation, &params, Observation::Ratio(ratio))
    };
    let exact = Estimate::exact;
    let sim = sampled_ratio(params, OPS as u64);
    let sampled = format!("sim runs={} ops={OPS}", sim.samples);
    let converged_at = measured_convergence_steps(n, delta, f, CONVERGED);
    let predicted = predicted_convergence_steps(n, delta, f, CONVERGED);
    let rate = contraction_rate(n, delta, f);
    let late_ops = converged_at as u64 + 5;
    let late = sampled_ratio(params, late_ops);
    let convergence = format!(
        "sim runs={} ops={late_ops}: G^t(1) within {CONVERGED:e} of FIX from \
         t={converged_at} (|G'(FIX)|={rate:.3} predicts t={predicted})",
        late.samples
    );
    let fix = TheoremBounds::for_params(&algo).fix;
    // Grown to the top of the interval, then shrunk to its bottom.
    let word = format!("C^{OPS}(G^{OPS}(1)): {OPS} growth then {OPS} shrink steps");
    let (g_t, operator) = (algo.g_iter(1.0, OPS), format!("G^t(1) t={OPS}"));
    let shrunk = algo.c_iter(g_t, OPS);
    vec![
        at("thm1", &operator, exact(g_t)),
        at("thm1", &sampled, sim),
        at("thm1", &convergence, late),
        at("thm2", "FIX at f", exact(fix)),
        at("thm3", &word, exact(shrunk)),
    ]
}

/// Theorem 4 on the full model: every ordered processor pair at three
/// checkpoints, reported by its tightest pair.
fn pair_rows(jobs: usize) -> Vec<Row> {
    let thm4 = claims::by_id("thm4");
    let mut rows = Vec::new();
    for (delta, f, c_borrow) in PAIR_GRID {
        let config = Config::strict(delta, f, c_borrow);
        let params = config.params(N);
        let seed = regime_seed(&[delta as u64, f.to_bits(), c_borrow as u64]);
        let setting = Setting {
            runs: PAIR_RUNS,
            seed,
            checkpoints: &CHECKPOINTS,
            ..PAPER
        };
        let pairs = theorem4_pairs(setting, config, jobs);
        let margin = |o| thm4.evaluate(params.algo(), o).expect("inside");
        let margins: Vec<_> = pairs.iter().map(margin).collect();
        let violated = margins.iter().filter(|m| !m.holds()).count();
        let tightest = (0..pairs.len())
            .min_by(|&a, &b| margins[a].slack().total_cmp(&margins[b].slack()))
            .expect("two processors, one checkpoint");
        let coefficient = TheoremBounds::for_params(params.algo()).theorem4_coeff;
        let observation = format!(
            "means of {PAIR_RUNS} runs at t={}: {} pairs {violated} violated \
             (coefficient {}): tightest pair",
            CHECKPOINTS.map(|t| t.to_string()).join("/"),
            pairs.len(),
            f3(coefficient)
        );
        let regime = format!("n={N} delta={delta} f={f:.2} C={c_borrow}");
        rows.push(row("thm4", &regime, &observation, &params, pairs[tightest]));
    }
    rows
}

/// Lemmas 5 and 6 on the decrease simulation.
fn decrease_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (delta, f, c) in DECREASE_GRID {
        let params = Params::new(N, delta, f, 4).expect("grid is valid");
        let regime = format!("n={N} delta={delta} f={f:.2} x={X} c={c}");
        let seed = regime_seed(&[delta as u64, f.to_bits(), c]);
        let ops = mean_decrease_ops(params, X, c, DECREASE_RUNS, seed);
        let observed = Observation::Decrease { x: X, c, ops };
        let observation = format!("sim runs={DECREASE_RUNS}");
        let judge = |id| row(id, &regime, &observation, &params, observed);
        rows.extend(["lemma5", "lemma6"].map(judge));
    }
    rows
}

/// Event-driven against dense stepping of the full model at 1 %
/// activity: every processor's load and every counter.
fn sparse_rows() -> Vec<Row> {
    let (n, steps) = (4096, 200);
    let pattern = SparsePattern::Phase {
        work: 2,
        gap: (100, 300),
    };
    let params = Params::paper_section7(n);
    let mut sparse = Cluster::new(params, 1);
    drive_sparse(
        &mut sparse,
        &mut SparseActivity::new(n, pattern, 9),
        steps,
        |_, _, _| {},
    );
    let mut dense = Cluster::new(params, 1);
    let (mut workload, mut events) = (SparseActivity::new(n, pattern, 9), Vec::new());
    for t in 0..steps {
        workload.events_at(t, &mut events);
        dense.step(&events);
    }
    let (a, b) = (sparse.loads(), dense.loads());
    let loads = a.iter().zip(&b).filter(|(a, b)| a != b).count();
    let counters = usize::from(sparse.metrics() != dense.metrics());
    vec![shape(
        "sparse.dense",
        &format!("n={n} delta=1 f=1.1 1% active"),
        &format!("processors whose load differs + counters differ after {steps} steps"),
        Estimate::exact((loads + counters) as f64),
    )]
}

/// Every configuration the §7 rows read: Figures 7–10's panels and
/// Table 1's cells.
fn section7() -> Vec<Config> {
    [PANELS.concat(), table1_borrow::configs()].concat()
}

pub fn run(args: &Args) -> Vec<Row> {
    let jobs: usize = args.get("jobs", default_jobs());
    let out: String = args.get("out", args.results().to_string());

    outln!("The paper's claims (dlb_theory::claims):\n");
    for claim in &CLAIMS {
        outln!("  {:<20} {} [{}]", claim.id, claim.statement, claim.source);
    }
    let ratios = par_map(jobs, RATIO_GRID.len(), |i| {
        let (n, delta, f) = RATIO_GRID[i];
        ratio_rows(n, delta, f)
    });
    let mut rows = [
        ratios.concat(),
        pair_rows(jobs),
        decrease_rows(),
        sparse_rows(),
    ]
    .concat();
    let draw = PAPER.draw(&section7(), jobs);
    // Every row declares `--jobs`, so the one given here bounds them all.
    for experiment in EXPERIMENTS.iter().filter(|e| e.name != "claims") {
        let argv = vec!["--jobs".to_string(), jobs.to_string()];
        let program = format!("dlb-exp {}", experiment.name);
        let args = Args::parse(&program, argv, experiment.keys).expect("--jobs is declared");
        let args = args.under(&out);
        outln!("\n{program}\n");
        // The §7 rows are views over the one draw.
        rows.extend(match experiment.name {
            "fig7_quality" => fig7_quality::view(&args, &draw),
            "fig9_distribution" => fig9_distribution::view(&args, &draw),
            "table1_borrow" => table1_borrow::view(&args, &draw),
            _ => (experiment.run)(&args),
        });
    }
    // Claim by claim, each in its grid's order.
    rows.sort_by_key(|row| CLAIMS.iter().position(|claim| claim.id == row[0]));
    let csv = format!("{out}/claims.csv");
    write_csv(&csv, &super::HEADERS, &rows).expect("CSV written");
    outln!("\nwrote {csv}");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::VERDICT;

    /// Claims `thm1`–`thm3` at n = 16, δ = 1, f = 1.1, each simulated
    /// row at the run count it is raised to.  A trigger that fires 1 %
    /// late (`1.01·f` in `OneProcModel::generate_until_ops`) moves the
    /// 300-operation ratio 8 standard errors past `FIX` and fails this.
    #[test]
    fn one_ratio_regime_holds_at_its_raised_run_count() {
        let params = Params::new(16, 1, 1.1, 4).expect("valid");
        let fix = TheoremBounds::for_params(params.algo()).fix;
        let rows = ratio_rows(16, 1, 1.1);
        for row in &rows {
            assert_eq!(row[VERDICT], "holds", "{row:?}");
        }
        // The 300-operation simulation: its standard error and runs.
        let sim = &rows[1];
        let (se, samples): (f64, usize) = (sim[6].parse().unwrap(), sim[7].parse().unwrap());
        assert!(samples >= RATIO_RUNS && se <= RATIO_SE * fix, "{sim:?}");
    }

    /// What `claims` relies on when it hands one draw to every §7 row: a
    /// configuration's runs are the same drawn alone or inside the
    /// union, e.g. table1's strict C = 4 cell, which is also fig7's
    /// δ = 1, f = 1.1 panel.
    #[test]
    fn a_configuration_draws_the_same_runs_alone_and_in_the_union() {
        let setting = Setting {
            n: 8,
            steps: 60,
            runs: 3,
            checkpoints: &[20, 59],
            ..PAPER
        };
        let shared = PANELS[0][0];
        assert!(table1_borrow::configs().contains(&shared));
        let alone = setting.draw(&[shared], 1);
        let union = setting.draw(&section7(), 2);
        let (alone, union) = (alone.runs(shared), union.runs(shared));
        assert_eq!(format!("{alone:?}"), format!("{union:?}"));
    }
}
