//! Every claim of `dlb_theory::claims` checked where the paper's models
//! can be measured: the one-processor model's load ratio (by operator
//! and by simulation), the full model's processor pairs on the §7
//! workload, and the decrease simulation's operation counts.  One CSV
//! row per claim × regime × observation; exits 1 naming each claim that
//! is violated inside its hypothesis.
//!
//! Usage: `dlb-exp claims [--jobs N] [--out results/claims.csv]`

use crate::args::{Args, Key};
use crate::parallel::default_jobs;
use crate::quality::theorem4_pairs;
use crate::report::{f3, render_table, write_csv};
use dlb_core::one_proc::{mean_decrease_ops, mean_ratio_after_ops};
use dlb_core::Params;
use dlb_theory::claims::{self, Observation, CLAIMS};
use dlb_theory::schedule::{
    contraction_rate, measured_convergence_steps, predicted_convergence_steps,
};
use dlb_theory::TheoremBounds;

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
/// Balancing operations per ratio observation, simulated runs, and
/// packets per processor at the simulation's balanced start.
const OPS: usize = 300;
const RATIO_RUNS: usize = 40;
const INITIAL: u64 = 10_000;
/// Relative distance from `FIX` at which `G^t(1)` counts as converged.
const CONVERGED: f64 = 1e-4;

/// `(δ, f, C)` of the full model: `PAIR_RUNS` runs of `STEPS` steps of
/// the §7 workload at `N` processors.
const PAIR_GRID: [(usize, f64, usize); 6] = [
    (1, 1.1, 4),
    (1, 1.1, 32),
    (1, 1.8, 4),
    (4, 1.1, 4),
    (4, 1.8, 4),
    (2, 1.4, 8),
];
const N: usize = 64;
const STEPS: usize = 500;
const PAIR_RUNS: usize = 30;

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
const DECREASE_RUNS: usize = 50;

/// A simulated value is the mean of 5–50 seeded runs of an integer-packet
/// model, an estimate of the expectation the paper bounds: it may stray
/// this fraction of the bound past it before it counts as a violation.
const SAMPLED: f64 = 0.05;
/// An operator iterate may pass the closed form it converges to by
/// rounding.
const ROUNDING: f64 = 1e-12;

const HEADERS: [&str; 8] = [
    "claim",
    "regime",
    "observation",
    "bound",
    "observed",
    "slack",
    "tolerance",
    "verdict",
];

/// One point of a grid: the parameters, and how the CSV names them.
struct Regime {
    params: Params,
    name: String,
}

type Row = Vec<String>;

impl Regime {
    /// The CSV row of claim `id` on `observed`, measured as `observation`,
    /// with `tolerance` as in `Margin::holds_within`.  Operation counts
    /// print as integers, ratios and loads with three decimals.
    fn row(&self, id: &str, observation: &str, observed: Observation, tolerance: f64) -> Row {
        let counts = matches!(observed, Observation::Decrease { .. });
        let value = |v: f64| if counts { v.to_string() } else { f3(v) };
        let margin = claims::by_id(id).evaluate(self.params.algo(), &observed);
        let (bound, slack, verdict) = match margin {
            None => ("-".to_string(), "-".to_string(), "outside"),
            Some(m) => {
                let bound = match (m.lower.is_finite(), m.upper.is_finite()) {
                    (true, true) => format!("{}..{}", value(m.lower), value(m.upper)),
                    (true, false) => format!(">= {}", value(m.lower)),
                    _ => format!("<= {}", value(m.upper)),
                };
                let holds = m.holds_within(tolerance);
                (
                    bound,
                    f3(m.slack()),
                    if holds { "holds" } else { "violated" },
                )
            }
        };
        vec![
            id.to_string(),
            self.name.clone(),
            observation.to_string(),
            bound,
            f3(observed.value()),
            slack,
            format!("{tolerance:e}"),
            verdict.to_string(),
        ]
    }
}

/// Theorems 1–3 on the one-processor model.
fn ratio_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (n, delta, f) in RATIO_GRID {
        let params = Params::new(n, delta, f, 4).expect("grid is valid");
        let name = format!("n={n} delta={delta} f={f:.2}");
        let (algo, at) = (*params.algo(), Regime { params, name });
        let ratio = Observation::Ratio;
        let sim = mean_ratio_after_ops(params, OPS as u64, RATIO_RUNS, INITIAL, 42);
        let sampled = format!("sim runs={RATIO_RUNS} ops={OPS}");
        let converged_at = measured_convergence_steps(n, delta, f, CONVERGED);
        let predicted = predicted_convergence_steps(n, delta, f, CONVERGED);
        let rate = contraction_rate(n, delta, f);
        let (late_runs, late_ops) = (if n > 256 { 5 } else { 20 }, converged_at as u64 + 5);
        let late = mean_ratio_after_ops(params, late_ops, late_runs, INITIAL, 7);
        let convergence = format!(
            "sim runs={late_runs} ops={late_ops}: G^t(1) within {CONVERGED:e} of FIX from \
             t={converged_at} (|G'(FIX)|={rate:.3} predicts t={predicted})"
        );
        let fix = TheoremBounds::for_params(&algo).fix;
        // Grown to the top of the interval, then shrunk to its bottom.
        let word = format!("C^{OPS}(G^{OPS}(1)): {OPS} growth then {OPS} shrink steps");
        let (g_t, operator) = (algo.g_iter(1.0, OPS), format!("G^t(1) t={OPS}"));
        let shrunk = algo.c_iter(g_t, OPS);
        rows.extend([
            at.row("thm1", &operator, ratio(g_t), ROUNDING),
            at.row("thm1", &sampled, ratio(sim), SAMPLED),
            at.row("thm1", &convergence, ratio(late), SAMPLED),
            at.row("thm2", "FIX at f", ratio(fix), ROUNDING),
            at.row("thm3", &word, ratio(shrunk), ROUNDING),
        ]);
    }
    rows
}

/// Theorem 4 on the full model: every ordered processor pair at three
/// checkpoints, reported by its tightest pair.
fn pair_rows(jobs: usize) -> Vec<Row> {
    let checkpoints = [STEPS / 10, STEPS / 2, STEPS - 1];
    let thm4 = claims::by_id("thm4");
    let mut rows = Vec::new();
    for (delta, f, c_borrow) in PAIR_GRID {
        let params = Params::new(N, delta, f, c_borrow).expect("grid is valid");
        let pairs = theorem4_pairs(params, STEPS, &checkpoints, PAIR_RUNS, 7, jobs);
        let margin = |o| thm4.evaluate(params.algo(), o).expect("inside");
        let margins: Vec<_> = pairs.iter().map(margin).collect();
        let violated = margins.iter().filter(|m| !m.holds_within(SAMPLED)).count();
        let tightest = (0..pairs.len())
            .min_by(|&a, &b| margins[a].slack().total_cmp(&margins[b].slack()))
            .expect("two processors, one checkpoint");
        let coefficient = TheoremBounds::for_params(params.algo()).theorem4_coeff;
        let observation = format!(
            "means of {PAIR_RUNS} runs at t={}: {} pairs {violated} violated \
             (coefficient {}): tightest pair",
            checkpoints.map(|t| t.to_string()).join("/"),
            pairs.len(),
            f3(coefficient)
        );
        let name = format!("n={N} delta={delta} f={f:.2} C={c_borrow}");
        let at = Regime { params, name };
        rows.push(at.row("thm4", &observation, pairs[tightest], SAMPLED));
    }
    rows
}

/// Lemmas 5 and 6 on the decrease simulation.
fn decrease_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (delta, f, c) in DECREASE_GRID {
        let params = Params::new(N, delta, f, 4).expect("grid is valid");
        let name = format!("n={N} delta={delta} f={f:.2} x={X} c={c}");
        let ops = mean_decrease_ops(params, X, c, DECREASE_RUNS, 5);
        let observed = Observation::Decrease { x: X, c, ops };
        let (at, observation) = (Regime { params, name }, format!("sim runs={DECREASE_RUNS}"));
        rows.push(at.row("lemma5", &observation, observed, SAMPLED));
        rows.push(at.row("lemma6", &observation, observed, SAMPLED));
    }
    rows
}

pub fn run(args: &Args) {
    let jobs: usize = args.get("jobs", default_jobs());
    let out: String = args.get("out", "results/claims.csv".to_string());

    println!("The paper's claims (dlb_theory::claims):\n");
    for claim in &CLAIMS {
        println!("  {:<7} {}", claim.id, claim.statement);
    }
    let mut rows = [ratio_rows(), pair_rows(jobs), decrease_rows()].concat();
    // Claim by claim, each in its grid's order.
    rows.sort_by_key(|row| CLAIMS.iter().position(|claim| claim.id == row[0]));
    println!("\n{}", render_table(&HEADERS, &rows));
    write_csv(&out, &HEADERS, &rows).expect("CSV written");
    println!("wrote {out}");

    let violated: Vec<&Row> = rows.iter().filter(|row| row[7] == "violated").collect();
    for row in &violated {
        eprintln!("error: {} violated at {}: {}", row[0], row[1], row[2]);
    }
    if !violated.is_empty() {
        std::process::exit(1);
    }
}
