//! The experiment table behind `dlb-exp <name> [--key value …]`: one row
//! per table or figure of the evaluation, each a `run(&Args)` in the
//! module of the same name that prints its tables and writes its
//! CSV/SVG/JSON under fixed names in the directory `--out` (default
//! `results`), which `dlb-exp` creates or refuses before the row runs.
//!
//! A row that draws runs a claim of `dlb_theory::claims` bounds judges
//! that claim on those runs and returns the judged rows of
//! `claims.csv`; [`report`] prints them and exits 1 on a violation.
//! `claims` judges the theorems and runs every other row once.

use crate::arena::ArenaRow;
use crate::args::{Args, Key};
use crate::outln;
use crate::parallel::default_jobs;
use crate::quality::{Config, Draw, Setting};
use crate::report::{f3, render_table};
use dlb_core::Params;
use dlb_theory::claims::{by_id, Estimate, Observation};

/// One runnable experiment.
pub struct Experiment {
    /// The name `dlb-exp` dispatches on (also its module's name).
    pub name: &'static str,
    /// The paper artefact it regenerates.
    pub about: &'static str,
    /// The `--key`s it reads (its module's `KEYS`); `dlb-exp` refuses
    /// any other before calling `run`.
    pub keys: &'static [Key],
    /// Runs it with the parsed `--key value` arguments and returns the
    /// claim rows it judged (none for a row no claim bounds).
    pub run: fn(&Args) -> Vec<Row>,
}

mod ablation;
mod arena;
mod async_latency;
mod claims;
mod closed_loop;
mod faults_sweep;
mod fig6_variation;
mod fig7_quality;
mod fig9_distribution;
mod scaling;
mod table1_borrow;

/// One [`Experiment`] per `module: "about"` row, named after its module.
macro_rules! table {
    ($($name:ident: $about:literal,)*) => {
        &[$(Experiment {
            name: stringify!($name),
            about: $about,
            keys: $name::KEYS,
            run: $name::run,
        },)*]
    };
}

/// Every experiment, in the order of the paper's evaluation.
pub const EXPERIMENTS: &[Experiment] = table! {
    claims: "Theorems 1-4, Lemmas 5/6 and the section 7 shapes vs their bounds (exit 1 on a violation)",
    fig6_variation: "Figure 6 (variation density curves)",
    fig7_quality: "Figures 7/8 (balancing quality over time, delta = 1 and 4)",
    fig9_distribution: "Figures 9/10 (per-processor distributions, delta = 1 and 4)",
    table1_borrow: "Table 1 (borrow statistics vs C)",
    scaling: "the \"up to 1024 processors\" scaling claim",
    ablation: "full vs simple variant, exchange policy, locality",
    closed_loop: "section 1 motivation: task-tree makespan and speedup",
    async_latency: "the message protocol under latency",
    faults_sweep: "balance quality vs injected loss / crash rates",
    arena: "league table: trigger rule vs literature rivals and the section 1/5 strawmen",
};

/// One judged row of `claims.csv`, one field per `HEADERS` column.
pub(crate) type Row = Vec<String>;

/// The columns of `claims.csv`.
const HEADERS: [&str; 9] = [
    "claim",
    "regime",
    "observation",
    "bound",
    "observed",
    "slack",
    "se",
    "samples",
    "verdict",
];

/// The column of the verdict.
const VERDICT: usize = HEADERS.len() - 1;

/// The row of claim `id` on `observed` at `params`, measured as
/// `observation`.  Operation bounds print as integers, everything else
/// with three decimals.
fn row(id: &str, regime: &str, observation: &str, params: &Params, observed: Observation) -> Row {
    let counts = matches!(observed, Observation::Decrease { .. });
    let value = |v: f64| if counts { v.to_string() } else { f3(v) };
    let margin = by_id(id).evaluate(params.algo(), &observed);
    let (bound, slack, verdict) = match margin {
        None => ("-".to_string(), "-".to_string(), "outside"),
        Some(m) => {
            let bound = match (m.lower.is_finite(), m.upper.is_finite()) {
                (true, true) => format!("{}..{}", value(m.lower), value(m.upper)),
                (true, false) => format!(">= {}", value(m.lower)),
                _ => format!("<= {}", value(m.upper)),
            };
            let verdict = if m.holds() { "holds" } else { "violated" };
            (bound, f3(m.slack()), verdict)
        }
    };
    let value = observed.value();
    let se = if value.se == 0.0 {
        "0".to_string()
    } else {
        format!("{:.1e}", value.se)
    };
    let mut fields: Row = [
        id,
        regime,
        observation,
        &bound,
        &f3(value.mean),
        &slack,
        &se,
    ]
    .map(str::to_string)
    .into();
    debug_assert!(!fields.iter().any(|f| f.contains(',')), "{fields:?}");
    fields.extend([value.samples.to_string(), verdict.to_string()]);
    fields
}

/// The row of a shape claim: it bounds a statistic, at any parameters.
fn shape(id: &str, regime: &str, observation: &str, value: Estimate) -> Row {
    let params = Params::paper_section7(64);
    row(
        id,
        regime,
        observation,
        &params,
        Observation::Statistic(value),
    )
}

/// A §7 row's own draw of `configs` under `setting`, announced before
/// the first run.
fn draw(args: &Args, setting: Setting, configs: &[Config]) -> Draw {
    let jobs = args.get("jobs", default_jobs());
    let (k, runs, seed) = (configs.len(), setting.runs, setting.seed);
    outln!("Section 7 draw: {k} configurations x {runs} runs of seed {seed} ({jobs} jobs)\n");
    setting.draw(configs, jobs)
}

/// `a − b`, run by run.
fn minus(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(a, b)| a - b).collect()
}

/// `x` or `−x`, whichever has a non-negative mean: a magnitude whose
/// runs stay paired.
fn magnitude(x: Vec<f64>) -> Vec<f64> {
    let sign = x.iter().sum::<f64>().signum();
    x.into_iter().map(|v| sign * v).collect()
}

/// The ratio of two paired per-run series' sums, minus 1.
fn excess(a: &[f64], b: &[f64]) -> Estimate {
    let pairs: Vec<(f64, f64)> = a.iter().copied().zip(b.iter().copied()).collect();
    Estimate::of_batches(&pairs, |batch| {
        let (a, b) = batch
            .iter()
            .fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
        a / b - 1.0
    })
}

/// Each run's mean max/mean ratio in a league row.
fn ratios(row: &ArenaRow) -> Vec<f64> {
    row.per_run.iter().map(|run| run.mean_ratio).collect()
}

/// Prints the claim rows a run judged, each that `deviates` with its
/// reason, and exits 1 naming each violated one.
pub fn report(rows: &[Row]) {
    if rows.is_empty() {
        return;
    }
    outln!("\n{}", render_table(&HEADERS, rows));
    for row in rows.iter().filter(|row| row[VERDICT] == "deviates") {
        outln!("deviates: {} at {}: {}", row[0], row[1], row[2]);
    }
    let violated: Vec<&Row> = rows
        .iter()
        .filter(|row| row[VERDICT] == "violated")
        .collect();
    for row in &violated {
        eprintln!("error: {} violated at {}: {}", row[0], row[1], row[2]);
    }
    if !violated.is_empty() {
        std::process::exit(1);
    }
}
