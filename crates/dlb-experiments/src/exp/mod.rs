//! The experiment table behind `dlb-exp <name> [--key value …]`: one row
//! per table or figure of the evaluation, each a `run(&Args)` in the
//! module of the same name that prints its tables and writes its
//! CSV/SVG/JSON (defaults under `results/`, `--out`/`--svg` override).

use crate::args::{Args, Key};

/// One runnable experiment.
pub struct Experiment {
    /// The name `dlb-exp` dispatches on (also its module's name).
    pub name: &'static str,
    /// The paper artefact it regenerates.
    pub about: &'static str,
    /// The `--key`s it reads (its module's `KEYS`); `dlb-exp` refuses
    /// any other before calling `run`.
    pub keys: &'static [Key],
    /// Runs it with the parsed `--key value` arguments.
    pub run: fn(&Args),
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
    claims: "Theorems 1-4 and Lemmas 5/6 vs their bounds (exit 1 on a violation)",
    fig6_variation: "Figure 6 (variation density curves)",
    fig7_quality: "Figures 7/8 (balancing quality over time; --delta 4 for Figure 8)",
    fig9_distribution: "Figures 9/10 (per-processor distributions; --delta 4 for Figure 10)",
    table1_borrow: "Table 1 (borrow statistics vs C)",
    scaling: "the \"up to 1024 processors\" scaling claim",
    ablation: "full vs simple variant, exchange policy, locality",
    closed_loop: "section 1 motivation: task-tree makespan and speedup",
    async_latency: "the message protocol under latency and control loss",
    faults_sweep: "balance quality vs injected loss / crash rates",
    arena: "league table: trigger rule vs literature rivals and the section 1/5 strawmen",
};
