//! Experiment harness regenerating every table and figure of the paper's
//! evaluation, plus the theory-validation tables and the ablations listed
//! in DESIGN.md.
//!
//! Each module under [`exp`] is one experiment — a `run(&Args)` that
//! prints its tables and writes its CSV/SVG — and the one driver binary
//! dispatches on [`exp::EXPERIMENTS`]: `dlb-exp <name> [--key value …]`
//! (`dlb-exp list` prints that table: name and paper artefact, one row
//! per experiment).  The shared logic lives in the other modules so it
//! is unit-testable at reduced sizes.
//!
//! Two tools stay binaries of their own: `trace_analyze` (replay a
//! JSONL trace into derived series) and `bench_core` (engine timings
//! and the checksums `--check` re-derives).
//!
//! Monte Carlo experiments take `--jobs N` (default: available cores);
//! the [`parallel`] harness guarantees byte-identical output for every `N`.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

pub mod analyze;
pub mod arena;
pub mod args;
pub mod exp;
pub mod faultsweep;
pub mod parallel;
pub mod quality;
pub mod report;
pub mod svg;
pub mod table1;
pub mod variation;

pub use parallel::{default_jobs, par_map, stream_seed, StreamId};
pub use quality::{balancing_quality, distribution_at, QualityCurves, SnapshotDistribution};
pub use report::{ascii_plot, render_table, write_csv};
pub use table1::{table1_row, Table1Row};
