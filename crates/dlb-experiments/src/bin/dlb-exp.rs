//! The experiment driver: `dlb-exp <name> [--key value …]` runs one row
//! of [`dlb_experiments::exp::EXPERIMENTS`] with its outputs in the
//! directory `--out` (created first, or refused with exit 2), prints the
//! claims it judged and exits 1 if one is violated; `dlb-exp list`
//! prints the rows.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

use dlb_experiments::args::Args;
use dlb_experiments::exp::{report, EXPERIMENTS};
use dlb_experiments::outln;

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    if name == "list" {
        for e in EXPERIMENTS {
            outln!("{:<18} {}", e.name, e.about);
        }
        return;
    }
    let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!(
            "usage: dlb-exp <list | {}> [--key value ...]",
            names.join(" | ")
        );
        std::process::exit(2);
    };
    let program = format!("dlb-exp {name}");
    let args = Args::parse_or_exit(&program, argv, experiment.keys);
    args.create_out_dir_or_exit();
    report(&(experiment.run)(&args));
}
