//! Table 1: borrow statistics (total borrow, remote borrow, borrow fail,
//! decrease sim) for `C ∈ {4, 8, 16, 32}` on the §7 workload with
//! `f = 1.1`, `δ = 1`, under both exchange policies.
//!
//! Usage: `dlb-exp table1_borrow [--jobs N] [--out results/table1.csv]
//!         [--smoke]`
//!
//! The matrix is 64 processors, 500 steps and 100 runs.  `--smoke`
//! shrinks it (n=16, 80 steps, 8 runs) and writes to
//! `results/table1_smoke.csv` so CI can golden-gate it in seconds
//! without touching the paper-scale `results/table1.csv`.  The shapes
//! the table shows, and its printed values, are `table1.*` rows of
//! `dlb-exp claims`.

use crate::args::{Args, Flag, Key};
use crate::parallel::default_jobs;
use crate::report::{f3, render_table, write_csv};
use crate::table1::table1_row;
use dlb_core::{ExchangePolicy, Params};

pub const KEYS: &[Key] = crate::keys!["smoke": Flag, "jobs": usize, "out": String];

/// The paper-scale matrix: processors, steps and runs, and every run's
/// base seed.
pub(super) const SCALE: (usize, usize, usize) = (64, 500, 100);
pub(super) const SEED: u64 = 31;
pub(super) const CS: [usize; 4] = [4, 8, 16, 32];

pub fn run(args: &Args) {
    let smoke = args.flag("smoke");
    let ((n, steps, runs), def_out) = if smoke {
        ((16, 80, 8), "results/table1_smoke.csv")
    } else {
        (SCALE, "results/table1.csv")
    };
    let jobs: usize = args.get("jobs", default_jobs());
    let out: String = args.get("out", def_out.to_string());
    let grid: Vec<Params> = CS
        .into_iter()
        .map(|c| Params::new(n, 1, 1.1, c).expect("valid"))
        .collect();

    println!(
        "Table 1: borrow statistics vs C, per processor per run (f = 1.1, delta = 1, {n} procs, \
         {steps} steps, {runs} runs)\n"
    );
    let mut csv_rows = Vec::new();
    for policy in [ExchangePolicy::Strict, ExchangePolicy::Aggressive] {
        let mut rows = Vec::new();
        for params in &grid {
            let c = params.c_borrow();
            let row = table1_row(params.with_exchange(policy), steps, runs, SEED, jobs);
            rows.push(vec![
                c.to_string(),
                f3(row.total_borrow),
                f3(row.remote_borrow),
                f3(row.borrow_fail),
                f3(row.decrease_sim),
            ]);
            csv_rows.push(vec![
                format!("{policy:?}"),
                c.to_string(),
                f3(row.total_borrow),
                f3(row.remote_borrow),
                f3(row.borrow_fail),
                f3(row.decrease_sim),
            ]);
        }
        println!("exchange policy: {policy:?}");
        println!(
            "{}",
            render_table(
                &[
                    "C",
                    "total borrow",
                    "remote borrow",
                    "borrow fail",
                    "decrease sim"
                ],
                &rows
            )
        );
    }
    write_csv(
        &out,
        &[
            "policy",
            "C",
            "total_borrow",
            "remote_borrow",
            "borrow_fail",
            "decrease_sim",
        ],
        &csv_rows,
    )
    .expect("CSV written");
    println!("\nwrote {out}");
}
