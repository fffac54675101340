//! The paper's "very good performance even on networks containing up to
//! 1024 processors" claim: balancing quality and operations per
//! processor of the practical variant as the network grows, plus the
//! full variant up to n = 256.
//!
//! Each (n, variant) cell is a one-contender arena league.  The CSV's
//! max/mean and ops-per-processor cells carry their standard error, and
//! the same runs judge the `scaling.*` claims.
//!
//! Usage: `dlb-exp scaling [--jobs N] [--out results]`
//! (jobs default to the available cores; the cells run one per job)

use super::{ratios, shape, Row};
use crate::arena::{run_league, ArenaConfig, ArenaRow, Contender};
use crate::args::{Args, Key};
use crate::outln;
use crate::parallel::{default_jobs, par_map};
use crate::quality::paper_workload;
use crate::report::{f3, render_table, write_csv};
use dlb_core::{Cluster, Params, SimpleCluster};
use dlb_theory::claims::{Estimate, BATCHES};

/// Steps and runs of every cell, and the runs' base seed.
const STEPS: usize = 500;
const RUNS: usize = BATCHES;
const SEED: u64 = 100;
const NS: [usize; 4] = [16, 64, 256, 1024];
/// The largest n the full variant runs at: it keeps O(n) state per
/// processor (the virtual load classes), and its 20 runs at n = 1024
/// take 4.4 s of one core, twice the rest of the row together.
const FULL_UP_TO: usize = 256;
const VARIANTS: [&str; 2] = ["simple", "full"];

pub(super) const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

/// One contender's league over [`RUNS`] runs of the §7 workload at `n`.
fn league(variant: usize, n: usize) -> ArenaRow {
    let params = Params::paper_section7(n);
    let contender = match variant {
        0 => Contender::new("simple", move |s| Box::new(SimpleCluster::new(params, s))),
        _ => Contender::new("full", move |s| Box::new(Cluster::new(params, s))),
    };
    let cfg = ArenaConfig {
        n,
        steps: STEPS,
        runs: RUNS,
        seed: SEED,
        warmup_fraction: 0.5,
        faults: None,
        jobs: 1,
    };
    run_league(&cfg, &[contender], |s| paper_workload(n, STEPS, s), None).remove(0)
}

/// The league's mean max/mean ratio over its runs.
fn ratio(row: &ArenaRow) -> Estimate {
    Estimate::of_runs(&ratios(row))
}

/// Each run's balancing operations per processor.
fn ops_per_proc(row: &ArenaRow, n: usize) -> Estimate {
    let per_proc: Vec<f64> = row
        .per_run
        .iter()
        .map(|r| r.balance_ops as f64 / n as f64)
        .collect();
    Estimate::of_runs(&per_proc)
}

/// `mean ± se`.
fn cell(e: Estimate) -> String {
    format!("{} ± {}", f3(e.mean), f3(e.se))
}

pub(super) fn run(args: &Args) -> Vec<Row> {
    let jobs: usize = args.get("jobs", default_jobs());
    let out = args.output("scaling.csv");

    outln!("Scaling: section-7 workload, delta = 1, f = 1.1 ({STEPS} steps, {RUNS} runs)\n");
    // (variant, n): the practical variant at every n, then the full one.
    let cells: Vec<(usize, usize)> = (0..VARIANTS.len())
        .flat_map(|v| {
            NS.iter()
                .filter(move |&&n| v == 0 || n <= FULL_UP_TO)
                .map(move |&n| (v, n))
        })
        .collect();
    let leagues = par_map(jobs, cells.len(), |i| league(cells[i].0, cells[i].1));
    let at = |v, n| {
        cells
            .iter()
            .position(|&cell| cell == (v, n))
            .map(|k| &leagues[k])
    };

    let mut rows = Vec::new();
    for n in NS {
        let mut row = vec![n.to_string()];
        for v in 0..VARIANTS.len() {
            row.extend(match at(v, n) {
                Some(league) => [ratio(league), ops_per_proc(league, n)].map(cell),
                None => ["-", "-"].map(String::from),
            });
        }
        rows.push(row);
    }
    let headers = [
        "n",
        "simple max/mean",
        "simple ops/proc",
        "full max/mean",
        "full ops/proc",
    ];
    outln!("{}", render_table(&headers, &rows));
    write_csv(&out, &headers, &rows).expect("CSV written");
    outln!("wrote {out}");
    judge(at)
}

/// The `scaling.*` claims on the league of each `(variant, n)` cell
/// that ran.
fn judge<'a>(at: impl Fn(usize, usize) -> Option<&'a ArenaRow>) -> Vec<Row> {
    let runs = format!("{RUNS} runs of seed {SEED}");
    let mut rows = Vec::new();
    for (v, name) in VARIANTS.into_iter().enumerate() {
        let ran: Vec<(usize, &ArenaRow)> = NS
            .iter()
            .filter_map(|&n| at(v, n).map(|league| (n, league)))
            .collect();
        for pair in ran.windows(2) {
            let ((a, small), (b, large)) = (pair[0], pair[1]);
            let growth = ratio(large).minus(ratio(small));
            let regime = format!("{name} n={a}..{b} delta=1 f=1.1");
            let what = format!("ratio(n={b}) - ratio(n={a}) over steps 250-499: {runs}");
            rows.push(shape("scaling.ratio", &regime, &what, growth));
        }
    }
    let (first, last) = (NS[0], NS[NS.len() - 1]);
    let simple = |n| at(0, n).expect("the practical variant runs at every n");
    let per_proc = ops_per_proc(simple(last), last).over(ops_per_proc(simple(first), first));
    let excess = Estimate {
        mean: per_proc.mean - 1.0,
        ..per_proc
    };
    let regime = format!("simple n={first}..{last} delta=1 f=1.1");
    let what = format!("ops per processor at n={last} over at n={first} - 1: {runs}");
    rows.push(shape("scaling.ops", &regime, &what, excess));
    rows
}
