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
//! without touching the paper-scale `results/table1.csv`.  At paper
//! scale the strict policy's runs judge the `table1.*` claims: the
//! shapes the table shows, and the values the paper prints.  Each cell
//! is a counter's mean over its runs, per processor.

use super::{excess, minus, shape, Row, VERDICT};
use crate::args::{Args, Flag, Key};
use crate::outln;
use crate::parallel::default_jobs;
use crate::report::{f3, render_table, write_csv};
use crate::table1::table1_runs;
use dlb_core::{ExchangePolicy, Metrics, Params};
use dlb_theory::claims::Estimate;

pub const KEYS: &[Key] = crate::keys!["smoke": Flag, "jobs": usize, "out": String];

/// Every run's base seed, and the columns of the table.
const SEED: u64 = 31;
const CS: [usize; 4] = [4, 8, 16, 32];

/// The table's counters, per processor per run, as the paper names them.
const COUNTERS: [&str; 4] = [
    "total borrow",
    "remote borrow",
    "borrow fail",
    "decrease sim",
];

/// [`COUNTERS`] of one run.
fn counters(m: &Metrics) -> [u64; 4] {
    [
        m.total_borrow,
        m.remote_borrow,
        m.borrow_fail,
        m.decrease_sim,
    ]
}

/// The values Table 1 prints at C = 4 and C = 32 (the counter, C, the
/// paper's value) and, where ours differs, what is known of why.
const PRINTED: [(&str, usize, f64, Option<&str>); 8] = [
    ("total borrow", 4, 107.8, None),
    ("total borrow", 32, 109.6, None),
    ("remote borrow", 4, 3.95, None),
    ("remote borrow", 32, 0.03, Some(REMOTE_LEVELS)),
    ("borrow fail", 4, 0.30, Some(FAIL_COUNTS)),
    ("borrow fail", 32, 0.02, Some(FAIL_COUNTS)),
    ("decrease sim", 4, 3.84, None),
    ("decrease sim", 32, 1.64, Some(DECREASE_LEVELS)),
];
const REMOTE_LEVELS: &str =
    "ours levels off near 0.14 from C = 16 on where the paper's keeps falling: cause not found";
const FAIL_COUNTS: &str = "ours counts every reduce-borrow invocation: our generators hold \
                           d_jj = 0 at settlement time more often than the paper's count implies";
const DECREASE_LEVELS: &str = "the paper's count levels off near 1.6 at large C where ours \
                               tracks remote borrow 1:1; it may also count b_ii settlements \
                               (the engine's markers_settled)";

pub fn run(args: &Args) -> Vec<Row> {
    let smoke = args.flag("smoke");
    let ((n, steps, runs), file) = if smoke {
        ((16, 80, 8), "table1_smoke.csv")
    } else {
        ((64, 500, 100), "table1.csv")
    };
    let jobs: usize = args.get("jobs", default_jobs());
    let out = args.output("out", file);

    outln!(
        "Table 1: borrow statistics vs C, per processor per run (f = 1.1, delta = 1, {n} procs, \
         {steps} steps, {runs} runs)\n"
    );
    let (mut csv_rows, mut strict) = (Vec::new(), Vec::new());
    for policy in [ExchangePolicy::Strict, ExchangePolicy::Aggressive] {
        let mut rows = Vec::new();
        for c in CS {
            let params = Params::new(n, 1, 1.1, c).expect("valid");
            let per_run = table1_runs(params.with_exchange(policy), steps, runs, SEED, jobs);
            let cells = [0, 1, 2, 3].map(|column| {
                let sum: f64 = per_run.iter().map(|m| counters(m)[column] as f64).sum();
                f3(sum / (runs * n) as f64)
            });
            rows.push([vec![c.to_string()], cells.to_vec()].concat());
            csv_rows.push([vec![format!("{policy:?}"), c.to_string()], cells.to_vec()].concat());
            if policy == ExchangePolicy::Strict {
                strict.push(per_run);
            }
        }
        outln!("exchange policy: {policy:?}");
        let headers = [&["C"], &COUNTERS[..]].concat();
        outln!("{}", render_table(&headers, &rows));
    }
    let underscored = COUNTERS.map(|name| name.replace(' ', "_"));
    let mut headers = vec!["policy", "C"];
    headers.extend(underscored.iter().map(String::as_str));
    write_csv(&out, &headers, &csv_rows).expect("CSV written");
    outln!("\nwrote {out}");
    if smoke {
        return Vec::new();
    }
    judge(n, &strict)
}

/// The `table1.*` claims on the strict policy's paper-scale runs at
/// `n` processors, one series of runs per C.
fn judge(n: usize, strict: &[Vec<Metrics>]) -> Vec<Row> {
    let counter = |k: usize, name: &str| -> Vec<f64> {
        let column = COUNTERS.iter().position(|&c| c == name).expect("a counter");
        let per_proc = |m: &Metrics| counters(m)[column] as f64 / n as f64;
        strict[k].iter().map(per_proc).collect()
    };
    let last = CS.len() - 1;
    let runs = strict[0].len();
    let what = format!("per processor per run: {runs} runs of seed {SEED}");
    let mut rows = Vec::new();
    let remote = |k| counter(k, "remote borrow");
    for k in 0..last {
        let (a, b) = (CS[k], CS[k + 1]);
        let (regime, observation) = (
            format!("C={a}..{b}"),
            format!("remote(C={b}) - remote(C={a}) {what}"),
        );
        let fall = Estimate::of_runs(&minus(&remote(k + 1), &remote(k)));
        rows.push(shape("table1.remote", &regime, &observation, fall));
    }
    for name in ["borrow fail", "decrease sim"] {
        let regime = format!("C={}..{} {name}", CS[0], CS[last]);
        let observation = format!("value(C={}) - value(C={}) {what}", CS[last], CS[0]);
        let fall = Estimate::of_runs(&minus(&counter(last, name), &counter(0, name)));
        rows.push(shape("table1.collapse", &regime, &observation, fall));
    }
    let total = |k| counter(k, "total borrow");
    let regime = format!("C={}..{}", CS[0], CS[last]);
    let observation = format!("total(C={}) / total(C={}) - 1 {what}", CS[last], CS[0]);
    let change = excess(&total(last), &total(0));
    rows.push(shape("table1.total", &regime, &observation, change));
    for (name, c, paper, known) in PRINTED {
        let k = CS.iter().position(|&at| at == c).expect("a column");
        let ours: Vec<f64> = counter(k, name).iter().map(|v| v / paper).collect();
        let at = format!("C={c} {name}");
        let what = format!("ours / paper ({paper}) {what}");
        let mut printed = shape("table1.printed", &at, &what, Estimate::of_runs(&ours));
        // Violated for a known reason: it deviates, and says why.
        if let (Some(reason), "violated") = (known, printed[VERDICT].as_str()) {
            printed[2] = format!("{}; {reason}", printed[2]);
            printed[VERDICT] = "deviates".to_string();
        }
        rows.push(printed);
    }
    rows
}
