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
use crate::quality::{Config, Draw, Setting, PAPER};
use crate::report::{f3, render_table, write_csv};
use dlb_core::{ExchangePolicy, Metrics};
use dlb_theory::claims::Estimate;

pub const KEYS: &[Key] = crate::keys!["smoke": Flag, "jobs": usize, "out": String];

/// The columns of the table, and its two halves.
const CS: [usize; 4] = [4, 8, 16, 32];
const POLICIES: [ExchangePolicy; 2] = [ExchangePolicy::Strict, ExchangePolicy::Aggressive];
/// `--smoke`'s matrix: the paper's seed at a fraction of its size.
const SMOKE: Setting = Setting {
    n: 16,
    steps: 80,
    runs: 8,
    checkpoints: &[],
    ..PAPER
};

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
    let setting = if args.flag("smoke") { SMOKE } else { PAPER };
    view(args, &super::draw(args, setting, &configs()))
}

/// Every cell's configuration.
pub fn configs() -> Vec<Config> {
    POLICIES.map(|policy| CS.map(|c| cell(c, policy))).concat()
}

/// The configuration of the cell at `c` under `policy`: δ = 1, f = 1.1.
fn cell(c: usize, policy: ExchangePolicy) -> Config {
    let strict = Config::strict(1, 1.1, c);
    Config { policy, ..strict }
}

/// The table and, at paper scale, the `table1.*` claims, from `draw`.
pub fn view(args: &Args, draw: &Draw) -> Vec<Row> {
    let smoke = args.flag("smoke");
    let file = if smoke {
        "table1_smoke.csv"
    } else {
        "table1.csv"
    };
    let out = args.output("out", file);
    let Setting { n, steps, runs, .. } = draw.setting;

    outln!(
        "Table 1: borrow statistics vs C, per processor per run (f = 1.1, delta = 1, {n} procs, \
         {steps} steps, {runs} runs)\n"
    );
    let mut csv_rows = Vec::new();
    for policy in POLICIES {
        let mut rows = Vec::new();
        for c in CS {
            let per_run = draw.runs(cell(c, policy));
            let cells = [0, 1, 2, 3].map(|column| {
                let column = per_run.iter().map(|r| counters(&r.metrics)[column]);
                f3(column.sum::<u64>() as f64 / (runs * n) as f64)
            });
            rows.push([vec![c.to_string()], cells.to_vec()].concat());
            csv_rows.push([vec![format!("{policy:?}"), c.to_string()], cells.to_vec()].concat());
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
    judge(draw)
}

/// The `table1.*` claims on the strict policy's paper-scale runs, one
/// series of runs per C.
fn judge(draw: &Draw) -> Vec<Row> {
    let counter = |k: usize, name: &str| -> Vec<f64> {
        let column = COUNTERS.iter().position(|&c| c == name).expect("a counter");
        let per_proc = |m: &Metrics| counters(m)[column] as f64 / draw.setting.n as f64;
        let runs = draw.runs(cell(CS[k], ExchangePolicy::Strict));
        runs.iter().map(|run| per_proc(&run.metrics)).collect()
    };
    let last = CS.len() - 1;
    let what = format!("per processor per run: {}", draw.provenance());
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
