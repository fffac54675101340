//! The paper's "very good performance even on networks containing up to
//! 1024 processors" claim: balancing quality and per-step cost of the
//! practical variant as the network grows, plus the full variant at
//! moderate sizes.
//!
//! Each (n, variant) cell is a one-contender arena league on one thread,
//! so µs/step compares across cells.
//!
//! Usage: `dlb-exp scaling
//!         [--steps 500] [--runs 5]`

use crate::arena::{run_league, ArenaConfig, Contender};
use crate::args::{Args, Key};
use crate::quality::paper_trace;
use crate::report::{f3, render_table, write_csv};
use dlb_core::{Cluster, Params, SimpleCluster};
use std::num::NonZeroUsize;
use std::time::Instant;

/// `[max/mean, ops per run, wall µs per step]` of one contender.
fn measure(contender: Contender, n: usize, steps: usize, runs: usize) -> [String; 3] {
    let cfg = ArenaConfig {
        n,
        steps,
        runs,
        seed: 100,
        warmup_fraction: 0.5,
        faults: None,
        jobs: 1,
    };
    let start = Instant::now();
    let row = run_league(&cfg, &[contender], |s| paper_trace(n, steps, s), None).remove(0);
    let elapsed = start.elapsed().as_secs_f64();
    [
        f3(row.mean_ratio),
        f3(row.ops_per_run),
        f3(elapsed / (runs * steps) as f64 * 1e6),
    ]
}

pub const KEYS: &[Key] = crate::keys!["steps": NonZeroUsize, "runs": NonZeroUsize, "out": String];

pub fn run(args: &Args) {
    let steps = args.count("steps", 500);
    let runs = args.count("runs", 5);
    let out: String = args.get("out", "results/scaling.csv".to_string());

    println!("Scaling: section-7 workload, delta = 1, f = 1.1 ({steps} steps, {runs} runs)\n");
    let mut rows = Vec::new();
    for n in [16usize, 64, 256, 1024] {
        let params = Params::paper_section7(n);
        let simple = Contender::new("simple", move |s| Box::new(SimpleCluster::new(params, s)));
        let full = Contender::new("full", move |s| Box::new(Cluster::new(params, s)));
        // The full variant keeps O(n) state per processor (the virtual
        // load classes); at n = 1024 we use fewer runs.
        let full_runs = if n >= 1024 { runs.min(2) } else { runs };
        let mut row = vec![n.to_string()];
        row.extend(measure(simple, n, steps, runs));
        row.extend(measure(full, n, steps, full_runs));
        rows.push(row);
    }
    let headers = vec![
        "n",
        "simple max/mean",
        "simple ops/run",
        "simple us/step",
        "full max/mean",
        "full ops/run",
        "full us/step",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("Expected shape: max/mean stays bounded (network-size independent, Theorem 2);");
    println!("operations grow ~linearly with n (each processor balances for itself).");
    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
