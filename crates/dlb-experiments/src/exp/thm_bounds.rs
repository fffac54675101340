//! Theorems 1–3: FIX tables, network-size-independent limits and the
//! convergence of `G^t(1)`, compared against the integer-packet simulator.
//!
//! Usage: `dlb-exp thm_bounds
//!         [--runs 40] [--ops 300] [--out results/thm_bounds.csv]`

use crate::args::{Args, Key};
use crate::report::{f3, render_table, write_csv};
use dlb_core::one_proc::mean_ratio_after_ops;
use dlb_core::Params;
use dlb_theory::{AlgoParams, TheoremBounds};

pub const KEYS: &[Key] = crate::keys!["runs": usize, "ops": u64, "out": String];

pub fn run(args: &Args) {
    let runs: usize = args.get("runs", 40);
    let ops: u64 = args.get("ops", 300);
    let out: String = args.get("out", "results/thm_bounds.csv".to_string());

    let grid: Vec<(usize, usize, f64)> = vec![
        (16, 1, 1.1),
        (64, 1, 1.1),
        (64, 1, 1.8),
        (64, 4, 1.1),
        (64, 4, 1.8),
        (256, 2, 1.3),
        (1024, 8, 2.0),
    ];

    let mut rows = Vec::new();
    for &(n, delta, f) in &grid {
        let algo = AlgoParams::new(n, delta, f).expect("grid is valid");
        let tb = TheoremBounds::for_params(&algo);
        let params = Params::new(n, delta, f, 4).expect("valid");
        let empirical = mean_ratio_after_ops(params, ops, runs, 10_000, 42);
        let g_t = algo.g_iter(1.0, ops as usize);
        rows.push(vec![
            n.to_string(),
            delta.to_string(),
            format!("{f:.2}"),
            f3(tb.fix),
            f3(tb.fix_limit),
            f3(tb.fix_inv),
            f3(tb.fix_inv_limit),
            f3(g_t),
            f3(empirical),
        ]);
    }

    let headers = vec![
        "n",
        "delta",
        "f",
        "FIX",
        "lim(Thm2)",
        "FIX(1/f)",
        "lim(1/f)",
        "G^t(1)",
        "measured",
    ];
    println!("Theorems 1-3: fixed points, limits and measured producer/other load ratio");
    println!("(measured: one-processor-generator model, {runs} runs x {ops} balancing ops)\n");
    println!("{}", render_table(&headers, &rows));
    println!("Expected shape: measured ≈ G^t(1) ≈ FIX ≤ lim(Thm2); FIX(1/f) ≥ lim(1/f).");

    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
