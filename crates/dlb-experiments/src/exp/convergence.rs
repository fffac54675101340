//! Convergence speed of the fixed-point iteration: the contraction rate
//! |G'(FIX)| predicts how many balancing operations the system needs to
//! reach its steady imbalance, cross-checked against the iterated
//! operator and the integer-packet simulator.
//!
//! Usage: `dlb-exp convergence
//!         [--eps 1e-4]`

use crate::args::{Args, Key};
use crate::report::{f3, render_table, write_csv};
use dlb_core::one_proc::mean_ratio_after_ops;
use dlb_core::Params;
use dlb_theory::operators::fix;
use dlb_theory::schedule::{
    contraction_rate, measured_convergence_steps, predicted_convergence_steps,
};

pub const KEYS: &[Key] = crate::keys!["eps": f64, "out": String];

pub fn run(args: &Args) {
    let eps: f64 = args.get("eps", 1e-4);
    let out: String = args.get("out", "results/convergence.csv".to_string());

    let grid: Vec<(usize, usize, f64)> = vec![
        (16, 1, 1.1),
        (64, 1, 1.1),
        (64, 1, 1.8),
        (64, 4, 1.1),
        (64, 4, 1.8),
        (256, 2, 1.3),
        (1024, 8, 2.0),
    ];
    println!("Convergence of G^t(1) to FIX (relative eps = {eps})\n");
    let mut rows = Vec::new();
    for &(n, delta, f) in &grid {
        let rate = contraction_rate(n, delta, f);
        let predicted = predicted_convergence_steps(n, delta, f, eps);
        let measured = measured_convergence_steps(n, delta, f, eps);
        // Empirical: simulate until `measured` ops and check proximity.
        let params = Params::new(n, delta, f, 4).expect("valid");
        let sim_runs = if n > 256 { 5 } else { 20 };
        let empirical = mean_ratio_after_ops(params, measured as u64 + 5, sim_runs, 10_000, 7);
        let fx = fix(n, delta, f);
        rows.push(vec![
            n.to_string(),
            delta.to_string(),
            format!("{f:.2}"),
            f3(rate),
            predicted.to_string(),
            measured.to_string(),
            f3(fx),
            f3(empirical),
        ]);
    }
    let headers = vec![
        "n",
        "delta",
        "f",
        "|G'(FIX)|",
        "predicted t",
        "measured t",
        "FIX",
        "sim ratio",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("Expected shape: predicted ≈ measured; the rate (and hence convergence");
    println!("time) is governed by delta and f, not by n — the paper's locality claim.");
    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
