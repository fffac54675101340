//! Theorem 4: verifies `E(l_i) ≤ f²·δ/(δ+1−f)·(E(l_j) + C)` for all
//! processor pairs on the §7 workload, for several `C` and `(δ, f)`.
//!
//! Usage: `dlb-exp thm4_check
//!         [--n 64] [--steps 500] [--runs 30] [--out results/thm4.csv]
//!         [--jobs N]`

use crate::args::{Args, Key};
use crate::parallel::default_jobs;
use crate::quality::theorem4_check;
use crate::report::{f3, render_table, write_csv};
use dlb_core::Params;
use dlb_theory::TheoremBounds;

pub const KEYS: &[Key] =
    crate::keys!["n": usize, "steps": usize, "runs": usize, "jobs": usize, "out": String];

pub fn run(args: &Args) {
    let n: usize = args.get("n", 64);
    let steps: usize = args.get("steps", 500);
    let runs: usize = args.get("runs", 30);
    let jobs: usize = args.get("jobs", default_jobs());
    let out: String = args.get("out", "results/thm4.csv".to_string());
    let checkpoints = [steps / 10, steps / 2, steps - 1];

    let grid: Vec<Params> = [
        (1, 1.1, 4),
        (1, 1.1, 32),
        (1, 1.8, 4),
        (4, 1.1, 4),
        (4, 1.8, 4),
        (2, 1.4, 8),
    ]
    .into_iter()
    .map(|(delta, f, c)| args.build_or_exit(&["n"], Params::new(n, delta, f, c)))
    .collect();

    let mut rows = Vec::new();
    for &params in &grid {
        let bounds = TheoremBounds::for_params(params.algo());
        let (checked, violations) = theorem4_check(params, steps, &checkpoints, runs, 7, jobs);
        rows.push(vec![
            params.delta().to_string(),
            format!("{:.2}", params.f()),
            params.c_borrow().to_string(),
            f3(bounds.theorem4_coeff),
            checked.to_string(),
            violations.to_string(),
        ]);
    }

    let headers = vec![
        "delta",
        "f",
        "C",
        "f^2*d/(d+1-f)",
        "pairs checked",
        "violations",
    ];
    println!("Theorem 4: E(l_i) <= f^2*delta/(delta+1-f) * (E(l_j) + C)");
    println!("({n} processors, section-7 workload, {runs} runs, checkpoints {checkpoints:?})\n");
    println!("{}", render_table(&headers, &rows));
    println!("Expected shape: zero violations in every configuration.");
    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
