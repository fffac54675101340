//! §6 cost analysis: measured balancing operations of the decrease
//! simulation versus the Lemma 5 lower/upper bounds and the improved
//! Lemma 6 bound, across `f`, `δ` and the decrease ratio `c/x`.
//!
//! Usage: `dlb-exp lemma_bounds
//!         [--n 64] [--runs 50] [--x 1000]`

use crate::args::{Args, Key};
use crate::report::{f3, render_table, write_csv};
use dlb_core::one_proc::mean_decrease_ops;
use dlb_core::Params;
use dlb_theory::CostBounds;

pub const KEYS: &[Key] = crate::keys!["n": usize, "runs": usize, "x": u64, "out": String];

pub fn run(args: &Args) {
    let n: usize = args.get("n", 64);
    let runs: usize = args.get("runs", 50);
    let x: u64 = args.get("x", 1000);
    let out: String = args.get("out", "results/lemma_bounds.csv".to_string());

    let grid: Vec<(Params, u64)> = [
        (1, 1.05, x / 2),
        (1, 1.1, x / 4),
        (1, 1.1, x / 2),
        (1, 1.1, 3 * x / 4),
        (1, 1.3, x / 2),
        (1, 1.8, x / 2),
        (2, 1.1, x / 2),
        (4, 1.1, x / 2),
        (8, 1.1, x / 2),
    ]
    .into_iter()
    .map(|(delta, f, c)| (args.build_or_exit(&["n"], Params::new(n, delta, f, 4)), c))
    .collect();

    println!("Lemmas 5/6: balancing operations to simulate a decrease of c from x = {x}");
    println!("({n} processors, {runs} runs per row)\n");

    let mut rows = Vec::new();
    for &(params, c) in &grid {
        let cb = CostBounds::for_params(params.algo());
        let measured = mean_decrease_ops(params, x, c, runs, 5);
        let fmt = |v: Option<u64>| v.map_or("-".to_string(), |t| t.to_string());
        rows.push(vec![
            params.delta().to_string(),
            format!("{:.2}", params.f()),
            c.to_string(),
            fmt(cb.lemma5_lower(x, c)),
            f3(measured),
            fmt(cb.lemma6_upper(x, c, 100_000)),
            fmt(cb.lemma5_upper(x, c)),
        ]);
    }
    let headers = vec![
        "delta",
        "f",
        "c",
        "lemma5 lower",
        "measured",
        "lemma6 upper",
        "lemma5 upper",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("Expected shape: lower <= measured <= upper; the Lemma 6 bound tighter than");
    println!("Lemma 5; cost very sensitive to f, nearly independent of delta and of x at");
    println!("fixed c/x ('-' marks configurations outside a bound's validity domain).");
    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
