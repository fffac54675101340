//! The paper's "very good performance even on networks containing up to
//! 1024 processors" claim: balancing quality and per-step cost of the
//! practical variant as the network grows, plus the full variant at
//! moderate sizes.
//!
//! Usage: `dlb-exp scaling
//!         [--steps 500] [--runs 5]`

use crate::args::{Args, Key};
use crate::quality::sampled_quality;
use crate::report::{f3, render_table, write_csv};
use dlb_core::{Cluster, LoadBalancer, Params, SimpleCluster};
use std::time::Instant;

/// `(max/mean, ops per run, wall µs per step)` of one configuration.
fn measure<B: LoadBalancer>(
    make: impl Fn(u64) -> B,
    n: usize,
    steps: usize,
    runs: usize,
) -> (f64, f64, f64) {
    let start = Instant::now();
    let q = sampled_quality(make, n, steps, runs, 100, steps / 2, 50);
    let elapsed = start.elapsed().as_secs_f64();
    (
        q.max_over_mean,
        q.ops,
        elapsed / (runs * steps) as f64 * 1e6,
    )
}

pub const KEYS: &[Key] = crate::keys!["steps": usize, "runs": usize, "out": String];

pub fn run(args: &Args) {
    let steps: usize = args.get("steps", 500);
    let runs: usize = args.get("runs", 5);
    let out: String = args.get("out", "results/scaling.csv".to_string());

    println!("Scaling: section-7 workload, delta = 1, f = 1.1 ({steps} steps, {runs} runs)\n");
    let mut rows = Vec::new();
    for n in [16usize, 64, 256, 1024] {
        let params = Params::paper_section7(n);
        let (simple_ratio, simple_ops, simple_us) =
            measure(|s| SimpleCluster::new(params, s), n, steps, runs);
        // The full variant keeps O(n) state per processor (the virtual
        // load classes); at n = 1024 we use fewer runs.
        let full_runs = if n >= 1024 { runs.min(2) } else { runs };
        let full = {
            let (r, o, us) = measure(|s| Cluster::new(params, s), n, steps, full_runs);
            Some((r, o, us))
        };
        rows.push(vec![
            n.to_string(),
            f3(simple_ratio),
            f3(simple_ops),
            f3(simple_us),
            full.map_or("-".into(), |f| f3(f.0)),
            full.map_or("-".into(), |f| f3(f.1)),
            full.map_or("-".into(), |f| f3(f.2)),
        ]);
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
