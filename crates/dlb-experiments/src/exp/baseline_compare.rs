//! §1/§5 qualitative claims: the SPAA'93 algorithm versus the baselines
//! (no balancing, random scatter, RSU'91, gradient model), all driven by
//! the identical recorded §7 workload trace per run.
//!
//! Usage: `dlb-exp baseline_compare
//!         [--n 64] [--steps 500] [--runs 30]`

use crate::args::{Args, Key};
use crate::quality::{sampled_quality, SampledQuality};
use crate::report::{f3, render_table, write_csv};
use dlb_baselines::{Diffusion, Gradient, NoBalance, RandomScatter, Rsu91, WorkStealing};
use dlb_core::{Cluster, LoadBalancer, Params, SimpleCluster};
use dlb_net::Topology;

fn measure<B: LoadBalancer>(
    make: impl Fn(u64) -> B,
    n: usize,
    steps: usize,
    runs: usize,
) -> SampledQuality {
    sampled_quality(make, n, steps, runs, 9000, 100, 25)
}

pub const KEYS: &[Key] = crate::keys!["n": usize, "steps": usize, "runs": usize, "out": String];

pub fn run(args: &Args) {
    let n: usize = args.get("n", 64);
    let steps: usize = args.get("steps", 500);
    let runs: usize = args.get("runs", 30);
    let out: String = args.get("out", "results/baselines.csv".to_string());

    let params = args.build_or_exit(&["n"], Params::new(n, 1, 1.1, 4));
    let params_d4 = args.build_or_exit(&["n"], Params::new(n, 4, 1.1, 4));
    let torus_w = (n as f64).sqrt() as usize;

    println!(
        "Baseline comparison on the identical section-7 traces \
         ({n} procs, {steps} steps, {runs} runs)\n"
    );

    let rows_data = [
        measure(|s| Cluster::new(params, s), n, steps, runs),
        measure(|s| Cluster::new(params_d4, s), n, steps, runs),
        measure(|s| SimpleCluster::new(params, s), n, steps, runs),
        measure(|s| Rsu91::new(n, s), n, steps, runs),
        measure(|s| WorkStealing::new(n, s), n, steps, runs),
        measure(
            |_| {
                Gradient::new(
                    Topology::Torus2D {
                        w: torus_w,
                        h: n / torus_w,
                    },
                    2,
                    8,
                )
            },
            n,
            steps,
            runs,
        ),
        measure(
            |_| {
                Diffusion::new(
                    Topology::Torus2D {
                        w: torus_w,
                        h: n / torus_w,
                    },
                    0.2,
                )
            },
            n,
            steps,
            runs,
        ),
        measure(|s| RandomScatter::new(n, s), n, steps, runs),
        measure(|_| NoBalance::new(n), n, steps, runs),
    ];

    let labels = [
        "spaa93 d=1",
        "spaa93 d=4",
        "spaa93 simple",
        "rsu91",
        "stealing",
        "gradient",
        "diffusion",
        "scatter",
        "none",
    ];
    let mut rows = Vec::new();
    for (label, row) in labels.iter().zip(rows_data.iter()) {
        rows.push(vec![
            label.to_string(),
            row.name.to_string(),
            f3(row.max_over_mean),
            f3(row.std_over_mean),
            f3(row.migrated),
            f3(row.ops),
        ]);
    }
    let headers = vec![
        "config",
        "strategy",
        "max/mean",
        "std/mean",
        "migrated/run",
        "ops/run",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("Expected shape: spaa93 variants lowest max/mean and std/mean;");
    println!("random scatter: flat *expected* load but enormous std/mean (the §5 strawman);");
    println!("rsu91 in between (its 1/load trigger under-balances — the [10] critique);");
    println!("no balancing worst; migration cost ordered inversely to quality.");
    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
