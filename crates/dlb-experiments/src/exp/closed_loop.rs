//! Closed-loop speedup: the motivation of §1 measured directly.  A
//! branching-process computation (a random task tree, as in backtrack
//! search / branch & bound) is rooted on one processor; every processor
//! consumes one packet per step *if it has one*.  The makespan with the
//! SPAA'93 balancer versus without balancing shows how much wall time the
//! algorithm buys.
//!
//! Usage: `dlb-exp closed_loop [--out results/closed_loop.csv]`

use crate::args::{Args, Key};
use crate::report::{f3, render_table, write_csv};
use dlb_baselines::{NoBalance, Rsu91, WorkStealing};
use dlb_core::{Cluster, LoadBalancer, Params, SimpleCluster};
use dlb_workload::branching::{run_branching, Offspring};

/// Tasks rooted on processor 0, and seeded runs per balancer.
const ROOTS: u32 = 400;
const RUNS: usize = 10;

fn mean_makespan<B: LoadBalancer>(make: impl Fn(u64) -> B, offspring: &Offspring) -> (f64, f64) {
    let mut makespan = 0.0;
    let mut processed = 0.0;
    for r in 0..RUNS {
        let mut balancer = make(r as u64);
        let out = run_branching(&mut balancer, offspring, ROOTS, 5_000_000, 100 + r as u64);
        assert!(out.drained, "run {r} did not drain");
        makespan += out.makespan as f64;
        processed += out.processed as f64;
    }
    (makespan / RUNS as f64, processed / RUNS as f64)
}

pub const KEYS: &[Key] = crate::keys!["out": String];

pub fn run(args: &Args) {
    let out: String = args.get("out", "results/closed_loop.csv".to_string());

    println!(
        "Closed-loop branching computation ({ROOTS} roots on processor 0, \
         mean offspring 0.99, {RUNS} runs)\n"
    );
    let offspring = Offspring::bernoulli(2, 0.495);

    let mut rows = Vec::new();
    for n in [4usize, 8, 16] {
        let params = Params::new(n, 2, 1.3, 4).expect("valid");
        let (none_ms, none_proc) = mean_makespan(|_| NoBalance::new(n), &offspring);
        let base = none_ms;
        let (simple_ms, _) = mean_makespan(|s| SimpleCluster::new(params, s), &offspring);
        let (full_ms, _) = mean_makespan(|s| Cluster::new(params, s), &offspring);
        let (rsu_ms, _) = mean_makespan(|s| Rsu91::new(n, s), &offspring);
        let (steal_ms, _) = mean_makespan(|s| WorkStealing::new(n, s), &offspring);
        rows.push(vec![
            n.to_string(),
            f3(none_proc),
            f3(none_ms),
            f3(rsu_ms),
            f3(steal_ms),
            f3(simple_ms),
            f3(full_ms),
            f3(base / simple_ms),
            f3(base / full_ms),
        ]);
    }
    let headers = vec![
        "n",
        "tree size",
        "makespan none",
        "makespan rsu91",
        "makespan stealing",
        "makespan simple",
        "makespan full",
        "speedup simple",
        "speedup full",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("Expected shape: speedup grows with n towards the ideal n× (the tree is");
    println!("serial without balancing since all packets sit on processor 0).");
    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
