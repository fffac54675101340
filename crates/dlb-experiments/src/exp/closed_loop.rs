//! Closed-loop speedup: the motivation of §1 measured directly.  A
//! branching-process computation (a random task tree, as in backtrack
//! search / branch & bound) is rooted on one processor; every processor
//! consumes one packet per step *if it has one*.  The makespan with the
//! SPAA'93 balancer versus without balancing shows how much wall time the
//! algorithm buys.  The shape it shows is the `closed_loop.speedup` row
//! of `dlb-exp claims`.
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
pub(super) const NS: [usize; 3] = [4, 8, 16];

/// The offspring law of every task: mean 0.99 children.
pub(super) fn offspring() -> Offspring {
    Offspring::bernoulli(2, 0.495)
}

/// The parameters of every trigger-rule balancer at `n`.
pub(super) fn params(n: usize) -> Params {
    Params::new(n, 2, 1.3, 4).expect("valid")
}

/// `(makespan, tasks processed)` of runs `0..runs`, each a fresh
/// balancer from `make(r)` on the task tree of seed `100 + r`.
pub(super) fn makespans<B: LoadBalancer>(
    make: impl Fn(u64) -> B,
    offspring: &Offspring,
    runs: usize,
) -> Vec<(usize, u64)> {
    (0..runs)
        .map(|r| {
            let mut balancer = make(r as u64);
            let out = run_branching(&mut balancer, offspring, ROOTS, 5_000_000, 100 + r as u64);
            assert!(out.drained, "run {r} did not drain");
            (out.makespan, out.processed)
        })
        .collect()
}

fn mean_makespan<B: LoadBalancer>(make: impl Fn(u64) -> B, offspring: &Offspring) -> (f64, f64) {
    let (mut makespan, mut processed) = (0.0, 0.0);
    for (m, p) in makespans(make, offspring, RUNS) {
        makespan += m as f64;
        processed += p as f64;
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
    let offspring = offspring();

    let mut rows = Vec::new();
    for n in NS {
        let params = params(n);
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
    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
