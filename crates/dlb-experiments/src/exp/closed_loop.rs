//! Closed-loop speedup: the motivation of §1 measured directly.  A
//! branching-process computation (a random task tree, as in backtrack
//! search / branch & bound) is rooted on one processor; every processor
//! consumes one packet per step *if it has one*.  The makespan with the
//! SPAA'93 balancer versus without balancing shows how much wall time the
//! algorithm buys.  The same task trees judge the `closed_loop.speedup`
//! claim.
//!
//! Usage: `dlb-exp closed_loop [--jobs N] [--out results]`
//! (jobs default to the available cores)

use super::{minus, shape, Row};
use crate::args::{Args, Key};
use crate::outln;
use crate::parallel::{default_jobs, par_map};
use crate::report::{f3, render_table, write_csv};
use dlb_baselines::{NoBalance, Rsu91, WorkStealing};
use dlb_core::{Cluster, LoadBalancer, Params, SimpleCluster};
use dlb_theory::claims::{Estimate, BATCHES};
use dlb_workload::branching::{run_branching, Offspring};

/// Tasks rooted on processor 0, and seeded task trees per balancer.
const ROOTS: u32 = 400;
const RUNS: usize = BATCHES;
const NS: [usize; 3] = [4, 8, 16];
/// The balancers of each n, in the table's column order.
const BALANCERS: [&str; 5] = ["none", "rsu91", "stealing", "simple", "full"];

/// `(makespan, tasks processed)` of each task tree, a fresh balancer
/// from `make(r)` on the tree of seed `100 + r`.  Every task has 2
/// children with probability 0.495 (mean 0.99).
fn makespans<B: LoadBalancer>(make: impl Fn(u64) -> B) -> Vec<(usize, u64)> {
    let offspring = Offspring::bernoulli(2, 0.495);
    (0..RUNS)
        .map(|r| {
            let mut balancer = make(r as u64);
            let out = run_branching(&mut balancer, &offspring, ROOTS, 5_000_000, 100 + r as u64);
            assert!(out.drained, "run {r} did not drain");
            (out.makespan, out.processed)
        })
        .collect()
}

pub(super) const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

pub(super) fn run(args: &Args) -> Vec<Row> {
    let jobs: usize = args.get("jobs", default_jobs());
    let out = args.output("closed_loop.csv");

    outln!(
        "Closed-loop branching computation ({ROOTS} roots on processor 0, \
         mean offspring 0.99, {RUNS} runs)\n"
    );
    // spans[k * BALANCERS.len() + b]: balancer b at NS[k].
    let spans = par_map(jobs, NS.len() * BALANCERS.len(), |i| {
        let n = NS[i / BALANCERS.len()];
        let params = Params::new(n, 2, 1.3, 4).expect("valid");
        match BALANCERS[i % BALANCERS.len()] {
            "none" => makespans(|_| NoBalance::new(n)),
            "rsu91" => makespans(|s| Rsu91::new(n, s)),
            "stealing" => makespans(|s| WorkStealing::new(n, s)),
            "simple" => makespans(|s| SimpleCluster::new(params, s)),
            _ => makespans(|s| Cluster::new(params, s)),
        }
    });
    let spans: Vec<&[Vec<(usize, u64)>]> = spans.chunks(BALANCERS.len()).collect();
    let mean = |runs: &[(usize, u64)], of: fn(&(usize, u64)) -> f64| {
        runs.iter().map(of).sum::<f64>() / RUNS as f64
    };

    let mut rows = Vec::new();
    for (n, spans) in NS.iter().zip(&spans) {
        let ms: Vec<f64> = spans
            .iter()
            .map(|runs| mean(runs, |r| r.0 as f64))
            .collect();
        let mut row = vec![n.to_string(), f3(mean(&spans[0], |r| r.1 as f64))];
        row.extend(ms.iter().map(|&m| f3(m)));
        row.extend(ms[3..].iter().map(|&m| f3(ms[0] / m)));
        rows.push(row);
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
    outln!("{}", render_table(&headers, &rows));
    write_csv(&out, &headers, &rows).expect("CSV written");
    outln!("\nwrote {out}");
    judge(&spans)
}

/// The `closed_loop.speedup` claim on `spans[k][kind]`, the trees of
/// balancer `kind` at `NS[k]`.
fn judge(spans: &[&[Vec<(usize, u64)>]]) -> Vec<Row> {
    let speedup = |k: usize, kind: usize| -> Vec<f64> {
        let none = &spans[k][0];
        none.iter()
            .zip(&spans[k][kind])
            .map(|(a, b)| a.0 as f64 / b.0 as f64)
            .collect()
    };
    let runs = format!("{RUNS} task trees of seeds 100..");
    let mut rows = Vec::new();
    for kind in [3, 4] {
        let name = BALANCERS[kind];
        for k in 0..NS.len() - 1 {
            let (a, b) = (NS[k], NS[k + 1]);
            let regime = format!("{name} n={a}..{b} delta=2 f=1.3");
            let what = format!("speedup(n={b}) - speedup(n={a}) per tree: {runs}");
            let gain = Estimate::of_runs(&minus(&speedup(k + 1, kind), &speedup(k, kind)));
            rows.push(shape("closed_loop.speedup", &regime, &what, gain));
        }
    }
    rows
}
