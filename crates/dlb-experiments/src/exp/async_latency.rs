//! The constant-time assumption stress-tested: the balancer as a real
//! message protocol on the event-driven asynchronous network, with the
//! per-message latency swept from 1 to 64 ticks.  Shows how balance
//! quality and protocol overhead degrade as the network slows relative to
//! the load dynamics (§2 argues the degradation is negligible for
//! wormhole-routed machines, i.e. the low-latency end).
//!
//! Message loss is `faults_sweep`'s row.  Each latency's runs are
//! averaged into the table and judge the `async_latency.*` claims.
//!
//! Usage: `dlb-exp async_latency [--jobs N] [--out results]`
//! (jobs default to the available cores)

use super::{minus, shape, Row};
use crate::arena::run_seeded_async;
use crate::args::{Args, Key};
use crate::outln;
use crate::parallel::{default_jobs, par_map};
use crate::report::{f3, render_table, write_csv};
use dlb_core::Params;
use dlb_net::{AsyncConfig, AsyncStats};
use dlb_theory::claims::{Estimate, BATCHES};
use dlb_workload::patterns::UniformRandom;

/// Processors and ticks of every latency's run.
const N: usize = 64;
const STEPS: usize = 4000;
/// Every latency runs runs `0..RUNS` of this seed, so all see the same
/// workloads.
const SEED: u64 = 11;
const RUNS: usize = BATCHES;
const LATENCIES: [u64; 4] = [1, 4, 16, 64];

pub(super) const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

/// Run `r` of the protocol at `latency`: the mean sampled max/mean load
/// ratio once the loads have built up, and the network's counters.
fn run_at(latency: u64, r: u64) -> (f64, AsyncStats) {
    let params = Params::new(N, 2, 1.3, 4).expect("valid");
    let (mut ratio, mut samples) = (0.0, 0usize);
    let net = run_seeded_async(
        SEED,
        r,
        STEPS,
        None,
        |seed| (AsyncConfig::reliable(params, latency, seed), None),
        |seed| Box::new(UniformRandom::new(N, 0.5, 0.3, seed)),
        |t, net| {
            if t >= STEPS / 4 && t % 50 == 0 {
                let s = net.load_summary();
                let mean = s.mean(N);
                if mean >= 5.0 {
                    ratio += s.max as f64 / mean;
                    samples += 1;
                }
            }
        },
    )
    .expect("conservation holds and no lock leaks");
    (ratio / samples.max(1) as f64, *net.stats())
}

/// The share of operations that aborted.
fn abort_rate(s: &AsyncStats) -> f64 {
    s.aborted_ops as f64 / (s.completed_ops + s.aborted_ops).max(1) as f64
}

pub(super) fn run(args: &Args) -> Vec<Row> {
    let jobs: usize = args.get("jobs", default_jobs());
    let out = args.output("async_latency.csv");

    outln!(
        "Asynchronous protocol: quality vs message latency \
         ({N} procs, {STEPS} ticks, delta = 2, f = 1.3, uniform workload \
         p_gen = 0.5, p_con = 0.3, {RUNS} runs)\n"
    );
    let per_run = par_map(jobs, LATENCIES.len() * RUNS, |i| {
        run_at(LATENCIES[i / RUNS], (i % RUNS) as u64)
    });
    let per_latency: Vec<&[(f64, AsyncStats)]> = per_run.chunks(RUNS).collect();
    let mean = |runs: &[(f64, AsyncStats)], of: Of| runs.iter().map(of).sum::<f64>() / RUNS as f64;
    let mut rows = Vec::new();
    for (latency, runs) in LATENCIES.iter().zip(&per_latency) {
        let mut row = vec![latency.to_string()];
        row.extend(COLUMNS.map(|(_, of)| f3(mean(runs, of))));
        rows.push(row);
    }
    let mut headers = vec!["latency"];
    headers.extend(COLUMNS.map(|(name, _)| name));
    outln!("{}", render_table(&headers, &rows));
    write_csv(&out, &headers, &rows).expect("CSV written");
    outln!("\nwrote {out}");
    judge(&per_latency)
}

/// A statistic of one run.
type Of = fn(&(f64, AsyncStats)) -> f64;

/// The table's columns after the latency: each a mean over the runs.
const COLUMNS: [(&str, Of); 5] = [
    ("max/mean", |r| r.0),
    ("completed ops", |r| r.1.completed_ops as f64),
    ("aborted ops", |r| r.1.aborted_ops as f64),
    ("abort rate", |r| abort_rate(&r.1)),
    ("packets moved", |r| r.1.packets_moved as f64),
];

/// The `async_latency.*` claims on each latency's runs.
fn judge(per_latency: &[&[(f64, AsyncStats)]]) -> Vec<Row> {
    let series = |k: usize, of: Of| -> Vec<f64> { per_latency[k].iter().map(of).collect() };
    let runs = format!("{RUNS} runs of seed {SEED}");
    let mut rows = Vec::new();
    // The max/mean and the abort-rate columns.
    for (id, (what, of)) in [
        ("async_latency.ratio", COLUMNS[0]),
        ("async_latency.aborts", COLUMNS[3]),
    ] {
        for k in 0..LATENCIES.len() - 1 {
            let (a, b) = (LATENCIES[k], LATENCIES[k + 1]);
            let regime = format!("n=64 delta=2 f=1.3 latency={a}..{b}");
            let observation = format!("{what}(latency={b}) - {what}(latency={a}) per run: {runs}");
            let rise = Estimate::of_runs(&minus(&series(k + 1, of), &series(k, of)));
            rows.push(shape(id, &regime, &observation, rise));
        }
    }
    rows
}
