//! The constant-time assumption stress-tested: the balancer as a real
//! message protocol on the event-driven asynchronous network, with the
//! per-message latency swept from 1 to 64 ticks.  Shows how balance
//! quality and protocol overhead degrade as the network slows relative to
//! the load dynamics (§2 argues the degradation is negligible for
//! wormhole-routed machines, i.e. the low-latency end).
//!
//! Message loss is `faults_sweep`'s row.  The shapes it shows are
//! `async_latency.*` rows of `dlb-exp claims`.
//!
//! Usage: `dlb-exp async_latency [--out results/async_latency.csv]`

use crate::arena::run_seeded_async;
use crate::args::{Args, Key};
use crate::report::{f3, render_table, write_csv};
use dlb_core::Params;
use dlb_net::{AsyncConfig, AsyncStats};
use dlb_workload::patterns::UniformRandom;

/// Processors and ticks of every latency's run.
const N: usize = 64;
const STEPS: usize = 4000;
/// Every latency runs run 0 of this seed, so all see the same workload.
const SEED: u64 = 11;

pub const KEYS: &[Key] = crate::keys!["out": String];

pub(super) const LATENCIES: [u64; 4] = [1, 4, 16, 64];

/// Run `r` of the protocol at `latency`: the mean sampled max/mean load
/// ratio once the loads have built up, and the network's counters.
pub(super) fn run_at(latency: u64, r: u64) -> (f64, AsyncStats) {
    let params = Params::new(N, 2, 1.3, 4).expect("valid");
    let (mut ratio, mut samples) = (0.0, 0usize);
    let net = run_seeded_async(
        SEED,
        r,
        STEPS,
        None,
        |seed| Ok((AsyncConfig::reliable(params, latency, seed), None)),
        |seed| Ok(Box::new(UniformRandom::new(N, 0.5, 0.3, seed))),
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
pub(super) fn abort_rate(s: &AsyncStats) -> f64 {
    s.aborted_ops as f64 / (s.completed_ops + s.aborted_ops).max(1) as f64
}

pub fn run(args: &Args) {
    let out: String = args.get("out", "results/async_latency.csv".to_string());

    println!(
        "Asynchronous protocol: quality vs message latency \
         ({N} procs, {STEPS} ticks, delta = 2, f = 1.3, uniform workload \
         p_gen = 0.5, p_con = 0.3)\n"
    );
    let mut rows = Vec::new();
    for latency in LATENCIES {
        let (ratio, s) = run_at(latency, 0);
        rows.push(vec![
            latency.to_string(),
            f3(ratio),
            s.completed_ops.to_string(),
            s.aborted_ops.to_string(),
            f3(abort_rate(&s)),
            s.packets_moved.to_string(),
        ]);
    }
    let headers = vec![
        "latency",
        "max/mean",
        "completed ops",
        "aborted ops",
        "abort rate",
        "packets moved",
    ];
    println!("{}", render_table(&headers, &rows));
    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
