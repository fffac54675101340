//! The constant-time assumption stress-tested: the balancer as a real
//! message protocol on the event-driven asynchronous network, with the
//! per-message latency swept from 1 to 64 ticks.  Shows how balance
//! quality and protocol overhead degrade as the network slows relative to
//! the load dynamics (§2 argues the degradation is negligible for
//! wormhole-routed machines, i.e. the low-latency end).
//!
//! Message loss is `faults_sweep`'s row.
//!
//! Usage: `dlb-exp async_latency [--out results/async_latency.csv]`

use crate::args::{Args, Key};
use crate::faultsweep::mixed_action;
use crate::report::{f3, render_table, write_csv};
use dlb_core::Params;
use dlb_net::{AsyncConfig, AsyncNetwork, AsyncStats};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Processors and ticks of every latency's run.
const N: usize = 64;
const STEPS: u64 = 4000;

/// Drives one network through the mixed workload (50% generate, 30%
/// consume, 20% idle per processor and tick) and returns the mean
/// sampled max/mean ratio with the protocol counters.
fn drive(config: AsyncConfig) -> (f64, AsyncStats) {
    let mut net = AsyncNetwork::new(config);
    let mut wl_rng = ChaCha8Rng::seed_from_u64(5);
    let mut ratio = 0.0;
    let mut samples = 0usize;
    let mut actions = [0i8; N];
    for t in 0..STEPS {
        for a in &mut actions {
            *a = mixed_action(&mut wl_rng);
        }
        net.tick(t, &actions);
        if t >= STEPS / 4 && t % 50 == 0 {
            let s = net.load_summary();
            let mean = s.mean(N);
            if mean >= 5.0 {
                ratio += s.max as f64 / mean;
                samples += 1;
            }
        }
    }
    net.quiesce();
    net.check_conservation().expect("conservation");
    (ratio / samples.max(1) as f64, *net.stats())
}

pub const KEYS: &[Key] = crate::keys!["out": String];

pub fn run(args: &Args) {
    let out: String = args.get("out", "results/async_latency.csv".to_string());
    let params = Params::new(N, 2, 1.3, 4).expect("valid");

    println!(
        "Asynchronous protocol: quality vs message latency \
         ({N} procs, {STEPS} ticks, delta = 2, f = 1.3, mixed workload)\n"
    );
    let mut rows = Vec::new();
    for latency in [1u64, 4, 16, 64] {
        let (ratio, s) = drive(AsyncConfig::reliable(params, latency, 11));
        rows.push(vec![
            latency.to_string(),
            f3(ratio),
            s.completed_ops.to_string(),
            s.aborted_ops.to_string(),
            f3(s.aborted_ops as f64 / (s.completed_ops + s.aborted_ops).max(1) as f64),
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
    println!("Expected shape: quality near the synchronous simulator at latency 1 and");
    println!("degrading gracefully as latency grows; abort rate rises with contention.");
    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
