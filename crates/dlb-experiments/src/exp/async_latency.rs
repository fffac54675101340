//! The constant-time assumption stress-tested: the balancer as a real
//! message protocol on the event-driven asynchronous network, with the
//! per-message latency swept from 1 to 64 ticks.  Shows how balance
//! quality and protocol overhead degrade as the network slows relative to
//! the load dynamics (§2 argues the degradation is negligible for
//! wormhole-routed machines, i.e. the low-latency end).
//!
//! Usage: `dlb-exp async_latency
//!         [--n 64] [--steps 4000]`

use crate::args::{Args, Key};
use crate::report::{f3, render_table, write_csv};
use dlb_core::Params;
use dlb_net::{AsyncConfig, AsyncNetwork, AsyncStats};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::num::NonZeroUsize;

/// Drives one network through the mixed workload (50% generate, 30%
/// consume, 20% idle per processor and tick) and returns the mean
/// sampled max/mean ratio with the protocol counters.
fn drive(config: AsyncConfig, n: usize, steps: u64) -> (f64, AsyncStats) {
    let mut net = AsyncNetwork::new(config);
    let mut wl_rng = ChaCha8Rng::seed_from_u64(5);
    let mut ratio = 0.0;
    let mut samples = 0usize;
    for t in 0..steps {
        let actions: Vec<i8> = (0..n)
            .map(|_| match wl_rng.gen_range(0..10) {
                0..=4 => 1,
                5..=7 => -1,
                _ => 0,
            })
            .collect();
        net.tick(t, &actions);
        if t >= steps / 4 && t % 50 == 0 {
            let s = net.load_summary();
            let mean = s.mean(n);
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

pub const KEYS: &[Key] = crate::keys!["n": usize, "steps": NonZeroUsize, "out": String];

pub fn run(args: &Args) {
    let n: usize = args.get("n", 64);
    let steps = args.count("steps", 4000) as u64;
    let out: String = args.get("out", "results/async_latency.csv".to_string());
    let params = args.build_or_exit(&["n"], Params::new(n, 2, 1.3, 4));

    println!(
        "Asynchronous protocol: quality vs message latency \
         ({n} procs, {steps} ticks, delta = 2, f = 1.3, mixed workload)\n"
    );
    let mut rows = Vec::new();
    for latency in [1u64, 4, 16, 64] {
        let (ratio, s) = drive(AsyncConfig::reliable(params, latency, 11), n, steps);
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

    // Failure injection: control-message loss at fixed latency 4.
    let mut loss_rows = Vec::new();
    for loss in [0.0f64, 0.05, 0.2, 0.5] {
        let mut cfg = AsyncConfig::reliable(params, 4, 13);
        cfg.control_loss = loss;
        let (ratio, s) = drive(cfg, n, steps);
        loss_rows.push(vec![
            format!("{loss:.2}"),
            f3(ratio),
            s.completed_ops.to_string(),
            s.lost_messages.to_string(),
            s.timeout_recoveries.to_string(),
        ]);
    }
    println!("Failure injection (latency 4, control-message loss swept):");
    println!(
        "{}",
        render_table(
            &[
                "loss",
                "max/mean",
                "completed ops",
                "lost msgs",
                "timeout recoveries"
            ],
            &loss_rows
        )
    );
    println!("Expected shape: quality near the synchronous simulator at latency 1 and");
    println!("degrading gracefully as latency grows; abort rate rises with contention.");
    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
