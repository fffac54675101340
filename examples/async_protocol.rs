//! The balancer as a real message protocol: event-driven simulation with
//! latency, lock conflicts and (optionally) lost control messages — the
//! machinery behind the paper's "a load balancing operation can be
//! performed in constant time" assumption, made explicit.
//!
//!     cargo run --release --example async_protocol [latency] [loss]

use dlb::core::Params;
use dlb::faults::FaultPlan;
use dlb::net::{AsyncConfig, AsyncNetwork};
use dlb::workload::patterns::UniformRandom;
use dlb::workload::Workload;

fn main() {
    let mut args = std::env::args().skip(1);
    let latency: u64 = args
        .next()
        .map(|a| a.parse().expect("latency"))
        .unwrap_or(4);
    let loss: f64 = args.next().map(|a| a.parse().expect("loss")).unwrap_or(0.1);

    let n = 32;
    let params = Params::new(n, 2, 1.3, 4).expect("valid");
    let plan = FaultPlan {
        loss,
        ..FaultPlan::default()
    };
    let mut net =
        AsyncNetwork::with_faults(AsyncConfig::reliable(params, latency, 7), plan).expect("plan");

    // Generate 50 %, consume 30 %, idle 20 % per processor and tick.
    let mut workload = UniformRandom::new(n, 0.5, 0.3, 3);
    let mut events = Vec::new();
    let steps = 6_000u64;
    for t in 0..steps {
        workload.events_at(t as usize, &mut events);
        net.tick(t, &events);
        if (t + 1) % 1500 == 0 {
            let s = net.load_summary();
            let mean = s.mean(n);
            println!(
                "t = {:5}: mean {:8.2}  max/mean {:.3}  in flight {:4}  locked {}",
                t + 1,
                mean,
                s.max as f64 / mean,
                net.in_flight(),
                net.locked_count()
            );
        }
    }
    net.quiesce();
    net.check_conservation().expect("no packet was lost");
    let s = net.stats();
    println!("\nprotocol statistics (latency {latency}, control loss {loss}):");
    println!("  completed ops      {}", s.completed_ops);
    println!("  aborted ops        {}", s.aborted_ops);
    println!("  messages           {}", s.messages);
    println!("  lost messages      {}", s.lost_messages);
    println!("  timeout recoveries {}", s.timeout_recoveries);
    println!("  packets moved      {}", s.packets_moved);
    println!(
        "\nconservation verified; all locks released: {}",
        net.locked_count() == 0
    );
}
