//! Checkpoint/restore: snapshot the full algorithm's state mid-run
//! (including the exact random-stream position), serialise it to JSON,
//! restore it and verify the continuation is bit-identical.
//!
//!     cargo run --release --example checkpoint

use dlb::core::{Cluster, ClusterSnapshot, LoadBalancer, Params};
use dlb::workload::phase::PhaseWorkload;
use dlb::workload::Workload;

fn main() {
    let params = Params::paper_section7(32);
    let mut workload = PhaseWorkload::new(32, 400, Default::default(), 9);
    let mut events = Vec::new();

    // Run the first half.
    let mut cluster = Cluster::new(params, 123);
    for t in 0..200 {
        workload.events_at(t, &mut events);
        cluster.step(&events);
    }

    // Checkpoint to JSON (as a file-backed checkpoint would).
    let snapshot = cluster.snapshot();
    let json = snapshot.to_json();
    println!("snapshot at t = 200: {} bytes of JSON", json.len());

    // Restore into a fresh cluster and continue both.
    let restored_snap = ClusterSnapshot::from_json(&json).expect("parse");
    let mut restored = Cluster::restore(&restored_snap).expect("restore");
    for t in 200..400 {
        workload.events_at(t, &mut events);
        cluster.step(&events);
        restored.step(&events);
    }

    assert_eq!(cluster.loads(), restored.loads(), "loads identical");
    assert_eq!(cluster.metrics(), restored.metrics(), "metrics identical");
    restored.check_invariants().expect("invariants hold");
    println!("continuation is bit-identical after 200 more steps:");
    println!("  total load {}", cluster.loads().iter().sum::<u64>());
    println!("  balance ops {}", cluster.metrics().balance_ops);
    println!("checkpoint/restore verified.");
}
