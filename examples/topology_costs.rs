//! What the paper's constant-cost assumption hides: the hop-weighted
//! communication volume of the balancer across interconnect topologies,
//! and the quality/cost effect of the locality variant (balancing with
//! topology neighbours only — the paper's stated further research).
//!
//!     cargo run --release --example topology_costs

use dlb::core::{imbalance_stats, LoadBalancer, Params};
use dlb::net::{PartnerMode, TopoCluster, TopoRule, Topology};
use dlb::workload::drive;
use dlb::workload::phase::{PhaseConfig, PhaseWorkload};

fn run(topology: Topology, mode: PartnerMode) -> (f64, f64, u32) {
    let n = topology.n();
    let params = Params::paper_section7(n);
    let diameter = topology.diameter();
    let mut cluster = TopoCluster::with_rule(params, TopoRule::new(topology, mode), 11);
    let mut workload = PhaseWorkload::new(n, 500, PhaseConfig::paper_section7(), 77);
    let mut ratio = 0.0;
    let mut samples = 0;
    drive(&mut cluster, &mut workload, 500, |t, c| {
        if t >= 100 && t % 20 == 0 {
            let stats = imbalance_stats(&c.loads());
            if stats.mean >= 5.0 {
                ratio += stats.max_over_mean;
                samples += 1;
            }
        }
    });
    let comm = cluster.rule().comm();
    let hops_per_packet = comm.packet_hops as f64 / comm.packets.max(1) as f64;
    (ratio / samples.max(1) as f64, hops_per_packet, diameter)
}

fn main() {
    let topologies: Vec<(&str, Topology)> = vec![
        ("complete", Topology::Complete { n: 64 }),
        ("hypercube", Topology::Hypercube { dim: 6 }),
        ("de Bruijn", Topology::DeBruijn { dim: 6 }),
        ("torus 8x8", Topology::Torus2D { w: 8, h: 8 }),
        ("ring", Topology::Ring { n: 64 }),
        ("star", Topology::Star { n: 64 }),
    ];
    println!("64 processors, section-7 workload, 500 steps, delta = 1, f = 1.1\n");
    println!(
        "{:>10} {:>5} | {:>20} | {:>20}",
        "topology", "diam", "global: ratio / hops", "local: ratio / hops"
    );
    println!("{}", "-".repeat(66));
    for (name, topo) in topologies {
        let (gr, gh, diam) = run(topo.clone(), PartnerMode::GlobalRandom);
        let (lr, lh, _) = run(topo, PartnerMode::Neighbors);
        println!("{name:>10} {diam:>5} | {gr:>10.3} {gh:>9.3} | {lr:>10.3} {lh:>9.3}");
    }
    println!("\nreading guide: global partner choice keeps quality topology-independent");
    println!("but pays the mean hop distance per packet; neighbour-only balancing pays");
    println!("1 hop/packet and loses quality on high-diameter graphs (ring).");
}
