//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. full virtual-class algorithm vs the practical raw-load variant;
//! 2. `Strict` vs `Aggressive` exchange policy (the appendix's literal
//!    `x = min{d_jj, Σ_k b_ik}` rule);
//! 3. global-random partners vs topology-neighbour partners (locality)
//!    with hop-weighted communication cost on a 2-D torus.
//!
//! Usage: `dlb-exp ablation
//!         [--n 64] [--steps 500] [--runs 20]`

use crate::args::{Args, Key};
use crate::quality::{paper_trace, sampled_quality};
use crate::report::{f3, render_table, write_csv};
use dlb_core::{Cluster, ExchangePolicy, LoadBalancer, Params, SimpleCluster};
use dlb_net::{PartnerMode, TopoCluster, TopoRule, Topology};
use dlb_workload::drive;

/// `(max/mean, migrated per run, ops per run)` of one variant.
fn quality<B: LoadBalancer>(
    make: impl Fn(u64) -> B,
    n: usize,
    steps: usize,
    runs: usize,
) -> (f64, f64, f64) {
    let q = sampled_quality(make, n, steps, runs, 7000, 100, 25);
    (q.max_over_mean, q.migrated, q.ops)
}

pub const KEYS: &[Key] = crate::keys!["n": usize, "steps": usize, "runs": usize, "out": String];

pub fn run(args: &Args) {
    let n: usize = args.get("n", 64);
    let steps: usize = args.get("steps", 500);
    let runs: usize = args.get("runs", 20);
    let out: String = args.get("out", "results/ablation.csv".to_string());

    let params = args.build_or_exit(&["n"], Params::new(n, 1, 1.1, 4));
    println!("Ablations ({n} procs, section-7 workload, {steps} steps, {runs} runs)\n");

    let mut rows = Vec::new();
    let mut push = |label: &str, (ratio, migrated, ops): (f64, f64, f64)| {
        rows.push(vec![label.to_string(), f3(ratio), f3(migrated), f3(ops)]);
    };

    push(
        "full / strict",
        quality(|s| Cluster::new(params, s), n, steps, runs),
    );
    push(
        "full / aggressive",
        quality(
            |s| Cluster::new(params.with_exchange(ExchangePolicy::Aggressive), s),
            n,
            steps,
            runs,
        ),
    );
    push(
        "simple (raw loads)",
        quality(|s| SimpleCluster::new(params, s), n, steps, runs),
    );

    let w = (n as f64).sqrt() as usize;
    let torus = Topology::Torus2D { w, h: n / w };
    let topo =
        |mode, seed| TopoCluster::with_rule(params, TopoRule::new(torus.clone(), mode), seed);
    push(
        "topo: global partners",
        quality(|s| topo(PartnerMode::GlobalRandom, s), n, steps, runs),
    );
    push(
        "topo: neighbours only",
        quality(|s| topo(PartnerMode::Neighbors, s), n, steps, runs),
    );

    let headers = vec!["variant", "max/mean", "migrated/run", "ops/run"];
    println!("{}", render_table(&headers, &rows));

    // Hop-weighted cost of the locality choice.
    let mut hop_rows = Vec::new();
    for (label, mode) in [
        ("global", PartnerMode::GlobalRandom),
        ("neighbours", PartnerMode::Neighbors),
    ] {
        let trace = paper_trace(n, steps, 7000);
        let mut c = topo(mode, 1);
        let mut replay = trace.replay();
        drive(&mut c, &mut replay, steps, |_, _| {});
        let comm = c.rule().comm();
        hop_rows.push(vec![
            label.to_string(),
            comm.packets.to_string(),
            comm.packet_hops.to_string(),
            f3(comm.packet_hops as f64 / comm.packets.max(1) as f64),
        ]);
    }
    println!("Hop-weighted communication on the torus (single run):");
    println!(
        "{}",
        render_table(
            &["partners", "packets", "packet-hops", "hops/packet"],
            &hop_rows
        )
    );
    println!("Expected shape: full and simple variants balance almost identically (the");
    println!("virtual classes exist for the proof); aggressive exchange ~= strict; the");
    println!("locality variant pays ~1 hop/packet but balances more slowly (diffusive).");
    write_csv(&out, &headers, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
