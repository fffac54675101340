//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. full virtual-class algorithm vs the practical raw-load variant;
//! 2. `Strict` vs `Aggressive` exchange policy (the appendix's literal
//!    `x = min{d_jj, Σ_k b_ik}` rule);
//! 3. global-random partners vs topology-neighbour partners (locality)
//!    with hop-weighted communication cost on a 2-D torus.
//!
//! The variants race as one arena league (the same workloads and seed
//! streams for each), so their columns read as the arena's do.
//!
//! Usage: `dlb-exp ablation
//!         [--n 64] [--steps 500] [--runs 20]`

use crate::arena::{
    league_csv_rows, lemma6_budget, run_league, ArenaConfig, Contender, LEAGUE_HEADERS,
};
use crate::args::{Args, Key};
use crate::parallel::default_jobs;
use crate::quality::paper_trace;
use crate::report::{f3, render_table, write_csv};
use dlb_core::{Cluster, ExchangePolicy, Params, SimpleCluster};
use dlb_net::{PartnerMode, TopoCluster, TopoRule, Topology};
use dlb_workload::drive;
use std::num::NonZeroUsize;

pub const KEYS: &[Key] = crate::keys![
    "n": usize, "steps": NonZeroUsize, "runs": NonZeroUsize, "out": String,
];

pub fn run(args: &Args) {
    let n: usize = args.get("n", 64);
    let steps = args.count("steps", 500);
    let runs = args.count("runs", 20);
    let out: String = args.get("out", "results/ablation.csv".to_string());

    let params = args.build_or_exit(&["n"], Params::new(n, 1, 1.1, 4));
    println!("Ablations ({n} procs, section-7 workload, {steps} steps, {runs} runs)\n");

    // The floor of √n is at most n.
    #[allow(clippy::cast_possible_truncation)]
    let w = (n as f64).sqrt() as usize;
    let torus = move || Topology::Torus2D { w, h: n / w };
    let topo = move |mode, seed| TopoCluster::with_rule(params, TopoRule::new(torus(), mode), seed);
    let aggressive = params.with_exchange(ExchangePolicy::Aggressive);
    let variants = [
        Contender::new("full / strict", move |s| Box::new(Cluster::new(params, s))),
        Contender::new("full / aggressive", move |s| {
            Box::new(Cluster::new(aggressive, s))
        }),
        Contender::new("simple (raw loads)", move |s| {
            Box::new(SimpleCluster::new(params, s))
        }),
        Contender::new("topo: global partners", move |s| {
            Box::new(topo(PartnerMode::GlobalRandom, s))
        }),
        Contender::new("topo: neighbours only", move |s| {
            Box::new(topo(PartnerMode::Neighbors, s))
        }),
    ];
    let cfg = ArenaConfig {
        n,
        steps,
        runs,
        seed: 7000,
        warmup_fraction: 0.2,
        faults: None,
        jobs: default_jobs(),
    };
    let league = run_league(&cfg, &variants, |s| paper_trace(n, steps, s), None);
    let rows = league_csv_rows(&league, lemma6_budget(params));
    println!("{}", render_table(&LEAGUE_HEADERS, &rows));

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
    write_csv(&out, &LEAGUE_HEADERS, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
