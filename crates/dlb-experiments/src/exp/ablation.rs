//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. full virtual-class algorithm vs the practical raw-load variant;
//! 2. `Strict` vs `Aggressive` exchange policy (the appendix's literal
//!    `x = min{d_jj, Σ_k b_ik}` rule);
//! 3. global-random partners vs topology-neighbour partners (locality)
//!    with hop-weighted communication cost on a 2-D torus.
//!
//! The variants race as one arena league (the same workloads and seed
//! streams for each), so their columns read as the arena's do.  The
//! shapes it shows are `ablation.*` rows of `dlb-exp claims`.
//!
//! Usage: `dlb-exp ablation [--out results/ablation.csv]`

use crate::arena::{
    league_csv_rows, lemma6_budget, run_league, ArenaConfig, ArenaRow, Contender, LEAGUE_HEADERS,
};
use crate::args::{Args, Key};
use crate::parallel::default_jobs;
use crate::quality::paper_workload;
use crate::report::{f3, render_table, write_csv};
use dlb_core::{Cluster, ExchangePolicy, Params, SimpleCluster};
use dlb_net::{PartnerMode, TopoCluster, TopoRule, Topology};
use dlb_workload::drive;
use dlb_workload::phase::{PhaseConfig, PhaseWorkload};

pub const KEYS: &[Key] = crate::keys!["out": String];

/// Processors (an 8 × 8 torus for the locality variants), steps and
/// runs of every variant.
const N: usize = 64;
const STEPS: usize = 500;
const RUNS: usize = 20;

/// The torus of the locality variants, with partners drawn by `mode`.
fn topo(params: Params, mode: PartnerMode, seed: u64) -> TopoCluster {
    let rule = TopoRule::new(Topology::Torus2D { w: 8, h: 8 }, mode);
    TopoCluster::with_rule(params, rule, seed)
}

/// The five variants' league: full/strict, full/aggressive, simple, and
/// the torus with global, then neighbour partners.
pub(super) fn league() -> Vec<ArenaRow> {
    let params = Params::paper_section7(N);
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
            Box::new(topo(params, PartnerMode::GlobalRandom, s))
        }),
        Contender::new("topo: neighbours only", move |s| {
            Box::new(topo(params, PartnerMode::Neighbors, s))
        }),
    ];
    let cfg = ArenaConfig {
        n: N,
        steps: STEPS,
        runs: RUNS,
        seed: 7000,
        warmup_fraction: 0.2,
        faults: None,
        jobs: default_jobs(),
    };
    run_league(&cfg, &variants, |s| paper_workload(N, STEPS, s), None)
}

/// `(packets, packet-hops)` of one single run on the torus with `mode`.
pub(super) fn hops(mode: PartnerMode) -> (u64, u64) {
    let mut workload = PhaseWorkload::new(N, STEPS, PhaseConfig::paper_section7(), 7000);
    let mut c = topo(Params::paper_section7(N), mode, 1);
    drive(&mut c, &mut workload, STEPS, |_, _| {});
    let comm = c.rule().comm();
    (comm.packets, comm.packet_hops)
}

pub fn run(args: &Args) {
    let out: String = args.get("out", "results/ablation.csv".to_string());

    let params = Params::paper_section7(N);
    println!("Ablations ({N} procs, section-7 workload, {STEPS} steps, {RUNS} runs)\n");
    let league = league();
    let rows = league_csv_rows(&league, lemma6_budget(params));
    println!("{}", render_table(&LEAGUE_HEADERS, &rows));

    // Hop-weighted cost of the locality choice.
    let mut hop_rows = Vec::new();
    for (label, mode) in [
        ("global", PartnerMode::GlobalRandom),
        ("neighbours", PartnerMode::Neighbors),
    ] {
        let (packets, packet_hops) = hops(mode);
        hop_rows.push(vec![
            label.to_string(),
            packets.to_string(),
            packet_hops.to_string(),
            f3(packet_hops as f64 / packets.max(1) as f64),
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
    write_csv(&out, &LEAGUE_HEADERS, &rows).expect("CSV written");
    println!("\nwrote {out}");
}
