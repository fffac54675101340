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
//! same league and the neighbour partners' hop count judge the
//! `ablation.*` claims.
//!
//! Usage: `dlb-exp ablation [--jobs N] [--out results]`
//! (jobs default to the available cores)

use super::{excess, minus, ratios, shape, Row};
use crate::arena::{
    league_csv_rows, lemma6_budget, run_league, ArenaConfig, ArenaRow, Contender, LEAGUE_HEADERS,
};
use crate::args::{Args, Key};
use crate::outln;
use crate::parallel::default_jobs;
use crate::quality::paper_workload;
use crate::report::{f3, render_table, write_csv};
use dlb_core::{Cluster, ExchangePolicy, Params, SimpleCluster};
use dlb_net::{PartnerMode, TopoCluster, TopoRule, Topology};
use dlb_theory::claims::Estimate;
use dlb_workload::drive;
use dlb_workload::phase::{PhaseConfig, PhaseWorkload};

pub(super) const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

/// Processors (an 8 × 8 torus for the locality variants), steps and
/// runs of every variant, and the seed of their workloads.
const N: usize = 64;
const STEPS: usize = 500;
const RUNS: usize = 20;
const SEED: u64 = 7000;

/// The torus of the locality variants, with partners drawn by `mode`.
fn topo(params: Params, mode: PartnerMode, seed: u64) -> TopoCluster {
    let rule = TopoRule::new(Topology::Torus2D { w: 8, h: 8 }, mode);
    TopoCluster::with_rule(params, rule, seed)
}

/// The five variants' league: full/strict, full/aggressive, simple, and
/// the torus with global, then neighbour partners.
fn league(jobs: usize) -> Vec<ArenaRow> {
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
        seed: SEED,
        warmup_fraction: 0.2,
        faults: None,
        jobs,
    };
    run_league(&cfg, &variants, |s| paper_workload(N, STEPS, s), None)
}

/// `(packets, packet-hops)` of one single run on the torus with `mode`.
fn hops(mode: PartnerMode) -> (u64, u64) {
    let mut workload = PhaseWorkload::new(N, STEPS, PhaseConfig::paper_section7(), SEED);
    let mut c = topo(Params::paper_section7(N), mode, 1);
    drive(&mut c, &mut workload, STEPS, |_, _| {});
    let comm = c.rule().comm();
    (comm.packets, comm.packet_hops)
}

pub(super) fn run(args: &Args) -> Vec<Row> {
    let jobs: usize = args.get("jobs", default_jobs());
    let out = args.output("ablation.csv");

    let params = Params::paper_section7(N);
    outln!("Ablations ({N} procs, section-7 workload, {STEPS} steps, {RUNS} runs)\n");
    let league = league(jobs);
    let rows = league_csv_rows(&league, lemma6_budget(params));
    outln!("{}", render_table(&LEAGUE_HEADERS, &rows));

    // Hop-weighted cost of the locality choice.
    let hop_counts = [PartnerMode::GlobalRandom, PartnerMode::Neighbors].map(hops);
    let hop_rows: Vec<Vec<String>> = ["global", "neighbours"]
        .iter()
        .zip(hop_counts)
        .map(|(label, (packets, packet_hops))| {
            vec![
                label.to_string(),
                packets.to_string(),
                packet_hops.to_string(),
                f3(packet_hops as f64 / packets.max(1) as f64),
            ]
        })
        .collect();
    outln!("Hop-weighted communication on the torus (single run):");
    outln!(
        "{}",
        render_table(
            &["partners", "packets", "packet-hops", "hops/packet"],
            &hop_rows
        )
    );
    write_csv(&out, &LEAGUE_HEADERS, &rows).expect("CSV written");
    outln!("\nwrote {out}");
    judge(&league, hop_counts[1])
}

/// The `ablation.*` claims on the league and the neighbour partners'
/// `(packets, packet-hops)`.
fn judge(league: &[ArenaRow], (packets, hops): (u64, u64)) -> Vec<Row> {
    let [strict, aggressive, simple, global, neighbours] = [0, 1, 2, 3, 4].map(|k| &league[k]);
    let runs = format!("{RUNS} runs of seed {SEED}");
    let columns = |r: &ArenaRow| {
        [
            r.mean_ratio,
            r.p95_ratio,
            r.worst_ratio,
            r.ops_per_run,
            r.migrated_per_run,
            r.messages_per_run,
            r.decrease_per_run,
            r.conv_steps,
        ]
    };
    let (a, b) = (columns(global), columns(simple));
    let largest = a
        .iter()
        .zip(&b)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let conv =
        |r: &ArenaRow| -> Vec<f64> { r.per_run.iter().map(|r| r.conv_steps as f64).collect() };
    let regime = "n=64 delta=1 f=1.1";
    vec![
        shape(
            "ablation.simple",
            regime,
            &format!("mean max/mean of simple over full/strict - 1: {runs}"),
            excess(&ratios(simple), &ratios(strict)),
        ),
        shape(
            "ablation.aggressive",
            regime,
            &format!("mean max/mean aggressive - strict per run: {runs}"),
            Estimate::of_runs(&minus(&ratios(aggressive), &ratios(strict))),
        ),
        shape(
            "ablation.topo_global",
            &format!("{regime} torus 8x8"),
            &format!("largest |topo global - simple| over the league columns: {runs}"),
            Estimate::exact(largest),
        ),
        shape(
            "ablation.locality",
            &format!("{regime} torus 8x8"),
            &format!("conv_steps neighbours - global per run: {runs}"),
            Estimate::of_runs(&minus(&conv(neighbours), &conv(global))),
        ),
        shape(
            "ablation.hops",
            &format!("{regime} torus 8x8"),
            "packet-hops / packets of neighbour partners: one run",
            Estimate::exact(hops as f64 / packets as f64),
        ),
    ]
}
