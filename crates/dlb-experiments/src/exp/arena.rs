//! Balancer arena: the trigger rule vs the literature and the paper's
//! own strawmen, one league table.
//!
//! Every contender replays the same §7 phase workloads on a hypercube-
//! sized network, survives the same frozen-crash fault plan, and is
//! scored on balance quality (max/mean ratio), balancing cost (ops,
//! migrated packets, messages) and convergence time.  The trigger rule's
//! cost is additionally compared against its Lemma 6 budget
//! (`cost_vs_l6`; 0.000 for contenders without decrease simulations).
//!
//! Usage: `dlb-exp arena
//!         [--n 64] [--steps 500] [--runs 20] [--seed 61] [--jobs N]
//!         [--out results/arena.csv] [--svg results/arena.svg]
//!         [--trace results/arena.jsonl] [--smoke]`
//!
//! `--smoke` shrinks the league (n=16, 120 steps, 4 runs) and writes to
//! `results/arena_smoke.{csv,svg}` so the `arena-golden` CI job can
//! drift-gate it in seconds.  Output — CSV, SVG and trace — is
//! byte-identical for every `--jobs` value.  The SVG leaves out
//! `random-scatter`, whose ratio would set the y-axis of every curve.

use crate::arena::{
    league_csv_rows, lemma6_budget, run_league, ArenaConfig, Contender, LEAGUE_HEADERS,
};
use crate::args::{Args, Flag, Key};
use crate::parallel::default_jobs;
use crate::quality::paper_trace;
use crate::report::{render_table, write_csv};
use crate::svg::{write_chart, ChartConfig, Series};
use dlb_baselines::{
    Diffusion, DimensionExchange, DynamicAveraging, Gradient, LocallyOptimal, NoBalance,
    Quasirandom, RandomScatter, Rsu91, WorkStealing,
};
use dlb_core::{Cluster, Params, SimpleCluster};
use dlb_faults::{CrashEvent, CrashMode, FaultPlan};
use dlb_net::Topology;
use dlb_trace::RunOrderedWriter;
use std::num::NonZeroUsize;

/// The dimension of the hypercube the topology-bound rivals run on.
fn hypercube_dim(n: usize) -> Result<u32, String> {
    if n.is_power_of_two() {
        Ok(n.trailing_zeros())
    } else {
        Err(format!(
            "the arena's hypercube needs a power of two, not n = {n}"
        ))
    }
}

fn contenders(n: usize, params: Params, dim: u32) -> Vec<Contender> {
    let cube = move || Topology::Hypercube { dim };
    vec![
        Contender::new("spaa93-full", move |seed| {
            Box::new(Cluster::new(params, seed))
        }),
        Contender::new("spaa93-simple", move |seed| {
            Box::new(SimpleCluster::new(params, seed))
        }),
        Contender::new("quasirandom", move |_| Box::new(Quasirandom::new(cube()))),
        Contender::new("dynamic-averaging", move |seed| {
            Box::new(DynamicAveraging::new(cube(), seed))
        }),
        Contender::new("locally-optimal", move |_| {
            Box::new(LocallyOptimal::new(cube()))
        }),
        Contender::new("dimension-exchange", move |_| {
            Box::new(DimensionExchange::new(cube()))
        }),
        Contender::new("diffusion", move |_| Box::new(Diffusion::new(cube(), 0.2))),
        Contender::new("work-stealing", move |seed| {
            Box::new(WorkStealing::new(n, seed))
        }),
        Contender::new("no-balance", move |_| Box::new(NoBalance::new(n))),
        // The paper's own strawmen (§1/§5): random scatter, RSU'91 [20]
        // and the gradient model [6].
        Contender::new("random-scatter", move |seed| {
            Box::new(RandomScatter::new(n, seed))
        }),
        Contender::new("rsu91", move |seed| Box::new(Rsu91::new(n, seed))),
        Contender::new("gradient", move |_| Box::new(Gradient::new(cube(), 2, 8))),
    ]
}

/// The arena's fault plan: two frozen crashes, staggered, the first
/// recovering mid-run — identical for every contender.
fn fault_plan(n: usize, steps: usize) -> FaultPlan {
    FaultPlan {
        seed: 13,
        crash_mode: CrashMode::Frozen,
        crashes: vec![
            CrashEvent {
                proc: n / 4,
                at: (steps / 4) as u64,
                recover_at: Some((3 * steps / 4) as u64),
            },
            CrashEvent {
                proc: 3 * n / 4,
                at: (steps / 2) as u64,
                recover_at: None,
            },
        ],
        ..FaultPlan::default()
    }
}

pub const KEYS: &[Key] = crate::keys![
    "smoke": Flag, "n": usize, "steps": NonZeroUsize, "runs": NonZeroUsize, "seed": u64,
    "jobs": usize, "out": String, "svg": String, "trace": String,
];

/// The contender whose ratio (≈ 47) would set the chart's y-axis for
/// every other curve; the CSV keeps its row.
const OFF_CHART: &str = "random-scatter";

pub fn run(args: &Args) {
    let smoke = args.flag("smoke");
    let (def_n, def_steps, def_runs, def_out, def_svg) = if smoke {
        (
            16,
            120,
            4,
            "results/arena_smoke.csv",
            "results/arena_smoke.svg",
        )
    } else {
        (64, 500, 20, "results/arena.csv", "results/arena.svg")
    };
    let n: usize = args.get("n", def_n);
    let steps = args.count("steps", def_steps);
    let runs = args.count("runs", def_runs);
    let seed: u64 = args.get("seed", 61);
    let jobs: usize = args.get("jobs", default_jobs());
    let out: String = args.get("out", def_out.to_string());
    let svg: String = args.get("svg", def_svg.to_string());
    let trace: Option<String> = args.has("trace").then(|| args.get("trace", String::new()));

    let params = args.build_or_exit(&["n"], Params::new(n, 1, 1.1, 4));
    let dim = args.build_or_exit(&["n"], hypercube_dim(n));
    let plan = fault_plan(n, steps);
    args.build_or_exit(&["steps"], plan.validate(n));
    // Created before the first run, so a path that cannot be created
    // costs no simulation and writes nothing.
    let writer = trace.as_ref().map(|path| {
        RunOrderedWriter::create(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("error: cannot create trace {path}: {e}");
            std::process::exit(1)
        })
    });
    let cfg = ArenaConfig {
        n,
        steps,
        runs,
        seed,
        warmup_fraction: 0.2,
        faults: Some(plan),
        jobs,
    };
    let entrants = contenders(n, params, dim);

    println!(
        "Balancer arena: {} contenders, {n} procs (hypercube), {steps} steps, {runs} runs, \
         2 frozen crashes\n",
        entrants.len()
    );
    let budget = lemma6_budget(params);
    let c = params.c_borrow();
    match budget {
        Some(budget) => println!(
            "Lemma 6 budget: {budget} balance ops per decrease simulation \
             (x = 2C = {}, C = {c})",
            2 * c
        ),
        None => println!("Lemma 6 budget: out of domain for these parameters"),
    }

    let league = run_league(
        &cfg,
        &entrants,
        |s| paper_trace(n, steps, s),
        writer.as_ref(),
    );
    let rows = league_csv_rows(&league, budget);
    println!("\n{}", render_table(&LEAGUE_HEADERS, &rows));
    println!(
        "cost_vs_l6: measured ops / (decrease sims x Lemma 6 budget); 0.000 = no decrease sims."
    );

    write_csv(&out, &LEAGUE_HEADERS, &rows).expect("CSV written");
    println!("wrote {out}");

    let series: Vec<Series> = league
        .iter()
        .filter(|row| row.label != OFF_CHART)
        .map(|row| Series::from_ys(&row.label, &row.ratio_curve))
        .collect();
    let chart = ChartConfig {
        title: format!("Arena: max/mean load ratio over time ({n} procs, {runs} runs)"),
        x_label: "step".into(),
        y_label: "max/mean load".into(),
        ..ChartConfig::default()
    };
    write_chart(&svg, &chart, &series).expect("SVG written");
    println!("wrote {svg} (every contender but {OFF_CHART})");

    if let (Some(writer), Some(path)) = (writer, trace) {
        if let Err(e) = writer.into_inner() {
            eprintln!("error: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
