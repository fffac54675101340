//! Every claim of `dlb_theory::claims` checked where it can be measured:
//! the one-processor model's load ratio (by operator and by simulation),
//! the full model's processor pairs on the §7 workload, the decrease
//! simulation's operation counts, and each shape of the §7 figures and
//! Table 1 on the runs the figure's own row draws (the same library
//! calls, seeds and sizes).  One CSV row per claim × regime ×
//! observation, with the observation's standard error; exits 1 naming
//! each claim that is violated inside its hypothesis.  A Table 1 value
//! the paper prints and this repository does not reproduce `deviates`,
//! with its reason, and does not fail the run.
//!
//! Usage: `dlb-exp claims [--jobs N] [--out results/claims.csv]`

use super::{ablation, async_latency, closed_loop, fig6_variation, fig7_quality};
use super::{fig9_distribution, scaling, table1_borrow};
use crate::arena::ArenaRow;
use crate::args::{Args, Key};
use crate::parallel::{default_jobs, par_map};
use crate::quality::theorem4_pairs;
use crate::report::{f3, render_table, write_csv};
use crate::table1::table1_runs;
use dlb_baselines::NoBalance;
use dlb_core::one_proc::{mean_decrease_ops, mean_ratio_after_ops};
use dlb_core::{Cluster, ExchangePolicy, LoadBalancer, Metrics, Params, SimpleCluster};
use dlb_net::rng::splitmix64;
use dlb_net::{AsyncStats, PartnerMode};
use dlb_theory::claims::{self, Estimate, Observation, BATCHES, CLAIMS};
use dlb_theory::schedule::{
    contraction_rate, measured_convergence_steps, predicted_convergence_steps,
};
use dlb_theory::TheoremBounds;
use dlb_workload::sparse::{drive_sparse, SparseActivity, SparsePattern};
use dlb_workload::Workload;

pub const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

/// `(n, δ, f)` of the one-processor model.
const RATIO_GRID: [(usize, usize, f64); 7] = [
    (16, 1, 1.1),
    (64, 1, 1.1),
    (64, 1, 1.8),
    (64, 4, 1.1),
    (64, 4, 1.8),
    (256, 2, 1.3),
    (1024, 8, 2.0),
];
/// Balancing operations per ratio observation, simulated runs before
/// they are raised, the standard error they are raised to (relative to
/// `FIX`), and packets per processor at the simulation's balanced start.
const OPS: usize = 300;
const RATIO_RUNS: usize = 4000;
const RATIO_SE: f64 = 0.0025;
const INITIAL: u64 = 10_000;
/// Relative distance from `FIX` at which `G^t(1)` counts as converged.
const CONVERGED: f64 = 1e-4;

/// `(δ, f, C)` of the full model: `PAIR_RUNS` runs of `STEPS` steps of
/// the §7 workload at `N` processors.
const PAIR_GRID: [(usize, f64, usize); 6] = [
    (1, 1.1, 4),
    (1, 1.1, 32),
    (1, 1.8, 4),
    (4, 1.1, 4),
    (4, 1.8, 4),
    (2, 1.4, 8),
];
const N: usize = 64;
const STEPS: usize = 500;
const PAIR_RUNS: usize = 20;

/// `(δ, f, c)` of the decrease simulation from load `X`, `DECREASE_RUNS`
/// runs at `N` processors.
const DECREASE_GRID: [(usize, f64, u64); 9] = [
    (1, 1.05, 500),
    (1, 1.1, 250),
    (1, 1.1, 500),
    (1, 1.1, 750),
    (1, 1.3, 500),
    (1, 1.8, 500),
    (2, 1.1, 500),
    (4, 1.1, 500),
    (8, 1.1, 500),
];
const X: u64 = 1000;
const DECREASE_RUNS: usize = 100;

/// Runs of the shapes whose figure row draws fewer than [`BATCHES`]:
/// the row's runs come first, under the row's seeds.
const SHAPE_RUNS: usize = 20;

/// One Table 1 counter, per processor per run.
type Counter = fn(&Metrics) -> u64;

/// The values Table 1 prints at C = 4 and C = 32 (the counter, C, the
/// paper's value) and, where ours differs, what is known of why.
const PRINTED: [(&str, Counter, usize, f64, Option<&str>); 8] = [
    ("total borrow", |m| m.total_borrow, 4, 107.8, None),
    ("total borrow", |m| m.total_borrow, 32, 109.6, None),
    ("remote borrow", |m| m.remote_borrow, 4, 3.95, None),
    (
        "remote borrow",
        |m| m.remote_borrow,
        32,
        0.03,
        Some("ours levels off near 0.14 from C = 16 on where the paper's keeps falling: cause not found"),
    ),
    (
        "borrow fail",
        |m| m.borrow_fail,
        4,
        0.30,
        Some(BORROW_FAIL),
    ),
    (
        "borrow fail",
        |m| m.borrow_fail,
        32,
        0.02,
        Some(BORROW_FAIL),
    ),
    ("decrease sim", |m| m.decrease_sim, 4, 3.84, None),
    (
        "decrease sim",
        |m| m.decrease_sim,
        32,
        1.64,
        Some("the paper's count levels off near 1.6 at large C where ours tracks remote borrow 1:1; it may also count b_ii settlements (the engine's markers_settled)"),
    ),
];
const BORROW_FAIL: &str = "ours counts every reduce-borrow invocation: our generators hold \
                           d_jj = 0 at settlement time more often than the paper's count implies";

const HEADERS: [&str; 9] = [
    "claim",
    "regime",
    "observation",
    "bound",
    "observed",
    "slack",
    "se",
    "samples",
    "verdict",
];

type Row = Vec<String>;

/// The column of the verdict.
const VERDICT: usize = HEADERS.len() - 1;

/// The CSV row of claim `id` on `observed` at `params`, measured as
/// `observation`.  Operation bounds print as integers, everything else
/// with three decimals.
fn row(id: &str, regime: &str, observation: &str, params: &Params, observed: Observation) -> Row {
    let counts = matches!(observed, Observation::Decrease { .. });
    let value = |v: f64| if counts { v.to_string() } else { f3(v) };
    let margin = claims::by_id(id).evaluate(params.algo(), &observed);
    let (bound, slack, verdict) = match margin {
        None => ("-".to_string(), "-".to_string(), "outside"),
        Some(m) => {
            let bound = match (m.lower.is_finite(), m.upper.is_finite()) {
                (true, true) => format!("{}..{}", value(m.lower), value(m.upper)),
                (true, false) => format!(">= {}", value(m.lower)),
                _ => format!("<= {}", value(m.upper)),
            };
            let verdict = if m.holds() { "holds" } else { "violated" };
            (bound, f3(m.slack()), verdict)
        }
    };
    let value = observed.value();
    let se = if value.se == 0.0 {
        "0".to_string()
    } else {
        format!("{:.1e}", value.se)
    };
    let fields = [
        id,
        regime,
        observation,
        &bound,
        &f3(value.mean),
        &slack,
        &se,
    ];
    debug_assert!(
        fields.iter().all(|field| !field.contains(',')),
        "{fields:?}"
    );
    let mut fields: Row = fields.map(str::to_string).into();
    fields.extend([value.samples.to_string(), verdict.to_string()]);
    fields
}

/// The row of a shape claim: it bounds a statistic, at any parameters.
fn shape(id: &str, regime: &str, observation: &str, value: Estimate) -> Row {
    let params = Params::paper_section7(N);
    row(
        id,
        regime,
        observation,
        &params,
        Observation::Statistic(value),
    )
}

/// `row`, unless it is violated for a known `reason`: then it
/// `deviates`, and says why.
fn deviating(mut row: Row, reason: Option<&str>) -> Row {
    if let (Some(reason), "violated") = (reason, row[VERDICT].as_str()) {
        row[2] = format!("{}; {reason}", row[2]);
        row[VERDICT] = "deviates".to_string();
    }
    row
}

/// A seed of its own for each regime, hashed from its parameters, so no
/// two regimes share a run.
fn regime_seed(parts: &[u64]) -> u64 {
    parts.iter().fold(0, |seed, &part| splitmix64(seed ^ part))
}

/// The one-processor ratio after `ops` operations: [`RATIO_RUNS`] runs
/// from the regime's seed, raised until the standard error is at most
/// [`RATIO_SE`] of `FIX`.
fn sampled_ratio(params: Params, ops: u64) -> Estimate {
    let (n, delta, f) = (params.n() as u64, params.delta() as u64, params.f());
    let seed = regime_seed(&[n, delta, f.to_bits(), ops]);
    let target = RATIO_SE * TheoremBounds::for_params(params.algo()).fix;
    let mut runs = RATIO_RUNS;
    loop {
        let ratio = mean_ratio_after_ops(params, ops, runs, INITIAL, seed);
        assert!(ratio.se.is_finite(), "{ratio:?}");
        if ratio.se <= target {
            return ratio;
        }
        // The error falls as 1/√runs: aim 10 % past the target.
        let grow = (ratio.se / target).powi(2) * 1.1;
        #[allow(clippy::cast_possible_truncation)]
        let raised = (runs as f64 * grow).ceil() as usize;
        runs = raised.next_multiple_of(BATCHES);
    }
}

/// Theorems 1–3 on the one-processor model at `(n, δ, f)`.
fn ratio_rows(n: usize, delta: usize, f: f64) -> Vec<Row> {
    let params = Params::new(n, delta, f, 4).expect("grid is valid");
    let regime = format!("n={n} delta={delta} f={f:.2}");
    let algo = *params.algo();
    let at = |id, observation: &str, ratio| {
        row(id, &regime, observation, &params, Observation::Ratio(ratio))
    };
    let exact = Estimate::exact;
    let sim = sampled_ratio(params, OPS as u64);
    let sampled = format!("sim runs={} ops={OPS}", sim.samples);
    let converged_at = measured_convergence_steps(n, delta, f, CONVERGED);
    let predicted = predicted_convergence_steps(n, delta, f, CONVERGED);
    let rate = contraction_rate(n, delta, f);
    let late_ops = converged_at as u64 + 5;
    let late = sampled_ratio(params, late_ops);
    let convergence = format!(
        "sim runs={} ops={late_ops}: G^t(1) within {CONVERGED:e} of FIX from \
         t={converged_at} (|G'(FIX)|={rate:.3} predicts t={predicted})",
        late.samples
    );
    let fix = TheoremBounds::for_params(&algo).fix;
    // Grown to the top of the interval, then shrunk to its bottom.
    let word = format!("C^{OPS}(G^{OPS}(1)): {OPS} growth then {OPS} shrink steps");
    let (g_t, operator) = (algo.g_iter(1.0, OPS), format!("G^t(1) t={OPS}"));
    let shrunk = algo.c_iter(g_t, OPS);
    vec![
        at("thm1", &operator, exact(g_t)),
        at("thm1", &sampled, sim),
        at("thm1", &convergence, late),
        at("thm2", "FIX at f", exact(fix)),
        at("thm3", &word, exact(shrunk)),
    ]
}

/// Theorem 4 on the full model: every ordered processor pair at three
/// checkpoints, reported by its tightest pair.
fn pair_rows(jobs: usize) -> Vec<Row> {
    let checkpoints = [STEPS / 10, STEPS / 2, STEPS - 1];
    let thm4 = claims::by_id("thm4");
    let mut rows = Vec::new();
    for (delta, f, c_borrow) in PAIR_GRID {
        let params = Params::new(N, delta, f, c_borrow).expect("grid is valid");
        let seed = regime_seed(&[delta as u64, f.to_bits(), c_borrow as u64]);
        let pairs = theorem4_pairs(params, STEPS, &checkpoints, PAIR_RUNS, seed, jobs);
        let margin = |o| thm4.evaluate(params.algo(), o).expect("inside");
        let margins: Vec<_> = pairs.iter().map(margin).collect();
        let violated = margins.iter().filter(|m| !m.holds()).count();
        let tightest = (0..pairs.len())
            .min_by(|&a, &b| margins[a].slack().total_cmp(&margins[b].slack()))
            .expect("two processors, one checkpoint");
        let coefficient = TheoremBounds::for_params(params.algo()).theorem4_coeff;
        let observation = format!(
            "means of {PAIR_RUNS} runs at t={}: {} pairs {violated} violated \
             (coefficient {}): tightest pair",
            checkpoints.map(|t| t.to_string()).join("/"),
            pairs.len(),
            f3(coefficient)
        );
        let regime = format!("n={N} delta={delta} f={f:.2} C={c_borrow}");
        rows.push(row("thm4", &regime, &observation, &params, pairs[tightest]));
    }
    rows
}

/// Lemmas 5 and 6 on the decrease simulation.
fn decrease_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (delta, f, c) in DECREASE_GRID {
        let params = Params::new(N, delta, f, 4).expect("grid is valid");
        let regime = format!("n={N} delta={delta} f={f:.2} x={X} c={c}");
        let seed = regime_seed(&[delta as u64, f.to_bits(), c]);
        let ops = mean_decrease_ops(params, X, c, DECREASE_RUNS, seed);
        let observed = Observation::Decrease { x: X, c, ops };
        let observation = format!("sim runs={DECREASE_RUNS}");
        let judge = |id| row(id, &regime, &observation, &params, observed);
        rows.extend(["lemma5", "lemma6"].map(judge));
    }
    rows
}

/// `a − b`, run by run.
fn minus(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(a, b)| a - b).collect()
}

/// `x` or `−x`, whichever has a non-negative mean: a magnitude whose
/// runs stay paired.
fn magnitude(x: Vec<f64>) -> Vec<f64> {
    let sign = x.iter().sum::<f64>().signum();
    x.into_iter().map(|v| sign * v).collect()
}

/// The ratio of two paired per-run series' sums, minus 1.
fn excess(a: &[f64], b: &[f64]) -> Estimate {
    let pairs: Vec<(f64, f64)> = a.iter().copied().zip(b.iter().copied()).collect();
    Estimate::of_batches(&pairs, |batch| {
        let (a, b) = batch
            .iter()
            .fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
        a / b - 1.0
    })
}

/// Figure 6: the exact VD curves at 35 processors.
fn fig6_rows(jobs: usize) -> Vec<Row> {
    use fig6_variation::{curves, DELTAS, FS, STEPS};
    let curves = curves(jobs);
    let curve = |delta, f, procs| {
        let on = |c: &&crate::variation::VdCurve| c.delta == delta && c.f == f && c.p + 1 == procs;
        curves.iter().find(on).expect("on the grid")
    };
    let vd = |delta, f| curve(delta, f, 35).final_vd();
    let what = format!("exact moment recursion t={STEPS}");
    let mut rows = Vec::new();
    for delta in DELTAS {
        for f in FS {
            let regime = format!("procs=35 delta={delta} f={f:.1}");
            rows.push(shape(
                "fig6.small",
                &regime,
                &what,
                Estimate::exact(vd(delta, f)),
            ));
        }
    }
    // The largest relative change of VD over the grid of δ and f.
    let grid = || DELTAS.into_iter().flat_map(|delta| FS.map(|f| (delta, f)));
    let largest = |change: &dyn Fn(usize, f64) -> (f64, f64)| {
        let relative = grid()
            .map(|(delta, f)| change(delta, f))
            .map(|(now, then)| (now - then).abs() / now);
        Estimate::exact(relative.fold(0.0, f64::max))
    };
    let in_t = largest(&|delta, f| {
        let c = &curve(delta, f, 35).vd;
        (c[STEPS], c[STEPS - 10])
    });
    let in_n = largest(&|delta, f| (vd(delta, f), curve(delta, f, 30).final_vd()));
    rows.extend([
        shape(
            "fig6.converged",
            &format!("procs=35 t={}..{STEPS}", STEPS - 10),
            &format!(
                "largest |VD(t={STEPS}) - VD(t={})| / VD over delta and f",
                STEPS - 10
            ),
            in_t,
        ),
        shape(
            "fig6.converged",
            &format!("procs=30..35 t={STEPS}"),
            "largest |VD(35 procs) - VD(30 procs)| / VD over delta and f",
            in_n,
        ),
    ]);
    for f in FS {
        for pair in DELTAS.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let regime = format!("procs=35 f={f:.1} delta={a}..{b}");
            let what = format!("VD(delta={b}) - VD(delta={a})");
            let fall = Estimate::exact(vd(b, f) - vd(a, f));
            rows.push(shape("fig6.delta", &regime, &what, fall));
        }
    }
    for delta in DELTAS {
        let regime = format!("procs=35 delta={delta}");
        let rise = Estimate::exact(vd(delta, FS[1]) - vd(delta, FS[0]));
        rows.push(shape("fig6.f", &regime, "VD(f=1.2) - VD(f=1.1)", rise));
    }
    rows
}

/// Figures 7 and 8: each run's spread at the last step.
fn fig7_rows(jobs: usize) -> Vec<Row> {
    use fig7_quality::{curves, FIGURES, FS, RUNS, SEED, STEPS};
    // spread[panel][k]: the figure's δ, its k-th f.
    let spread = FIGURES.map(|(_, delta)| {
        FS.map(|f| {
            let q = curves(delta, f, jobs);
            q.final_spreads
                .iter()
                .map(|&s| s as f64)
                .collect::<Vec<f64>>()
        })
    });
    let [(_, d1), (_, d4)] = FIGURES;
    let t = STEPS - 1;
    let runs = format!("{RUNS} runs of seed {SEED}");
    let mut rows = Vec::new();
    for (k, f) in FS.iter().enumerate() {
        rows.push(shape(
            "fig7.delta",
            &format!("n=64 C=4 t={t} f={f:.1}"),
            &format!("spread(delta={d4}) - spread(delta={d1}) per run: {runs}"),
            Estimate::of_runs(&minus(&spread[1][k], &spread[0][k])),
        ));
    }
    rows.push(shape(
        "fig7.f",
        &format!("n=64 C=4 t={t} delta={d1}"),
        &format!("spread(f=1.1) - spread(f=1.8) per run: {runs}"),
        Estimate::of_runs(&minus(&spread[0][0], &spread[0][1])),
    ));
    let effect = |panel: &[Vec<f64>; 2]| magnitude(minus(&panel[1], &panel[0]));
    rows.push(shape(
        "fig7.f_secondary",
        &format!("n=64 C=4 t={t}"),
        &format!("|spread(f=1.8) - spread(f=1.1)| at delta={d4} minus at delta={d1}: {runs}"),
        Estimate::of_runs(&minus(&effect(&spread[1]), &effect(&spread[0]))),
    ));
    rows
}

/// Figures 9 and 10: the snapshots at t = 400.
fn fig9_rows(jobs: usize) -> Vec<Row> {
    use fig9_distribution::{snapshots, CHECKPOINTS, FIGURES, FS, RUNS, SEED};
    let t = 400;
    let at = CHECKPOINTS
        .iter()
        .position(|&c| c == t)
        .expect("a checkpoint");
    let snap = FIGURES.map(|(_, delta)| FS.map(|f| snapshots(delta, f, jobs).swap_remove(at)));
    let runs = format!("{RUNS} runs of seed {SEED}");
    let mut rows = Vec::new();
    for (panel, (_, delta)) in snap.iter().zip(FIGURES) {
        for (s, f) in panel.iter().zip(FS) {
            // The processor farthest from the grand mean, and each run's
            // distance of it from that run's mean load.
            let grand = s.mean.iter().sum::<f64>() / s.mean.len() as f64;
            let far = |i: &usize| (s.mean[*i] - grand).abs();
            let worst = (0..s.mean.len()).max_by(|a, b| far(a).total_cmp(&far(b)));
            let worst = worst.expect("n > 0");
            let deviation: Vec<f64> = s
                .runs
                .iter()
                .map(|run| {
                    let mean = run.iter().sum::<u64>() as f64 / run.len() as f64;
                    (run[worst] as f64 - mean) / grand
                })
                .collect();
            let d = Estimate::of_runs(&deviation);
            rows.push(shape(
                "fig9.flat",
                &format!("n=64 C=4 t={t} delta={delta} f={f:.1}"),
                &format!("|E(l_{worst}) - mean| / mean (the farthest processor): {runs}"),
                Estimate {
                    mean: d.mean.abs(),
                    ..d
                },
            ));
        }
    }
    let [(_, d1), (_, d4)] = FIGURES;
    let spreads = snap
        .each_ref()
        .map(|panel| panel.each_ref().map(|s| s.spreads()));
    for (k, f) in FS.iter().enumerate() {
        rows.push(shape(
            "fig9.delta",
            &format!("n=64 C=4 t={t} f={f:.1}"),
            &format!("spread(delta={d4}) - spread(delta={d1}) per run: {runs}"),
            Estimate::of_runs(&minus(&spreads[1][k], &spreads[0][k])),
        ));
    }
    let f_effect = magnitude(minus(&spreads[0][1], &spreads[0][0]));
    let delta_effect = magnitude(minus(&spreads[1][0], &spreads[0][0]));
    rows.push(shape(
        "fig9.f_secondary",
        &format!("n=64 C=4 t={t} delta={d1} f=1.1"),
        &format!("|spread change to f=1.8| - |spread change to delta={d4}| per run: {runs}"),
        Estimate::of_runs(&minus(&f_effect, &delta_effect)),
    ));
    rows
}

/// Table 1: the strict policy's paper-scale runs.
fn table1_rows(jobs: usize) -> Vec<Row> {
    use table1_borrow::{CS, SCALE, SEED};
    let (n, steps, runs) = SCALE;
    let per_run = CS.map(|c| {
        let params = Params::new(n, 1, 1.1, c).expect("valid");
        let strict = params.with_exchange(ExchangePolicy::Strict);
        table1_runs(strict, steps, runs, SEED, jobs)
    });
    let counter = |k: usize, get: Counter| -> Vec<f64> {
        per_run[k]
            .iter()
            .map(|m| get(m) as f64 / n as f64)
            .collect()
    };
    let last = CS.len() - 1;
    let what = format!("per processor per run: {runs} runs of seed {SEED}");
    let mut rows = Vec::new();
    for k in 0..last {
        let remote = |k| counter(k, |m| m.remote_borrow);
        rows.push(shape(
            "table1.remote",
            &format!("C={}..{}", CS[k], CS[k + 1]),
            &format!("remote(C={}) - remote(C={}) {what}", CS[k + 1], CS[k]),
            Estimate::of_runs(&minus(&remote(k + 1), &remote(k))),
        ));
    }
    for (name, get) in [
        ("borrow fail", (|m| m.borrow_fail) as Counter),
        ("decrease sim", |m| m.decrease_sim),
    ] {
        rows.push(shape(
            "table1.collapse",
            &format!("C={}..{} {name}", CS[0], CS[last]),
            &format!("value(C={}) - value(C={}) {what}", CS[last], CS[0]),
            Estimate::of_runs(&minus(&counter(last, get), &counter(0, get))),
        ));
    }
    let total = |k| counter(k, |m| m.total_borrow);
    rows.push(shape(
        "table1.total",
        &format!("C={}..{}", CS[0], CS[last]),
        &format!("total(C={}) / total(C={}) - 1 {what}", CS[last], CS[0]),
        excess(&total(last), &total(0)),
    ));
    for (name, get, c, paper, known) in PRINTED {
        let k = CS
            .iter()
            .position(|&at| at == c)
            .expect("a column of the table");
        let ours: Vec<f64> = counter(k, get).iter().map(|v| v / paper).collect();
        let at = format!("C={c} {name}");
        let what = format!("ours / paper ({paper}) {what}");
        let printed = shape("table1.printed", &at, &what, Estimate::of_runs(&ours));
        rows.push(deviating(printed, known));
    }
    rows
}

/// Each run's mean max/mean ratio.
fn ratios(row: &ArenaRow) -> Vec<f64> {
    row.per_run.iter().map(|run| run.mean_ratio).collect()
}

/// The scaling row's leagues at [`SHAPE_RUNS`] runs: the practical
/// variant at every n, the full one up to n = 256.
fn scaling_rows(jobs: usize) -> Vec<Row> {
    use scaling::{league, variants, NS};
    let cells: Vec<(usize, usize)> = (0..2)
        .flat_map(|v| {
            NS.iter()
                .filter(move |&&n| v == 0 || n <= 256)
                .map(move |&n| (v, n))
        })
        .collect();
    let leagues = par_map(jobs, cells.len(), |i| {
        let (v, n) = cells[i];
        let [simple, full] = variants(n);
        league(if v == 0 { simple } else { full }, n, SHAPE_RUNS)
    });
    let runs = format!("{SHAPE_RUNS} runs of seed 100");
    let mut rows = Vec::new();
    for (v, name) in ["simple", "full"].into_iter().enumerate() {
        let at: Vec<(usize, &ArenaRow)> = cells
            .iter()
            .zip(&leagues)
            .filter(|((variant, _), _)| *variant == v)
            .map(|(&(_, n), row)| (n, row))
            .collect();
        for pair in at.windows(2) {
            let ((a, small), (b, large)) = (pair[0], pair[1]);
            let growth = Estimate::of_runs(&ratios(large)).minus(Estimate::of_runs(&ratios(small)));
            rows.push(shape(
                "scaling.ratio",
                &format!("{name} n={a}..{b} delta=1 f=1.1"),
                &format!("ratio(n={b}) - ratio(n={a}) over steps 250-499: {runs}"),
                growth,
            ));
        }
    }
    let ops = |row: &ArenaRow, n: usize| {
        let per_proc: Vec<f64> = row
            .per_run
            .iter()
            .map(|r| r.balance_ops as f64 / n as f64)
            .collect();
        Estimate::of_runs(&per_proc)
    };
    let (first, last) = (NS[0], NS[NS.len() - 1]);
    let per_proc = ops(&leagues[NS.len() - 1], last).over(ops(&leagues[0], first));
    rows.push(shape(
        "scaling.ops",
        &format!("simple n={first}..{last} delta=1 f=1.1"),
        &format!("ops per processor at n={last} over at n={first} - 1: {runs}"),
        Estimate {
            mean: per_proc.mean - 1.0,
            ..per_proc
        },
    ));
    rows
}

/// Event-driven against dense stepping of the full model at 1 %
/// activity: every processor's load and every counter.
fn sparse_rows() -> Vec<Row> {
    let (n, steps) = (4096, 200);
    let pattern = SparsePattern::Phase {
        work: 2,
        gap: (100, 300),
    };
    let params = Params::paper_section7(n);
    let mut sparse = Cluster::new(params, 1);
    drive_sparse(
        &mut sparse,
        &mut SparseActivity::new(n, pattern, 9),
        steps,
        |_, _, _| {},
    );
    let mut dense = Cluster::new(params, 1);
    let (mut workload, mut events) = (SparseActivity::new(n, pattern, 9), Vec::new());
    for t in 0..steps {
        workload.events_at(t, &mut events);
        dense.step(&events);
    }
    let (a, b) = (sparse.loads(), dense.loads());
    let loads = a.iter().zip(&b).filter(|(a, b)| a != b).count();
    let counters = usize::from(sparse.metrics() != dense.metrics());
    vec![shape(
        "sparse.dense",
        &format!("n={n} delta=1 f=1.1 1% active"),
        &format!("processors whose load differs + counters differ after {steps} steps"),
        Estimate::exact((loads + counters) as f64),
    )]
}

/// The ablation league (20 runs, one per batch) and its hop counts.
fn ablation_rows() -> Vec<Row> {
    let league = ablation::league();
    let [strict, aggressive, simple, global, neighbours] = [0, 1, 2, 3, 4].map(|k| &league[k]);
    let runs = format!("{} runs of seed 7000", strict.per_run.len());
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
    let (packets, hops) = ablation::hops(PartnerMode::Neighbors);
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

/// The task trees of the closed-loop row, [`SHAPE_RUNS`] per balancer.
fn closed_loop_rows(jobs: usize) -> Vec<Row> {
    use closed_loop::{makespans, offspring, params, NS};
    let offspring = offspring();
    // Per n: no balancing, then the simple and the full variant.
    let spans = par_map(jobs, 3 * NS.len(), |i| {
        let (n, kind) = (NS[i / 3], i % 3);
        let params = params(n);
        match kind {
            0 => makespans(|_| NoBalance::new(n), &offspring, SHAPE_RUNS),
            1 => makespans(|s| SimpleCluster::new(params, s), &offspring, SHAPE_RUNS),
            _ => makespans(|s| Cluster::new(params, s), &offspring, SHAPE_RUNS),
        }
    });
    let speedup = |k: usize, kind: usize| -> Vec<f64> {
        let none = &spans[3 * k];
        let with = &spans[3 * k + kind];
        none.iter()
            .zip(with)
            .map(|(a, b)| a.0 as f64 / b.0 as f64)
            .collect()
    };
    let runs = format!("{SHAPE_RUNS} task trees of seeds 100..");
    let mut rows = Vec::new();
    for (kind, name) in [(1, "simple"), (2, "full")] {
        for k in 0..NS.len() - 1 {
            let (a, b) = (NS[k], NS[k + 1]);
            rows.push(shape(
                "closed_loop.speedup",
                &format!("{name} n={a}..{b} delta=2 f=1.3"),
                &format!("speedup(n={b}) - speedup(n={a}) per tree: {runs}"),
                Estimate::of_runs(&minus(&speedup(k + 1, kind), &speedup(k, kind))),
            ));
        }
    }
    rows
}

/// The protocol at each latency, [`SHAPE_RUNS`] runs each.
fn async_latency_rows(jobs: usize) -> Vec<Row> {
    use async_latency::{abort_rate, run_at, LATENCIES};
    let per_run = par_map(jobs, LATENCIES.len() * SHAPE_RUNS, |i| {
        run_at(LATENCIES[i / SHAPE_RUNS], (i % SHAPE_RUNS) as u64)
    });
    type Of = fn(&(f64, AsyncStats)) -> f64;
    let series = |k: usize, of: Of| -> Vec<f64> {
        per_run[k * SHAPE_RUNS..(k + 1) * SHAPE_RUNS]
            .iter()
            .map(of)
            .collect()
    };
    let runs = format!("{SHAPE_RUNS} runs of seed 11");
    let mut rows = Vec::new();
    for (id, what, of) in [
        ("async_latency.ratio", "max/mean", (|r| r.0) as Of),
        ("async_latency.aborts", "abort rate", |r| abort_rate(&r.1)),
    ] {
        for k in 0..LATENCIES.len() - 1 {
            let (a, b) = (LATENCIES[k], LATENCIES[k + 1]);
            rows.push(shape(
                id,
                &format!("n=64 delta=2 f=1.3 latency={a}..{b}"),
                &format!("{what}(latency={b}) - {what}(latency={a}) per run: {runs}"),
                Estimate::of_runs(&minus(&series(k + 1, of), &series(k, of))),
            ));
        }
    }
    rows
}

pub fn run(args: &Args) {
    let jobs: usize = args.get("jobs", default_jobs());
    let out: String = args.get("out", "results/claims.csv".to_string());

    println!("The paper's claims (dlb_theory::claims):\n");
    for claim in &CLAIMS {
        println!("  {:<20} {} [{}]", claim.id, claim.statement, claim.source);
    }
    let ratios = par_map(jobs, RATIO_GRID.len(), |i| {
        let (n, delta, f) = RATIO_GRID[i];
        ratio_rows(n, delta, f)
    });
    let mut rows = [
        ratios.concat(),
        pair_rows(jobs),
        decrease_rows(),
        fig6_rows(jobs),
        fig7_rows(jobs),
        fig9_rows(jobs),
        table1_rows(jobs),
        scaling_rows(jobs),
        sparse_rows(),
        ablation_rows(),
        closed_loop_rows(jobs),
        async_latency_rows(jobs),
    ]
    .concat();
    // Claim by claim, each in its grid's order.
    rows.sort_by_key(|row| CLAIMS.iter().position(|claim| claim.id == row[0]));
    println!("\n{}", render_table(&HEADERS, &rows));
    write_csv(&out, &HEADERS, &rows).expect("CSV written");
    println!("wrote {out}");

    for row in rows.iter().filter(|row| row[VERDICT] == "deviates") {
        println!("deviates: {} at {}: {}", row[0], row[1], row[2]);
    }
    let violated: Vec<&Row> = rows
        .iter()
        .filter(|row| row[VERDICT] == "violated")
        .collect();
    for row in &violated {
        eprintln!("error: {} violated at {}: {}", row[0], row[1], row[2]);
    }
    if !violated.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Claims `thm1`–`thm3` at n = 16, δ = 1, f = 1.1, each simulated
    /// row at the run count it is raised to.  A trigger that fires 1 %
    /// late (`1.01·f` in `OneProcModel::generate_until_ops`) moves the
    /// 300-operation ratio 8 standard errors past `FIX` and fails this.
    #[test]
    fn one_ratio_regime_holds_at_its_raised_run_count() {
        let params = Params::new(16, 1, 1.1, 4).expect("valid");
        let fix = TheoremBounds::for_params(params.algo()).fix;
        let rows = ratio_rows(16, 1, 1.1);
        for row in &rows {
            assert_eq!(row[VERDICT], "holds", "{row:?}");
        }
        // The 300-operation simulation: its standard error and runs.
        let sim = &rows[1];
        let (se, samples): (f64, usize) = (sim[6].parse().unwrap(), sim[7].parse().unwrap());
        assert!(samples >= RATIO_RUNS && se <= RATIO_SE * fix, "{sim:?}");
    }
}
