//! Figure 6: variation density of a non-generating processor in the
//! one-processor-generator model, over balancing steps, for the paper's
//! grid: `δ ∈ {1, 2, 4}`, `f ∈ {1.1, 1.2}`, processor counts
//! `∈ {2, 3, …, 10, 15, 20, 25, 30, 35}`, up to 150 balancing steps.  It
//! judges the `fig6.*` claims on the exact curves at 35 processors.
//!
//! The curves come from the exact `O(t)` moment recursion of
//! `dlb-theory::moments` (cross-validated there against exhaustive
//! enumeration and Monte-Carlo); a Monte-Carlo column shows both engines
//! side by side.
//!
//! Usage: `dlb-exp fig6_variation [--out results] [--jobs N]`

use super::{shape, Row};
use crate::args::{Args, Key};
use crate::outln;
use crate::parallel::{default_jobs, par_map};
use crate::report::{ascii_plot, f3, render_table, write_csv};
use crate::svg::{write_chart, ChartConfig, Series};
use dlb_theory::claims::Estimate;
use dlb_theory::moments::{monte_carlo, vd_curve, Selection};

pub(super) const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

/// Balancing steps of every curve, and the grid of `δ` and `f`.
const STEPS: usize = 150;
const DELTAS: [usize; 3] = [1, 2, 4];
const FS: [f64; 2] = [1.1, 1.2];

pub(super) fn run(args: &Args) -> Vec<Row> {
    let jobs: usize = args.get("jobs", default_jobs());
    let out = args.output("fig6.csv");

    let curves = figure6_curves(&DELTAS, &FS, &paper_processor_counts(), STEPS, jobs);

    // Summary table: converged VD per (delta, f) at the largest network.
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for c in &curves {
        csv_rows.push(vec![
            c.delta.to_string(),
            format!("{:.1}", c.f),
            (c.p + 1).to_string(),
            f3(c.final_vd()),
        ]);
        if c.p + 1 == 35 {
            rows.push(vec![
                c.delta.to_string(),
                format!("{:.1}", c.f),
                (c.p + 1).to_string(),
                f3(c.vd[STEPS / 10]),
                f3(c.vd[STEPS / 2]),
                f3(c.final_vd()),
            ]);
        }
    }
    outln!("Figure 6: variation density VD(l_i,t) (exact moment recursion)\n");
    outln!(
        "{}",
        render_table(
            &[
                "delta",
                "f",
                "procs",
                &format!("VD@t={}", STEPS / 10),
                &format!("VD@t={}", STEPS / 2),
                &format!("VD@t={STEPS}")
            ],
            &rows
        )
    );

    // One representative plot: delta sweep at f = 1.2, 35 processors.
    let plot_series: Vec<(String, Vec<f64>)> = DELTAS
        .iter()
        .filter_map(|&d| {
            curves
                .iter()
                .find(|c| c.delta == d && (c.f - 1.2).abs() < 1e-9 && c.p + 1 == 35)
                .map(|c| (format!("delta={d}"), c.vd.clone()))
        })
        .collect();
    let series_refs: Vec<(&str, &[f64])> = plot_series
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    outln!("VD over balancing steps (f = 1.2, 35 processors):\n");
    outln!("{}", ascii_plot(&series_refs, 12));

    // The paper's own Figure 6 used a *relaxed* engine for delta > 1
    // (delta successive pairwise balances); quantify the relaxation error.
    outln!("Relaxed engine (the paper's Figure 6 method) vs the true algorithm");
    outln!("(35 processors, converged VD):\n");
    let mut relax_rows = Vec::new();
    for &delta in &DELTAS[1..] {
        for f in FS {
            let true_vd = dlb_theory::moments::vd_curve(34, delta, f, STEPS)[STEPS];
            let relaxed_vd = dlb_theory::moments::vd_curve_relaxed(34, delta, f, STEPS)[STEPS];
            relax_rows.push(vec![
                delta.to_string(),
                format!("{f:.1}"),
                f3(true_vd),
                f3(relaxed_vd),
                format!("{:+.1}%", (relaxed_vd - true_vd) / true_vd * 100.0),
            ]);
        }
    }
    outln!(
        "{}",
        render_table(
            &["delta", "f", "true VD", "relaxed VD", "error"],
            &relax_rows
        )
    );

    // Monte-Carlo cross-check of a few points.
    outln!("Monte-Carlo cross-check (30k runs):");
    for &(d, f, n) in &[(1usize, 1.1f64, 10usize), (2, 1.2, 35), (4, 1.1, 20)] {
        let (exact, mc) = mc_crosscheck(d, f, n, 60, 30_000, 9);
        outln!("  delta={d} f={f} procs={n}: exact {exact:.4} vs MC {mc:.4}");
    }

    write_csv(&out, &["delta", "f", "procs", "vd_final"], &csv_rows).expect("CSV written");
    let svg_series: Vec<Series> = curves
        .iter()
        .filter(|c| c.p + 1 == 35)
        .map(|c| Series::from_ys(&format!("delta={} f={}", c.delta, c.f), &c.vd))
        .collect();
    let svg_path = out.replace(".csv", ".svg");
    let chart = ChartConfig {
        title: "Figure 6: variation density (35 processors)".into(),
        x_label: "balancing steps".into(),
        y_label: "VD(l_i,t)".into(),
        ..Default::default()
    };
    write_chart(&svg_path, &chart, &svg_series).expect("SVG written");
    outln!("\nwrote {out} and {svg_path}");
    judge(&curves)
}

/// The `fig6.*` claims on the exact curves at 35 processors.
fn judge(curves: &[VdCurve]) -> Vec<Row> {
    let curve = |delta, f, procs| {
        let on = |c: &&VdCurve| c.delta == delta && c.f == f && c.p + 1 == procs;
        curves.iter().find(on).expect("on the grid")
    };
    let vd = |delta, f| curve(delta, f, 35).final_vd();
    let what = format!("exact moment recursion t={STEPS}");
    let mut rows = Vec::new();
    for delta in DELTAS {
        for f in FS {
            let regime = format!("procs=35 delta={delta} f={f:.1}");
            let small = Estimate::exact(vd(delta, f));
            rows.push(shape("fig6.small", &regime, &what, small));
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
    let then = STEPS - 10;
    let in_t = largest(&|delta, f| {
        let c = &curve(delta, f, 35).vd;
        (c[STEPS], c[then])
    });
    let regime = format!("procs=35 t={then}..{STEPS}");
    let what = format!("largest |VD(t={STEPS}) - VD(t={then})| / VD over delta and f");
    rows.push(shape("fig6.converged", &regime, &what, in_t));
    let in_n = largest(&|delta, f| (vd(delta, f), curve(delta, f, 30).final_vd()));
    let regime = format!("procs=30..35 t={STEPS}");
    let what = "largest |VD(35 procs) - VD(30 procs)| / VD over delta and f";
    rows.push(shape("fig6.converged", &regime, what, in_n));
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

/// One Figure 6 curve.
#[derive(Debug, Clone)]
struct VdCurve {
    /// Neighbourhood size `δ`.
    delta: usize,
    /// Trigger factor `f`.
    f: f64,
    /// Number of processors `p` *excluding* the generator (the paper's
    /// processor counts are `p + 1`).
    p: usize,
    /// `VD(l_{i,t})` for `t = 0 ..= steps`.
    vd: Vec<f64>,
}

impl VdCurve {
    /// Converged (final) variation density.
    fn final_vd(&self) -> f64 {
        *self.vd.last().expect("non-empty curve")
    }
}

/// The processor counts of Figure 6.
fn paper_processor_counts() -> Vec<usize> {
    let mut counts: Vec<usize> = (2..=10).collect();
    counts.extend([15, 20, 25, 30, 35]);
    counts
}

/// Computes the full Figure 6 grid exactly, fanning the (feasible) grid
/// points out over `jobs` workers; the output order is the grid order
/// regardless of `jobs` (the recursion is exact, so the values are too).
fn figure6_curves(
    deltas: &[usize],
    fs: &[f64],
    procs: &[usize],
    steps: usize,
    jobs: usize,
) -> Vec<VdCurve> {
    let mut grid = Vec::new();
    for &delta in deltas {
        for &f in fs {
            for &n in procs {
                let p = n - 1; // paper counts include the generator
                if delta > p {
                    continue;
                }
                grid.push((delta, f, p));
            }
        }
    }
    par_map(jobs, grid.len(), |i| {
        let (delta, f, p) = grid[i];
        VdCurve {
            delta,
            f,
            p,
            vd: vd_curve(p, delta, f, steps),
        }
    })
}

/// Monte-Carlo check of one grid point: returns `(exact_vd, mc_vd)` after
/// `steps` balancing operations.
fn mc_crosscheck(
    delta: usize,
    f: f64,
    n: usize,
    steps: usize,
    runs: usize,
    seed: u64,
) -> (f64, f64) {
    let p = n - 1;
    let exact = vd_curve(p, delta, f, steps)[steps];
    let (_, _, _, mc) = monte_carlo(p, delta, f, steps, runs, seed, Selection::Subset);
    (exact, mc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_skips_infeasible_delta() {
        // δ = 4 needs at least 5 processors (p >= 4).
        let curves = figure6_curves(&[4], &[1.1], &[2, 3, 4, 5, 6], 10, 1);
        assert_eq!(curves.len(), 2, "only n = 5 and n = 6 are feasible");
        assert!(curves.iter().all(|c| c.p >= 4));
    }

    #[test]
    fn paper_grid_size() {
        let counts = paper_processor_counts();
        assert_eq!(counts.len(), 14);
        let curves = figure6_curves(&[1, 2, 4], &[1.1, 1.2], &counts, 150, 2);
        // δ=1: 14, δ=2: 13 (n=2 infeasible), δ=4: 11 (n=2,3,4 infeasible),
        // each × 2 values of f.
        assert_eq!(curves.len(), (14 + 13 + 11) * 2);
        for c in &curves {
            assert_eq!(c.vd.len(), 151);
            assert!(c.final_vd() >= 0.0 && c.final_vd() < 1.0, "{c:?}");
        }
    }

    #[test]
    fn parallel_grid_matches_sequential() {
        let counts = [2usize, 5, 10];
        let seq = figure6_curves(&[1, 2], &[1.1], &counts, 40, 1);
        let par = figure6_curves(&[1, 2], &[1.1], &counts, 40, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!((a.delta, a.p), (b.delta, b.p), "grid order preserved");
            assert_eq!(a.vd, b.vd);
        }
    }

    #[test]
    fn crosscheck_engines_agree() {
        let (exact, mc) = mc_crosscheck(2, 1.2, 10, 30, 30_000, 17);
        assert!((exact - mc).abs() < 0.03, "exact {exact} vs MC {mc}");
    }
}
