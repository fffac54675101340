//! The paper's statements as one table.  Each of Theorems 1–4 and
//! Lemmas 5/6 is a [`Claim`]: an id, the statement, the hypothesis under
//! which the paper makes it, and the bound it puts on an
//! [`Observation`].  So is each shape the §7 figures and Table 1 show (VD
//! falls with δ, the δ = 4 band is narrower, …): a constant bound on a
//! [`Observation::Statistic`] of a figure's runs, with the source of the
//! bound named.  A test, an experiment or a monitor checks a claim by
//! evaluating it here rather than by writing it out again.  The theorems'
//! numbers come from [`TheoremBounds`] and [`CostBounds`]; a claim only
//! says which of them bounds what.
//!
//! Every observation is an [`Estimate`], and one rule judges every margin
//! ([`Margin::holds`]): inside the bound, or outside by at most `K`
//! standard errors (plus rounding).  An exact value has a standard error
//! of 0.
//!
//! ```
//! use dlb_theory::claims::{self, Estimate, Observation};
//! use dlb_theory::AlgoParams;
//!
//! let params = AlgoParams::new(64, 1, 1.1)?;
//! let ratio = Observation::Ratio(Estimate::exact(params.g_iter(1.0, 300)));
//! let margin = claims::by_id("thm1").evaluate(&params, &ratio);
//! assert!(margin.expect("inside the hypothesis").holds());
//! # Ok::<(), dlb_theory::ParamError>(())
//! ```
//!
//! Lemma 4 has no entry: its statement is cut off in the source text.

use crate::{AlgoParams, CostBounds, TheoremBounds};

/// Standard errors a sampled estimate may lie past its bound and still
/// hold: a false alarm on 0.13 % of the rows whose true value sits on
/// the bound.
pub(crate) const K: f64 = 3.0;
/// The allowance of every value, relative to the bound: rounding.
const ROUNDING: f64 = 1e-12;
/// Batch values behind a sampled [`Estimate`], at most.
pub const BATCHES: usize = 20;

/// A value with its standard error: the mean of `samples` seeded runs,
/// or an exact value (`se` 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimate.
    pub mean: f64,
    /// Its standard error.
    pub se: f64,
    /// The runs behind it (1 for an exact value).
    pub samples: usize,
}

impl Estimate {
    /// A value computed exactly, or from one deterministic run.
    pub fn exact(value: f64) -> Estimate {
        Estimate {
            mean: value,
            se: 0.0,
            samples: 1,
        }
    }

    /// `statistic` of all `runs`, with the standard error of its batch
    /// values: the same statistic over consecutive, disjoint batches of
    /// `⌈runs/BATCHES⌉` runs (one run each when there are at most
    /// [`BATCHES`]), `sd/√batches`.
    ///
    /// # Panics
    ///
    /// With fewer than two runs: one run has no spread to estimate.
    pub fn of_batches<T>(runs: &[T], statistic: impl Fn(&[T]) -> f64) -> Estimate {
        assert!(runs.len() >= 2, "an estimate needs two runs");
        let batch = runs.len().div_ceil(BATCHES);
        let values: Vec<f64> = runs.chunks(batch).map(&statistic).collect();
        let b = values.len() as f64;
        let centre = values.iter().sum::<f64>() / b;
        let var = values.iter().map(|v| (v - centre).powi(2)).sum::<f64>() / (b - 1.0);
        Estimate {
            mean: statistic(runs),
            se: (var / b).sqrt(),
            samples: runs.len(),
        }
    }

    /// The mean of one value per run, as [`Estimate::of_batches`].
    pub fn of_runs(values: &[f64]) -> Estimate {
        Estimate::of_batches(values, |batch| {
            batch.iter().sum::<f64>() / batch.len() as f64
        })
    }

    /// `self − other` for independent estimates.
    pub fn minus(self, other: Estimate) -> Estimate {
        Estimate {
            mean: self.mean - other.mean,
            se: self.se.hypot(other.se),
            samples: self.samples.min(other.samples),
        }
    }

    /// `self / other` for independent estimates (first-order error).
    pub fn over(self, other: Estimate) -> Estimate {
        let mean = self.mean / other.mean;
        let relative = (self.se / self.mean).hypot(other.se / other.mean);
        Estimate {
            mean,
            se: (mean * relative).abs(),
            samples: self.samples.min(other.samples),
        }
    }
}

/// What a claim is evaluated on.  A claim about one model is outside on
/// an observation of another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Observation {
    /// `E(l_1)/E(l_i)`: the generating processor's (expected) load over
    /// any other processor's, in the one-processor model (Theorems 1–3).
    Ratio(Estimate),
    /// The (expected) loads of two processors `i ≠ j` of the full model
    /// run with borrow limit `c_borrow` (Theorem 4).
    Pair {
        load_i: Estimate,
        load_j: Estimate,
        c_borrow: usize,
    },
    /// The (mean) number of balancing operations a processor needed to
    /// consume `c` packets starting from load `x` (Lemmas 5 and 6).
    Decrease { x: u64, c: u64, ops: Estimate },
    /// A statistic of a §7 figure's or table's runs, the quantity a shape
    /// claim bounds.
    Statistic(Estimate),
}

impl Observation {
    /// The value a claim bounds: the ratio, `load_i`, `ops` or the
    /// statistic.
    pub fn value(&self) -> Estimate {
        match *self {
            Observation::Ratio(k) | Observation::Statistic(k) => k,
            Observation::Pair { load_i, .. } => load_i,
            Observation::Decrease { ops, .. } => ops,
        }
    }
}

/// A claim's bounds at one regime and the value they bound; a side the
/// claim leaves open is infinite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Margin {
    /// The least value the claim allows (`-∞` if it bounds only above).
    pub lower: f64,
    /// The greatest value the claim allows (`∞` if it bounds only below).
    pub upper: f64,
    /// The observed value.
    pub observed: f64,
    /// The standard error of the distance between them: the
    /// observation's, and the bound's where the bound is itself
    /// estimated (Theorem 4's grows with `E(l_j)`).
    pub se: f64,
}

impl Margin {
    /// The distance from the observation to the nearer bound, in the
    /// observation's unit: `≥ 0` inside, negative by how far outside
    /// (NaN for a NaN observation).
    pub fn slack(&self) -> f64 {
        self.nearer().1
    }

    /// The one verdict rule: the observation is inside, or outside by at
    /// most `K` standard errors plus 1e-12 of the nearer bound.
    pub fn holds(&self) -> bool {
        let (bound, slack) = self.nearer();
        slack >= -(K * self.se + ROUNDING * bound.abs())
    }

    fn nearer(&self) -> (f64, f64) {
        let above = self.observed - self.lower;
        let below = self.upper - self.observed;
        if above < below {
            (self.lower, above)
        } else {
            (self.upper, below)
        }
    }
}

/// `(lower, upper, se)`: a claim's bounds on an observation, and the
/// standard error of the bound itself (0 unless it is computed from an
/// estimate).
type Bounds = (f64, f64, f64);

/// One of the paper's statements.
pub struct Claim {
    /// `thm1` … `thm4`, `lemma5`, `lemma6`, or `<figure>.<shape>`.
    pub id: &'static str,
    /// What the paper states, quantified.
    pub statement: &'static str,
    /// Where the bound comes from: a theorem, or the figure or table that
    /// shows the shape and, where the paper gives no number, this
    /// repository's reading of its words.
    pub source: &'static str,
    /// Whether the paper makes the claim at `params` about this
    /// observation: it comes from the model the claim is about, and the
    /// parameters meet the claim's assumptions beyond the standing
    /// `1 ≤ f < δ+1`, `1 ≤ δ < n` that every [`AlgoParams`] satisfies.
    /// A shape claim holds at any parameters, on a
    /// [`Observation::Statistic`].
    pub hypothesis: fn(&AlgoParams, &Observation) -> bool,
    /// The bounds on the observation's value, `None` where their
    /// formulas leave their domain.
    bound: fn(&TheoremBounds, &CostBounds, &Observation) -> Option<Bounds>,
}

impl Claim {
    /// The claim's bounds at `params` next to `observed`: `None` outside
    /// its hypothesis or where the bounds' formulas leave their domain.
    pub fn evaluate(&self, params: &AlgoParams, observed: &Observation) -> Option<Margin> {
        if !(self.hypothesis)(params, observed) {
            return None;
        }
        let (tb, cb) = (
            TheoremBounds::for_params(params),
            CostBounds::for_params(params),
        );
        let (lower, upper, bound_se) = (self.bound)(&tb, &cb, observed)?;
        let observed = observed.value();
        Some(Margin {
            lower,
            upper,
            observed: observed.mean,
            se: observed.se.hypot(bound_se),
        })
    }
}

/// Terms of the Lemma 6 sum tried before the bound counts as unreachable.
const LEMMA6_TERMS: usize = 100_000;
const OPEN: f64 = f64::INFINITY;

/// Theorems 1–3: the one-processor model's ratio.
fn one_processor(_: &AlgoParams, observed: &Observation) -> bool {
    matches!(observed, Observation::Ratio(_))
}

/// Lemmas 5 and 6: the decrease simulation, with a trigger factor above
/// 1 (both bounds divide by `f − 1`) and a decrease that leaves a
/// positive load, `c < x`.
fn proper_decrease(params: &AlgoParams, observed: &Observation) -> bool {
    params.f() > 1.0 && matches!(*observed, Observation::Decrease { x, c, .. } if c < x)
}

/// The shapes: a statistic of a figure's or table's runs.
fn statistic(_: &AlgoParams, observed: &Observation) -> bool {
    matches!(observed, Observation::Statistic(_))
}

/// The operation counts a lemma takes from [`CostBounds`] for the
/// observed decrease, either of which may be undefined.
fn decrease(
    cb: &CostBounds,
    observed: &Observation,
    bounds: fn(&CostBounds, u64, u64) -> [Option<u64>; 2],
) -> Option<Bounds> {
    let Observation::Decrease { x, c, .. } = *observed else {
        return None;
    };
    let [lower, upper] = bounds(cb, x, c);
    let count = |t: Option<u64>, open: f64| t.map_or(open, |t| t as f64);
    (lower.is_some() || upper.is_some()).then(|| (count(lower, -OPEN), count(upper, OPEN), 0.0))
}

/// A shape claim: `lower ≤ statistic ≤ upper`.
macro_rules! shape {
    ($id:literal, $source:literal, $statement:literal, $lower:expr, $upper:expr $(,)?) => {
        Claim {
            id: $id,
            statement: $statement,
            source: $source,
            hypothesis: statistic,
            bound: |_, _, _| Some(($lower, $upper, 0.0)),
        }
    };
}

/// Every claim: the theorems and lemmas in the paper's order, then the
/// §7 shapes in the order of its figures.
pub static CLAIMS: [Claim; 31] = [
    Claim {
        id: "thm1",
        statement: "one processor generating from a balanced start: after t balancing \
                    operations E(l_1)/E(l_i) = G^t(1), which increases to the \
                    fixed point FIX(n,δ,f) of G and never exceeds it",
        source: "Theorem 1",
        hypothesis: one_processor,
        bound: |tb, _, _| Some((-OPEN, tb.fix, 0.0)),
    },
    Claim {
        id: "thm2",
        statement: "for every network size n: δ/(δ+1−1/f) ≤ FIX(n,δ,1/f) and \
                    FIX(n,δ,f) ≤ δ/(δ+1−f), their limits as n → ∞",
        source: "Theorem 2",
        hypothesis: one_processor,
        bound: |tb, _, _| Some((tb.fix_inv_limit, tb.fix_limit, 0.0)),
    },
    Claim {
        id: "thm3",
        statement: "one processor whose load grows or shrinks by f between its balancing \
                    operations, in any order, from a balanced start: \
                    FIX(n,δ,1/f) ≤ E(l_1)/E(l_i) ≤ FIX(n,δ,f)",
        source: "Theorem 3",
        hypothesis: one_processor,
        bound: |tb, _, _| Some((tb.fix_inv, tb.fix, 0.0)),
    },
    Claim {
        id: "thm4",
        statement: "every processor generating and consuming, borrow limit C: \
                    E(l_i) ≤ f²·δ/(δ+1−f)·(E(l_j) + C) for any two processors i, j",
        source: "Theorem 4",
        hypothesis: |_, observed| matches!(observed, Observation::Pair { .. }),
        bound: |tb, _, observed| match *observed {
            Observation::Pair {
                load_j, c_borrow, ..
            } => Some((
                -OPEN,
                tb.theorem4_upper(load_j.mean, c_borrow),
                tb.theorem4_coeff * load_j.se,
            )),
            _ => None,
        },
    },
    Claim {
        id: "lemma5",
        statement: "consuming c packets from load x takes t balancing operations with \
                    ⌊log((f²(c−x)+x−1)/((f−1)(x+1))·(U−1)+1)/log U⌋ ≤ t and, where \
                    1/(1−D) ≥ (c+xf−x−f)/((x−1)f(1−1/f)), \
                    t ≤ ⌈log((c+xf−x−f)/((x−1)f(1−1/f))·(D−1)+1)/log D⌉ \
                    (U, D: §6's constants, `CostBounds::u`/`d`)",
        source: "Lemma 5",
        hypothesis: proper_decrease,
        bound: |_, cb, observed| {
            decrease(cb, observed, |cb, x, c| {
                [cb.lemma5_lower(x, c), cb.lemma5_upper(x, c)]
            })
        },
    },
    Claim {
        id: "lemma6",
        statement: "consuming c packets from load x takes at most the least t with \
                    Σ_{i=0}^{t−2} Π_{j=0}^{i} D_j ≥ (c−1)/((x−1)·f·(1−1/f)) balancing \
                    operations (D_j: `CostBounds::d_i`)",
        source: "Lemma 6",
        hypothesis: proper_decrease,
        bound: |_, cb, observed| {
            decrease(cb, observed, |cb, x, c| {
                [None, cb.lemma6_upper(x, c, LEMMA6_TERMS)]
            })
        },
    },
    shape!(
        "fig6.small",
        "Figure 6: the VD axis ends below 1",
        "the variation density VD of a non-generating processor, converged \
         (t = 150, 35 processors), is below 1",
        -OPEN,
        1.0,
    ),
    shape!(
        "fig6.converged",
        "Figure 6's flattening curves; 5 % is this repository's reading",
        "VD levels off in t and in the network size: the last 10 of 150 steps, and \
         the last step of the processor grid (30 to 35), move it by at most 5 % of its \
         value (the largest change over δ and f)",
        -OPEN,
        0.05,
    ),
    shape!(
        "fig6.delta",
        "Figure 6",
        "VD falls as δ doubles, at each f: VD(2δ) − VD(δ) ≤ 0",
        -OPEN,
        0.0,
    ),
    shape!(
        "fig6.f",
        "Figure 6",
        "VD rises with f, at each δ: VD(f = 1.2) − VD(f = 1.1) ≥ 0",
        0.0,
        OPEN,
    ),
    shape!(
        "fig7.delta",
        "Figures 7 and 8",
        "the per-run spread of loads at t = 499 (max − min over processors) is \
         smaller at δ = 4 than at δ = 1, at each f: spread(δ = 4) − spread(δ = 1) ≤ 0",
        -OPEN,
        0.0,
    ),
    shape!(
        "fig7.f",
        "Figure 7",
        "at δ = 1 the per-run spread at t = 499 is smaller at f = 1.1 than at f = 1.8",
        -OPEN,
        0.0,
    ),
    shape!(
        "fig7.f_secondary",
        "§7: f plays only a minor role if δ is large",
        "f moves the per-run spread at t = 499 less at δ = 4 than at δ = 1: \
         |effect of f at δ = 4| − |effect of f at δ = 1| ≤ 0",
        -OPEN,
        0.0,
    ),
    shape!(
        "fig9.flat",
        "Figures 9 and 10; 2 % is this repository's reading of flat",
        "at t = 400 every processor's mean load is within 2 % of the grand mean: \
         max_i |E(l_i) − mean|/mean ≤ 0.02",
        -OPEN,
        0.02,
    ),
    shape!(
        "fig9.delta",
        "Figures 9 and 10: the large impact of δ",
        "the per-run spread of loads at t = 400 is smaller at δ = 4 than at δ = 1, \
         at each f",
        -OPEN,
        0.0,
    ),
    shape!(
        "fig9.f_secondary",
        "Figures 9 and 10",
        "at t = 400 and f = 1.1, going to f = 1.8 moves the per-run spread less than \
         going to δ = 4: |effect of f| − |effect of δ| ≤ 0",
        -OPEN,
        0.0,
    ),
    shape!(
        "table1.remote",
        "Table 1",
        "remote borrow does not rise as C doubles: remote(2C) − remote(C) ≤ 0",
        -OPEN,
        0.0,
    ),
    shape!(
        "table1.collapse",
        "Table 1",
        "borrow fail and decrease sim fall from C = 4 to C = 32: value(32) − value(4) ≤ 0",
        -OPEN,
        0.0,
    ),
    shape!(
        "table1.total",
        "Table 1 prints 107.8 to 109.6; 10 % as table1.printed",
        "total borrow stays about constant over C: total(32)/total(4) − 1 within ±10 %",
        -0.1,
        0.1,
    ),
    shape!(
        "table1.printed",
        "Table 1's printed values; 10 % is this repository's reading of a match",
        "each value Table 1 prints at C = 4 and C = 32 is reproduced within 10 %: \
         ours/paper ∈ [0.9, 1.1]",
        0.9,
        1.1,
    ),
    shape!(
        "scaling.ratio",
        "Theorem 2's bound does not depend on n; 0.1 is this repository's reading of \
         bounded",
        "the mean max/mean load ratio grows by at most 0.1 per 4× processors: \
         ratio(4n) − ratio(n) ≤ 0.1",
        -OPEN,
        0.1,
    ),
    shape!(
        "scaling.ops",
        "§1: each processor balances for itself; 25 % is this repository's reading \
         of linear",
        "balancing operations grow linearly in n: per processor at n = 1024 over per \
         processor at n = 16, minus 1, within ±25 %",
        -0.25,
        0.25,
    ),
    shape!(
        "sparse.dense",
        "DESIGN.md §11, beyond the paper: stepping only the active processors \
         is the dense engine",
        "event-driven stepping ends in the state dense stepping does: processors \
         whose load differs, plus 1 if any counter differs, is 0",
        0.0,
        0.0,
    ),
    shape!(
        "ablation.simple",
        "§7 deploys the practical variant; 15 % is this repository's reading of \
         almost as well",
        "the practical variant balances almost as well as the full one: its mean \
         max/mean over the full variant's, minus 1, is at most 15 %",
        -OPEN,
        0.15,
    ),
    shape!(
        "ablation.aggressive",
        "the appendix's exchange rule x = min{d_jj, Σ_k b_ik} changes no bound",
        "the aggressive exchange balances as the strict one: the difference of their \
         mean max/mean is 0 within its error bar",
        0.0,
        0.0,
    ),
    shape!(
        "ablation.topo_global",
        "a topology with global partners is the simple rule",
        "global partners on the torus are the simple variant draw for draw: the \
         largest difference of any league column is 0",
        0.0,
        0.0,
    ),
    shape!(
        "ablation.locality",
        "the paper names locality as future work",
        "neighbour-only partners settle later than global ones: \
         conv_steps(neighbours) − conv_steps(global) ≥ 0",
        0.0,
        OPEN,
    ),
    shape!(
        "ablation.hops",
        "a torus neighbour is one hop away",
        "neighbour-only partners move every packet exactly 1 hop",
        1.0,
        1.0,
    ),
    shape!(
        "closed_loop.speedup",
        "§1: balancing buys parallelism for a computation rooted on one processor",
        "the makespan speedup over no balancing rises as n doubles: \
         speedup(2n) − speedup(n) ≥ 0",
        0.0,
        OPEN,
    ),
    shape!(
        "async_latency.ratio",
        "§2 counts latency negligible only at its low end",
        "the mean max/mean load ratio does not fall as latency grows 4×: \
         ratio(4L) − ratio(L) ≥ 0",
        0.0,
        OPEN,
    ),
    shape!(
        "async_latency.aborts",
        "the message protocol holds a lock for a round trip",
        "the share of aborted operations does not fall as latency grows 4×",
        0.0,
        OPEN,
    ),
];

/// The claim with this id.
///
/// # Panics
///
/// If there is none: the ids are those of [`CLAIMS`].
pub fn by_id(id: &str) -> &'static Claim {
    let claim = CLAIMS.iter().find(|claim| claim.id == id);
    claim.unwrap_or_else(|| panic!("no claim {id}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn params(n: usize, delta: usize, f: f64) -> AlgoParams {
        AlgoParams::new(n, delta, f).expect("valid")
    }

    fn ratio(k: f64) -> Observation {
        Observation::Ratio(Estimate::exact(k))
    }

    fn decrease(x: u64, c: u64, ops: f64) -> Observation {
        let ops = Estimate::exact(ops);
        Observation::Decrease { x, c, ops }
    }

    fn pair(load_i: f64, load_j: f64) -> Observation {
        let c_borrow = 4;
        Observation::Pair {
            load_i: Estimate::exact(load_i),
            load_j: Estimate::exact(load_j),
            c_borrow,
        }
    }

    fn statistic(value: f64) -> Observation {
        Observation::Statistic(Estimate::exact(value))
    }

    /// One observation inside each claim's hypothesis, at n = 64, δ = 1,
    /// f = 1.1 (the regime `bounds.rs` pins by hand).
    fn typical(id: &str) -> Observation {
        match id {
            "thm1" | "thm2" | "thm3" => ratio(1.05),
            "thm4" => pair(10.0, 10.0),
            "lemma5" | "lemma6" => decrease(100, 50, 6.0),
            // Inside every shape's bounds.
            "ablation.hops" | "table1.printed" => statistic(1.0),
            _ => statistic(0.0),
        }
    }

    #[test]
    fn ids_are_unique_and_statements_non_empty() {
        let ids: HashSet<&str> = CLAIMS.iter().map(|claim| claim.id).collect();
        assert_eq!(ids.len(), CLAIMS.len());
        for claim in &CLAIMS {
            assert!(!claim.statement.trim().is_empty(), "{}", claim.id);
            assert!(!claim.source.trim().is_empty(), "{}", claim.id);
            assert!(std::ptr::eq(by_id(claim.id), claim));
        }
    }

    #[test]
    #[should_panic(expected = "no claim lemma4")]
    fn an_unknown_id_panics() {
        by_id("lemma4");
    }

    #[test]
    fn outside_the_hypothesis_is_outside_never_violated() {
        let p = params(64, 1, 1.1);
        // However far out of bounds: an observation of another model.
        for id in ["thm1", "thm2", "thm3", "thm4"] {
            assert_eq!(by_id(id).evaluate(&p, &decrease(10, 5, 1e9)), None, "{id}");
            assert_eq!(by_id(id).evaluate(&p, &statistic(1e9)), None, "{id}");
        }
        for id in ["lemma5", "lemma6"] {
            let claim = by_id(id);
            assert_eq!(claim.evaluate(&p, &ratio(1e9)), None);
            // c ≥ x: the decrease would empty the processor.
            for c in [100, 150] {
                assert!(!(claim.hypothesis)(&p, &decrease(100, c, 1e9)));
                assert_eq!(claim.evaluate(&p, &decrease(100, c, 1e9)), None, "{id}");
            }
            // f = 1: both lemmas divide by f − 1.
            let f1 = params(64, 1, 1.0);
            assert_eq!(claim.evaluate(&f1, &decrease(100, 50, 1e9)), None, "{id}");
        }
        // A shape is about a statistic of runs, not about a model.
        for claim in CLAIMS.iter().skip(6) {
            assert_eq!(claim.evaluate(&p, &ratio(1e9)), None, "{}", claim.id);
        }
    }

    #[test]
    fn a_synthetic_breach_is_violated_with_negative_slack() {
        let p = params(64, 1, 1.1);
        let tb = TheoremBounds::for_params(&p);
        let breaches = [
            ("thm1", ratio(2.0 * tb.fix)),
            ("thm2", ratio(2.0 * tb.fix_limit)),
            ("thm2", ratio(0.5 * tb.fix_inv_limit)),
            ("thm3", ratio(2.0 * tb.fix)),
            ("thm3", ratio(0.5 * tb.fix_inv)),
            ("thm4", pair(100.0, 1.0)),
            ("lemma5", decrease(100, 50, 1000.0)),
            ("lemma5", decrease(100, 50, 0.0)),
            ("lemma6", decrease(100, 50, 1000.0)),
            ("fig6.small", statistic(1.5)),
            ("fig6.f", statistic(-0.1)),
            ("ablation.hops", statistic(2.0)),
        ];
        for (id, observed) in breaches {
            let margin = by_id(id).evaluate(&p, &observed).expect("inside");
            assert!(margin.slack() < 0.0, "{id}: {margin:?}");
            assert!(!margin.holds(), "{id}");
        }
        // A NaN observation never holds.
        let nan = by_id("thm1").evaluate(&p, &ratio(f64::NAN));
        assert!(!nan.unwrap().holds());
    }

    #[test]
    fn holds_on_the_hand_computed_regime() {
        let p = params(64, 1, 1.1);
        let tb = TheoremBounds::for_params(&p);
        let margin = |id| by_id(id).evaluate(&p, &typical(id)).expect("inside");
        for claim in &CLAIMS {
            let m = margin(claim.id);
            assert!(m.slack() >= 0.0 && m.holds(), "{}: {m:?}", claim.id);
        }
        // FIX ≈ 1.107 below δ/(δ+1−f) = 1/0.9.
        assert_eq!(margin("thm1").upper, tb.fix);
        assert!(tb.fix > 1.0 && tb.fix <= 1.0 / 0.9);
        let thm2 = margin("thm2");
        assert!((thm2.upper - 1.0 / 0.9).abs() < 1e-12);
        assert!((thm2.lower - 1.0 / (2.0 - 1.0 / 1.1)).abs() < 1e-12);
        let thm3 = margin("thm3");
        assert_eq!((thm3.lower, thm3.upper), (tb.fix_inv, tb.fix));
        // f²δ/(δ+1−f)·(10 + 4) with f = 1.1, δ = 1.
        let thm4 = margin("thm4");
        assert!((thm4.upper - 1.1 * 1.1 / 0.9 * 14.0).abs() < 1e-9);
        assert!((thm4.slack() - (1.1 * 1.1 / 0.9 * 14.0 - 10.0)).abs() < 1e-9);
        // Lemma 5 at x = 100, c = 50: t_low ≈ 3, t_up ≈ 9; Lemma 6 between.
        let lemma5 = margin("lemma5");
        let (lower, upper) = (lemma5.lower, lemma5.upper);
        assert!((2.0..=5.0).contains(&lower), "lower = {lower}");
        assert!((7.0..=11.0).contains(&upper), "upper = {upper}");
        let lemma6 = margin("lemma6");
        assert!(lower <= lemma6.upper && lemma6.upper <= upper, "{lemma6:?}");
        assert_eq!(lemma6.lower, f64::NEG_INFINITY);
        assert_eq!(lemma5.slack(), (6.0 - lower).min(upper - 6.0));
    }

    #[test]
    fn a_two_sided_margin_binds_on_the_nearer_side() {
        let margin = |observed, se| Margin {
            lower: 1.0,
            upper: 10.0,
            observed,
            se,
        };
        assert_eq!(margin(2.0, 0.0).slack(), 1.0);
        assert_eq!(margin(9.5, 0.0).slack(), 0.5);
        // Exact: only rounding past the bound.
        assert!(margin(10.0 + 1e-12, 0.0).holds() && !margin(10.0 + 1e-9, 0.0).holds());
        // Sampled: K standard errors on either side, whatever the bound.
        assert!(margin(10.5, 0.5 / K).holds() && !margin(10.5, 0.49 / K).holds());
        assert!(margin(0.5, 0.5 / K).holds() && !margin(0.5, 0.49 / K).holds());
    }

    #[test]
    fn the_bound_error_of_theorem_4_adds_to_the_observation_error() {
        let p = params(64, 1, 1.1);
        let coeff = TheoremBounds::for_params(&p).theorem4_coeff;
        let sampled = |mean, se| Estimate {
            mean,
            se,
            samples: 30,
        };
        let observed = Observation::Pair {
            load_i: sampled(10.0, 0.3),
            load_j: sampled(10.0, 0.4),
            c_borrow: 4,
        };
        let margin = by_id("thm4").evaluate(&p, &observed).unwrap();
        assert!((margin.se - 0.3f64.hypot(coeff * 0.4)).abs() < 1e-12);
    }

    #[test]
    fn batch_means_estimate_the_standard_error() {
        // 40 runs alternating 0 and 2: batches of two runs each read 1.
        let flat: Vec<f64> = (0..40).map(|r| f64::from(r % 2 * 2)).collect();
        let e = Estimate::of_runs(&flat);
        assert_eq!((e.mean, e.se, e.samples), (1.0, 0.0, 40));
        // Fewer runs than batches: one batch per run, sd/√n.
        let e = Estimate::of_runs(&[1.0, 3.0]);
        assert_eq!((e.mean, e.samples), (2.0, 2));
        assert!((e.se - 1.0).abs() < 1e-12);
        // A ratio of sums over the runs, its error from the batch ratios.
        let runs: Vec<(f64, f64)> = (1..=40).map(|r| (f64::from(r), 1.0)).collect();
        let ratio = |batch: &[(f64, f64)]| {
            batch.iter().map(|r| r.0).sum::<f64>() / batch.iter().map(|r| r.1).sum::<f64>()
        };
        assert_eq!(Estimate::of_batches(&runs, ratio).mean, 20.5);
        let d = Estimate::exact(3.0).minus(Estimate::of_runs(&[1.0, 3.0]));
        assert_eq!((d.mean, d.se), (1.0, 1.0));
    }
}
