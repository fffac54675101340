//! The paper's guarantees as one table.  Each of Theorems 1–4 and
//! Lemmas 5/6 is a [`Claim`]: an id, the statement, the hypothesis under
//! which the paper makes it, and the bound it puts on an
//! [`Observation`].  A test, an experiment or a monitor checks a claim by
//! evaluating it here rather than by writing it out again.  The numbers
//! come from [`TheoremBounds`] and [`CostBounds`]; a claim only says
//! which of them bounds what.
//!
//! ```
//! use dlb_theory::claims::{self, Observation};
//! use dlb_theory::AlgoParams;
//!
//! let params = AlgoParams::new(64, 1, 1.1)?;
//! let ratio = Observation::Ratio(params.g_iter(1.0, 300));
//! let margin = claims::by_id("thm1").evaluate(&params, &ratio);
//! assert!(margin.expect("inside the hypothesis").holds_within(1e-12));
//! # Ok::<(), dlb_theory::ParamError>(())
//! ```
//!
//! Lemma 4 has no entry: its statement is cut off in the source text.

use crate::{AlgoParams, CostBounds, TheoremBounds};

/// What a claim is evaluated on.  A claim about one model is outside on
/// an observation of another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Observation {
    /// `E(l_1)/E(l_i)`: the generating processor's (expected) load over
    /// any other processor's, in the one-processor model (Theorems 1–3).
    Ratio(f64),
    /// The (expected) loads of two processors `i ≠ j` of the full model
    /// run with borrow limit `c_borrow` (Theorem 4).
    Pair {
        load_i: f64,
        load_j: f64,
        c_borrow: usize,
    },
    /// The (mean) number of balancing operations a processor needed to
    /// consume `c` packets starting from load `x` (Lemmas 5 and 6).
    Decrease { x: u64, c: u64, ops: f64 },
}

impl Observation {
    /// The value a claim bounds: the ratio, `load_i` or `ops`.
    pub fn value(&self) -> f64 {
        match *self {
            Observation::Ratio(k) => k,
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
}

impl Margin {
    /// The distance from the observation to the nearer bound, in the
    /// observation's unit: `≥ 0` inside, negative by how far outside
    /// (NaN for a NaN observation).
    pub fn slack(&self) -> f64 {
        self.nearer().1
    }

    /// Whether the observation is inside, or outside by at most
    /// `tolerance` times the nearer bound — the allowance of a sampled
    /// estimate of an expectation (0 for an exact value).
    pub fn holds_within(&self, tolerance: f64) -> bool {
        let (bound, slack) = self.nearer();
        slack >= -tolerance * bound.abs()
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

/// One of the paper's guarantees.
pub struct Claim {
    /// `thm1` … `thm4`, `lemma5`, `lemma6`.
    pub id: &'static str,
    /// What the paper states.
    pub statement: &'static str,
    /// Whether the paper makes the claim at `params` about this
    /// observation: it comes from the model the claim is about, and the
    /// parameters meet the claim's assumptions beyond the standing
    /// `1 ≤ f < δ+1`, `1 ≤ δ < n` that every [`AlgoParams`] satisfies.
    pub hypothesis: fn(&AlgoParams, &Observation) -> bool,
    /// The `(lower, upper)` bounds on the observation's value, `None`
    /// where their formulas leave their domain.
    bound: fn(&TheoremBounds, &CostBounds, &Observation) -> Option<(f64, f64)>,
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
        let (lower, upper) = (self.bound)(&tb, &cb, observed)?;
        let observed = observed.value();
        Some(Margin {
            lower,
            upper,
            observed,
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

/// The operation counts a lemma takes from [`CostBounds`] for the
/// observed decrease, either of which may be undefined.
fn decrease(
    cb: &CostBounds,
    observed: &Observation,
    bounds: fn(&CostBounds, u64, u64) -> [Option<u64>; 2],
) -> Option<(f64, f64)> {
    let Observation::Decrease { x, c, .. } = *observed else {
        return None;
    };
    let [lower, upper] = bounds(cb, x, c);
    let count = |t: Option<u64>, open: f64| t.map_or(open, |t| t as f64);
    (lower.is_some() || upper.is_some()).then(|| (count(lower, -OPEN), count(upper, OPEN)))
}

/// Every claim, in the paper's order.
pub static CLAIMS: [Claim; 6] = [
    Claim {
        id: "thm1",
        statement: "one processor generating from a balanced start: after t balancing \
                    operations E(l_1)/E(l_i) = G^t(1), which increases to the \
                    fixed point FIX(n,δ,f) of G and never exceeds it",
        hypothesis: one_processor,
        bound: |tb, _, _| Some((-OPEN, tb.fix)),
    },
    Claim {
        id: "thm2",
        statement: "for every network size n: δ/(δ+1−1/f) ≤ FIX(n,δ,1/f) and \
                    FIX(n,δ,f) ≤ δ/(δ+1−f), their limits as n → ∞",
        hypothesis: one_processor,
        bound: |tb, _, _| Some((tb.fix_inv_limit, tb.fix_limit)),
    },
    Claim {
        id: "thm3",
        statement: "one processor whose load grows or shrinks by f between its balancing \
                    operations, in any order, from a balanced start: \
                    FIX(n,δ,1/f) ≤ E(l_1)/E(l_i) ≤ FIX(n,δ,f)",
        hypothesis: one_processor,
        bound: |tb, _, _| Some((tb.fix_inv, tb.fix)),
    },
    Claim {
        id: "thm4",
        statement: "every processor generating and consuming, borrow limit C: \
                    E(l_i) ≤ f²·δ/(δ+1−f)·(E(l_j) + C) for any two processors i, j",
        hypothesis: |_, observed| matches!(observed, Observation::Pair { .. }),
        bound: |tb, _, observed| match *observed {
            Observation::Pair {
                load_j, c_borrow, ..
            } => Some((-OPEN, tb.theorem4_upper(load_j, c_borrow))),
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
        hypothesis: proper_decrease,
        bound: |_, cb, observed| {
            decrease(cb, observed, |cb, x, c| {
                [None, cb.lemma6_upper(x, c, LEMMA6_TERMS)]
            })
        },
    },
];

/// The claim with this id.
///
/// # Panics
///
/// If there is none: the ids are the six of [`CLAIMS`].
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

    fn decrease(x: u64, c: u64, ops: f64) -> Observation {
        Observation::Decrease { x, c, ops }
    }

    fn pair(load_i: f64, load_j: f64) -> Observation {
        let c_borrow = 4;
        Observation::Pair {
            load_i,
            load_j,
            c_borrow,
        }
    }

    /// One observation inside each claim's hypothesis, at n = 64, δ = 1,
    /// f = 1.1 (the regime `bounds.rs` pins by hand).
    fn typical(id: &str) -> Observation {
        match id {
            "thm1" | "thm2" | "thm3" => Observation::Ratio(1.05),
            "thm4" => pair(10.0, 10.0),
            _ => decrease(100, 50, 6.0),
        }
    }

    #[test]
    fn ids_are_unique_and_statements_non_empty() {
        let ids: HashSet<&str> = CLAIMS.iter().map(|claim| claim.id).collect();
        assert_eq!(ids.len(), CLAIMS.len());
        for claim in &CLAIMS {
            assert!(!claim.statement.trim().is_empty(), "{}", claim.id);
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
        }
        for id in ["lemma5", "lemma6"] {
            let claim = by_id(id);
            assert_eq!(claim.evaluate(&p, &Observation::Ratio(1e9)), None);
            // c ≥ x: the decrease would empty the processor.
            for c in [100, 150] {
                assert!(!(claim.hypothesis)(&p, &decrease(100, c, 1e9)));
                assert_eq!(claim.evaluate(&p, &decrease(100, c, 1e9)), None, "{id}");
            }
            // f = 1: both lemmas divide by f − 1.
            let f1 = params(64, 1, 1.0);
            assert_eq!(claim.evaluate(&f1, &decrease(100, 50, 1e9)), None, "{id}");
        }
    }

    #[test]
    fn a_synthetic_breach_is_violated_with_negative_slack() {
        let p = params(64, 1, 1.1);
        let tb = TheoremBounds::for_params(&p);
        let breaches = [
            ("thm1", Observation::Ratio(2.0 * tb.fix)),
            ("thm2", Observation::Ratio(2.0 * tb.fix_limit)),
            ("thm2", Observation::Ratio(0.5 * tb.fix_inv_limit)),
            ("thm3", Observation::Ratio(2.0 * tb.fix)),
            ("thm3", Observation::Ratio(0.5 * tb.fix_inv)),
            ("thm4", pair(100.0, 1.0)),
            ("lemma5", decrease(100, 50, 1000.0)),
            ("lemma5", decrease(100, 50, 0.0)),
            ("lemma6", decrease(100, 50, 1000.0)),
        ];
        for (id, observed) in breaches {
            let margin = by_id(id).evaluate(&p, &observed).expect("inside");
            assert!(margin.slack() < 0.0, "{id}: {margin:?}");
            assert!(!margin.holds_within(0.0), "{id}");
        }
        // A NaN observation never holds.
        let nan = by_id("thm1").evaluate(&p, &Observation::Ratio(f64::NAN));
        assert!(!nan.unwrap().holds_within(1.0));
    }

    #[test]
    fn holds_on_the_hand_computed_regime() {
        let p = params(64, 1, 1.1);
        let tb = TheoremBounds::for_params(&p);
        let margin = |id| by_id(id).evaluate(&p, &typical(id)).expect("inside");
        for claim in &CLAIMS {
            let m = margin(claim.id);
            assert!(
                m.slack() >= 0.0 && m.holds_within(0.0),
                "{}: {m:?}",
                claim.id
            );
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
        let margin = |observed| Margin {
            lower: 1.0,
            upper: 10.0,
            observed,
        };
        assert_eq!(margin(2.0).slack(), 1.0);
        assert_eq!(margin(9.5).slack(), 0.5);
        // Tolerances scale with the nearer bound: 5 % of 10 above, of 1 below.
        assert!(!margin(10.5).holds_within(0.0) && margin(10.5).holds_within(0.05));
        assert!(!margin(0.9).holds_within(0.05) && margin(0.9).holds_within(0.1));
    }
}
