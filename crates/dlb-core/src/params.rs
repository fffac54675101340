//! Parameters of the full load balancing algorithm.

use dlb_theory::{AlgoParams, ParamError};

/// How borrowed-packet markers are repaid when the remote generator still
/// holds self-generated packets (`d_{j,j} > 0`; §4 / appendix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangePolicy {
    /// Repay only markers of the remote generator's own class:
    /// `x = min{d_{j,j}, b_{i,j}}`.  Preserves per-class virtual-load
    /// conservation (the invariant the proofs rely on); this is the
    /// default.
    #[default]
    Strict,
    /// The paper's literal appendix rule `x = min{d_{j,j}, Σ_k b_{i,k}}`:
    /// markers of *any* class on the borrower are cancelled against
    /// class-`j` packets.  Minimises the number of borrowed packets left
    /// on the borrower per remote operation, at the cost of per-class
    /// conservation (global conservation still holds).
    Aggressive,
}

dlb_json::codec! { enum ExchangePolicy as "exchange policy" {
    "strict" => Strict,
    "aggressive" => Aggressive,
} }

/// Validated parameter set of the full algorithm: the analysis triple
/// `(n, δ, f)` plus the borrow limit `C` and the exchange policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    algo: AlgoParams,
    c_borrow: usize,
    exchange: ExchangePolicy,
}

impl Params {
    /// Validates and constructs a parameter set.
    ///
    /// `n` is the network size, `delta` the number of random partners per
    /// balancing operation, `f` the trigger factor (`1 ≤ f < δ + 1`), and
    /// `c_borrow` the limit `C` on borrowed packets per processor.
    pub fn new(n: usize, delta: usize, f: f64, c_borrow: usize) -> Result<Self, ParamError> {
        Ok(Params {
            algo: AlgoParams::new(n, delta, f)?,
            c_borrow,
            exchange: ExchangePolicy::Strict,
        })
    }

    /// The configuration of the paper's §7 experiments:
    /// `δ = 1`, `f = 1.1`, `C = 4` on a given network size.
    pub fn paper_section7(n: usize) -> Self {
        Params::new(n, 1, 1.1, 4).expect("paper defaults are valid")
    }

    /// Replaces the exchange policy (builder style).
    pub fn with_exchange(mut self, exchange: ExchangePolicy) -> Self {
        self.exchange = exchange;
        self
    }

    /// The analysis triple `(n, δ, f)`.
    pub fn algo(&self) -> &AlgoParams {
        &self.algo
    }

    /// Network size `n`.
    pub fn n(&self) -> usize {
        self.algo.n()
    }

    /// Packets on a network where every processor holds `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial · n` does not fit in a `u64`.
    pub(crate) fn initial_total(&self, initial: u64) -> u64 {
        let n = self.n() as u64;
        initial
            .checked_mul(n)
            .unwrap_or_else(|| panic!("initial load {initial} × n = {n} overflows u64"))
    }

    /// Neighbourhood size `δ`.
    pub fn delta(&self) -> usize {
        self.algo.delta()
    }

    /// Trigger factor `f`.
    pub fn f(&self) -> f64 {
        self.algo.f()
    }

    /// Borrow limit `C`.
    pub fn c_borrow(&self) -> usize {
        self.c_borrow
    }

    /// Exchange policy for marker repayment.
    pub(crate) fn exchange(&self) -> ExchangePolicy {
        self.exchange
    }

    /// The increase-trigger predicate: has the self-generated load grown by
    /// factor `f` since the last balancing?  The `current > last` guard
    /// makes `l_old = 0` behave like the paper's Figure 1 (a first packet
    /// triggers) without triggering on no-change events.  The comparison
    /// carries a relative epsilon so that, e.g., `f = 1.1` and `last = 100`
    /// trigger at exactly 110 despite `1.1` not being representable.
    pub fn grow_triggered(&self, current: u64, last: u64) -> bool {
        current > last && current as f64 >= self.grow_threshold(last)
    }

    /// The decrease-trigger predicate (`d_{i,i} ≤ l_old / f`), with the
    /// same epsilon treatment as [`Params::grow_triggered`].
    pub fn shrink_triggered(&self, current: u64, last: u64) -> bool {
        current < last && current as f64 <= self.shrink_threshold(last)
    }

    /// The float `grow_triggered` compares against.
    fn grow_threshold(&self, last: u64) -> f64 {
        let threshold = self.f() * last as f64;
        threshold - 1e-9 * threshold
    }

    /// The float `shrink_triggered` compares against.
    fn shrink_threshold(&self, last: u64) -> f64 {
        let threshold = last as f64 / self.f();
        threshold + 1e-9 * threshold
    }

    /// The two predicates as integer bounds, `(grow_at, shrink_below)`:
    /// `grow_triggered(c, last) ⇔ c ≥ grow_at` and
    /// `shrink_triggered(c, last) ⇔ c < shrink_below` for every load
    /// `c`, so a caller that keeps them beside `last` tests a trigger
    /// with two integer compares.  The engines read them from a
    /// [`TriggerTable`].
    ///
    /// While the float threshold is at most 2⁵³ (every `last < 2⁵⁰` at
    /// `f < 8`), each `c` up to the bound converts to `f64` exactly, so
    /// the bound is the ceiling (floor + 1) of the threshold, clamped to
    /// `last + 1` (`last`).  Beyond that the monotone predicate is
    /// binary-searched: stepping by ±1 from the float estimate would not
    /// terminate once `f·last` saturates past 2⁶⁴.
    ///
    /// One value cannot be represented: when no load grow-triggers
    /// (`last = u64::MAX`, or `f·last` rounds above `2⁶⁴`), `grow_at`
    /// is `u64::MAX`, which claims the load `u64::MAX` itself triggers.
    pub fn trigger_bounds(&self, last: u64) -> (u64, u64) {
        const EXACT: f64 = (1u64 << 53) as f64;
        let grow = self.grow_threshold(last);
        let grow_at = if grow <= EXACT {
            // The threshold is non-negative and at most 2⁵³, so the cast
            // is its floor (`f64::ceil` is a libm call on x86-64 without
            // SSE4.1).
            #[allow(clippy::cast_possible_truncation)]
            let floor = grow as u64;
            let ceil = floor + u64::from((floor as f64) < grow);
            ceil.max(last + 1)
        } else if !self.grow_triggered(u64::MAX, last) {
            u64::MAX
        } else {
            first_true(last + 1, u64::MAX, |c| self.grow_triggered(c, last))
        };
        let shrink = self.shrink_threshold(last);
        let shrink_below = if shrink < EXACT {
            // Non-negative and below 2⁵³: the cast is the floor.
            #[allow(clippy::cast_possible_truncation)]
            let floor = shrink as u64;
            (floor + 1).min(last)
        } else {
            // `last` itself never shrink-triggers.
            first_true(0, last, |c| !self.shrink_triggered(c, last))
        };
        (grow_at, shrink_below)
    }
}

/// [`Params::trigger_bounds`] for every `l_old` below
/// [`TriggerTable::LEN`], one table per engine, so the stepping engines
/// test a trigger with one lookup and two integer compares where the
/// float predicates take a multiply, a division and two float
/// compares.  Larger `l_old` values compute their bounds on the spot.
///
/// The slots fill on demand, up to the largest `l_old` looked up: at
/// ≈ 6 ns a slot, filling all of them up front would cost an engine
/// 6 µs before its first event, several times what constructing the
/// rest of a small `Cluster` costs.
///
/// `TriggerTable::triggered` is `grow_triggered || shrink_triggered`
/// for every load below `u64::MAX` (the one bound `trigger_bounds`
/// cannot represent); a load of `u64::MAX` overflows the engine's next
/// generate anyway.
#[derive(Debug, Clone)]
pub struct TriggerTable {
    params: Params,
    /// `bounds[l] = params.trigger_bounds(l)`; at most `LEN` slots.
    bounds: Vec<(u64, u64)>,
}

impl TriggerTable {
    /// Slots in the table: `l_old` values `0..LEN` are looked up.
    pub const LEN: usize = 1024;

    /// The (empty) table of `params`' trigger factor.
    pub fn new(params: Params) -> Self {
        TriggerTable {
            params,
            bounds: Vec::new(),
        }
    }

    /// `(grow_at, shrink_below)` of `l_old`, as [`Params::trigger_bounds`].
    #[inline]
    pub fn bounds(&mut self, l_old: u64) -> (u64, u64) {
        match usize::try_from(l_old).ok().and_then(|l| self.bounds.get(l)) {
            Some(&slot) => slot,
            None => self.fill_to(l_old),
        }
    }

    /// The bounds of an `l_old` past the filled slots, filling the
    /// slots up to it if it is below `LEN`.
    #[inline(never)]
    fn fill_to(&mut self, l_old: u64) -> (u64, u64) {
        let params = self.params;
        if l_old >= Self::LEN as u64 {
            return params.trigger_bounds(l_old);
        }
        let filled = self.bounds.len() as u64;
        self.bounds
            .extend((filled..=l_old).map(|l| params.trigger_bounds(l)));
        // The slot of `l_old` is the last one filled.
        self.bounds[self.bounds.len() - 1]
    }

    /// Whether a processor at load `cur` that last balanced at `l_old`
    /// initiates a balancing operation.
    #[inline]
    pub(crate) fn triggered(&mut self, cur: u64, l_old: u64) -> bool {
        let (grow_at, shrink_below) = self.bounds(l_old);
        cur >= grow_at || cur < shrink_below
    }
}

/// The smallest `x` in `[lo, hi]` with `pred(x)`, for a `pred` that is
/// false and then true on the range, and true at `hi`.
fn first_true(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = Params::paper_section7(64);
        assert_eq!(p.n(), 64);
        assert_eq!(p.delta(), 1);
        assert!((p.f() - 1.1).abs() < 1e-12);
        assert_eq!(p.c_borrow(), 4);
        assert_eq!(p.exchange(), ExchangePolicy::Strict);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(Params::new(64, 1, 2.0, 4).is_err());
        assert!(Params::new(64, 0, 1.1, 4).is_err());
        assert!(Params::new(1, 1, 1.1, 4).is_err());
    }

    #[test]
    fn grow_trigger_semantics() {
        let p = Params::new(64, 1, 1.1, 4).unwrap();
        // From zero: the first packet triggers (Figure 1 start).
        assert!(p.grow_triggered(1, 0));
        // No event, no trigger.
        assert!(!p.grow_triggered(0, 0));
        // 10 -> 11 with f = 1.1: 11 >= 11.0 triggers.
        assert!(p.grow_triggered(11, 10));
        assert!(!p.grow_triggered(10, 10));
        // 100 -> 109 does not reach 110.
        assert!(!p.grow_triggered(109, 100));
        assert!(p.grow_triggered(110, 100));
    }

    #[test]
    fn shrink_trigger_semantics() {
        let p = Params::new(64, 1, 1.1, 4).unwrap();
        // 11 -> 10: 10 <= 10.0 triggers.
        assert!(p.shrink_triggered(10, 11));
        // 110 -> 101: 101 > 100 no trigger; -> 100 triggers.
        assert!(!p.shrink_triggered(101, 110));
        assert!(p.shrink_triggered(100, 110));
        // Zero last never shrink-triggers.
        assert!(!p.shrink_triggered(0, 0));
    }

    #[test]
    fn builder_exchange_policy() {
        let p = Params::paper_section7(8).with_exchange(ExchangePolicy::Aggressive);
        assert_eq!(p.exchange(), ExchangePolicy::Aggressive);
    }

    /// Every slot is `trigger_bounds`, each predicate flips exactly at
    /// its slot's bound, and past the table the lookup falls back to
    /// `trigger_bounds`.
    #[test]
    fn trigger_table_is_the_predicates() {
        for delta in 1..=8usize {
            let top = (delta + 1) as f64;
            for f in [1.0, 1.1, 1.3, 2.0, top.next_down()] {
                let Ok(p) = Params::new(64, delta, f, 4) else {
                    continue; // f = 2.0 needs δ ≥ 2
                };
                let mut table = TriggerTable::new(p);
                // A first lookup mid-table fills every slot below it.
                let mid = TriggerTable::LEN as u64 / 2;
                let lasts = [mid]
                    .into_iter()
                    .chain(0..TriggerTable::LEN as u64 + 8)
                    .chain([1 << 40]);
                for last in lasts {
                    let (grow_at, shrink_below) = table.bounds(last);
                    assert_eq!((grow_at, shrink_below), p.trigger_bounds(last));
                    let flips = [
                        (p.grow_triggered(grow_at - 1, last), false),
                        (p.grow_triggered(grow_at, last), true),
                        (p.shrink_triggered(shrink_below, last), false),
                        (
                            shrink_below > 0 && p.shrink_triggered(shrink_below - 1, last),
                            shrink_below > 0,
                        ),
                    ];
                    for (k, (got, want)) in flips.into_iter().enumerate() {
                        assert_eq!(got, want, "flip {k}: l_old = {last}, f = {f}");
                    }
                    for c in [
                        grow_at - 1,
                        grow_at,
                        shrink_below.saturating_sub(1),
                        shrink_below,
                        last,
                    ] {
                        let either = p.grow_triggered(c, last) || p.shrink_triggered(c, last);
                        assert_eq!(
                            table.triggered(c, last),
                            either,
                            "c = {c}, l_old = {last}, f = {f}"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// `trigger_bounds` is the two predicates, on both sides of every
        /// bound, across the closed form, its boundary with the search
        /// (`f·l_old` near 2⁵³) and the saturated search (`f·l_old` near
        /// 2⁶⁴).
        #[test]
        fn trigger_bounds_are_the_predicates(
            delta in 1usize..=8,
            f_pick in 0u8..4,
            f_unit in 0.0f64..1.0,
            l_pick in 0u8..8,
            l_raw in proptest::prelude::any::<u64>(),
            offset in -2_000i64..2_000,
            c_raw in proptest::prelude::any::<u64>(),
        ) {
            let top = (delta + 1) as f64;
            let f = match f_pick {
                0 => 1.0,
                1 => top.next_down(),
                _ => 1.0 + f_unit * (top - 1.0),
            };
            let p = Params::new(64, delta, f, 4).unwrap();
            // The cast saturates, as wanted at the top of the range.
            #[allow(clippy::cast_possible_truncation)]
            let near = |x: f64| (x as u64).saturating_add_signed(offset);
            let specials = [0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
            let last = match l_pick {
                0 | 1 => l_raw >> 14,
                2 => l_raw >> 54,
                3 => l_raw,
                4 => near((1u64 << 53) as f64 / f),
                5 => near((1u64 << 50) as f64),
                6 => near(u64::MAX as f64 / f),
                _ => specials[usize::try_from(l_raw % specials.len() as u64).unwrap()],
            };
            let (grow_at, shrink_below) = p.trigger_bounds(last);
            let mut loads = vec![last.saturating_sub(1), last, last.saturating_add(1), c_raw];
            for bound in [grow_at, shrink_below] {
                loads.extend((0..4).map(|k| bound.saturating_sub(2).saturating_add(k)));
            }
            loads.push(near(f * last as f64));
            for c in loads {
                // The one unrepresentable case: nothing grow-triggers.
                if !(grow_at == u64::MAX && c == u64::MAX) {
                    proptest::prop_assert_eq!(
                        p.grow_triggered(c, last), c >= grow_at,
                        "grow: c = {}, l_old = {}, f = {}, grow_at = {}", c, last, f, grow_at
                    );
                }
                proptest::prop_assert_eq!(
                    p.shrink_triggered(c, last), c < shrink_below,
                    "shrink: c = {}, l_old = {}, f = {}, shrink_below = {}", c, last, f, shrink_below
                );
            }
        }
    }
}
