//! The *practical* variant of the algorithm (the method of \[7\] the paper's
//! §1 describes): no virtual load classes — each processor watches its raw
//! packet count and, when it has grown or shrunk by the factor `f` since
//! the last balancing it took part in, equalises the load of itself and
//! `δ` random partners (±1).
//!
//! This is the variant the paper's cited applications (branch & bound,
//! concurrent Prolog, graphics) actually ran; the virtual-class machinery
//! of [`crate::cluster`] exists to make the analysis of Theorem 4 go
//! through.  Comparing the two is the `ablation` experiment.
//!
//! One engine, [`RawCluster`], runs every flavour of the practical
//! variant.  The flavours differ in two decisions only, the two policy
//! points of a [`BalanceRule`]: *who may be a partner*
//! ([`BalanceRule::draw_partners`]) and *how the group total is split
//! and what moving it costs* ([`BalanceRule::split`]).  [`SimpleCluster`]
//! is the engine under the [`EvenRule`]; [`crate::WeightedCluster`]
//! (shares ∝ speed) and `dlb-net`'s `TopoCluster` (topology neighbours,
//! hop accounting) are the same engine under their own rules.  An
//! operation executes at its trigger: moving δ + 1 integers costs tens
//! of nanoseconds, so there is nothing to overlap or defer.
//!
//! Hot-path note: the alive-candidate list used under a crash mask is
//! cached and rebuilt only when the mask changes (checked once per step,
//! not per balancing operation), and partner draws / share splits write
//! into reusable scratch buffers — steady-state stepping allocates
//! nothing.  The load summary follows the step's form: across
//! active-list steps every load write shifts the load counts, while a
//! dense step keeps none and the query after it scans `loads` — the
//! step has walked all `n` already, and the shifts had cost 15 % of a
//! dense run.  Behaviour is bit-identical to the dense reference
//! implementation in [`crate::reference`] (see `tests/opt_equivalence.rs`).

use crate::balance::{even_shares_into, sample_into, sample_others_into};
use crate::metrics::Metrics;
use crate::params::{Params, TriggerTable};
use crate::strategy::{Events, LoadBalancer, LoadEvent, LoadSummary};
use crate::summary::LoadCounts;
use dlb_trace::{SharedSink, TraceEvent};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;

/// Who is up during the current step, as [`BalanceRule::draw_partners`]
/// sees it.
pub struct Alive<'a> {
    n: usize,
    /// Sorted processors that are up (current only while `down` is
    /// non-empty).
    up: &'a [usize],
    /// The step's crash mask; empty when every processor is up.
    down: &'a [bool],
}

impl Alive<'_> {
    /// Whether processor `p` is crashed for this step.
    #[inline]
    pub fn is_down(&self, p: usize) -> bool {
        !self.down.is_empty() && self.down[p]
    }

    /// Whether no processor is down (so nothing needs filtering).
    #[inline]
    pub fn all_up(&self) -> bool {
        self.down.is_empty()
    }

    /// The paper's partner draw: appends a uniform `amount`-subset
    /// (fewer if fewer are up) of the up processors other than `who`,
    /// which must itself be up.
    #[inline]
    pub fn draw_others(
        &self,
        rng: &mut ChaCha8Rng,
        who: usize,
        amount: usize,
        out: &mut Vec<usize>,
    ) {
        if self.all_up() {
            sample_others_into(rng, self.n, who, amount, out);
            return;
        }
        // Candidates = up processors minus `who`, in sorted order: the
        // cached list with one index skipped.
        let candidates = self.up.len() - 1;
        let pos = self.up.binary_search(&who).expect("initiator is alive");
        let start = out.len();
        sample_into(rng, candidates, amount.min(candidates), out);
        for x in &mut out[start..] {
            *x = self.up[*x + usize::from(*x >= pos)];
        }
    }
}

/// The two decisions in which the practical variants differ.  Trigger,
/// event loop, crash masks, metrics and tracing are the engine's and
/// identical under every rule.
pub trait BalanceRule {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Panics unless the rule's per-processor data covers exactly `n`
    /// processors.
    fn check_size(&self, _n: usize) {}

    /// Appends the initiator's balance partners (up, distinct, not the
    /// initiator) to `out`; the only place a balance consumes
    /// randomness.  The default is the paper's: `delta` processors
    /// uniformly from everyone who is up.
    fn draw_partners(
        &mut self,
        rng: &mut ChaCha8Rng,
        initiator: usize,
        delta: usize,
        alive: &Alive<'_>,
        out: &mut Vec<usize>,
    ) {
        alive.draw_others(rng, initiator, delta, out);
    }

    /// Splits what the group holds — `held[k]` packets on `members[k]`,
    /// initiator first — into one share per member (`shares` cleared
    /// first, same order, same total), and tallies whatever the rule
    /// counts about the move.  Called once per balance operation, in
    /// trigger order.
    fn split(&mut self, members: &[usize], held: &[u64], shares: &mut Vec<u64>);
}

/// The paper's rule: partners uniform over everyone alive, total split
/// evenly (±1), moving a packet costs nothing worth counting.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvenRule;

impl BalanceRule for EvenRule {
    fn name(&self) -> &'static str {
        "spaa93-simple"
    }

    #[inline]
    fn split(&mut self, _members: &[usize], held: &[u64], shares: &mut Vec<u64>) {
        even_shares_into(held.iter().sum(), held.len(), shares);
    }
}

/// The practical raw-load balancer, generic over its [`BalanceRule`].
pub struct RawCluster<R: BalanceRule> {
    params: Params,
    triggers: TriggerTable,
    rule: R,
    loads: Vec<u64>,
    l_old: Vec<u64>,
    rng: ChaCha8Rng,
    metrics: Metrics,
    initial_total: u64,
    /// The crash mask the alive-candidate cache was built from.
    mask_cache: Vec<bool>,
    /// Sorted processors alive under `mask_cache`.
    alive: Vec<usize>,
    /// Whether the current step's mask has any down processor.
    any_down: bool,
    scratch_members: Vec<usize>,
    /// The members' loads before a split, and their shares after it.
    scratch_held: Vec<u64>,
    scratch_shares: Vec<u64>,
    sink: Option<SharedSink>,
    /// The partner list lent to each `BalanceInitiated` event.
    trace_partners: Vec<u64>,
    /// The counter list lent to each `StepDelta` event.
    trace_counters: Vec<(Cow<'static, str>, u64)>,
    step_no: u64,
    /// Load counts backing [`LoadBalancer::load_summary`], kept only
    /// across active-list steps: a dense step drops them (it walks all
    /// `n` anyway, so the query after it scans `loads`), and the next
    /// active-list step rebuilds them once.  While kept, every load
    /// write shifts them from the old load to the new.
    summary: Option<LoadCounts>,
}

/// The practical balancer exactly as the paper describes it: the
/// engine under the [`EvenRule`].
pub type SimpleCluster = RawCluster<EvenRule>;

impl SimpleCluster {
    /// An empty cluster.
    pub fn new(params: Params, seed: u64) -> Self {
        Self::with_initial_load(params, seed, 0)
    }

    /// A cluster where every processor starts with `initial` packets.
    ///
    /// # Panics
    ///
    /// Panics if the total, `initial · n`, does not fit in a `u64`.
    pub fn with_initial_load(params: Params, seed: u64, initial: u64) -> Self {
        let initial_total = params.initial_total(initial);
        let mut cluster = Self::with_rule(params, EvenRule, seed);
        cluster.loads.fill(initial);
        cluster.l_old.fill(initial);
        cluster.initial_total = initial_total;
        cluster
    }
}

impl<R: BalanceRule> RawCluster<R> {
    /// An empty cluster balancing by `rule`.
    ///
    /// # Panics
    ///
    /// Panics if the rule does not fit `params.n()` processors
    /// ([`BalanceRule::check_size`]).
    pub fn with_rule(params: Params, rule: R, seed: u64) -> Self {
        let n = params.n();
        rule.check_size(n);
        RawCluster {
            params,
            triggers: TriggerTable::new(params),
            rule,
            loads: vec![0; n],
            l_old: vec![0; n],
            rng: ChaCha8Rng::seed_from_u64(seed),
            metrics: Metrics::new(),
            initial_total: 0,
            mask_cache: vec![false; n],
            alive: (0..n).collect(),
            any_down: false,
            scratch_members: Vec::new(),
            scratch_held: Vec::new(),
            scratch_shares: Vec::new(),
            sink: None,
            trace_partners: Vec::new(),
            trace_counters: Vec::new(),
            step_no: 0,
            summary: None,
        }
    }

    /// The rule this cluster balances by (and whatever it has tallied).
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// Sets processor `i`'s load, moving it in the summary's counts.
    /// The one writer of `self.loads` outside a balance.
    #[inline]
    fn set_load(&mut self, i: usize, load: u64) {
        let old = std::mem::replace(&mut self.loads[i], load);
        if let Some(counts) = self.summary.as_mut() {
            counts.shift(old, load);
        }
    }

    /// Builds the load counts from scratch: once per run of
    /// active-list steps.  Out of line: inlined into `step_events` it
    /// slowed every active-list step of a 2²⁰-processor run by ~15 %.
    #[cold]
    #[inline(never)]
    fn count_loads(&mut self) {
        self.summary = Some(LoadCounts::new(self.loads.iter().copied()));
    }

    fn trace_on(&self) -> bool {
        self.sink.as_ref().is_some_and(|s| s.enabled())
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
    }

    /// Load of processor `i`.
    pub fn load(&self, i: usize) -> u64 {
        self.loads[i]
    }

    /// Checks conservation of packets; returns the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let total: u64 = self.loads.iter().sum();
        let expect = self.initial_total + self.metrics.generated - self.metrics.consumed;
        if total != expect {
            return Err(format!("global load {total} != expected {expect}"));
        }
        let alive_expect = self.mask_cache.iter().filter(|&&d| !d).count();
        if self.alive.len() != alive_expect {
            return Err(format!(
                "alive cache holds {} processors, mask says {alive_expect}",
                self.alive.len()
            ));
        }
        if let Some(counts) = &self.summary {
            counts.check(self.loads.iter().copied())?;
        }
        Ok(())
    }

    fn trigger_check(&mut self, i: usize) {
        if self.triggers.triggered(self.loads[i], self.l_old[i]) {
            self.full_balance(i);
        }
    }

    /// Balances the initiator with the partners the rule draws; down
    /// processors (per the mask cached by the current step) are not
    /// offered to it.  Per operation the trace reads BalanceInitiated,
    /// then PacketsMigrated if any moved.
    fn full_balance(&mut self, initiator: usize) {
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        members.push(initiator);
        let alive = Alive {
            n: self.params.n(),
            up: &self.alive,
            down: if self.any_down { &self.mask_cache } else { &[] },
        };
        self.rule.draw_partners(
            &mut self.rng,
            initiator,
            self.params.delta(),
            &alive,
            &mut members,
        );
        if members.len() == 1 {
            self.scratch_members = members;
            return; // nobody alive to balance with
        }
        self.metrics.balance_ops += 1;
        self.metrics.messages += members.len() as u64;
        let tracing = self.trace_on();
        if let Some(sink) = self.sink.as_ref().filter(|_| tracing) {
            self.trace_partners.clear();
            self.trace_partners
                .extend(members[1..].iter().map(|&p| p as u64));
            // The f-factor ratio that fired the trigger.
            let trigger = self.loads[initiator] as f64 / self.l_old[initiator].max(1) as f64;
            sink.record_balance(
                self.step_no,
                initiator as u64,
                &mut self.trace_partners,
                trigger,
            );
        }
        self.scratch_held.clear();
        self.scratch_held
            .extend(members.iter().map(|&mm| self.loads[mm]));
        let (held, shares) = (&self.scratch_held, &mut self.scratch_shares);
        self.rule.split(&members, held, shares);
        debug_assert_eq!(shares.len(), members.len(), "one share per member");
        debug_assert_eq!(
            shares.iter().sum::<u64>(),
            held.iter().sum::<u64>(),
            "a split conserves the group total"
        );
        let mut op_packets = 0u64;
        for ((&mm, &had), &share) in members.iter().zip(held).zip(shares.iter()) {
            op_packets += had.saturating_sub(share);
            self.loads[mm] = share;
            self.l_old[mm] = share;
            if let Some(counts) = self.summary.as_mut() {
                counts.shift(had, share);
            }
        }
        self.metrics.packets_migrated += op_packets;
        if op_packets > 0 && tracing {
            self.emit(TraceEvent::PacketsMigrated {
                step: self.step_no,
                initiator: initiator as u64,
                count: op_packets,
            });
        }
        self.scratch_members = members;
    }
}

impl<R: BalanceRule> LoadBalancer for RawCluster<R> {
    fn n(&self) -> usize {
        self.params.n()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    /// Under a crash mask, down processors take no events, never
    /// initiate, are never picked as partners, and their load is frozen
    /// in place until they rejoin.
    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        // The summary follows the step's form (module docs).
        match events {
            Events::Dense(_) => self.summary = None,
            Events::Active(_) if self.summary.is_none() => self.count_loads(),
            Events::Active(_) => {}
        }
        // The mask is fixed for the whole step: refresh the alive cache
        // once here (only when the mask actually changed), not per
        // balancing operation.
        match down {
            None => self.any_down = false,
            Some(down) => {
                if down != self.mask_cache.as_slice() {
                    self.mask_cache.clear();
                    self.mask_cache.extend_from_slice(down);
                    self.alive.clear();
                    self.alive.extend((0..down.len()).filter(|&p| !down[p]));
                }
                self.any_down = down.iter().any(|&d| d);
            }
        }
        // The counters before the step, kept only if a sink wants the delta.
        let before = self.trace_on().then_some(self.metrics);
        events.for_each_up(self.params.n(), down, |i, ev| match ev {
            LoadEvent::Generate => {
                self.set_load(i, self.loads[i] + 1);
                self.metrics.generated += 1;
                self.trigger_check(i);
            }
            LoadEvent::Consume => {
                if self.loads[i] > 0 {
                    self.set_load(i, self.loads[i] - 1);
                    self.metrics.consumed += 1;
                    self.trigger_check(i);
                } else {
                    self.metrics.consume_blocked += 1;
                }
            }
            LoadEvent::Idle => {}
        });
        if let (Some(before), Some(sink)) = (&before, &self.sink) {
            self.metrics.delta_into(before, &mut self.trace_counters);
            sink.record_delta(self.step_no, &mut self.trace_counters);
        }
        self.step_no += 1;
    }

    /// The counts' extrema after an active-list step, one scan of
    /// `loads` after a dense one (or before any step).
    fn load_summary(&mut self) -> LoadSummary {
        // Packet conservation (checked by `check_invariants`): total
        // load is initial + generated − consumed.
        let total = self.initial_total + self.metrics.generated - self.metrics.consumed;
        let (min, max) = match self.summary.as_mut() {
            Some(counts) => counts.min_max(),
            None => {
                let scan = LoadSummary::from_loads(&self.loads);
                (scan.min, scan.max)
            }
        };
        let summary = LoadSummary { min, max, total };
        // A load write that skipped the counts, or broke conservation,
        // skews every later report; debug builds pay a second scan to
        // fail at once.
        debug_assert_eq!(summary, LoadSummary::from_loads(&self.loads));
        summary
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        self.rule.name()
    }

    fn set_trace_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_balances_and_conserves() {
        let params = Params::paper_section7(8);
        let mut cluster = SimpleCluster::new(params, 1);
        let events = vec![LoadEvent::Generate; 8];
        for _ in 0..500 {
            cluster.step(&events);
        }
        cluster.check_invariants().unwrap();
        let loads = cluster.loads();
        assert_eq!(loads.iter().sum::<u64>(), 8 * 500);
        let stats = crate::strategy::imbalance_stats(&loads);
        assert!(stats.max_over_mean < 1.3, "{stats:?}");
    }

    #[test]
    fn one_producer_ratio_near_theorem_bound() {
        // Large initial load to make the f-trigger granularity negligible;
        // generator-only workload approximates the §3 model.
        let params = Params::new(32, 2, 1.5, 4).unwrap();
        let ratios: Vec<f64> = (0..20)
            .map(|seed| {
                let mut cluster = SimpleCluster::with_initial_load(params, seed, 1_000);
                let mut events = vec![LoadEvent::Idle; 32];
                events[0] = LoadEvent::Generate;
                // Only processor 0 triggers: read the ratio right after its
                // last operation, where thm2 bounds it (as the
                // one-processor model does), not mid-way through a cycle.
                let mut after_op = 0.0;
                for _ in 0..60_000 {
                    let ops = cluster.metrics().balance_ops;
                    cluster.step(&events);
                    if cluster.metrics().balance_ops > ops {
                        let loads = cluster.loads();
                        let others = loads[1..].iter().sum::<u64>() as f64 / 31.0;
                        after_op = loads[0] as f64 / others;
                    }
                }
                after_op
            })
            .collect();
        let observed = dlb_theory::claims::Estimate::of_runs(&ratios);
        // Claim `thm2`'s limit (≈ 1.33 here), within the runs' error bar.
        let ratio = dlb_theory::claims::Observation::Ratio(observed);
        let thm2 = dlb_theory::claims::by_id("thm2").evaluate(params.algo(), &ratio);
        let thm2 = thm2.expect("inside");
        assert!(thm2.holds(), "mean ratio {observed:?}: {thm2:?}");
        assert!(
            observed.mean > 1.0,
            "producer should carry more: {observed:?}"
        );
    }

    #[test]
    fn consume_drains_to_zero() {
        let params = Params::paper_section7(4);
        let mut cluster = SimpleCluster::with_initial_load(params, 5, 100);
        let events = vec![LoadEvent::Consume; 4];
        for _ in 0..150 {
            cluster.step(&events);
        }
        assert_eq!(cluster.loads().iter().sum::<u64>(), 0);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let params = Params::paper_section7(8);
        let run = |seed| {
            let mut c = SimpleCluster::new(params, seed);
            let events: Vec<LoadEvent> = (0..8)
                .map(|i| {
                    if i % 2 == 0 {
                        LoadEvent::Generate
                    } else {
                        LoadEvent::Consume
                    }
                })
                .collect();
            for _ in 0..200 {
                c.step(&events);
            }
            c.loads()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn masked_step_freezes_down_processors() {
        let params = Params::paper_section7(8);
        let mut cluster = SimpleCluster::with_initial_load(params, 2, 50);
        let frozen = cluster.load(3);
        let events = vec![LoadEvent::Generate; 8];
        let mut down = vec![false; 8];
        down[3] = true;
        for _ in 0..200 {
            cluster.step_masked(&events, &down);
        }
        assert_eq!(cluster.load(3), frozen, "down processor's load is frozen");
        cluster.check_invariants().unwrap();
        // After recovery the processor participates again.
        down[3] = false;
        for _ in 0..200 {
            cluster.step_masked(&events, &down);
        }
        assert!(
            cluster.load(3) > frozen,
            "rejoined processor accumulates load"
        );
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn empty_mask_matches_plain_step() {
        let params = Params::paper_section7(8);
        let run = |masked: bool| {
            let mut c = SimpleCluster::new(params, 7);
            let events = vec![LoadEvent::Generate; 8];
            let down = vec![false; 8];
            for _ in 0..300 {
                if masked {
                    c.step_masked(&events, &down);
                } else {
                    c.step(&events);
                }
            }
            c.loads()
        };
        assert_eq!(run(true), run(false), "all-alive mask is a no-op");
    }

    #[test]
    fn alive_cache_survives_mask_flips() {
        // Alternate between masks so the cache is rebuilt, reused, and
        // bypassed (all-alive), interleaved with plain steps.
        let params = Params::paper_section7(8);
        let mut cluster = SimpleCluster::with_initial_load(params, 4, 30);
        let events = vec![LoadEvent::Generate; 8];
        let mut down_a = vec![false; 8];
        down_a[1] = true;
        let mut down_b = vec![false; 8];
        down_b[1] = true;
        down_b[5] = true;
        for round in 0..50 {
            match round % 4 {
                0 => cluster.step_masked(&events, &down_a),
                1 => cluster.step_masked(&events, &down_b),
                2 => cluster.step_masked(&events, &[false; 8]),
                _ => cluster.step(&events),
            }
            cluster.check_invariants().unwrap();
        }
    }

    #[test]
    fn load_summary_is_exact_and_passive() {
        let params = Params::paper_section7(8);
        let run = |observe: bool| {
            let mut c = SimpleCluster::with_initial_load(params, 12, 10);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            for _ in 0..400 {
                let events: Vec<LoadEvent> = (0..8)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            LoadEvent::Generate
                        } else {
                            LoadEvent::Consume
                        }
                    })
                    .collect();
                c.step(&events);
                if observe {
                    let s = c.load_summary();
                    let loads = c.loads();
                    assert_eq!(s.min, *loads.iter().min().unwrap());
                    assert_eq!(s.max, *loads.iter().max().unwrap());
                    assert_eq!(s.total, loads.iter().sum::<u64>());
                }
            }
            (c.loads(), *c.metrics())
        };
        assert_eq!(run(true), run(false), "observation must be passive");
    }

    #[test]
    #[should_panic(expected = "initial load 9223372036854775808 × n = 2 overflows u64")]
    fn initial_total_past_u64_is_refused() {
        SimpleCluster::with_initial_load(Params::paper_section7(2), 0, 1 << 63);
    }

    /// One drawn step: the events of all `n` processors (from `seed`)
    /// and, if `crashed`, a crash mask drawn from the same stream.
    fn drawn_step(n: usize, seed: u64, crashed: bool) -> (Vec<LoadEvent>, Option<Vec<bool>>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let events = (0..n)
            .map(|_| match rng.gen_range(0..10) {
                0..=4 => LoadEvent::Generate,
                5..=7 => LoadEvent::Consume,
                _ => LoadEvent::Idle,
            })
            .collect();
        let down = crashed.then(|| (0..n).map(|_| rng.gen_bool(0.2)).collect());
        (events, down)
    }

    /// Steps `observed` and `blind` through the same mix of dense and
    /// active-list steps; `observed` is queried where a step says so,
    /// `blind` never.
    fn step_mix<R: BalanceRule>(
        mut observed: RawCluster<R>,
        mut blind: RawCluster<R>,
        steps: &[(bool, bool, bool, u64)],
    ) -> Result<(), proptest::TestCaseError> {
        use proptest::prop_assert_eq;
        let n = observed.n();
        let scan = |c: &RawCluster<R>| LoadSummary::from_loads(&c.loads);
        prop_assert_eq!(observed.load_summary(), scan(&observed));
        for (k, &(dense, crashed, query, seed)) in steps.iter().enumerate() {
            let (events, down) = drawn_step(n, seed, crashed);
            let active: Vec<(usize, LoadEvent)> = events
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, ev)| ev != LoadEvent::Idle)
                .collect();
            for c in [&mut observed, &mut blind] {
                let form = if dense {
                    Events::Dense(&events)
                } else {
                    Events::Active(&active)
                };
                c.step_events(form, down.as_deref());
                if let Err(e) = c.check_invariants() {
                    return Err(proptest::TestCaseError::fail(format!("step {k}: {e}")));
                }
            }
            if query {
                prop_assert_eq!(observed.load_summary(), scan(&observed), "step {}", k);
            }
        }
        prop_assert_eq!(&observed.loads, &blind.loads);
        prop_assert_eq!(observed.metrics, blind.metrics);
        let next_draw = |c: &RawCluster<R>| {
            let mut out = Vec::new();
            sample_others_into(&mut c.rng.clone(), n, 0, c.params.delta(), &mut out);
            out
        };
        prop_assert_eq!(next_draw(&observed), next_draw(&blind));
        Ok(())
    }

    proptest::proptest! {
        /// Whatever mix of dense and active-list steps ran, crashed or
        /// not, `load_summary` is the scan of the loads, and asking for
        /// it changes nothing: a twin never queried ends with the same
        /// loads, metrics and next partner draw.  Initial loads on both
        /// sides of the flat counters' end take the counts' overflow
        /// map.
        #[test]
        fn raw_summary_is_the_scan_under_any_step_mix(
            n in 2usize..=200,
            delta_unit in 0.0f64..1.0,
            f_unit in 0.0f64..1.0,
            weighted in proptest::prelude::any::<bool>(),
            initial_high in proptest::prelude::any::<bool>(),
            initial_low in 0u64..40,
            seed in proptest::prelude::any::<u64>(),
            steps in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<u64>(),
                ),
                1..30,
            ),
        ) {
            // δ in 1..n and f in [1, δ + 1).
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let delta = 1 + (delta_unit * (n - 1) as f64) as usize;
            let f = 1.0 + f_unit * delta as f64;
            let initial = if initial_high { 65_520 + initial_low } else { initial_low };
            let params = Params::new(n, delta, f, 4).unwrap();
            if weighted {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 1);
                let speeds: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
                let make = || {
                    let mut c = crate::WeightedCluster::new(params, speeds.clone(), seed);
                    c.loads.fill(initial);
                    c.l_old.fill(initial);
                    c.initial_total = params.initial_total(initial);
                    c
                };
                step_mix(make(), make(), &steps)?;
            } else {
                let make = || SimpleCluster::with_initial_load(params, seed, initial);
                step_mix(make(), make(), &steps)?;
            }
        }
    }

    #[test]
    fn smaller_f_gives_more_balance_ops() {
        // §6 tradeoff: lower f = better balance but more operations.
        let count_ops = |f: f64| {
            let params = Params::new(16, 1, f, 4).unwrap();
            let mut cluster = SimpleCluster::new(params, 3);
            let events = vec![LoadEvent::Generate; 16];
            for _ in 0..300 {
                cluster.step(&events);
            }
            cluster.metrics().balance_ops
        };
        assert!(count_ops(1.1) > count_ops(1.8), "ops(1.1) > ops(1.8)");
    }
}
