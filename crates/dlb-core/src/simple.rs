//! The *practical* variant of the algorithm (the method of [7] the paper's
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
//! nothing.  Behaviour is bit-identical to the dense reference
//! implementation in [`crate::reference`] (see `tests/opt_equivalence.rs`).

use crate::balance::{even_shares_into, sample_into, sample_others_into};
use crate::metrics::Metrics;
use crate::params::Params;
use crate::strategy::{emit_step_delta, Events, LoadBalancer, LoadEvent, LoadSummary};
use crate::summary::SummaryTracker;
use dlb_trace::{SharedSink, TraceEvent};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

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
    step_no: u64,
    /// Load counts backing [`LoadBalancer::load_summary`]; observer
    /// state, built on the first query (`None` until then, so
    /// unobserved runs pay one branch per load change).
    summary: Option<SummaryTracker>,
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
    pub fn with_initial_load(params: Params, seed: u64, initial: u64) -> Self {
        let mut cluster = Self::with_rule(params, EvenRule, seed);
        cluster.loads.fill(initial);
        cluster.l_old.fill(initial);
        cluster.initial_total = initial * params.n() as u64;
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
            step_no: 0,
            summary: None,
        }
    }

    /// The rule this cluster balances by (and whatever it has tallied).
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// Feeds processor `i`'s (already updated) load to the summary
    /// tracker.  Must follow every `self.loads` mutation.
    #[inline]
    fn note_load(&mut self, i: usize) {
        if let Some(tracker) = self.summary.as_mut() {
            tracker.note(i, self.loads[i]);
        }
    }

    fn trace_on(&self) -> bool {
        self.sink.as_ref().is_some_and(|s| s.enabled())
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
    }

    /// The parameter set this cluster runs with.
    pub fn params(&self) -> &Params {
        &self.params
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
        Ok(())
    }

    fn trigger_check(&mut self, i: usize) {
        let cur = self.loads[i];
        let last = self.l_old[i];
        if self.params.grow_triggered(cur, last) || self.params.shrink_triggered(cur, last) {
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
        if tracing {
            self.emit(TraceEvent::BalanceInitiated {
                step: self.step_no,
                initiator: initiator as u64,
                partners: members[1..].iter().map(|&p| p as u64).collect(),
                // The f-factor ratio that fired the trigger.
                trigger: self.loads[initiator] as f64 / self.l_old[initiator].max(1) as f64,
            });
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
            if let Some(tracker) = self.summary.as_mut() {
                tracker.note(mm, share);
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
                self.loads[i] += 1;
                self.note_load(i);
                self.metrics.generated += 1;
                self.trigger_check(i);
            }
            LoadEvent::Consume => {
                if self.loads[i] > 0 {
                    self.loads[i] -= 1;
                    self.note_load(i);
                    self.metrics.consumed += 1;
                    self.trigger_check(i);
                } else {
                    self.metrics.consume_blocked += 1;
                }
            }
            LoadEvent::Idle => {}
        });
        if let (Some(before), Some(sink)) = (&before, &self.sink) {
            emit_step_delta(sink, self.step_no, before, &self.metrics);
        }
        self.step_no += 1;
    }

    fn load_summary(&mut self) -> LoadSummary {
        let (min, max) = self
            .summary
            .get_or_insert_with(|| SummaryTracker::new(&self.loads))
            .min_max();
        // Packet conservation (checked by `check_invariants`): total
        // load is initial + generated − consumed.
        let summary = LoadSummary {
            min,
            max,
            total: self.initial_total + self.metrics.generated - self.metrics.consumed,
        };
        // A load write that skipped `note_load` skews every later
        // report; debug builds pay the O(n) scan to fail at once.
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
        let mut total_ratio = 0.0;
        let runs = 20;
        for seed in 0..runs {
            let mut cluster = SimpleCluster::with_initial_load(params, seed, 1_000);
            let mut events = vec![LoadEvent::Idle; 32];
            events[0] = LoadEvent::Generate;
            for _ in 0..60_000 {
                cluster.step(&events);
            }
            let loads = cluster.loads();
            let others = loads[1..].iter().sum::<u64>() as f64 / 31.0;
            total_ratio += loads[0] as f64 / others;
        }
        let mean_ratio = total_ratio / runs as f64;
        // Claim `thm2`'s limit (≈ 1.33 here): the empirical mean ratio
        // should be near, and statistically not far above, it.
        let observed = dlb_theory::claims::Observation::Ratio(mean_ratio);
        let thm2 = dlb_theory::claims::by_id("thm2").evaluate(params.algo(), &observed);
        let thm2 = thm2.expect("inside");
        assert!(thm2.holds_within(0.25), "mean ratio {mean_ratio}: {thm2:?}");
        assert!(mean_ratio > 1.0, "producer should carry more: {mean_ratio}");
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
