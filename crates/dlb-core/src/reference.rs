//! Retained *reference* implementations of the two engines, kept
//! deliberately naive.
//!
//! PR 4 rewrote the hot paths of [`crate::cluster::Cluster`] (flat n×n
//! arena, per-processor active-class lists, scratch buffers) and
//! [`crate::simple::SimpleCluster`] (cached alive-candidate list).  The
//! optimization contract is *bit-identical behaviour*: same RNG
//! consumption, same loads, same metrics, same trace events, on every
//! input.  These reference engines are the dense, allocation-happy
//! originals that contract is checked against — the equivalence
//! proptests in `tests/opt_equivalence.rs` drive both side by side on
//! random instances and compare full state step for step.
//!
//! Do **not** optimize this module; its value is being obviously equal
//! to the paper's appendix pseudocode.  It is `doc(hidden)` because it
//! is test infrastructure, not API.

use crate::balance::{distribute_capped, distribute_classes, distribute_classes_flat, moved};
use crate::metrics::Metrics;
use crate::params::{ExchangePolicy, Params};
use crate::strategy::LoadEvent;
use rand::prelude::*;
use rand::seq::index::sample;
use rand_chacha::ChaCha8Rng;

#[derive(Debug, Clone)]
struct Proc {
    /// Virtual class loads `d_{i,1..n}`; real load is their sum.
    d: Vec<u64>,
    /// Borrowed-packet markers `b_{i,1..n}`.
    b: Vec<u64>,
    /// Cached real load `Σ_j d_{i,j}`.
    load: u64,
    /// Cached marker count `Σ_j b_{i,j}`.
    sum_b: u64,
    /// Self-generated load `d_{i,i}` at the last balancing participation.
    l_old: u64,
}

/// The dense reference implementation of the full virtual-load-class
/// algorithm (the pre-optimization [`crate::Cluster`]).  Public only for
/// the equivalence tests in `crates/dlb-core/tests/`; no other crate
/// uses it.
#[doc(hidden)]
pub struct RefCluster {
    params: Params,
    procs: Vec<Proc>,
    rng: ChaCha8Rng,
    metrics: Metrics,
    fresh_generated: Vec<u64>,
    direct_consumed: Vec<u64>,
    settled: Vec<u64>,
    initial_total: u64,
    scratch_totals_d: Vec<u64>,
    scratch_totals_b: Vec<u64>,
    scratch_shares_d: Vec<u64>,
    scratch_shares_b: Vec<u64>,
}

impl RefCluster {
    /// An empty cluster (all loads zero).
    pub fn new(params: Params, seed: u64) -> Self {
        Self::with_initial_load(params, seed, 0)
    }

    /// A cluster where every processor starts with `initial` self-generated
    /// packets.
    ///
    /// # Panics
    ///
    /// Panics if the total, `initial · n`, does not fit in a `u64`.
    pub fn with_initial_load(params: Params, seed: u64, initial: u64) -> Self {
        let n = params.n();
        let initial_total = params.initial_total(initial);
        let procs = (0..n)
            .map(|i| {
                let mut d = vec![0u64; n];
                d[i] = initial;
                Proc {
                    d,
                    b: vec![0u64; n],
                    load: initial,
                    sum_b: 0,
                    l_old: initial,
                }
            })
            .collect();
        RefCluster {
            params,
            procs,
            rng: ChaCha8Rng::seed_from_u64(seed),
            metrics: Metrics::new(),
            fresh_generated: vec![initial; n],
            direct_consumed: vec![0; n],
            settled: vec![0; n],
            initial_total,
            scratch_totals_d: vec![0; n],
            scratch_totals_b: vec![0; n],
            scratch_shares_d: Vec::new(),
            scratch_shares_b: Vec::new(),
        }
    }

    /// `d_{i,c}`.
    pub fn d(&self, i: usize, c: usize) -> u64 {
        self.procs[i].d[c]
    }

    /// `b_{i,c}`.
    pub fn b(&self, i: usize, c: usize) -> u64 {
        self.procs[i].b[c]
    }

    /// Current loads of all processors.
    pub fn loads(&self) -> Vec<u64> {
        self.procs.iter().map(|p| p.load).collect()
    }

    /// Activity counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Verifies the structural invariants (same checks as the optimized
    /// engine, minus the active-list consistency it does not have).
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.params.n();
        let c_borrow = self.params.c_borrow() as u64;
        for (i, p) in self.procs.iter().enumerate() {
            let sum_d: u64 = p.d.iter().sum();
            if sum_d != p.load {
                return Err(format!("proc {i}: load cache {} != sum(d) {sum_d}", p.load));
            }
            let sum_b: u64 = p.b.iter().sum();
            if sum_b != p.sum_b {
                return Err(format!(
                    "proc {i}: marker cache {} != sum(b) {sum_b}",
                    p.sum_b
                ));
            }
            if p.sum_b > c_borrow {
                return Err(format!(
                    "proc {i}: {} markers exceed C = {c_borrow}",
                    p.sum_b
                ));
            }
        }
        for c in 0..n {
            let virt: u64 = self.procs.iter().map(|p| p.d[c] + p.b[c]).sum();
            let expect = self.fresh_generated[c]
                .checked_sub(self.direct_consumed[c] + self.settled[c])
                .ok_or_else(|| format!("class {c}: ledger went negative"))?;
            if virt != expect {
                return Err(format!(
                    "class {c}: virtual load {virt} != fresh {} - consumed {} - settled {}",
                    self.fresh_generated[c], self.direct_consumed[c], self.settled[c]
                ));
            }
        }
        let total: u64 = self.procs.iter().map(|p| p.load).sum();
        let expect = self.initial_total + self.metrics.generated - self.metrics.consumed;
        if total != expect {
            return Err(format!(
                "global load {total} != generated - consumed = {expect}"
            ));
        }
        Ok(())
    }

    /// Advances one global time step.
    pub fn step(&mut self, events: &[LoadEvent]) {
        assert_eq!(events.len(), self.params.n(), "one event per processor");
        for (i, &ev) in events.iter().enumerate() {
            match ev {
                LoadEvent::Generate => self.generate(i),
                LoadEvent::Consume => self.consume(i),
                LoadEvent::Idle => {}
            }
        }
    }

    fn generate(&mut self, i: usize) {
        self.metrics.generated += 1;
        if self.procs[i].sum_b > 0 {
            let j = self.random_class(i, |p, j| p.b[j] > 0).expect("sum_b > 0");
            let p = &mut self.procs[i];
            p.b[j] -= 1;
            p.sum_b -= 1;
            p.d[j] += 1;
            p.load += 1;
        } else {
            let p = &mut self.procs[i];
            p.d[i] += 1;
            p.load += 1;
            self.fresh_generated[i] += 1;
            self.trigger_check(i);
        }
    }

    fn consume(&mut self, i: usize) {
        if self.procs[i].load == 0 {
            self.metrics.consume_blocked += 1;
            return;
        }
        if self.procs[i].d[i] > 0 {
            let p = &mut self.procs[i];
            p.d[i] -= 1;
            p.load -= 1;
            self.direct_consumed[i] += 1;
            self.metrics.consumed += 1;
            self.trigger_check(i);
            return;
        }
        let max_attempts = self.params.c_borrow().saturating_add(2);
        for _ in 0..max_attempts.max(4) {
            if self.procs[i].load == 0 {
                self.metrics.consume_blocked += 1;
                return;
            }
            if self.procs[i].d[i] > 0 {
                let p = &mut self.procs[i];
                p.d[i] -= 1;
                p.load -= 1;
                self.direct_consumed[i] += 1;
                self.metrics.consumed += 1;
                self.trigger_check(i);
                return;
            }
            if self.procs[i].sum_b < self.params.c_borrow() as u64 {
                if let Some(j) = self.random_class(i, |p, j| p.d[j] > 0 && p.b[j] == 0) {
                    let p = &mut self.procs[i];
                    p.b[j] += 1;
                    p.sum_b += 1;
                    p.d[j] -= 1;
                    p.load -= 1;
                    self.metrics.total_borrow += 1;
                    self.metrics.consumed += 1;
                    return;
                }
            }
            let Some(j) = self.random_class(i, |p, j| p.b[j] > 0) else {
                break;
            };
            if self.procs[j].d[j] > 0 {
                self.exchange(i, j);
            } else {
                self.reduce_borrow(i, j);
            }
        }
        self.metrics.consume_failed += 1;
    }

    fn random_class(&mut self, i: usize, pred: impl Fn(&Proc, usize) -> bool) -> Option<usize> {
        let p = &self.procs[i];
        let count = (0..self.params.n()).filter(|&j| pred(p, j)).count();
        if count == 0 {
            return None;
        }
        let pick = self.rng.gen_range(0..count);
        (0..self.params.n())
            .filter(|&j| pred(&self.procs[i], j))
            .nth(pick)
    }

    fn exchange(&mut self, i: usize, j: usize) {
        debug_assert_ne!(i, j);
        let available = self.procs[j].d[j];
        let x = match self.params.exchange() {
            ExchangePolicy::Strict => available.min(self.procs[i].b[j]),
            ExchangePolicy::Aggressive => available.min(self.procs[i].sum_b),
        };
        if x == 0 {
            return;
        }
        self.metrics.remote_borrow += 1;
        self.procs[j].d[j] -= x;
        self.procs[j].load -= x;
        self.procs[i].d[j] += x;
        self.procs[i].load += x;
        self.metrics.packets_migrated += x;
        self.metrics.messages += 2;
        let mut remaining = x;
        let own = self.procs[i].b[j].min(remaining);
        self.procs[i].b[j] -= own;
        self.procs[i].sum_b -= own;
        self.settled[j] += own;
        remaining -= own;
        if remaining > 0 {
            for k in 0..self.params.n() {
                if remaining == 0 {
                    break;
                }
                let take = self.procs[i].b[k].min(remaining);
                if take > 0 {
                    self.procs[i].b[k] -= take;
                    self.procs[i].sum_b -= take;
                    self.settled[k] += take;
                    remaining -= take;
                }
            }
            debug_assert_eq!(remaining, 0, "sum_b guaranteed enough markers");
        }
        self.metrics.markers_settled += x;
        self.metrics.decrease_sim += 1;
        self.trigger_check(j);
    }

    fn reduce_borrow(&mut self, i: usize, j: usize) {
        debug_assert_ne!(i, j);
        debug_assert_eq!(self.procs[j].d[j], 0);
        self.metrics.borrow_fail += 1;
        let candidates = self.sample_partners(j);
        if candidates.contains(&i) {
            let mut members = candidates.clone();
            members.push(j);
            self.balance_class(j, &members);
        } else {
            let helpful = candidates
                .iter()
                .any(|&k| self.procs[k].d[j] > 0 || self.procs[k].b[j] == 0)
                || self.procs[i].d[j] > 0;
            let mut with_i = candidates.clone();
            with_i.push(i);
            let mut with_j = candidates.clone();
            with_j.push(j);
            if helpful {
                self.balance_class(j, &with_i);
                self.balance_class(j, &with_j);
            } else {
                self.balance_class(j, &with_j);
                self.balance_class(j, &with_i);
            }
        }
        self.settle_home_markers(j);
        if self.procs[j].d[j] > 0 && self.procs[i].b[j] > 0 {
            self.exchange(i, j);
        } else if self.procs[i].b[j] > 0 {
            self.procs[i].b[j] -= 1;
            self.procs[i].sum_b -= 1;
            self.settled[j] += 1;
            self.metrics.markers_settled += 1;
            self.metrics.markers_migrated += 1;
            self.metrics.messages += 1;
            self.trigger_check(j);
        }
    }

    fn balance_class(&mut self, c: usize, members: &[usize]) {
        self.metrics.class_balance_ops += 1;
        self.metrics.messages += members.len() as u64;
        let m = members.len();
        let before_d: Vec<u64> = members.iter().map(|&mm| self.procs[mm].d[c]).collect();
        let before_b: Vec<u64> = members.iter().map(|&mm| self.procs[mm].b[c]).collect();
        let total_d: u64 = before_d.iter().sum();
        let total_b: u64 = before_b.iter().sum();
        let mut run_d = vec![0u64; m];
        let new_d = &distribute_classes(&[total_d], m, &mut run_d)[0];
        let caps: Vec<u64> = members
            .iter()
            .zip(before_b.iter())
            .map(|(&mm, &own)| {
                (self.params.c_borrow() as u64).saturating_sub(self.procs[mm].sum_b - own)
            })
            .collect();
        let new_b = distribute_capped(total_b, &caps);
        let moved_d = moved(&before_d, new_d);
        let moved_b = moved(&before_b, &new_b);
        self.metrics.packets_migrated += moved_d;
        self.metrics.markers_migrated += moved_b;
        for (s, &mm) in members.iter().enumerate() {
            let p = &mut self.procs[mm];
            p.load = p.load + new_d[s] - before_d[s];
            p.d[c] = new_d[s];
            p.sum_b = p.sum_b + new_b[s] - before_b[s];
            p.b[c] = new_b[s];
        }
    }

    fn settle_home_markers(&mut self, m: usize) {
        let k = self.procs[m].b[m];
        if k > 0 {
            self.procs[m].b[m] = 0;
            self.procs[m].sum_b -= k;
            self.settled[m] += k;
            self.metrics.markers_settled += k;
        }
    }

    fn sample_partners(&mut self, who: usize) -> Vec<usize> {
        let n = self.params.n();
        let delta = self.params.delta();
        sample(&mut self.rng, n - 1, delta)
            .iter()
            .map(|x| if x >= who { x + 1 } else { x })
            .collect()
    }

    fn trigger_check(&mut self, i: usize) {
        let cur = self.procs[i].d[i];
        let last = self.procs[i].l_old;
        if self.params.grow_triggered(cur, last) || self.params.shrink_triggered(cur, last) {
            self.full_balance(i);
        }
    }

    fn full_balance(&mut self, initiator: usize) {
        self.metrics.balance_ops += 1;
        let mut members = vec![initiator];
        members.extend(self.sample_partners(initiator));
        let m = members.len();
        self.metrics.messages += m as u64;
        let n = self.params.n();

        for c in 0..n {
            self.scratch_totals_d[c] = members.iter().map(|&mm| self.procs[mm].d[c]).sum();
            self.scratch_totals_b[c] = members.iter().map(|&mm| self.procs[mm].b[c]).sum();
        }
        let (mut run_d, mut run_b) = (vec![0u64; m], vec![0u64; m]);
        let mut shares_d = std::mem::take(&mut self.scratch_shares_d);
        let mut shares_b = std::mem::take(&mut self.scratch_shares_b);
        distribute_classes_flat(&self.scratch_totals_d, m, &mut run_d, &mut shares_d);
        distribute_classes_flat(&self.scratch_totals_b, m, &mut run_b, &mut shares_b);

        let mut op_packets = 0u64;
        for (s, &mm) in members.iter().enumerate() {
            op_packets += self.procs[mm].load.saturating_sub(run_d[s]);
        }
        self.metrics.packets_migrated += op_packets;
        let mut op_markers = 0u64;
        for c in 0..n {
            let row = &shares_b[c * m..(c + 1) * m];
            for (s, &mm) in members.iter().enumerate() {
                op_markers += self.procs[mm].b[c].saturating_sub(row[s]);
            }
        }
        self.metrics.markers_migrated += op_markers;
        for (s, &mm) in members.iter().enumerate() {
            let p = &mut self.procs[mm];
            for c in 0..n {
                p.d[c] = shares_d[c * m + s];
                p.b[c] = shares_b[c * m + s];
            }
            p.load = run_d[s];
            p.sum_b = run_b[s];
        }
        self.scratch_shares_d = shares_d;
        self.scratch_shares_b = shares_b;
        for &mm in &members {
            self.settle_home_markers(mm);
            self.procs[mm].l_old = self.procs[mm].d[mm];
        }
    }
}

/// The dense reference implementation of the practical balancer (the
/// pre-optimization [`crate::SimpleCluster`]): candidate lists rebuilt
/// from the down-mask on every balancing operation.
#[doc(hidden)]
pub struct RefSimpleCluster {
    params: Params,
    loads: Vec<u64>,
    l_old: Vec<u64>,
    rng: ChaCha8Rng,
    metrics: Metrics,
    initial_total: u64,
}

impl RefSimpleCluster {
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
        let n = params.n();
        let initial_total = params.initial_total(initial);
        RefSimpleCluster {
            params,
            loads: vec![initial; n],
            l_old: vec![initial; n],
            rng: ChaCha8Rng::seed_from_u64(seed),
            metrics: Metrics::new(),
            initial_total,
        }
    }

    /// Current loads of all processors.
    pub fn loads(&self) -> Vec<u64> {
        self.loads.clone()
    }

    /// Activity counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Packet conservation check.
    pub fn check_invariants(&self) -> Result<(), String> {
        let total: u64 = self.loads.iter().sum();
        let expect = self.initial_total + self.metrics.generated - self.metrics.consumed;
        if total != expect {
            return Err(format!("global load {total} != expected {expect}"));
        }
        Ok(())
    }

    /// Plain step (no crash mask).
    pub fn step(&mut self, events: &[LoadEvent]) {
        self.step_impl(events, &[]);
    }

    /// Crash-mask step.
    pub fn step_masked(&mut self, events: &[LoadEvent], down: &[bool]) {
        assert_eq!(events.len(), down.len(), "event/mask length mismatch");
        self.step_impl(events, down);
    }

    fn step_impl(&mut self, events: &[LoadEvent], down: &[bool]) {
        assert_eq!(events.len(), self.params.n(), "one event per processor");
        for (i, &ev) in events.iter().enumerate() {
            if !down.is_empty() && down[i] {
                continue;
            }
            match ev {
                LoadEvent::Generate => {
                    self.loads[i] += 1;
                    self.metrics.generated += 1;
                    self.trigger_check(i, down);
                }
                LoadEvent::Consume => {
                    if self.loads[i] > 0 {
                        self.loads[i] -= 1;
                        self.metrics.consumed += 1;
                        self.trigger_check(i, down);
                    } else {
                        self.metrics.consume_blocked += 1;
                    }
                }
                LoadEvent::Idle => {}
            }
        }
    }

    fn trigger_check(&mut self, i: usize, down: &[bool]) {
        let cur = self.loads[i];
        let last = self.l_old[i];
        if self.params.grow_triggered(cur, last) || self.params.shrink_triggered(cur, last) {
            self.full_balance(i, down);
        }
    }

    fn full_balance(&mut self, initiator: usize, down: &[bool]) {
        let n = self.params.n();
        let delta = self.params.delta();
        let mut members: Vec<usize> = vec![initiator];
        if down.iter().any(|&d| d) {
            let candidates: Vec<usize> = (0..n).filter(|&p| p != initiator && !down[p]).collect();
            if candidates.is_empty() {
                return;
            }
            let k = delta.min(candidates.len());
            members.extend(
                sample(&mut self.rng, candidates.len(), k)
                    .iter()
                    .map(|x| candidates[x]),
            );
        } else {
            members.extend(sample(&mut self.rng, n - 1, delta).iter().map(|x| {
                if x >= initiator {
                    x + 1
                } else {
                    x
                }
            }));
        }
        self.metrics.balance_ops += 1;
        self.metrics.messages += members.len() as u64;
        let total: u64 = members.iter().map(|&m| self.loads[m]).sum();
        let shares = crate::balance::even_shares(total, members.len());
        let mut op_packets = 0u64;
        for (&m, &share) in members.iter().zip(shares.iter()) {
            op_packets += self.loads[m].saturating_sub(share);
            self.loads[m] = share;
            self.l_old[m] = share;
        }
        self.metrics.packets_migrated += op_packets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "initial load 9223372036854775808 × n = 2 overflows u64")]
    fn ref_cluster_refuses_an_initial_total_past_u64() {
        RefCluster::with_initial_load(Params::paper_section7(2), 0, 1 << 63);
    }

    #[test]
    #[should_panic(expected = "initial load 9223372036854775808 × n = 2 overflows u64")]
    fn ref_simple_refuses_an_initial_total_past_u64() {
        RefSimpleCluster::with_initial_load(Params::paper_section7(2), 0, 1 << 63);
    }
}
