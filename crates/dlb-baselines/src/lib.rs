//! Baseline load balancing strategies the paper compares against or
//! cites.
//!
//! * [`NoBalance`] — null strategy: packets stay where they are generated
//!   (the do-nothing lower bound on cost and upper bound on imbalance).
//! * [`RandomScatter`] — the §5 strawman: every step each processor ships
//!   its *entire* queue to one uniformly random processor.  The expected
//!   load of every processor is equal, but the variance is enormous —
//!   the paper's argument for why expectation alone is a meaningless
//!   quality measure.
//! * [`Rsu91`] — the scheme of Rudolph, Slivkin-Allalouf and Upfal
//!   (SPAA'91, the paper's \[20\]): each step a processor flips a coin with
//!   probability inversely proportional to its load and, on success,
//!   balances pairwise with a uniformly random partner.
//! * [`Gradient`] — the gradient model of Lin & Keller (the paper's \[6\]):
//!   underloaded processors (below a low watermark) emit a demand
//!   gradient over the topology; overloaded processors (above a high
//!   watermark) forward one packet per step downhill.
//! * [`WorkStealing`] — classic random work stealing (Cilk-style): empty
//!   processors steal half of a random victim's queue.  Receiver-
//!   initiated: keeps everyone busy without equalising loads.
//! * [`Diffusion`] — first-order diffusion (Cybenko): fixed-coefficient
//!   neighbour exchange every step, the classic local iterative scheme.
//!
//! Beyond the strawmen, four rivals from the literature (see PAPERS.md)
//! give the arena real competition:
//!
//! * [`Quasirandom`] — deterministic rotor-router diffusion
//!   (Friedrich–Gairing–Sauerwald, arXiv:1006.3302).
//! * [`DynamicAveraging`] — random-neighbour pairwise averaging
//!   (Berenbrink et al., arXiv:2302.12201).
//! * [`LocallyOptimal`] — local-improvement moves to a locally optimal
//!   configuration (Feuilloley–Hirvonen–Suomela, arXiv:1502.04511).
//! * [`DimensionExchange`] — matching-based alternating exchange on
//!   hypercubes, rings and tori (arXiv:1308.0148).
//!
//! All implement [`LoadBalancer`], so every experiment can drive them
//! with the identical seeded event stream.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

mod averaging;
mod dimension_exchange;
mod local_opt;
mod quasirandom;

pub use averaging::DynamicAveraging;
pub use dimension_exchange::DimensionExchange;
pub use local_opt::LocallyOptimal;
pub use quasirandom::Quasirandom;

use dlb_core::{Events, LoadBalancer, LoadEvent, Metrics};
use dlb_net::{Adjacency, Topology};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Shared event-application phase of every balancer that migrates only
/// after the step's events (all but [`Rsu91`], which checks its trigger
/// per event): applies generate/consume/idle to `loads`, skipping
/// processors marked `down` (a crashed processor neither generates nor
/// consumes — its queue is frozen, matching the engines'
/// `crash_mode: frozen` semantics).
pub(crate) fn apply_events(
    loads: &mut [u64],
    metrics: &mut Metrics,
    events: Events<'_>,
    down: Option<&[bool]>,
) {
    events.for_each_up(loads.len(), down, |i, ev| match ev {
        LoadEvent::Generate => {
            loads[i] += 1;
            metrics.generated += 1;
        }
        LoadEvent::Consume => {
            if loads[i] > 0 {
                loads[i] -= 1;
                metrics.consumed += 1;
            } else {
                metrics.consume_blocked += 1;
            }
        }
        LoadEvent::Idle => {}
    });
}

/// Null strategy: no migration at all.
pub struct NoBalance {
    loads: Vec<u64>,
    metrics: Metrics,
}

impl NoBalance {
    /// A network of `n` processors.
    pub fn new(n: usize) -> Self {
        NoBalance {
            loads: vec![0; n],
            metrics: Metrics::new(),
        }
    }
}

impl LoadBalancer for NoBalance {
    fn n(&self) -> usize {
        self.loads.len()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        apply_events(&mut self.loads, &mut self.metrics, events, down);
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "no-balance"
    }
}

/// §5 strawman: every step, every processor ships its whole queue to one
/// uniformly random processor.
pub struct RandomScatter {
    loads: Vec<u64>,
    /// Pre-scatter loads (struct-held scratch, reused every step).
    snapshot: Vec<u64>,
    metrics: Metrics,
    rng: ChaCha8Rng,
}

impl RandomScatter {
    /// A network of `n` processors.
    pub fn new(n: usize, seed: u64) -> Self {
        RandomScatter {
            loads: vec![0; n],
            snapshot: vec![0; n],
            metrics: Metrics::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl LoadBalancer for RandomScatter {
    fn n(&self) -> usize {
        self.loads.len()
    }

    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        apply_events(&mut self.loads, &mut self.metrics, events, down);
        // Scatter phase: ship whole queues to random targets.  Moves are
        // computed against the pre-scatter snapshot so a queue moves once.
        let n = self.loads.len();
        self.snapshot.clear();
        self.snapshot.extend_from_slice(&self.loads);
        for i in 0..n {
            let l = self.snapshot[i];
            if l > 0 {
                let target = self.rng.gen_range(0..n);
                if target != i {
                    self.loads[i] -= l;
                    self.loads[target] += l;
                    self.metrics.packets_migrated += l;
                    self.metrics.messages += 1;
                }
            }
        }
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "random-scatter"
    }
}

/// Rudolph/Slivkin-Allalouf/Upfal SPAA'91: balance pairwise with a random
/// partner, with probability inversely proportional to the own load.
pub struct Rsu91 {
    loads: Vec<u64>,
    metrics: Metrics,
    rng: ChaCha8Rng,
}

impl Rsu91 {
    /// A network of `n ≥ 2` processors.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "need at least two processors");
        Rsu91 {
            loads: vec![0; n],
            metrics: Metrics::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    fn maybe_balance(&mut self, i: usize) {
        let l = self.loads[i].max(1);
        if !self.rng.gen_bool((1.0 / l as f64).min(1.0)) {
            return;
        }
        let n = self.loads.len();
        let mut j = self.rng.gen_range(0..n - 1);
        if j >= i {
            j += 1;
        }
        let total = self.loads[i] + self.loads[j];
        let half = total / 2;
        let (new_i, new_j) = (total - half, half);
        self.metrics.packets_migrated +=
            self.loads[i].saturating_sub(new_i) + self.loads[j].saturating_sub(new_j);
        self.loads[i] = new_i;
        self.loads[j] = new_j;
        self.metrics.balance_ops += 1;
        self.metrics.messages += 2;
    }
}

impl LoadBalancer for Rsu91 {
    fn n(&self) -> usize {
        self.loads.len()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        events.for_each_up(self.loads.len(), down, |i, ev| match ev {
            LoadEvent::Generate => {
                self.loads[i] += 1;
                self.metrics.generated += 1;
                self.maybe_balance(i);
            }
            LoadEvent::Consume => {
                if self.loads[i] > 0 {
                    self.loads[i] -= 1;
                    self.metrics.consumed += 1;
                    self.maybe_balance(i);
                } else {
                    self.metrics.consume_blocked += 1;
                }
            }
            LoadEvent::Idle => {}
        });
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "rsu91"
    }
}

/// The Lin–Keller gradient model on an explicit topology.
pub struct Gradient {
    adj: Adjacency,
    loads: Vec<u64>,
    /// BFS distance field to the nearest underloaded node (scratch).
    dist: Vec<u32>,
    /// BFS frontier (scratch, drained every step).
    queue: std::collections::VecDeque<usize>,
    /// Pre-migration loads (scratch).
    snapshot: Vec<u64>,
    metrics: Metrics,
    /// Below this load a processor is "underloaded" and attracts packets.
    pub low_watermark: u64,
    /// Above this load a processor forwards one packet per step downhill.
    pub high_watermark: u64,
}

impl Gradient {
    /// Gradient balancer with the given watermarks (`low < high`).
    pub fn new(topology: Topology, low_watermark: u64, high_watermark: u64) -> Self {
        assert!(low_watermark < high_watermark, "watermarks must be ordered");
        let adj = Adjacency::new(&topology);
        let n = adj.n();
        Gradient {
            adj,
            loads: vec![0; n],
            dist: vec![u32::MAX; n],
            queue: std::collections::VecDeque::new(),
            snapshot: vec![0; n],
            metrics: Metrics::new(),
            low_watermark,
            high_watermark,
        }
    }

    /// Multi-source BFS distance to the nearest underloaded processor,
    /// refilled into the persistent `dist` scratch buffer.
    fn gradient_field(&mut self) {
        self.dist.fill(u32::MAX);
        self.queue.clear();
        for (v, &l) in self.loads.iter().enumerate() {
            if l <= self.low_watermark {
                self.dist[v] = 0;
                self.queue.push_back(v);
            }
        }
        while let Some(v) = self.queue.pop_front() {
            for &u in self.adj.neighbors(v) {
                let u = u as usize;
                if self.dist[u] == u32::MAX {
                    self.dist[u] = self.dist[v] + 1;
                    self.queue.push_back(u);
                }
            }
        }
    }
}

impl LoadBalancer for Gradient {
    fn n(&self) -> usize {
        self.loads.len()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        apply_events(&mut self.loads, &mut self.metrics, events, down);
        // Migration phase: every overloaded node forwards one packet one
        // hop down the demand gradient.
        self.gradient_field();
        let Gradient {
            adj,
            loads,
            dist,
            snapshot,
            metrics,
            high_watermark,
            ..
        } = self;
        snapshot.clear();
        snapshot.extend_from_slice(loads);
        for (v, &l) in snapshot.iter().enumerate() {
            if l > *high_watermark && dist[v] != 0 && dist[v] != u32::MAX {
                if let Some(next) = adj
                    .neighbors(v)
                    .iter()
                    .map(|&u| u as usize)
                    .min_by_key(|&u| dist[u])
                    .filter(|&u| dist[u] < dist[v])
                {
                    loads[v] -= 1;
                    loads[next] += 1;
                    metrics.packets_migrated += 1;
                    metrics.messages += 1;
                }
            }
        }
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "gradient"
    }
}

/// First-order diffusion (Cybenko 1989): every step each processor
/// exchanges `α·(l_i − l_j)` packets with every topology neighbour `j`
/// (rounded down).  The textbook *local iterative* balancer this
/// literature is usually compared against: no triggers, no randomness —
/// every processor works every step, converging at the speed of the
/// graph's spectral gap.
pub struct Diffusion {
    adj: Adjacency,
    loads: Vec<u64>,
    /// Pre-diffusion loads (scratch, Jacobi snapshot).
    snapshot: Vec<u64>,
    /// Net per-node flow accumulated this step (scratch).
    delta: Vec<i64>,
    metrics: Metrics,
    /// Exchange coefficient α (0 < α ≤ 1/(max degree + 1) for stability).
    pub alpha: f64,
}

impl Diffusion {
    /// Diffusion on a topology with coefficient `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 0.5`.
    pub fn new(topology: Topology, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 0.5, "need 0 < alpha <= 0.5");
        let adj = Adjacency::new(&topology);
        let n = adj.n();
        Diffusion {
            adj,
            loads: vec![0; n],
            snapshot: vec![0; n],
            delta: vec![0; n],
            metrics: Metrics::new(),
            alpha,
        }
    }

    fn diffuse(&mut self) {
        // Compute all flows from the same snapshot (Jacobi style), then
        // apply: this keeps the step symmetric and conservative.
        let Diffusion {
            adj,
            loads,
            snapshot,
            delta,
            metrics,
            alpha,
        } = self;
        let n = loads.len();
        snapshot.clear();
        snapshot.extend_from_slice(loads);
        delta.fill(0);
        for v in 0..n {
            for &u in adj.neighbors(v) {
                let u = u as usize;
                if u <= v {
                    continue; // handle each undirected edge once
                }
                let diff = snapshot[v] as i64 - snapshot[u] as i64;
                // `alpha ≤ 0.5`, so the floor is at most `|diff|`, an `i64`.
                #[allow(clippy::cast_possible_truncation)]
                let flow = (*alpha * diff.abs() as f64).floor() as i64 * diff.signum();
                delta[v] -= flow;
                delta[u] += flow;
                if flow != 0 {
                    metrics.packets_migrated += flow.unsigned_abs();
                    metrics.messages += 1;
                }
            }
        }
        for (l, d) in loads.iter_mut().zip(delta.iter()) {
            *l = (*l as i64 + d) as u64;
        }
    }
}

impl LoadBalancer for Diffusion {
    fn n(&self) -> usize {
        self.loads.len()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        apply_events(&mut self.loads, &mut self.metrics, events, down);
        self.diffuse();
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "diffusion"
    }
}

/// Classic random work stealing (the strategy of Cilk-style runtimes):
/// after each step, every *empty* processor picks a uniformly random
/// victim and steals half of its queue.  Receiver-initiated, so it only
/// guarantees "everyone has some work", not the paper's stronger
/// "everyone has nearly the same work".
pub struct WorkStealing {
    loads: Vec<u64>,
    metrics: Metrics,
    rng: ChaCha8Rng,
}

impl WorkStealing {
    /// A network of `n ≥ 2` processors.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "need at least two processors");
        WorkStealing {
            loads: vec![0; n],
            metrics: Metrics::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl LoadBalancer for WorkStealing {
    fn n(&self) -> usize {
        self.loads.len()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    // Audit note: the steal phase below mutates `loads` in place and
    // allocates nothing per step — already scratch-buffer clean.
    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        apply_events(&mut self.loads, &mut self.metrics, events, down);
        // Steal phase: every empty processor robs half a random victim.
        let n = self.loads.len();
        for thief in 0..n {
            if self.loads[thief] > 0 {
                continue;
            }
            let mut victim = self.rng.gen_range(0..n - 1);
            if victim >= thief {
                victim += 1;
            }
            let haul = self.loads[victim] / 2;
            if haul > 0 {
                self.loads[victim] -= haul;
                self.loads[thief] += haul;
                self.metrics.packets_migrated += haul;
                self.metrics.balance_ops += 1;
                self.metrics.messages += 2;
            }
        }
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "work-stealing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::imbalance_stats;

    fn one_producer_events(n: usize) -> Vec<LoadEvent> {
        let mut ev = vec![LoadEvent::Idle; n];
        ev[0] = LoadEvent::Generate;
        ev
    }

    #[test]
    fn no_balance_never_migrates() {
        let mut b = NoBalance::new(4);
        let ev = one_producer_events(4);
        for _ in 0..100 {
            b.step(&ev);
        }
        assert_eq!(b.loads(), vec![100, 0, 0, 0]);
        assert_eq!(b.metrics().packets_migrated, 0);
    }

    #[test]
    fn random_scatter_equal_means_huge_variance() {
        // The §5 argument: over many runs the per-processor mean is flat,
        // but within any single snapshot the load is concentrated.
        let n = 8;
        let runs = 400;
        let mut totals = vec![0u64; n];
        let mut max_over_mean_sum = 0.0;
        for seed in 0..runs {
            let mut b = RandomScatter::new(n, seed);
            let ev = one_producer_events(n);
            for _ in 0..50 {
                b.step(&ev);
            }
            let loads = b.loads();
            assert_eq!(loads.iter().sum::<u64>(), 50, "conservation");
            for (t, &l) in totals.iter_mut().zip(loads.iter()) {
                *t += l;
            }
            max_over_mean_sum += imbalance_stats(&loads).max_over_mean;
        }
        let grand_mean = totals.iter().sum::<u64>() as f64 / n as f64;
        for &t in &totals {
            assert!(
                (t as f64 - grand_mean).abs() < 0.35 * grand_mean,
                "means roughly equal: {totals:?}"
            );
        }
        // ... but any individual snapshot is terribly imbalanced.
        assert!(
            max_over_mean_sum / runs as f64 > 4.0,
            "variance should be huge"
        );
    }

    #[test]
    fn rsu91_balances_a_producer_weakly() {
        // RSU'91 balances with probability 1/load, so a lone producer at
        // load l initiates only ~ln(l) balances over its lifetime — the
        // weakness behind Mehlhorn's counterexample (the paper's [10]).
        // It beats doing nothing but stays far from the SPAA'93 quality.
        let mut b = Rsu91::new(16, 3);
        let ev = one_producer_events(16);
        for _ in 0..2000 {
            b.step(&ev);
        }
        let stats = imbalance_stats(&b.loads());
        assert_eq!(stats.mean * 16.0, 2000.0);
        assert!(b.metrics().balance_ops > 0);
        assert!(stats.max < 2000, "some load was shed: {stats:?}");
        assert!(
            stats.max_over_mean > 1.5,
            "RSU'91 should stay visibly imbalanced here: {stats:?}"
        );
    }

    #[test]
    fn gradient_drains_hotspot_towards_idle_nodes() {
        let topo = Topology::Ring { n: 8 };
        let mut b = Gradient::new(topo, 2, 8);
        let ev = one_producer_events(8);
        for _ in 0..400 {
            b.step(&ev);
        }
        let loads = b.loads();
        assert_eq!(loads.iter().sum::<u64>(), 400);
        // The hotspot must have shed work to its ring neighbours.
        assert!(b.metrics().packets_migrated > 0);
        assert!(loads[1] > 0 || loads[7] > 0, "{loads:?}");
        // Gradient keeps the hotspot bounded relative to no balancing.
        assert!(loads[0] < 400, "{loads:?}");
    }

    #[test]
    #[should_panic(expected = "watermarks must be ordered")]
    fn gradient_validates_watermarks() {
        Gradient::new(Topology::Ring { n: 4 }, 5, 5);
    }

    #[test]
    fn work_stealing_keeps_everyone_fed_but_not_even() {
        // One producer: stealing guarantees work everywhere (§1's weaker
        // goal) but does not equalise loads like the SPAA'93 algorithm.
        let mut b = WorkStealing::new(8, 5);
        let ev = one_producer_events(8);
        for _ in 0..1000 {
            b.step(&ev);
        }
        let loads = b.loads();
        assert_eq!(loads.iter().sum::<u64>(), 1000);
        assert!(b.metrics().balance_ops > 0);
        // After warmup every processor holds something most of the time;
        // check the snapshot has at most one empty processor.
        let empty = loads.iter().filter(|&&l| l == 0).count();
        assert!(empty <= 1, "work stealing keeps processors fed: {loads:?}");
    }

    #[test]
    fn diffusion_flattens_a_spike() {
        // A hypercube spike diffuses to a near-flat distribution; Jacobi
        // flows conserve packets exactly.
        let topo = Topology::Hypercube { dim: 3 };
        let mut b = Diffusion::new(topo, 0.2);
        let mut events = vec![LoadEvent::Idle; 8];
        events[0] = LoadEvent::Generate;
        // Build the spike, then let it diffuse with no further input.
        for _ in 0..800 {
            b.step(&events);
        }
        let idle = vec![LoadEvent::Idle; 8];
        for _ in 0..100 {
            b.step(&idle);
        }
        let loads = b.loads();
        assert_eq!(loads.iter().sum::<u64>(), 800);
        let stats = imbalance_stats(&loads);
        assert!(stats.max_over_mean < 1.3, "{loads:?}");
        assert!(b.metrics().packets_migrated > 0);
    }

    #[test]
    fn diffusion_is_stuck_on_small_differences() {
        // The floor() in the flow makes differences below 1/alpha sticky —
        // the classic drawback versus the paper's direct equalisation.
        let topo = Topology::Ring { n: 4 };
        let mut b = Diffusion::new(topo, 0.25);
        let mut events = vec![LoadEvent::Idle; 4];
        events[0] = LoadEvent::Generate;
        for _ in 0..3 {
            b.step(&events); // loads [3,0,0,0]-ish
        }
        let idle = vec![LoadEvent::Idle; 4];
        for _ in 0..50 {
            b.step(&idle);
        }
        let loads = b.loads();
        assert_eq!(loads.iter().sum::<u64>(), 3);
        // alpha*diff < 1 for diff <= 3, so nothing ever moves.
        assert_eq!(loads[0], 3, "{loads:?}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn diffusion_validates_alpha() {
        Diffusion::new(Topology::Ring { n: 4 }, 0.9);
    }

    #[test]
    fn all_baselines_conserve_packets() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let n = 8;
        let mut balancers: Vec<Box<dyn LoadBalancer>> = vec![
            Box::new(NoBalance::new(n)),
            Box::new(RandomScatter::new(n, 1)),
            Box::new(Rsu91::new(n, 2)),
            Box::new(Gradient::new(Topology::Hypercube { dim: 3 }, 1, 4)),
            Box::new(WorkStealing::new(n, 3)),
            Box::new(Diffusion::new(Topology::Hypercube { dim: 3 }, 0.2)),
            Box::new(Quasirandom::new(Topology::Hypercube { dim: 3 })),
            Box::new(DynamicAveraging::new(Topology::Hypercube { dim: 3 }, 4)),
            Box::new(LocallyOptimal::new(Topology::Hypercube { dim: 3 })),
            Box::new(DimensionExchange::new(Topology::Hypercube { dim: 3 })),
        ];
        for _ in 0..300 {
            let events: Vec<LoadEvent> = (0..n)
                .map(|_| match rng.gen_range(0..3) {
                    0 => LoadEvent::Generate,
                    1 => LoadEvent::Consume,
                    _ => LoadEvent::Idle,
                })
                .collect();
            for b in balancers.iter_mut() {
                b.step(&events);
            }
        }
        for b in &balancers {
            let m = b.metrics();
            assert_eq!(
                b.loads().iter().sum::<u64>(),
                m.generated - m.consumed,
                "{} conserves packets",
                b.name()
            );
        }
    }
}
