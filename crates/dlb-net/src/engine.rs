//! Topology-aware balancing and communication accounting.
//!
//! [`TopoCluster`] runs the practical SPAA'93 balancer on an explicit
//! [`Topology`], in one of two partner modes:
//!
//! * [`PartnerMode::GlobalRandom`] — the paper's analyzed model: partners
//!   drawn uniformly from the whole network; packets pay the real hop
//!   distance (which the paper's constant-cost assumption waves away, and
//!   this engine measures);
//! * [`PartnerMode::Neighbors`] — partners drawn from the initiator's
//!   topology neighbours only (the locality variant the paper names as
//!   further research).
//!
//! Communication is accounted by greedily matching surplus to deficit
//! members of each balance group and weighting every moved packet by the
//! hop distance it travels.

use crate::topology::Topology;
use dlb_core::balance::{even_shares_into, sample_into, sample_others_into};
use dlb_core::wave::WaveQueue;
use dlb_core::{LoadBalancer, LoadEvent, Metrics, Params};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Scratch buffers for executing one balance operation; one set per
/// executing thread (thread-local on pool workers).
#[derive(Default)]
struct TopoScratch {
    shares: Vec<u64>,
    surplus: Vec<(usize, u64)>,
    deficit: Vec<(usize, u64)>,
}

thread_local! {
    static WAVE_SCRATCH: std::cell::RefCell<TopoScratch> =
        std::cell::RefCell::new(TopoScratch::default());
}

/// What one executed operation produced; folded into the metrics and
/// communication counters in trigger order.
#[derive(Clone, Copy, Default)]
struct OpOutcome {
    packets: u64,
    packet_hops: u64,
    control_hops: u64,
}

/// Raw view of the per-processor load vectors.  Operations in one wave
/// have disjoint member sets (the [`dlb_core::wave`] planner's
/// invariant), so concurrent executors touch disjoint entries.
struct LoadsView {
    loads: *mut u64,
    l_old: *mut u64,
}

unsafe impl Send for LoadsView {}
unsafe impl Sync for LoadsView {}

/// Executes one hop-accounted equalisation over `members` (initiator
/// first): the body of [`TopoCluster::full_balance`], shared by the
/// sequential path and the wave executor.  Consumes no RNG.
///
/// # Safety
///
/// `view` must point into live vectors covering every index in
/// `members`, and no other thread may concurrently touch the loads of
/// `members` (the [`dlb_core::wave`] disjointness invariant).
unsafe fn execute_topo_balance(
    view: &LoadsView,
    members: &[usize],
    dist: &[Vec<u32>],
    s: &mut TopoScratch,
) -> OpOutcome {
    let initiator = members[0];
    let mut out = OpOutcome::default();
    for &m in &members[1..] {
        out.control_hops += 2 * dist[initiator][m] as u64;
    }
    let total: u64 = members.iter().map(|&m| *view.loads.add(m)).sum();
    even_shares_into(total, members.len(), &mut s.shares);

    // Surplus -> deficit greedy matching for hop accounting.
    s.surplus.clear();
    s.deficit.clear();
    for (&m, &share) in members.iter().zip(s.shares.iter()) {
        let load = *view.loads.add(m);
        if load > share {
            s.surplus.push((m, load - share));
        } else if share > load {
            s.deficit.push((m, share - load));
        }
    }
    let mut di = 0usize;
    for &(from, excess) in &s.surplus {
        let mut excess = excess;
        while excess > 0 && di < s.deficit.len() {
            let (to, need) = s.deficit[di];
            let x = excess.min(need);
            out.packets += x;
            out.packet_hops += x * dist[from][to] as u64;
            excess -= x;
            if need == x {
                di += 1;
            } else {
                s.deficit[di].1 = need - x;
            }
        }
    }
    for (&m, &share) in members.iter().zip(s.shares.iter()) {
        *view.loads.add(m) = share;
        *view.l_old.add(m) = share;
    }
    out
}

/// How balance partners are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartnerMode {
    /// Uniformly from all other processors (the paper's model).
    GlobalRandom,
    /// Uniformly from the initiator's topology neighbours.
    Neighbors,
}

/// Hop-weighted communication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Balancing operations performed.
    pub ops: u64,
    /// Packets moved, each counted once.
    pub packets: u64,
    /// Packets × hop distance travelled.
    pub packet_hops: u64,
    /// Control messages × hop distance (one round trip per partner).
    pub control_hops: u64,
}

/// The practical balancer on an explicit topology with communication
/// accounting.
pub struct TopoCluster {
    params: Params,
    topology: Topology,
    mode: PartnerMode,
    loads: Vec<u64>,
    l_old: Vec<u64>,
    rng: ChaCha8Rng,
    metrics: Metrics,
    comm: CommStats,
    /// All-pairs hop distances, precomputed once.
    dist: Vec<Vec<u32>>,
    scratch_members: Vec<usize>,
    scratch_exec: TopoScratch,
    /// Intra-step parallelism (`step_jobs`): operations the queue
    /// accepts run in conflict-free waves, the rest execute inline.
    wave: WaveQueue<OpOutcome>,
}

impl TopoCluster {
    /// Creates the balancer; `params.n()` must equal the topology size.
    ///
    /// # Panics
    ///
    /// Panics on a size mismatch or a disconnected topology.
    pub fn new(params: Params, topology: Topology, mode: PartnerMode, seed: u64) -> Self {
        assert_eq!(params.n(), topology.n(), "params/topology size mismatch");
        assert!(topology.is_connected(), "topology must be connected");
        let n = topology.n();
        let dist = (0..n).map(|v| topology.distances_from(v)).collect();
        TopoCluster {
            params,
            topology,
            mode,
            loads: vec![0; n],
            l_old: vec![0; n],
            rng: ChaCha8Rng::seed_from_u64(seed),
            metrics: Metrics::new(),
            comm: CommStats::default(),
            dist,
            scratch_members: Vec::new(),
            scratch_exec: TopoScratch::default(),
            wave: WaveQueue::new(n, dlb_core::DEFAULT_WAVE_THRESHOLD),
        }
    }

    /// Communication counters.
    pub fn comm(&self) -> &CommStats {
        &self.comm
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Hop distance between two processors (precomputed).
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        self.dist[a][b]
    }

    /// Appends the initiator's balance partners to `out`.
    fn partners_into(&mut self, initiator: usize, out: &mut Vec<usize>) {
        let delta = self.params.delta();
        match self.mode {
            PartnerMode::GlobalRandom => {
                sample_others_into(&mut self.rng, self.params.n(), initiator, delta, out);
            }
            PartnerMode::Neighbors => {
                // `neighbors` allocates its adjacency list — acceptable,
                // as it is the topology's public API and only the sampled
                // subset path is hot.
                let nbrs = self.topology.neighbors(initiator);
                if nbrs.len() <= delta {
                    out.extend_from_slice(&nbrs);
                } else {
                    let start = out.len();
                    sample_into(&mut self.rng, nbrs.len(), delta, out);
                    for x in &mut out[start..] {
                        *x = nbrs[*x];
                    }
                }
            }
        }
    }

    fn trigger_check(&mut self, i: usize) {
        let (cur, last) = (self.loads[i], self.l_old[i]);
        if self.params.grow_triggered(cur, last) || self.params.shrink_triggered(cur, last) {
            self.full_balance(i);
        }
    }

    /// Draw phase of one balance operation: consumes RNG for partner
    /// selection, then either defers the operation to the next wave
    /// flush or, when the queue declines it, executes inline.  Either
    /// way the observable results are identical — execution consumes no
    /// RNG and waves preserve trigger order per processor.
    fn full_balance(&mut self, initiator: usize) {
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        members.push(initiator);
        self.partners_into(initiator, &mut members);
        if !self.wave.push(&members) {
            let mut scratch = std::mem::take(&mut self.scratch_exec);
            let view = self.loads_view();
            // SAFETY: the view was just taken from `&mut self` and this
            // thread is the only executor.
            let out = unsafe { execute_topo_balance(&view, &members, &self.dist, &mut scratch) };
            self.scratch_exec = scratch;
            Self::fold_outcome(&mut self.metrics, &mut self.comm, &members, out);
        }
        self.scratch_members = members;
    }

    /// Raw pointers into the two vectors balance operations write; valid
    /// until the next access through `&mut self`.
    fn loads_view(&mut self) -> LoadsView {
        LoadsView {
            loads: self.loads.as_mut_ptr(),
            l_old: self.l_old.as_mut_ptr(),
        }
    }

    /// Accounts one executed operation; called in trigger order so the
    /// counters accumulate exactly as in sequential execution.  (An
    /// associated function over the two counter sets, so a flush can
    /// fold while the executor still borrows `dist`.)
    fn fold_outcome(
        metrics: &mut Metrics,
        comm: &mut CommStats,
        members: &[usize],
        out: OpOutcome,
    ) {
        metrics.balance_ops += 1;
        comm.ops += 1;
        metrics.messages += members.len() as u64;
        comm.control_hops += out.control_hops;
        comm.packets += out.packets;
        comm.packet_hops += out.packet_hops;
        metrics.packets_migrated += out.packets;
    }

    /// Executes every deferred operation through the wave queue and
    /// folds the outcomes back in trigger order.
    fn flush_pending(&mut self) {
        if self.wave.is_empty() {
            return;
        }
        let view = self.loads_view();
        let (dist, metrics, comm) = (&self.dist, &mut self.metrics, &mut self.comm);
        self.wave.flush(
            |members| {
                // SAFETY: the view outlives the flush, during which the
                // loads are touched through it alone (the fold runs
                // after every execution), and `WaveQueue::flush` runs
                // concurrently only operations whose member sets are
                // pairwise disjoint.
                WAVE_SCRATCH.with(|s| unsafe {
                    execute_topo_balance(&view, members, dist, &mut s.borrow_mut())
                })
            },
            |members, out| Self::fold_outcome(metrics, comm, members, out),
        );
    }
}

impl LoadBalancer for TopoCluster {
    fn n(&self) -> usize {
        self.params.n()
    }

    fn loads(&self) -> Vec<u64> {
        self.loads.clone()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    fn step(&mut self, events: &[LoadEvent]) {
        assert_eq!(events.len(), self.params.n(), "one event per processor");
        for (i, &ev) in events.iter().enumerate() {
            // A non-idle event reads this processor's load; if a
            // deferred operation touches it, settle the backlog first so
            // the read matches sequential execution.
            if self.wave.involves(i) && !matches!(ev, LoadEvent::Idle) {
                self.flush_pending();
            }
            match ev {
                LoadEvent::Generate => {
                    self.loads[i] += 1;
                    self.metrics.generated += 1;
                    self.trigger_check(i);
                }
                LoadEvent::Consume => {
                    if self.loads[i] > 0 {
                        self.loads[i] -= 1;
                        self.metrics.consumed += 1;
                        self.trigger_check(i);
                    } else {
                        self.metrics.consume_blocked += 1;
                    }
                }
                LoadEvent::Idle => {}
            }
        }
        // Deferred operations never cross a step boundary: observers
        // read loads and counters between steps.
        self.flush_pending();
        self.wave.end_step();
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn set_step_jobs(&mut self, jobs: usize) {
        self.wave.set_jobs(jobs);
    }

    fn set_wave_threshold(&mut self, threshold: usize) {
        self.wave.set_threshold(threshold);
    }

    fn name(&self) -> &'static str {
        match self.mode {
            PartnerMode::GlobalRandom => "spaa93-topo-global",
            PartnerMode::Neighbors => "spaa93-topo-neighbors",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::imbalance_stats;

    fn run_gen(mut cluster: TopoCluster, steps: usize) -> TopoCluster {
        let events = vec![LoadEvent::Generate; cluster.n()];
        for _ in 0..steps {
            cluster.step(&events);
        }
        cluster
    }

    #[test]
    fn complete_graph_packets_travel_one_hop() {
        let params = Params::paper_section7(8);
        let topo = Topology::Complete { n: 8 };
        let c = run_gen(
            TopoCluster::new(params, topo, PartnerMode::GlobalRandom, 1),
            200,
        );
        assert_eq!(
            c.comm().packet_hops,
            c.comm().packets,
            "all distances are 1"
        );
        assert!(c.comm().ops > 0);
    }

    fn run_one_producer(mut cluster: TopoCluster, steps: usize) -> TopoCluster {
        let mut events = vec![LoadEvent::Idle; cluster.n()];
        events[0] = LoadEvent::Generate;
        for _ in 0..steps {
            cluster.step(&events);
        }
        cluster
    }

    #[test]
    fn ring_global_pays_more_hops_than_neighbors() {
        let params = Params::new(16, 1, 1.1, 4).unwrap();
        let topo = Topology::Ring { n: 16 };
        let global = run_one_producer(
            TopoCluster::new(params, topo.clone(), PartnerMode::GlobalRandom, 2),
            400,
        );
        let local = run_one_producer(
            TopoCluster::new(params, topo, PartnerMode::Neighbors, 2),
            400,
        );
        let g_per_packet = global.comm().packet_hops as f64 / global.comm().packets.max(1) as f64;
        let l_per_packet = local.comm().packet_hops as f64 / local.comm().packets.max(1) as f64;
        assert!(
            g_per_packet > l_per_packet,
            "global {g_per_packet} hops/packet vs neighbour {l_per_packet}"
        );
        assert!(
            (l_per_packet - 1.0).abs() < 1e-9,
            "neighbour packets travel 1 hop"
        );
    }

    #[test]
    fn both_modes_balance_a_producer() {
        // Locality tradeoff: neighbour-only balancing spreads work
        // diffusively (slower, cheaper links), global random spreads fast.
        let params = Params::new(16, 2, 1.3, 4).unwrap();
        for (mode, bound) in [
            (PartnerMode::GlobalRandom, 3.0),
            (PartnerMode::Neighbors, 10.0),
        ] {
            let topo = Topology::Torus2D { w: 4, h: 4 };
            let cluster = run_one_producer(TopoCluster::new(params, topo, mode, 3), 3000);
            let stats = imbalance_stats(&cluster.loads());
            assert_eq!(stats.mean * 16.0, 3000.0);
            assert!(stats.max_over_mean < bound, "{mode:?}: {stats:?}");
            assert!(stats.max < 3000, "{mode:?} must shed load");
        }
    }

    #[test]
    fn conservation_under_mixed_events() {
        let params = Params::paper_section7(9);
        let topo = Topology::Torus2D { w: 3, h: 3 };
        let mut cluster = TopoCluster::new(params, topo, PartnerMode::Neighbors, 5);
        let events: Vec<LoadEvent> = (0..9)
            .map(|i| {
                if i % 2 == 0 {
                    LoadEvent::Generate
                } else {
                    LoadEvent::Consume
                }
            })
            .collect();
        for _ in 0..500 {
            cluster.step(&events);
        }
        let total: u64 = cluster.loads().iter().sum();
        let m = cluster.metrics();
        assert_eq!(total, m.generated - m.consumed);
    }

    #[test]
    fn step_jobs_is_bit_identical_in_both_modes() {
        for mode in [PartnerMode::GlobalRandom, PartnerMode::Neighbors] {
            let params = Params::paper_section7(16);
            let topo = Topology::Torus2D { w: 4, h: 4 };
            let events: Vec<LoadEvent> = (0..16)
                .map(|i| match i % 3 {
                    0 => LoadEvent::Generate,
                    1 => LoadEvent::Consume,
                    _ => LoadEvent::Idle,
                })
                .collect();
            let run = |jobs: usize, threshold: usize| {
                let mut c = TopoCluster::new(params, topo.clone(), mode, 7);
                c.set_step_jobs(jobs);
                c.set_wave_threshold(threshold);
                for _ in 0..400 {
                    c.step(&events);
                }
                (c.loads.clone(), c.l_old.clone(), *c.metrics(), *c.comm())
            };
            let seq = run(1, dlb_core::DEFAULT_WAVE_THRESHOLD);
            for jobs in [2, 4, 8] {
                // Threshold 0 forces waves; the default takes the
                // sequential fallback at this size.  Both must match.
                for threshold in [0, dlb_core::DEFAULT_WAVE_THRESHOLD] {
                    assert_eq!(
                        run(jobs, threshold),
                        seq,
                        "{mode:?} step_jobs={jobs} threshold={threshold}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_rejected() {
        let params = Params::paper_section7(8);
        TopoCluster::new(
            params,
            Topology::Ring { n: 9 },
            PartnerMode::GlobalRandom,
            0,
        );
    }
}
