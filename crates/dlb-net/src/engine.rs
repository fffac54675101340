//! Topology-aware balancing and communication accounting.
//!
//! [`TopoCluster`] runs the practical SPAA'93 balancer — the one
//! raw-load engine of [`dlb_core::simple`] — under the [`TopoRule`]: an
//! explicit [`Topology`] and one of two partner modes:
//!
//! * [`PartnerMode::GlobalRandom`] — the paper's analyzed model: partners
//!   drawn uniformly from the whole network; packets pay the real hop
//!   distance (which the paper's constant-cost assumption waves away, and
//!   this rule measures);
//! * [`PartnerMode::Neighbors`] — partners drawn from the initiator's
//!   topology neighbours only (the locality variant the paper names as
//!   further research).
//!
//! Communication is accounted by greedily matching surplus to deficit
//! members of each balance group and weighting every moved packet by the
//! hop distance it travels.

use crate::topology::Topology;
use dlb_core::balance::sample_into;
use dlb_core::{Alive, BalanceRule, EvenRule, RawCluster};
use rand_chacha::ChaCha8Rng;

/// `(member, packets over or under its share)` pairs of one split.
type Imbalances = Vec<(usize, u64)>;

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

/// The paper's even split on an explicit topology: partners by
/// [`PartnerMode`], every moved packet and control message weighted by
/// the hops it travels, tallied in [`CommStats`].
pub struct TopoRule {
    topology: Topology,
    mode: PartnerMode,
    /// All-pairs hop distances, precomputed once.
    dist: Vec<Vec<u32>>,
    /// Adjacency lists, precomputed for [`PartnerMode::Neighbors`]
    /// (empty otherwise).
    neighbors: Vec<Vec<usize>>,
    /// The initiator's neighbours that are up, under a crash mask.
    up_neighbors: Vec<usize>,
    /// Scratch of one split: members over and under their share.
    surplus: Imbalances,
    deficit: Imbalances,
    comm: CommStats,
}

impl TopoRule {
    /// A rule over `topology`.
    ///
    /// # Panics
    ///
    /// Panics on a disconnected topology.
    pub fn new(topology: Topology, mode: PartnerMode) -> Self {
        assert!(topology.is_connected(), "topology must be connected");
        let n = topology.n();
        let neighbors = match mode {
            PartnerMode::GlobalRandom => Vec::new(),
            PartnerMode::Neighbors => (0..n).map(|v| topology.neighbors(v)).collect(),
        };
        TopoRule {
            dist: (0..n).map(|v| topology.distances_from(v)).collect(),
            topology,
            mode,
            neighbors,
            up_neighbors: Vec::new(),
            surplus: Vec::new(),
            deficit: Vec::new(),
            comm: CommStats::default(),
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
}

impl BalanceRule for TopoRule {
    fn name(&self) -> &'static str {
        match self.mode {
            PartnerMode::GlobalRandom => "spaa93-topo-global",
            PartnerMode::Neighbors => "spaa93-topo-neighbors",
        }
    }

    fn check_size(&self, n: usize) {
        assert_eq!(n, self.topology.n(), "params/topology size mismatch");
    }

    fn draw_partners(
        &mut self,
        rng: &mut ChaCha8Rng,
        initiator: usize,
        delta: usize,
        alive: &Alive<'_>,
        out: &mut Vec<usize>,
    ) {
        if self.mode == PartnerMode::GlobalRandom {
            return alive.draw_others(rng, initiator, delta, out);
        }
        let candidates = if alive.all_up() {
            &self.neighbors[initiator]
        } else {
            self.up_neighbors.clear();
            let up = self.neighbors[initiator]
                .iter()
                .filter(|&&p| !alive.is_down(p));
            self.up_neighbors.extend(up);
            &self.up_neighbors
        };
        if candidates.len() <= delta {
            out.extend_from_slice(candidates);
        } else {
            let start = out.len();
            sample_into(rng, candidates.len(), delta, out);
            for x in &mut out[start..] {
                *x = candidates[*x];
            }
        }
    }

    /// The even split, plus surplus → deficit greedy matching for hop
    /// accounting.
    fn split(&mut self, members: &[usize], held: &[u64], shares: &mut Vec<u64>) {
        self.comm.ops += 1;
        for &m in &members[1..] {
            self.comm.control_hops += 2 * self.dist[members[0]][m] as u64;
        }
        EvenRule.split(members, held, shares);
        self.surplus.clear();
        self.deficit.clear();
        for ((&m, &load), &share) in members.iter().zip(held).zip(shares.iter()) {
            if load > share {
                self.surplus.push((m, load - share));
                self.comm.packets += load - share;
            } else if share > load {
                self.deficit.push((m, share - load));
            }
        }
        let mut di = 0usize;
        for &(from, excess) in &self.surplus {
            let mut excess = excess;
            while excess > 0 && di < self.deficit.len() {
                let (to, need) = self.deficit[di];
                let x = excess.min(need);
                self.comm.packet_hops += x * self.dist[from][to] as u64;
                excess -= x;
                if need == x {
                    di += 1;
                } else {
                    self.deficit[di].1 = need - x;
                }
            }
        }
    }
}

/// The practical balancer on an explicit topology with communication
/// accounting: the raw-load engine under the [`TopoRule`].  Build one
/// with `TopoCluster::with_rule(params, TopoRule::new(topology, mode),
/// seed)`; the counters are at `cluster.rule().comm()`.
pub type TopoCluster = RawCluster<TopoRule>;

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{imbalance_stats, LoadBalancer, LoadEvent, Params};

    fn cluster(params: Params, topology: Topology, mode: PartnerMode, seed: u64) -> TopoCluster {
        TopoCluster::with_rule(params, TopoRule::new(topology, mode), seed)
    }

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
        let c = run_gen(cluster(params, topo, PartnerMode::GlobalRandom, 1), 200);
        assert_eq!(
            c.rule().comm().packet_hops,
            c.rule().comm().packets,
            "all distances are 1"
        );
        assert!(c.rule().comm().ops > 0);
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
            cluster(params, topo.clone(), PartnerMode::GlobalRandom, 2),
            400,
        );
        let local = run_one_producer(cluster(params, topo, PartnerMode::Neighbors, 2), 400);
        let g_per_packet =
            global.rule().comm().packet_hops as f64 / global.rule().comm().packets.max(1) as f64;
        let l_per_packet =
            local.rule().comm().packet_hops as f64 / local.rule().comm().packets.max(1) as f64;
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
            let cluster = run_one_producer(cluster(params, topo, mode, 3), 3000);
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
        let mut cluster = cluster(params, topo, PartnerMode::Neighbors, 5);
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

    /// FNV-1a of what 200 masked steps leave behind — final loads, every
    /// `Metrics` counter, the four `CommStats` counters and the JSONL
    /// trace bytes — on a build-up-then-drain workload whose crash mask
    /// is redrawn every 7 steps.
    fn ring_pin(mode: PartnerMode) -> String {
        use rand::prelude::*;
        let (n, steps, seed) = (16, 200, 77u64);
        let params = Params::new(n, 2, 1.3, 4).unwrap();
        let mut cluster = cluster(params, Topology::Ring { n }, mode, seed);
        let buffer = dlb_trace::BufferSink::new();
        cluster.set_trace_sink(buffer.handle());
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let mut mask_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
        let mut down = vec![false; n];
        for t in 0..steps {
            if t % 7 == 0 {
                down.iter_mut().for_each(|d| *d = mask_rng.gen_bool(0.25));
            }
            let (p_gen, p_con) = if t * 2 > steps {
                (0.2, 0.6)
            } else {
                (0.55, 0.3)
            };
            let events: Vec<LoadEvent> = (0..n)
                .map(|_| match ev_rng.gen::<f64>() {
                    x if x < p_gen => LoadEvent::Generate,
                    x if x < p_gen + p_con => LoadEvent::Consume,
                    _ => LoadEvent::Idle,
                })
                .collect();
            cluster.step_masked(&events, &down);
        }
        cluster.check_invariants().unwrap();
        let mut bytes = Vec::new();
        let mut push = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
        cluster.loads().into_iter().for_each(&mut push);
        let metrics = cluster.metrics();
        for name in dlb_core::Metrics::FIELD_NAMES {
            push(metrics.get_field(name).expect("listed counter"));
        }
        let comm = cluster.rule().comm();
        assert!(comm.ops > 0 && comm.packet_hops > 0, "{comm:?}");
        [comm.ops, comm.packets, comm.packet_hops, comm.control_hops]
            .into_iter()
            .for_each(&mut push);
        for ev in buffer.take() {
            ev.write_line(&mut bytes);
            bytes.push(b'\n');
        }
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        format!("{hash:016x}")
    }

    /// Captured at c24f747, when `split` returned its hop cost for a
    /// separate `fold` to tally: both partner modes under changing
    /// masks, held to the byte, comm counters included.
    #[test]
    fn masked_ring_runs_are_pinned_in_both_partner_modes() {
        assert_eq!(ring_pin(PartnerMode::GlobalRandom), "8f010047f914fe04");
        assert_eq!(ring_pin(PartnerMode::Neighbors), "53a0aaf57acba377");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_rejected() {
        let params = Params::paper_section7(8);
        cluster(
            params,
            Topology::Ring { n: 9 },
            PartnerMode::GlobalRandom,
            0,
        );
    }
}
