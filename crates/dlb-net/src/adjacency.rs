//! Precomputed CSR adjacency shared by [`TopoRule`](crate::TopoRule)
//! and the topology-driven baselines.
//!
//! [`Topology::neighbors`] allocates a fresh `Vec` per call, which is
//! fine for one-shot queries but not for balancers that walk every
//! vertex's neighbourhood every step.  `Adjacency` materialises
//! the neighbour lists once at construction (in `neighbors()` order, so
//! iteration order — and therefore every tie-break — is identical to
//! querying the topology directly) and hands out slices afterwards:
//! zero allocations on the hot path.

use crate::topology::Topology;

/// Compressed sparse row adjacency of a [`Topology`].
#[derive(Debug, Clone)]
pub struct Adjacency {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for vertex `v`.
    offsets: Vec<u32>,
    /// Concatenated neighbour lists, each in `Topology::neighbors` order.
    targets: Vec<u32>,
}

impl Adjacency {
    /// Materialises the adjacency of `topology`.
    pub fn new(topology: &Topology) -> Self {
        let n = topology.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        let id = |x: usize| u32::try_from(x).expect("adjacency indexes fit in u32");
        for v in 0..n {
            targets.extend(topology.neighbors(v).into_iter().map(id));
            offsets.push(id(targets.len()));
        }
        Adjacency { offsets, targets }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Degree of vertex `v`.
    #[cfg(test)]
    pub(crate) fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbours of `v`, in [`Topology::neighbors`] order.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_topology_neighbors_exactly() {
        for topo in [
            Topology::Complete { n: 5 },
            Topology::Ring { n: 7 },
            Topology::Hypercube { dim: 3 },
            Topology::Torus2D { w: 3, h: 4 },
            Topology::Star { n: 6 },
        ] {
            let adj = Adjacency::new(&topo);
            assert_eq!(adj.n(), topo.n());
            for v in 0..topo.n() {
                let expect: Vec<u32> = topo
                    .neighbors(v)
                    .into_iter()
                    .map(|u| u32::try_from(u).unwrap())
                    .collect();
                assert_eq!(adj.neighbors(v), expect.as_slice(), "{topo:?} v={v}");
                assert_eq!(adj.degree(v), expect.len());
            }
        }
    }
}
