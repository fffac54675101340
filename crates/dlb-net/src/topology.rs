//! Interconnect topologies.
//!
//! The SPAA'93 algorithm itself is topology-oblivious (partners are drawn
//! globally at random), but its *communication cost* is not: a packet
//! moved between processors traverses `distance(a, b)` links.  These
//! graphs let the experiments measure the traffic the paper's constant-
//! cost assumption hides, and support the locality mode of
//! [`crate::engine::TopoCluster`].

/// An undirected interconnect on processors `0 .. n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Every pair connected (distance ≤ 1).
    Complete { n: usize },
    /// A cycle.
    Ring { n: usize },
    /// A `w × h` torus (wrap-around grid); processor `i` sits at
    /// `(i % w, i / w)`.
    Torus2D { w: usize, h: usize },
    /// A `dim`-dimensional hypercube on `2^dim` processors.
    Hypercube { dim: u32 },
    /// The binary de Bruijn graph on `2^dim` processors: `v` is adjacent
    /// to `2v mod n`, `2v+1 mod n` and their inverses (the network of the
    /// paper's own parallel machine \[13\] uses de Bruijn-like shuffles).
    DeBruijn { dim: u32 },
    /// A star: processor 0 is the centre (the pathological centralised
    /// case §1 argues against).
    Star { n: usize },
}

impl Topology {
    /// Number of processors.
    pub fn n(&self) -> usize {
        match *self {
            Topology::Complete { n } | Topology::Ring { n } | Topology::Star { n } => n,
            Topology::Torus2D { w, h } => w * h,
            Topology::Hypercube { dim } | Topology::DeBruijn { dim } => 1usize << dim,
        }
    }

    /// Neighbours of `v` (no self-loops, deduplicated, sorted).
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        let n = self.n();
        assert!(v < n, "vertex {v} out of range (n = {n})");
        let mut out: Vec<usize> = match *self {
            Topology::Complete { n } => (0..n).filter(|&u| u != v).collect(),
            Topology::Ring { n } => {
                if n <= 1 {
                    vec![]
                } else {
                    vec![(v + 1) % n, (v + n - 1) % n]
                }
            }
            Topology::Torus2D { w, h } => {
                let (x, y) = (v % w, v / w);
                vec![
                    (x + 1) % w + y * w,
                    (x + w - 1) % w + y * w,
                    x + ((y + 1) % h) * w,
                    x + ((y + h - 1) % h) * w,
                ]
            }
            Topology::Hypercube { dim } => (0..dim).map(|b| v ^ (1 << b)).collect(),
            Topology::DeBruijn { dim } => {
                let n = 1usize << dim;
                vec![(2 * v) % n, (2 * v + 1) % n, v >> 1, (v >> 1) | (n >> 1)]
            }
            Topology::Star { n } => {
                if v == 0 {
                    (1..n).collect()
                } else {
                    vec![0]
                }
            }
        };
        out.sort_unstable();
        out.dedup();
        out.retain(|&u| u != v);
        out
    }

    /// BFS hop distances from `src` to every vertex (`u32::MAX` if
    /// unreachable).
    pub fn distances_from(&self, src: usize) -> Vec<u32> {
        let n = self.n();
        let mut dist = vec![u32::MAX; n];
        dist[src] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            for u in self.neighbors(v) {
                if dist[u] == u32::MAX {
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Hop distance between two vertices.
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        self.distances_from(a)[b]
    }

    /// Largest finite hop distance in the graph.
    pub fn diameter(&self) -> u32 {
        (0..self.n())
            .map(|v| {
                self.distances_from(v)
                    .into_iter()
                    .filter(|&d| d != u32::MAX)
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }

    /// True if every vertex can reach every other.
    pub fn is_connected(&self) -> bool {
        self.n() == 0 || self.distances_from(0).iter().all(|&d| d != u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_distances() {
        let t = Topology::Complete { n: 8 };
        assert_eq!(t.n(), 8);
        assert_eq!(t.neighbors(3).len(), 7);
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    fn ring_distances() {
        let t = Topology::Ring { n: 10 };
        assert_eq!(t.distance(0, 5), 5);
        assert_eq!(t.distance(0, 7), 3, "wraps the short way");
        assert_eq!(t.diameter(), 5);
    }

    #[test]
    fn torus_neighbors_and_diameter() {
        let t = Topology::Torus2D { w: 4, h: 4 };
        assert_eq!(t.n(), 16);
        assert_eq!(t.neighbors(0), vec![1, 3, 4, 12]);
        assert_eq!(t.diameter(), 4); // 2 + 2
    }

    #[test]
    fn hypercube_structure() {
        let t = Topology::Hypercube { dim: 4 };
        assert_eq!(t.n(), 16);
        assert_eq!(t.neighbors(0), vec![1, 2, 4, 8]);
        assert_eq!(t.diameter(), 4);
        assert_eq!(t.distance(0b0000, 0b1111), 4);
    }

    #[test]
    fn debruijn_logarithmic_diameter() {
        let t = Topology::DeBruijn { dim: 6 };
        assert_eq!(t.n(), 64);
        assert!(t.is_connected());
        assert!(
            t.diameter() <= 6,
            "diameter {} should be <= dim",
            t.diameter()
        );
    }

    #[test]
    fn star_routes_through_center() {
        let t = Topology::Star { n: 6 };
        assert_eq!(t.distance(1, 2), 2);
        assert_eq!(t.distance(0, 5), 1);
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    fn all_topologies_connected() {
        let topos = [
            Topology::Complete { n: 9 },
            Topology::Ring { n: 9 },
            Topology::Torus2D { w: 3, h: 3 },
            Topology::Hypercube { dim: 3 },
            Topology::DeBruijn { dim: 3 },
            Topology::Star { n: 9 },
        ];
        for t in topos {
            assert!(t.is_connected(), "{t:?}");
            assert_eq!(
                t.n(),
                if matches!(t, Topology::Hypercube { .. } | Topology::DeBruijn { .. }) {
                    8
                } else {
                    9
                }
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbors_validates_vertex() {
        Topology::Ring { n: 4 }.neighbors(4);
    }
}
