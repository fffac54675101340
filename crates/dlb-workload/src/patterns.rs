//! Elementary load patterns: the §3 one-producer models, random mixes,
//! moving hotspots and adversarial producer/consumer splits.

use crate::Workload;
use dlb_core::LoadEvent;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// §3's one-processor-generator model: a single processor generates every
/// step, everyone else is idle.
#[derive(Debug, Clone)]
pub struct OneProducer {
    n: usize,
    producer: usize,
}

impl OneProducer {
    /// A producer at index `producer` in a network of `n`.
    pub fn new(n: usize, producer: usize) -> Self {
        assert!(producer < n, "producer index out of range");
        OneProducer { n, producer }
    }
}

impl Workload for OneProducer {
    fn n(&self) -> usize {
        self.n
    }

    fn events_at(&mut self, _t: usize, out: &mut Vec<LoadEvent>) {
        out.clear();
        out.resize(self.n, LoadEvent::Idle);
        out[self.producer] = LoadEvent::Generate;
    }
}

/// Independent per-processor coin flips: generate with probability
/// `p_gen`, consume with probability `p_con`, otherwise idle.
#[derive(Debug, Clone)]
pub struct UniformRandom {
    n: usize,
    p_gen: f64,
    p_con: f64,
    rng: ChaCha8Rng,
}

impl UniformRandom {
    /// `p_gen + p_con` must not exceed 1.
    pub fn new(n: usize, p_gen: f64, p_con: f64, seed: u64) -> Self {
        assert!(
            p_gen >= 0.0 && p_con >= 0.0 && p_gen + p_con <= 1.0,
            "invalid probabilities"
        );
        UniformRandom {
            n,
            p_gen,
            p_con,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl Workload for UniformRandom {
    fn n(&self) -> usize {
        self.n
    }

    fn events_at(&mut self, _t: usize, out: &mut Vec<LoadEvent>) {
        out.clear();
        let (gen_below, con_below) = (self.p_gen, self.p_gen + self.p_con);
        let rng = &mut self.rng;
        // One draw per processor, in processor order.
        out.extend((0..self.n).map(|_| {
            let x: f64 = rng.gen();
            if x < gen_below {
                LoadEvent::Generate
            } else if x < con_below {
                LoadEvent::Consume
            } else {
                LoadEvent::Idle
            }
        }));
    }
}

/// A moving hotspot: one processor generates every step while all others
/// consume with probability `p_con`; the hotspot advances to the next
/// processor every `period` steps.  Stresses the adaptivity claim of §1.
#[derive(Debug, Clone)]
pub struct MovingHotspot {
    n: usize,
    period: usize,
    p_con: f64,
    rng: ChaCha8Rng,
}

impl MovingHotspot {
    /// Hotspot advancing every `period > 0` steps.
    pub fn new(n: usize, period: usize, p_con: f64, seed: u64) -> Self {
        assert!(period > 0, "period must be positive");
        MovingHotspot {
            n,
            period,
            p_con,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Which processor is hot at step `t`.
    pub(crate) fn hotspot_at(&self, t: usize) -> usize {
        (t / self.period) % self.n
    }
}

impl Workload for MovingHotspot {
    fn n(&self) -> usize {
        self.n
    }

    fn events_at(&mut self, t: usize, out: &mut Vec<LoadEvent>) {
        out.clear();
        let hot = self.hotspot_at(t);
        for i in 0..self.n {
            out.push(if i == hot {
                LoadEvent::Generate
            } else if self.rng.gen_bool(self.p_con) {
                LoadEvent::Consume
            } else {
                LoadEvent::Idle
            });
        }
    }
}

/// Adversarial producer/consumer split: the first half generates, the
/// second half consumes, with roles swapping every `swap_every` steps
/// (maximally inhomogeneous, and the load pattern the borrow machinery of
/// §4 exists for).
#[derive(Debug, Clone)]
pub struct ProducerConsumerSplit {
    n: usize,
    swap_every: usize,
}

impl ProducerConsumerSplit {
    /// Roles swap every `swap_every > 0` steps.
    pub fn new(n: usize, swap_every: usize) -> Self {
        assert!(swap_every > 0, "swap period must be positive");
        ProducerConsumerSplit { n, swap_every }
    }
}

impl Workload for ProducerConsumerSplit {
    fn n(&self) -> usize {
        self.n
    }

    /// Two fills: the first `n / 2` processors' role, then the rest's.
    fn events_at(&mut self, t: usize, out: &mut Vec<LoadEvent>) {
        let (first, second) = if (t / self.swap_every) % 2 == 1 {
            (LoadEvent::Consume, LoadEvent::Generate)
        } else {
            (LoadEvent::Generate, LoadEvent::Consume)
        };
        out.clear();
        out.resize(self.n / 2, first);
        out.resize(self.n, second);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(w: &mut impl Workload, steps: usize) -> Vec<Vec<LoadEvent>> {
        let mut all = Vec::new();
        let mut out = Vec::new();
        for t in 0..steps {
            w.events_at(t, &mut out);
            assert_eq!(out.len(), w.n());
            all.push(out.clone());
        }
        all
    }

    #[test]
    fn one_producer_only_produces_at_index() {
        let mut w = OneProducer::new(5, 2);
        for row in collect(&mut w, 10) {
            for (i, &e) in row.iter().enumerate() {
                if i == 2 {
                    assert_eq!(e, LoadEvent::Generate);
                } else {
                    assert_eq!(e, LoadEvent::Idle);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_producer_validates_index() {
        OneProducer::new(3, 3);
    }

    #[test]
    fn uniform_random_rates() {
        let mut w = UniformRandom::new(1, 0.3, 0.5, 11);
        let rows = collect(&mut w, 20_000);
        let gens = rows.iter().filter(|r| r[0] == LoadEvent::Generate).count();
        let cons = rows.iter().filter(|r| r[0] == LoadEvent::Consume).count();
        assert!((gens as f64 / 20_000.0 - 0.3).abs() < 0.02);
        assert!((cons as f64 / 20_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "invalid probabilities")]
    fn uniform_random_validates_probabilities() {
        UniformRandom::new(4, 0.7, 0.7, 0);
    }

    #[test]
    fn hotspot_moves() {
        let w = MovingHotspot::new(4, 10, 0.0, 2);
        assert_eq!(w.hotspot_at(0), 0);
        assert_eq!(w.hotspot_at(9), 0);
        assert_eq!(w.hotspot_at(10), 1);
        assert_eq!(w.hotspot_at(39), 3);
        assert_eq!(w.hotspot_at(40), 0, "wraps around");
    }

    #[test]
    fn split_swaps_roles() {
        let mut w = ProducerConsumerSplit::new(4, 3);
        let rows = collect(&mut w, 6);
        assert_eq!(
            rows[0],
            vec![
                LoadEvent::Generate,
                LoadEvent::Generate,
                LoadEvent::Consume,
                LoadEvent::Consume
            ]
        );
        assert_eq!(
            rows[3],
            vec![
                LoadEvent::Consume,
                LoadEvent::Consume,
                LoadEvent::Generate,
                LoadEvent::Generate
            ]
        );
    }

    /// The two fills against the per-processor definition they
    /// replaced, across two swaps.
    #[test]
    fn split_fill_is_the_per_processor_rule() {
        for n in [1, 2, 5, 8] {
            let mut w = ProducerConsumerSplit::new(n, 3);
            for (t, row) in collect(&mut w, 9).into_iter().enumerate() {
                let swapped = (t / 3) % 2 == 1;
                let want: Vec<LoadEvent> = (0..n)
                    .map(|i| {
                        if (i < n / 2) != swapped {
                            LoadEvent::Generate
                        } else {
                            LoadEvent::Consume
                        }
                    })
                    .collect();
                assert_eq!(row, want, "n = {n}, t = {t}");
            }
        }
    }
}
