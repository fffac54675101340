//! Open-loop request generation for the `dlb-serve` front-end.
//!
//! Unlike the per-processor [`crate::Workload`] event streams, a service
//! is driven by *requests*: each has an arrival tick decided by a rate
//! curve (not by how fast the service drains — that is what makes the
//! generator open-loop and immune to coordinated omission), a key drawn
//! from a Zipf distribution (hot-key skew), and a service demand in
//! ticks.  The whole stream is a pure function of the seed and the
//! config, so the simulated-clock and wall-clock engines replay the
//! exact same requests.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// One segment of the arrival-rate curve (a "diurnal phase").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePhase {
    /// How many ticks this phase lasts.
    pub ticks: u64,
    /// Mean request arrivals per tick while the phase is active.
    pub rate: f64,
}

/// Configuration of the request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceLoad {
    /// Arrival-rate curve, cycled for the whole run (diurnal pattern).
    pub phases: Vec<RatePhase>,
    /// Number of distinct keys.
    pub keys: u64,
    /// Zipf skew exponent (`0.0` = uniform keys).
    pub zipf_s: f64,
    /// Per-request service demand, uniform in `[min, max]` ticks.
    pub service_ticks: (u64, u64),
}

impl ServiceLoad {
    /// Whether [`RequestSource::new`] can build this load's key table.
    /// Uniform keys (`zipf_s == 0`) need none; a Zipf CDF has one entry
    /// per key, which the guide table over it must be able to index and
    /// the allocator must be able to give.
    pub fn check_keys(&self) -> Result<(), String> {
        if self.zipf_s != 0.0 {
            reserve_cdf(self.keys)?;
        }
        Ok(())
    }
}

/// An empty CDF with room for `keys` entries, or why there is none.
fn reserve_cdf(keys: u64) -> Result<Vec<f64>, String> {
    let entries = u32::try_from(keys)
        .ok()
        .and_then(|k| usize::try_from(k).ok())
        .ok_or_else(|| format!("keys {keys}: a Zipf table holds at most {} keys", u32::MAX))?;
    let mut cdf = Vec::new();
    cdf.try_reserve_exact(entries)
        .map_err(|e| format!("keys {keys}: no memory for the Zipf table ({e})"))?;
    Ok(cdf)
}

/// Buckets of the guide table: bucket `b` covers `[b, b + 1) / 4096`.
const GUIDE_BUCKETS: usize = 4096;

/// Lower edge of guide bucket `b` (exact: a power-of-two division).
fn guide_edge(b: usize) -> f64 {
    b as f64 / GUIDE_BUCKETS as f64
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Dense id in arrival order (0, 1, 2, …).
    pub id: u64,
    /// Routing key (hot keys are small under Zipf skew).
    pub key: u64,
    /// Scheduled arrival tick — latency is measured from here.
    pub arrival: u64,
    /// Service demand in ticks.
    pub service: u64,
}

/// Deterministic open-loop request source.
///
/// `arrivals_at(t)` must be called with strictly increasing `t`; the
/// per-tick arrival count is a fractional accumulator over the active
/// phase's rate (so a rate of 0.25 emits one request every 4 ticks,
/// exactly), and key/service draws consume a seeded ChaCha8 stream.
pub struct RequestSource {
    config: ServiceLoad,
    /// Zipf CDF over `keys` entries (empty when `zipf_s == 0`).
    cdf: Vec<f64>,
    /// `guide[b]` is the first key with `cdf ≥ guide_edge(b)`, for `b`
    /// in `0..=GUIDE_BUCKETS` (empty with the CDF): a draw in bucket
    /// `b` finds its key between `guide[b]` and `guide[b + 1]`.
    guide: Vec<u32>,
    rng: ChaCha8Rng,
    /// Fractional arrivals carried to the next tick.
    acc: f64,
    next_id: u64,
    /// Cycle length (sum of phase ticks).
    cycle: u64,
}

impl RequestSource {
    /// Creates the source.
    ///
    /// # Panics
    ///
    /// Panics on an empty or zero-length phase list, zero keys, a key
    /// table [`ServiceLoad::check_keys`] refuses, or an inverted service
    /// range — configs are validated by the scenario loader, so a bad
    /// value here is a programming error.
    pub fn new(config: ServiceLoad, seed: u64) -> Self {
        let cycle: u64 = config.phases.iter().map(|p| p.ticks).sum();
        assert!(cycle > 0, "phase list must cover at least one tick");
        assert!(config.keys > 0, "need at least one key");
        assert!(
            config.service_ticks.0 <= config.service_ticks.1,
            "service range inverted"
        );
        let (mut cdf, mut guide) = (Vec::new(), Vec::new());
        if config.zipf_s != 0.0 {
            // Zipf weights k^-s, prefix-summed and normalised once;
            // sampling is then a short binary search per request.
            cdf = reserve_cdf(config.keys).expect("key table validated by the scenario loader");
            let mut total = 0.0;
            for k in 1..=config.keys {
                total += (k as f64).powf(-config.zipf_s);
                cdf.push(total);
            }
            guide.reserve_exact(GUIDE_BUCKETS + 1);
            let mut edge = 0.0;
            for (k, w) in (0u32..).zip(cdf.iter_mut()) {
                *w /= total;
                // Every bucket edge this key is the first to reach.  The
                // last entry is `total / total`, exactly the last edge.
                while edge <= *w {
                    guide.push(k);
                    edge = guide_edge(guide.len());
                }
            }
            debug_assert_eq!(guide.len(), GUIDE_BUCKETS + 1);
        }
        RequestSource {
            cdf,
            guide,
            rng: ChaCha8Rng::seed_from_u64(seed),
            acc: 0.0,
            next_id: 0,
            cycle,
            config,
        }
    }

    /// The arrival rate active at tick `t` (phases cycle).
    pub fn rate_at(&self, t: u64) -> f64 {
        let mut into = t % self.cycle;
        for phase in &self.config.phases {
            if into < phase.ticks {
                return phase.rate;
            }
            into -= phase.ticks;
        }
        unreachable!("cycle covers every offset")
    }

    /// Appends the requests arriving at tick `t` to `out`.  Must be
    /// called with strictly increasing `t` starting at 0.
    pub fn arrivals_at(&mut self, t: u64, out: &mut Vec<Request>) {
        self.acc += self.rate_at(t);
        let count = self.acc as u64;
        self.acc -= count as f64;
        let (lo, hi) = self.config.service_ticks;
        for _ in 0..count {
            let key = if self.cdf.is_empty() {
                self.rng.gen_range(0..self.config.keys)
            } else {
                let x: f64 = self.rng.gen();
                self.zipf_key(x)
            };
            out.push(Request {
                id: self.next_id,
                key,
                arrival: t,
                service: self.rng.gen_range(lo..=hi),
            });
            self.next_id += 1;
        }
    }

    /// The key a uniform draw `x ∈ [0, 1)` lands on: the first whose
    /// CDF value is `≥ x`.  `x · 4096` is exact, so with `b` its
    /// integer part `guide_edge(b) ≤ x < guide_edge(b + 1)`, and the
    /// first entry `≥ x` lies no earlier than the first `≥` the lower
    /// edge and no later than the first `≥` the upper one: the search
    /// over `guide[b]..guide[b + 1]` returns what a search over the
    /// whole CDF would.
    fn zipf_key(&self, x: f64) -> u64 {
        let b = (x * GUIDE_BUCKETS as f64) as usize;
        // Widening: a `u32` index always fits `usize`.
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        (lo + self.cdf[lo..hi].partition_point(|&c| c < x)) as u64
    }

    /// Requests generated so far.
    pub fn issued(&self) -> u64 {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn config() -> ServiceLoad {
        ServiceLoad {
            phases: vec![
                RatePhase {
                    ticks: 10,
                    rate: 2.0,
                },
                RatePhase {
                    ticks: 10,
                    rate: 0.25,
                },
            ],
            keys: 100,
            zipf_s: 1.1,
            service_ticks: (1, 5),
        }
    }

    #[test]
    fn arrival_counts_follow_the_rate_curve_exactly() {
        let mut src = RequestSource::new(config(), 7);
        let mut out = Vec::new();
        for t in 0..40 {
            src.arrivals_at(t, &mut out);
        }
        // One full cycle = 10·2.0 + 10·0.25 = 22.5 requests; two cycles
        // accumulate to exactly 45 (the fractional carry never drifts).
        assert_eq!(out.len(), 45);
        assert_eq!(src.issued(), 45);
        // Ids are dense and arrivals non-decreasing.
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        assert!(out.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut src = RequestSource::new(config(), seed);
            let mut out = Vec::new();
            for t in 0..100 {
                src.arrivals_at(t, &mut out);
            }
            out
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn zipf_skews_toward_small_keys() {
        let mut cfg = config();
        cfg.zipf_s = 1.2;
        cfg.phases = vec![RatePhase {
            ticks: 1,
            rate: 10.0,
        }];
        let mut src = RequestSource::new(cfg, 11);
        let mut out = Vec::new();
        for t in 0..2000 {
            src.arrivals_at(t, &mut out);
        }
        let hot = out.iter().filter(|r| r.key < 10).count();
        // Under Zipf(1.2) over 100 keys the top 10 carry well over half
        // the mass; uniform would put them at ~10%.
        assert!(
            hot * 2 > out.len(),
            "only {hot}/{} requests hit the hot keys",
            out.len()
        );
        assert!(out.iter().all(|r| r.key < 100));
        assert!(out.iter().all(|r| (1..=5).contains(&r.service)));
    }

    #[test]
    fn uniform_keys_when_skew_is_zero() {
        let mut cfg = config();
        cfg.zipf_s = 0.0;
        cfg.phases = vec![RatePhase {
            ticks: 1,
            rate: 10.0,
        }];
        let mut src = RequestSource::new(cfg, 5);
        let mut out = Vec::new();
        for t in 0..1000 {
            src.arrivals_at(t, &mut out);
        }
        let hot = out.iter().filter(|r| r.key < 10).count();
        let frac = hot as f64 / out.len() as f64;
        assert!((0.05..0.2).contains(&frac), "uniform hot fraction {frac}");
    }

    /// One source per `keys × zipf_s` corner: a lone key, a pair, a
    /// table smaller than the guide, the benchmark's 100 000; a flat,
    /// a typical and a steep skew.
    fn zipf_sources() -> &'static [RequestSource] {
        static SOURCES: OnceLock<Vec<RequestSource>> = OnceLock::new();
        SOURCES.get_or_init(|| {
            let mut sources = Vec::new();
            for keys in [1, 2, 100, 100_000] {
                for zipf_s in [0.5, 1.1, 2.5] {
                    let load = ServiceLoad {
                        keys,
                        zipf_s,
                        ..config()
                    };
                    sources.push(RequestSource::new(load, 0));
                }
            }
            sources
        })
    }

    /// The lookup as it stood before the guide table: one binary
    /// search over the whole CDF.
    fn full_search(src: &RequestSource, x: f64) -> u64 {
        src.cdf.partition_point(|&c| c < x) as u64
    }

    /// Every value where the two searches could part ways: each CDF
    /// entry and each bucket edge, and the floats either side of them.
    #[test]
    fn guided_lookup_agrees_at_every_cdf_value_and_bucket_edge() {
        for src in zipf_sources() {
            let edges = (0..GUIDE_BUCKETS).map(guide_edge);
            for at in src.cdf.iter().copied().chain(edges) {
                for x in [at.next_down(), at, at.next_up()] {
                    if (0.0..1.0).contains(&x) {
                        assert_eq!(src.zipf_key(x), full_search(src, x), "x = {x:e}");
                    }
                }
            }
        }
    }

    proptest! {
        /// The identity argument for the guide table, checked on
        /// arbitrary draws.
        #[test]
        fn guided_lookup_is_the_full_search(xs in prop::collection::vec(0.0f64..1.0, 1..50)) {
            for src in zipf_sources() {
                for &x in &xs {
                    prop_assert_eq!(src.zipf_key(x), full_search(src, x), "x = {:e}", x);
                }
            }
        }
    }
}
