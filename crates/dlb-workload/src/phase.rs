//! The §7 phase workload model.
//!
//! Each processor's behaviour is a sequence of phases
//! `(g_i, c_i, start_i, end_i)`: while `start_i ≤ t ≤ end_i` the processor
//! generates a packet with probability `g_i` and consumes one (if
//! available) with probability `c_i`.  Phase parameters are drawn from the
//! global configuration `(g_l, g_h, c_l, c_h, len_l, len_h)`; the paper's
//! §7 experiments use `g ∈ [0.1, 0.9]`, `c ∈ [0.1, 0.7]`,
//! `len ∈ [150, 400]` on 64 processors for 500 steps — the long phases
//! produce a "very inhomogeneous distribution of generation and
//! consumption activities".
//!
//! §2's timing model allows one action per step, so when the generation
//! and consumption draws both fire, a fair coin picks which one happens.

use crate::Workload;
use dlb_core::LoadEvent;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Global configuration of the phase model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseConfig {
    /// Lower/upper bound of the per-phase generation probability.
    pub g: (f64, f64),
    /// Lower/upper bound of the per-phase consumption probability.
    pub c: (f64, f64),
    /// Lower/upper bound of the phase length in steps.
    pub len: (usize, usize),
}

impl Default for PhaseConfig {
    /// Defaults to the paper's §7 configuration.
    fn default() -> Self {
        Self::paper_section7()
    }
}

impl PhaseConfig {
    /// The exact configuration of the paper's §7 experiments.
    pub fn paper_section7() -> Self {
        PhaseConfig {
            g: (0.1, 0.9),
            c: (0.1, 0.7),
            len: (150, 400),
        }
    }

    /// Validates the bounds (probabilities in `[0, 1]`, ordered ranges,
    /// positive lengths).
    pub fn validate(&self) -> Result<(), String> {
        let prob_ok = |(lo, hi): (f64, f64)| (0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0;
        if !prob_ok(self.g) {
            return Err(format!("generation range {:?} invalid", self.g));
        }
        if !prob_ok(self.c) {
            return Err(format!("consumption range {:?} invalid", self.c));
        }
        if self.len.0 == 0 || self.len.0 > self.len.1 {
            return Err(format!("length range {:?} invalid", self.len));
        }
        Ok(())
    }
}

/// One phase of one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Phase {
    /// Generation probability while the phase is active.
    pub g: f64,
    /// Consumption probability while the phase is active.
    pub c: f64,
    /// First step of the phase (inclusive).
    pub start: usize,
    /// Last step of the phase (inclusive).
    pub end: usize,
}

/// The §7 phase workload: per-processor phase schedules drawn once at
/// construction, plus a per-step event sampler.
#[derive(Debug, Clone)]
pub struct PhaseWorkload {
    schedules: Vec<Vec<Phase>>,
    rng: ChaCha8Rng,
}

impl PhaseWorkload {
    /// Draws a phase schedule covering `horizon` steps for each of `n`
    /// processors.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`PhaseConfig::validate`].
    pub fn new(n: usize, horizon: usize, config: PhaseConfig, seed: u64) -> Self {
        config.validate().expect("valid phase configuration");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let schedules = (0..n)
            .map(|_| {
                let mut phases = Vec::new();
                let mut t = 0usize;
                while t < horizon {
                    let len = rng.gen_range(config.len.0..=config.len.1);
                    phases.push(Phase {
                        g: rng.gen_range(config.g.0..=config.g.1),
                        c: rng.gen_range(config.c.0..=config.c.1),
                        start: t,
                        end: t + len - 1,
                    });
                    t += len;
                }
                phases
            })
            .collect();
        PhaseWorkload { schedules, rng }
    }

    /// The paper's §7 workload: 64 processors, 500 steps.
    pub fn paper_section7(seed: u64) -> Self {
        Self::new(64, 500, PhaseConfig::paper_section7(), seed)
    }

    /// The phase schedule of processor `i`.
    #[cfg(test)]
    pub(crate) fn schedule(&self, i: usize) -> &[Phase] {
        &self.schedules[i]
    }

    fn active_phase(&self, i: usize, t: usize) -> Option<&Phase> {
        self.schedules[i]
            .iter()
            .find(|p| p.start <= t && t <= p.end)
    }
}

impl Workload for PhaseWorkload {
    fn n(&self) -> usize {
        self.schedules.len()
    }

    fn events_at(&mut self, t: usize, out: &mut Vec<LoadEvent>) {
        out.clear();
        for i in 0..self.schedules.len() {
            let (g, c) = match self.active_phase(i, t) {
                Some(p) => (p.g, p.c),
                None => (0.0, 0.0),
            };
            let gen = self.rng.gen_bool(g);
            let con = self.rng.gen_bool(c);
            out.push(match (gen, con) {
                (true, false) => LoadEvent::Generate,
                (false, true) => LoadEvent::Consume,
                (true, true) => {
                    if self.rng.gen_bool(0.5) {
                        LoadEvent::Generate
                    } else {
                        LoadEvent::Consume
                    }
                }
                (false, false) => LoadEvent::Idle,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        PhaseConfig::paper_section7().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = PhaseConfig::paper_section7();
        cfg.g = (0.9, 0.1);
        assert!(cfg.validate().is_err());
        let mut cfg = PhaseConfig::paper_section7();
        cfg.c = (0.1, 1.5);
        assert!(cfg.validate().is_err());
        let mut cfg = PhaseConfig::paper_section7();
        cfg.len = (0, 10);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn schedules_cover_the_horizon() {
        let wl = PhaseWorkload::new(8, 500, PhaseConfig::paper_section7(), 3);
        for i in 0..8 {
            let phases = wl.schedule(i);
            assert!(!phases.is_empty());
            assert_eq!(phases[0].start, 0);
            for w in phases.windows(2) {
                assert_eq!(w[1].start, w[0].end + 1, "phases are consecutive");
            }
            assert!(phases.last().unwrap().end >= 499);
            for p in phases {
                let len = p.end - p.start + 1;
                assert!((150..=400).contains(&len), "len {len}");
                assert!((0.1..=0.9).contains(&p.g));
                assert!((0.1..=0.7).contains(&p.c));
            }
        }
    }

    #[test]
    fn event_frequencies_match_probabilities() {
        // A single processor with one long phase: empirical generate rate
        // should approach g(1 − c) + g·c/2.
        let cfg = PhaseConfig {
            g: (0.8, 0.8),
            c: (0.4, 0.4),
            len: (10_000, 10_000),
        };
        let mut wl = PhaseWorkload::new(1, 10_000, cfg, 7);
        let mut gen = 0usize;
        let mut con = 0usize;
        let mut out = Vec::new();
        for t in 0..10_000 {
            wl.events_at(t, &mut out);
            match out[0] {
                LoadEvent::Generate => gen += 1,
                LoadEvent::Consume => con += 1,
                LoadEvent::Idle => {}
            }
        }
        let g_rate = gen as f64 / 10_000.0;
        let c_rate = con as f64 / 10_000.0;
        assert!(
            (g_rate - (0.8 * 0.6 + 0.8 * 0.4 * 0.5)).abs() < 0.03,
            "gen {g_rate}"
        );
        assert!(
            (c_rate - (0.4 * 0.2 + 0.8 * 0.4 * 0.5)).abs() < 0.03,
            "con {c_rate}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let collect = |seed| {
            let mut wl = PhaseWorkload::new(4, 100, PhaseConfig::paper_section7(), seed);
            let mut all = Vec::new();
            let mut out = Vec::new();
            for t in 0..100 {
                wl.events_at(t, &mut out);
                all.push(out.clone());
            }
            all
        };
        assert_eq!(collect(5), collect(5));
        assert_ne!(collect(5), collect(6));
    }

    #[test]
    fn paper_preset_shape() {
        let wl = PhaseWorkload::paper_section7(1);
        assert_eq!(wl.n(), 64);
    }
}
