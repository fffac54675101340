//! Event-driven sparse workloads: only the processors that *do*
//! something at step `t` are visited.
//!
//! The dense [`Workload`] contract materialises an `n`-vector of
//! [`LoadEvent`]s every step even when almost every entry is
//! [`LoadEvent::Idle`].  At `n = 2²⁰` with 1 % activity that is a
//! million writes per step to say "nothing happened".  A
//! [`SparseWorkload`] instead yields just the active `(processor,
//! event)` pairs, and every pattern here schedules each processor's
//! *next* activation on a [`dlb_net::CalendarQueue`], so a step costs
//! O(active), not O(n).
//!
//! Two properties make the sparse path exchangeable with the dense one:
//!
//! 1. **Identical streams.**  [`SparseActivity`] implements both traits
//!    from one internal generator: `events_at` densifies exactly what
//!    `active_at` returns, so a dense and a sparse run over same-seed
//!    instances see the same events by construction.
//! 2. **Counter-based randomness.**  Every random decision is a
//!    [`splitmix64`](dlb_net::rng::splitmix64)-style hash of `(seed, processor, t, salt)` — there
//!    is no sequential RNG stream, so skipping an idle processor
//!    consumes no randomness and cannot shift later draws.
//!
//! Combined with [`dlb_core::LoadBalancer::step_sparse`] (whose engine
//! implementations skip exactly the `Idle` arms of the dense loop) this
//! gives bit-identical results to the dense path at a cost proportional
//! to the active fraction.

use crate::Workload;
use dlb_core::{LoadBalancer, LoadEvent, Zeroed};
use dlb_net::CalendarQueue;

/// A workload that can enumerate just its non-idle processors.
///
/// `active_at` must list events sorted by ascending processor id, with
/// at most one event per processor, and must be called with strictly
/// increasing `t` starting at 0 (same contract as
/// [`Workload::events_at`]).  A processor absent from the list is
/// `Idle` at `t`.
pub trait SparseWorkload: Workload {
    /// Fills `out` with the `(processor, event)` pairs active at step
    /// `t`, sorted by ascending processor id.
    fn active_at(&mut self, t: usize, out: &mut Vec<(usize, LoadEvent)>);
}

/// Boxed sparse workloads forward, mirroring the blanket [`Workload`]
/// impl for boxes.
impl<W: SparseWorkload + ?Sized> SparseWorkload for Box<W> {
    fn active_at(&mut self, t: usize, out: &mut Vec<(usize, LoadEvent)>) {
        (**self).active_at(t, out);
    }
}

/// Drives a balancer with a sparse workload for `steps` global time
/// steps via [`LoadBalancer::step_sparse`], invoking
/// `observe(t, active, balancer)` after each step with the events just
/// applied.
///
/// The observer takes the balancer by `&mut` (unlike [`crate::drive`])
/// so it can use the incremental [`LoadBalancer::load_summary`] — an
/// O(n) observer would put back the very scan the sparse path removed.
pub fn drive_sparse<B: LoadBalancer + ?Sized, W: SparseWorkload + ?Sized>(
    balancer: &mut B,
    workload: &mut W,
    steps: usize,
    mut observe: impl FnMut(usize, &[(usize, LoadEvent)], &mut B),
) {
    assert_eq!(
        balancer.n(),
        workload.n(),
        "balancer/workload size mismatch"
    );
    let mut active = Vec::new();
    for t in 0..steps {
        workload.active_at(t, &mut active);
        balancer.step_sparse(&active);
        observe(t, &active, balancer);
    }
}

/// Mixes `(seed, processor, t, salt)` into a uniform 64-bit value with
/// the splitmix64 finaliser.  This is the only source of randomness in
/// the sparse patterns: a pure function of its inputs, so event streams
/// are independent of which processors were visited before.
fn mix(seed: u64, proc: u64, t: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(proc.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(t.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SALT_INIT: u64 = 0xA1;
const SALT_GAP: u64 = 0xB2;
const SALT_ARRIVAL: u64 = 0xC3;
const SALT_SERVICE: u64 = 0xD4;

/// Which structurally sparse pattern a [`SparseActivity`] runs.
///
/// All gaps are in steps and must be ≥ 1; see each variant for the
/// resulting activity fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparsePattern {
    /// Sparse phase model: a processor wakes, runs a work phase of
    /// `work` consecutive active steps (generating for the first half,
    /// consuming for the rest), then sleeps for a gap drawn uniformly
    /// from `gap.0..=gap.1`.  Activity fraction ≈
    /// `work / (work + mean gap)`.
    Phase { work: u32, gap: (u32, u32) },
    /// Hot-spot: processor `(t / period) % n` generates every step (the
    /// spot moves every `period` steps); every processor additionally
    /// consumes at random gaps of mean ≈ `consumer_gap`, draining what
    /// the spot injects.
    Hotspot { period: u32, consumer_gap: u32 },
    /// Bursty: time is cut into cycles of `burst` hot steps followed by
    /// `quiet` cold ones.  A processor active inside the burst window
    /// generates and stays active every step until the window closes;
    /// outside it consumes and sleeps for a gap drawn from
    /// `1..=quiet_gap`.
    Bursty {
        burst: u32,
        quiet: u32,
        quiet_gap: u32,
    },
    /// Service arrivals: each processor alternates a job arrival
    /// (generate, then a service time drawn from `1..=service_gap`)
    /// with a completion (consume, then an inter-arrival gap drawn from
    /// `1..=arrival_gap`).
    Arrivals { arrival_gap: u32, service_gap: u32 },
}

impl SparsePattern {
    /// Validates the pattern parameters (all gaps ≥ 1, ordered ranges,
    /// positive lengths).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SparsePattern::Phase { work, gap } => {
                if work == 0 {
                    return Err("phase work length must be ≥ 1".into());
                }
                if gap.0 == 0 || gap.0 > gap.1 {
                    return Err(format!("phase gap range {gap:?} invalid"));
                }
            }
            SparsePattern::Hotspot {
                period,
                consumer_gap,
            } => {
                if period == 0 {
                    return Err("hotspot period must be ≥ 1".into());
                }
                if consumer_gap == 0 {
                    return Err("hotspot consumer gap must be ≥ 1".into());
                }
            }
            SparsePattern::Bursty {
                burst,
                quiet,
                quiet_gap,
            } => {
                if burst == 0 || quiet == 0 {
                    return Err("bursty burst/quiet lengths must be ≥ 1".into());
                }
                if quiet_gap == 0 {
                    return Err("bursty quiet gap must be ≥ 1".into());
                }
            }
            SparsePattern::Arrivals {
                arrival_gap,
                service_gap,
            } => {
                if arrival_gap == 0 || service_gap == 0 {
                    return Err("arrival/service gaps must be ≥ 1".into());
                }
            }
        }
        Ok(())
    }
}

/// An event-driven workload engine over one [`SparsePattern`].
///
/// Each processor has exactly one pending activation on an internal
/// [`CalendarQueue`]; a step pops the due processors, computes their
/// events (pure counter-RNG, no sequential state), reschedules them and
/// returns the sorted active list.  Stepping is O(active), independent
/// of `n`.
pub struct SparseActivity {
    n: usize,
    seed: u64,
    pattern: SparsePattern,
    queue: CalendarQueue<u32>,
    /// Per-processor pattern state: remaining phase steps (`Phase`) or
    /// arrival/service parity (`Arrivals`); unused by the other kinds.
    state: Zeroed<u32>,
    /// Next step the driver must ask for (strictly-increasing contract).
    next_t: u64,
    /// Reused by `events_at` to densify the active list.
    scratch: Vec<(usize, LoadEvent)>,
    /// Reused by `collect_active` for the ids due at a step.
    due: Vec<u32>,
}

impl SparseActivity {
    /// A sparse workload over `n` processors.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`, `n ≥ 2³²` (the queue holds `u32` ids) or
    /// the pattern fails [`SparsePattern::validate`].
    pub fn new(n: usize, pattern: SparsePattern, seed: u64) -> Self {
        assert!(n > 0, "need at least one processor");
        let ids = u32::try_from(n).expect("fewer than 2³² processors: the queue holds u32 ids");
        if let Err(e) = pattern.validate() {
            panic!("invalid sparse pattern: {e}");
        }
        let mut queue = CalendarQueue::with_capacity(1024);
        // Stagger initial activations across one typical gap so the
        // steady-state activity fraction holds from step 0 instead of
        // every processor firing at once.
        let spread = match pattern {
            SparsePattern::Phase { gap, .. } => u64::from(gap.1) + 1,
            SparsePattern::Hotspot { consumer_gap, .. } => 2 * u64::from(consumer_gap),
            SparsePattern::Bursty { burst, quiet, .. } => u64::from(burst) + u64::from(quiet),
            SparsePattern::Arrivals { arrival_gap, .. } => u64::from(arrival_gap) + 1,
        };
        // About n / spread first activations land on each tick; four
        // standard deviations over that holds the fullest of them.
        let per_tick = n / usize::try_from(spread).unwrap_or(usize::MAX);
        queue.reserve_ticks(0..spread, per_tick + 4 * per_tick.isqrt() + 8);
        for i in 0..ids {
            let t0 = mix(seed, u64::from(i), 0, SALT_INIT) % spread;
            queue.push(t0, i);
        }
        SparseActivity {
            n,
            seed,
            pattern,
            queue,
            state: Zeroed::new(n),
            next_t: 0,
            scratch: Vec::new(),
            due: Vec::new(),
        }
    }

    /// Pops every processor due at `t`, computes its event, reschedules
    /// it and leaves `out` sorted by ascending processor id.
    ///
    /// The due ids are sorted *before* they fire, so a step's pushes go
    /// in ascending id order and every bucket is a concatenation of
    /// ascending runs: the stable sort is a run merge, and `fire` walks
    /// `state` (and the caller the records behind `out`) in address
    /// order.  `fire` depends only on `(seed, i, t, state[i])` and each
    /// processor is due at most once, so `out` is the list that firing
    /// in pop order and sorting afterwards gives (the test oracle).
    fn collect_active(&mut self, t: usize, out: &mut Vec<(usize, LoadEvent)>) {
        let t = self.advance_to(t);
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        while let Some((_, proc)) = self.queue.pop_due(t) {
            due.push(proc);
        }
        due.sort();
        out.clear();
        for &proc in &due {
            let i = proc as usize;
            let (event, gap) = self.fire(i, t);
            out.push((i, event));
            self.queue.push(t + gap, proc);
        }
        self.due = due;
        self.overlay_hotspot(t, out);
    }

    /// Checks the strictly-increasing contract and moves past `t`.
    fn advance_to(&mut self, t: usize) -> u64 {
        let t = t as u64;
        assert!(
            t >= self.next_t,
            "sparse workload must be driven with strictly increasing t"
        );
        self.next_t = t + 1;
        t
    }

    /// Sets the hot spot of step `t` generating in the sorted `out`.
    fn overlay_hotspot(&self, t: u64, out: &mut Vec<(usize, LoadEvent)>) {
        if let SparsePattern::Hotspot { period, .. } = self.pattern {
            // The hot spot is a function of time, not of the queue: it
            // generates every step on top of its consumer schedule.
            // The remainder is below `n`, a `usize`.
            #[allow(clippy::cast_possible_truncation)]
            let h = (t / u64::from(period) % self.n as u64) as usize;
            match out.binary_search_by_key(&h, |&(i, _)| i) {
                Ok(pos) => out[pos].1 = LoadEvent::Generate,
                Err(pos) => out.insert(pos, (h, LoadEvent::Generate)),
            }
        }
    }

    /// One activation of processor `i` at step `t`: its event and the
    /// gap until its next activation.
    fn fire(&mut self, i: usize, t: u64) -> (LoadEvent, u64) {
        let p = i as u64;
        match self.pattern {
            SparsePattern::Phase { work, gap } => {
                if self.state[i] == 0 {
                    self.state[i] = work;
                }
                // Position inside the phase: generate the first half,
                // consume the tail, so a phase is load-neutral.
                let pos = work - self.state[i];
                let event = if pos < work.div_ceil(2) {
                    LoadEvent::Generate
                } else {
                    LoadEvent::Consume
                };
                self.state[i] -= 1;
                let next = if self.state[i] == 0 {
                    let span = u64::from(gap.1 - gap.0) + 1;
                    u64::from(gap.0) + mix(self.seed, p, t, SALT_GAP) % span
                } else {
                    1
                };
                (event, next)
            }
            SparsePattern::Hotspot { consumer_gap, .. } => {
                let gap = 1 + mix(self.seed, p, t, SALT_GAP) % (2 * u64::from(consumer_gap));
                (LoadEvent::Consume, gap)
            }
            SparsePattern::Bursty {
                burst,
                quiet,
                quiet_gap,
            } => {
                let cycle = u64::from(burst) + u64::from(quiet);
                if t % cycle < u64::from(burst) {
                    (LoadEvent::Generate, 1)
                } else {
                    let gap = 1 + mix(self.seed, p, t, SALT_GAP) % u64::from(quiet_gap);
                    (LoadEvent::Consume, gap)
                }
            }
            SparsePattern::Arrivals {
                arrival_gap,
                service_gap,
            } => {
                if self.state[i] == 0 {
                    // Arrival: a job lands, service completes later.
                    self.state[i] = 1;
                    let gap = 1 + mix(self.seed, p, t, SALT_SERVICE) % u64::from(service_gap);
                    (LoadEvent::Generate, gap)
                } else {
                    // Completion: consume, next arrival later.
                    self.state[i] = 0;
                    let gap = 1 + mix(self.seed, p, t, SALT_ARRIVAL) % u64::from(arrival_gap);
                    (LoadEvent::Consume, gap)
                }
            }
        }
    }
}

impl Workload for SparseActivity {
    fn n(&self) -> usize {
        self.n
    }

    /// Densifies the exact sparse stream — a dense driver sees the same
    /// events as a sparse one by construction.
    fn events_at(&mut self, t: usize, out: &mut Vec<LoadEvent>) {
        let mut active = std::mem::take(&mut self.scratch);
        self.collect_active(t, &mut active);
        out.clear();
        out.resize(self.n, LoadEvent::Idle);
        for &(i, ev) in &active {
            out[i] = ev;
        }
        self.scratch = active;
    }
}

impl SparseWorkload for SparseActivity {
    fn active_at(&mut self, t: usize, out: &mut Vec<(usize, LoadEvent)>) {
        self.collect_active(t, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{Params, SimpleCluster};
    use proptest::prelude::*;

    impl SparseActivity {
        /// `collect_active` as it was before the due ids were sorted
        /// ahead of firing: fire and reschedule in pop order, then sort.
        fn collect_active_oracle(&mut self, t: usize, out: &mut Vec<(usize, LoadEvent)>) {
            let t = self.advance_to(t);
            out.clear();
            while let Some((_, proc)) = self.queue.pop_due(t) {
                let i = proc as usize;
                let (event, gap) = self.fire(i, t);
                out.push((i, event));
                self.queue.push(t + gap, proc);
            }
            // The queue pops ties in push order, not processor order.
            out.sort_unstable_by_key(|&(i, _)| i);
            self.overlay_hotspot(t, out);
        }

        /// Empties the queue: every pending `(step, id)`, sorted.
        fn drain_pending(&mut self) -> Vec<(u64, u32)> {
            let mut pending = Vec::with_capacity(self.queue.len());
            while let Some(entry) = self.queue.pop_due(u64::MAX) {
                pending.push(entry);
            }
            pending.sort_unstable();
            pending
        }
    }

    /// Pattern kind `kind % 4` from three drawn parameters, with gaps
    /// up to 3000 steps: past the queue's 1024-bucket window, so
    /// reschedules wrap the ring and wait in its overflow heap.
    fn pattern_of(kind: u8, a: u32, b: u32, c: u32) -> SparsePattern {
        match kind % 4 {
            0 => SparsePattern::Phase {
                work: a % 6 + 1,
                gap: (b.min(c), b.max(c)),
            },
            1 => SparsePattern::Hotspot {
                period: a % 50 + 1,
                consumer_gap: b / 2 + 1,
            },
            2 => SparsePattern::Bursty {
                burst: a % 20 + 1,
                quiet: b,
                quiet_gap: c,
            },
            _ => SparsePattern::Arrivals {
                arrival_gap: b,
                service_gap: c,
            },
        }
    }

    proptest! {
        /// Sorting the due ids before they fire changes no active list,
        /// and the queue keeps exactly one pending activation per
        /// processor, at the same step as the oracle's.
        #[test]
        fn sorted_firing_is_the_pop_order_oracle(
            n in 1..=3000usize,
            kind in any::<u8>(),
            a in any::<u32>(),
            b in 1..=3000u32,
            c in 1..=3000u32,
            seed in any::<u64>(),
            steps in 1200..=1500usize,
        ) {
            let pattern = pattern_of(kind, a, b, c);
            let mut fast = SparseActivity::new(n, pattern, seed);
            let mut oracle = SparseActivity::new(n, pattern, seed);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for t in 0..steps {
                fast.collect_active(t, &mut got);
                oracle.collect_active_oracle(t, &mut want);
                prop_assert_eq!(&got, &want, "t = {}", t);
                prop_assert_eq!(fast.queue.len(), n);
            }
            let pending = fast.drain_pending();
            let mut ids: Vec<u32> = pending.iter().map(|&(_, id)| id).collect();
            ids.sort_unstable();
            prop_assert!(ids.iter().copied().eq(0..u32::try_from(n).unwrap()));
            prop_assert_eq!(pending, oracle.drain_pending());
        }
    }

    fn all_patterns() -> Vec<(&'static str, SparsePattern)> {
        vec![
            (
                "phase",
                SparsePattern::Phase {
                    work: 4,
                    gap: (3, 9),
                },
            ),
            (
                "hotspot",
                SparsePattern::Hotspot {
                    period: 5,
                    consumer_gap: 7,
                },
            ),
            (
                "bursty",
                SparsePattern::Bursty {
                    burst: 3,
                    quiet: 17,
                    quiet_gap: 11,
                },
            ),
            (
                "arrivals",
                SparsePattern::Arrivals {
                    arrival_gap: 9,
                    service_gap: 4,
                },
            ),
        ]
    }

    #[test]
    fn sparse_and_dense_streams_are_identical() {
        for (name, pattern) in all_patterns() {
            let n = 64;
            let mut dense = SparseActivity::new(n, pattern, 42);
            let mut sparse = SparseActivity::new(n, pattern, 42);
            let mut events = Vec::new();
            let mut active = Vec::new();
            for t in 0..300 {
                dense.events_at(t, &mut events);
                sparse.active_at(t, &mut active);
                // Sorted, unique processor ids.
                for w in active.windows(2) {
                    assert!(w[0].0 < w[1].0, "{name}: unsorted or duplicate at t={t}");
                }
                let mut densified = vec![LoadEvent::Idle; n];
                for &(i, ev) in &active {
                    assert!(!matches!(ev, LoadEvent::Idle), "{name}: idle listed");
                    densified[i] = ev;
                }
                assert_eq!(events, densified, "{name}: streams diverge at t={t}");
            }
        }
    }

    #[test]
    fn drive_sparse_matches_drive_bit_for_bit() {
        for (name, pattern) in all_patterns() {
            let n = 32;
            let params = Params::paper_section7(n);
            let mut a = SimpleCluster::new(params, 7);
            let mut b = SimpleCluster::new(params, 7);
            let mut dense = SparseActivity::new(n, pattern, 99);
            let mut sparse = SparseActivity::new(n, pattern, 99);
            crate::drive(&mut a, &mut dense, 400, |_, _| {});
            drive_sparse(&mut b, &mut sparse, 400, |_, _, _| {});
            assert_eq!(a.loads(), b.loads(), "{name}: loads diverge");
            assert_eq!(a.metrics(), b.metrics(), "{name}: metrics diverge");
        }
    }

    #[test]
    fn activity_fraction_tracks_the_gap() {
        let n = 4096;
        let frac = |gap: (u32, u32)| {
            let mut w = SparseActivity::new(n, SparsePattern::Phase { work: 1, gap }, 5);
            let mut active = Vec::new();
            let steps = 400;
            let mut total = 0usize;
            for t in 0..steps {
                w.active_at(t, &mut active);
                total += active.len();
            }
            total as f64 / (steps * n) as f64
        };
        let one_percent = frac((50, 150));
        let tenth_percent = frac((500, 1500));
        assert!(
            (0.005..0.02).contains(&one_percent),
            "1% target off: {one_percent}"
        );
        assert!(
            (0.0005..0.002).contains(&tenth_percent),
            "0.1% target off: {tenth_percent}"
        );
    }

    #[test]
    fn hotspot_generates_every_step() {
        let n = 16;
        let period = 5u32;
        let mut w = SparseActivity::new(
            n,
            SparsePattern::Hotspot {
                period,
                consumer_gap: 6,
            },
            3,
        );
        let mut active = Vec::new();
        for t in 0..120 {
            w.active_at(t, &mut active);
            let h = (t / period as usize) % n;
            let hit = active
                .iter()
                .find(|&&(i, _)| i == h)
                .expect("hot spot missing");
            assert_eq!(
                hit.1,
                LoadEvent::Generate,
                "hot spot not generating at t={t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rewinding_time_panics() {
        let mut w = SparseActivity::new(
            8,
            SparsePattern::Arrivals {
                arrival_gap: 3,
                service_gap: 2,
            },
            1,
        );
        let mut active = Vec::new();
        w.active_at(5, &mut active);
        w.active_at(5, &mut active);
    }

    #[test]
    #[should_panic(expected = "invalid sparse pattern")]
    fn zero_gap_rejected() {
        SparseActivity::new(
            8,
            SparsePattern::Phase {
                work: 1,
                gap: (0, 4),
            },
            1,
        );
    }
}
