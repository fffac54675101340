//! Seeded, fully deterministic fault injection for the load-balancing
//! substrates.
//!
//! A [`FaultPlan`] declares *what* can go wrong — message loss,
//! duplication, latency jitter, processor crashes with or without load
//! loss, recovery, and topology-aware link cuts (partitions) — and a
//! [`FaultInjector`] turns the plan into a deterministic sequence of
//! per-message [`MessageFate`] decisions driven by one seeded ChaCha
//! stream.  The same plan and the same call sequence always produce the
//! same faults, so every failure an experiment observes is reproducible
//! from `(seed, plan)` alone.
//!
//! Two substrates consume this crate:
//!
//! * `dlb-net::desim` routes every message through
//!   [`FaultInjector::on_send`] and applies crash windows during its
//!   event loop;
//! * the synchronous engines take a per-step crash mask from
//!   [`MaskCursor`], which [`FaultInjector::mask_at`] specifies.
//!
//! Transfers (messages that carry load) are never duplicated — that
//! would mint packets out of thin air — and a partition *delays* them
//! until the cut heals instead of dropping them, unless the plan's
//! `transfer_loss` explicitly says transfers may die.  Lost transfers
//! must be accounted by the consumer (the desim tracks them in its
//! `lost` ledger so conservation stays checkable).

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// What happens to a crashed processor's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashMode {
    /// The load held at crash time is destroyed (fail-stop with state
    /// loss).  Consumers account it in their `lost` ledger.
    #[default]
    Lost,
    /// The load is frozen in place: inert while the processor is down
    /// and available again after recovery.
    Frozen,
}

dlb_json::codec! { enum CrashMode as "crash mode" { "lost" => Lost, "frozen" => Frozen } }

/// One scheduled processor crash (and optional recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The processor that crashes.
    pub proc: usize,
    /// Time (inclusive) at which the processor goes down.
    pub at: u64,
    /// Time at which it rejoins (`None` = never).  Must be `> at`.
    pub recover_at: Option<u64>,
}

dlb_json::codec! { struct CrashEvent { proc: req, at: req, recover_at: or(None) } }

/// One scheduled network partition: while `from <= now < until` every
/// message between `group` and its complement is cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionEvent {
    /// First time unit of the cut (inclusive).
    pub from: u64,
    /// First time unit after the cut (exclusive) — the heal time.
    pub until: u64,
    /// One side of the cut; the other side is everyone else.
    pub group: Vec<usize>,
}

impl PartitionEvent {
    /// Whether the cut is active at `now`.
    pub(crate) fn active(&self, now: u64) -> bool {
        self.from <= now && now < self.until
    }

    /// Whether the link `a — b` crosses the cut.
    pub(crate) fn cuts(&self, a: usize, b: usize) -> bool {
        self.group.contains(&a) != self.group.contains(&b)
    }
}

dlb_json::codec! { struct PartitionEvent { from: req, until: req, group: req } }

/// Largest accepted [`FaultPlan::jitter`].  A substrate adds the drawn
/// jitter to its own clock and latency; under this bound (and the
/// substrate's bound on its latency) that sum cannot wrap.
pub const MAX_JITTER: u64 = 1 << 32;

/// A complete declarative fault schedule.  [`FaultPlan::default`] is
/// benign (injects nothing); every field can be set independently.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault stream (independent of the algorithm's seed).
    pub seed: u64,
    /// Probability that a control message is dropped.
    pub loss: f64,
    /// Probability that a load-carrying transfer is dropped (the load is
    /// destroyed; the consumer must ledger it).
    pub transfer_loss: f64,
    /// Probability that a control message is delivered twice.
    pub duplication: f64,
    /// Maximum extra latency added to any delivered message (uniform in
    /// `0..=jitter`, in the substrate's time units); at most
    /// [`MAX_JITTER`].
    pub jitter: u64,
    /// What happens to a crashed processor's load.
    pub crash_mode: CrashMode,
    /// Scheduled crashes.
    pub crashes: Vec<CrashEvent>,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            loss: 0.0,
            transfer_loss: 0.0,
            duplication: 0.0,
            jitter: 0,
            crash_mode: CrashMode::Lost,
            crashes: Vec::new(),
            partitions: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that injects no faults at all.
    pub fn reliable() -> Self {
        FaultPlan::default()
    }

    /// Validates the plan against a network of `n` processors.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let prob = |name: &str, p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("{name} = {p} must lie in [0, 1]"))
            }
        };
        prob("loss", self.loss)?;
        prob("transfer_loss", self.transfer_loss)?;
        prob("duplication", self.duplication)?;
        if self.jitter > MAX_JITTER {
            return Err(format!(
                "jitter = {} must be at most {MAX_JITTER}",
                self.jitter
            ));
        }
        for (k, c) in self.crashes.iter().enumerate() {
            if c.proc >= n {
                return Err(format!(
                    "crash #{k}: proc {} out of range (n = {n})",
                    c.proc
                ));
            }
            if let Some(r) = c.recover_at {
                if r <= c.at {
                    return Err(format!("crash #{k}: recover_at {r} must be > at {}", c.at));
                }
            }
        }
        for (k, p) in self.partitions.iter().enumerate() {
            if p.from >= p.until {
                return Err(format!(
                    "partition #{k}: from {} must be < until {}",
                    p.from, p.until
                ));
            }
            if p.group.is_empty() {
                return Err(format!("partition #{k}: group must not be empty"));
            }
            if let Some(&bad) = p.group.iter().find(|&&m| m >= n) {
                return Err(format!(
                    "partition #{k}: member {bad} out of range (n = {n})"
                ));
            }
        }
        Ok(())
    }
}

dlb_json::codec! { struct FaultPlan {
    seed: or(0),
    loss: or(0.0),
    transfer_loss: or(0.0),
    duplication: or(0.0),
    jitter: or(0),
    crash_mode: or(CrashMode::Lost),
    crashes: or(Vec::new()),
    partitions: or(Vec::new()),
} }

/// The kind of message being sent, as far as faults care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageClass {
    /// Protocol control traffic (requests, replies, orders): safe to
    /// drop or duplicate — the protocol must recover.
    Control,
    /// A load-carrying transfer: never duplicated; dropped only under
    /// `transfer_loss`, and delayed (not dropped) by partitions.
    Transfer,
}

/// The injector's verdict on one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Deliver, with `extra_delay` added to the nominal latency;
    /// `duplicate` asks the sender to enqueue a second copy.
    Deliver {
        /// Extra latency on top of the substrate's nominal latency.
        extra_delay: u64,
        /// Deliver a second copy (control messages only).
        duplicate: bool,
    },
    /// The message vanishes.
    Drop,
}

impl MessageFate {
    #[cfg(test)]
    /// The fate of a message on a fault-free network.
    pub(crate) const CLEAN: MessageFate = MessageFate::Deliver {
        extra_delay: 0,
        duplicate: false,
    };
}

/// Counters of everything the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Control messages dropped by random loss.
    pub dropped_control: u64,
    /// Transfers dropped by random loss.
    pub dropped_transfers: u64,
    /// Control messages duplicated.
    pub duplicated: u64,
    /// Messages given non-zero extra latency (jitter or partition hold).
    pub delayed: u64,
    /// Control messages cut by an active partition.
    pub partition_cuts: u64,
}

/// Executes a [`FaultPlan`] deterministically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    n: usize,
    rng: ChaCha8Rng,
    stats: FaultStats,
    sink: Option<dlb_trace::SharedSink>,
}

impl FaultInjector {
    /// Builds an injector for a network of `n` processors.
    ///
    /// Fails if the plan does not [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan, n: usize) -> Result<Self, String> {
        plan.validate(n)?;
        let rng = ChaCha8Rng::seed_from_u64(plan.seed);
        Ok(FaultInjector {
            plan,
            n,
            rng,
            stats: FaultStats::default(),
            sink: None,
        })
    }

    /// Attaches a trace sink; every message-level fault the injector
    /// fires is then emitted as a `FaultInjected` event (crash windows
    /// are emitted by the substrate that applies them, which knows the
    /// logical clock the crash lands on).
    pub fn set_trace_sink(&mut self, sink: dlb_trace::SharedSink) {
        self.sink = Some(sink);
    }

    fn emit_fault(&self, now: u64, proc: usize, kind: &'static str) {
        if let Some(sink) = &self.sink {
            if sink.enabled() {
                sink.record(&dlb_trace::TraceEvent::FaultInjected {
                    step: now,
                    proc: proc as u64,
                    kind: kind.into(),
                });
            }
        }
    }

    /// Network size the injector was built for.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The configured crash mode.
    pub fn crash_mode(&self) -> CrashMode {
        self.plan.crash_mode
    }

    /// The scheduled crashes (consumers that need recovery times scan
    /// this directly).
    pub fn crashes(&self) -> &[CrashEvent] {
        &self.plan.crashes
    }

    /// Whether processor `p` is down at time `now`.
    pub(crate) fn is_down(&self, now: u64, p: usize) -> bool {
        self.plan
            .crashes
            .iter()
            .any(|c| c.proc == p && c.at <= now && c.recover_at.is_none_or(|r| now < r))
    }

    /// Per-processor crash mask at time `now` (`true` = down), for the
    /// synchronous engines' `step_masked`.
    pub fn mask_at(&self, now: u64) -> Vec<bool> {
        (0..self.n).map(|p| self.is_down(now, p)).collect()
    }

    /// If the link `from — to` crosses an active partition at `now`,
    /// returns the latest heal time among the cutting partitions.
    pub(crate) fn cut_until(&self, now: u64, from: usize, to: usize) -> Option<u64> {
        self.plan
            .partitions
            .iter()
            .filter(|p| p.active(now) && p.cuts(from, to))
            .map(|p| p.until)
            .max()
    }

    fn jitter_draw(&mut self) -> u64 {
        if self.plan.jitter > 0 {
            self.rng.gen_range(0..=self.plan.jitter)
        } else {
            0
        }
    }

    /// Decides the fate of one message.  Consumes randomness, so the
    /// caller must invoke it in a deterministic order.
    pub fn on_send(
        &mut self,
        now: u64,
        from: usize,
        to: usize,
        class: MessageClass,
    ) -> MessageFate {
        // Partitions first: a cut link drops control outright and holds
        // transfers (conserving) until the cut heals.
        if let Some(heal) = self.cut_until(now, from, to) {
            match class {
                MessageClass::Control => {
                    self.stats.partition_cuts += 1;
                    self.emit_fault(now, to, "partition");
                    return MessageFate::Drop;
                }
                MessageClass::Transfer => {
                    // Saturating: `until = u64::MAX` is a legitimate
                    // "never heals".
                    let extra = heal.saturating_sub(now).saturating_add(self.jitter_draw());
                    self.stats.delayed += 1;
                    return MessageFate::Deliver {
                        extra_delay: extra,
                        duplicate: false,
                    };
                }
            }
        }
        let loss = match class {
            MessageClass::Control => self.plan.loss,
            MessageClass::Transfer => self.plan.transfer_loss,
        };
        if loss > 0.0 && self.rng.gen_bool(loss) {
            match class {
                MessageClass::Control => {
                    self.stats.dropped_control += 1;
                    self.emit_fault(now, to, "loss");
                }
                MessageClass::Transfer => {
                    self.stats.dropped_transfers += 1;
                    self.emit_fault(now, to, "transfer_loss");
                }
            }
            return MessageFate::Drop;
        }
        let duplicate = class == MessageClass::Control
            && self.plan.duplication > 0.0
            && self.rng.gen_bool(self.plan.duplication);
        if duplicate {
            self.stats.duplicated += 1;
            self.emit_fault(now, to, "duplicate");
        }
        let extra_delay = self.jitter_draw();
        if extra_delay > 0 {
            self.stats.delayed += 1;
        }
        MessageFate::Deliver {
            extra_delay,
            duplicate,
        }
    }
}

/// Per-step crash masks for a synchronous run, patched only where a
/// crash or rejoin fires: [`FaultInjector::mask_at`] scans every crash
/// for every processor and allocates, which would swamp an O(active)
/// sparse step if called every step, or even at every crash at n = 2²⁰.
pub struct MaskCursor<'a> {
    injector: &'a FaultInjector,
    /// Every time a processor goes down or comes back up, with the
    /// processor, sorted by time.
    changes: Vec<(u64, usize)>,
    /// Changes already applied to `mask`.
    next: usize,
    mask: Vec<bool>,
}

impl<'a> MaskCursor<'a> {
    /// A cursor over `injector`'s crash schedule, positioned before time 0.
    pub fn new(injector: &'a FaultInjector) -> Self {
        let mut changes: Vec<(u64, usize)> = injector
            .crashes()
            .iter()
            .flat_map(|c| [Some(c.at), c.recover_at].map(|t| t.map(|t| (t, c.proc))))
            .flatten()
            .collect();
        changes.sort_unstable();
        MaskCursor {
            injector,
            changes,
            next: 0,
            mask: vec![false; injector.n()],
        }
    }

    /// The mask at time `t`; must be queried with non-decreasing `t`.
    /// Only a processor a change names can differ from the mask before
    /// it, so each crossed change re-evaluates just its processor.
    pub fn at(&mut self, t: u64) -> &[bool] {
        while let Some(&(at, p)) = self.changes.get(self.next) {
            if at > t {
                break;
            }
            self.mask[p] = self.injector.is_down(t, p);
            self.next += 1;
        }
        &self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_json::{FromJson, Json, ToJson};

    fn crash(proc: usize, at: u64, recover_at: Option<u64>) -> CrashEvent {
        CrashEvent {
            proc,
            at,
            recover_at,
        }
    }

    #[test]
    fn default_plan_is_benign_and_injects_nothing() {
        let plan = FaultPlan::reliable();
        let mut inj = FaultInjector::new(plan, 8).unwrap();
        for t in 0..500u64 {
            let fate = inj.on_send(t, (t % 8) as usize, ((t + 3) % 8) as usize, {
                if t % 2 == 0 {
                    MessageClass::Control
                } else {
                    MessageClass::Transfer
                }
            });
            assert_eq!(fate, MessageFate::CLEAN);
        }
        assert_eq!(inj.stats(), FaultStats::default());
        assert!(inj.mask_at(100).iter().all(|&d| !d));
    }

    #[test]
    fn json_round_trip_and_defaults() {
        let plan = FaultPlan {
            seed: 9,
            loss: 0.25,
            transfer_loss: 0.01,
            duplication: 0.1,
            jitter: 7,
            crash_mode: CrashMode::Frozen,
            crashes: vec![crash(2, 100, Some(300)), crash(5, 50, None)],
            partitions: vec![PartitionEvent {
                from: 10,
                until: 40,
                group: vec![0, 1],
            }],
        };
        let text = plan.to_json().render();
        let back = FaultPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan);

        let empty = FaultPlan::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(empty, FaultPlan::default());
        let err = FaultPlan::from_json(&Json::parse("3").unwrap()).unwrap_err();
        assert!(err.starts_with("expected an object"), "{err}");
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut plan = FaultPlan {
            loss: 1.5,
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());
        plan.loss = 0.0;
        plan.crashes = vec![crash(4, 0, None)];
        assert!(plan.validate(4).is_err(), "proc out of range");
        plan.crashes = vec![crash(1, 10, Some(10))];
        assert!(plan.validate(4).is_err(), "recovery not after crash");
        plan.crashes.clear();
        plan.partitions = vec![PartitionEvent {
            from: 5,
            until: 5,
            group: vec![0],
        }];
        assert!(plan.validate(4).is_err(), "empty partition window");
        plan.partitions = vec![PartitionEvent {
            from: 0,
            until: 5,
            group: vec![9],
        }];
        assert!(plan.validate(4).is_err(), "partition member out of range");
        plan.partitions = vec![PartitionEvent {
            from: 0,
            until: 5,
            group: vec![],
        }];
        assert!(plan.validate(4).is_err(), "empty group");
        plan.partitions.clear();
        plan.jitter = MAX_JITTER;
        assert!(plan.validate(4).is_ok(), "the bound itself is accepted");
        for jitter in [MAX_JITTER + 1, u64::MAX] {
            plan.jitter = jitter;
            let err = plan.validate(4).unwrap_err();
            assert!(err.contains("jitter"), "names the key: {err}");
            assert!(FaultInjector::new(plan.clone(), 4).is_err());
        }
    }

    #[test]
    fn a_partition_that_never_heals_holds_transfers_without_wrapping() {
        let plan = FaultPlan {
            jitter: 3,
            partitions: vec![PartitionEvent {
                from: 0,
                until: u64::MAX,
                group: vec![0],
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 2).unwrap();
        for now in [0, 5, 1 << 40] {
            let MessageFate::Deliver { extra_delay, .. } =
                inj.on_send(now, 0, 1, MessageClass::Transfer)
            else {
                panic!("partitions hold transfers, never drop them");
            };
            assert!(extra_delay >= u64::MAX - now, "held to the end of time");
        }
    }

    #[test]
    fn loss_rate_is_close_to_configured() {
        let plan = FaultPlan {
            seed: 1,
            loss: 0.3,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 4).unwrap();
        let drops = (0..10_000)
            .filter(|&k| inj.on_send(k, 0, 1, MessageClass::Control) == MessageFate::Drop)
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
        assert_eq!(inj.stats().dropped_control, drops as u64);
        // Transfers are untouched by control loss.
        assert_eq!(
            inj.on_send(0, 0, 1, MessageClass::Transfer),
            MessageFate::CLEAN
        );
    }

    #[test]
    fn fates_are_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 77,
            loss: 0.2,
            duplication: 0.1,
            jitter: 5,
            ..FaultPlan::default()
        };
        let run = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan, 6).unwrap();
            (0..1_000u64)
                .map(|t| {
                    inj.on_send(
                        t,
                        (t % 6) as usize,
                        ((t + 1) % 6) as usize,
                        MessageClass::Control,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(plan.clone()), run(plan.clone()));
        let other = FaultPlan { seed: 78, ..plan };
        assert_ne!(
            run(other.clone()),
            run(other.clone()).into_iter().rev().collect::<Vec<_>>()
        );
    }

    #[test]
    fn crash_windows_and_mask() {
        let plan = FaultPlan {
            crashes: vec![crash(1, 10, Some(20)), crash(3, 15, None)],
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 4).unwrap();
        assert!(!inj.is_down(9, 1));
        assert!(inj.is_down(10, 1));
        assert!(inj.is_down(19, 1));
        assert!(!inj.is_down(20, 1), "recovered");
        assert!(inj.is_down(1_000_000, 3), "never recovers");
        assert_eq!(inj.mask_at(16), vec![false, true, false, true]);
        assert_eq!(inj.mask_at(25), vec![false, false, false, true]);
    }

    proptest::proptest! {
        /// The patched cursor is the full rebuild at every tick it is
        /// asked about, ticks skipped or not, on plans where processors
        /// crash repeatedly and one crash ends on the tick another
        /// begins.
        #[test]
        fn mask_cursor_is_mask_at(
            n in 1usize..6,
            crashes in proptest::collection::vec(
                // A window of 0 ticks: the processor never recovers.
                (0usize..6, 0u64..12, 0u64..6),
                0..8,
            ),
            strides in proptest::collection::vec(1u64..4, 1..20),
        ) {
            let plan = FaultPlan {
                crashes: crashes
                    .into_iter()
                    .map(|(p, at, len)| crash(p % n, at, (len > 0).then_some(at + len)))
                    .collect(),
                ..FaultPlan::default()
            };
            let inj = FaultInjector::new(plan, n).unwrap();
            let mut cursor = MaskCursor::new(&inj);
            let mut t = 0;
            for stride in strides {
                proptest::prop_assert_eq!(cursor.at(t), &inj.mask_at(t)[..], "t = {}", t);
                t += stride;
            }
        }
    }

    #[test]
    fn partitions_cut_control_and_hold_transfers() {
        let plan = FaultPlan {
            partitions: vec![PartitionEvent {
                from: 100,
                until: 200,
                group: vec![0, 1],
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 4).unwrap();
        // Outside the window: clean.
        assert_eq!(
            inj.on_send(50, 0, 2, MessageClass::Control),
            MessageFate::CLEAN
        );
        assert_eq!(
            inj.on_send(200, 0, 2, MessageClass::Control),
            MessageFate::CLEAN
        );
        // Inside the window, across the cut: control dies …
        assert_eq!(
            inj.on_send(150, 0, 2, MessageClass::Control),
            MessageFate::Drop
        );
        // … transfers are held until the heal time.
        assert_eq!(
            inj.on_send(150, 2, 1, MessageClass::Transfer),
            MessageFate::Deliver {
                extra_delay: 50,
                duplicate: false
            }
        );
        // Inside the window, same side: clean.
        assert_eq!(
            inj.on_send(150, 0, 1, MessageClass::Control),
            MessageFate::CLEAN
        );
        assert_eq!(
            inj.on_send(150, 2, 3, MessageClass::Control),
            MessageFate::CLEAN
        );
        assert_eq!(inj.stats().partition_cuts, 1);
        assert_eq!(inj.stats().delayed, 1);
    }

    #[test]
    fn duplication_only_touches_control() {
        let plan = FaultPlan {
            seed: 3,
            duplication: 1.0,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 2).unwrap();
        assert_eq!(
            inj.on_send(0, 0, 1, MessageClass::Control),
            MessageFate::Deliver {
                extra_delay: 0,
                duplicate: true
            }
        );
        assert_eq!(
            inj.on_send(0, 0, 1, MessageClass::Transfer),
            MessageFate::CLEAN
        );
        assert_eq!(inj.stats().duplicated, 1);
    }
}
