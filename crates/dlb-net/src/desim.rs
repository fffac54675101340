//! Asynchronous discrete-event simulation of the balancer as a real
//! message protocol.
//!
//! §2 assumes a balancing operation completes atomically in constant
//! time.  On a real machine it is a message exchange: the initiator
//! locks itself, asks `δ` partners for their load, partners grant or
//! refuse (they may be engaged in another operation), the initiator
//! computes the even shares and orders transfers, packets travel with
//! latency, and everyone unlocks.  This module implements that protocol
//! over an event queue with a configurable per-message `latency`, so the
//! experiments can measure how the balance quality degrades as the
//! network gets slower relative to the load dynamics — the gap between
//! the paper's model and a real machine.
//!
//! Protocol (per balancing attempt):
//!
//! 1. trigger → initiator locks itself, sends `LoadRequest` to `δ`
//!    random partners;
//! 2. each partner replies `LoadReply { granted, load }`; it grants iff
//!    it is not itself locked (and locks itself for the op);
//! 3. when all replies are in, the initiator computes ±1 shares over
//!    itself and the granting partners and sends each a
//!    `TransferOrder { new_share }`; partners in surplus ship the excess
//!    (`Transfer`) to the initiator, deficit partners are topped up by
//!    the initiator from the collected pool, then unlocked;
//! 4. if every partner refused, the attempt counts as *aborted*.
//!
//! # Fault model
//!
//! The protocol is hardened against a seeded [`FaultInjector`]
//! (see `dlb-faults`) that may drop or duplicate control messages, drop
//! load-carrying transfers, add latency jitter, cut links along
//! scheduled partitions, and crash processors (losing or freezing their
//! load) with optional recovery.  Recovery machinery:
//!
//! * **Reply timeout + bounded retries** — an initiator that has not
//!   heard all replies after `4·latency` re-requests the silent
//!   partners, with exponential backoff, up to [`MAX_RETRIES`] times;
//!   after that the missing replies are written off as refusals, so a
//!   lost reply never leaks the initiator's lock (abort-and-unlock).
//! * **Settle timeout** — missing surplus shipments (their
//!   `TransferOrder` was lost, or the member died) are written off.
//! * **Lock lease** — a partner that granted an operation but never
//!   heard back unlocks itself after `8·latency`.
//! * **Duplicate suppression** — replies are counted at most once per
//!   partner and a `TransferOrder` is honoured only while the member is
//!   still locked for that exact operation, so duplicated or stale
//!   control messages cannot double-ship packets or steal a lock.
//!
//! Packets in flight belong to no processor, packets pooled by an
//! initiator mid-operation belong to the operation, and faults may
//! destroy packets (dropped transfers, crashes in [`CrashMode::Lost`]);
//! every destroyed packet is moved to an explicit `lost` ledger.
//! Conservation therefore reads
//! `Σ loads + pooled + in_flight + lost = generated − consumed`, and it
//! holds between any two events, not just at quiescence (tested, and
//! property-tested against arbitrary fault plans).
//!
//! # State layout
//!
//! Per-processor state is split by how often it is read.  *Hot*, one
//! parallel array each, touched by the every-tick sweep, the per-tick
//! conservation recount and [`AsyncNetwork::loads_slice`]: `load`,
//! `l_old`, the trigger bounds `grow_at` and `shrink_below`
//! ([`Params::trigger_bounds`] of `l_old`), `pool` (packets the
//! processor's own operation has collected), `locked_for` (the
//! operation a *partner* lock is held for, `NO_OP` when none) and
//! `flags` (`LOCKED | DOWN`, one byte) — 49 bytes per processor, and
//! the sweep reads 25 of them.  The three `l_old` arrays have one
//! writer, `set_l_old`: the bounds change about once per 37 trigger
//! tests on `async_lossy`, so the sweep compares integers and never
//! evaluates a float predicate.  *Cold*, one
//! `OpState` per processor for the operation it initiates: an `active`
//! bit, the counters, and four vectors (`partners`, `replied`,
//! `granted`, `deficits`) that are cleared and refilled when an
//! operation starts and never dropped.  The handlers mutate `ops[i]`
//! where it sits; where a handler must walk one of the vectors while
//! sending (sending needs the whole network), it `mem::take`s that one
//! vector and puts it back.  With the network-owned `fired` and `shares`
//! scratch this means that once every processor has initiated an
//! operation, an operation allocates nothing (gated by
//! `tests::a_warm_operation_allocates_nothing`).
//!
//! # Two-phase tick
//!
//! [`AsyncNetwork::tick`] first applies every action and tests every
//! trigger in one pass over `actions`/`load`/`flags` and the two bound
//! arrays, collecting the processors whose trigger fired, and only then
//! starts their operations, in ascending processor order.  The pass has
//! no data-dependent branch: `up`, generate, consume and blocked are
//! booleans folded into the load and the counters arithmetically, a
//! fired index is always written to `fired[k]` and `k` advances by the
//! trigger outcome, and the pass folds min/max/total of every load (down
//! processors included) into [`AsyncNetwork::load_summary`].  An
//! operation start moves no packet, so that is the summary after the
//! tick.  This is the same run as
//! starting each operation the moment its trigger fires: an operation
//! start touches only the initiator's own flag and `OpState`, the event
//! queue, the two RNG streams and the counters — none of which another
//! processor's trigger test reads; a message sent during a tick is not
//! delivered before the next `drain_until`, even at latency 0; and the
//! sweep itself emits no trace event and draws no random number.  So
//! the order of RNG draws, of queue pushes and of trace lines is the
//! order of the one-phase tick (pinned by
//! `tests::parent_captured_pins_hold`, which fails if the second phase
//! runs in descending order).
//!
//! # Invariants
//!
//! [`AsyncNetwork::check_invariants`] ties the arrays together.  For
//! every processor `i`, derived from the handlers below:
//!
//! * `LOCKED ⇔ ops[i].active ∨ locked_for[i] ≠ NO_OP`, and never both:
//!   a processor takes a partner lock or starts an operation only while
//!   unlocked, and every unlock clears whichever of the two held it;
//! * `pool[i] ≠ 0 ⇒ ops[i].active ∧ awaiting_replies = 0`: the pool
//!   fills only after the last reply and is emptied by `finish_op`, by a
//!   crash and by a recovery (both fold it back onto the processor);
//! * `DOWN ⇒` not locked, `locked_for[i] = NO_OP`, not active,
//!   `pool[i] = 0`: a crash clears all four and a down processor handles
//!   no message and takes no action;
//! * while active: `id < next_op`, `replied ⊆ partners` without
//!   repeats, `awaiting_replies = |partners| − |replied|` (or 0, once
//!   the last retry wrote the silent partners off), `|granted| ≤
//!   |replied|`, `awaiting_transfers ≤ |granted|`, and `|deficits| ≤
//!   |granted|`.

use crate::equeue::CalendarQueue;
use crate::rng::stream;
use dlb_core::balance::{even_shares_into, sample_others_into};
use dlb_core::{LoadSummary, Metrics, Params};
use dlb_faults::{CrashMode, FaultInjector, FaultPlan, MessageClass, MessageFate};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// How often an initiator re-requests silent partners before writing
/// them off as refusals.
pub const MAX_RETRIES: u32 = 2;

/// Largest accepted [`AsyncConfig::latency`].  The longest delay the
/// protocol forms is the last reply timeout, `(4·latency) <<
/// MAX_RETRIES` — 2³⁶ at this bound, with the jitter capped at
/// [`dlb_faults::MAX_JITTER`] — so no timeout can wrap to "now".
pub const MAX_LATENCY: u64 = 1 << 32;

/// The calendar queue's window: the farthest the protocol schedules
/// ahead — the last reply timeout, `(4·latency) << MAX_RETRIES`, plus
/// one message's latency and jitter — capped at the 1024 ticks of
/// [`CalendarQueue::new`].  At latency 4 that is 71 ticks, 128 buckets:
/// a ring the drain finds warm.  Pop order does not depend on the
/// window; partition holds and the crash schedule wait in its overflow
/// heap.
fn queue_window(latency: u64, jitter: u64) -> usize {
    let farthest = ((4 * latency.max(1)) << MAX_RETRIES)
        .saturating_add(latency)
        .saturating_add(jitter);
    usize::try_from(farthest.min(1024)).expect("at most 1024")
}

/// Configuration of the asynchronous network.
#[derive(Debug, Clone, Copy)]
pub struct AsyncConfig {
    /// Algorithm parameters (n, δ, f; the borrow machinery is not used —
    /// this simulates the practical variant).
    pub params: Params,
    /// Message latency in time units (a generate/consume tick is 1); at
    /// most [`MAX_LATENCY`].
    pub latency: u64,
    /// Master seed.
    pub seed: u64,
    /// Probability that a *control* message (request/reply/order) is
    /// lost.  Transfers are never dropped by this knob (use a
    /// [`FaultPlan`] with `transfer_loss` for that); lost control
    /// messages are recovered by the initiator timeout.
    pub control_loss: f64,
}

impl AsyncConfig {
    /// A reliable network (no control-message loss).
    pub fn reliable(params: Params, latency: u64, seed: u64) -> Self {
        AsyncConfig {
            params,
            latency,
            seed,
            control_loss: 0.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    /// Initiator asks a partner to join a balancing operation.
    LoadRequest { op: u64 },
    /// Partner's answer (its load is meaningful only when granted).
    LoadReply { op: u64, granted: bool, load: u64 },
    /// Initiator tells a member its target share.
    TransferOrder { op: u64, new_share: u64 },
    /// `amount` packets moving between processors.
    Transfer {
        op: u64,
        amount: u64,
        final_for_sender: bool,
    },
    /// Initiator-side timeout: silent partners are re-requested (bounded
    /// retries with backoff) and finally written off as refusals.
    ReplyTimeout { op: u64 },
    /// Initiator-side timeout for the transfer phase: missing surplus
    /// shipments are written off (their `TransferOrder` was lost; the
    /// member never moved any packets).
    SettleTimeout { op: u64 },
    /// Partner-side lock lease: a partner that granted an operation but
    /// never heard back unlocks itself.
    LeaseExpiry { op: u64 },
    /// Fault schedule: the processor goes down.
    Crash,
    /// Fault schedule: the processor rejoins.
    Recover,
}

/// A queued message or timer.  The calendar queue keeps the delivery
/// time and stamps FIFO order itself, so the event carries neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    to: usize,
    from: usize,
    payload: Payload,
}

/// `flags` bit: participating in some operation (as initiator or as a
/// granting partner).
const LOCKED: u8 = 1;
/// `flags` bit: crashed (fault injection) — takes no actions, handles no
/// messages.
const DOWN: u8 = 2;
/// `locked_for` value of a processor holding no partner lock;
/// `next_op` counts up from 0 and cannot reach it.
const NO_OP: u64 = u64::MAX;

/// The operation a processor initiates.  One per processor for the life
/// of the network: starting an operation refills the record in place.
#[derive(Debug, Default)]
struct OpState {
    /// Whether an operation is running; everything below is stale
    /// otherwise.
    active: bool,
    /// Operation id (guards against stale messages).
    id: u64,
    /// All partners the operation requested.
    partners: Vec<usize>,
    /// Partners whose reply has been counted (duplicate suppression).
    replied: Vec<usize>,
    /// Members that granted (initiator excluded).
    granted: Vec<(usize, u64)>,
    /// Replies still outstanding.
    awaiting_replies: usize,
    /// Surplus transfers the initiator still waits for.
    awaiting_transfers: usize,
    /// Deficit members to top up once the pool is complete.
    deficits: Vec<(usize, u64)>,
    /// The initiator's own target share.
    own_share: u64,
    /// Reply-phase retransmissions performed so far.
    attempt: u32,
}

/// Statistics of an asynchronous run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncStats {
    /// Completed balancing operations.
    pub completed_ops: u64,
    /// Attempts aborted because every partner refused.
    pub aborted_ops: u64,
    /// Messages sent.
    pub messages: u64,
    /// Packets that travelled in `Transfer` messages.
    pub packets_moved: u64,
    /// Messages dropped by failure injection (loss, partitions, dead
    /// destinations).
    pub lost_messages: u64,
    /// Operations salvaged by a timeout (reply write-off, settle
    /// write-off, lease expiry).
    pub timeout_recoveries: u64,
    /// Reply-phase retransmissions to silent partners.
    pub retries: u64,
    /// Control messages delivered twice by fault injection.
    pub duplicated_messages: u64,
    /// Processor crashes applied.
    pub crashes: u64,
    /// Processor recoveries applied.
    pub recoveries: u64,
}

impl std::ops::AddAssign for AsyncStats {
    fn add_assign(&mut self, other: AsyncStats) {
        self.completed_ops += other.completed_ops;
        self.aborted_ops += other.aborted_ops;
        self.messages += other.messages;
        self.packets_moved += other.packets_moved;
        self.lost_messages += other.lost_messages;
        self.timeout_recoveries += other.timeout_recoveries;
        self.retries += other.retries;
        self.duplicated_messages += other.duplicated_messages;
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
    }
}

/// The asynchronous network simulator (practical variant, message-level).
///
/// Per-processor state lives in parallel arrays indexed by processor
/// (module docs, "State layout").
pub struct AsyncNetwork {
    config: AsyncConfig,
    load: Vec<u64>,
    /// Written, with the two bound arrays, only by `set_l_old`.
    l_old: Vec<u64>,
    /// The grow trigger fires at a load `≥ grow_at[i]`.
    grow_at: Vec<u64>,
    /// The shrink trigger fires at a load `< shrink_below[i]`.
    shrink_below: Vec<u64>,
    /// Packets collected by the processor's own operation (from surplus
    /// members, plus its own surplus) until redistribution.
    pool: Vec<u64>,
    /// Which operation holds the lock when locked as a *partner*.
    locked_for: Vec<u64>,
    /// `LOCKED | DOWN`.
    flags: Vec<u8>,
    ops: Vec<OpState>,
    /// Scratch of [`AsyncNetwork::tick`], one slot per processor: the
    /// processors whose trigger fired, in its first `k` slots.
    fired: Vec<usize>,
    /// Scratch of the reply handler: the even shares of one operation.
    shares: Vec<u64>,
    /// Min/max/total of `load` after the last tick or quiesce.
    summary: LoadSummary,
    /// Delivery queue: a calendar queue keyed on the delivery tick, FIFO
    /// within a tick, its window sized by [`queue_window`].
    queue: CalendarQueue<Event>,
    now: u64,
    in_flight: u64,
    /// Packets destroyed by faults (dropped transfers, crashed load).
    lost: u64,
    next_op: u64,
    rng: ChaCha8Rng,
    injector: Option<FaultInjector>,
    metrics: Metrics,
    stats: AsyncStats,
    sink: Option<dlb_trace::SharedSink>,
}

impl AsyncNetwork {
    /// An empty asynchronous network with no fault injection.
    ///
    /// # Panics
    ///
    /// Panics if `config.latency` exceeds [`MAX_LATENCY`].
    pub fn new(config: AsyncConfig) -> Self {
        assert!(
            config.latency <= MAX_LATENCY,
            "latency {} exceeds {MAX_LATENCY}: the timeout arithmetic would wrap",
            config.latency
        );
        let n = config.params.n();
        let mut net = AsyncNetwork {
            config,
            load: vec![0; n],
            l_old: vec![0; n],
            grow_at: vec![0; n],
            shrink_below: vec![0; n],
            pool: vec![0; n],
            locked_for: vec![NO_OP; n],
            flags: vec![0; n],
            ops: (0..n).map(|_| OpState::default()).collect(),
            fired: vec![0; n],
            shares: Vec::with_capacity(config.params.delta() + 1),
            summary: LoadSummary {
                min: 0,
                max: 0,
                total: 0,
            },
            queue: CalendarQueue::with_capacity(queue_window(config.latency, 0)),
            now: 0,
            in_flight: 0,
            lost: 0,
            next_op: 0,
            rng: stream(config.seed, u64::MAX),
            injector: None,
            metrics: Metrics::new(),
            stats: AsyncStats::default(),
            sink: None,
        };
        for i in 0..n {
            net.set_l_old(i, 0);
        }
        net
    }

    /// Attaches a trace sink; events are stamped with simulated time.
    /// The fault injector (if any) gets a handle too, so message-level
    /// faults appear in the same trace.
    pub fn set_trace_sink(&mut self, sink: dlb_trace::SharedSink) {
        if let Some(inj) = self.injector.as_mut() {
            inj.set_trace_sink(sink.clone());
        }
        self.sink = Some(sink);
    }

    fn trace_on(&self) -> bool {
        self.sink.as_ref().is_some_and(|s| s.enabled())
    }

    fn emit(&self, event: dlb_trace::TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
    }

    /// Emits the metrics counters accrued since `before` (`None` when
    /// tracing was off) as a `StepDelta` stamped `step`.
    fn emit_step_delta(&self, before: Option<Metrics>, step: u64) {
        if let (Some(before), Some(sink)) = (&before, &self.sink) {
            dlb_core::emit_step_delta(sink, step, before, &self.metrics);
        }
    }

    /// An asynchronous network executing a [`FaultPlan`].
    ///
    /// Crash and recovery times from the plan are scheduled as events in
    /// the simulation's own queue, so they interleave deterministically
    /// with message deliveries.
    pub fn with_faults(config: AsyncConfig, plan: FaultPlan) -> Result<Self, String> {
        let jitter = plan.jitter;
        let injector = FaultInjector::new(plan, config.params.n())?;
        let mut net = AsyncNetwork::new(config);
        // The plan's jitter widens the window; the queue is still empty.
        net.queue = CalendarQueue::with_capacity(queue_window(config.latency, jitter));
        // `now` is 0, so each delay is the absolute time.
        for c in injector.crashes() {
            net.schedule_self(c.proc, c.at, Payload::Crash);
            if let Some(r) = c.recover_at {
                net.schedule_self(c.proc, r, Payload::Recover);
            }
        }
        net.injector = Some(injector);
        Ok(net)
    }

    /// Current time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Current loads (packets in flight excluded), copied out; callers
    /// that only read should borrow [`AsyncNetwork::loads_slice`].
    pub fn loads(&self) -> Vec<u64> {
        self.load.clone()
    }

    /// Current loads (packets in flight excluded), borrowed.
    pub fn loads_slice(&self) -> &[u64] {
        &self.load
    }

    /// Min/max/total of [`AsyncNetwork::loads_slice`], folded by the
    /// last tick's sweep (or recounted by [`AsyncNetwork::quiesce`]) —
    /// what a per-tick observer needs, without another pass.
    pub fn load_summary(&self) -> LoadSummary {
        self.summary
    }

    /// Packets currently inside `Transfer` messages.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Packets currently pooled by initiators mid-operation.
    pub fn pooled(&self) -> u64 {
        self.pool.iter().sum()
    }

    /// Packets destroyed by fault injection (dropped transfers, crashed
    /// load in [`CrashMode::Lost`]).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Activity counters (generate/consume/migration bookkeeping).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &AsyncStats {
        &self.stats
    }

    /// Fault-injection statistics, if a plan is active.
    pub fn fault_stats(&self) -> Option<dlb_faults::FaultStats> {
        self.injector.as_ref().map(|i| i.stats())
    }

    /// Number of processors currently locked (diagnostics/liveness tests).
    pub fn locked_count(&self) -> usize {
        self.flags.iter().filter(|&&f| f & LOCKED != 0).count()
    }

    /// Number of processors currently down.
    pub fn down_count(&self) -> usize {
        self.flags.iter().filter(|&&f| f & DOWN != 0).count()
    }

    /// Conservation check:
    /// `loads + pooled + in-flight + lost = generated − consumed`.
    /// Holds between any two events, not just at quiescence.  A recount
    /// of the real state every time — two sums over contiguous arrays —
    /// not a comparison of running counters with themselves.
    pub fn check_conservation(&self) -> Result<(), String> {
        let total: u64 = self.load.iter().sum();
        let pooled = self.pooled();
        let expect = self.metrics.generated - self.metrics.consumed;
        if total + pooled + self.in_flight + self.lost != expect {
            return Err(format!(
                "loads {total} + pooled {pooled} + in flight {} + lost {} \
                 != generated - consumed = {expect}",
                self.in_flight, self.lost
            ));
        }
        Ok(())
    }

    /// Checks the relations between the per-processor arrays listed in
    /// the module docs ("Invariants") and returns the first violation.
    /// They hold between any two events; tests call this after every
    /// tick.  Two more hold between any two calls: the trigger bounds
    /// are [`Params::trigger_bounds`] of `l_old`, and the load summary
    /// is the summary of the loads.
    pub fn check_invariants(&self) -> Result<(), String> {
        let recount = LoadSummary::from_loads(&self.load);
        if self.summary != recount {
            return Err(format!(
                "load summary {:?} is not the loads' {recount:?}",
                self.summary
            ));
        }
        for (i, st) in self.ops.iter().enumerate() {
            let locked = self.flags[i] & LOCKED != 0;
            let down = self.flags[i] & DOWN != 0;
            let partner = self.locked_for[i] != NO_OP;
            let fail = |what: &str| Err(format!("processor {i}: {what} ({st:?})"));
            let bounds = (self.grow_at[i], self.shrink_below[i]);
            if bounds != self.config.params.trigger_bounds(self.l_old[i]) {
                return fail("trigger bounds are not those of l_old");
            }
            if st.active && partner {
                return fail("both initiator and partner");
            }
            if locked != (st.active || partner) {
                return fail("LOCKED disagrees with active / locked_for");
            }
            if down && (locked || self.pool[i] != 0) {
                return fail("down but locked or pooling");
            }
            if partner && self.locked_for[i] >= self.next_op {
                return fail("locked for an operation that never started");
            }
            if !st.active {
                if self.pool[i] != 0 {
                    return fail("pool without an operation");
                }
                continue;
            }
            if st.id >= self.next_op {
                return fail("operation id from the future");
            }
            if self.pool[i] != 0 && st.awaiting_replies != 0 {
                return fail("pool filled before the last reply");
            }
            let distinct = |v: &[usize]| v.iter().enumerate().all(|(k, x)| !v[..k].contains(x));
            if !distinct(&st.replied) || !st.replied.iter().all(|p| st.partners.contains(p)) {
                return fail("replied is not a duplicate-free subset of partners");
            }
            let silent = st.partners.len() - st.replied.len();
            if st.awaiting_replies != silent && st.awaiting_replies != 0 {
                return fail("awaiting_replies is neither the silent partners nor 0");
            }
            if st.granted.len() > st.replied.len()
                || st.awaiting_transfers > st.granted.len()
                || st.deficits.len() > st.granted.len()
            {
                return fail("more granted / awaited / deficit members than replies");
            }
        }
        Ok(())
    }

    /// Advances time to `t`, delivering all messages due on the way, then
    /// applies one generate (`+1`) / consume (`−1`) / idle (`0`) tick to
    /// every processor.  Crashed processors take no actions.
    ///
    /// Two phases (module docs, "Two-phase tick"): a branch-free sweep
    /// that applies the actions, collects the fired triggers and folds
    /// the load summary, then the operation starts in ascending
    /// processor order.
    ///
    /// # Panics
    ///
    /// Panics if an up processor's action is not -1, 0 or 1.
    pub fn tick(&mut self, t: u64, actions: &[i8]) {
        assert!(t >= self.now, "time must not run backwards");
        let n = self.load.len();
        assert_eq!(actions.len(), n, "one action per processor");
        let before = self.trace_on().then_some(self.metrics);
        self.drain_until(t);
        self.now = t;
        let (mut generated, mut consumed, mut consume_blocked) = (0, 0, 0);
        let (mut min, mut max, mut total) = (u64::MAX, 0, 0);
        let mut invalid = false;
        let mut fired = std::mem::take(&mut self.fired);
        let mut k = 0;
        let load = &mut self.load[..n];
        let flags = &self.flags[..n];
        let grow_at = &self.grow_at[..n];
        let shrink_below = &self.shrink_below[..n];
        for i in 0..n {
            let (a, l) = (actions[i], load[i]);
            let up = flags[i] & DOWN == 0;
            let gen = up & (a == 1);
            let take = up & (a == -1);
            let con = take & (l > 0);
            generated += u64::from(gen);
            consumed += u64::from(con);
            consume_blocked += u64::from(take & (l == 0));
            invalid |= up & (a.unsigned_abs() > 1);
            let l = l + u64::from(gen) - u64::from(con);
            load[i] = l;
            // Only a load that moved is tested, and only while unlocked.
            let fire = (gen | con)
                & (flags[i] & LOCKED == 0)
                & ((l >= grow_at[i]) | (l < shrink_below[i]));
            fired[k] = i;
            k += usize::from(fire);
            min = min.min(l);
            max = max.max(l);
            total += l;
        }
        if invalid {
            let (other, _) = actions
                .iter()
                .zip(flags)
                .find(|&(a, f)| f & DOWN == 0 && a.unsigned_abs() > 1)
                .expect("an invalid action was seen");
            panic!("invalid action {other}; use -1, 0, 1");
        }
        self.metrics.generated += generated;
        self.metrics.consumed += consumed;
        self.metrics.consume_blocked += consume_blocked;
        self.summary = LoadSummary { min, max, total };
        for &i in &fired[..k] {
            self.start_op(i);
        }
        self.fired = fired;
        self.emit_step_delta(before, t);
    }

    /// Delivers every outstanding message (call at the end of a run).
    pub fn quiesce(&mut self) {
        let before = self.trace_on().then_some(self.metrics);
        self.drain_until(u64::MAX);
        self.summary = LoadSummary::from_loads(&self.load);
        // Settle-phase activity after the last tick still counts.
        self.emit_step_delta(before, self.now);
    }

    /// Whether any recovery machinery (timeouts, leases) is needed.
    fn faulty(&self) -> bool {
        self.config.control_loss > 0.0 || self.injector.is_some()
    }

    fn drain_until(&mut self, t: u64) {
        while let Some((time, ev)) = self.queue.pop_due(t) {
            self.now = time;
            self.handle(ev);
        }
    }

    fn send(&mut self, from: usize, to: usize, payload: Payload) {
        self.stats.messages += 1;
        self.metrics.messages += 1;
        let is_transfer = matches!(payload, Payload::Transfer { .. });
        // Legacy control-plane loss knob (kept for the latency studies):
        // control messages may be lost; transfers always survive it.
        if !is_transfer
            && self.config.control_loss > 0.0
            && self.rng.gen_bool(self.config.control_loss)
        {
            self.stats.lost_messages += 1;
            return;
        }
        // Fault plan: loss, duplication, jitter, partitions.
        let mut extra_delay = 0;
        let mut duplicate = false;
        if let Some(inj) = self.injector.as_mut() {
            let class = if is_transfer {
                MessageClass::Transfer
            } else {
                MessageClass::Control
            };
            match inj.on_send(self.now, from, to, class) {
                MessageFate::Drop => {
                    self.stats.lost_messages += 1;
                    if let Payload::Transfer { amount, .. } = payload {
                        // The packets die in transit: move them from the
                        // in-flight ledger to the lost ledger.
                        self.in_flight -= amount.min(self.in_flight);
                        self.lost += amount;
                    }
                    return;
                }
                MessageFate::Deliver {
                    extra_delay: d,
                    duplicate: dup,
                } => {
                    extra_delay = d;
                    duplicate = dup;
                }
            }
        }
        // Saturating: a transfer held by a partition that never heals
        // (`until = u64::MAX`) is due at the end of time, i.e. at
        // `quiesce`.
        let time = self
            .now
            .saturating_add(self.config.latency)
            .saturating_add(extra_delay);
        let ev = Event { to, from, payload };
        self.queue.push(time, ev);
        if duplicate {
            self.stats.duplicated_messages += 1;
            self.queue.push(time.saturating_add(1), ev);
        }
    }

    fn schedule_self(&mut self, to: usize, delay: u64, payload: Payload) {
        let from = to;
        self.queue
            .push(self.now.saturating_add(delay), Event { to, from, payload });
    }

    fn reply_timeout_delay(&self, attempt: u32) -> u64 {
        // 4 one-way latencies, doubling per retransmission.
        (4 * self.config.latency.max(1)) << attempt
    }

    /// Starts the operation of a processor whose trigger fired (it is
    /// up and unlocked): lock, pick δ partners, request their loads.
    fn start_op(&mut self, i: usize) {
        let params = &self.config.params;
        let (n, delta) = (params.n(), params.delta());
        let mut partners = std::mem::take(&mut self.ops[i].partners);
        partners.clear();
        sample_others_into(&mut self.rng, n, i, delta, &mut partners);
        if self.trace_on() {
            self.emit(dlb_trace::TraceEvent::BalanceInitiated {
                step: self.now,
                initiator: i as u64,
                partners: partners.iter().map(|&x| x as u64).collect(),
                trigger: self.load[i] as f64 / self.l_old[i].max(1) as f64,
            });
        }
        let op = self.next_op;
        self.next_op += 1;
        self.flags[i] |= LOCKED;
        let st = &mut self.ops[i];
        st.active = true;
        st.id = op;
        st.replied.clear();
        st.granted.clear();
        st.awaiting_replies = partners.len();
        st.awaiting_transfers = 0;
        st.deficits.clear();
        st.own_share = 0;
        st.attempt = 0;
        for &partner in &partners {
            self.send(i, partner, Payload::LoadRequest { op });
        }
        self.ops[i].partners = partners;
        if self.faulty() {
            // Recovery timeout for the reply phase.
            self.schedule_self(i, self.reply_timeout_delay(0), Payload::ReplyTimeout { op });
        }
    }

    fn crash_mode(&self) -> CrashMode {
        self.injector
            .as_ref()
            .map_or(CrashMode::Lost, |i| i.crash_mode())
    }

    fn handle(&mut self, ev: Event) {
        let me = ev.to;
        match ev.payload {
            Payload::Crash => {
                self.stats.crashes += 1;
                if self.trace_on() {
                    self.emit(dlb_trace::TraceEvent::FaultInjected {
                        step: self.now,
                        proc: me as u64,
                        kind: "crash".to_string(),
                    });
                }
                self.flags[me] = DOWN;
                self.locked_for[me] = NO_OP;
                // An interrupted own operation: the pooled packets fall
                // back onto the processor before the crash mode applies.
                self.ops[me].active = false;
                self.load[me] += std::mem::take(&mut self.pool[me]);
                if self.crash_mode() == CrashMode::Lost {
                    self.lost += std::mem::take(&mut self.load[me]);
                }
                // Partners this processor had locked recover via their
                // lock lease; initiators waiting on it recover via their
                // reply/settle timeouts.
            }
            Payload::Recover => {
                self.stats.recoveries += 1;
                if self.trace_on() {
                    self.emit(dlb_trace::TraceEvent::CrashRecovered {
                        step: self.now,
                        proc: me as u64,
                    });
                }
                self.flags[me] = 0;
                self.locked_for[me] = NO_OP;
                // Overlapping crash windows can deliver a `Recover` to a
                // processor that is already up and mid-operation: its
                // pool falls back onto it, as in a crash.
                self.ops[me].active = false;
                self.load[me] += std::mem::take(&mut self.pool[me]);
                self.set_l_old(me, self.load[me]);
            }
            Payload::LoadRequest { op } => {
                if self.flags[me] & DOWN != 0 {
                    return; // dead processors answer nothing
                }
                // A retransmission for an op we already granted is
                // re-acknowledged without re-locking; anything else is
                // granted iff we are free.
                let already = self.locked_for[me] == op;
                let granted = already || self.flags[me] & LOCKED == 0;
                if granted && !already {
                    self.flags[me] |= LOCKED;
                    self.locked_for[me] = op;
                }
                let load = self.load[me];
                self.send(me, ev.from, Payload::LoadReply { op, granted, load });
                if granted && !already && self.faulty() {
                    // Lease: self-unlock if the operation dies upstream.
                    self.schedule_self(
                        me,
                        8 * self.config.latency.max(1),
                        Payload::LeaseExpiry { op },
                    );
                }
            }
            Payload::SettleTimeout { op } => {
                let st = &mut self.ops[me];
                if st.active && st.id == op && st.awaiting_transfers > 0 {
                    // Lost TransferOrders: the members never shipped, so
                    // nothing is in flight from them — just write them off.
                    st.awaiting_transfers = 0;
                    self.stats.timeout_recoveries += 1;
                    self.try_settle(me, op);
                }
            }
            Payload::LeaseExpiry { op } => {
                if self.locked_for[me] == op {
                    self.unlock_partner(me);
                    self.stats.timeout_recoveries += 1;
                }
            }
            Payload::ReplyTimeout { op } => {
                let st = &mut self.ops[me];
                if !(st.active && st.id == op && st.awaiting_replies > 0) {
                    return;
                }
                if st.attempt < MAX_RETRIES {
                    // Bounded retry: re-request every silent partner and
                    // arm the next timeout with exponential backoff.
                    st.attempt += 1;
                    let attempt = st.attempt;
                    self.stats.retries += 1;
                    let partners = std::mem::take(&mut self.ops[me].partners);
                    for &partner in &partners {
                        if !self.ops[me].replied.contains(&partner) {
                            self.send(me, partner, Payload::LoadRequest { op });
                        }
                    }
                    self.ops[me].partners = partners;
                    let delay = self.reply_timeout_delay(attempt);
                    self.schedule_self(me, delay, Payload::ReplyTimeout { op });
                    return;
                }
                // Retries exhausted: write off the missing replies as
                // refusals and move on (abort-and-unlock — the lock never
                // outlives the bounded retry window).
                st.awaiting_replies = 1; // the synthetic final reply below
                self.stats.timeout_recoveries += 1;
                let payload = Payload::LoadReply {
                    op,
                    granted: false,
                    load: 0,
                };
                let (to, from) = (me, me);
                self.handle(Event { to, from, payload });
            }
            Payload::LoadReply { op, granted, load } => {
                if self.flags[me] & DOWN != 0 {
                    return;
                }
                let st = &mut self.ops[me];
                if !(st.active && st.id == op) {
                    return; // reply for a finished (timed-out) operation
                }
                // Duplicate suppression: count one reply per partner
                // (injected duplicates and retry-induced re-replies).
                if ev.from != me {
                    if st.replied.contains(&ev.from) {
                        return;
                    }
                    st.replied.push(ev.from);
                }
                st.awaiting_replies -= 1;
                if granted {
                    st.granted.push((ev.from, load));
                }
                if st.awaiting_replies > 0 {
                    return;
                }
                if st.granted.is_empty() {
                    // Everyone refused: abort with randomised backoff —
                    // without it, processors with identical load histories
                    // retrigger in lockstep and livelock forever (the
                    // thundering-herd failure mode the atomic model hides).
                    self.stats.aborted_ops += 1;
                    self.finish_op(me);
                    let jitter = self
                        .rng
                        .gen_range(0..=self.config.params.delta() as u64 + 1);
                    self.set_l_old(me, self.l_old[me] + jitter);
                    return;
                }
                // Compute ±1 shares over the initiator + granting members
                // from the *reported* loads.  Every member answers with
                // exactly one Transfer (possibly of 0 packets), so the
                // initiator simply counts them down.
                let own = self.load[me];
                let total: u64 = own + st.granted.iter().map(|&(_, l)| l).sum::<u64>();
                even_shares_into(total, st.granted.len() + 1, &mut self.shares);
                st.own_share = self.shares[0];
                st.awaiting_transfers = st.granted.len();
                // The initiator's own surplus goes straight into the pool.
                let excess = own.saturating_sub(st.own_share);
                self.load[me] -= excess;
                self.pool[me] += excess;
                let granted = std::mem::take(&mut self.ops[me].granted);
                for (k, &(member, reported)) in granted.iter().enumerate() {
                    let new_share = self.shares[k + 1];
                    self.send(me, member, Payload::TransferOrder { op, new_share });
                    if new_share > reported {
                        self.ops[me].deficits.push((member, new_share - reported));
                    }
                }
                self.ops[me].granted = granted;
                if self.faulty() {
                    self.schedule_self(
                        me,
                        4 * self.config.latency.max(1),
                        Payload::SettleTimeout { op },
                    );
                }
                self.try_settle(me, op);
            }
            Payload::TransferOrder { op, new_share } => {
                if self.flags[me] & DOWN != 0 {
                    return; // the initiator's settle timeout writes us off
                }
                // A member ships its surplus (clamped to what it actually
                // has — its load may have changed since it reported) and
                // unlocks; a possible top-up arrives later and is accepted
                // whether or not the member is locked.  The order is
                // honoured only while the member is still locked for this
                // exact operation: a duplicated or stale order (after a
                // lease expiry, or for an op the member re-granted) must
                // neither ship packets twice nor steal the lock.
                if self.locked_for[me] != op {
                    return;
                }
                let excess = self.load[me].saturating_sub(new_share);
                self.load[me] -= excess;
                self.unlock_partner(me);
                if excess > 0 {
                    self.ship(me, excess);
                }
                self.send(
                    me,
                    ev.from,
                    Payload::Transfer {
                        op,
                        amount: excess,
                        final_for_sender: true,
                    },
                );
            }
            Payload::Transfer {
                op,
                amount,
                final_for_sender,
            } => {
                self.in_flight -= amount.min(self.in_flight);
                if self.flags[me] & DOWN != 0 {
                    // Packets arriving at a dead processor follow the
                    // crash mode: destroyed, or frozen onto its queue.
                    match self.crash_mode() {
                        CrashMode::Lost => self.lost += amount,
                        CrashMode::Frozen => self.load[me] += amount,
                    }
                    return;
                }
                let st = &mut self.ops[me];
                if final_for_sender && st.active && st.id == op {
                    // The initiator pools the surplus until redistribution.
                    st.awaiting_transfers = st.awaiting_transfers.saturating_sub(1);
                    self.pool[me] += amount;
                    self.try_settle(me, op);
                } else {
                    // Plain delivery (deficit top-up, or a stale transfer
                    // for a finished op): the packets just arrive.
                    self.load[me] += amount;
                    if self.flags[me] & LOCKED == 0 {
                        self.set_l_old(me, self.load[me]);
                    }
                }
            }
        }
    }

    /// Books `count` packets leaving `from` inside a `Transfer`.
    fn ship(&mut self, from: usize, count: u64) {
        self.in_flight += count;
        self.stats.packets_moved += count;
        self.metrics.packets_migrated += count;
        if self.trace_on() {
            self.emit(dlb_trace::TraceEvent::PacketsMigrated {
                step: self.now,
                initiator: from as u64,
                count,
            });
        }
    }

    /// If all surplus transfers arrived, redistribute the pool to the
    /// deficit members and finish.
    fn try_settle(&mut self, initiator: usize, op: u64) {
        let st = &self.ops[initiator];
        if !st.active || st.awaiting_replies > 0 || st.awaiting_transfers > 0 {
            return;
        }
        let deficits = std::mem::take(&mut self.ops[initiator].deficits);
        let mut pool = self.pool[initiator];
        for &(member, need) in &deficits {
            let give = need.min(pool);
            pool -= give;
            if give > 0 {
                self.ship(initiator, give);
                self.send(
                    initiator,
                    member,
                    Payload::Transfer {
                        op,
                        amount: give,
                        final_for_sender: false,
                    },
                );
            }
        }
        self.ops[initiator].deficits = deficits;
        // Anything left over (rounding, stale loads) stays local.
        self.load[initiator] += pool;
        self.stats.completed_ops += 1;
        self.metrics.balance_ops += 1;
        self.finish_op(initiator);
    }

    /// Ends the initiator's operation: the pool has been handed out (or
    /// never filled) and is zeroed with the lock.
    fn finish_op(&mut self, initiator: usize) {
        self.ops[initiator].active = false;
        self.pool[initiator] = 0;
        self.flags[initiator] &= !LOCKED;
        self.set_l_old(initiator, self.load[initiator]);
    }

    /// Releases the partner lock of `me` (held: `locked_for[me] ≠ NO_OP`).
    fn unlock_partner(&mut self, me: usize) {
        self.flags[me] &= !LOCKED;
        self.locked_for[me] = NO_OP;
        self.set_l_old(me, self.load[me]);
    }

    /// The one writer of `l_old[i]` and the trigger bounds derived from
    /// it, so the sweep's integer compares are the predicates.
    fn set_l_old(&mut self, i: usize, l_old: u64) {
        let (grow_at, shrink_below) = self.config.params.trigger_bounds(l_old);
        self.l_old[i] = l_old;
        self.grow_at[i] = grow_at;
        self.shrink_below[i] = shrink_below;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::imbalance_stats;
    use dlb_faults::CrashEvent;

    fn config(n: usize, latency: u64) -> AsyncConfig {
        AsyncConfig::reliable(Params::new(n, 2, 1.3, 4).unwrap(), latency, 7)
    }

    fn run_one_producer(n: usize, latency: u64, steps: u64) -> AsyncNetwork {
        let mut net = AsyncNetwork::new(config(n, latency));
        let mut actions = vec![0i8; n];
        actions[0] = 1;
        for t in 0..steps {
            net.tick(t, &actions);
        }
        net.quiesce();
        net
    }

    fn run_with_plan(n: usize, latency: u64, steps: u64, plan: FaultPlan) -> AsyncNetwork {
        let mut net = AsyncNetwork::with_faults(config(n, latency), plan).unwrap();
        let mut actions = vec![1i8; n];
        for t in 0..steps {
            net.tick(t, &actions);
            net.check_conservation().unwrap();
            net.check_invariants().unwrap();
        }
        actions.fill(-1);
        for t in steps..2 * steps {
            net.tick(t, &actions);
            net.check_conservation().unwrap();
            net.check_invariants().unwrap();
        }
        net.quiesce();
        net.check_invariants().unwrap();
        net
    }

    #[test]
    fn conservation_with_latency() {
        for latency in [1u64, 4, 16] {
            let net = run_one_producer(8, latency, 2_000);
            net.check_conservation().unwrap();
            assert_eq!(net.in_flight(), 0, "quiesced network has nothing in flight");
            assert_eq!(net.loads().iter().sum::<u64>(), 2_000);
        }
    }

    #[test]
    fn low_latency_balances_producer() {
        let net = run_one_producer(8, 1, 4_000);
        let stats = imbalance_stats(&net.loads());
        assert!(stats.max_over_mean < 2.0, "{stats:?}");
        assert!(net.stats().completed_ops > 0);
    }

    #[test]
    fn higher_latency_degrades_quality() {
        // Compare the *time-averaged* imbalance during the run: a slow
        // network reacts later, so the producer's excess persists longer.
        // (The final snapshot after quiescing converges to the fix point
        // for any latency and is too noisy to compare.)
        let avg_ratio = |latency: u64| {
            let mut net = AsyncNetwork::new(config(16, latency));
            let mut actions = vec![0i8; 16];
            actions[0] = 1;
            let steps = 4_000u64;
            let mut acc = 0.0;
            for t in 0..steps {
                net.tick(t, &actions);
                acc += imbalance_stats(&net.loads()).max_over_mean;
            }
            acc / steps as f64
        };
        let fast = avg_ratio(1);
        let slow = avg_ratio(64);
        assert!(
            slow > fast,
            "latency 64 avg ratio {slow} vs latency 1 avg ratio {fast}"
        );
    }

    #[test]
    fn conflicts_cause_aborts_but_no_losses() {
        // Every processor generates every tick: triggers collide and many
        // partners are locked, so some attempts abort.
        let n = 8;
        let mut net = AsyncNetwork::new(config(n, 4));
        let actions = vec![1i8; n];
        for t in 0..3_000 {
            net.tick(t, &actions);
        }
        net.quiesce();
        net.check_conservation().unwrap();
        assert!(
            net.stats().aborted_ops > 0,
            "contended run should abort some ops"
        );
        assert!(net.stats().completed_ops > 0);
    }

    #[test]
    fn consume_drains_without_negative_loads() {
        let n = 6;
        let mut net = AsyncNetwork::new(config(n, 2));
        let mut actions = vec![1i8; n];
        for t in 0..500 {
            net.tick(t, &actions);
        }
        actions.fill(-1);
        for t in 500..2_500 {
            net.tick(t, &actions);
        }
        net.quiesce();
        net.check_conservation().unwrap();
    }

    #[test]
    fn lossy_control_plane_recovers_and_conserves() {
        // 20% of control messages vanish: timeouts must keep the protocol
        // live and packet conservation exact.
        let mut cfg = config(8, 4);
        cfg.control_loss = 0.2;
        let mut net = AsyncNetwork::new(cfg);
        let mut actions = vec![0i8; 8];
        actions[0] = 1;
        actions[1] = 1;
        for t in 0..4_000 {
            net.tick(t, &actions);
        }
        net.quiesce();
        net.check_conservation().unwrap();
        assert_eq!(net.loads().iter().sum::<u64>(), 8_000);
        let s = net.stats();
        assert!(s.lost_messages > 0, "injection active");
        assert!(s.timeout_recoveries > 0, "timeouts fired: {s:?}");
        assert!(s.completed_ops > 0, "work still balanced: {s:?}");
        // Liveness: every lock was eventually released.
        assert_eq!(net.locked_count(), 0, "no processor stuck locked");
    }

    #[test]
    fn heavy_loss_keeps_liveness() {
        let mut cfg = config(16, 8);
        cfg.control_loss = 0.5;
        let mut net = AsyncNetwork::new(cfg);
        let mut actions = vec![1i8; 16];
        for t in 0..2_000 {
            net.tick(t, &actions);
        }
        actions.fill(-1);
        for t in 2_000..4_000 {
            net.tick(t, &actions);
        }
        net.quiesce();
        net.check_conservation().unwrap();
        assert_eq!(net.locked_count(), 0, "all locks released despite 50% loss");
    }

    #[test]
    fn lossless_config_never_times_out() {
        let net = run_one_producer(8, 2, 1_000);
        assert_eq!(net.stats().lost_messages, 0);
        assert_eq!(net.stats().timeout_recoveries, 0);
        assert_eq!(net.stats().retries, 0);
    }

    #[test]
    fn benign_fault_plan_matches_plain_network() {
        // A present-but-empty plan must not change the simulated physics:
        // same loads as the injector-free network.
        let plain = run_one_producer(8, 2, 2_000);
        let mut net = AsyncNetwork::with_faults(config(8, 2), FaultPlan::reliable()).unwrap();
        let mut actions = vec![0i8; 8];
        actions[0] = 1;
        for t in 0..2_000 {
            net.tick(t, &actions);
        }
        net.quiesce();
        assert_eq!(net.loads(), plain.loads());
        assert_eq!(net.lost(), 0);
    }

    #[test]
    fn injected_loss_recovers_with_retries() {
        let plan = FaultPlan {
            seed: 5,
            loss: 0.25,
            ..FaultPlan::default()
        };
        let net = run_with_plan(8, 4, 1_500, plan);
        let s = net.stats();
        assert!(s.lost_messages > 0, "{s:?}");
        assert!(
            s.retries > 0,
            "silent partners should be re-requested: {s:?}"
        );
        assert!(s.completed_ops > 0, "{s:?}");
        assert_eq!(net.locked_count(), 0, "no leaked locks");
        net.check_conservation().unwrap();
    }

    #[test]
    fn dropped_transfers_land_in_the_lost_ledger() {
        let plan = FaultPlan {
            seed: 2,
            transfer_loss: 0.3,
            ..FaultPlan::default()
        };
        let net = run_with_plan(8, 2, 1_000, plan);
        assert!(net.lost() > 0, "some transfers must have died");
        assert_eq!(net.in_flight(), 0);
        net.check_conservation().unwrap();
        assert_eq!(net.locked_count(), 0);
    }

    #[test]
    fn duplication_never_double_ships() {
        let plan = FaultPlan {
            seed: 3,
            duplication: 0.5,
            ..FaultPlan::default()
        };
        let net = run_with_plan(8, 3, 1_500, plan);
        assert!(net.stats().duplicated_messages > 0);
        assert_eq!(net.lost(), 0, "duplication alone destroys nothing");
        net.check_conservation().unwrap();
        assert_eq!(net.locked_count(), 0);
    }

    #[test]
    fn crash_lost_moves_load_to_the_lost_ledger() {
        let plan = FaultPlan {
            crash_mode: CrashMode::Lost,
            crashes: vec![CrashEvent {
                proc: 2,
                at: 500,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let mut net = AsyncNetwork::with_faults(config(6, 2), plan).unwrap();
        let actions = vec![1i8; 6];
        for t in 0..1_000 {
            net.tick(t, &actions);
            net.check_conservation().unwrap();
        }
        net.quiesce();
        net.check_conservation().unwrap();
        assert_eq!(net.stats().crashes, 1);
        assert!(net.lost() > 0, "the crashed processor held load");
        assert_eq!(net.loads()[2], 0, "lost-mode crash empties the queue");
        assert_eq!(net.locked_count(), 0);
    }

    #[test]
    fn crash_frozen_preserves_load_and_rejoins() {
        let plan = FaultPlan {
            crash_mode: CrashMode::Frozen,
            crashes: vec![CrashEvent {
                proc: 1,
                at: 300,
                recover_at: Some(700),
            }],
            ..FaultPlan::default()
        };
        let mut net = AsyncNetwork::with_faults(config(6, 2), plan).unwrap();
        let actions = vec![1i8; 6];
        for t in 0..1_500 {
            net.tick(t, &actions);
            net.check_conservation().unwrap();
        }
        net.quiesce();
        net.check_conservation().unwrap();
        assert_eq!(net.lost(), 0, "frozen crashes destroy nothing");
        assert_eq!(net.stats().crashes, 1);
        assert_eq!(net.stats().recoveries, 1);
        assert_eq!(net.down_count(), 0, "processor rejoined");
        // The rejoined processor keeps generating after recovery, so it
        // holds load again.
        assert!(net.loads()[1] > 0);
        assert_eq!(net.locked_count(), 0);
    }

    #[test]
    fn partition_cuts_heal_and_conserve() {
        let plan = FaultPlan {
            partitions: vec![dlb_faults::PartitionEvent {
                from: 200,
                until: 600,
                group: vec![0, 1, 2],
            }],
            ..FaultPlan::default()
        };
        let net = run_with_plan(6, 2, 800, plan);
        net.check_conservation().unwrap();
        assert_eq!(net.locked_count(), 0);
        assert_eq!(
            net.lost(),
            0,
            "partitions delay transfers, never destroy them"
        );
    }

    #[test]
    fn everything_at_once_stays_sound() {
        let plan = FaultPlan {
            seed: 11,
            loss: 0.15,
            transfer_loss: 0.05,
            duplication: 0.1,
            jitter: 3,
            crash_mode: CrashMode::Lost,
            crashes: vec![
                CrashEvent {
                    proc: 0,
                    at: 400,
                    recover_at: Some(900),
                },
                CrashEvent {
                    proc: 3,
                    at: 700,
                    recover_at: None,
                },
            ],
            partitions: vec![dlb_faults::PartitionEvent {
                from: 100,
                until: 300,
                group: vec![4, 5],
            }],
        };
        let net = run_with_plan(8, 3, 1_200, plan);
        net.check_conservation().unwrap();
        assert_eq!(
            net.locked_count(),
            0,
            "no leaked locks under combined faults"
        );
        assert!(net.stats().completed_ops > 0, "protocol stayed live");
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let plan = FaultPlan {
            seed: 9,
            loss: 0.2,
            jitter: 2,
            ..FaultPlan::default()
        };
        let run = || {
            let net = run_with_plan(8, 2, 1_000, plan.clone());
            (net.loads(), *net.stats(), net.lost())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "time must not run backwards")]
    fn time_is_monotone() {
        let mut net = AsyncNetwork::new(config(4, 1));
        net.tick(5, &[0, 0, 0, 0]);
        net.tick(4, &[0, 0, 0, 0]);
    }

    /// 64-bit FNV-1a, as `benchmark/src/check.rs` computes it.
    #[derive(Clone, Copy)]
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    const PIN_TICKS: u64 = 1_200;

    /// The five fault settings of the pins: none, the legacy
    /// `control_loss` knob, the `scenarios/lossy_network.json` plan
    /// (times scaled to [`PIN_TICKS`], sizes to `n`) in both crash
    /// modes, and heavy duplication across a partition.
    fn pin_net(kind: usize, n: usize, delta: usize, latency: u64) -> AsyncNetwork {
        let params = Params::new(n, delta, 1.3, 4).unwrap();
        let mut cfg = AsyncConfig::reliable(params, latency, 0x51ab + kind as u64);
        let lossy = |crash_mode| FaultPlan {
            seed: 99,
            loss: 0.1,
            transfer_loss: 0.05,
            duplication: 0.02,
            jitter: 3,
            crash_mode,
            crashes: vec![CrashEvent {
                proc: 5,
                at: 300,
                recover_at: Some(720),
            }],
            partitions: vec![dlb_faults::PartitionEvent {
                from: 480,
                until: 600,
                group: (0..n / 4).collect(),
            }],
        };
        let plan = match kind {
            0 => return AsyncNetwork::new(cfg),
            1 => {
                cfg.control_loss = 0.2;
                return AsyncNetwork::new(cfg);
            }
            2 => lossy(CrashMode::Lost),
            3 => lossy(CrashMode::Frozen),
            _ => FaultPlan {
                seed: 17,
                duplication: 0.5,
                partitions: vec![dlb_faults::PartitionEvent {
                    from: 200,
                    until: 700,
                    group: (0..n / 2).step_by(2).collect(),
                }],
                ..FaultPlan::default()
            },
        };
        AsyncNetwork::with_faults(cfg, plan).unwrap()
    }

    /// FNV over `(loads, pooled, in_flight, lost, locked_count)` every
    /// 50 ticks and after quiescence, then `AsyncStats` and the fault
    /// counters.  A skewed generate phase (every fourth processor each
    /// tick, the rest every fifth tick) fires the grow trigger, a
    /// consume phase the shrink trigger.
    fn pin(kind: usize, n: usize, delta: usize, latency: u64) -> u64 {
        let mut net = pin_net(kind, n, delta, latency);
        let mut h = Fnv::new();
        let sample = |net: &AsyncNetwork, h: &mut Fnv| {
            for l in net.loads() {
                h.word(l);
            }
            h.word(net.pooled());
            h.word(net.in_flight());
            h.word(net.lost());
            h.word(net.locked_count() as u64);
        };
        let mut actions = vec![0i8; n];
        for t in 0..PIN_TICKS {
            for (i, a) in actions.iter_mut().enumerate() {
                *a = if t < PIN_TICKS / 2 {
                    i8::from(i % 4 == 0 || (t + i as u64).is_multiple_of(5))
                } else if (t + i as u64).is_multiple_of(7) {
                    0
                } else {
                    -1
                };
            }
            net.tick(t, &actions);
            net.check_conservation().unwrap();
            if t % 50 == 0 {
                sample(&net, &mut h);
            }
        }
        net.quiesce();
        net.check_conservation().unwrap();
        sample(&net, &mut h);
        let s = net.stats();
        for w in [
            s.completed_ops,
            s.aborted_ops,
            s.messages,
            s.packets_moved,
            s.lost_messages,
            s.timeout_recoveries,
            s.retries,
            s.duplicated_messages,
            s.crashes,
            s.recoveries,
        ] {
            h.word(w);
        }
        let f = net.fault_stats().unwrap_or_default();
        for w in [
            f.dropped_control,
            f.dropped_transfers,
            f.duplicated,
            f.delayed,
            f.partition_cuts,
        ] {
            h.word(w);
        }
        h.0
    }

    /// Captured at commit 631b5a9, where the state was a
    /// `Vec<ProcState>` with an embedded `Option<OpState>` and a tick
    /// started each operation inside the sweep: one row per fault
    /// setting of [`pin_net`], n ∈ {8, 64} × δ ∈ {1, 2, 3} × latency ∈
    /// {0, 1, 4} within a row.
    #[test]
    fn parent_captured_pins_hold() {
        #[rustfmt::skip]
        const PINS: [[u64; 18]; 5] = [
        [
            0xd10337509ca79e8d, 0xd96cade52ae41351, 0xbe16093ef885ea8a,
            0x35d028f30827650e, 0xa133b46c7774be0b, 0x77a2153184688885,
            0x8d894918b86abf23, 0x1cf3370790df513e, 0x77d378e91195b21c,
            0x91894b6411501929, 0x40408dd9326e0c03, 0xc398a5be9ac0b9a9,
            0x163824f923341ff5, 0x9c68f5f9131e318c, 0x07aafb7bf8a257b7,
            0xbb6042248794aa71, 0x0a5bf0bc155e0ccf, 0x9970ee021f6d5dbd,
        ],
        [
            0x9f2a5e56ae787f5d, 0xba5fe0128207bc6b, 0xed5fa2f11a186a35,
            0xfba1ab8eccc8904d, 0x595ca78c0f4958a6, 0x7c8e094f376d3e9f,
            0xab4d35760e676d3e, 0x196931fe7743de45, 0xad4021526748d254,
            0xed8ee06db57bbe89, 0xe3ab5166fd3f969e, 0x20fac143b98be25c,
            0x0008e0742bffce55, 0xf45912df1bcec478, 0xee873b50252be5a7,
            0xc69a2a1e66a774e3, 0xe4f0a7159db419db, 0x53acde81bf565a28,
        ],
        [
            0x73df53c3f3cea38a, 0x787b11fe594d26bb, 0xa0c79db71d12fe1d,
            0xe4dbc81333c3d8f8, 0x48d8a8c9fda0c5db, 0x247d13133b309939,
            0xb2991f4f163c381f, 0x1f1e086d1ef671e2, 0x052e1593bfe28576,
            0xca052390b3705a93, 0x15ff7c11a0da071a, 0x20fcf24d77a3b2b6,
            0xa79372dbb754726b, 0x5277a1bf0e369370, 0x73652a0b6f8a4131,
            0xa623f870df54c958, 0xdd07581fd6e424e4, 0x452bd0a9586f8b97,
        ],
        [
            0x91eb0d3535e702b6, 0x8a790837a0b00e5c, 0xd268e0f57f2447bd,
            0xad7fa63d5e0ccd7b, 0xe11eb38ccdb4ca7f, 0x04c752776b0a83d9,
            0x744868124028fe00, 0xeaab36f604010d94, 0x78305f1f4d553901,
            0x357a250aab84102d, 0x967ba71ff0b0d066, 0x38032d9d70c950ee,
            0x34c2134ab2dad450, 0xc562dbfab42434ee, 0x3217381c239d1f30,
            0x134dfb9bb2b58d73, 0xd5654df5d973d1c6, 0x6b10aed2987c719b,
        ],
        [
            0x1a153c19d9464f0a, 0x38ee0589aa2731ec, 0xcba6a50180fbbe3e,
            0x0b9d4065c52dce74, 0xcddedb9315ddc40f, 0xf5c8521781cdd8c4,
            0xe6b40398fe48455d, 0xe84730fb4def3ea3, 0x2e97b0b85f773d8b,
            0xcbd37cb6ed4af07c, 0xc4395e6e3342fab9, 0x27a934f1e50d4f4d,
            0x75b4a5fa4eef481e, 0xe79cb4e08a6ab43d, 0x2ac6aa8e693e28be,
            0x895f1f27e620ecef, 0x0dc16cba89be6489, 0x90fa150b6c9bd9d4,
        ],
        ];
        for (kind, row) in PINS.iter().enumerate() {
            let mut want = row.iter();
            for n in [8, 64] {
                for delta in [1, 2, 3] {
                    for latency in [0, 1, 4] {
                        assert_eq!(
                            pin(kind, n, delta, latency),
                            *want.next().expect("18 pins a row"),
                            "fault setting {kind}, n = {n}, δ = {delta}, latency = {latency}"
                        );
                    }
                }
            }
        }
    }

    impl AsyncNetwork {
        /// Total capacity of every buffer an operation writes to.
        fn scratch_capacity(&self) -> usize {
            let per_op = |st: &OpState| {
                st.partners.capacity()
                    + st.replied.capacity()
                    + st.granted.capacity()
                    + st.deficits.capacity()
            };
            self.ops.iter().map(per_op).sum::<usize>()
                + self.fired.capacity()
                + self.shares.capacity()
        }
    }

    /// The layout's claim as a gate: once every processor has been
    /// through an operation, operations (completed, aborted and
    /// retried alike) reuse the buffers they find.
    #[test]
    fn a_warm_operation_allocates_nothing() {
        let mut net = pin_net(3, 64, 3, 4);
        let mut actions = vec![0i8; 64];
        let mut run = |net: &mut AsyncNetwork, ticks: std::ops::Range<u64>| {
            for t in ticks {
                // A 40-tick generate burst, then a 40-tick drain, phase
                // shifted per processor: both triggers keep firing.
                for (i, a) in actions.iter_mut().enumerate() {
                    *a = if (t + 3 * i as u64) % 80 < 40 { 1 } else { -1 };
                }
                net.tick(t, &actions);
            }
        };
        run(&mut net, 0..2_000);
        let (warm, before) = (net.scratch_capacity(), *net.stats());
        run(&mut net, 2_000..4_000);
        let after = net.stats();
        assert!(
            after.completed_ops > before.completed_ops + 1_000,
            "{after:?}"
        );
        assert!(after.aborted_ops > before.aborted_ops, "{after:?}");
        assert!(after.retries > before.retries, "{after:?}");
        assert_eq!(net.scratch_capacity(), warm, "a warm operation allocated");
        net.check_invariants().unwrap();
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_event_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 40);
    }

    /// Nested crash windows on one processor: the inner recovery brings
    /// it up, so the outer one finds it running — possibly with a pool
    /// in hand, which must fall back onto it rather than vanish.
    #[test]
    fn recovery_of_a_running_processor_keeps_its_pool() {
        let mut pooled_at_recovery = 0;
        for outer in 40..60 {
            let plan = FaultPlan {
                crash_mode: CrashMode::Frozen,
                crashes: vec![
                    CrashEvent {
                        proc: 0,
                        at: 10,
                        recover_at: Some(outer),
                    },
                    CrashEvent {
                        proc: 0,
                        at: 20,
                        recover_at: Some(30),
                    },
                ],
                ..FaultPlan::default()
            };
            let mut net = AsyncNetwork::with_faults(config(6, 3), plan).unwrap();
            let actions = [1i8, 0, 0, 0, 0, 0];
            for t in 0..100 {
                if t == outer {
                    pooled_at_recovery += net.pooled();
                }
                net.tick(t, &actions);
                net.check_conservation().unwrap();
                net.check_invariants().unwrap();
            }
            assert_eq!(net.stats().recoveries, 2);
        }
        assert!(pooled_at_recovery > 0, "no run had a pool to lose");
    }

    #[test]
    #[should_panic(expected = "latency 4294967297 exceeds")]
    fn a_latency_that_would_wrap_the_timeouts_is_refused() {
        AsyncNetwork::new(config(4, MAX_LATENCY + 1));
    }

    /// The largest accepted latency and jitter, and a partition that
    /// never heals: every delivery time is formed without wrapping, the
    /// held transfers arrive at `quiesce`, nothing leaks.
    #[test]
    fn extreme_timing_neither_wraps_nor_leaks() {
        let held = FaultPlan {
            seed: 4,
            jitter: 3,
            partitions: vec![dlb_faults::PartitionEvent {
                from: 60,
                until: u64::MAX,
                group: vec![0, 1, 2],
            }],
            ..FaultPlan::default()
        };
        let net = run_with_plan(6, 2, 400, held);
        assert_eq!(
            net.now(),
            u64::MAX,
            "held transfers were due at the end of time"
        );
        assert_eq!((net.in_flight(), net.lost(), net.locked_count()), (0, 0, 0));

        let slow = FaultPlan {
            seed: 4,
            loss: 0.2,
            jitter: dlb_faults::MAX_JITTER,
            ..FaultPlan::default()
        };
        let mut net = AsyncNetwork::with_faults(config(6, MAX_LATENCY), slow.clone()).unwrap();
        for t in 0..50 {
            net.tick(t, &[1; 6]);
        }
        net.quiesce();
        net.check_conservation().unwrap();
        net.check_invariants().unwrap();
        assert_eq!((net.in_flight(), net.locked_count()), (0, 0));
        assert!(
            net.stats().retries > 0,
            "the backed-off timeouts fired in order"
        );

        let err = AsyncNetwork::with_faults(
            config(6, 2),
            FaultPlan {
                jitter: u64::MAX,
                ..slow
            },
        )
        .err()
        .expect("jitter above the bound");
        assert!(err.contains("jitter"), "{err}");
    }
}
