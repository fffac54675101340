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

use crate::equeue::CalendarQueue;
use crate::rng::stream;
use dlb_core::balance::sample_others_into;
use dlb_core::{Metrics, Params};
use dlb_faults::{CrashMode, FaultInjector, FaultPlan, MessageClass, MessageFate};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// How often an initiator re-requests silent partners before writing
/// them off as refusals.
pub const MAX_RETRIES: u32 = 2;

/// Configuration of the asynchronous network.
#[derive(Debug, Clone, Copy)]
pub struct AsyncConfig {
    /// Algorithm parameters (n, δ, f; the borrow machinery is not used —
    /// this simulates the practical variant).
    pub params: Params,
    /// Message latency in time units (a generate/consume tick is 1).
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    to: usize,
    from: usize,
    payload: Payload,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone)]
struct OpState {
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
    /// Pool collected from surplus members (plus own surplus).
    pool: u64,
    /// Deficit members to top up once the pool is complete.
    deficits: Vec<(usize, u64)>,
    /// The initiator's own target share.
    own_share: u64,
    /// Reply-phase retransmissions performed so far.
    attempt: u32,
}

#[derive(Debug, Clone, Default)]
struct ProcState {
    load: u64,
    l_old: u64,
    /// Locked while participating in some operation.
    locked: bool,
    /// Which operation holds the lock when locked as a *partner*.
    locked_for: Option<u64>,
    /// Active operation if this processor is an initiator.
    op: Option<OpState>,
    /// Crashed (fault injection): takes no actions, handles no messages.
    down: bool,
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
pub struct AsyncNetwork {
    config: AsyncConfig,
    procs: Vec<ProcState>,
    /// Delivery queue: a calendar queue keyed on the delivery tick.
    /// `seq` is strictly monotone across every push site, so the queue's
    /// FIFO-within-tick order equals the old heap's `(time, seq)` order.
    queue: CalendarQueue<Event>,
    now: u64,
    seq: u64,
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
    pub fn new(config: AsyncConfig) -> Self {
        AsyncNetwork {
            config,
            procs: vec![ProcState::default(); config.params.n()],
            queue: CalendarQueue::new(),
            now: 0,
            seq: 0,
            in_flight: 0,
            lost: 0,
            next_op: 0,
            rng: stream(config.seed, u64::MAX),
            injector: None,
            metrics: Metrics::new(),
            stats: AsyncStats::default(),
            sink: None,
        }
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
        let injector = FaultInjector::new(plan, config.params.n())?;
        let mut net = AsyncNetwork::new(config);
        for c in injector.crashes() {
            net.seq += 1;
            net.queue.push(
                c.at,
                Event {
                    time: c.at,
                    seq: net.seq,
                    to: c.proc,
                    from: c.proc,
                    payload: Payload::Crash,
                },
            );
            if let Some(r) = c.recover_at {
                net.seq += 1;
                net.queue.push(
                    r,
                    Event {
                        time: r,
                        seq: net.seq,
                        to: c.proc,
                        from: c.proc,
                        payload: Payload::Recover,
                    },
                );
            }
        }
        net.injector = Some(injector);
        Ok(net)
    }

    /// Current time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Current loads (packets in flight excluded).
    pub fn loads(&self) -> Vec<u64> {
        self.procs.iter().map(|p| p.load).collect()
    }

    /// Packets currently inside `Transfer` messages.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Packets currently pooled by initiators mid-operation.
    pub fn pooled(&self) -> u64 {
        self.procs
            .iter()
            .filter_map(|p| p.op.as_ref())
            .map(|st| st.pool)
            .sum()
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
        self.procs.iter().filter(|p| p.locked).count()
    }

    /// Number of processors currently down.
    pub fn down_count(&self) -> usize {
        self.procs.iter().filter(|p| p.down).count()
    }

    /// Conservation check:
    /// `loads + pooled + in-flight + lost = generated − consumed`.
    /// Holds between any two events, not just at quiescence.
    pub fn check_conservation(&self) -> Result<(), String> {
        let total: u64 = self.procs.iter().map(|p| p.load).sum();
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

    /// Advances time to `t`, delivering all messages due on the way, then
    /// applies one generate (`+1`) / consume (`−1`) / idle (`0`) tick to
    /// every processor.  Crashed processors take no actions.
    pub fn tick(&mut self, t: u64, actions: &[i8]) {
        assert!(t >= self.now, "time must not run backwards");
        assert_eq!(actions.len(), self.procs.len(), "one action per processor");
        let before = self.trace_on().then_some(self.metrics);
        self.drain_until(t);
        self.now = t;
        for (i, &a) in actions.iter().enumerate() {
            if self.procs[i].down {
                continue;
            }
            match a {
                1 => {
                    self.procs[i].load += 1;
                    self.metrics.generated += 1;
                    self.maybe_trigger(i);
                }
                -1 => {
                    if self.procs[i].load > 0 {
                        self.procs[i].load -= 1;
                        self.metrics.consumed += 1;
                        self.maybe_trigger(i);
                    } else {
                        self.metrics.consume_blocked += 1;
                    }
                }
                0 => {}
                other => panic!("invalid action {other}; use -1, 0, 1"),
            }
        }
        self.emit_step_delta(before, t);
    }

    /// Delivers every outstanding message (call at the end of a run).
    pub fn quiesce(&mut self) {
        let before = self.trace_on().then_some(self.metrics);
        self.drain_until(u64::MAX);
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
        self.seq += 1;
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
        let time = self.now + self.config.latency + extra_delay;
        self.queue.push(
            time,
            Event {
                time,
                seq: self.seq,
                to,
                from,
                payload,
            },
        );
        if duplicate {
            self.seq += 1;
            self.stats.duplicated_messages += 1;
            self.queue.push(
                time + 1,
                Event {
                    time: time + 1,
                    seq: self.seq,
                    to,
                    from,
                    payload,
                },
            );
        }
    }

    fn schedule_self(&mut self, to: usize, delay: u64, payload: Payload) {
        self.seq += 1;
        let ev = Event {
            time: self.now + delay,
            seq: self.seq,
            to,
            from: to,
            payload,
        };
        self.queue.push(ev.time, ev);
    }

    fn reply_timeout_delay(&self, attempt: u32) -> u64 {
        // 4 one-way latencies, doubling per retransmission.
        (4 * self.config.latency.max(1)) << attempt
    }

    fn maybe_trigger(&mut self, i: usize) {
        let p = &self.procs[i];
        if p.locked || p.down {
            return;
        }
        let params = &self.config.params;
        if !(params.grow_triggered(p.load, p.l_old) || params.shrink_triggered(p.load, p.l_old)) {
            return;
        }
        // Start an operation: lock, pick δ partners, request loads.
        let n = params.n();
        let delta = params.delta();
        let mut partners = Vec::with_capacity(delta);
        sample_others_into(&mut self.rng, n, i, delta, &mut partners);
        if self.trace_on() {
            let p = &self.procs[i];
            self.emit(dlb_trace::TraceEvent::BalanceInitiated {
                step: self.now,
                initiator: i as u64,
                partners: partners.iter().map(|&x| x as u64).collect(),
                trigger: p.load as f64 / p.l_old.max(1) as f64,
            });
        }
        let op = self.next_op;
        self.next_op += 1;
        self.procs[i].locked = true;
        self.procs[i].op = Some(OpState {
            id: op,
            partners: partners.clone(),
            replied: Vec::new(),
            granted: Vec::new(),
            awaiting_replies: partners.len(),
            awaiting_transfers: 0,
            pool: 0,
            deficits: Vec::new(),
            own_share: 0,
            attempt: 0,
        });
        for partner in partners {
            self.send(i, partner, Payload::LoadRequest { op });
        }
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
        match ev.payload {
            Payload::Crash => {
                self.stats.crashes += 1;
                if self.trace_on() {
                    self.emit(dlb_trace::TraceEvent::FaultInjected {
                        step: self.now,
                        proc: ev.to as u64,
                        kind: "crash".to_string(),
                    });
                }
                let mode = self.crash_mode();
                let me = &mut self.procs[ev.to];
                me.down = true;
                // An interrupted own operation: the pooled packets fall
                // back onto the processor before the crash mode applies.
                if let Some(st) = me.op.take() {
                    me.load += st.pool;
                }
                me.locked = false;
                me.locked_for = None;
                if mode == CrashMode::Lost {
                    self.lost += me.load;
                    me.load = 0;
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
                        proc: ev.to as u64,
                    });
                }
                let me = &mut self.procs[ev.to];
                me.down = false;
                me.locked = false;
                me.locked_for = None;
                me.op = None;
                me.l_old = me.load;
            }
            Payload::LoadRequest { op } => {
                if self.procs[ev.to].down {
                    return; // dead processors answer nothing
                }
                let me = &mut self.procs[ev.to];
                // A retransmission for an op we already granted is
                // re-acknowledged without re-locking; anything else is
                // granted iff we are free.
                let already = me.locked_for == Some(op);
                let granted = already || !me.locked;
                if granted && !already {
                    me.locked = true;
                    me.locked_for = Some(op);
                }
                let load = self.procs[ev.to].load;
                self.send(ev.to, ev.from, Payload::LoadReply { op, granted, load });
                if granted && !already && self.faulty() {
                    // Lease: self-unlock if the operation dies upstream.
                    self.schedule_self(
                        ev.to,
                        8 * self.config.latency.max(1),
                        Payload::LeaseExpiry { op },
                    );
                }
            }
            Payload::SettleTimeout { op } => {
                let initiator = ev.to;
                let waiting = self.procs[initiator]
                    .op
                    .as_ref()
                    .is_some_and(|st| st.id == op && st.awaiting_transfers > 0);
                if waiting {
                    // Lost TransferOrders: the members never shipped, so
                    // nothing is in flight from them — just write them off.
                    self.stats.timeout_recoveries += 1;
                    if let Some(st) = self.procs[initiator].op.as_mut() {
                        st.awaiting_transfers = 0;
                    }
                    self.try_settle(initiator, op);
                }
            }
            Payload::LeaseExpiry { op } => {
                let me = &mut self.procs[ev.to];
                if me.locked && me.locked_for == Some(op) {
                    me.locked = false;
                    me.locked_for = None;
                    me.l_old = me.load;
                    self.stats.timeout_recoveries += 1;
                }
            }
            Payload::ReplyTimeout { op } => {
                let initiator = ev.to;
                let still_waiting = self.procs[initiator]
                    .op
                    .as_ref()
                    .is_some_and(|st| st.id == op && st.awaiting_replies > 0);
                if !still_waiting {
                    return;
                }
                let attempt = self.procs[initiator].op.as_ref().expect("checked").attempt;
                if attempt < MAX_RETRIES {
                    // Bounded retry: re-request every silent partner and
                    // arm the next timeout with exponential backoff.
                    self.stats.retries += 1;
                    let st = self.procs[initiator].op.as_mut().expect("checked");
                    st.attempt = attempt + 1;
                    let silent: Vec<usize> = st
                        .partners
                        .iter()
                        .copied()
                        .filter(|p| !st.replied.contains(p))
                        .collect();
                    for partner in silent {
                        self.send(initiator, partner, Payload::LoadRequest { op });
                    }
                    let delay = self.reply_timeout_delay(attempt + 1);
                    self.schedule_self(initiator, delay, Payload::ReplyTimeout { op });
                    return;
                }
                // Retries exhausted: write off the missing replies as
                // refusals and move on (abort-and-unlock — the lock never
                // outlives the bounded retry window).
                self.stats.timeout_recoveries += 1;
                let st = self.procs[initiator].op.as_mut().expect("checked");
                st.awaiting_replies = 1; // the synthetic final reply below
                self.handle(Event {
                    time: ev.time,
                    seq: ev.seq,
                    to: initiator,
                    from: initiator,
                    payload: Payload::LoadReply {
                        op,
                        granted: false,
                        load: 0,
                    },
                });
            }
            Payload::LoadReply { op, granted, load } => {
                let initiator = ev.to;
                if self.procs[initiator].down {
                    return;
                }
                let stale = self.procs[initiator]
                    .op
                    .as_ref()
                    .is_none_or(|st| st.id != op);
                if stale {
                    return; // reply for a finished (timed-out) operation
                }
                let Some(mut st) = self.procs[initiator].op.take() else {
                    return;
                };
                // Duplicate suppression: count one reply per partner
                // (injected duplicates and retry-induced re-replies).
                if ev.from != initiator {
                    if st.replied.contains(&ev.from) {
                        self.procs[initiator].op = Some(st);
                        return;
                    }
                    st.replied.push(ev.from);
                }
                st.awaiting_replies -= 1;
                if granted {
                    st.granted.push((ev.from, load));
                }
                if st.awaiting_replies > 0 {
                    self.procs[initiator].op = Some(st);
                    return;
                }
                if st.granted.is_empty() {
                    // Everyone refused: abort with randomised backoff —
                    // without it, processors with identical load histories
                    // retrigger in lockstep and livelock forever (the
                    // thundering-herd failure mode the atomic model hides).
                    self.stats.aborted_ops += 1;
                    self.finish_op(initiator);
                    let jitter = self
                        .rng
                        .gen_range(0..=self.config.params.delta() as u64 + 1);
                    self.procs[initiator].l_old += jitter;
                    return;
                }
                // Compute ±1 shares over the initiator + granting members
                // from the *reported* loads.  Every member answers with
                // exactly one Transfer (possibly of 0 packets), so the
                // initiator simply counts them down.
                let own = self.procs[initiator].load;
                let total: u64 = own + st.granted.iter().map(|&(_, l)| l).sum::<u64>();
                let m = st.granted.len() + 1;
                let shares = dlb_core::balance::even_shares(total, m);
                st.own_share = shares[0];
                st.awaiting_transfers = st.granted.len();
                for (&(member, reported), &share) in st.granted.iter().zip(shares[1..].iter()) {
                    self.send(
                        initiator,
                        member,
                        Payload::TransferOrder {
                            op,
                            new_share: share,
                        },
                    );
                    if share > reported {
                        st.deficits.push((member, share - reported));
                    }
                }
                // The initiator's own surplus goes straight into the pool.
                if own > st.own_share {
                    let excess = own - st.own_share;
                    self.procs[initiator].load -= excess;
                    st.pool += excess;
                }
                self.procs[initiator].op = Some(st);
                if self.faulty() {
                    self.schedule_self(
                        initiator,
                        4 * self.config.latency.max(1),
                        Payload::SettleTimeout { op },
                    );
                }
                self.try_settle(initiator, op);
            }
            Payload::TransferOrder { op, new_share } => {
                if self.procs[ev.to].down {
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
                let me = &mut self.procs[ev.to];
                if me.locked_for != Some(op) {
                    return;
                }
                let excess = me.load.saturating_sub(new_share);
                me.load -= excess;
                me.locked = false;
                me.locked_for = None;
                me.l_old = me.load;
                if excess > 0 {
                    self.in_flight += excess;
                    self.stats.packets_moved += excess;
                    self.metrics.packets_migrated += excess;
                    if self.trace_on() {
                        self.emit(dlb_trace::TraceEvent::PacketsMigrated {
                            step: self.now,
                            initiator: ev.to as u64,
                            count: excess,
                        });
                    }
                }
                self.send(
                    ev.to,
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
                if self.procs[ev.to].down {
                    // Packets arriving at a dead processor follow the
                    // crash mode: destroyed, or frozen onto its queue.
                    match self.crash_mode() {
                        CrashMode::Lost => self.lost += amount,
                        CrashMode::Frozen => self.procs[ev.to].load += amount,
                    }
                    return;
                }
                let collecting =
                    final_for_sender && self.procs[ev.to].op.as_ref().is_some_and(|st| st.id == op);
                if collecting {
                    // The initiator pools the surplus until redistribution.
                    let st = self.procs[ev.to].op.as_mut().expect("checked above");
                    st.pool += amount;
                    st.awaiting_transfers = st.awaiting_transfers.saturating_sub(1);
                    self.try_settle(ev.to, op);
                } else {
                    // Plain delivery (deficit top-up, or a stale transfer
                    // for a finished op): the packets just arrive.
                    let me = &mut self.procs[ev.to];
                    me.load += amount;
                    if !me.locked {
                        me.l_old = me.load;
                    }
                }
            }
        }
    }

    /// If all surplus transfers arrived, redistribute the pool to the
    /// deficit members and finish.
    fn try_settle(&mut self, initiator: usize, op: u64) {
        let Some(st) = self.procs[initiator].op.as_ref() else {
            return;
        };
        if st.awaiting_replies > 0 || st.awaiting_transfers > 0 {
            return;
        }
        let st = self.procs[initiator].op.take().expect("checked above");
        let mut pool = st.pool;
        for &(member, need) in &st.deficits {
            let give = need.min(pool);
            pool -= give;
            if give > 0 {
                self.in_flight += give;
                self.stats.packets_moved += give;
                self.metrics.packets_migrated += give;
                if self.trace_on() {
                    self.emit(dlb_trace::TraceEvent::PacketsMigrated {
                        step: self.now,
                        initiator: initiator as u64,
                        count: give,
                    });
                }
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
        // Anything left over (rounding, stale loads) stays local.
        self.procs[initiator].load += pool;
        self.stats.completed_ops += 1;
        self.metrics.balance_ops += 1;
        self.finish_op(initiator);
    }

    fn finish_op(&mut self, initiator: usize) {
        let me = &mut self.procs[initiator];
        me.op = None;
        me.locked = false;
        me.locked_for = None;
        me.l_old = me.load;
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
        }
        actions.fill(-1);
        for t in steps..2 * steps {
            net.tick(t, &actions);
            net.check_conservation().unwrap();
        }
        net.quiesce();
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
}
