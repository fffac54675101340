//! A real threaded message-passing runtime executing the SPAA'93
//! balancing rule on live work packets.
//!
//! One OS thread per "processor"; each holds a queue of work packets of a
//! user type `T` and processes them with a user handler that may spawn
//! new packets (dynamic workload generation, §2).  After every queue
//! change the worker applies the paper's trigger: if its queue length has
//! grown or shrunk by the factor `f` since the last balancing it
//! participated in, it locks itself plus `δ` random partners (in index
//! order, so no deadlock) and equalises the queues (±1).  An idle worker
//! with a non-empty system keeps initiating balancing operations — the
//! "every processor has some load at any time" guarantee of §1.
//!
//! A worker's whole behaviour is one step, `pass`, which reads no wall
//! clock and never blocks on anything but a queue lock.  The thread
//! repeats it and parks briefly when a pass found nothing to do; the
//! tests drive the same `pass` from a seeded scheduler with no threads.
//!
//! This is the substrate the paper's applications (best-first branch &
//! bound [7, 8]) ran on; `examples/branch_and_bound.rs` drives it.
//!
//! # Fault injection
//!
//! [`ThreadedRuntime::run_with`] executes a `dlb-faults`
//! [`FaultPlan`]'s crash schedule.  Crash/recovery times are measured on
//! a logical clock that advances by one per processed packet (wall-clock
//! time would be non-deterministic and machine-dependent).  A crashed
//! worker stops processing; what happens to its queue follows the plan's
//! [`CrashMode`]:
//!
//! * [`CrashMode::Lost`] — the dying worker discards its queue; the
//!   packets are counted in [`RuntimeStats::lost_packets`] and the run
//!   completes without them.
//! * [`CrashMode::Frozen`] — survivors *take over* the dead worker's
//!   queue when a balancing operation detects the death (queue
//!   redistribution), so every packet is still processed.  ("Frozen"
//!   load would deadlock a run-to-completion runtime, so detection
//!   hands the queue to the living.)  A frozen plan that has every
//!   worker down at once is refused: no survivor is left to process the
//!   packet that would move the clock out of the window.
//!
//! A recovered worker rejoins empty-handed and refills through normal
//! balancing.  Message loss/duplication/jitter do not apply here — the
//! runtime's "messages" are mutex-protected queue operations that cannot
//! be dropped; the asynchronous simulator (`desim`) covers those faults.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::rng::stream;
use dlb_core::balance::{even_shares_into, sample_others_into};
use dlb_core::Params;
use dlb_faults::{CrashMode, FaultInjector, FaultPlan};
use dlb_trace::{merge_by_clock, SharedSink, TraceEvent};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Configuration of the threaded runtime.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Number of worker threads ("processors").
    pub workers: usize,
    /// Balancing neighbourhood size `δ`.
    pub delta: usize,
    /// Trigger factor `f` (`1 ≤ f < δ + 1`).
    pub f: f64,
    /// Master seed for the per-worker random streams.
    pub seed: u64,
}

impl RuntimeConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.params().map(drop)
    }

    /// The algorithm parameters this configuration describes — the one
    /// validated form of `(n, δ, f)`, carrying the trigger predicates.
    fn params(&self) -> Result<Params, String> {
        Params::new(self.workers, self.delta, self.f, 4).map_err(|e| e.to_string())
    }
}

/// Counters reported after a run.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Packets processed by each worker.
    pub processed: Vec<u64>,
    /// Balancing operations performed (across all workers).
    pub balance_ops: u64,
    /// Packets moved between queues by balancing.
    pub packets_moved: u64,
    /// Worker crashes applied by fault injection.
    pub crashes: u64,
    /// Worker recoveries applied by fault injection.
    pub recoveries: u64,
    /// Packets taken over from dead workers' queues ([`CrashMode::Frozen`]).
    pub redistributed_packets: u64,
    /// Packets destroyed by [`CrashMode::Lost`] crashes.
    pub lost_packets: u64,
}

impl RuntimeStats {
    /// Total packets processed.
    pub fn total_processed(&self) -> u64 {
        self.processed.iter().sum()
    }

    /// max/mean of the per-worker processed counts (1.0 when perfectly
    /// even).
    pub fn processing_imbalance(&self) -> f64 {
        let mean = self.total_processed() as f64 / self.processed.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        *self.processed.iter().max().expect("non-empty") as f64 / mean
    }
}

/// How long a worker with nothing to do parks before it looks again.
const PARK: Duration = Duration::from_millis(1);

/// Locks `m`, taking a poisoned lock as it is: no handler runs under
/// these locks, so only a bug in this module can poison one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's private, clock-stamped trace event buffer.
type TraceBuf = Mutex<Vec<(u64, TraceEvent)>>;

struct WorkerState<T> {
    queue: VecDeque<T>,
    l_old: u64,
}

/// The run's counters, shared by every worker.
#[derive(Default)]
struct Counters {
    /// Logical clock for the crash schedule: total packets processed.
    clock: AtomicU64,
    /// Packets queued or in a worker's hands; the run ends at 0.
    outstanding: AtomicI64,
    /// Set when a handler panicked: the packet in its hands is never
    /// counted off, so the run ends here instead.
    aborted: AtomicBool,
    balance_ops: AtomicU64,
    packets_moved: AtomicU64,
    redistributed: AtomicU64,
    lost: AtomicU64,
    crashes: AtomicU64,
    recoveries: AtomicU64,
    processed: Vec<AtomicU64>,
}

impl Counters {
    fn stats(&self) -> RuntimeStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        RuntimeStats {
            processed: self.processed.iter().map(get).collect(),
            balance_ops: get(&self.balance_ops),
            packets_moved: get(&self.packets_moved),
            crashes: get(&self.crashes),
            recoveries: get(&self.recoveries),
            redistributed_packets: get(&self.redistributed),
            lost_packets: get(&self.lost),
        }
    }
}

/// The first clock at which a frozen plan has every worker down, if
/// any.  Such a window never ends: the clock only advances when a packet
/// is processed, and the frozen queues keep packets outstanding.  Only a
/// crash can complete the set of down workers, so the crashes' `at`
/// values are the clocks to test.  The check is conservative — a run
/// may finish its work before that clock.
fn frozen_all_down(injector: &FaultInjector) -> Option<u64> {
    if injector.crash_mode() != CrashMode::Frozen {
        return None;
    }
    injector
        .crashes()
        .iter()
        .map(|c| c.at)
        .filter(|&at| (0..injector.n()).all(|p| injector.is_down(at, p)))
        .min()
}

/// Everything the workers share.
struct Shared<T> {
    params: Params,
    /// Master seed of the per-worker random streams.
    seed: u64,
    workers: Vec<Mutex<WorkerState<T>>>,
    injector: FaultInjector,
    counters: Counters,
    /// Per-worker trace buffers (one per node, locked independently so
    /// tracing never serialises the workers).  `None` when untraced.
    trace: Option<Vec<TraceBuf>>,
    /// Parking spot for workers with nothing to do (idle or crashed).
    /// Busy-waiting instead starves the productive workers of CPU on
    /// small machines — concurrent runtimes (e.g. the dlb-bnb test
    /// suite) then livelock each other.
    parking: (Mutex<()>, Condvar),
}

impl<T> Shared<T> {
    /// Sets up a run: `initial` is dealt round-robin over the queues.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the fault plan is invalid, or if
    /// the plan is frozen and has every worker down at once.
    fn new(config: RuntimeConfig, initial: Vec<T>, plan: FaultPlan, tracing: bool) -> Self {
        let params = config.params().expect("valid runtime configuration");
        let injector = FaultInjector::new(plan, config.workers).expect("valid fault plan");
        if let Some(at) = frozen_all_down(&injector) {
            panic!(
                "invalid fault plan: frozen crashes take every worker down at clock {at}, \
                 and no worker is left to move the clock to a recovery"
            );
        }
        let n = config.workers;
        let counters = Counters {
            outstanding: AtomicI64::new(initial.len() as i64),
            processed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            ..Counters::default()
        };
        let mut queues: Vec<VecDeque<T>> = (0..n).map(|_| VecDeque::new()).collect();
        for (k, item) in initial.into_iter().enumerate() {
            queues[k % n].push_back(item);
        }
        let workers = queues
            .into_iter()
            .map(|queue| {
                let l_old = queue.len() as u64;
                Mutex::new(WorkerState { queue, l_old })
            })
            .collect();
        Shared {
            params,
            seed: config.seed,
            workers,
            injector,
            counters,
            trace: tracing.then(|| (0..n).map(|_| Mutex::new(Vec::new())).collect()),
            parking: (Mutex::new(()), Condvar::new()),
        }
    }

    /// Stamps `event` with the logical `clock` and appends it to worker
    /// `id`'s private buffer.  No-op when tracing is off.
    fn emit(&self, id: usize, clock: u64, event: TraceEvent) {
        if let Some(bufs) = &self.trace {
            lock(&bufs[id]).push((clock, event));
        }
    }

    /// Wakes every parked worker — called when new packets appear, when
    /// balancing moved packets into possibly-parked workers' queues, and
    /// when the run completes.
    fn wake_all(&self) {
        self.parking.1.notify_all();
    }

    /// Parks the calling worker until woken or [`PARK`] passes.  The
    /// timeout bounds the cost of the benign notify/park race (wakers do
    /// not hold the parking mutex while updating state), so a missed
    /// wakeup delays a worker by at most `PARK` instead of losing it.
    fn park(&self) {
        let guard = lock(&self.parking.0);
        let c = &self.counters;
        if c.outstanding.load(Ordering::SeqCst) == 0 || c.aborted.load(Ordering::SeqCst) {
            return;
        }
        drop(self.parking.1.wait_timeout(guard, PARK));
    }

    /// Runs the trigger check for worker `id` and, when it fires (or
    /// `force` is set), a locked balance over the member group.  Returns
    /// whether any packets moved — an idle caller that pulled nothing
    /// can park.
    fn balance(&self, id: usize, rng: &mut impl Rng, force: bool) -> bool {
        // Trigger check against the own queue (racy read is fine — the
        // balance itself re-reads under locks).
        let (len, l_old) = {
            let st = lock(&self.workers[id]);
            (st.queue.len() as u64, st.l_old)
        };
        let params = &self.params;
        if !(force || params.grow_triggered(len, l_old) || params.shrink_triggered(len, l_old)) {
            return false;
        }

        let mut members: Vec<usize> = vec![id];
        sample_others_into(rng, self.workers.len(), id, params.delta(), &mut members);
        members.sort_unstable(); // lock order prevents deadlock
        let c = &self.counters;
        if self.trace.is_some() {
            // One read: the stamp the merge sorts by and the event's own
            // `step` must agree.
            let now = c.clock.load(Ordering::SeqCst);
            self.emit(
                id,
                now,
                TraceEvent::BalanceInitiated {
                    step: now,
                    initiator: id as u64,
                    partners: members
                        .iter()
                        .filter(|&&m| m != id)
                        .map(|&m| m as u64)
                        .collect(),
                    trigger: len as f64 / l_old.max(1) as f64,
                },
            );
        }
        let mut guards: Vec<_> = members.iter().map(|&m| lock(&self.workers[m])).collect();

        // Death detection under the locks: dead members never receive a
        // share; in Frozen mode their queue is taken over (redistributed
        // to the living), in Lost mode it is left for the owner to
        // discard.
        let now = c.clock.load(Ordering::SeqCst);
        let takeover = self.injector.crash_mode() == CrashMode::Frozen;
        let mut buffer: Vec<T> = Vec::new();
        let mut alive: Vec<usize> = Vec::with_capacity(members.len());
        for (k, &m) in members.iter().enumerate() {
            if m == id || !self.injector.is_down(now, m) {
                alive.push(k);
            } else if takeover {
                buffer.extend(guards[k].queue.drain(..).rev());
                guards[k].l_old = 0;
            }
        }
        if !buffer.is_empty() {
            c.redistributed
                .fetch_add(buffer.len() as u64, Ordering::Relaxed);
        }

        let total = alive.iter().map(|&k| guards[k].queue.len()).sum::<usize>() + buffer.len();
        let mut shares = Vec::with_capacity(alive.len());
        even_shares_into(total as u64, alive.len(), &mut shares);
        for (&k, &share) in alive.iter().zip(&shares) {
            while guards[k].queue.len() as u64 > share {
                buffer.push(guards[k].queue.pop_back().expect("len checked"));
            }
        }
        let moved = buffer.len() as u64;
        c.packets_moved.fetch_add(moved, Ordering::Relaxed);
        if moved > 0 {
            self.emit(
                id,
                now,
                TraceEvent::PacketsMigrated {
                    step: now,
                    initiator: id as u64,
                    count: moved,
                },
            );
        }
        for (&k, &share) in alive.iter().zip(&shares) {
            while (guards[k].queue.len() as u64) < share {
                guards[k]
                    .queue
                    .push_back(buffer.pop().expect("total conserved"));
            }
        }
        debug_assert!(buffer.is_empty());
        for &k in &alive {
            let len = guards[k].queue.len() as u64;
            guards[k].l_old = len;
        }
        c.balance_ops.fetch_add(1, Ordering::Relaxed);
        drop(guards);
        if moved > 0 {
            // Some members may be parked with freshly filled queues.
            self.wake_all();
        }
        moved > 0
    }
}

/// What one worker keeps from one pass to the next.
struct Local<T> {
    rng: ChaCha8Rng,
    /// The children of the packet in hand, counted before they are
    /// published.
    spawn_buf: Vec<T>,
    /// Whether the worker has booked a crash it has not recovered from.
    was_down: bool,
}

impl<T> Local<T> {
    fn new(seed: u64, id: usize) -> Self {
        Local {
            rng: stream(seed, id as u64),
            spawn_buf: Vec::new(),
            was_down: false,
        }
    }
}

/// What a [`pass`] did, and so what its worker does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Processed a packet or pulled work by balancing: pass again.
    Worked,
    /// Found no work to pull: wait for the queues to change.
    Idle,
    /// Down under the crash schedule: wait for the clock to end the
    /// window, which only other workers' packets advance.
    Down,
    /// The run is over for this worker.
    Done,
}

/// One step of worker `id`: leave, book a crash or a recovery, process
/// one packet, or try to pull work.  Reads no wall clock and never parks.
fn pass<T, F>(id: usize, shared: &Shared<T>, local: &mut Local<T>, handler: &F) -> Status
where
    F: Fn(usize, T, &mut Vec<T>),
{
    let c = &shared.counters;
    if c.aborted.load(Ordering::SeqCst) {
        return Status::Done;
    }
    let done = c.outstanding.load(Ordering::SeqCst) == 0;
    let now = c.clock.load(Ordering::SeqCst);
    // A worker the scheduler starts late may find the run already
    // over; it still books a crash the clock has reached before it
    // leaves, so the ledger does not depend on thread timing.
    let down = shared.injector.is_down(now, id);
    if done && (local.was_down || !down) {
        return Status::Done;
    }
    if down {
        if !local.was_down {
            local.was_down = true;
            c.crashes.fetch_add(1, Ordering::Relaxed);
            shared.emit(
                id,
                now,
                TraceEvent::FaultInjected {
                    step: now,
                    proc: id as u64,
                    kind: "crash".to_string(),
                },
            );
        }
        if shared.injector.crash_mode() == CrashMode::Lost {
            // Fail-stop with state loss: the queue dies with the worker.
            // Checked on every down pass, not only the booking one: a
            // worker that slept through the gap between two of its
            // crashes may have been handed packets in it, and nobody
            // else discards a lost worker's queue.
            let dropped = {
                let mut st = lock(&shared.workers[id]);
                st.l_old = 0;
                std::mem::take(&mut st.queue).len()
            };
            if dropped > 0 {
                c.lost.fetch_add(dropped as u64, Ordering::Relaxed);
                let left =
                    c.outstanding.fetch_sub(dropped as i64, Ordering::SeqCst) - dropped as i64;
                if left == 0 {
                    shared.wake_all();
                }
            }
        }
        return Status::Down;
    }
    if local.was_down {
        // Rejoin: start from whatever the queue holds now (empty unless
        // the system is mid-heal) and re-baseline l_old.
        local.was_down = false;
        c.recoveries.fetch_add(1, Ordering::Relaxed);
        shared.emit(
            id,
            now,
            TraceEvent::CrashRecovered {
                step: now,
                proc: id as u64,
            },
        );
        let mut st = lock(&shared.workers[id]);
        st.l_old = st.queue.len() as u64;
    }
    let popped = lock(&shared.workers[id]).queue.pop_front();
    let Some(item) = popped else {
        // Idle: force a balancing attempt to pull work.
        return if shared.balance(id, &mut local.rng, true) {
            Status::Worked
        } else {
            Status::Idle
        };
    };
    local.spawn_buf.clear();
    handler(id, item, &mut local.spawn_buf);
    c.processed[id].fetch_add(1, Ordering::Relaxed);
    c.clock.fetch_add(1, Ordering::SeqCst);
    let spawned = local.spawn_buf.len() as i64;
    // Count before publishing: once a child sits in the queue a thief
    // may steal and finish it at once, and its `-1` must never meet a
    // counter that does not hold it yet — a transient 0 sends every
    // other worker home with packets still queued.  This packet's own
    // `-1` comes last for the same reason.
    c.outstanding.fetch_add(spawned, Ordering::SeqCst);
    lock(&shared.workers[id])
        .queue
        .extend(local.spawn_buf.drain(..));
    let left = c.outstanding.fetch_sub(1, Ordering::SeqCst) - 1;
    if spawned > 0 || left == 0 {
        // New packets for idle workers to pull — or the run is over and
        // everyone should notice.
        shared.wake_all();
    }
    shared.balance(id, &mut local.rng, false);
    Status::Worked
}

/// Held by each worker thread: if its handler panics, the unwind marks
/// the run aborted and wakes everyone, so the other workers leave at
/// their next pass instead of waiting forever for the packet that died
/// with it, and the scope can re-raise the panic.
struct AbortOnUnwind<'a, T>(&'a Shared<T>);

impl<T> Drop for AbortOnUnwind<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.counters.aborted.store(true, Ordering::SeqCst);
            self.0.wake_all();
        }
    }
}

/// The threaded runtime.
pub struct ThreadedRuntime;

impl ThreadedRuntime {
    /// Processes `initial` work packets (and everything they spawn) to
    /// completion; `handler(worker, packet, spawn)` may push follow-up
    /// packets into `spawn`.
    ///
    /// Returns per-worker statistics.  Worker scheduling is
    /// non-deterministic, but packet conservation is exact: the run ends
    /// only when every packet has been processed.
    pub fn run<T, F>(config: RuntimeConfig, initial: Vec<T>, handler: F) -> RuntimeStats
    where
        T: Send,
        F: Fn(usize, T, &mut Vec<T>) + Sync,
    {
        Self::run_with(config, initial, FaultPlan::reliable(), None, handler)
    }

    /// Like [`ThreadedRuntime::run`], but executing the crash schedule
    /// of `plan` (see the module docs for the fault model) and, given a
    /// `trace` sink, recording trace events into it.
    ///
    /// The run ends when every surviving packet has been processed:
    /// `total_processed + lost_packets` equals the number of packets
    /// ever created.
    ///
    /// Each worker buffers its trace events privately, stamped with the
    /// logical clock (total packets processed); after the run the
    /// per-node buffers are merged deterministically by
    /// [`dlb_trace::merge_by_clock`] — ordered by `(clock, worker,
    /// emission order)` — and written to the sink in one pass.  The
    /// *merge* is deterministic; which events occur still depends on OS
    /// scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the fault plan is invalid, or if
    /// the plan is [`CrashMode::Frozen`] and has every worker down at
    /// some crash's `at` (such a run could never end).  A panic in
    /// `handler` ends the run: every worker leaves at its next pass and
    /// the panic is re-raised here.
    pub fn run_with<T, F>(
        config: RuntimeConfig,
        initial: Vec<T>,
        plan: FaultPlan,
        trace: Option<SharedSink>,
        handler: F,
    ) -> RuntimeStats
    where
        T: Send,
        F: Fn(usize, T, &mut Vec<T>) + Sync,
    {
        let tracing = trace.as_ref().is_some_and(SharedSink::enabled);
        let shared = Shared::new(config, initial, plan, tracing);
        std::thread::scope(|scope| {
            for id in 0..config.workers {
                let (shared, handler) = (&shared, &handler);
                scope.spawn(move || {
                    let _abort = AbortOnUnwind(shared);
                    let mut local = Local::new(shared.seed, id);
                    loop {
                        match pass(id, shared, &mut local, handler) {
                            Status::Done => return,
                            Status::Worked => {}
                            Status::Idle | Status::Down => shared.park(),
                        }
                    }
                });
            }
        });

        if let (Some(sink), Some(bufs)) = (&trace, shared.trace) {
            let per_node = bufs
                .into_iter()
                .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner));
            for event in merge_by_clock(per_node.collect()) {
                sink.record(&event);
            }
            sink.flush();
        }
        shared.counters.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_faults::CrashEvent;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn config(workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            workers,
            delta: 1,
            f: 1.3,
            seed: 42,
        }
    }

    #[test]
    fn config_validation() {
        assert!(config(4).validate().is_ok());
        assert!(RuntimeConfig {
            workers: 0,
            ..config(4)
        }
        .validate()
        .is_err());
        assert!(RuntimeConfig {
            delta: 0,
            ..config(4)
        }
        .validate()
        .is_err());
        assert!(RuntimeConfig {
            delta: 4,
            ..config(4)
        }
        .validate()
        .is_err());
        assert!(RuntimeConfig {
            f: f64::NAN,
            ..config(4)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn processes_every_packet_exactly_once() {
        let counter = TestCounter::new(0);
        let stats = ThreadedRuntime::run(config(4), (0..1000u32).collect(), |_, _, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(stats.total_processed(), 1000);
    }

    #[test]
    fn dynamic_tree_workload_completes_and_spreads() {
        // A binary task tree of depth 12 spawned from one root: 2^13 − 1
        // packets, all generated dynamically on whatever worker holds the
        // parent.  Each task carries real work — with free tasks a worker
        // drains its queue faster than balancing can spread it.
        let stats = ThreadedRuntime::run(config(8), vec![12u32], |_, depth, spawn| {
            let mut acc = 0u64;
            for i in 0..4_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            if depth > 0 {
                spawn.push(depth - 1);
                spawn.push(depth - 1);
            }
        });
        assert_eq!(stats.total_processed(), (1 << 13) - 1);
        // Balancing must have spread the dynamically generated work.
        assert!(stats.balance_ops > 0);
        // Spread assertions need real parallelism; on a single core the
        // OS scheduler, not the balancer, decides who runs.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        if cores >= 4 {
            let idle_workers = stats.processed.iter().filter(|&&p| p == 0).count();
            assert_eq!(
                idle_workers, 0,
                "every worker got work: {:?}",
                stats.processed
            );
            assert!(
                stats.processing_imbalance() < 3.0,
                "imbalance {} too high: {:?}",
                stats.processing_imbalance(),
                stats.processed
            );
        }
    }

    #[test]
    fn empty_initial_work_returns_immediately() {
        let stats = ThreadedRuntime::run(config(3), Vec::<u8>::new(), |_, _, _| {});
        assert_eq!(stats.total_processed(), 0);
    }

    #[test]
    fn single_worker_runs_serially() {
        let cfg = RuntimeConfig {
            workers: 2,
            delta: 1,
            f: 1.9,
            seed: 1,
        };
        let stats = ThreadedRuntime::run(cfg, vec![5u32], |_, depth, spawn| {
            if depth > 0 {
                spawn.push(depth - 1);
            }
        });
        assert_eq!(stats.total_processed(), 6);
    }

    #[test]
    fn frozen_crash_redistributes_and_completes() {
        // Worker 1 dies immediately and never recovers; survivors must
        // take over its share of the 800 packets and finish all of them.
        let plan = FaultPlan {
            crash_mode: CrashMode::Frozen,
            crashes: vec![CrashEvent {
                proc: 1,
                at: 0,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let stats =
            ThreadedRuntime::run_with(config(4), (0..800u32).collect(), plan, None, |_, _, _| {});
        assert_eq!(
            stats.total_processed(),
            800,
            "every packet survives a frozen crash"
        );
        assert_eq!(stats.lost_packets, 0);
        assert_eq!(stats.processed[1], 0, "the dead worker processed nothing");
        assert!(stats.crashes >= 1);
    }

    #[test]
    fn lost_crash_discards_the_queue_but_terminates() {
        let plan = FaultPlan {
            crash_mode: CrashMode::Lost,
            crashes: vec![CrashEvent {
                proc: 0,
                at: 0,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let stats =
            ThreadedRuntime::run_with(config(4), (0..800u32).collect(), plan, None, |_, _, _| {});
        // Conservation: every packet was either processed or destroyed by
        // the crash.
        assert_eq!(stats.total_processed() + stats.lost_packets, 800);
        assert_eq!(stats.processed[0], 0, "the dead worker processed nothing");
        assert!(stats.crashes >= 1);
    }

    #[test]
    fn traced_run_mirrors_stats_and_merges_in_clock_order() {
        let buf = dlb_trace::BufferSink::new();
        let stats = ThreadedRuntime::run_with(
            config(4),
            vec![10u32],
            FaultPlan::reliable(),
            Some(buf.handle()),
            |_, depth, spawn| {
                std::hint::black_box((0..500u64).sum::<u64>());
                if depth > 0 {
                    spawn.push(depth - 1);
                    spawn.push(depth - 1);
                }
            },
        );
        let events = buf.take();
        let balance_events = events
            .iter()
            .filter(|e| matches!(e, dlb_trace::TraceEvent::BalanceInitiated { .. }))
            .count() as u64;
        assert_eq!(balance_events, stats.balance_ops);
        let moved: u64 = events
            .iter()
            .filter_map(|e| match e {
                dlb_trace::TraceEvent::PacketsMigrated { count, .. } => Some(*count),
                _ => None,
            })
            .sum();
        assert_eq!(moved, stats.packets_moved);
        // merge_by_clock output is non-decreasing in the logical clock.
        let steps: Vec<u64> = events.iter().filter_map(|e| e.step()).collect();
        assert!(steps.windows(2).all(|w| w[0] <= w[1]), "{steps:?}");
    }

    #[test]
    fn null_sink_traced_run_buffers_nothing() {
        let sink = dlb_trace::SharedSink::new(dlb_trace::NullSink);
        let stats = ThreadedRuntime::run_with(
            config(2),
            (0..200u32).collect(),
            FaultPlan::reliable(),
            Some(sink),
            |_, _, _| {},
        );
        assert_eq!(stats.total_processed(), 200);
    }

    #[test]
    fn traced_crash_emits_fault_events() {
        let plan = FaultPlan {
            crash_mode: CrashMode::Frozen,
            crashes: vec![CrashEvent {
                proc: 1,
                at: 0,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let buf = dlb_trace::BufferSink::new();
        let stats = ThreadedRuntime::run_with(
            config(4),
            (0..800u32).collect(),
            plan,
            Some(buf.handle()),
            |_, _, _| {},
        );
        let events = buf.take();
        let faults = events
            .iter()
            .filter(|e| matches!(e, dlb_trace::TraceEvent::FaultInjected { .. }))
            .count() as u64;
        assert_eq!(faults, stats.crashes);
    }

    #[test]
    fn crashed_worker_rejoins_and_works_again() {
        // Worker 2 is down for the middle of the run (logical clock in
        // processed packets), then rejoins; the run still completes every
        // packet.
        let plan = FaultPlan {
            crash_mode: CrashMode::Frozen,
            crashes: vec![CrashEvent {
                proc: 2,
                at: 10,
                recover_at: Some(1_800),
            }],
            ..FaultPlan::default()
        };
        let stats =
            ThreadedRuntime::run_with(config(4), (0..2_000u32).collect(), plan, None, |_, _, _| {
                std::hint::black_box((0..2_000u64).sum::<u64>());
            });
        assert_eq!(stats.total_processed(), 2_000);
        assert_eq!(stats.lost_packets, 0);
        // The crash must have taken effect somewhere: either the worker
        // itself observed the down window, or a survivor detected the
        // death and took the queue over.  (Which one wins is a scheduling
        // race — on a loaded machine the worker thread may only get CPU
        // after the window closed.)
        assert!(
            stats.crashes >= 1 || stats.redistributed_packets > 0,
            "{stats:?}"
        );
    }

    /// Regression for the count-after-publish race: a chain of packets,
    /// each spawning one leaf and its successor, keeps `outstanding` at
    /// 1 whenever children are published, so a thief that finished the
    /// leaf before the parent had counted it drove the counter to 0,
    /// every other worker returned, and the run hung on packets stranded
    /// with them (or ended short).  Before the fix the release build of
    /// this test failed in 14 of 20 invocations on 2 vCPUs.
    #[test]
    fn termination_survives_children_finished_before_their_parent() {
        const DEPTH: u32 = 200;
        // ~3 s optimised; an unoptimised run is 4x slower per round.
        const ROUNDS: u64 = if cfg!(debug_assertions) { 1000 } else { 4000 };
        let (tx, rx) = std::sync::mpsc::channel();
        // The runs happen on a helper thread so a hang fails the test
        // instead of hanging it.
        std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let stats = ThreadedRuntime::run(
                    RuntimeConfig {
                        seed: round,
                        delta: 3, // every balance locks every queue
                        ..config(4)
                    },
                    vec![DEPTH],
                    |_, depth, spawn| {
                        if depth > 0 {
                            spawn.push(0);
                            spawn.push(depth - 1);
                        }
                    },
                );
                if tx.send(stats.total_processed()).is_err() {
                    return;
                }
            }
        });
        for round in 0..ROUNDS {
            let total = rx
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|_| panic!("run {round} did not terminate"));
            assert_eq!(total, 1 + 2 * u64::from(DEPTH), "run {round}");
        }
    }

    /// A handler that panics takes its packet's count with it.  Before
    /// the abort flag the other workers waited for that packet forever,
    /// so the scope never got to re-raise the panic and the run hung.
    #[test]
    fn a_panicking_handler_is_re_raised_not_waited_for() {
        let (tx, rx) = std::sync::mpsc::channel();
        // The run happens on a helper thread so a hang fails the test
        // instead of hanging it.
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                ThreadedRuntime::run(config(4), (0..400u32).collect(), |_, packet, _| {
                    assert_ne!(packet, 200, "packet 200 is poison");
                })
            });
            let _ = tx.send(outcome.is_err());
        });
        let raised = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("a panicking handler hung the run");
        assert!(raised, "the handler's panic must reach the caller");
    }

    #[test]
    #[should_panic(expected = "every worker down at clock 10")]
    fn a_frozen_plan_with_every_worker_down_is_refused() {
        // Nothing can end this window: the clock only advances when a
        // packet is processed, and the frozen queues keep packets
        // outstanding.  Before the refusal this run never returned.
        let plan = FaultPlan {
            crash_mode: CrashMode::Frozen,
            crashes: (0..3)
                .map(|proc| CrashEvent {
                    proc,
                    at: 10,
                    recover_at: Some(20),
                })
                .collect(),
            ..FaultPlan::default()
        };
        ThreadedRuntime::run_with(config(3), (0..300u32).collect(), plan, None, |_, _, _| {});
    }

    /// Passes a failing schedule may take before it counts as a hang.
    const PASS_BOUND: u64 = 50_000;

    /// A run stepped one whole `pass` at a time on the calling thread:
    /// between two passes no packet is in a worker's hands.
    struct Stepped {
        shared: Shared<u32>,
        locals: Vec<Local<u32>>,
        done: Vec<bool>,
        /// Children of every packet of depth > 0.
        fanout: u32,
        /// Packets ever created: the initial ones plus every child.
        created: Cell<u64>,
        passes: u64,
    }

    impl Stepped {
        fn new(config: RuntimeConfig, initial: Vec<u32>, plan: FaultPlan, fanout: u32) -> Self {
            Stepped {
                locals: (0..config.workers)
                    .map(|id| Local::new(config.seed, id))
                    .collect(),
                done: vec![false; config.workers],
                fanout,
                created: Cell::new(initial.len() as u64),
                shared: Shared::new(config, initial, plan, false),
                passes: 0,
            }
        }

        /// One pass of worker `id`, then the ledger.
        fn step(&mut self, id: usize) -> Result<(), String> {
            let (created, fanout) = (&self.created, self.fanout);
            let handler = |_: usize, depth: u32, spawn: &mut Vec<u32>| {
                if depth > 0 {
                    spawn.extend((0..fanout).map(|_| depth - 1));
                    created.set(created.get() + u64::from(fanout));
                }
            };
            let status = pass(id, &self.shared, &mut self.locals[id], &handler);
            self.done[id] = status == Status::Done;
            self.passes += 1;
            let stats = self.shared.counters.stats();
            let queued: u64 = self
                .shared
                .workers
                .iter()
                .map(|w| lock(w).queue.len() as u64)
                .sum();
            let held = stats.total_processed() + stats.lost_packets + queued;
            if held != self.created.get() {
                return Err(format!(
                    "pass {} (worker {id}): {} packets created, {held} accounted for",
                    self.passes,
                    self.created.get()
                ));
            }
            let outstanding = self.shared.counters.outstanding.load(Ordering::SeqCst);
            if outstanding != queued as i64 {
                return Err(format!(
                    "pass {} (worker {id}): outstanding {outstanding}, {queued} queued",
                    self.passes
                ));
            }
            Ok(())
        }

        /// Steps the workers `pick` chooses until every one has returned
        /// `Done`; `pick` sees which have.
        fn run(&mut self, mut pick: impl FnMut(&[bool]) -> usize) -> Result<(), String> {
            while !self.done.iter().all(|&d| d) {
                if self.passes == PASS_BOUND {
                    return Err(format!(
                        "not done after {PASS_BOUND} passes (done: {:?}, clock {})",
                        self.done,
                        self.shared.counters.clock.load(Ordering::SeqCst)
                    ));
                }
                let id = pick(&self.done);
                self.step(id)?;
            }
            self.finish()
        }

        /// The checks once every worker has returned `Done`.
        fn finish(&self) -> Result<(), String> {
            let stats = self.shared.counters.stats();
            if self
                .shared
                .workers
                .iter()
                .any(|w| !lock(w).queue.is_empty())
            {
                return Err("a queue still holds packets".into());
            }
            if stats.total_processed() + stats.lost_packets != self.created.get() {
                return Err(format!("{stats:?} for {} created", self.created.get()));
            }
            if stats.recoveries > stats.crashes {
                return Err(format!("more recoveries than crashes: {stats:?}"));
            }
            let now = self.shared.counters.clock.load(Ordering::SeqCst);
            if let Some(p) = (0..self.locals.len())
                .find(|&p| self.shared.injector.is_down(now, p) && !self.locals[p].was_down)
            {
                return Err(format!(
                    "worker {p} is down at clock {now} and left unbooked"
                ));
            }
            Ok(())
        }
    }

    /// A crash schedule for `n` workers over the first few dozen clock
    /// ticks, in either mode; a quarter of the plans take every worker
    /// down over one shared window.
    fn drawn_plan(rng: &mut ChaCha8Rng, n: usize) -> FaultPlan {
        let window = |rng: &mut ChaCha8Rng| {
            let at = rng.gen_range(0..60u64);
            (at, rng.gen_bool(0.75).then(|| at + rng.gen_range(1..60u64)))
        };
        let mut crashes: Vec<CrashEvent> = (0..rng.gen_range(0..=2 * n))
            .map(|_| {
                let (at, recover_at) = window(rng);
                CrashEvent {
                    proc: rng.gen_range(0..n),
                    at,
                    recover_at,
                }
            })
            .collect();
        if rng.gen_bool(0.25) {
            let (at, recover_at) = window(rng);
            crashes.extend((0..n).map(|proc| CrashEvent {
                proc,
                at,
                recover_at,
            }));
        }
        FaultPlan {
            crash_mode: if rng.gen_bool(0.5) {
                CrashMode::Frozen
            } else {
                CrashMode::Lost
            },
            crashes,
            ..FaultPlan::default()
        }
    }

    /// One seeded case: workers, payload, plan and schedule.
    fn stepped_case(seed: u64) -> Result<(), String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let workers = rng.gen_range(2..=5);
        let delta = rng.gen_range(1..workers);
        let config = RuntimeConfig {
            workers,
            delta,
            f: rng.gen_range(1.0..(delta + 1) as f64),
            seed,
        };
        let fanout = rng.gen_range(1..=3);
        let initial: Vec<u32> = (0..rng.gen_range(0..=16))
            .map(|_| rng.gen_range(0..=4))
            .collect();
        let plan = drawn_plan(&mut rng, workers);

        // A frozen plan that ever has every worker down is refused, and
        // nothing else is: scan every clock the plan can reach.
        let injector = FaultInjector::new(plan.clone(), workers).expect("drawn plans are valid");
        let last = plan.crashes.iter().map(|c| c.at).max().unwrap_or(0);
        let all_down = (0..=last).find(|&t| (0..workers).all(|p| injector.is_down(t, p)));
        let expected = all_down.filter(|_| plan.crash_mode == CrashMode::Frozen);
        let refused = frozen_all_down(&injector);
        if refused != expected {
            return Err(format!("refused at {refused:?}, expected {expected:?}"));
        }
        if refused.is_some() {
            return Ok(());
        }

        // Each worker runs with its own odds, and one of weight 0 sits
        // out the first `hold` passes unless nobody else is left: the
        // late starts a loaded machine gives threads.
        let weights: Vec<u32> = (0..workers).map(|_| rng.gen_range(0..=8)).collect();
        let hold = rng.gen_range(0..500u64);
        let mut passes = 0u64;
        Stepped::new(config, initial, plan, fanout).run(|done| {
            passes += 1;
            let live: Vec<usize> = (0..workers).filter(|&p| !done[p]).collect();
            let ready: Vec<usize> = live
                .iter()
                .copied()
                .filter(|&p| weights[p] > 0 || passes > hold)
                .collect();
            let ready = if ready.is_empty() { live } else { ready };
            let weight = |p: usize| weights[p].max(1);
            let mut ticket = rng.gen_range(0..ready.iter().map(|&p| weight(p)).sum::<u32>());
            for &p in &ready {
                if ticket < weight(p) {
                    return p;
                }
                ticket -= weight(p);
            }
            unreachable!("the ticket is below the total weight")
        })
    }

    proptest! {
        /// The real `pass` under seeded schedules: every packet is
        /// accounted for after every pass, and every worker returns.  A
        /// failure prints the seed; `stepped_case(seed)` replays it.
        #[test]
        fn every_schedule_of_passes_conserves_and_terminates(seed in any::<u64>()) {
            stepped_case(seed).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn a_late_worker_books_the_crash_its_clock_reached() {
        // Worker 2 dies at clock 5 and is first scheduled after the
        // other two have taken over its queue and finished the run.
        let plan = FaultPlan {
            crash_mode: CrashMode::Frozen,
            crashes: vec![CrashEvent {
                proc: 2,
                at: 5,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let mut run = Stepped::new(config(3), (0..30).map(|_| 0).collect(), plan, 1);
        let mut turn = 0;
        run.run(|done| {
            turn += 1;
            match (done[0], done[1]) {
                (true, true) => 2,
                (false, true) => 0,
                (true, false) => 1,
                (false, false) => turn % 2,
            }
        })
        .unwrap();
        let stats = run.shared.counters.stats();
        assert_eq!(stats.crashes, 1, "{stats:?}");
        assert_eq!(stats.processed[2], 0, "{stats:?}");
        assert_eq!(stats.total_processed(), 30, "{stats:?}");
        assert!(stats.redistributed_packets > 0, "{stats:?}");
    }

    #[test]
    fn a_lost_worker_discards_what_it_was_handed_between_two_crashes() {
        // Worker 1 books its first crash, then sleeps through its up
        // window 5..10, in which worker 0's balances hand it packets.
        // Nobody else discards a lost worker's queue: unless worker 1
        // does when it is down again, the run never ends.
        let plan = FaultPlan {
            crash_mode: CrashMode::Lost,
            crashes: vec![
                CrashEvent {
                    proc: 1,
                    at: 0,
                    recover_at: Some(5),
                },
                CrashEvent {
                    proc: 1,
                    at: 10,
                    recover_at: None,
                },
            ],
            ..FaultPlan::default()
        };
        let cfg = RuntimeConfig {
            f: 1.0,
            ..config(2)
        };
        let mut run = Stepped::new(cfg, (0..40).map(|_| 0).collect(), plan, 1);
        run.step(1).unwrap();
        while run.shared.counters.clock.load(Ordering::SeqCst) < 10 {
            run.step(0).unwrap();
        }
        assert!(!lock(&run.shared.workers[1]).queue.is_empty());
        let mut turn = 0;
        run.run(|done| {
            turn += 1;
            if done[0] || (!done[1] && turn % 2 == 1) {
                1
            } else {
                0
            }
        })
        .unwrap();
        let stats = run.shared.counters.stats();
        assert_eq!(stats.crashes, 1, "{stats:?}");
        assert!(stats.lost_packets > 20, "{stats:?}");
    }
}
