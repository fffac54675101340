//! Structured event tracing for the dlb simulators.
//!
//! The paper's §6 results bound the *number of balancing operations*
//! needed to track a workload change, and §7's claims are time-series
//! claims — neither is observable from end-of-run aggregates alone.
//! This crate defines a typed event vocabulary ([`TraceEvent`]), a
//! pluggable consumer trait ([`TraceSink`]) and the stock sinks:
//!
//! * [`NullSink`] — reports itself disabled so emitters skip event
//!   construction entirely; attaching it costs one branch per site.
//! * [`BufferSink`] — collects events in memory for the caller to take
//!   back out (tests and the benchmark's replay).
//! * [`FileSink`] — byte-stable JSONL from the one encoder,
//!   [`TraceEvent::write_line`]: the same run always produces the same
//!   bytes, which is what lets CI diff traces across `--jobs` values.
//! * [`RunOrderedWriter`] — one JSONL file that concurrent runs stream
//!   into through per-run handles, written in run-index order.
//!
//! Events carry a logical step/time so multi-threaded producers can
//! buffer locally and merge deterministically ([`merge_by_clock`]).
//!
//! The line format is versioned ([`SCHEMA_VERSION`]); parsers reject
//! lines they cannot round-trip, so the schema cannot drift silently.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

use dlb_json::{req, FromJson, Json};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

/// Version of the JSONL event schema emitted by [`TraceEvent::to_line`].
///
/// Bump on any change to tags, field names or field meaning, and record
/// the change in DESIGN.md.
///
/// v2 added the per-request serving events (`req`, `req_done`,
/// `redirect`); every v1 event renders byte-identically to v1.
///
/// v3 added `handoff` (`AcceptorHandoff`): an acceptor thread of a
/// since-removed threaded serving driver sent a rebalance donation plan
/// to a peer acceptor's inbox; every v2 event renders byte-identically
/// to v2.
///
/// v4 added `arena` (`ArenaContender`): the balancer arena announces
/// which contender the following run belongs to, making a multi-strategy
/// league trace self-describing; every v3 event renders byte-identically
/// to v3.
pub const SCHEMA_VERSION: u64 = 4;

/// One observable event in a simulation run.
///
/// `step` is the substrate's logical clock: the driver step for the
/// synchronous clusters, simulated time for the desim event loop, and
/// packets-processed for the threaded runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A run began; carries enough of the configuration to make the
    /// trace self-describing (`trace_analyze` rebuilds the Lemma 5/6
    /// bounds from `n`, `delta`, `f`, `c`).
    RunStarted {
        run: u64,
        seed: u64,
        n: u64,
        strategy: String,
        delta: u64,
        f: f64,
        c: u64,
    },
    /// A processor's trigger fired and it started a balancing operation
    /// with the sampled `partners`. `trigger` is the f-factor ratio
    /// (current self-generated load over the value at the last balance).
    BalanceInitiated {
        step: u64,
        initiator: u64,
        partners: Vec<u64>,
        trigger: f64,
    },
    /// `count` packets left `initiator` during one balancing operation.
    PacketsMigrated {
        step: u64,
        initiator: u64,
        count: u64,
    },
    /// `count` borrowed-packet markers moved off `initiator`.
    MarkerMoved {
        step: u64,
        initiator: u64,
        count: u64,
    },
    /// The fault injector fired: `kind` is one of `loss`,
    /// `transfer_loss`, `duplicate` or `crash`.
    FaultInjected { step: u64, proc: u64, kind: String },
    /// A crashed processor rejoined.
    CrashRecovered { step: u64, proc: u64 },
    /// Wall-clock profile of one driver step (only emitted under
    /// `--profile`; wall times are machine-dependent by nature).
    StepProfile { step: u64, wall_ns: u64, ops: u64 },
    /// Per-step increments of the engine's `Metrics` counters (zero
    /// entries omitted). Summing the deltas over a run reproduces the
    /// run's final `Metrics` exactly.
    StepDelta {
        step: u64,
        counters: Vec<(String, u64)>,
    },
    /// Load distribution snapshot after one driver step.
    LoadSample {
        step: u64,
        min: u64,
        max: u64,
        total: u64,
    },
    /// `dlb-serve`: a request was placed on a shard (`step` is its
    /// arrival tick).
    RequestRouted { step: u64, req: u64, shard: u64 },
    /// `dlb-serve`: a request finished service; `latency_ticks` is
    /// measured from its *scheduled* arrival (open-loop, so queue delay
    /// under overload is charged to the service, not hidden).
    RequestCompleted {
        step: u64,
        req: u64,
        shard: u64,
        latency_ticks: u64,
    },
    /// `dlb-serve`: `count` queued requests moved between shards — a
    /// trigger-rule rebalance or a crash redistribution.  The service
    /// analogue of `PacketsMigrated`.
    RequestsRedirected {
        step: u64,
        from: u64,
        to: u64,
        count: u64,
    },
    /// `dlb-serve`'s since-removed threaded driver, when it had several
    /// acceptors: acceptor `from` handed acceptor `to` a rebalance
    /// donation plan covering `count` queued requests (0 for a pure
    /// trigger-baseline reset).
    /// Nothing emits it any more; the row stays so that v3/v4 traces
    /// written then still parse, until the next schema version drops
    /// it.
    AcceptorHandoff {
        step: u64,
        from: u64,
        to: u64,
        count: u64,
    },
    /// Balancer arena: the following run belongs to contender `label`
    /// (its `LoadBalancer::name` is `strategy`), driven by `seed`.  Like
    /// the run delimiters it orders by position, not by step.
    ArenaContender {
        run: u64,
        label: String,
        strategy: String,
        seed: u64,
    },
    /// A run finished.
    RunFinished { run: u64 },
}

impl TraceEvent {
    /// The logical step/time the event is anchored to (`None` for the
    /// run delimiters, which order by position instead).
    pub fn step(&self) -> Option<u64> {
        match self {
            TraceEvent::RunStarted { .. }
            | TraceEvent::ArenaContender { .. }
            | TraceEvent::RunFinished { .. } => None,
            TraceEvent::BalanceInitiated { step, .. }
            | TraceEvent::PacketsMigrated { step, .. }
            | TraceEvent::MarkerMoved { step, .. }
            | TraceEvent::FaultInjected { step, .. }
            | TraceEvent::CrashRecovered { step, .. }
            | TraceEvent::StepProfile { step, .. }
            | TraceEvent::StepDelta { step, .. }
            | TraceEvent::LoadSample { step, .. }
            | TraceEvent::RequestRouted { step, .. }
            | TraceEvent::RequestCompleted { step, .. }
            | TraceEvent::RequestsRedirected { step, .. }
            | TraceEvent::AcceptorHandoff { step, .. } => Some(*step),
        }
    }

    /// Renders the event as one compact JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        // Lines run 40–90 bytes; growing from empty would reallocate
        // four times on the way there.
        let mut out = Vec::with_capacity(128);
        self.write_line(&mut out);
        String::from_utf8(out).expect("write_line emits UTF-8")
    }

    /// Appends the event's JSONL line (no trailing newline) to `out`,
    /// which is never cleared.  A one-off line renders its float without
    /// a `FloatCache`: an event carries at most one, so a fresh cache
    /// could not hit.
    pub fn write_line(&self, out: &mut Vec<u8>) {
        let mut enc = Encoder {
            out: std::mem::take(out),
            floats: None,
        };
        self.encode(&mut enc);
        *out = enc.out;
    }

    /// Parses one JSONL line back into an event.
    pub fn from_line(line: &str) -> Result<TraceEvent, String> {
        let v = Json::parse(line)?;
        TraceEvent::from_json(&v)
    }
}

/// Expands the wire schema — variant, tag, then `field "key"` in line
/// order — into the encoder and the decoder, so the two cannot disagree
/// on a tag, a key or the field order.
macro_rules! wire_schema {
    ($($variant:ident $tag:literal { $($field:ident $key:literal),* })*) => {
        impl TraceEvent {
            /// Appends the event's JSONL line (no trailing newline) to
            /// `enc.out` — the one encoder: a `match` whose arms append
            /// literal `{"t":"tag"` / `,"key":` prefixes and each field's
            /// bytes.  The result is `dlb-json`'s compact canonical form,
            /// pinned by the literal lines in this crate's tests and by
            /// `results/trace_checksums.txt`.
            fn encode(&self, enc: &mut Encoder) {
                match self {
                    $(TraceEvent::$variant { $($field),* } => {
                        enc.out.extend_from_slice(concat!("{\"t\":\"", $tag, "\"").as_bytes());
                        $(
                            enc.out.extend_from_slice(concat!(",\"", $key, "\":").as_bytes());
                            $field.put(enc);
                        )*
                    })*
                }
                enc.out.push(b'}');
            }
        }

        impl FromJson for TraceEvent {
            fn from_json(v: &Json) -> Result<Self, String> {
                let tag: String = req(v, "t")?;
                match tag.as_str() {
                    $($tag => Ok(TraceEvent::$variant { $($field: Wire::get(v, $key)?),* }),)*
                    other => Err(format!("field 't': unknown event tag '{other}'")),
                }
            }
        }
    };
}

wire_schema! {
    RunStarted "run_start" {
        run "run", seed "seed", n "n", strategy "strategy", delta "delta", f "f", c "c"
    }
    BalanceInitiated "balance" {
        step "step", initiator "init", partners "partners", trigger "trigger"
    }
    PacketsMigrated "packets" { step "step", initiator "init", count "count" }
    MarkerMoved "marker" { step "step", initiator "init", count "count" }
    FaultInjected "fault" { step "step", proc "proc", kind "kind" }
    CrashRecovered "recover" { step "step", proc "proc" }
    StepProfile "profile" { step "step", wall_ns "wall_ns", ops "ops" }
    StepDelta "delta" { step "step", counters "counters" }
    LoadSample "load" { step "step", min "min", max "max", total "total" }
    RequestRouted "req" { step "step", req "req", shard "shard" }
    RequestCompleted "req_done" {
        step "step", req "req", shard "shard", latency_ticks "latency_ticks"
    }
    RequestsRedirected "redirect" { step "step", from "from", to "to", count "count" }
    AcceptorHandoff "handoff" { step "step", from "from", to "to", count "count" }
    ArenaContender "arena" { run "run", label "label", strategy "strategy", seed "seed" }
    RunFinished "run_end" { run "run" }
}

/// The encoding state a sink keeps from line to line: the bytes it has
/// encoded and not yet handed on, and the floats it rendered before.
struct Encoder {
    out: Vec<u8>,
    floats: Option<Box<FloatCache>>,
}

impl Encoder {
    /// An empty buffer with an empty float cache.
    fn cached() -> Self {
        Encoder {
            out: Vec::new(),
            floats: Some(Box::new(FloatCache::new())),
        }
    }

    /// Appends `event`'s line and its newline to `out`.
    fn line(&mut self, event: &TraceEvent) {
        event.encode(self);
        self.out.push(b'\n');
    }
}

/// Slots in a [`FloatCache`], as a power of two.
const FLOAT_SLOT_BITS: u32 = 8;

/// A float's `{}` bytes, keyed by its bits.  A renderer caches only
/// finite values, so a slot holding the bits of a NaN is empty.
#[derive(Clone, Copy)]
struct FloatSlot {
    bits: u64,
    len: u8,
    bytes: [u8; 31],
}

/// A direct-mapped table of rendered floats.  A trace repeats a few
/// dozen distinct `trigger` ratios hundreds of thousands of times, and
/// `{}`'s shortest-round-trip search is most of a `balance` line's
/// encoding cost; a hit copies the bytes `{}` produced the first time.
/// Renderings longer than a slot are not cached.
struct FloatCache {
    slots: [FloatSlot; 1 << FLOAT_SLOT_BITS],
}

impl FloatCache {
    fn new() -> Self {
        let empty = FloatSlot {
            bits: f64::NAN.to_bits(),
            len: 0,
            bytes: [0; 31],
        };
        FloatCache {
            slots: [empty; 1 << FLOAT_SLOT_BITS],
        }
    }

    /// Appends finite `x` exactly as `{}` renders it.
    fn put(&mut self, x: f64, out: &mut Vec<u8>) {
        let bits = x.to_bits();
        // Fibonacci hashing: the top bits of the product mix every bit
        // of the key, so ratios that differ only low in the mantissa
        // still spread over the table.
        let index = bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FLOAT_SLOT_BITS);
        let slot = &mut self.slots[index as usize];
        if slot.bits == bits {
            out.extend_from_slice(&slot.bytes[..usize::from(slot.len)]);
            return;
        }
        let at = out.len();
        render_float(x, out);
        let rendered = &out[at..];
        if let Some(dst) = slot.bytes.get_mut(..rendered.len()) {
            dst.copy_from_slice(rendered);
            // At most 31: `get_mut` checked it.
            #[allow(clippy::cast_possible_truncation)]
            let len = rendered.len() as u8;
            slot.len = len;
            slot.bits = bits;
        }
    }
}

/// `{}` is the shortest round-trippable decimal.
fn render_float(x: f64, out: &mut Vec<u8>) {
    write!(out, "{x}").expect("writing to a Vec cannot fail");
}

/// One field's value on the wire.
trait Wire: Sized {
    /// Appends the value's JSON bytes, exactly as `dlb-json` renders them.
    fn put(&self, enc: &mut Encoder);

    /// Reads field `key` of the line's object.
    fn get(obj: &Json, key: &str) -> Result<Self, String>;
}

impl Wire for u64 {
    fn put(&self, enc: &mut Encoder) {
        let mut v = *self;
        let mut digits = [0u8; 20]; // u64::MAX has 20 digits
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        enc.out.extend_from_slice(&digits[at..]);
    }

    fn get(obj: &Json, key: &str) -> Result<Self, String> {
        req(obj, key)
    }
}

impl Wire for f64 {
    /// JSON has no non-finite numbers, so those render as `null`.
    fn put(&self, enc: &mut Encoder) {
        match &mut enc.floats {
            _ if !self.is_finite() => enc.out.extend_from_slice(b"null"),
            Some(cache) => cache.put(*self, &mut enc.out),
            None => render_float(*self, &mut enc.out),
        }
    }

    fn get(obj: &Json, key: &str) -> Result<Self, String> {
        req(obj, key)
    }
}

impl Wire for String {
    /// Every escaped byte is ASCII, so scanning bytes never splits a
    /// UTF-8 sequence and the runs between escapes are copied whole.
    fn put(&self, enc: &mut Encoder) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let out = &mut enc.out;
        out.push(b'"');
        let bytes = self.as_bytes();
        let mut copied = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let mut unicode = *b"\\u0000";
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => {
                    unicode[4] = HEX[usize::from(b >> 4)];
                    unicode[5] = HEX[usize::from(b & 0xf)];
                    &unicode
                }
                _ => continue,
            };
            out.extend_from_slice(&bytes[copied..i]);
            out.extend_from_slice(escape);
            copied = i + 1;
        }
        out.extend_from_slice(&bytes[copied..]);
        out.push(b'"');
    }

    fn get(obj: &Json, key: &str) -> Result<Self, String> {
        req(obj, key)
    }
}

impl Wire for Vec<u64> {
    fn put(&self, enc: &mut Encoder) {
        enc.out.push(b'[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                enc.out.push(b',');
            }
            v.put(enc);
        }
        enc.out.push(b']');
    }

    fn get(obj: &Json, key: &str) -> Result<Self, String> {
        req(obj, key)
    }
}

/// `StepDelta`'s counters: an object in insertion order.
impl Wire for Vec<(String, u64)> {
    fn put(&self, enc: &mut Encoder) {
        enc.out.push(b'{');
        for (i, (key, v)) in self.iter().enumerate() {
            if i > 0 {
                enc.out.push(b',');
            }
            key.put(enc);
            enc.out.push(b':');
            v.put(enc);
        }
        enc.out.push(b'}');
    }

    fn get(obj: &Json, key: &str) -> Result<Self, String> {
        match dlb_json::field(obj, key)? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| {
                    let count =
                        u64::from_json(v).map_err(|e| format!("field '{key}': '{k}': {e}"))?;
                    Ok((k.clone(), count))
                })
                .collect(),
            _ => Err(format!("'{key}' is not an object")),
        }
    }
}

/// Consumer of trace events.
///
/// `record` takes the event by reference so a disabled sink costs no
/// clone; `enabled` lets emitters skip building events at all.
pub trait TraceSink {
    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}

    /// Takes the first I/O error the sink hit, if any.  `record` and
    /// `flush` cannot fail, so a sink that writes somewhere reports
    /// here; ask once, after the final `flush`.
    fn take_error(&mut self) -> Option<std::io::Error> {
        None
    }

    /// Whether emitters should bother constructing events. Stock sinks
    /// return `true`; [`NullSink`] returns `false`, which is what makes
    /// "tracing disabled" a single predictable branch per site.
    fn enabled(&self) -> bool {
        true
    }
}

/// Discards everything; reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Streams events as JSONL to a buffered writer; one event per line,
/// byte-stable for identical event sequences.
///
/// `record` cannot return an error, so the sink keeps the first
/// `io::Error`, drops every later event, and hands the error back from
/// [`FileSink::into_inner`] or [`TraceSink::take_error`].
pub struct FileSink<W: std::io::Write> {
    out: std::io::BufWriter<W>,
    line: Encoder,
    error: Option<std::io::Error>,
}

/// Bytes a trace writer buffers before it hands them to the file.
const CHUNK: usize = 64 * 1024;

/// Creates (truncating) `path`, and its directory if missing.
fn create_file(path: &std::path::Path) -> std::io::Result<std::fs::File> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::File::create(path)
}

impl FileSink<std::fs::File> {
    /// Creates (truncating) `path` and streams JSONL into it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(FileSink::from_writer(create_file(path)?))
    }
}

impl<W: std::io::Write> FileSink<W> {
    /// Streams JSONL into an arbitrary writer (tests use `Vec<u8>`).
    pub fn from_writer(w: W) -> Self {
        FileSink {
            out: std::io::BufWriter::with_capacity(CHUNK, w),
            line: Encoder::cached(),
            error: None,
        }
    }

    /// Flushes and returns the inner writer, or the first write error.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.into_inner().map_err(|e| e.into_error()),
        }
    }
}

impl<W: std::io::Write> TraceSink for FileSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.out.clear();
        self.line.line(event);
        self.error = self.out.write_all(&self.line.out).err();
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            self.error = self.out.flush().err();
        }
    }

    fn take_error(&mut self) -> Option<std::io::Error> {
        self.error.take()
    }
}

/// Cheaply cloneable, thread-safe handle to a sink.
///
/// Engines store an `Option<SharedSink>`; `enabled` is sampled once at
/// construction so the per-event hot path with a [`NullSink`] attached
/// is a branch, not a mutex acquisition.
#[derive(Clone)]
pub struct SharedSink {
    inner: Arc<Mutex<dyn TraceSink + Send>>,
    enabled: bool,
}

impl SharedSink {
    /// Wraps any sink in a shared handle.
    pub fn new<S: TraceSink + Send + 'static>(sink: S) -> Self {
        let enabled = sink.enabled();
        SharedSink {
            inner: Arc::new(Mutex::new(sink)),
            enabled,
        }
    }

    /// Whether emitters should construct events for this sink.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event.
    pub fn record(&self, event: &TraceEvent) {
        if self.enabled {
            self.inner.lock().expect("sink lock").record(event);
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        self.inner.lock().expect("sink lock").flush();
    }

    /// Takes the underlying sink's first I/O error, if any.
    pub fn take_error(&self) -> Option<std::io::Error> {
        self.inner.lock().expect("sink lock").take_error()
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl TraceSink for SharedSink {
    fn record(&mut self, event: &TraceEvent) {
        SharedSink::record(self, event);
    }

    fn flush(&mut self) {
        SharedSink::flush(self);
    }

    fn take_error(&mut self) -> Option<std::io::Error> {
        SharedSink::take_error(self)
    }

    fn enabled(&self) -> bool {
        self.enabled
    }
}

/// In-memory collector whose contents can be taken back out — the
/// bridge between engine-held [`SharedSink`]s and callers that need the
/// events themselves afterwards (tests, the benchmark's replay).  To
/// write runs to a file, use [`RunOrderedWriter`]: it never holds a
/// whole trace.
#[derive(Clone, Default)]
pub struct BufferSink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl BufferSink {
    /// An empty collector.
    pub fn new() -> Self {
        BufferSink::default()
    }

    /// A [`SharedSink`] handle feeding this collector.
    pub fn handle(&self) -> SharedSink {
        SharedSink::new(self.clone())
    }

    /// Takes the collected events, leaving the collector empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("buffer lock"))
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.lock().expect("buffer lock").push(event.clone());
    }
}

/// One JSONL stream that runs executing at the same time write in
/// run-index order, so the bytes do not depend on how many run at once.
///
/// Each run records through its own [`handle`](Self::handle), which
/// encodes events as they arrive.  While it is run `r`'s turn — every
/// run before `r` has ended — its bytes go to the shared 64 KiB writer
/// each time they pass 64 KiB; a run that ends ahead of its turn parks
/// its bytes until then.  A run ends when its handle is flushed or
/// dropped, whichever comes first, so a run that stops early on an
/// error does not hold back the runs after it.
///
/// Like [`FileSink`], the writer keeps the first `io::Error`, drops
/// every later byte, and returns the error from
/// [`into_inner`](Self::into_inner).
pub struct RunOrderedWriter<W: std::io::Write> {
    turns: Arc<Mutex<Turns<W>>>,
}

/// The state the runs of a [`RunOrderedWriter`] share.
struct Turns<W: std::io::Write> {
    out: std::io::BufWriter<W>,
    /// The run whose bytes go to `out` now: every run before it has
    /// ended.
    turn: usize,
    /// Runs that ended ahead of their turn, by index.
    parked: BTreeMap<usize, Vec<u8>>,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> Turns<W> {
    fn write(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            self.error = self.out.write_all(bytes).err();
        }
    }

    /// Run `run` ended with `bytes` still unwritten.
    fn end(&mut self, run: usize, bytes: Vec<u8>) {
        if run != self.turn {
            self.parked.insert(run, bytes);
            return;
        }
        self.write(&bytes);
        self.turn += 1;
        while let Some(bytes) = self.parked.remove(&self.turn) {
            self.write(&bytes);
            self.turn += 1;
        }
    }
}

impl RunOrderedWriter<std::fs::File> {
    /// Creates (truncating) `path` — before any run starts, so a path
    /// that cannot be created costs no simulation.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(RunOrderedWriter::from_writer(create_file(path)?))
    }
}

impl<W: std::io::Write + Send + 'static> RunOrderedWriter<W> {
    /// Streams into an arbitrary writer (tests use `Vec<u8>`).
    pub fn from_writer(w: W) -> Self {
        RunOrderedWriter {
            turns: Arc::new(Mutex::new(Turns {
                out: std::io::BufWriter::with_capacity(CHUNK, w),
                turn: 0,
                parked: BTreeMap::new(),
                error: None,
            })),
        }
    }

    /// The sink run `run` records into; take one per run index.
    pub fn handle(&self, run: usize) -> SharedSink {
        SharedSink::new(RunSink {
            run,
            line: Encoder::cached(),
            next_try: CHUNK,
            turns: Arc::clone(&self.turns),
            ended: false,
        })
    }

    /// Writes what is still parked, flushes, and returns the inner
    /// writer or the first write error.  Runs whose predecessor never
    /// took a handle are written last, still in index order.
    ///
    /// # Panics
    ///
    /// Panics when a handle is still alive: its run has not ended.
    pub fn into_inner(self) -> std::io::Result<W> {
        let mut turns = Arc::into_inner(self.turns)
            .expect("every run handle is dropped before the trace is finished")
            .into_inner()
            .expect("trace writer lock");
        for bytes in std::mem::take(&mut turns.parked).into_values() {
            turns.write(&bytes);
        }
        match turns.error {
            Some(e) => Err(e),
            None => turns.out.into_inner().map_err(|e| e.into_error()),
        }
    }
}

/// A [`RunOrderedWriter`]'s per-run sink.
struct RunSink<W: std::io::Write> {
    run: usize,
    line: Encoder,
    /// The length of `line.out` at which to try the shared writer next.
    next_try: usize,
    turns: Arc<Mutex<Turns<W>>>,
    ended: bool,
}

impl<W: std::io::Write> RunSink<W> {
    fn end(&mut self) {
        if std::mem::replace(&mut self.ended, true) {
            return;
        }
        // Also reached from `drop`, which must not panic: a poisoned
        // lock means another run panicked, and that panic is the report.
        if let Ok(mut turns) = self.turns.lock() {
            turns.end(self.run, std::mem::take(&mut self.line.out));
        }
    }
}

impl<W: std::io::Write> TraceSink for RunSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        debug_assert!(!self.ended, "run {} recorded after it ended", self.run);
        self.line.line(event);
        if self.line.out.len() < self.next_try {
            return;
        }
        let mut turns = self.turns.lock().expect("trace writer lock");
        if turns.turn == self.run {
            turns.write(&self.line.out);
            self.line.out.clear();
            self.next_try = CHUNK;
        } else {
            self.next_try = self.line.out.len() + CHUNK;
        }
    }

    /// Ends the run: its bytes are written or parked.
    fn flush(&mut self) {
        self.end();
    }
}

impl<W: std::io::Write> Drop for RunSink<W> {
    fn drop(&mut self) {
        self.end();
    }
}

/// Deterministically merges per-producer event streams by logical
/// clock.
///
/// Each stream is a producer's locally-ordered `(clock, event)` buffer.
/// Events are ordered by `(clock, producer index, position)` — a total
/// order independent of thread scheduling, so the merged trace of a
/// threaded run is reproducible.
pub fn merge_by_clock(streams: Vec<Vec<(u64, TraceEvent)>>) -> Vec<TraceEvent> {
    let mut keyed: Vec<(u64, usize, usize, TraceEvent)> = Vec::new();
    for (producer, stream) in streams.into_iter().enumerate() {
        for (pos, (clock, event)) in stream.into_iter().enumerate() {
            keyed.push((clock, producer, pos, event));
        }
    }
    keyed.sort_by_key(|&(clock, producer, pos, _)| (clock, producer, pos));
    keyed.into_iter().map(|(_, _, _, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStarted {
                run: 3,
                seed: 42,
                n: 64,
                strategy: "spaa93-full".into(),
                delta: 1,
                f: 1.1,
                c: 4,
            },
            TraceEvent::BalanceInitiated {
                step: 17,
                initiator: 5,
                partners: vec![9, 2, 61],
                trigger: 1.25,
            },
            TraceEvent::PacketsMigrated {
                step: 17,
                initiator: 5,
                count: 12,
            },
            TraceEvent::MarkerMoved {
                step: 17,
                initiator: 5,
                count: 2,
            },
            TraceEvent::FaultInjected {
                step: 30,
                proc: 7,
                kind: "loss".into(),
            },
            TraceEvent::CrashRecovered { step: 44, proc: 7 },
            TraceEvent::StepProfile {
                step: 17,
                wall_ns: 12345,
                ops: 3,
            },
            TraceEvent::StepDelta {
                step: 17,
                counters: vec![("balance_ops".into(), 1), ("packets_migrated".into(), 12)],
            },
            TraceEvent::LoadSample {
                step: 17,
                min: 0,
                max: 31,
                total: 512,
            },
            TraceEvent::RequestRouted {
                step: 90,
                req: 1001,
                shard: 6,
            },
            TraceEvent::RequestCompleted {
                step: 95,
                req: 1001,
                shard: 6,
                latency_ticks: 5,
            },
            TraceEvent::RequestsRedirected {
                step: 96,
                from: 6,
                to: 2,
                count: 14,
            },
            TraceEvent::AcceptorHandoff {
                step: 97,
                from: 0,
                to: 1,
                count: 9,
            },
            TraceEvent::ArenaContender {
                run: 3,
                label: "quasirandom".into(),
                strategy: "quasirandom".into(),
                seed: 99,
            },
            TraceEvent::RunFinished { run: 3 },
        ]
    }

    /// Inputs built to reach every escape, the `null` float rule, the
    /// 20-digit integer and `{}`'s widest and narrowest float forms.
    fn hostile_events() -> Vec<TraceEvent> {
        let nasty = "q\"b\\s\nl\u{1}\r\t\u{1f}\u{7f}é😀";
        vec![
            TraceEvent::RunStarted {
                run: u64::MAX,
                seed: u64::MAX,
                n: u64::MAX,
                strategy: nasty.into(),
                delta: u64::MAX,
                f: 1e21,
                c: u64::MAX,
            },
            TraceEvent::BalanceInitiated {
                step: u64::MAX,
                initiator: 0,
                partners: vec![u64::MAX, 0],
                trigger: f64::INFINITY,
            },
            TraceEvent::BalanceInitiated {
                step: 0,
                initiator: u64::MAX,
                partners: vec![],
                trigger: 1e-7,
            },
            TraceEvent::BalanceInitiated {
                step: 1,
                initiator: 2,
                partners: vec![3],
                trigger: f64::NAN,
            },
            TraceEvent::FaultInjected {
                step: 10,
                proc: u64::MAX,
                kind: nasty.into(),
            },
            TraceEvent::StepDelta {
                step: u64::MAX,
                counters: vec![(nasty.into(), u64::MAX), (String::new(), 0)],
            },
            TraceEvent::StepDelta {
                step: 0,
                counters: vec![],
            },
            TraceEvent::ArenaContender {
                run: 0,
                label: nasty.into(),
                strategy: String::new(),
                seed: u64::MAX,
            },
        ]
    }

    /// `to_line()` of `sample_events()` then `hostile_events()`, captured
    /// at commit 6a52c9e from the `Json::render` encoder this one
    /// replaced.  Every other byte-stability gate is self-consistent
    /// (encode → parse → encode); these literals are what notices a
    /// format drift.  Edit them only with a `SCHEMA_VERSION` bump.
    const GOLDEN_LINES: [&str; 23] = [
        "{\"t\":\"run_start\",\"run\":3,\"seed\":42,\"n\":64,\"strategy\":\"spaa93-full\",\"delta\":1,\"f\":1.1,\"c\":4}",
        "{\"t\":\"balance\",\"step\":17,\"init\":5,\"partners\":[9,2,61],\"trigger\":1.25}",
        "{\"t\":\"packets\",\"step\":17,\"init\":5,\"count\":12}",
        "{\"t\":\"marker\",\"step\":17,\"init\":5,\"count\":2}",
        "{\"t\":\"fault\",\"step\":30,\"proc\":7,\"kind\":\"loss\"}",
        "{\"t\":\"recover\",\"step\":44,\"proc\":7}",
        "{\"t\":\"profile\",\"step\":17,\"wall_ns\":12345,\"ops\":3}",
        "{\"t\":\"delta\",\"step\":17,\"counters\":{\"balance_ops\":1,\"packets_migrated\":12}}",
        "{\"t\":\"load\",\"step\":17,\"min\":0,\"max\":31,\"total\":512}",
        "{\"t\":\"req\",\"step\":90,\"req\":1001,\"shard\":6}",
        "{\"t\":\"req_done\",\"step\":95,\"req\":1001,\"shard\":6,\"latency_ticks\":5}",
        "{\"t\":\"redirect\",\"step\":96,\"from\":6,\"to\":2,\"count\":14}",
        "{\"t\":\"handoff\",\"step\":97,\"from\":0,\"to\":1,\"count\":9}",
        "{\"t\":\"arena\",\"run\":3,\"label\":\"quasirandom\",\"strategy\":\"quasirandom\",\"seed\":99}",
        "{\"t\":\"run_end\",\"run\":3}",
        "{\"t\":\"run_start\",\"run\":18446744073709551615,\"seed\":18446744073709551615,\"n\":18446744073709551615,\"strategy\":\"q\\\"b\\\\s\\nl\\u0001\\r\\t\\u001f\u{7f}é😀\",\"delta\":18446744073709551615,\"f\":1000000000000000000000,\"c\":18446744073709551615}",
        "{\"t\":\"balance\",\"step\":18446744073709551615,\"init\":0,\"partners\":[18446744073709551615,0],\"trigger\":null}",
        "{\"t\":\"balance\",\"step\":0,\"init\":18446744073709551615,\"partners\":[],\"trigger\":0.0000001}",
        "{\"t\":\"balance\",\"step\":1,\"init\":2,\"partners\":[3],\"trigger\":null}",
        "{\"t\":\"fault\",\"step\":10,\"proc\":18446744073709551615,\"kind\":\"q\\\"b\\\\s\\nl\\u0001\\r\\t\\u001f\u{7f}é😀\"}",
        "{\"t\":\"delta\",\"step\":18446744073709551615,\"counters\":{\"q\\\"b\\\\s\\nl\\u0001\\r\\t\\u001f\u{7f}é😀\":18446744073709551615,\"\":0}}",
        "{\"t\":\"delta\",\"step\":0,\"counters\":{}}",
        "{\"t\":\"arena\",\"run\":0,\"label\":\"q\\\"b\\\\s\\nl\\u0001\\r\\t\\u001f\u{7f}é😀\",\"strategy\":\"\",\"seed\":18446744073709551615}",
    ];

    #[test]
    fn lines_match_the_bytes_of_the_encoder_this_replaced() {
        let events: Vec<TraceEvent> = sample_events()
            .into_iter()
            .chain(hostile_events())
            .collect();
        assert_eq!(events.len(), GOLDEN_LINES.len());
        for (ev, golden) in events.iter().zip(GOLDEN_LINES) {
            assert_eq!(ev.to_line(), golden, "{ev:?}");
        }
        // A sink's cached floats: the second pass renders from the cache.
        let mut sink = FileSink::from_writer(Vec::new());
        for ev in events.iter().chain(&events) {
            sink.record(ev);
        }
        let golden = GOLDEN_LINES.map(|l| format!("{l}\n")).concat();
        let written = String::from_utf8(sink.into_inner().expect("inner")).expect("utf8");
        assert_eq!(written, golden.repeat(2));
    }

    /// What `{}` renders, with JSON's `null` for non-finite values.
    fn reference(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".into()
        }
    }

    /// `x` as a sink's encoder renders it.
    fn cached(enc: &mut Encoder, x: f64) -> String {
        enc.out.clear();
        x.put(enc);
        String::from_utf8(enc.out.clone()).expect("utf8")
    }

    proptest::proptest! {
        #[test]
        fn cached_floats_render_exactly_as_format_does(
            bits in proptest::prelude::any::<u64>(),
            exponent in 1003u64..1043,
        ) {
            // Arbitrary bits mostly render too long to cache; the same
            // sign and mantissa between 2^-20 and 2^20 fit a slot.
            let short = bits & !(0x7ff << 52) | exponent << 52;
            let slot = |b: u64| b.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FLOAT_SLOT_BITS);
            let mut enc = Encoder::cached();
            for base in [bits, short] {
                let x = f64::from_bits(base);
                // A value hashed to the same slot: flipping low mantissa
                // bits keeps the exponent, so finite stays finite.
                let rival = (1u64..)
                    .map(|k| base ^ k)
                    .find(|&b| slot(b) == slot(base))
                    .map(f64::from_bits)
                    .expect("a colliding value");
                for v in [x, x, rival, x, rival, x, rival] {
                    proptest::prop_assert_eq!(cached(&mut enc, v), reference(v), "{:?}", v);
                }
            }
            let edges = [
                -0.0, 0.0, 5e-324, f64::MIN_POSITIVE / 3.0, f64::MIN_POSITIVE,
                1e308, -1e308, f64::MAX, 1e-7, 1e21, f64::NAN, -f64::NAN,
                f64::INFINITY, f64::NEG_INFINITY,
            ];
            for v in edges.into_iter().chain(edges) {
                proptest::prop_assert_eq!(cached(&mut enc, v), reference(v), "{:?}", v);
            }
        }
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        for ev in sample_events() {
            let line = ev.to_line();
            let back = TraceEvent::from_line(&line).expect("parse");
            assert_eq!(ev, back, "line: {line}");
            // Byte stability: re-rendering the parsed event reproduces
            // the original line exactly.
            assert_eq!(line, back.to_line());
        }
    }

    #[test]
    fn whole_valued_trigger_still_round_trips() {
        // `{}` renders 2.0 as "2", which parses back as an integer; the
        // f64 decode must absorb that.
        let ev = TraceEvent::BalanceInitiated {
            step: 1,
            initiator: 0,
            partners: vec![],
            trigger: 2.0,
        };
        let back = TraceEvent::from_line(&ev.to_line()).expect("parse");
        assert_eq!(ev, back);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(TraceEvent::from_line("{\"t\":\"nope\"}").is_err());
        assert!(TraceEvent::from_line("not json").is_err());
    }

    #[test]
    fn malformed_fields_are_rejected_by_name() {
        let missing = TraceEvent::from_line(r#"{"t":"packets","step":1,"init":2}"#);
        assert!(missing.unwrap_err().contains("count"));
        let mistyped = TraceEvent::from_line(r#"{"t":"delta","step":1,"counters":[]}"#);
        assert_eq!(mistyped.unwrap_err(), "'counters' is not an object");
        // Found by `hostile_lines.rs`: a bad counter value and an unknown
        // tag used to fail without naming their key.
        let negative = TraceEvent::from_line(r#"{"t":"delta","step":1,"counters":{"a":-1}}"#);
        assert_eq!(
            negative.unwrap_err(),
            "field 'counters': 'a': integer -1 out of range for u64"
        );
        let unknown = TraceEvent::from_line(r#"{"t":"nope"}"#);
        assert_eq!(unknown.unwrap_err(), "field 't': unknown event tag 'nope'");
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        assert!(!SharedSink::new(NullSink).enabled());
        assert!(SharedSink::new(BufferSink::new()).enabled());
    }

    #[test]
    fn file_sink_writes_one_line_per_event() {
        let mut sink = FileSink::from_writer(Vec::new());
        for ev in sample_events() {
            sink.record(&ev);
        }
        let bytes = sink.into_inner().expect("inner");
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for (line, ev) in lines.iter().zip(sample_events()) {
            assert_eq!(TraceEvent::from_line(line).expect("parse"), ev);
        }
    }

    /// Accepts `room` bytes, then fails every write like a full disk.
    struct FullAfter {
        room: usize,
    }

    impl std::io::Write for FullAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn file_sink_keeps_the_first_io_error_instead_of_panicking() {
        // Enough events to overflow the sink's 64 KiB buffer, so the
        // failure surfaces inside `record`, not only at the flush.
        let mut sink = FileSink::from_writer(FullAfter { room: 100 });
        for _ in 0..200 {
            for ev in sample_events() {
                sink.record(&ev);
            }
        }
        let err = sink.take_error().expect("the write error is kept");
        assert_eq!(err.to_string(), "disk full");
        assert!(sink.take_error().is_none(), "taken once");

        // A failure that only shows at the final flush is reported too,
        // through `into_inner` and through a `SharedSink`.
        let mut small = FileSink::from_writer(FullAfter { room: 0 });
        small.record(&TraceEvent::RunFinished { run: 0 });
        assert!(small.into_inner().is_err());
        let shared = SharedSink::new(FileSink::from_writer(FullAfter { room: 0 }));
        shared.record(&TraceEvent::RunFinished { run: 0 });
        assert!(shared.take_error().is_none(), "still buffered");
        shared.flush();
        assert_eq!(shared.take_error().expect("kept").to_string(), "disk full");
        assert!(SharedSink::new(BufferSink::new()).take_error().is_none());
    }

    /// Run `r`'s events: uneven lengths, so runs end in every order and
    /// some pass the 64 KiB write-through more than once.
    fn run_events(r: usize) -> Vec<TraceEvent> {
        let reps = [0, 150, 3, 90, 1, 200][r];
        let mut events: Vec<TraceEvent> = (0..reps).flat_map(|_| sample_events()).collect();
        events.push(TraceEvent::RunFinished { run: r as u64 });
        events
    }

    #[test]
    fn run_ordered_writer_writes_runs_in_index_order_whatever_order_they_end() {
        let runs = 6;
        let mut expected = Vec::new();
        for ev in (0..runs).flat_map(run_events) {
            ev.write_line(&mut expected);
            expected.push(b'\n');
        }
        for seed in 0..24u64 {
            let writer = RunOrderedWriter::from_writer(Vec::new());
            let mut pending: Vec<_> = (0..runs)
                .map(|r| (r, writer.handle(r), run_events(r).into_iter()))
                .collect();
            let mut state = seed;
            while !pending.is_empty() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let i = (state >> 33) as usize % pending.len();
                match pending[i].2.next() {
                    Some(ev) => pending[i].1.record(&ev),
                    None => {
                        let (r, handle, _) = pending.swap_remove(i);
                        // One run per schedule stops without a flush,
                        // as a run that returns an error early does.
                        if r != usize::try_from(seed).unwrap() % runs {
                            handle.flush();
                        }
                    }
                }
            }
            let written = writer.into_inner().expect("inner");
            assert!(written == expected, "seed {seed}: runs out of order");
        }
    }

    #[test]
    fn run_ordered_writer_keeps_the_first_io_error() {
        // Past 64 KiB the running turn writes through, and fails there.
        let writer = RunOrderedWriter::from_writer(FullAfter { room: 100 });
        let (first, second) = (writer.handle(0), writer.handle(1));
        for _ in 0..200 {
            for ev in sample_events() {
                second.record(&ev);
                first.record(&ev);
            }
        }
        assert!(first.take_error().is_none(), "the writer reports it");
        second.flush(); // ahead of its turn: parked
        drop((first, second));
        let err = writer.into_inner().err().expect("the write error is kept");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn buffer_sink_hands_events_back() {
        let buf = BufferSink::new();
        let handle = buf.handle();
        for ev in sample_events() {
            handle.record(&ev);
        }
        assert_eq!(buf.take(), sample_events());
        assert!(buf.take().is_empty());
    }

    #[test]
    fn merge_by_clock_is_deterministic_and_clock_ordered() {
        let a = vec![
            (1, TraceEvent::RunFinished { run: 0 }),
            (5, TraceEvent::RunFinished { run: 1 }),
        ];
        let b = vec![
            (1, TraceEvent::RunFinished { run: 2 }),
            (3, TraceEvent::RunFinished { run: 3 }),
        ];
        let merged = merge_by_clock(vec![a.clone(), b.clone()]);
        // Clock 1: producer 0 before producer 1; then clocks 3, 5.
        let runs: Vec<u64> = merged
            .iter()
            .map(|e| match e {
                TraceEvent::RunFinished { run } => *run,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(runs, vec![0, 2, 3, 1]);
        // Stream order in, same answer out — keyed by producer index.
        assert_eq!(merged, merge_by_clock(vec![a, b]));
    }
}
