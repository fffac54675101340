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
//! * [`FileSink`] — byte-stable JSONL from the one encoder, the cursor
//!   writer behind [`TraceEvent::write_line`]: the same run always
//!   produces the same bytes, which is what lets CI diff traces across
//!   `--jobs` values.
//! * [`RunOrderedWriter`] — one JSONL file that concurrent runs stream
//!   into through per-run handles, written in run-index order.
//!
//! The line format is versioned ([`SCHEMA_VERSION`]); parsers reject
//! lines they cannot round-trip, so the schema cannot drift silently.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

use dlb_json::{req, FromJson, Json};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Version of the JSONL event schema emitted by [`TraceEvent::to_line`].
///
/// Bump on any change to tags, field names or field meaning, and record
/// the change in DESIGN.md.  It is public as the format's version of
/// record, which docs/GUIDE.md §9 and DESIGN.md cite; no line carries it
/// and no code reads it.
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
/// synchronous clusters and simulated time for the desim event loop.
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
    /// `transfer_loss`, `duplicate`, `partition` or `crash`, a literal
    /// when emitted.
    FaultInjected {
        step: u64,
        proc: u64,
        kind: Cow<'static, str>,
    },
    /// A crashed processor rejoined.
    CrashRecovered { step: u64, proc: u64 },
    /// Wall-clock profile of one driver step (only emitted under
    /// `--profile`; wall times are machine-dependent by nature).
    StepProfile { step: u64, wall_ns: u64, ops: u64 },
    /// Per-step increments of the engine's `Metrics` counters (zero
    /// entries omitted). Summing the deltas over a run reproduces the
    /// run's final `Metrics` exactly.  Names are literals when emitted
    /// (an engine lends one list to every step's event, through
    /// [`SharedSink::record_delta`]), owned when parsed.
    StepDelta {
        step: u64,
        counters: Vec<(Cow<'static, str>, u64)>,
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
        let mut out = Vec::new();
        self.write_line(&mut out);
        String::from_utf8(out).expect("write_line emits UTF-8")
    }

    /// Appends the event's JSONL line (no trailing newline) to `out`,
    /// which is never cleared.
    pub fn write_line(&self, out: &mut Vec<u8>) {
        FLOATS.with_borrow_mut(|floats| {
            let mut c = Cursor::new(out, out.len(), floats);
            self.encode(&mut c);
            let end = c.done(self);
            out.truncate(end);
        });
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
            /// Writes the event's JSONL line (no newline) at the cursor —
            /// the one encoder.  Each arm checks for room once, for the
            /// most bytes its fields can take (with a newline after the
            /// brace), then writes by index: the literal `{"t":"tag"` and
            /// `,"key":` prefixes and each field's bytes.  The result is
            /// `dlb-json`'s compact canonical form, pinned by the literal
            /// lines in this crate's tests and by
            /// `results/trace_checksums.txt`.
            fn encode(&self, c: &mut Cursor<'_>) {
                match self {
                    $(TraceEvent::$variant { $($field),* } => {
                        const TAG: &[u8] = concat!("{\"t\":\"", $tag, "\"").as_bytes();
                        c.reserve(TAG.len() $(+ concat!(",\"", $key, "\":").len() + $field.room())* + 2);
                        c.put(TAG);
                        $(
                            c.put(concat!(",\"", $key, "\":").as_bytes());
                            $field.put(c);
                        )*
                    })*
                }
                c.put(b"}");
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

thread_local! {
    /// The floats this thread's one-off lines rendered: callers of
    /// `write_line` (the replay, `trace_analyze --check`) see the same
    /// few dozen `trigger` ratios line after line, as a sink does.
    static FLOATS: RefCell<FloatCache> = RefCell::new(FloatCache::new());
}

/// One line being written: `buf[at..end]` is the room reserved for it,
/// written by index, and `floats` the writer's cache.
struct Cursor<'a> {
    buf: &'a mut Vec<u8>,
    at: usize,
    end: usize,
    floats: &'a mut FloatCache,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a mut Vec<u8>, at: usize, floats: &'a mut FloatCache) -> Self {
        Cursor {
            buf,
            at,
            end: at,
            floats,
        }
    }

    /// Makes `buf[at..at + room]` writable: a line's one room check.
    /// A buffer that must grow grows by the line's room alone, so a run
    /// that parks its trace touches no more memory than it writes.
    fn reserve(&mut self, room: usize) {
        self.end = self.at + room;
        if self.buf.len() < self.end {
            self.buf.resize(self.end, 0);
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }

    /// `v`'s decimal digits, written in place, last digit first.
    fn put_u64(&mut self, mut v: u64) {
        let len = v.checked_ilog10().map_or(1, |d| d as usize + 1);
        for digit in self.buf[self.at..self.at + len].iter_mut().rev() {
            *digit = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.at += len;
    }

    /// Finite `x` exactly as `{}` renders it; JSON has no non-finite
    /// numbers, so those render as `null`.
    fn put_f64(&mut self, x: f64) {
        if !x.is_finite() {
            return self.put(b"null");
        }
        let bits = x.to_bits();
        let slot = self.floats.slot(bits);
        if slot.bits != bits {
            let mut bytes = [0; SHORT];
            let mut rest = &mut bytes[..];
            if write!(rest, "{x}").is_err() {
                return self.put_long(&x.to_string());
            }
            let len = SHORT - rest.len();
            *slot = FloatSlot { bits, len, bytes };
        }
        // The line reserved `SHORT` bytes for the float: one fixed-size
        // copy, advanced by the rendering's length.
        self.buf[self.at..self.at + SHORT].copy_from_slice(&slot.bytes);
        self.at += slot.len;
    }

    /// A rendering longer than the `SHORT` bytes the line reserved for
    /// it: the room grows by the excess, so the rest of the line keeps
    /// its room.
    #[cold]
    fn put_long(&mut self, text: &str) {
        let excess = text.len() - SHORT;
        self.buf.resize(self.buf.len() + excess, 0);
        self.end += excess;
        self.put(text.as_bytes());
    }

    /// Checks that the line kept to the room it reserved.
    fn done(self, event: &TraceEvent) -> usize {
        debug_assert!(self.at <= self.end, "{event:?} overran its room");
        self.at
    }

    /// `s` as a JSON string.  Every escaped byte is ASCII, so scanning
    /// bytes never splits a UTF-8 sequence and the runs between escapes
    /// are copied whole.
    fn put_str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.put(b"\"");
        let bytes = s.as_bytes();
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
            self.put(&bytes[copied..i]);
            self.put(escape);
            copied = i + 1;
        }
        self.put(&bytes[copied..]);
        self.put(b"\"");
    }
}

/// The bytes a line reserves for a float, and the longest rendering a
/// [`FloatCache`] slot holds.
const SHORT: usize = 32;

/// Slots in a [`FloatCache`], as a power of two.
const FLOAT_SLOT_BITS: u32 = 8;

/// A float's `{}` bytes, `bytes[..len]`, keyed by its bits.  A writer
/// caches only finite values, so a slot holding the bits of a NaN is
/// empty.
#[derive(Clone, Copy)]
struct FloatSlot {
    bits: u64,
    len: usize,
    bytes: [u8; SHORT],
}

/// A direct-mapped table of rendered floats.  A trace repeats a few
/// dozen distinct `trigger` ratios hundreds of thousands of times, and
/// `{}`'s shortest-round-trip search is most of a `balance` line's
/// encoding cost; a hit copies the bytes `{}` produced the first time.
/// Renderings longer than [`SHORT`] are not cached.
struct FloatCache {
    slots: [FloatSlot; 1 << FLOAT_SLOT_BITS],
}

impl FloatCache {
    fn new() -> Self {
        let empty = FloatSlot {
            bits: f64::NAN.to_bits(),
            len: 0,
            bytes: [0; SHORT],
        };
        FloatCache {
            slots: [empty; 1 << FLOAT_SLOT_BITS],
        }
    }

    /// The slot the float with these bits maps to.
    fn slot(&mut self, bits: u64) -> &mut FloatSlot {
        // Fibonacci hashing: the top bits of the product mix every bit
        // of the key, so ratios that differ only low in the mantissa
        // still spread over the table.
        let index = bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FLOAT_SLOT_BITS);
        &mut self.slots[index as usize]
    }
}

/// One field's value on the wire.
trait Wire: Sized {
    /// The most bytes [`Wire::put`] writes for this value.
    fn room(&self) -> usize;

    /// Writes the value's JSON bytes, exactly as `dlb-json` renders
    /// them, into the room its line reserved.
    fn put(&self, c: &mut Cursor<'_>);

    /// Reads field `key` of the line's object.
    fn get(obj: &Json, key: &str) -> Result<Self, String>;
}

/// The digits of `u64::MAX`.
const U64_ROOM: usize = 20;

/// The quotes, and six bytes (`\u00XX`) per byte escaped.
fn str_room(s: &str) -> usize {
    2 + 6 * s.len()
}

impl Wire for u64 {
    fn room(&self) -> usize {
        U64_ROOM
    }

    fn put(&self, c: &mut Cursor<'_>) {
        c.put_u64(*self);
    }

    fn get(obj: &Json, key: &str) -> Result<Self, String> {
        req(obj, key)
    }
}

impl Wire for f64 {
    fn room(&self) -> usize {
        SHORT
    }

    fn put(&self, c: &mut Cursor<'_>) {
        c.put_f64(*self);
    }

    fn get(obj: &Json, key: &str) -> Result<Self, String> {
        req(obj, key)
    }
}

impl Wire for String {
    fn room(&self) -> usize {
        str_room(self)
    }

    fn put(&self, c: &mut Cursor<'_>) {
        c.put_str(self);
    }

    fn get(obj: &Json, key: &str) -> Result<Self, String> {
        req(obj, key)
    }
}

/// `FaultInjected`'s kind: a literal when emitted, owned when parsed.
impl Wire for Cow<'static, str> {
    fn room(&self) -> usize {
        str_room(self)
    }

    fn put(&self, c: &mut Cursor<'_>) {
        c.put_str(self);
    }

    fn get(obj: &Json, key: &str) -> Result<Self, String> {
        String::get(obj, key).map(Cow::Owned)
    }
}

impl Wire for Vec<u64> {
    /// The brackets, and a comma per value.
    fn room(&self) -> usize {
        2 + (U64_ROOM + 1) * self.len()
    }

    fn put(&self, c: &mut Cursor<'_>) {
        c.put(b"[");
        for (i, &v) in self.iter().enumerate() {
            if i > 0 {
                c.put(b",");
            }
            c.put_u64(v);
        }
        c.put(b"]");
    }

    fn get(obj: &Json, key: &str) -> Result<Self, String> {
        req(obj, key)
    }
}

/// `StepDelta`'s counters: an object in insertion order.
impl Wire for Vec<(Cow<'static, str>, u64)> {
    /// The braces, and a colon and a comma per entry.
    fn room(&self) -> usize {
        2 + self
            .iter()
            .map(|(key, _)| str_room(key) + U64_ROOM + 2)
            .sum::<usize>()
    }

    fn put(&self, c: &mut Cursor<'_>) {
        c.put(b"{");
        for (i, (key, v)) in self.iter().enumerate() {
            if i > 0 {
                c.put(b",");
            }
            c.put_str(key);
            c.put(b":");
            c.put_u64(*v);
        }
        c.put(b"}");
    }

    fn get(obj: &Json, key: &str) -> Result<Self, String> {
        match dlb_json::field(obj, key)? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| {
                    let count =
                        u64::from_json(v).map_err(|e| format!("field '{key}': '{k}': {e}"))?;
                    Ok((Cow::Owned(k.clone()), count))
                })
                .collect(),
            _ => Err(format!("'{key}' is not an object")),
        }
    }
}

/// A writer's encoding state from line to line: the bytes it encoded and
/// has not handed on, `buf[..at]`, in a buffer kept at its full length
/// so that lines are written into it by index, and the floats it
/// rendered before.
struct Encoder {
    buf: Vec<u8>,
    at: usize,
    floats: Box<FloatCache>,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            // A writer hands its bytes on once they pass `CHUNK`; the
            // rest is room for the line that passes it.
            buf: vec![0; 2 * CHUNK],
            at: 0,
            floats: Box::new(FloatCache::new()),
        }
    }

    /// Appends `event`'s line and its newline.
    fn line(&mut self, event: &TraceEvent) {
        let mut c = Cursor::new(&mut self.buf, self.at, &mut self.floats);
        event.encode(&mut c);
        c.put(b"\n");
        self.at = c.done(event);
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.at]
    }

    /// Takes the encoded bytes, leaving the encoder empty.
    fn take(&mut self) -> Vec<u8> {
        let mut bytes = std::mem::take(&mut self.buf);
        bytes.truncate(std::mem::take(&mut self.at));
        bytes
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

/// Streams events as JSONL to a writer, one event per line, handed on
/// every 64 KiB; byte-stable for identical event sequences.  Like a
/// `BufWriter`, a sink dropped unflushed writes what it holds and drops
/// the error.
///
/// `record` cannot return an error, so the sink keeps the first
/// `io::Error`, drops every later event, and hands the error back from
/// [`TraceSink::take_error`].
pub struct FileSink<W: std::io::Write> {
    out: W,
    line: Encoder,
    error: Option<std::io::Error>,
}

/// Bytes a trace writer buffers before it hands them to the file.
const CHUNK: usize = 64 * 1024;

impl FileSink<std::fs::File> {
    /// Creates (truncating) `path`, a file in a directory that exists,
    /// and streams JSONL into it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(FileSink::from_writer(std::fs::File::create(path)?))
    }
}

impl<W: std::io::Write> FileSink<W> {
    /// Streams JSONL into an arbitrary writer (tests use `Vec<u8>`).
    pub(crate) fn from_writer(w: W) -> Self {
        FileSink {
            out: w,
            line: Encoder::new(),
            error: None,
        }
    }

    /// Hands the encoded bytes to the writer, unless it failed before.
    fn write_out(&mut self) {
        if self.error.is_none() {
            self.error = self.out.write_all(self.line.bytes()).err();
        }
        self.line.at = 0;
    }

    /// Flushes and returns the inner writer, or the first write error.
    #[cfg(test)]
    pub(crate) fn into_inner(mut self) -> std::io::Result<W>
    where
        W: Default,
    {
        self.flush();
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(std::mem::take(&mut self.out)),
        }
    }
}

impl<W: std::io::Write> TraceSink for FileSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.line(event);
        if self.line.at >= CHUNK {
            self.write_out();
        }
    }

    fn flush(&mut self) {
        self.write_out();
        if self.error.is_none() {
            self.error = self.out.flush().err();
        }
    }

    fn take_error(&mut self) -> Option<std::io::Error> {
        self.error.take()
    }
}

impl<W: std::io::Write> Drop for FileSink<W> {
    fn drop(&mut self) {
        self.write_out();
    }
}

/// Cheaply cloneable handle to a sink, for the one thread that runs a
/// simulation: its engine, fault injector and run loop record through
/// clones of one handle, built on that thread.  Recording takes no
/// lock; where runs on several threads meet, the sink behind the handle
/// locks — [`RunOrderedWriter`] once per 64 KiB, [`BufferSink`] once
/// per event.
///
/// Engines store an `Option<SharedSink>`; `enabled` is sampled once at
/// construction so the per-event hot path with a [`NullSink`] attached
/// is a branch, not a call.
#[derive(Clone)]
pub struct SharedSink {
    inner: Rc<RefCell<dyn TraceSink>>,
    enabled: bool,
}

impl SharedSink {
    /// Wraps any sink in a shared handle.
    pub fn new<S: TraceSink + 'static>(sink: S) -> Self {
        let enabled = sink.enabled();
        SharedSink {
            inner: Rc::new(RefCell::new(sink)),
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
            self.inner.borrow_mut().record(event);
        }
    }

    /// Records the event `wrap` builds around the buffer the caller
    /// lends, then `unwrap` hands the buffer back into `lent`, so an
    /// emitter that keeps one buffer allocates nothing per event.
    fn record_lent<B: Default>(
        &self,
        lent: &mut B,
        wrap: impl FnOnce(B) -> TraceEvent,
        unwrap: impl FnOnce(TraceEvent) -> Option<B>,
    ) {
        let event = wrap(std::mem::take(lent));
        self.record(&event);
        if let Some(back) = unwrap(event) {
            *lent = back;
        }
    }

    /// Records a `BalanceInitiated` on the partner list the caller lends.
    pub fn record_balance(&self, step: u64, initiator: u64, partners: &mut Vec<u64>, trigger: f64) {
        self.record_lent(
            partners,
            |partners| TraceEvent::BalanceInitiated {
                step,
                initiator,
                partners,
                trigger,
            },
            |event| match event {
                TraceEvent::BalanceInitiated { partners, .. } => Some(partners),
                _ => None,
            },
        );
    }

    /// Records a `StepDelta` on the counter list the caller lends;
    /// nothing when the list is empty (no counter moved).
    pub fn record_delta(&self, step: u64, counters: &mut Vec<(Cow<'static, str>, u64)>) {
        if counters.is_empty() {
            return;
        }
        self.record_lent(
            counters,
            |counters| TraceEvent::StepDelta { step, counters },
            |event| match event {
                TraceEvent::StepDelta { counters, .. } => Some(counters),
                _ => None,
            },
        );
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        self.inner.borrow_mut().flush();
    }

    /// Takes the underlying sink's first I/O error, if any.
    pub fn take_error(&self) -> Option<std::io::Error> {
        self.inner.borrow_mut().take_error()
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

/// In-memory collector whose contents can be taken back out, on any
/// thread — the bridge between engine-held [`SharedSink`]s and callers
/// that need the events themselves afterwards (tests, the benchmark's
/// replay).  To write runs to a file, use [`RunOrderedWriter`]: it never
/// holds a whole trace.
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
    /// Creates (truncating) `path`, a file in a directory that exists —
    /// before any run starts, so a path that cannot be created costs no
    /// simulation.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(RunOrderedWriter::from_writer(std::fs::File::create(path)?))
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

    /// The sink run `run` records into; take one per run index, on the
    /// thread that runs it.
    pub fn handle(&self, run: usize) -> SharedSink {
        SharedSink::new(RunSink {
            run,
            line: Encoder::new(),
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
    /// The length of the encoded bytes at which to try the shared
    /// writer next.
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
            turns.end(self.run, self.line.take());
        }
    }
}

impl<W: std::io::Write> TraceSink for RunSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        debug_assert!(!self.ended, "run {} recorded after it ended", self.run);
        self.line.line(event);
        if self.line.at < self.next_try {
            return;
        }
        let mut turns = self.turns.lock().expect("trace writer lock");
        if turns.turn == self.run {
            turns.write(self.line.bytes());
            self.line.at = 0;
            self.next_try = CHUNK;
        } else {
            self.next_try = self.line.at + CHUNK;
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
                counters: vec![(nasty.into(), u64::MAX), ("".into(), 0)],
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
    fn cached(cache: &mut FloatCache, x: f64) -> String {
        let mut buf = Vec::new();
        let mut c = Cursor::new(&mut buf, 0, cache);
        c.reserve(x.room());
        x.put(&mut c);
        let end = c.at;
        buf.truncate(end);
        String::from_utf8(buf).expect("utf8")
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
            let mut cache = FloatCache::new();
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
                    proptest::prop_assert_eq!(cached(&mut cache, v), reference(v), "{:?}", v);
                }
            }
            let edges = [
                -0.0, 0.0, 5e-324, f64::MIN_POSITIVE / 3.0, f64::MIN_POSITIVE,
                1e308, -1e308, f64::MAX, 1e-7, 1e21, f64::NAN, -f64::NAN,
                f64::INFINITY, f64::NEG_INFINITY,
            ];
            for v in edges.into_iter().chain(edges) {
                proptest::prop_assert_eq!(cached(&mut cache, v), reference(v), "{:?}", v);
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
    #[derive(Default)]
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

    /// A `u64` of every digit count: arbitrary, small, `10^k − 1` (0, 9,
    /// 99, …), `10^k` (1, 10, …, 10¹⁹) or `u64::MAX` and its neighbour.
    fn number(pick: u64) -> u64 {
        let k = ((pick >> 8) % 20) as u32;
        match pick % 5 {
            0 => pick,
            1 => 10u64.pow(k) - 1,
            2 => 10u64.pow(k),
            3 => u64::MAX - (pick >> 8) % 2,
            _ => pick % 1000,
        }
    }

    /// Floats that hit and miss a sink's cache: a few repeated ratios,
    /// arbitrary bits (mostly rendering longer than a slot, some
    /// non-finite), and edges.
    fn float(pick: u64) -> f64 {
        let edges = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -f64::MAX,
            1e21,
            1e-7,
            0.1 + 0.2,
        ];
        let i = (pick >> 8) as usize;
        match pick % 4 {
            0 | 1 => [1.25, 1.5, 2.0, 1.1, 4.0 / 3.0, 0.0][i % 6],
            2 => f64::from_bits(pick),
            _ => edges[i % edges.len()],
        }
    }

    /// Up to eight characters, every other one from the first 128 code
    /// points (controls, quotes, backslash), the rest from all of Unicode.
    fn text(pick: u64) -> String {
        let mut state = pick;
        (0..pick % 9)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let code = (state >> 33) as u32 % if state & 1 == 0 { 0x80 } else { 0x11_0000 };
                char::from_u32(code).unwrap_or('\u{fffd}')
            })
            .collect()
    }

    /// Every variant, from one draw.
    fn event(kind: u32, a: u64, b: u64, c: u64) -> TraceEvent {
        let (x, y, z) = (number(a), number(b), number(c));
        match kind {
            0 => TraceEvent::RunStarted {
                run: x,
                seed: y,
                n: z,
                strategy: text(a),
                delta: y,
                f: float(c),
                c: x,
            },
            1 => TraceEvent::BalanceInitiated {
                step: x,
                initiator: y,
                partners: (0..c % 201)
                    .map(|i| number(a ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                    .collect(),
                trigger: float(b),
            },
            2 => TraceEvent::PacketsMigrated {
                step: x,
                initiator: y,
                count: z,
            },
            3 => TraceEvent::MarkerMoved {
                step: x,
                initiator: y,
                count: z,
            },
            4 => TraceEvent::FaultInjected {
                step: x,
                proc: y,
                kind: text(c).into(),
            },
            5 => TraceEvent::CrashRecovered { step: x, proc: y },
            6 => TraceEvent::StepProfile {
                step: x,
                wall_ns: y,
                ops: z,
            },
            7 => TraceEvent::StepDelta {
                step: x,
                counters: (0..c % 6)
                    .map(|i| {
                        (
                            text(b ^ i).into(),
                            number(a ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D)),
                        )
                    })
                    .collect(),
            },
            8 => TraceEvent::LoadSample {
                step: x,
                min: y,
                max: z,
                total: x,
            },
            9 => TraceEvent::RequestRouted {
                step: x,
                req: y,
                shard: z,
            },
            10 => TraceEvent::RequestCompleted {
                step: x,
                req: y,
                shard: z,
                latency_ticks: x,
            },
            11 => TraceEvent::RequestsRedirected {
                step: x,
                from: y,
                to: z,
                count: x,
            },
            12 => TraceEvent::AcceptorHandoff {
                step: x,
                from: y,
                to: z,
                count: x,
            },
            13 => TraceEvent::ArenaContender {
                run: x,
                label: text(b),
                strategy: text(c),
                seed: y,
            },
            _ => TraceEvent::RunFinished { run: x },
        }
    }

    /// `to_line` of each event, a newline after each.
    fn lines<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> Vec<u8> {
        events
            .map(|e| e.to_line() + "\n")
            .collect::<String>()
            .into_bytes()
    }

    /// Where two byte strings first differ, if they do.
    fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
        (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))
    }

    proptest::proptest! {
        /// The streaming writers — cached floats, lines written into
        /// reserved room, a buffer handed on every 64 KiB or parked —
        /// write exactly what the one-off `to_line` renders.
        #[test]
        fn streamed_bytes_are_the_lines_of_to_line(
            draws in proptest::collection::vec(
                (0u32..15, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                0..60,
            ),
            reps in 1usize..12,
        ) {
            let once: Vec<TraceEvent> = draws.iter().map(|&(k, a, b, c)| event(k, a, b, c)).collect();
            let events: Vec<&TraceEvent> = (0..reps).flat_map(|_| &once).collect();
            let expected = lines(events.iter().copied());
            let mut file = FileSink::from_writer(Vec::new());
            for ev in &events {
                file.record(ev);
            }
            let written = file.into_inner().expect("a Vec cannot fail");
            proptest::prop_assert_eq!(first_difference(&written, &expected), None, "FileSink");
            // Three runs recorded interleaved: runs 1 and 2 park until
            // their turn.
            let writer = RunOrderedWriter::from_writer(Vec::new());
            let handles: Vec<SharedSink> = (0..3).map(|r| writer.handle(r)).collect();
            for (i, ev) in events.iter().enumerate() {
                handles[i % 3].record(ev);
            }
            drop(handles);
            let in_run_order = (0..3).flat_map(|r| events.iter().skip(r).step_by(3).copied());
            let written = writer.into_inner().expect("a Vec cannot fail");
            proptest::prop_assert_eq!(
                first_difference(&written, &lines(in_run_order)),
                None,
                "RunOrderedWriter"
            );
        }
    }
}
