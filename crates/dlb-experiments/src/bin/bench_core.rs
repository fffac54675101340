//! Times the core simulation engines on the §7 paper workload across
//! processor counts and writes `BENCH_core.json` at the repo root.
//!
//! For each `n` in the matrix the full virtual-class [`Cluster`] and
//! the practical [`SimpleCluster`] replay the same recorded 500-step
//! paper trace; wall-clock is the minimum over `reps` runs (rejecting
//! scheduler noise) and every run's final state is fingerprinted with
//! FNV-1a and invariant-checked.  Beside each time sits the run's
//! balance-operation count and the time per operation (`full_ops`,
//! `full_ns_per_op`, …): the two models' per-operation gap, readable
//! across n.  `effective_cores` records what this machine had, and the
//! binary asserts the full model finishes n = 4096 in under 60 s.
//!
//! The full engine stores its class state sparsely, so a `large`
//! section (full engine only, fewer steps) climbs to n = 2¹⁸ and records
//! `state_bytes`/`bytes_per_proc` — the witness that memory scales with
//! active classes, not n².  Two dense u64 matrices would cost 16·n
//! bytes per processor (4 MiB at n = 2¹⁸); the binary asserts the sparse
//! engine stays under 4 KiB.
//!
//! A `sparse_step` section times the *event-driven* path: the full
//! engine at n = 2²⁰ through [`LoadBalancer::step_sparse`] on a
//! structurally sparse phase workload at 1 % and 0.1 % activity.  Each
//! row's checksum is asserted equal to a dense `step` run over the
//! identical event stream (the equivalence witness), an n = 2²⁰ row must
//! stay within 192 B of state per processor, and per-step cost must drop
//! with the active fraction — the proof that stepping costs O(active),
//! not O(n).  The same section carries the *stall ladder*: the 1 %
//! stream at an equal event count from n = 2¹⁴ (the state fits in cache)
//! to n = 2²⁰ (every touched processor is a miss).  The instructions per
//! event are the same on every rung, so `stall_ratio` — a rung's
//! `ns_per_event` over the first rung's — is what memory costs
//! (DESIGN.md §11).
//!
//! An `rng` row times the layer under all of them: 2²⁴ `next_u64` draws
//! from the vendored `ChaCha8Rng` (`ns_per_u64`), one sixteen-block
//! refill on the path the CPU dispatches to (`ns_per_refill`), and the
//! FNV fold of the draws as the row's checksum.  A toolchain that stops
//! vectorising the refill shows here as `ns_per_u64` doubling, with the
//! checksum unchanged.
//!
//! Usage: `cargo run --release -p dlb-experiments --bin bench_core
//!         [--smoke] [--out BENCH_core.json] [--check BENCH_core.json]`
//!
//! `--smoke` shrinks the matrix (no `large` or n = 2²⁰ rows, no 60 s
//! assertion) so CI can run the binary in seconds as a compile-and-run
//! gate.  `--check <baseline>` re-runs the baseline's matrix (including
//! its `large`, `sparse_step` and `rng` rows, if present, with their
//! invariant, memory and equivalence assertions) and exits 1 if any
//! checksum differs from the committed file (timings are
//! machine-dependent; checksums are not).  A baseline that cannot be
//! read or decoded is refused before any row runs: the reason, naming
//! the row and key, the usage line, exit 2.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

use dlb_core::{Cluster, LoadBalancer, Params, SimpleCluster};
use dlb_experiments::args::{Args, Flag, Key};
use dlb_experiments::outln;
use dlb_experiments::parallel::default_jobs;
use dlb_json::{req, Json, ToJson};
use dlb_workload::phase::{PhaseConfig, PhaseWorkload};
use dlb_workload::sparse::{drive_sparse, SparseActivity, SparsePattern};
use dlb_workload::trace::EventTrace;
use dlb_workload::Workload;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// FNV-1a over the final loads and headline metrics of one run.
fn fingerprint<B: LoadBalancer>(balancer: &B) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut push = |v: u64| {
        for b in v.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for &l in &balancer.loads() {
        push(l);
    }
    let m = balancer.metrics();
    push(m.generated);
    push(m.consumed);
    push(m.balance_ops);
    push(m.messages);
    push(m.packets_migrated);
    format!("{hash:016x}")
}

/// The §7 phase workload at `n`, recorded once, so the timed replays
/// exclude workload generation.
fn paper_trace(n: usize, steps: usize) -> EventTrace {
    let mut workload = PhaseWorkload::new(n, steps, PhaseConfig::paper_section7(), 9);
    EventTrace::record(&mut workload, steps)
}

/// Replays `trace` on a fresh balancer `reps` times; returns the best
/// wall-clock in ms and the (identical across reps) state fingerprint
/// and balance-operation count.
fn time_engine<B, M>(make: M, trace: &EventTrace, reps: usize) -> (f64, String, u64)
where
    B: LoadBalancer,
    M: Fn() -> B,
{
    let steps = trace.steps();
    let mut best = f64::INFINITY;
    let mut fp = String::new();
    let mut ops = 0;
    for _ in 0..reps {
        let mut balancer = make();
        let mut replay = trace.replay();
        let mut events = Vec::new();
        let t0 = Instant::now();
        for t in 0..steps {
            replay.events_at(t, &mut events);
            balancer.step(&events);
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        let run_fp = fingerprint(&balancer);
        assert!(
            fp.is_empty() || fp == run_fp,
            "nondeterministic engine: {fp} != {run_fp}"
        );
        fp = run_fp;
        ops = balancer.metrics().balance_ops;
    }
    (best, fp, ops)
}

/// A timing as the JSON rows carry it: three decimals.
fn ms3(x: f64) -> Json {
    Json::Float((x * 1000.0).round() / 1000.0)
}

/// Wall-clock per balance operation, the per-operation cost the
/// O(1)-per-operation rivals are compared on (ROADMAP, open item 8(b)).
fn ns_per_op(ms: f64, ops: u64) -> f64 {
    ms * 1e6 / ops.max(1) as f64
}

/// One timed cell of the matrix: both engines at `n`.
struct Cell {
    n: usize,
    full_ms: f64,
    full_fp: String,
    full_ops: u64,
    simple_ms: f64,
    simple_fp: String,
    simple_ops: u64,
}

/// Times both engines at `n` and, if `verify`, invariant-checks the
/// final state with a verification run.
fn run_cell(n: usize, steps: usize, reps: usize, verify: bool) -> Cell {
    let trace = paper_trace(n, steps);
    let params = Params::paper_section7(n);

    let (full_ms, full_fp, full_ops) = time_engine(
        || {
            let c = Cluster::new(params, 1);
            c.check_invariants().expect("fresh cluster invariants");
            c
        },
        &trace,
        reps,
    );
    let (simple_ms, simple_fp, simple_ops) =
        time_engine(|| SimpleCluster::new(params, 1), &trace, reps);
    if verify {
        // Re-run once more to invariant-check the *final* state (the
        // timed closure only sees the fresh one).
        let mut c = Cluster::new(params, 1);
        let mut s = SimpleCluster::new(params, 1);
        let mut replay = trace.replay();
        let mut events = Vec::new();
        for t in 0..steps {
            replay.events_at(t, &mut events);
            c.step(&events);
            s.step(&events);
        }
        c.check_invariants().expect("final cluster invariants");
        s.check_invariants().expect("final simple invariants");
        assert_eq!(fingerprint(&c), full_fp, "verification run diverged");
        assert_eq!(fingerprint(&s), simple_fp, "verification run diverged");
    }
    Cell {
        n,
        full_ms,
        full_fp,
        full_ops,
        simple_ms,
        simple_fp,
        simple_ops,
    }
}

fn matrix(smoke: bool) -> (&'static [usize], usize, usize) {
    if smoke {
        (&[16, 64], 120, 2)
    } else {
        (&[64, 512, 4096], 500, 3)
    }
}

/// The sparse-engine scaling ladder: full model only, single rep,
/// fewer steps (wall-clock per step grows with n; 120 steps at n = 2¹⁸
/// is the acceptance bar for 10⁵⁺-processor scale).
const LARGE_SIZES: [usize; 3] = [16_384, 65_536, 262_144];
const LARGE_STEPS: usize = 120;

/// One row of the `large` section.
struct LargeCell {
    n: usize,
    steps: usize,
    full_ms: f64,
    full_fp: String,
    full_ops: u64,
    state_bytes: usize,
}

/// Times the full engine once at `n` on the paper workload and captures
/// the final sparse-state footprint.  Invariant-checks the final state
/// and asserts the memory bound that makes this scale reachable at all.
fn run_large_cell(n: usize, steps: usize) -> LargeCell {
    let trace = paper_trace(n, steps);
    let params = Params::paper_section7(n);
    let mut cluster = Cluster::new(params, 1);
    let mut replay = trace.replay();
    let mut events = Vec::new();
    let t0 = Instant::now();
    for t in 0..steps {
        replay.events_at(t, &mut events);
        cluster.step(&events);
    }
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    cluster.check_invariants().expect("large-n invariants");
    let state_bytes = cluster.state_bytes();
    let per_proc = state_bytes / n;
    assert!(
        per_proc < 4096,
        "sparse state must stay far below the dense 16·n B/proc: \
         n={n} uses {per_proc} B/proc"
    );
    LargeCell {
        n,
        steps,
        full_ms,
        full_fp: fingerprint(&cluster),
        full_ops: cluster.metrics().balance_ops,
        state_bytes,
    }
}

/// The event-driven stepping ladder: full engine at n = 2²⁰, a sparse
/// phase workload (1-step work phases) whose gap range sets the active
/// fraction.  Fewer steps than the dense matrix — the whole point is
/// that a step no longer costs O(n).
const SPARSE_N: usize = 1 << 20;
const SPARSE_STEPS: usize = 200;
/// Two-step work phases (generate, then consume — load-neutral) with
/// the sleep gap setting the activity: 2/(2 + mean gap).
const SPARSE_LEVELS: [(&str, (u32, u32)); 2] = [("1%", (100, 300)), ("0.1%", (1000, 3000))];
/// The stall ladder's `(n, steps)` rungs at the 1 % level: n · steps is
/// constant, so every rung processes about the same number of events
/// (0.7–1.0 M: the shorter runs end inside the initial stagger) and
/// only the distance between two touched records grows.
const STALL_LADDER: [(usize, usize); 4] = [
    (1 << 14, 6400),
    (1 << 16, 1600),
    (1 << 18, 400),
    (1 << 20, 100),
];
/// `--smoke` rungs: the schema and the witness, in milliseconds.
const STALL_LADDER_SMOKE: [(usize, usize); 2] = [(1 << 10, 64), (1 << 12, 16)];
/// Timed runs per rung (fastest kept): a ratio of two single timings
/// would mostly report which speed state the box was in.
const STALL_REPS: usize = 3;

/// One row of the `sparse_step` section.
struct SparseCell {
    n: usize,
    steps: usize,
    gap: (u32, u32),
    /// Events stepped, all steps together.
    events: u64,
    sparse_ms: f64,
    dense_ms: f64,
    fp: String,
}

impl SparseCell {
    fn active_per_step(&self) -> f64 {
        self.events as f64 / self.steps as f64
    }

    fn ns_per_event(&self) -> f64 {
        self.sparse_ms * 1e6 / self.events as f64
    }

    /// This cell's `sparse_step` row; a ladder rung also says how its
    /// `ns_per_event` compares with the first rung's.
    fn to_row(&self, activity: &str, stall_ratio: Option<f64>) -> Json {
        let mut row = vec![
            ("activity".into(), activity.to_json()),
            ("n".into(), (self.n as u64).to_json()),
            ("steps".into(), (self.steps as u64).to_json()),
            ("gap_lo".into(), u64::from(self.gap.0).to_json()),
            ("gap_hi".into(), u64::from(self.gap.1).to_json()),
            ("active_per_step".into(), ms3(self.active_per_step())),
            ("sparse_ms".into(), ms3(self.sparse_ms)),
            ("dense_ms".into(), ms3(self.dense_ms)),
            ("ns_per_event".into(), ms3(self.ns_per_event())),
        ];
        if let Some(ratio) = stall_ratio {
            row.push(("stall_ratio".into(), ms3(ratio)));
        }
        row.push(("checksum".into(), self.fp.to_json()));
        Json::Obj(row)
    }
}

/// The `sparse_step` workload at gap range `gap`.
fn phase(gap: (u32, u32)) -> SparsePattern {
    SparsePattern::Phase { work: 2, gap }
}

/// Times the full engine through `step_sparse` at `n` with the given
/// activity gap — the fastest of `reps` runs — then re-runs the
/// identical event stream through the dense `step` path and asserts the
/// final states are bit-identical: every sparse timing in the JSON
/// carries its own equivalence witness.
fn run_sparse_cell(n: usize, gap: (u32, u32), steps: usize, reps: usize) -> SparseCell {
    let pattern = phase(gap);
    let params = Params::paper_section7(n);

    let mut sparse_ms = f64::INFINITY;
    let mut timed: Option<(u64, String, usize)> = None;
    for _ in 0..reps {
        let mut workload = SparseActivity::new(n, pattern, 9);
        let mut cluster = Cluster::new(params, 1);
        let mut events = 0u64;
        let t0 = Instant::now();
        drive_sparse(&mut cluster, &mut workload, steps, |_, active, _| {
            events += active.len() as u64;
        });
        sparse_ms = sparse_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        cluster.check_invariants().expect("sparse-step invariants");
        let run = (events, fingerprint(&cluster), cluster.state_bytes());
        assert!(
            timed.as_ref().is_none_or(|first| *first == run),
            "nondeterministic sparse run at n={n}"
        );
        timed = Some(run);
    }
    let (stepped, fp, state_bytes) = timed.expect("at least one timed run");
    // One 128-byte record per processor plus the few rows that spilled:
    // at a million processors the layout has fattened if that passes 192.
    let per_proc = state_bytes / n;
    assert!(
        n < SPARSE_N || per_proc <= 192,
        "full-model state at n={n} must stay within 192 B/proc, uses {per_proc}"
    );

    let mut workload = SparseActivity::new(n, pattern, 9);
    let mut dense = Cluster::new(params, 1);
    let mut events = Vec::new();
    let t0 = Instant::now();
    for t in 0..steps {
        workload.events_at(t, &mut events);
        dense.step(&events);
    }
    let dense_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        fingerprint(&dense),
        fp,
        "sparse and dense paths diverged at n={n}, gap={gap:?}"
    );

    SparseCell {
        n,
        steps,
        gap,
        events: stepped,
        sparse_ms,
        dense_ms,
        fp,
    }
}

/// The `rng` row: `RNG_DRAWS` `next_u64` from seed `RNG_SEED`, and
/// `RNG_REFILLS` seeks, each of which computes one buffer of sixteen
/// blocks on the path the CPU dispatches to.
const RNG_SEED: u64 = 4711;
const RNG_DRAWS: u64 = 1 << 24;
const RNG_REFILLS: u64 = 1 << 18;

/// The `rng` row.
struct RngCell {
    ns_per_u64: f64,
    ns_per_refill: f64,
    /// FNV-1a-style fold of the draws, one `u64` per round (a byte-wise
    /// fold would cost more than the draw it is timed with).
    fp: String,
}

/// Times the generator under every engine and workload: the fastest of
/// `reps` passes over the draw loop and over the refill loop.
fn run_rng_cell(reps: usize) -> RngCell {
    let mut draw_s = f64::INFINITY;
    let mut refill_s = f64::INFINITY;
    let mut fp = String::new();
    for _ in 0..reps {
        let mut rng = ChaCha8Rng::seed_from_u64(RNG_SEED);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let t0 = Instant::now();
        for _ in 0..RNG_DRAWS {
            hash = (hash ^ rng.next_u64()).wrapping_mul(0x0000_0100_0000_01B3);
        }
        draw_s = draw_s.min(t0.elapsed().as_secs_f64());
        let run_fp = format!("{hash:016x}");
        assert!(
            fp.is_empty() || fp == run_fp,
            "nondeterministic generator: {fp} != {run_fp}"
        );
        fp = run_fp;

        let t0 = Instant::now();
        for k in 0..RNG_REFILLS {
            rng.set_word_pos(black_box(u128::from(k) * 64));
        }
        refill_s = refill_s.min(t0.elapsed().as_secs_f64());
        black_box(rng.next_u32());
    }
    RngCell {
        ns_per_u64: draw_s * 1e9 / RNG_DRAWS as f64,
        ns_per_refill: refill_s * 1e9 / RNG_REFILLS as f64,
        fp,
    }
}

/// The rows a `--check` baseline pins, decoded before any of them runs.
struct Baseline {
    smoke: bool,
    /// `(n, full_checksum, simple_checksum)`.
    sizes: Vec<(usize, String, String)>,
    /// `(n, steps, full_checksum)`.
    large: Vec<(usize, usize, String)>,
    /// `(n, steps, gap, checksum)`.
    sparse: Vec<(usize, usize, (u32, u32), String)>,
    rng: Option<String>,
}

/// Reads and decodes the baseline at `path`; an error names the row and
/// the key (`sparse_step[1]: field 'gap_lo': …`).
fn read_baseline(path: &str) -> Result<Baseline, String> {
    let doc = Json::parse(&std::fs::read_to_string(path).map_err(|e| e.to_string())?)?;
    dlb_json::field(&doc, "sizes")?;
    // Every row's `n` must admit the paper's parameters (δ = 1 < n).
    let procs = |row: &Json| -> Result<usize, String> {
        let n = req(row, "n")?;
        Params::new(n, 1, 1.1, 4).map_err(|e| format!("field 'n': {e}"))?;
        Ok(n)
    };
    let sparse_row = |row: &Json| {
        let gap = (req(row, "gap_lo")?, req(row, "gap_hi")?);
        phase(gap)
            .validate()
            .map_err(|e| format!("fields 'gap_lo', 'gap_hi': {e}"))?;
        Ok((procs(row)?, req(row, "steps")?, gap, req(row, "checksum")?))
    };
    Ok(Baseline {
        smoke: doc.get("matrix").and_then(Json::as_str) == Some("smoke"),
        sizes: rows(&doc, "sizes", |row| {
            Ok((
                procs(row)?,
                req(row, "full_checksum")?,
                req(row, "simple_checksum")?,
            ))
        })?,
        large: rows(&doc, "large", |row| {
            Ok((procs(row)?, req(row, "steps")?, req(row, "full_checksum")?))
        })?,
        sparse: rows(&doc, "sparse_step", sparse_row)?,
        rng: doc
            .get("rng")
            .map(|row| req(row, "checksum").map_err(|e| format!("rng: {e}")))
            .transpose()?,
    })
}

/// Decodes each element of the array `section` (none when absent) with
/// `row`, prefixing an error with `section[k]`.
fn rows<T>(
    doc: &Json,
    section: &str,
    row: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let Some(items) = doc.get(section) else {
        return Ok(Vec::new());
    };
    let items = items
        .as_arr()
        .ok_or_else(|| format!("field '{section}': expected an array"))?;
    items
        .iter()
        .enumerate()
        .map(|(k, item)| row(item).map_err(|e| format!("{section}[{k}]: {e}")))
        .collect()
}

/// `--check` mode: re-runs the baseline's rows (checksums are
/// machine-independent; one rep suffices) and compares each against the
/// committed file.  Exits 1 on any drift.
fn check_against(path: &str, baseline: &Baseline) -> ! {
    let (_, steps, _) = matrix(baseline.smoke);
    outln!(
        "bench_core --check: verifying {} cells against {path} ({} matrix)\n",
        baseline.sizes.len(),
        if baseline.smoke { "smoke" } else { "paper" }
    );
    let mut drifted = 0usize;
    let mut verdict = |label: String, want: &str, got: &str| {
        if want == got {
            outln!("  {label} ok    {got}");
        } else {
            outln!("  {label} DRIFT baseline {want} != {got}");
            drifted += 1;
        }
    };
    for (n, want_full, want_simple) in &baseline.sizes {
        let cell = run_cell(*n, steps, 1, false);
        verdict(format!("n={n:<5} full   "), want_full, &cell.full_fp);
        verdict(format!("n={n:<5} simple "), want_simple, &cell.simple_fp);
    }
    // Each re-run also re-asserts its row's invariants and memory bound,
    // and a sparse row its sparse/dense equivalence witness.
    outln!();
    for (n, steps, want) in &baseline.large {
        let cell = run_large_cell(*n, *steps);
        verdict(format!("n={n:<6} large  full   "), want, &cell.full_fp);
    }
    outln!();
    for (n, steps, (lo, hi), want) in &baseline.sparse {
        let cell = run_sparse_cell(*n, (*lo, *hi), *steps, 1);
        verdict(format!("n={n:<8} sparse gap={lo}..{hi}"), want, &cell.fp);
    }
    if let Some(want) = &baseline.rng {
        outln!();
        verdict(
            format!("rng    {RNG_DRAWS} draws    "),
            want,
            &run_rng_cell(1).fp,
        );
    }
    if drifted > 0 {
        outln!(
            "\n{drifted} checksum(s) drifted from {path}: the simulation \
             results changed.  If intentional, regenerate the baseline."
        );
        std::process::exit(1);
    }
    outln!("\nAll checksums match {path}.");
    std::process::exit(0);
}

const KEYS: &[Key] = dlb_experiments::keys!["smoke": Flag, "out": String, "check": String];

fn main() {
    let args = Args::from_env("bench_core", KEYS);
    let smoke = args.flag("smoke");
    let out: String = args.get("out", "BENCH_core.json".to_string());
    if args.has("check") {
        let path: String = args.get("check", String::new());
        let baseline = args.build_or_exit("check", read_baseline(&path));
        check_against(&path, &baseline);
    }
    let (sizes, steps, reps) = matrix(smoke);

    outln!(
        "bench_core: engine scaling on the paper workload \
         ({} matrix, {steps} steps, min of {reps}, {} effective cores)\n",
        if smoke { "smoke" } else { "paper" },
        default_jobs()
    );

    let mut cells = Vec::new();
    for &n in sizes {
        let cell = run_cell(n, steps, reps, true);
        outln!(
            "  n={:<5} full {:>10.2} ms  ({})  {:>5.0} ns/op   simple {:>9.2} ms  ({})  {:>4.0} ns/op",
            cell.n,
            cell.full_ms,
            cell.full_fp,
            ns_per_op(cell.full_ms, cell.full_ops),
            cell.simple_ms,
            cell.simple_fp,
            ns_per_op(cell.simple_ms, cell.simple_ops)
        );
        if !smoke && n == 4096 {
            assert!(
                cell.full_ms < 60_000.0,
                "full model at n=4096 must finish 500 steps in < 60 s, took {:.0} ms",
                cell.full_ms
            );
        }

        cells.push(Json::Obj(vec![
            ("n".into(), (cell.n as u64).to_json()),
            ("full_ms".into(), ms3(cell.full_ms)),
            ("full_ops".into(), cell.full_ops.to_json()),
            (
                "full_ns_per_op".into(),
                ms3(ns_per_op(cell.full_ms, cell.full_ops)),
            ),
            ("full_checksum".into(), cell.full_fp.to_json()),
            ("simple_ms".into(), ms3(cell.simple_ms)),
            ("simple_ops".into(), cell.simple_ops.to_json()),
            (
                "simple_ns_per_op".into(),
                ms3(ns_per_op(cell.simple_ms, cell.simple_ops)),
            ),
            ("simple_checksum".into(), cell.simple_fp.to_json()),
        ]));
    }

    // The sparse-engine scaling ladder (full mode only): full model at
    // n up to 2¹⁸, recording wall-clock and resident class-state bytes.
    // Sub-quadratic growth in both columns is the tentpole claim; the
    // dense engine stored 2·8·n² bytes and could not climb past 4096.
    let mut large_rows = Vec::new();
    if !smoke {
        outln!();
        for n in LARGE_SIZES {
            let cell = run_large_cell(n, LARGE_STEPS);
            outln!(
                "  n={:<6} large full {:>10.2} ms  ({})  {:.0} ns/op  {} B/proc",
                cell.n,
                cell.full_ms,
                cell.full_fp,
                ns_per_op(cell.full_ms, cell.full_ops),
                cell.state_bytes / cell.n
            );
            large_rows.push(Json::Obj(vec![
                ("n".into(), (cell.n as u64).to_json()),
                ("steps".into(), (cell.steps as u64).to_json()),
                ("full_ms".into(), ms3(cell.full_ms)),
                ("full_ops".into(), cell.full_ops.to_json()),
                (
                    "full_ns_per_op".into(),
                    ms3(ns_per_op(cell.full_ms, cell.full_ops)),
                ),
                ("full_checksum".into(), cell.full_fp.to_json()),
                ("state_bytes".into(), (cell.state_bytes as u64).to_json()),
                (
                    "bytes_per_proc".into(),
                    ((cell.state_bytes / cell.n) as u64).to_json(),
                ),
            ]));
        }
    }

    // The event-driven stepping ladder: n = 2²⁰ at two activity levels.
    // Per-step cost must track the active fraction — when activity
    // drops 10x, the sparse step must get at least 2x cheaper (the
    // dense path, by contrast, is flat in activity and ~constant here).
    let mut sparse_rows = Vec::new();
    if !smoke {
        outln!();
        let mut sparse_cells = Vec::new();
        for (label, gap) in SPARSE_LEVELS {
            let cell = run_sparse_cell(SPARSE_N, gap, SPARSE_STEPS, 1);
            outln!(
                "  n={:<8} sparse {label:<5} {:>9.2} ms  dense {:>9.2} ms  ({})  {:.0} active/step",
                cell.n,
                cell.sparse_ms,
                cell.dense_ms,
                cell.fp,
                cell.active_per_step()
            );
            sparse_rows.push(cell.to_row(label, None));
            sparse_cells.push(cell);
        }
        let busy = &sparse_cells[0];
        let quiet = &sparse_cells[1];
        assert!(
            quiet.sparse_ms * 2.0 <= busy.sparse_ms,
            "sparse per-step cost must track the active fraction: \
             {:.2} ms at 1% vs {:.2} ms at 0.1% activity",
            busy.sparse_ms,
            quiet.sparse_ms
        );
    }

    // The stall ladder: the 1 % stream at an equal event count, from a
    // cluster that fits in cache to one where every record is a miss.
    outln!();
    let (label, gap) = SPARSE_LEVELS[0];
    let ladder: &[(usize, usize)] = if smoke {
        &STALL_LADDER_SMOKE
    } else {
        &STALL_LADDER
    };
    let mut in_cache_ns = None;
    for &(n, steps) in ladder {
        let cell = run_sparse_cell(n, gap, steps, STALL_REPS);
        let ratio = cell.ns_per_event() / *in_cache_ns.get_or_insert(cell.ns_per_event());
        outln!(
            "  n={:<8} ladder {:>9.2} ms  ({})  {} events  {:>6.1} ns/event  x{ratio:.2}",
            cell.n,
            cell.sparse_ms,
            cell.fp,
            cell.events,
            cell.ns_per_event()
        );
        sparse_rows.push(cell.to_row(label, Some(ratio)));
    }

    outln!();
    let rng = run_rng_cell(reps);
    outln!(
        "  rng    {RNG_DRAWS} draws  {:>6.2} ns/u64  {:>6.1} ns/refill  ({})",
        rng.ns_per_u64,
        rng.ns_per_refill,
        rng.fp
    );
    let rng_row = Json::Obj(vec![
        ("seed".into(), RNG_SEED.to_json()),
        ("draws".into(), RNG_DRAWS.to_json()),
        ("ns_per_u64".into(), ms3(rng.ns_per_u64)),
        ("ns_per_refill".into(), ms3(rng.ns_per_refill)),
        ("checksum".into(), rng.fp.to_json()),
    ]);

    let mut fields = vec![
        ("bench".into(), "core".to_json()),
        (
            "matrix".into(),
            if smoke { "smoke" } else { "paper" }.to_json(),
        ),
        ("steps".into(), (steps as u64).to_json()),
        ("reps".into(), (reps as u64).to_json()),
        ("effective_cores".into(), (default_jobs() as u64).to_json()),
        ("sizes".into(), Json::Arr(cells)),
    ];
    if !large_rows.is_empty() {
        fields.push(("large".into(), Json::Arr(large_rows)));
    }
    if !sparse_rows.is_empty() {
        fields.push(("sparse_step".into(), Json::Arr(sparse_rows)));
    }
    fields.push(("rng".into(), rng_row));
    let doc = Json::Obj(fields);
    std::fs::write(&out, doc.render_pretty()).expect("JSON written");
    outln!("\nwrote {out}");
}
