//! Writes `BENCH_core.json` at the repo root: the core engines' ledger
//! on fixed seeded workloads.  Every value in it is a checksum, a count
//! or a byte figure, so the file is a golden that CI regenerates and
//! `cmp`s; wall-clock is `benchmark/`'s to measure.
//!
//! * `sizes` — the full [`Cluster`] and the practical [`SimpleCluster`]
//!   on 500 steps of the §7 phase workload at n ∈ {64, 512, 4096}: the
//!   balance-operation count and an FNV-1a fingerprint of the final
//!   loads and metrics.  Each engine runs twice; the runs must agree.
//! * `large` — the full engine at n = 2¹⁴, 2¹⁶, 2¹⁸ for 120 steps, its
//!   state held under 4 KiB per processor (`state_bytes`): memory scales
//!   with active classes, where two dense u64 matrices cost 16·n bytes.
//! * `sparse_step` — the full engine through [`LoadBalancer::step_sparse`]
//!   on a load-neutral phase workload, at n = 2²⁰ for 1 % and 0.1 %
//!   activity and on four 1 % rungs of equal event count from n = 2¹⁴
//!   to 2²⁰.  Each fingerprint must equal a dense `step` run's over the
//!   same events, and an n = 2²⁰ row must stay within 192 B/processor.
//! * `rng` — the fold of 2²⁴ `next_u64` draws of the vendored
//!   `ChaCha8Rng`, drawn twice.
//!
//! Every final state is invariant-checked; a failed check panics.
//!
//! Usage: `cargo run --release -p dlb-experiments --bin bench_core
//!         [--out BENCH_core.json]`

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

use dlb_core::{Cluster, LoadBalancer, Params, SimpleCluster};
use dlb_experiments::args::{Args, Key};
use dlb_experiments::outln;
use dlb_json::{Json, ToJson};
use dlb_workload::phase::{PhaseConfig, PhaseWorkload};
use dlb_workload::sparse::{drive_sparse, SparseActivity, SparsePattern};
use dlb_workload::{drive, Workload};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Debug;

/// The `sizes` rows and their steps.
const SIZES: [usize; 3] = [64, 512, 4096];
const STEPS: usize = 500;
/// The `large` rows: full engine only, fewer steps.
const LARGE_SIZES: [usize; 3] = [16_384, 65_536, 262_144];
const LARGE_STEPS: usize = 120;
/// The n = 2²⁰ `sparse_step` rows: two-step work phases (generate, then
/// consume) with the sleep gap setting the activity, 2/(2 + mean gap).
const SPARSE_N: usize = 1 << 20;
const SPARSE_STEPS: usize = 200;
const SPARSE_LEVELS: [(&str, (u32, u32)); 2] = [("1%", (100, 300)), ("0.1%", (1000, 3000))];
/// The 1 % rungs' `(n, steps)`: n · steps is constant.
const LADDER: [(usize, usize); 4] = [
    (1 << 14, 6400),
    (1 << 16, 1600),
    (1 << 18, 400),
    (1 << 20, 100),
];
/// The `rng` row: `RNG_DRAWS` `next_u64` from seed `RNG_SEED`.
const RNG_SEED: u64 = 4711;
const RNG_DRAWS: u64 = 1 << 24;

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

/// A JSON object of `fields`, in order.
fn obj<const K: usize>(fields: [(&str, Json); K]) -> Json {
    Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// Runs `run` twice and asserts both runs agree.
fn twice<T: PartialEq + Debug>(what: &str, run: impl Fn() -> T) -> T {
    let first = run();
    assert_eq!(first, run(), "nondeterministic {what}");
    first
}

/// Drives `balancer` through `steps` dense steps of `workload` and
/// returns it.
fn run<B: LoadBalancer>(mut balancer: B, mut workload: impl Workload, steps: usize) -> B {
    drive(&mut balancer, &mut workload, steps, |_, _| {});
    balancer
}

/// The §7 phase workload at `n` over `steps` steps (seed 9).
fn paper(n: usize, steps: usize) -> PhaseWorkload {
    PhaseWorkload::new(n, steps, PhaseConfig::paper_section7(), 9)
}

/// One `sizes` row: both engines at `n`, each run twice.
fn sizes_row(n: usize) -> Json {
    let params = Params::paper_section7(n);
    let (full_fp, full_ops) = twice("full engine", || {
        let c = run(Cluster::new(params, 1), paper(n, STEPS), STEPS);
        c.check_invariants().expect("final cluster invariants");
        (fingerprint(&c), c.metrics().balance_ops)
    });
    let (simple_fp, simple_ops) = twice("simple engine", || {
        let s = run(SimpleCluster::new(params, 1), paper(n, STEPS), STEPS);
        s.check_invariants().expect("final simple invariants");
        (fingerprint(&s), s.metrics().balance_ops)
    });
    outln!(
        "  n={n:<7} full   {full_fp} {full_ops:>9} ops   simple {simple_fp} {simple_ops:>9} ops"
    );
    obj([
        ("n", n.to_json()),
        ("full_ops", full_ops.to_json()),
        ("full_checksum", full_fp.to_json()),
        ("simple_ops", simple_ops.to_json()),
        ("simple_checksum", simple_fp.to_json()),
    ])
}

/// One `large` row: the full engine at `n`, its final footprint held
/// under 4 KiB per processor.
fn large_row(n: usize) -> Json {
    let params = Params::paper_section7(n);
    let cluster = run(Cluster::new(params, 1), paper(n, LARGE_STEPS), LARGE_STEPS);
    cluster.check_invariants().expect("large-n invariants");
    let state_bytes = cluster.state_bytes();
    let per_proc = state_bytes / n;
    assert!(
        per_proc < 4096,
        "sparse state must stay far below the dense 16·n B/proc: n={n} uses {per_proc} B/proc"
    );
    let (fp, ops) = (fingerprint(&cluster), cluster.metrics().balance_ops);
    outln!("  n={n:<7} large  {fp} {ops:>9} ops   {per_proc} B/proc");
    obj([
        ("n", n.to_json()),
        ("steps", LARGE_STEPS.to_json()),
        ("full_ops", ops.to_json()),
        ("full_checksum", fp.to_json()),
        ("state_bytes", state_bytes.to_json()),
        ("bytes_per_proc", per_proc.to_json()),
    ])
}

/// One `sparse_step` row: the full engine through `step_sparse` at `n`
/// for `steps` steps of the phase workload with sleep gap `gap`, then
/// through the dense `step` on the same events; the two final states
/// must be bit-identical.
fn sparse_row(activity: &str, n: usize, gap: (u32, u32), steps: usize) -> Json {
    let pattern = SparsePattern::Phase { work: 2, gap };
    let params = Params::paper_section7(n);
    let mut events = 0u64;
    let fp = {
        let mut cluster = Cluster::new(params, 1);
        let mut workload = SparseActivity::new(n, pattern, 9);
        drive_sparse(&mut cluster, &mut workload, steps, |_, active, _| {
            events += active.len() as u64;
        });
        cluster.check_invariants().expect("sparse-step invariants");
        // One 128-byte record per processor plus the few rows that
        // spilled: at a million processors the layout has fattened if
        // that passes 192.
        let per_proc = cluster.state_bytes() / n;
        assert!(
            n < SPARSE_N || per_proc <= 192,
            "full-model state at n={n} must stay within 192 B/proc, uses {per_proc}"
        );
        fingerprint(&cluster)
    };
    let workload = SparseActivity::new(n, pattern, 9);
    let dense = run(Cluster::new(params, 1), workload, steps);
    assert_eq!(
        fingerprint(&dense),
        fp,
        "sparse and dense paths diverged at n={n}, gap={gap:?}"
    );
    let active_per_step = events as f64 / steps as f64;
    outln!("  n={n:<7} sparse {fp} {active_per_step:>9.0} active/step  {activity}");
    obj([
        ("activity", activity.to_json()),
        ("n", n.to_json()),
        ("steps", steps.to_json()),
        ("gap_lo", gap.0.to_json()),
        ("gap_hi", gap.1.to_json()),
        (
            "active_per_step",
            Json::Float((active_per_step * 1000.0).round() / 1000.0),
        ),
        ("checksum", fp.to_json()),
    ])
}

/// The `rng` row: the FNV-1a-style fold of the draws, one `u64` per
/// round, drawn twice.
fn rng_row() -> Json {
    let fp = twice("generator", || {
        let mut rng = ChaCha8Rng::seed_from_u64(RNG_SEED);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..RNG_DRAWS {
            hash = (hash ^ rng.next_u64()).wrapping_mul(0x0000_0100_0000_01B3);
        }
        format!("{hash:016x}")
    });
    outln!("  rng       {fp} {RNG_DRAWS} draws");
    obj([
        ("seed", RNG_SEED.to_json()),
        ("draws", RNG_DRAWS.to_json()),
        ("checksum", fp.to_json()),
    ])
}

const KEYS: &[Key] = dlb_experiments::keys!["out": String];

fn main() {
    let args = Args::from_env("bench_core", KEYS);
    let out: String = args.get("out", "BENCH_core.json".to_string());
    outln!("bench_core: engine checksums on the paper and sparse-phase workloads\n");
    let sizes = SIZES.map(sizes_row);
    outln!();
    let large = LARGE_SIZES.map(large_row);
    outln!();
    let sparse_step = SPARSE_LEVELS
        .iter()
        .map(|&(activity, gap)| (activity, SPARSE_N, gap, SPARSE_STEPS))
        .chain(LADDER.map(|(n, steps)| (SPARSE_LEVELS[0].0, n, SPARSE_LEVELS[0].1, steps)))
        .map(|(activity, n, gap, steps)| sparse_row(activity, n, gap, steps))
        .collect();
    outln!();
    let doc = obj([
        ("bench", "core".to_json()),
        ("steps", STEPS.to_json()),
        ("sizes", Json::Arr(sizes.into())),
        ("large", Json::Arr(large.into())),
        ("sparse_step", Json::Arr(sparse_step)),
        ("rng", rng_row()),
    ]);
    std::fs::write(&out, doc.render_pretty()).expect("JSON written");
    outln!("\nwrote {out}");
}
