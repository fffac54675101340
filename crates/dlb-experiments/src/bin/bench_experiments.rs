//! Times the Monte Carlo experiment harness sequentially vs in parallel
//! on a fixed scenario matrix and writes `BENCH_experiments.json` at the
//! repo root — the perf trajectory later PRs are measured against.
//!
//! For every scenario the binary runs the same workload twice — once
//! with `jobs = 1` and once with `jobs = N` — records both wall-clock
//! times, and checksums each aggregate result.  The checksums MUST match
//! (the harness guarantees bit-identical reduction in run-index order);
//! the binary aborts with a non-zero exit if they ever diverge, so CI
//! can run it as a determinism gate.  Timings naturally vary between
//! machines and runs; every other byte of the JSON (keys, scenario
//! names, checksums) is stable.
//!
//! Usage: `cargo run --release -p dlb-experiments --bin bench_experiments
//!         [--jobs N] [--smoke] [--out BENCH_experiments.json]
//!         [--check BENCH_experiments.json]`
//!
//! `--smoke` shrinks the matrix to seconds for CI; the default matrix is
//! the §7 paper scale.  `--check <baseline>` re-runs the scenario matrix
//! and exits non-zero if any checksum differs from the committed
//! baseline — the CI drift gate for the simulation results themselves
//! (timings are machine-dependent; checksums are not).  The reported
//! `effective_cores` is the machine's available parallelism: speedup
//! numbers are only meaningful relative to it (a 1-core runner is
//! expected to report ~1.0x).

#![forbid(unsafe_code)]

use dlb_core::{Cluster, LoadBalancer, LoadEvent, Params};
use dlb_experiments::args::{Args, Flag, Key};
use dlb_experiments::faultsweep::{sweep, SweepConfig};
use dlb_experiments::parallel::default_jobs;
use dlb_experiments::quality::{balancing_quality, distribution_at};
use dlb_experiments::report::render_table;
use dlb_experiments::table1::table1_row;
use dlb_json::{Json, ToJson};
use std::time::Instant;

/// FNV-1a over a canonical byte rendering: the determinism fingerprint
/// of one scenario's aggregate output.
struct Checksum(u64);

impl Checksum {
    fn new() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    fn push_f64(&mut self, v: f64) {
        // Bit pattern, not value: the guarantee is bit-identity.
        self.push_u64(v.to_bits());
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

struct Scenario {
    name: &'static str,
    /// Runs the scenario with the given worker count and returns the
    /// checksum of its aggregate output.
    run: Box<dyn Fn(usize) -> String>,
}

fn scenarios(smoke: bool) -> Vec<Scenario> {
    // (n, steps, runs): §7 paper scale, or a tiny smoke matrix for CI.
    let (n, steps, runs) = if smoke { (16, 80, 8) } else { (64, 500, 100) };
    let sweep_cfg = move |jobs: usize| SweepConfig {
        n: if smoke { 8 } else { 16 },
        steps: if smoke { 300 } else { 1_500 },
        runs: if smoke { 2 } else { 3 },
        losses: vec![0.0, 0.10],
        crash_counts: vec![0, 2],
        jobs,
        ..SweepConfig::default()
    };
    vec![
        Scenario {
            name: "fig7_quality",
            run: Box::new(move |jobs| {
                let params = Params::new(n, 1, 1.1, 4).expect("valid");
                let q = balancing_quality(params, steps, runs, 2024, jobs);
                let mut sum = Checksum::new();
                for t in 0..steps {
                    sum.push_f64(q.mean[t]);
                    sum.push_u64(q.min[t]);
                    sum.push_u64(q.max[t]);
                }
                sum.hex()
            }),
        },
        Scenario {
            name: "fig9_distribution",
            run: Box::new(move |jobs| {
                let params = Params::new(n, 1, 1.1, 4).expect("valid");
                let checkpoints = [steps / 10, steps / 2, steps - 1];
                let snaps = distribution_at(params, steps, &checkpoints, runs, 4096, jobs);
                let mut sum = Checksum::new();
                for snap in &snaps {
                    sum.push_u64(snap.t as u64);
                    for i in 0..n {
                        sum.push_f64(snap.mean[i]);
                        sum.push_u64(snap.min[i]);
                        sum.push_u64(snap.max[i]);
                    }
                }
                sum.hex()
            }),
        },
        Scenario {
            name: "table1_borrow",
            run: Box::new(move |jobs| {
                let mut sum = Checksum::new();
                for c in [4usize, 16] {
                    let params = Params::new(n, 1, 1.1, c).expect("valid matrix");
                    let row = table1_row(params, steps, runs, 31, jobs);
                    sum.push_u64(row.c as u64);
                    sum.push_f64(row.total_borrow);
                    sum.push_f64(row.remote_borrow);
                    sum.push_f64(row.borrow_fail);
                    sum.push_f64(row.decrease_sim);
                }
                sum.hex()
            }),
        },
        Scenario {
            name: "faults_sweep",
            run: Box::new(move |jobs| {
                let result = sweep(&sweep_cfg(jobs));
                let mut sum = Checksum::new();
                sum.push_bytes(result.to_json().render().as_bytes());
                sum.hex()
            }),
        },
    ]
}

/// Times one fixed `Cluster` workload (min over `reps`, which rejects
/// scheduler noise) and fingerprints its outcome, optionally with a
/// `NullSink` attached — the "tracing compiled in but disabled" path.
fn time_cluster_run(n: usize, steps: usize, null_sink: bool, reps: usize) -> (f64, String) {
    let params = Params::new(n, 1, 1.1, 4).expect("valid");
    let events = vec![LoadEvent::Generate; n];
    let mut best = f64::INFINITY;
    let mut fingerprint = String::new();
    for _ in 0..reps {
        let mut cluster = Cluster::with_initial_load(params, 7, 0);
        if null_sink {
            cluster.set_trace_sink(dlb_trace::SharedSink::new(dlb_trace::NullSink));
        }
        let t0 = Instant::now();
        for _ in 0..steps {
            cluster.step(&events);
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        let mut sum = Checksum::new();
        for &l in &cluster.loads() {
            sum.push_u64(l);
        }
        sum.push_u64(cluster.metrics().balance_ops);
        fingerprint = sum.hex();
    }
    (best, fingerprint)
}

/// `--check` mode: re-runs the scenario matrix (checksums are invariant
/// in `jobs`, so the smoke matrix must match the baseline only if the
/// baseline was also a smoke run — the matrices differ otherwise, which
/// is why the baseline's recorded matrix kind is honoured, not the
/// caller's `--smoke` flag) and compares every scenario checksum against
/// the committed baseline.  Exits 1 on any drift.
fn check_against(baseline_path: &str, jobs: usize) -> ! {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("parse {baseline_path}: {e}"));
    let smoke = doc.get("matrix").and_then(Json::as_str) == Some("smoke");
    let baseline: Vec<(String, String)> = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .expect("baseline has a scenarios array")
        .iter()
        .map(|s| {
            (
                s.get("name")
                    .and_then(Json::as_str)
                    .expect("scenario name")
                    .to_string(),
                s.get("seq_checksum")
                    .and_then(Json::as_str)
                    .expect("scenario seq_checksum")
                    .to_string(),
            )
        })
        .collect();
    println!(
        "bench_experiments --check: verifying {} scenario checksums \
         against {baseline_path} ({} matrix, {jobs} jobs)\n",
        baseline.len(),
        if smoke { "smoke" } else { "paper-scale" }
    );
    let mut drifted = 0usize;
    for scenario in scenarios(smoke) {
        let Some((_, expected)) = baseline.iter().find(|(name, _)| name == scenario.name) else {
            println!("  {:<20} MISSING from baseline", scenario.name);
            drifted += 1;
            continue;
        };
        let got = (scenario.run)(jobs);
        if &got == expected {
            println!("  {:<20} ok    {got}", scenario.name);
        } else {
            println!(
                "  {:<20} DRIFT baseline {expected} != current {got}",
                scenario.name
            );
            drifted += 1;
        }
    }
    if drifted > 0 {
        println!(
            "\n{drifted} scenario(s) drifted from {baseline_path}: the simulation \
             results changed.  If intentional, regenerate the baseline."
        );
        std::process::exit(1);
    }
    println!("\nAll checksums match {baseline_path}.");
    std::process::exit(0);
}

const KEYS: &[Key] =
    dlb_experiments::keys!["smoke": Flag, "jobs": usize, "out": String, "check": String];

fn main() {
    let args = Args::from_env("bench_experiments", KEYS);
    let smoke = args.flag("smoke");
    let jobs: usize = args.get("jobs", default_jobs());
    let out: String = args.get("out", "BENCH_experiments.json".to_string());
    let check: String = args.get("check", String::new());
    if !check.is_empty() {
        check_against(&check, jobs);
    }

    println!(
        "bench_experiments: sequential vs {jobs}-job parallel harness \
         ({} matrix, {} effective cores)\n",
        if smoke { "smoke" } else { "paper-scale" },
        default_jobs()
    );

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for scenario in scenarios(smoke) {
        let t0 = Instant::now();
        let seq_checksum = (scenario.run)(1);
        let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let par_checksum = (scenario.run)(jobs);
        let par_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            seq_checksum, par_checksum,
            "{}: parallel output diverged from sequential — determinism bug",
            scenario.name
        );
        let speedup = seq_ms / par_ms.max(1e-9);
        rows.push(vec![
            scenario.name.to_string(),
            format!("{seq_ms:.1}"),
            format!("{par_ms:.1}"),
            format!("{speedup:.2}x"),
            seq_checksum.clone(),
        ]);
        let ms = |x: f64| Json::Float((x * 1000.0).round() / 1000.0);
        cells.push(Json::Obj(vec![
            ("name".into(), scenario.name.to_json()),
            ("seq_ms".into(), ms(seq_ms)),
            ("par_ms".into(), ms(par_ms)),
            ("speedup".into(), ms(speedup)),
            ("seq_checksum".into(), seq_checksum.to_json()),
            ("par_checksum".into(), par_checksum.to_json()),
        ]));
    }

    println!(
        "{}",
        render_table(
            &["scenario", "seq ms", "par ms", "speedup", "checksum"],
            &rows
        )
    );
    println!("All parallel checksums matched their sequential runs.");

    // Disabled-tracing overhead gate: an engine with a NullSink attached
    // must behave identically to one with no sink at all and cost < 2%
    // extra wall clock (the emission guards are a single branch).
    let (reps, trace_steps) = if smoke { (3, 2_000) } else { (7, 8_000) };
    let (base_ms, base_fp) = time_cluster_run(64, trace_steps, false, reps);
    let (null_ms, null_fp) = time_cluster_run(64, trace_steps, true, reps);
    assert_eq!(base_fp, null_fp, "NullSink changed engine behaviour");
    let overhead = null_ms / base_ms.max(1e-9);
    println!(
        "\ntrace overhead (NullSink vs no sink, {trace_steps} steps, min of {reps}): \
         {base_ms:.2} ms -> {null_ms:.2} ms ({overhead:.4}x)"
    );
    assert!(
        overhead < 1.02,
        "disabled tracing must cost < 2%, measured {overhead:.4}x"
    );

    let ms3 = |x: f64| Json::Float((x * 1000.0).round() / 1000.0);
    let doc = Json::Obj(vec![
        ("bench".into(), "experiments".to_json()),
        (
            "matrix".into(),
            if smoke { "smoke" } else { "paper" }.to_json(),
        ),
        ("jobs".into(), (jobs as u64).to_json()),
        ("effective_cores".into(), (default_jobs() as u64).to_json()),
        ("scenarios".into(), Json::Arr(cells)),
        (
            "trace_overhead".into(),
            Json::Obj(vec![
                ("baseline_ms".into(), ms3(base_ms)),
                ("null_sink_ms".into(), ms3(null_ms)),
                ("ratio".into(), ms3(overhead)),
                ("checksum".into(), base_fp.to_json()),
            ]),
        ),
    ]);
    std::fs::write(&out, doc.render_pretty()).expect("JSON written");
    println!("\nwrote {out}");
}
