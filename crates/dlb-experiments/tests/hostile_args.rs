//! Every `dlb-exp` row refuses a value it cannot run the way it refuses
//! an unknown key: the reason, the usage line, exit 2, and nothing on
//! stdout — no panic, no partial table, no file written.  So do the
//! files the tools read: `bench_core --check` and `faults_sweep
//! --scenario`.

use dlb_experiments::exp::{Experiment, EXPERIMENTS};
use std::path::Path;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// Runs `dlb-exp` with `args` in `dir`, where a row that ran anyway
/// would write its CSV (not under the repository's results/).
fn dlb_exp(dir: &Path, args: &[&str]) -> Output {
    std::fs::create_dir_all(dir).expect("scratch directory");
    Command::new(env!("CARGO_BIN_EXE_dlb-exp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("dlb-exp runs")
}

/// Asserts the refusal: exit 2, `reason` first, the usage line, no stdout.
fn assert_refused(row: &Experiment, out: &Output, reason: &str) {
    assert_refused_by(&format!("dlb-exp {}", row.name), out, reason);
}

/// [`assert_refused`] for any `program`; returns stderr.
fn assert_refused_by(program: &str, out: &Output, reason: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{program}: {stderr}");
    assert!(out.stdout.is_empty(), "{program} printed before refusing");
    assert!(stderr.starts_with(reason), "{program}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {program} ")),
        "{program}: {stderr}"
    );
    stderr
}

/// Writes each `(document, what the error must say)` of `cases` to a
/// file in `dir` and runs `exe` with `flag <file>` after `args` (a
/// `None` document: a path that does not exist).  Each run must be
/// refused as `program` naming the path, say what it must, and write
/// nothing.
fn assert_files_refused(
    dir: &Path,
    (exe, args, program): (&str, &[&str], &str),
    flag: &str,
    cases: &[(Option<&str>, &str)],
) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("scratch directory");
    for (k, (doc, says)) in cases.iter().enumerate() {
        let path = dir.join(format!("case{k}.json"));
        if let Some(doc) = doc {
            std::fs::write(&path, doc).expect("case written");
        }
        let path = path.to_str().expect("UTF-8 path");
        let out = Command::new(exe)
            .args(args)
            .args([flag, path])
            .current_dir(dir)
            .output()
            .expect("the tool runs");
        let stderr = assert_refused_by(program, &out, &format!("error: {flag} {path}: "));
        assert!(stderr.contains(says), "{doc:?} must say {says:?}: {stderr}");
    }
    let written: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|f| !f.to_string_lossy().starts_with("case"))
        .collect();
    assert!(written.is_empty(), "a refused run wrote {written:?}");
    std::fs::remove_dir_all(dir).ok();
}

/// Each row's settable keys, in declaration order.  The §7 sizes are
/// constants, so `--n`, `--steps`, `--runs`, `--c`, `--seed` and
/// `--roots` are unknown options like any misspelling; so is `--delta`,
/// since `fig7_quality` and `fig9_distribution` draw both of the
/// paper's δ in one run.
const KEY_SURFACE: [(&str, &[&str]); 11] = [
    ("claims", &["jobs", "out"]),
    ("fig6_variation", &["jobs", "out"]),
    ("fig7_quality", &["jobs", "out"]),
    ("fig9_distribution", &["jobs", "out"]),
    ("table1_borrow", &["smoke", "jobs", "out"]),
    ("scaling", &["jobs", "out"]),
    ("ablation", &["jobs", "out"]),
    ("closed_loop", &["jobs", "out"]),
    ("async_latency", &["jobs", "out"]),
    ("faults_sweep", &["scenario", "jobs", "out", "svg"]),
    ("arena", &["smoke", "jobs", "out", "svg", "trace"]),
];

/// `fig9_distribution --steps 100` used to write `u64::MAX` minima,
/// `ablation --n 60` to panic and `closed_loop --roots 0` to write NaN
/// speedups; `fig7_quality --delta 2` used to label its output Figure 8.
#[test]
fn every_row_declares_exactly_its_keys_and_refuses_the_rest() {
    let declared: Vec<(&str, Vec<&str>)> = EXPERIMENTS
        .iter()
        .map(|row| (row.name, row.keys.iter().map(|k| k.name).collect()))
        .collect();
    let expected: Vec<(&str, Vec<&str>)> = KEY_SURFACE
        .iter()
        .map(|&(name, keys)| (name, keys.to_vec()))
        .collect();
    assert_eq!(declared, expected);
    let total: usize = KEY_SURFACE.iter().map(|(_, keys)| keys.len()).sum();
    assert_eq!(total, 28);

    let dir = std::env::temp_dir().join("dlb_exp_hostile_keys");
    for row in EXPERIMENTS {
        let unknown = [
            ("n", "1"),
            ("runs", "0"),
            ("steps", "100"),
            ("roots", "0"),
            ("delta", "4"),
        ];
        for (key, value) in unknown {
            let out = dlb_exp(&dir, &[row.name, &format!("--{key}"), value]);
            assert_refused(row, &out, &format!("error: unknown option --{key}\n"));
        }
    }
    assert!(!dir.join("results").exists(), "a refused row wrote output");
    std::fs::remove_dir_all(&dir).ok();
}

/// The league's trace used to be created after every run, CSV and SVG:
/// a path that cannot exist cost the whole league, then panicked.
#[cfg(unix)]
#[test]
fn uncreatable_arena_trace_is_refused_before_any_run() {
    let dir = std::env::temp_dir().join("dlb_exp_hostile_trace");
    let out = dlb_exp(&dir, &["arena", "--smoke", "--trace", "/dev/null/x.jsonl"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: cannot create trace /dev/null/x.jsonl: "),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "the arena printed before refusing");
    assert!(!dir.join("results").exists(), "the arena wrote its CSV/SVG");
    std::fs::remove_dir_all(&dir).ok();
}

/// A baseline `--check` cannot decode used to panic, and a negative,
/// fractional or huge `n`, `steps` or gap was truncated by `as`.
#[test]
fn bench_core_refuses_an_undecodable_baseline_before_any_row() {
    let sizes = |n: &str| {
        format!(r#"{{"sizes": [{{"n": {n}, "full_checksum": "a", "simple_checksum": "b"}}]}}"#)
    };
    let large = |steps: &str| {
        format!(
            r#"{{"sizes": [], "large": [{{"n": 64, "steps": {steps}, "full_checksum": "a"}}]}}"#
        )
    };
    let sparse = |lo: &str, hi: &str| {
        format!(
            r#"{{"sizes": [], "sparse_step": [{{"n": 64, "steps": 4, "gap_lo": {lo}, "gap_hi": {hi}, "checksum": "a"}}]}}"#
        )
    };
    let docs = [
        sizes("-1"),
        sizes("16.5"),
        sizes("18446744073709551616"),
        sizes("1"),
        large("-3"),
        large("2.5"),
        sparse("1.5", "3"),
        sparse("1", "18446744073709551616"),
        sparse("300", "100"),
    ];
    let says = [
        "sizes[0]: field 'n': integer -1 out of range",
        "sizes[0]: field 'n': expected integer",
        "sizes[0]: field 'n': integer 18446744073709551616 out of range",
        "sizes[0]: field 'n': ",
        "large[0]: field 'steps': integer -3 out of range",
        "large[0]: field 'steps': expected integer",
        "sparse_step[0]: field 'gap_lo': expected integer",
        "sparse_step[0]: field 'gap_hi': integer 18446744073709551616 out of range",
        "sparse_step[0]: fields 'gap_lo', 'gap_hi': ",
    ];
    let mut cases: Vec<(Option<&str>, &str)> = vec![
        (None, "No such file"),
        (Some("{\"sizes\": ["), ""),
        (Some("{}"), "missing field 'sizes'"),
        (
            Some(r#"{"sizes": [{"n": 16, "full_checksum": "a"}]}"#),
            "sizes[0]: missing field 'simple_checksum'",
        ),
        (
            Some(r#"{"sizes": [], "rng": {}}"#),
            "rng: missing field 'checksum'",
        ),
    ];
    cases.extend(docs.iter().map(String::as_str).map(Some).zip(says));
    assert_files_refused(
        &std::env::temp_dir().join("bench_core_hostile_check"),
        (env!("CARGO_BIN_EXE_bench_core"), &[], "bench_core"),
        "--check",
        &cases,
    );
}

/// A scenario `faults_sweep` cannot read or run used to panic.
#[test]
fn faults_sweep_refuses_an_undecodable_scenario_before_any_output() {
    assert_files_refused(
        &std::env::temp_dir().join("dlb_exp_hostile_scenario"),
        (
            env!("CARGO_BIN_EXE_dlb-exp"),
            &["faults_sweep"],
            "dlb-exp faults_sweep",
        ),
        "--scenario",
        &[
            (None, "No such file"),
            (Some("[1,"), ""),
            (Some(r#"{"n": -4}"#), "field 'n': integer -4 out of range"),
            (Some(r#"{"n": 8.5}"#), "field 'n': expected integer"),
            (
                Some(r#"{"n": 18446744073709551616}"#),
                "field 'n': integer 18446744073709551616 out of range",
            ),
            (Some(r#"{"n": 2}"#), "n = 2"),
            (Some(r#"{"faults": 3}"#), "field 'faults': "),
            (
                Some(r#"{"faults": {"loss": 2.0}}"#),
                "field 'faults': loss = 2",
            ),
            (
                Some(r#"{"n": 8, "faults": {"crashes": [{"proc": 40, "at": 5}]}}"#),
                "field 'faults': crash #0: proc 40 out of range (n = 8)",
            ),
            (Some(r#"{"steps": 1}"#), "steps = 1: crash sweep: "),
        ],
    );
}

/// A reader that goes away (`dlb-exp scaling | head -12`) ends a row
/// quietly: status 141, what a shell reports for a writer killed by
/// `SIGPIPE`, and no panic on stderr.  Every row prints before its
/// first run, so each stops there — within [`CLOSED_STDOUT_DEADLINE`]:
/// a row that runs on instead is killed and named, not waited for.
#[test]
fn a_closed_stdout_ends_every_row_quietly() {
    let dir = std::env::temp_dir().join("dlb_exp_closed_stdout");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let names = EXPERIMENTS.iter().map(|row| row.name).chain(["list"]);
    for name in names {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        // Stderr goes to a file, so the child never waits on a full pipe
        // while this test polls it.
        let stderr_path = dir.join(format!("{name}.stderr"));
        let stderr_file = std::fs::File::create(&stderr_path).expect("a stderr file");
        let mut child = Command::new(env!("CARGO_BIN_EXE_dlb-exp"))
            .arg(name)
            .current_dir(&dir)
            .stdout(writer)
            .stderr(stderr_file)
            .spawn()
            .expect("dlb-exp runs");
        let started = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("dlb-exp can be waited on") {
                break status;
            }
            if started.elapsed() > CLOSED_STDOUT_DEADLINE {
                child.kill().ok();
                child.wait().ok();
                panic!(
                    "dlb-exp {name}: still running {CLOSED_STDOUT_DEADLINE:?} after its stdout closed"
                );
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let stderr = std::fs::read_to_string(&stderr_path).unwrap_or_default();
        assert!(!stderr.contains("panicked"), "dlb-exp {name}: {stderr}");
        assert_eq!(status.code(), Some(141), "dlb-exp {name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// How long a row may run with its stdout closed.  Each prints before
/// its first run and ends there, in milliseconds even in a debug build;
/// the bound only turns a hang into a failure that names the row.
const CLOSED_STDOUT_DEADLINE: Duration = Duration::from_secs(60);

/// `trace_analyze` and `bench_core` end the same way: each prints a
/// header before it analyses or runs anything.
#[test]
fn a_closed_stdout_ends_the_other_tools_quietly() {
    let dir = std::env::temp_dir().join("dlb_tools_closed_stdout");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let trace = dir.join("empty.jsonl");
    std::fs::write(&trace, "").expect("an empty trace");
    let trace = trace.to_str().expect("a UTF-8 path");
    let out_json = dir.join("bench.json");
    let out_json = out_json.to_str().expect("a UTF-8 path");
    let tools: [(&str, &[&str]); 3] = [
        (env!("CARGO_BIN_EXE_trace_analyze"), &["--in", trace]),
        (
            env!("CARGO_BIN_EXE_trace_analyze"),
            &["--in", trace, "--check"],
        ),
        (
            env!("CARGO_BIN_EXE_bench_core"),
            &["--smoke", "--out", out_json],
        ),
    ];
    for (bin, args) in tools {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(args)
            .stdout(writer)
            .output()
            .expect("the tool runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(141), "{bin} {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
