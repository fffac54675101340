//! Every `dlb-exp` row refuses a value it cannot run the way it refuses
//! an unknown key: the reason, the usage line, exit 2, and nothing on
//! stdout — no panic, no partial table, no file written.  So do the
//! files the tools read: `bench_core --check` and `faults_sweep
//! --scenario`.

use dlb_experiments::exp::{Experiment, EXPERIMENTS};
use std::path::Path;
use std::process::{Command, Output};

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

fn declares(row: &Experiment, key: &str) -> bool {
    row.keys.iter().any(|k| k.name == key)
}

#[test]
fn every_row_refuses_a_one_processor_network_before_any_output() {
    let dir = std::env::temp_dir().join("dlb_exp_hostile_n");
    for row in EXPERIMENTS {
        let out = dlb_exp(&dir, &[row.name, "--n", "1"]);
        let reason = if declares(row, "n") {
            "error: --n 1: "
        } else {
            "error: unknown option --n\n"
        };
        assert_refused(row, &out, reason);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--runs 0` used to write NaN rows and `--steps 0` to panic.
#[test]
fn every_row_refuses_zero_runs_and_zero_steps_before_any_output() {
    let dir = std::env::temp_dir().join("dlb_exp_hostile_zero");
    let mut checked = 0;
    for row in EXPERIMENTS {
        for key in ["runs", "steps"].into_iter().filter(|k| declares(row, k)) {
            let out = dlb_exp(&dir, &[row.name, &format!("--{key}"), "0"]);
            assert_refused(
                row,
                &out,
                &format!("error: invalid value \"0\" for --{key}: "),
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 10,
        "only {checked} row/key pairs declare a count"
    );
    // One step leaves no room for the arena's crash to recover in.
    let arena = EXPERIMENTS.iter().find(|row| row.name == "arena").unwrap();
    let out = dlb_exp(&dir, &["arena", "--steps", "1"]);
    assert_refused(arena, &out, "error: --steps 1: ");
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

/// One step leaves the crash sweep no room to recover in: `--steps 1`
/// used to panic inside the first crashed cell.
#[test]
fn faults_sweep_refuses_a_run_too_short_for_its_crash_sweep() {
    let dir = std::env::temp_dir().join("dlb_exp_hostile_steps");
    let row = EXPERIMENTS
        .iter()
        .find(|row| row.name == "faults_sweep")
        .unwrap();
    let out = dlb_exp(&dir, &["faults_sweep", "--steps", "1"]);
    assert_refused(row, &out, "error: --steps 1: steps = 1: crash sweep: ");
    assert!(!dir.join("results").exists(), "a refused row wrote output");
    std::fs::remove_dir_all(&dir).ok();
}
