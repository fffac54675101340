//! `trace_analyze` refuses what it cannot read, and never panics: every
//! line goes through one reader, with the analysis folded over it or
//! (`--check`) not.  A line the reader or the fold refuses exits 1 and
//! names the line, in both modes; a missing `--in` or a file that cannot
//! be opened is refused with the usage line, exit 2.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory of this test's own.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlb_trace_analyze_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn trace_analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_analyze"))
        .args(args)
        .output()
        .expect("trace_analyze runs")
}

/// Writes `lines` to `dir/name` and returns the path.
fn trace(dir: &Path, name: &str, lines: &[&str]) -> String {
    let path = dir.join(name);
    std::fs::write(&path, lines.join("\n") + "\n").expect("trace written");
    path.to_str().expect("a UTF-8 path").to_string()
}

/// Exit 1, nothing on stdout, and stderr is `error: <path>: <reason>`.
fn assert_refused(out: &Output, path: &str, reason: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "printed before refusing");
    assert_eq!(stderr, format!("error: {path}: {reason}\n"));
    stderr
}

const RUN_START: &str =
    r#"{"t":"run_start","run":0,"seed":1,"n":8,"strategy":"spaa93-full","delta":1,"f":1.1,"c":4}"#;

/// Two `delta` lines whose `balance_ops` sum past `u64::MAX`: each line
/// holds the schema, and the sum used to panic in a debug build and
/// wrap to 1 in a release build.
#[test]
fn a_counter_sum_past_u64_max_is_refused_by_line() {
    let dir = scratch("overflow");
    let path = trace(
        &dir,
        "overflow.jsonl",
        &[
            RUN_START,
            r#"{"t":"delta","step":0,"counters":{"balance_ops":18446744073709551615}}"#,
            r#"{"t":"delta","step":1,"counters":{"balance_ops":2}}"#,
        ],
    );
    let out = trace_analyze(&["--in", &path]);
    assert_refused(&out, &path, "line 3: counter 'balance_ops' passes u64::MAX");
    let checked = trace_analyze(&["--in", &path, "--check"]);
    assert_eq!(checked.status.code(), Some(0), "the schema holds");
    std::fs::remove_dir_all(&dir).ok();
}

/// A counter `Metrics` does not have used to be dropped silently.
#[test]
fn an_unknown_counter_is_refused_by_line() {
    let dir = scratch("unknown");
    let path = trace(
        &dir,
        "unknown.jsonl",
        &[
            RUN_START,
            r#"{"t":"delta","step":0,"counters":{"generated":3,"teleported":1}}"#,
        ],
    );
    let out = trace_analyze(&["--in", &path]);
    assert_refused(&out, &path, "line 2: unknown counter 'teleported'");
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed line is one refusal with or without `--check`; the
/// analysis used to panic on it.
#[test]
fn a_malformed_line_is_refused_alike_in_both_modes() {
    let dir = scratch("malformed");
    for (name, bad, reason) in [
        ("garbage.jsonl", "not json", "line 2: "),
        (
            "spaced.jsonl",
            r#"{"t": "run_end", "run": 0}"#,
            "line 2: not byte-stable",
        ),
        ("tag.jsonl", r#"{"t":"warp","step":1}"#, "line 2: "),
    ] {
        let path = trace(&dir, name, &[RUN_START, bad]);
        let analysed = trace_analyze(&["--in", &path]);
        let checked = trace_analyze(&["--in", &path, "--check"]);
        let stderr = String::from_utf8_lossy(&analysed.stderr);
        assert!(
            stderr.starts_with(&format!("error: {path}: {reason}")),
            "{stderr}"
        );
        assert_eq!(analysed.status.code(), Some(1), "{stderr}");
        assert_eq!(analysed.stdout, b"", "{name}");
        assert_eq!(checked.status, analysed.status, "{name}");
        assert_eq!(checked.stdout, analysed.stdout, "{name}");
        assert_eq!(checked.stderr, analysed.stderr, "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A missing `--in` and a file that cannot be opened are refused like
/// any unusable value: the reason, the usage line, exit 2.
#[test]
fn a_missing_or_unreadable_input_is_refused() {
    let dir = scratch("missing");
    let gone = dir.join("gone.jsonl");
    let gone = gone.to_str().expect("a UTF-8 path");
    for (args, reason) in [
        (vec![], "error: --in <trace.jsonl> is required".to_string()),
        (
            vec!["--check"],
            "error: --in <trace.jsonl> is required".to_string(),
        ),
        (
            vec!["--in", gone],
            format!("error: --in {gone}: No such file"),
        ),
    ] {
        let out = trace_analyze(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&reason), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: trace_analyze "), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before refusing");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A valid trace passes `--check` with the one line the benchmark and
/// CI read, and the analysis reads the same events.
#[test]
fn a_valid_trace_is_checked_and_analysed() {
    let dir = scratch("valid");
    let path = trace(
        &dir,
        "valid.jsonl",
        &[
            RUN_START,
            r#"{"t":"balance","step":0,"init":2,"partners":[5],"trigger":1.5}"#,
            r#"{"t":"packets","step":0,"init":2,"count":3}"#,
            r#"{"t":"delta","step":0,"counters":{"balance_ops":1,"generated":8}}"#,
            r#"{"t":"load","step":0,"min":0,"max":4,"total":8}"#,
            r#"{"t":"run_end","run":0}"#,
        ],
    );
    let checked = trace_analyze(&["--in", &path, "--check"]);
    assert_eq!(checked.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&checked.stdout),
        format!("{path}: 6 lines, schema OK (parse + byte-stable re-render)\n")
    );
    let analysed = trace_analyze(&["--in", &path]);
    let stdout = String::from_utf8_lossy(&analysed.stdout);
    assert_eq!(analysed.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.starts_with(&format!("{path}: 6 events, 1 run(s)\n")),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An output names a file in a directory that exists, as `--trace` does
/// for the tools that write traces: a missing directory is refused with
/// the OS's reason, exit 1, and nothing is created.  The parent
/// directories used to be made.
#[test]
fn an_output_in_a_missing_directory_is_refused() {
    let dir = scratch("outputs");
    let path = trace(
        &dir,
        "t.jsonl",
        &[
            RUN_START,
            r#"{"t":"delta","step":0,"counters":{"balance_ops":1}}"#,
            r#"{"t":"load","step":0,"min":0,"max":4,"total":8}"#,
            r#"{"t":"run_end","run":0}"#,
        ],
    );
    let missing = dir.join("new");
    for key in ["--out-csv", "--svg"] {
        let out_path = missing.join("a").join("b.out");
        let out_path = out_path.to_str().expect("a UTF-8 path");
        let out = trace_analyze(&["--in", &path, key, out_path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{key}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {out_path}: No such file or directory")),
            "{key}: {stderr}"
        );
        assert!(!missing.exists(), "{key} created {}", missing.display());
    }
    // Into a directory that exists, both are written.
    let csv = dir.join("a.csv");
    let svg = dir.join("a.svg");
    let out = trace_analyze(&[
        "--in",
        &path,
        "--out-csv",
        csv.to_str().expect("a UTF-8 path"),
        "--svg",
        svg.to_str().expect("a UTF-8 path"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(csv.is_file() && svg.is_file());
    std::fs::remove_dir_all(&dir).ok();
}
