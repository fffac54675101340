//! Every `dlb-exp` row refuses a value it cannot run the way it refuses
//! an unknown key: the reason, the usage line, exit 2, and nothing on
//! stdout — no panic, no partial table, no file written.  So does
//! `bench_core`.

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

/// [`assert_refused`] for any `program`.
fn assert_refused_by(program: &str, out: &Output, reason: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{program}: {stderr}");
    assert!(out.stdout.is_empty(), "{program} printed before refusing");
    assert!(stderr.starts_with(reason), "{program}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {program} ")),
        "{program}: {stderr}"
    );
}

/// Each row's settable keys, in declaration order.  The §7 sizes are
/// constants, so `--n`, `--steps`, `--runs`, `--c`, `--seed` and
/// `--roots` are unknown options like any misspelling; so is `--delta`,
/// since `fig7_quality` and `fig9_distribution` draw both of the
/// paper's δ in one run.  `faults_sweep`'s sizes are constants too, so
/// `--scenario` is refused as well.
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
    ("faults_sweep", &["jobs", "out", "svg"]),
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
    assert_eq!(total, 27);

    let dir = std::env::temp_dir().join("dlb_exp_hostile_keys");
    for row in EXPERIMENTS {
        let unknown = [
            ("n", "1"),
            ("runs", "0"),
            ("steps", "100"),
            ("roots", "0"),
            ("delta", "4"),
            ("scenario", "x"),
        ];
        for (key, value) in unknown {
            let out = dlb_exp(&dir, &[row.name, &format!("--{key}"), value]);
            assert_refused(row, &out, &format!("error: unknown option --{key}\n"));
        }
    }
    // `bench_core` reads no file and has one key, `--out`: its retired
    // `--check` and `--smoke` are unknown options too.
    for args in [&["--check", "x"][..], &["--smoke"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_core"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("bench_core runs");
        let reason = format!("error: unknown option {}\n", args[0]);
        assert_refused_by("bench_core", &out, &reason);
    }
    assert!(!dir.join("results").exists(), "a refused row wrote output");
    assert!(
        !dir.join("BENCH_core.json").exists(),
        "bench_core wrote output"
    );
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
        (env!("CARGO_BIN_EXE_bench_core"), &["--out", out_json]),
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
