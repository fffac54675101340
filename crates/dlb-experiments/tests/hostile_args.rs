//! Every `dlb-exp` row refuses a value it cannot run the way it refuses
//! an unknown key: the reason, the usage line, exit 2, and nothing on
//! stdout — no panic, no partial table, no file written.

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
    let stderr = String::from_utf8_lossy(&out.stderr);
    let name = row.name;
    assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} printed before refusing");
    assert!(stderr.starts_with(reason), "{name}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: dlb-exp {name} ")),
        "{name}: {stderr}"
    );
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
