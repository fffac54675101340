//! A `--trace` path that cannot be created — here a file under
//! `/dev/null`, which is no directory — is refused with the OS's own
//! reason before anything is printed or run: `dlb run` (a plain run and
//! a league) and `dlb serve` exit 1 with an empty stdout.  No directory
//! is made on the way to a trace, so the reason is the path's, not that
//! of a failed `mkdir`.

#![cfg(unix)]

use std::process::Command;

#[test]
fn an_uncreatable_trace_is_refused_before_any_output() {
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let plain = format!("{scenarios}/paper_section7.json");
    let league = format!("{scenarios}/arena_faceoff.json");
    let service = format!("{scenarios}/service_diurnal.json");
    let trace = "/dev/null/x.jsonl";
    let commands: [&[&str]; 3] = [
        &["run", &plain, "--trace", trace],
        &["run", &league, "--trace", trace],
        &["serve", &service, "--trace", trace],
    ];
    for args in commands {
        let out = Command::new(env!("CARGO_BIN_EXE_dlb"))
            .args(args)
            .output()
            .expect("dlb runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "dlb {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "dlb {args:?} printed before refusing: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            stderr.contains("cannot create trace /dev/null/x.jsonl: Not a directory"),
            "dlb {args:?}: {stderr}"
        );
    }
}

/// A trace names a file in a directory that exists: a missing directory
/// is refused, not created.
#[test]
fn a_trace_in_a_missing_directory_is_refused() {
    let dir = std::env::temp_dir().join(format!("dlb_no_trace_dir_{}", std::process::id()));
    let trace = dir.join("x.jsonl");
    let plain = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/paper_section7.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_dlb"))
        .args(["run", plain, "--trace"])
        .arg(&trace)
        .output()
        .expect("dlb runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "printed before refusing");
    assert!(stderr.contains("No such file or directory"), "{stderr}");
    assert!(!dir.exists(), "the trace's directory was created");
}
