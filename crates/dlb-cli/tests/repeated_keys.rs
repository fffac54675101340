//! A key that repeats within one JSON object is refused by name, before
//! anything is printed or run: `dlb run` and `dlb serve` exit 1 with an
//! empty stdout.  The first occurrence used to win, so a scenario with
//! `"steps": 20, …, "steps": 0` ran 20 steps and exited 0.

use std::process::Command;

const RUN: &str = r#"{"n": 8, "steps": 20, "runs": 1,
    "strategy": {"kind": "simple", "delta": 1, "f": 1.1},
    "workload": {"kind": "one-producer"}}"#;

const SERVE: &str = r#"{"shards": 4, "ticks": 50, "delta": 2, "keys": 16,
    "service_ticks": [1, 3], "phases": [{"ticks": 10, "rate": 1.0}]}"#;

#[test]
fn a_repeated_key_is_refused_by_name() {
    let dir = std::env::temp_dir().join(format!("dlb_repeated_keys_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    // (command, scenario, the key the error names)
    let cases = [
        (
            "run",
            RUN.replacen("\"runs\"", "\"steps\": 0, \"runs\"", 1),
            "steps",
        ),
        (
            "run",
            RUN.replacen("\"f\": 1.1", "\"f\": 1.1, \"f\": 99.0", 1),
            "f",
        ),
        (
            "serve",
            SERVE.replacen("\"ticks\"", "\"shards\": 2, \"ticks\"", 1),
            "shards",
        ),
    ];
    // Each scenario holds without its repeat.
    let once = [RUN.to_string(), RUN.to_string(), SERVE.to_string()];
    for (i, ((command, text, key), once)) in cases.into_iter().zip(once).enumerate() {
        for (doc, repeated) in [(once, false), (text, true)] {
            let path = dir.join(format!("{i}_{repeated}.json"));
            std::fs::write(&path, &doc).expect("scenario written");
            let out = Command::new(env!("CARGO_BIN_EXE_dlb"))
                .arg(command)
                .arg(&path)
                .output()
                .expect("dlb runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            if !repeated {
                assert_eq!(out.status.code(), Some(0), "dlb {command} {doc}: {stderr}");
                continue;
            }
            assert_eq!(out.status.code(), Some(1), "dlb {command} {doc}: {stderr}");
            assert!(
                out.stdout.is_empty(),
                "dlb {command} printed before refusing"
            );
            let needle = format!("repeated key \"{key}\" at byte");
            assert!(stderr.contains(&needle), "dlb {command}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
