//! `dlb serve` — run a service scenario on either serving engine.
//!
//! ```text
//! dlb serve <scenario.json> [--mode sim|wall] [--workers N]
//!           [--acceptors A] [--out <path>] [--trace <path>]
//! ```
//!
//! `sim` (the default) runs the single-threaded simulated-clock engine:
//! the stats JSON is byte-identical across repeated runs *and* across
//! `--workers`/`--acceptors` values for a fixed seed, which is what CI
//! golden-gates.  `wall` runs `A` sharded acceptors + `N` workers
//! against the real clock and adds the throughput block
//! (`BENCH_service.json` numbers); `--acceptors` overrides the
//! scenario's `acceptors` key (default 1).
//!
//! The process exits non-zero if the conservation ledger breaks.

use dlb_json::ToJson;
use dlb_serve::ServiceScenario;
use dlb_trace::{FileSink, SharedSink};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Sim,
    Wall,
}

pub const SERVE_USAGE: &str = "usage: dlb serve <scenario.json> [--mode sim|wall] \
                               [--workers N] [--acceptors A] [--out <path>] [--trace <path>]";

struct ServeOptions {
    mode: Mode,
    workers: usize,
    /// `None` defers to the scenario's `acceptors` key.
    acceptors: Option<usize>,
    out: Option<String>,
    trace: Option<String>,
}

fn parse_serve_options(rest: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions {
        mode: Mode::Sim,
        // Leave a core for the acceptor(s); the sim engine ignores this.
        workers: dlb_pool::default_jobs().saturating_sub(1).max(1),
        acceptors: None,
        out: None,
        trace: None,
    };
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--mode" => {
                let raw = iter.next().ok_or("--mode needs sim|wall")?;
                opts.mode = match raw.as_str() {
                    "sim" => Mode::Sim,
                    "wall" => Mode::Wall,
                    other => return Err(format!("unknown mode {other:?} (expected sim|wall)")),
                };
            }
            "--workers" => {
                let raw = iter.next().ok_or("--workers needs a thread count")?;
                let parsed: usize = raw
                    .parse()
                    .map_err(|e| format!("invalid --workers {raw:?}: {e}"))?;
                if parsed == 0 {
                    return Err("--workers must be at least 1".into());
                }
                opts.workers = parsed;
            }
            "--acceptors" => {
                let raw = iter.next().ok_or("--acceptors needs a thread count")?;
                let parsed: usize = raw
                    .parse()
                    .map_err(|e| format!("invalid --acceptors {raw:?}: {e}"))?;
                if parsed == 0 {
                    return Err("--acceptors must be at least 1".into());
                }
                opts.acceptors = Some(parsed);
            }
            "--out" => {
                opts.out = Some(iter.next().ok_or("--out needs a path")?.clone());
            }
            "--trace" => {
                opts.trace = Some(iter.next().ok_or("--trace needs a path")?.clone());
            }
            other => return Err(format!("unknown option {other:?}\n{SERVE_USAGE}")),
        }
    }
    Ok(opts)
}

/// Entry point for the `serve` subcommand (`rest` excludes `serve`).
pub fn serve_main(rest: &[String]) -> Result<(), String> {
    let path = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or(SERVE_USAGE)?;
    let opts = parse_serve_options(&rest[1..])?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scenario =
        ServiceScenario::parse(&text).map_err(|e| format!("invalid scenario {path}: {e}"))?;
    let sink = match &opts.trace {
        Some(trace_path) => Some(SharedSink::new(
            FileSink::create(std::path::Path::new(trace_path))
                .map_err(|e| format!("cannot create trace {trace_path}: {e}"))?,
        )),
        None => None,
    };
    let stats = match opts.mode {
        Mode::Sim => dlb_serve::run_sim(&scenario, sink.clone())?,
        Mode::Wall => {
            let acceptors = opts.acceptors.unwrap_or(scenario.acceptors);
            dlb_serve::run_wall(&scenario, opts.workers, acceptors, sink.clone())?
        }
    };
    // Both engines flush the sink before they return.
    if let (Some(e), Some(trace_path)) = (sink.and_then(|s| s.take_error()), &opts.trace) {
        return Err(format!("cannot write trace {trace_path}: {e}"));
    }
    // Both engines verify the ledger internally (and error out on a
    // violation), so reaching this point means conservation held.
    assert!(stats.conservation_holds(), "engines enforce the ledger");
    let rendered = stats.to_json().render_pretty();
    match &opts.out {
        Some(out) => std::fs::write(out, rendered.as_bytes())
            .map_err(|e| format!("cannot write {out}: {e}"))?,
        None => println!("{rendered}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_and_reject() {
        let opts = parse_serve_options(&strings(&[
            "--mode",
            "wall",
            "--workers",
            "3",
            "--acceptors",
            "2",
            "--out",
            "x.json",
        ]))
        .unwrap();
        assert_eq!(opts.mode, Mode::Wall);
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.acceptors, Some(2));
        assert_eq!(opts.out.as_deref(), Some("x.json"));
        let defaulted = parse_serve_options(&[]).unwrap();
        assert_eq!(
            defaulted.acceptors, None,
            "absent --acceptors defers to the scenario key"
        );
        assert!(parse_serve_options(&strings(&["--mode", "turbo"])).is_err());
        assert!(parse_serve_options(&strings(&["--workers", "0"])).is_err());
        assert!(parse_serve_options(&strings(&["--acceptors", "0"])).is_err());
        assert!(parse_serve_options(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn serve_runs_a_scenario_end_to_end_and_is_reproducible() {
        let dir = std::env::temp_dir().join("dlb_serve_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let scen_path = dir.join("scen.json");
        std::fs::write(
            &scen_path,
            r#"{
                "shards": 4, "ticks": 300, "seed": 5, "delta": 2, "f": 2.0,
                "keys": 64, "zipf_s": 1.1, "service_ticks": [1, 3],
                "phases": [{"ticks": 100, "rate": 1.5}],
                "faults": {"crashes": [{"proc": 2, "at": 120, "recover_at": 220}]}
            }"#,
        )
        .unwrap();
        let out_a = dir.join("a.json");
        let out_b = dir.join("b.json");
        for (out, workers) in [(&out_a, "1"), (&out_b, "7")] {
            serve_main(&strings(&[
                scen_path.to_str().unwrap(),
                "--mode",
                "sim",
                "--workers",
                workers,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let a = std::fs::read(&out_a).unwrap();
        let b = std::fs::read(&out_b).unwrap();
        assert!(!a.is_empty());
        assert_eq!(
            a, b,
            "sim stats must be byte-identical across --workers values"
        );

        // The trace sink sits behind a `SharedSink` here; a write
        // failure must come back as an error, not unwind.
        #[cfg(target_os = "linux")]
        {
            let err = serve_main(&strings(&[
                scen_path.to_str().unwrap(),
                "--out",
                out_a.to_str().unwrap(),
                "--trace",
                "/dev/full",
            ]))
            .unwrap_err();
            assert!(err.starts_with("cannot write trace /dev/full: "), "{err}");
        }
    }

    /// Both documents decode; both used to take the process down in
    /// the request source (abort on an 80 TB table, panic on a cycle
    /// length wrapped to zero).  `main` turns an `Err` into exit 1.
    #[test]
    fn serve_refuses_scenarios_the_request_source_cannot_take() {
        let dir = std::env::temp_dir().join("dlb_serve_cli_hostile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let document = |keys: &str, phases: &str| {
            format!(
                r#"{{"shards": 4, "ticks": 300, "delta": 2, "keys": {keys}, "zipf_s": 1.1,
                    "service_ticks": [1, 3], "phases": [{phases}]}}"#
            )
        };
        let half = r#"{"ticks": 9223372036854775808, "rate": 1.0}"#;
        for (name, text, needle) in [
            (
                "keys.json",
                document("10000000000000", r#"{"ticks": 100, "rate": 1.5}"#),
                "keys 10000000000000",
            ),
            (
                "phases.json",
                document("64", &format!("{half}, {half}")),
                "phase #1",
            ),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let err = serve_main(&strings(&[path.to_str().unwrap()])).unwrap_err();
            assert!(
                err.starts_with("invalid scenario ") && err.contains(needle),
                "{err}"
            );
        }
    }
}
