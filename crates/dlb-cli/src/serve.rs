//! `dlb serve` — run a service scenario on the simulated clock.
//!
//! ```text
//! dlb serve <scenario.json> [--mode sim] [--out <path>] [--trace <path>]
//! ```
//!
//! The stats JSON is byte-identical across repeated runs for a fixed
//! seed, which is what CI golden-gates.  `--mode sim` names the only
//! mode there is; any other mode is refused.
//!
//! The process exits non-zero if the conservation ledger breaks.

use dlb_experiments::outln;
use dlb_json::ToJson;
use dlb_serve::ServiceScenario;
use dlb_trace::{FileSink, SharedSink};

pub const SERVE_USAGE: &str =
    "usage: dlb serve <scenario.json> [--mode sim] [--out <path>] [--trace <path>]";

#[derive(Debug)]
struct ServeOptions {
    out: Option<String>,
    trace: Option<String>,
}

fn parse_serve_options(rest: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions {
        out: None,
        trace: None,
    };
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--mode" => match iter.next().ok_or("--mode needs sim")?.as_str() {
                "sim" => {}
                other => {
                    return Err(format!(
                        "unknown mode {other:?}: wall-clock serving was removed; \
                         `dlb serve` runs on the simulated clock only (--mode sim)"
                    ))
                }
            },
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
    let stats = dlb_serve::run_sim(&scenario, sink.clone())?;
    // The driver flushes the sink before it returns.
    if let (Some(e), Some(trace_path)) = (sink.and_then(|s| s.take_error()), &opts.trace) {
        return Err(format!("cannot write trace {trace_path}: {e}"));
    }
    // The driver verifies the ledger every tick (and errors out on a
    // violation), so reaching this point means conservation held.
    assert!(stats.conservation_holds(), "the driver enforces the ledger");
    let rendered = stats.to_json().render_pretty();
    match &opts.out {
        Some(out) => std::fs::write(out, rendered.as_bytes())
            .map_err(|e| format!("cannot write {out}: {e}"))?,
        None => outln!("{rendered}"),
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
            "--mode", "sim", "--out", "x.json", "--trace", "t",
        ]))
        .unwrap();
        assert_eq!(opts.out.as_deref(), Some("x.json"));
        assert_eq!(opts.trace.as_deref(), Some("t"));
        let opts = parse_serve_options(&[]).unwrap();
        assert!(opts.out.is_none() && opts.trace.is_none());
        for mode in ["wall", "turbo"] {
            let err = parse_serve_options(&strings(&["--mode", mode])).unwrap_err();
            assert!(err.contains("wall-clock serving was removed"), "{err}");
        }
        assert!(parse_serve_options(&strings(&["--mode"])).is_err());
        // The worker count went with the wall-clock driver.
        let err = parse_serve_options(&strings(&["--workers", "4"])).unwrap_err();
        assert!(err.starts_with("unknown option \"--workers\""), "{err}");
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
        for (out, mode) in [(&out_a, None), (&out_b, Some("sim"))] {
            let mut args = vec![scen_path.to_str().unwrap(), "--out", out.to_str().unwrap()];
            if let Some(mode) = mode {
                args.extend(["--mode", mode]);
            }
            serve_main(&strings(&args)).unwrap();
        }
        let a = std::fs::read(&out_a).unwrap();
        let b = std::fs::read(&out_b).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "stats must be byte-identical across runs");

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
