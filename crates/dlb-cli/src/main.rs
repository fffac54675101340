//! `dlb` — config-driven runner for the SPAA'93 load balancing workspace.
//!
//! ```text
//! dlb demo [options]                  run the built-in §7 demo scenario
//! dlb run <scenario.json> [options]   run a scenario from a JSON file
//!                                     (a non-empty "balancer" list races
//!                                     the strategy against each entry and
//!                                     prints a league table instead)
//! dlb template                        print a scenario template to stdout
//! dlb serve <scenario.json> [--mode sim|wall] [--workers N] [--acceptors A]
//!                                     run the request-routing service
//!                                     (see src/serve.rs for options)
//!
//! options:
//!   --trace <path>   write a JSONL event trace (dlb-trace schema)
//!   --jobs N         worker threads; output is identical for every N
//!   --profile        add per-step StepProfile events to the trace
//!   --dense          force the dense O(n)-per-step path for
//!                    sparse-capable workloads (output is byte-identical
//!                    either way; the event-driven path is the default)
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

mod config;
#[cfg(test)]
mod contract;
mod run;
mod serve;

use config::Scenario;
use run::RunOptions;

const USAGE: &str = "usage: dlb <demo | run <scenario.json> | template | \
                     serve <scenario.json>> [--trace <path>] [--jobs N] \
                     [--profile] [--dense]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = dispatch(&args) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("demo") => {
            parse_options(&args[1..]).and_then(|opts| run_scenario(Scenario::demo(), &opts))
        }
        Some("run") => match args.get(1).filter(|a| !a.starts_with("--")) {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => match Scenario::from_json(&text) {
                    Ok(scenario) => {
                        parse_options(&args[2..]).and_then(|opts| run_scenario(scenario, &opts))
                    }
                    Err(e) => Err(format!("invalid scenario {path}: {e}")),
                },
                Err(e) => Err(format!("cannot read {path}: {e}")),
            },
            None => Err(USAGE.to_string()),
        },
        Some("serve") => serve::serve_main(&args[1..]),
        Some("template") => {
            println!("{}", Scenario::demo().to_json());
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    }
}

fn parse_options(rest: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions::default();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trace" => {
                opts.trace = Some(iter.next().ok_or("--trace needs a path")?.clone());
            }
            "--jobs" => {
                let raw = iter.next().ok_or("--jobs needs a thread count")?;
                opts.jobs = raw
                    .parse()
                    .map_err(|e| format!("invalid --jobs {raw:?}: {e}"))?;
            }
            "--profile" => opts.profile = true,
            "--dense" => opts.dense = true,
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn run_scenario(scenario: Scenario, opts: &RunOptions) -> Result<(), String> {
    if !scenario.balancer.is_empty() {
        println!(
            "league: {} processors, {} steps x {} runs, {} contenders\n",
            scenario.n,
            scenario.steps,
            scenario.runs,
            scenario.balancer.len() + 1
        );
        let table = run::execute_league(&scenario, opts)?;
        println!("{table}");
        if let Some(path) = opts.trace.as_ref().or(scenario.trace.as_ref()) {
            println!("\ntrace written to {path}");
        }
        return Ok(());
    }
    println!(
        "running: {} processors, {} steps x {} runs, strategy {:?}\n",
        scenario.n, scenario.steps, scenario.runs, scenario.strategy
    );
    let report = run::execute_with(&scenario, opts)?;
    println!("{}", report.render());
    if let Some(path) = opts.trace.as_ref().or(scenario.trace.as_ref()) {
        println!("\ntrace written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// `dlb run` without a path used to print a second, hand-written
    /// usage string that had lost `--dense`.
    #[test]
    fn run_without_a_path_prints_the_one_usage() {
        assert_eq!(dispatch(&strings(&["run"])), Err(USAGE.to_string()));
        assert_eq!(
            dispatch(&strings(&["run", "--jobs", "2"])),
            Err(USAGE.to_string())
        );
    }

    /// Each document decodes.  The two latencies used to wrap
    /// `8·latency` and `(4·latency) << attempt` to 0 — exit 0 on a
    /// silently wrong run — and the jitter to panic in the event queue
    /// ("scheduled into the past").  `main` turns an `Err` into exit 1.
    #[test]
    fn run_refuses_timing_values_that_would_wrap() {
        let dir = std::env::temp_dir().join("dlb_cli_hostile_async_test");
        std::fs::create_dir_all(&dir).unwrap();
        let document = |latency: &str, jitter: &str| {
            format!(
                r#"{{"n": 8, "steps": 50, "runs": 1,
                    "strategy": {{"kind": "async", "delta": 2, "f": 1.3, "latency": {latency}}},
                    "workload": {{"kind": "uniform", "p_gen": 0.5, "p_con": 0.3}},
                    "faults": {{"loss": 0.1, "jitter": {jitter}}}}}"#
            )
        };
        for (name, text, needle) in [
            ("l61.json", document("2305843009213693952", "3"), "latency"),
            ("l62.json", document("4611686018427387904", "3"), "latency"),
            ("jmax.json", document("4", "18446744073709551615"), "jitter"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let err = dispatch(&strings(&["run", path.to_str().unwrap()])).unwrap_err();
            assert!(
                err.starts_with("invalid scenario ") && err.contains(needle),
                "{err}"
            );
        }
    }

    #[test]
    fn usage_lists_exactly_the_accepted_flags() {
        let accepted = [
            ("--trace", Some("t.jsonl")),
            ("--jobs", Some("2")),
            ("--profile", None),
            ("--dense", None),
        ];
        for (flag, value) in accepted {
            let args: Vec<&str> = std::iter::once(flag).chain(value).collect();
            parse_options(&strings(&args)).unwrap_or_else(|e| panic!("{flag}: {e}"));
        }
        let listed: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphabetic() || c == '-'))
            .filter(|word| word.starts_with("--"))
            .collect();
        assert_eq!(listed, accepted.map(|(flag, _)| flag));
    }

    #[test]
    fn a_removed_flag_is_an_unknown_option() {
        let err = parse_options(&strings(&["--step-jobs", "4"])).unwrap_err();
        assert!(err.starts_with("unknown option \"--step-jobs\""), "{err}");
        assert!(err.ends_with(USAGE), "{err}");
    }
}
