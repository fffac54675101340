//! `--compare A.json B.json`: applies the bounds of `BENCHMARK.json`
//! to two result files (A = parent, B = change; or two sets of runs of
//! one commit) and demands exact equality of every simulated statistic.

use dlb_json::Json;

use crate::metrics::is_exact;
use crate::stats::{median, spread};

/// Verdict on one (end-to-end metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound and the two sets
    /// of runs overlap: the data cannot tell.
    Unresolved,
}

/// Judges samples `a` against `b` for a metric whose larger values are
/// better when `higher`, with regression bound `bound` (a share of A's
/// median).
pub fn verdict(a: &[f64], b: &[f64], higher: bool, bound: f64) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let worse_by = if higher {
        (med_a - med_b) / med_a
    } else {
        (med_b - med_a) / med_a
    };
    if spread(a).max(spread(b)) > bound {
        // Too noisy for the bound — unless every run of B beats every
        // run of A, which no spread can explain away.
        let b_always_better = if higher {
            b.iter().all(|y| a.iter().all(|x| y > x))
        } else {
            b.iter().all(|y| a.iter().all(|x| y < x))
        };
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn samples(metric: &Json) -> Option<Vec<f64>> {
    metric
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Prints one row per (end-to-end metric, workload) and per differing
/// exact statistic; `Ok(true)` when nothing is worse or mismatched.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<bool, String> {
    let mut pass = true;
    let workloads_a = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A lacks \"workloads\"")?;
    let defs = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks \"end_to_end\"")?;
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for (name, wa) in workloads_a {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<16} missing from B");
            pass = false;
            continue;
        };
        for def in defs {
            let field = |k: &str| def.get(k).and_then(Json::as_str).unwrap_or_default();
            let (metric, higher) = (field("name"), field("better") == "higher");
            let bound = def.get("bound").and_then(Json::as_f64).ok_or("bound")?;
            let get = |w: &Json| w.get("end_to_end")?.get(metric).and_then(samples);
            let (Some(sa), Some(sb)) = (get(wa), get(wb)) else {
                continue; // a layers-only result has no end-to-end block
            };
            let v = verdict(&sa, &sb, higher, bound);
            pass &= v != Verdict::Worse;
            let (ma, mb) = (median(&sa), median(&sb));
            println!(
                "{name:<16} {metric:<14} {ma:>12.5} {mb:>12.5} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                (mb - ma) / ma * 100.0,
                spread(&sa).max(spread(&sb)) * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Simulated statistics: the checksum and every exact layer metric.
        let sum = |w: &Json| w.get("checksum").and_then(Json::as_str).map(str::to_string);
        if sum(wa) != sum(wb) {
            println!(
                "{name:<16} checksum {:?} != {:?}  MISMATCH",
                sum(wa),
                sum(wb)
            );
            pass = false;
        }
        let layers = |w: &Json| w.get("per_layer").and_then(Json::as_obj).map(<[_]>::to_vec);
        if let (Some(la), Some(lb)) = (layers(wa), layers(wb)) {
            for (metric, va) in &la {
                let unit = va.get("unit").and_then(Json::as_str).unwrap_or_default();
                let value = |v: &Json| v.get("value").map(Json::render);
                let vb = lb.iter().find(|(k, _)| k == metric).map(|(_, v)| v);
                if is_exact(unit) && vb.map(value) != Some(value(va)) {
                    println!(
                        "{name:<16} {metric} {:?} != {:?}  MISMATCH",
                        value(va),
                        vb.map(value)
                    );
                    pass = false;
                }
            }
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_made_samples() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Within the bound.
        assert_eq!(
            verdict(&a, &[1.05, 1.04, 1.06, 1.05, 1.05], false, 0.10),
            Verdict::Ok
        );
        // Lower-is-better metric 20 % up: worse.
        assert_eq!(
            verdict(&a, &[1.20, 1.21, 1.19, 1.20, 1.22], false, 0.10),
            Verdict::Worse
        );
        // The same numbers on a higher-is-better metric are a gain.
        assert_eq!(
            verdict(&a, &[1.20, 1.21, 1.19, 1.20, 1.22], true, 0.10),
            Verdict::Ok
        );
        // Higher-is-better metric 20 % down: worse.
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.82], true, 0.10),
            Verdict::Worse
        );
        // Spread wider than the bound, runs overlap: cannot tell.
        let noisy = [0.7, 1.0, 1.4, 0.9, 1.2];
        assert_eq!(verdict(&a, &noisy, false, 0.10), Verdict::Unresolved);
        // Spread wider than the bound but every run of B is better.
        assert_eq!(
            verdict(&noisy, &[0.5, 0.6, 0.4, 0.55, 0.65], false, 0.10),
            Verdict::Ok
        );
    }

    fn result(wall: &[f64], checksum: &str, ops: u64) -> Json {
        let samples: Vec<String> = wall.iter().map(|w| w.to_string()).collect();
        Json::parse(&format!(
            r#"{{"workloads":{{"w":{{"checksum":"{checksum}",
                "end_to_end":{{"wall_s":{{"unit":"s","samples":[{}]}}}},
                "per_layer":{{"core.balance_ops":{{"value":{ops},"unit":"count"}},
                              "core.step_s":{{"value":{},"unit":"s"}}}}}}}}}}"#,
            samples.join(","),
            wall[0]
        ))
        .unwrap()
    }

    #[test]
    fn compare_flags_regressions_and_count_mismatches() {
        let benchmark = Json::parse(
            r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let a = result(&[1.0, 1.01, 0.99], "abc", 7);
        assert!(compare(&benchmark, &a, &result(&[1.02, 1.0, 1.01], "abc", 7)).unwrap());
        assert!(!compare(&benchmark, &a, &result(&[1.3, 1.31, 1.29], "abc", 7)).unwrap());
        assert!(!compare(&benchmark, &a, &result(&[1.0, 1.01, 0.99], "abc", 8)).unwrap());
        assert!(!compare(&benchmark, &a, &result(&[1.0, 1.01, 0.99], "abd", 7)).unwrap());
    }
}
