//! The metric registry: every name the benchmark prints, with its unit
//! and direction.  `BENCHMARK.json` lists the same names (a unit test
//! holds the two together) and adds the regression bounds.

/// `(name, unit, better)`.
pub type Def = (&'static str, &'static str, &'static str);

/// What a user of `dlb` pays, measured on the real process with
/// tracing spans off.
pub const END_TO_END: [Def; 4] = [
    ("wall_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Per-layer metrics from the traced replay, layer = crate.  A metric
/// reads 0 on a workload where its layer does not run.
pub const PER_LAYER: [Def; 70] = [
    // dlb-workload
    ("workload.gen_s", "s", "lower"),
    ("workload.setup_s", "s", "lower"),
    ("workload.events", "count", "higher"),
    ("workload.gen_ns_per_event", "ns", "lower"),
    ("workload.active_share", "ratio", "higher"),
    // dlb-faults
    ("faults.mask_s", "s", "lower"),
    ("faults.mask_rebuilds", "count", "lower"),
    ("faults.msgs_lost", "count", "lower"),
    ("faults.msgs_duplicated", "count", "lower"),
    // dlb-core
    ("core.construct_s", "s", "lower"),
    ("core.drop_s", "s", "lower"),
    ("core.finish_s", "s", "lower"),
    ("core.step_s", "s", "lower"),
    ("core.observe_s", "s", "lower"),
    ("core.step_ns_per_event", "ns", "lower"),
    ("core.step_ns_per_op", "ns", "lower"),
    ("core.step_p50_us", "us", "lower"),
    ("core.step_tail_us", "us", "lower"),
    ("core.step_tail_pct", "%", "higher"),
    ("core.step_max_us", "us", "lower"),
    ("core.step_samples", "count", "higher"),
    ("core.balance_ops", "count", "lower"),
    ("core.packets_migrated", "count", "lower"),
    ("core.messages", "count", "lower"),
    ("core.ops_per_event", "ratio", "lower"),
    ("core.migrated_per_op", "ratio", "higher"),
    ("core.state_bytes_per_proc", "B", "lower"),
    // dlb-trace
    ("trace.capture_s", "s", "lower"),
    ("trace.null_sink_ratio", "ratio", "lower"),
    ("trace.encode_s", "s", "lower"),
    ("trace.write_s", "s", "lower"),
    ("trace.parse_s", "s", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.bytes", "count", "lower"),
    ("trace.ns_per_event", "ns", "lower"),
    // dlb-net
    ("net.tick_s", "s", "lower"),
    ("net.conservation_s", "s", "lower"),
    ("net.observe_s", "s", "lower"),
    ("net.quiesce_s", "s", "lower"),
    ("net.completed_ops", "count", "higher"),
    ("net.aborted_ops", "count", "lower"),
    ("net.retries", "count", "lower"),
    ("net.messages", "count", "lower"),
    ("net.abort_share", "ratio", "lower"),
    ("net.tick_ns_per_msg", "ns", "lower"),
    ("net.equeue_ns_per_op", "ns", "lower"),
    // dlb-serve
    ("serve.parse_s", "s", "lower"),
    ("serve.gen_s", "s", "lower"),
    ("serve.sim_s", "s", "lower"),
    ("serve.sim_self_s", "s", "lower"),
    ("serve.render_s", "s", "lower"),
    ("serve.ns_per_req", "ns", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.rebalances", "count", "lower"),
    ("serve.redirected", "count", "lower"),
    ("serve.dropped", "count", "lower"),
    ("serve.redirect_share", "ratio", "lower"),
    ("serve.rebalances_per_req", "ratio", "lower"),
    ("serve.lat_p50_ticks", "ticks", "lower"),
    ("serve.lat_p99_ticks", "ticks", "lower"),
    ("serve.lat_p999_ticks", "ticks", "lower"),
    ("serve.router_ns_per_note", "ns", "lower"),
    ("serve.hist_ns_per_record", "ns", "lower"),
    ("serve.ring_ns_per_op", "ns", "lower"),
    // dlb-pool
    ("pool.par_speedup_2", "ratio", "higher"),
    ("pool.dispatch_us", "us", "lower"),
    // dlb-cli (the process around the library calls)
    ("cli.cpu_s", "s", "lower"),
    ("cli.residual_s", "s", "lower"),
    ("cli.residual_share", "ratio", "lower"),
    // the harness itself
    ("bench.span_overhead_ratio", "ratio", "lower"),
];

/// Simulated statistics: exact, so two runs of one commit — or of two
/// commits that claim identical behaviour — must agree to the digit.
pub fn is_exact(unit: &str) -> bool {
    matches!(unit, "count" | "ticks")
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.0 == name)
        .map(|d| d.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_json::Json;

    /// `BENCHMARK.json` is a static file the driver reads; the harness
    /// prints from the tables above.  They must name the same metrics
    /// and workloads.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |section: &str| -> Vec<(String, String, String)> {
            doc.get(section)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let expect = |defs: &[Def]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(&END_TO_END));
        assert_eq!(listed("per_layer"), expect(&PER_LAYER));
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(*better, "lower" | "higher"));
        }
    }
}
