//! Per-layer metrics from one traced replay: span totals and exact
//! counts turned into the rows of `metrics::PER_LAYER`, layer by layer.

use std::collections::BTreeMap;

use crate::metrics::PER_LAYER;
use crate::replay::Replay;
use crate::spans::{self_ns, Recorder};
use crate::stats::{median, tail_rank};

/// The per-layer rows of one workload; every registered metric is
/// present, and reads 0 until its layer sets it.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|d| (d.0, 0.0)).collect())
    }

    /// # Panics
    ///
    /// Panics when `name` is not in `PER_LAYER` — a typo here would
    /// otherwise drop a metric silently.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric")) = value;
    }

    pub fn into_map(self) -> BTreeMap<&'static str, f64> {
        self.0
    }
}

/// `num / den`, or 0 where the layer did no work.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The spans of a few replays of one scenario, read at reference speed
/// (see `calib`).  A total is the median over the replays, so a speed
/// flip in the middle of one of them does not decide a row.
pub struct Timed<'a> {
    /// Each replay's recorder with the factor that takes its clock to
    /// reference speed.
    pub replays: &'a [(Recorder, f64)],
}

impl Timed<'_> {
    fn median_over_replays(&self, of: impl Fn(&Recorder) -> f64) -> f64 {
        let totals: Vec<f64> = self
            .replays
            .iter()
            .map(|(rec, factor)| of(rec) * factor)
            .collect();
        median(&totals)
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.median_over_replays(|rec| rec.total_s(name))
    }

    /// Durations of the spans called `name` in the first replay (for
    /// percentiles, which need one replay's samples), in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let (rec, factor) = &self.replays[0];
        rec.durations(name)
            .iter()
            .map(|&ns| ns as f64 / 1e3 * factor)
            .collect()
    }

    /// Σ layer times: the self time of every span inside the root except
    /// the structural `run` spans.  Their own time (and the root's) is
    /// the run loop's glue — dlb-cli's cost, which belongs in the
    /// residual with process start, scenario decode, report and teardown.
    pub fn layer_sum_s(&self) -> f64 {
        self.median_over_replays(|rec| {
            let spans = rec.spans();
            let own: u64 = spans
                .iter()
                .zip(self_ns(spans))
                .filter(|(s, _)| s.parent.is_some() && s.name != "run")
                .map(|(_, own)| own)
                .sum();
            own as f64 / 1e9
        })
    }
}

/// dlb-workload and dlb-faults rows of a `dlb run` replay.
pub fn workload_and_faults(m: &mut Layers, t: &Timed, replay: &Replay) {
    let work = replay.work as f64;
    let gen_s = t.total_s("workload.gen");
    m.set("workload.gen_s", gen_s);
    m.set(
        "workload.setup_s",
        t.total_s("workload.new") + t.total_s("workload.drop"),
    );
    m.set("workload.events", work);
    m.set("workload.gen_ns_per_event", ratio(gen_s * 1e9, work));
    m.set("workload.active_share", ratio(work, replay.slots as f64));
    m.set("faults.mask_s", t.total_s("faults.mask"));
    m.set("faults.mask_rebuilds", replay.mask_rebuilds as f64);
    let f = replay.faults;
    m.set(
        "faults.msgs_lost",
        (f.dropped_control + f.dropped_transfers + f.partition_cuts) as f64,
    );
    m.set("faults.msgs_duplicated", f.duplicated as f64);
}

/// dlb-core rows (synchronous engines; nothing to do when the replay
/// has no `core.step` spans).
pub fn core(m: &mut Layers, t: &Timed, replay: &Replay) {
    let mut steps = t.durations_us("core.step");
    if steps.is_empty() {
        return;
    }
    steps.sort_by(f64::total_cmp);
    let work = replay.work as f64;
    let step_s = t.total_s("core.step");
    let ops = replay.core.balance_ops as f64;
    m.set("core.construct_s", t.total_s("core.construct"));
    m.set("core.drop_s", t.total_s("core.drop"));
    m.set("core.finish_s", t.total_s("core.finish"));
    m.set("core.step_s", step_s);
    m.set("core.observe_s", t.total_s("core.observe"));
    m.set("core.step_ns_per_event", ratio(step_s * 1e9, work));
    m.set("core.step_ns_per_op", ratio(step_s * 1e9, ops));
    m.set("core.step_p50_us", steps[(steps.len() - 1) / 2]);
    if let Some((pct, rank)) = tail_rank(steps.len()) {
        m.set("core.step_tail_us", steps[rank]);
        m.set("core.step_tail_pct", pct);
    }
    m.set("core.step_max_us", steps[steps.len() - 1]);
    m.set("core.step_samples", steps.len() as f64);
    m.set("core.balance_ops", ops);
    m.set("core.packets_migrated", replay.core.packets_migrated as f64);
    m.set("core.messages", replay.core.messages as f64);
    m.set("core.ops_per_event", ratio(ops, work));
    m.set(
        "core.migrated_per_op",
        ratio(replay.core.packets_migrated as f64, ops),
    );
    m.set(
        "core.state_bytes_per_proc",
        ratio(replay.state_bytes as f64, replay.n as f64),
    );
}

/// dlb-net rows (async strategy).
pub fn net(m: &mut Layers, t: &Timed, replay: &Replay) {
    let Some(net) = replay.net else { return };
    let tick_s = t.total_s("net.tick");
    m.set("net.tick_s", tick_s);
    m.set("net.conservation_s", t.total_s("net.conservation"));
    m.set("net.observe_s", t.total_s("net.observe"));
    m.set("net.quiesce_s", t.total_s("net.quiesce"));
    m.set("net.completed_ops", net.completed_ops as f64);
    m.set("net.aborted_ops", net.aborted_ops as f64);
    m.set("net.retries", net.retries as f64);
    m.set("net.messages", net.messages as f64);
    m.set(
        "net.abort_share",
        ratio(
            net.aborted_ops as f64,
            (net.completed_ops + net.aborted_ops) as f64,
        ),
    );
    m.set(
        "net.tick_ns_per_msg",
        ratio(tick_s * 1e9, net.messages as f64),
    );
}

/// dlb-serve rows (all but the micro-loops).
pub fn serve(m: &mut Layers, t: &Timed, replay: &Replay) {
    let Some(stats) = &replay.serve else { return };
    let (sim_s, gen_s) = (t.total_s("serve.sim"), t.total_s("serve.gen"));
    let requests = stats.issued as f64;
    m.set("serve.parse_s", t.total_s("serve.parse"));
    m.set("serve.gen_s", gen_s);
    m.set("serve.sim_s", sim_s);
    m.set("serve.sim_self_s", sim_s - gen_s);
    m.set("serve.render_s", t.total_s("serve.render"));
    m.set("serve.ns_per_req", ratio(sim_s * 1e9, requests));
    m.set("serve.requests", requests);
    m.set("serve.rebalances", stats.rebalances as f64);
    m.set("serve.redirected", stats.redirected as f64);
    m.set("serve.dropped", stats.dropped as f64);
    m.set(
        "serve.redirect_share",
        ratio(stats.redirected as f64, requests),
    );
    m.set(
        "serve.rebalances_per_req",
        ratio(stats.rebalances as f64, requests),
    );
    m.set("serve.lat_p50_ticks", stats.latency.quantile(0.5) as f64);
    m.set("serve.lat_p99_ticks", stats.latency.quantile(0.99) as f64);
    m.set("serve.lat_p999_ticks", stats.latency.quantile(0.999) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_sum_leaves_out_glue_and_spans_outside_the_root() {
        let mut rec = Recorder::new(true);
        rec.enter("replay");
        rec.enter("run");
        rec.span("core.step", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.exit();
        rec.exit();
        rec.span("serve.gen", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let replays = [(rec, 2.0)];
        let t = Timed { replays: &replays };
        let step_s = t.total_s("core.step");
        assert!(step_s >= 0.004, "2 ms at factor 2, got {step_s}");
        assert!((t.layer_sum_s() - step_s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a registered")]
    fn unknown_metric_names_are_refused() {
        Layers::new().set("core.typo_s", 1.0);
    }

    #[test]
    fn core_rows_come_from_spans_and_counts() {
        let mut rec = Recorder::new(true);
        rec.enter("replay");
        for _ in 0..3 {
            rec.span("core.step", || std::hint::black_box(1 + 1));
        }
        rec.exit();
        let mut replay = Replay {
            work: 10,
            n: 4,
            state_bytes: 400,
            ..Replay::default()
        };
        replay.core.balance_ops = 5;
        replay.core.packets_migrated = 20;
        let mut m = Layers::new();
        let replays = [(rec, 1.0)];
        core(&mut m, &Timed { replays: &replays }, &replay);
        let m = m.into_map();
        assert_eq!(m["core.step_samples"], 3.0);
        assert_eq!(m["core.ops_per_event"], 0.5);
        assert_eq!(m["core.migrated_per_op"], 4.0);
        assert_eq!(m["core.state_bytes_per_proc"], 100.0);
        assert_eq!(m["core.step_tail_pct"], 0.0, "3 samples have no tail");
        assert_eq!(m["net.tick_s"], 0.0, "untouched layers read 0");
    }
}
