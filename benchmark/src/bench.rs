//! One workload's measurement: set-up probes and timed spawns of the
//! real `dlb` binary (tracing spans off), the replay that checks its
//! output, and the traced replay that attributes its time to layers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use dlb_json::Json;
use dlb_trace::TraceEvent;

use crate::calib::{to_reference, Calibrator};
use crate::check::{self, Fields};
use crate::layers::{self, ratio, Layers, Timed};
use crate::replay::{replay_run, replay_serve, Replay, Sink};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{Scenario, Workload};
use crate::{micro, proc};

/// Set-up probes per run: 25, or as many as fit in this budget (at
/// least [`MIN_PROBES`]) — `million_sparse` constructs 2²⁰ rows per probe.
const PROBES: usize = 25;
const MIN_PROBES: usize = 5;
const PROBE_BUDGET: Duration = Duration::from_millis(1500);

/// Timed spawns a layers-only run makes for the `cli.*` rows.
const LAYER_REPS: usize = 3;
/// Replays of each kind in a traced run; rows are medians over them.
const REPLAY_ROUNDS: usize = 3;

/// One timed spawn of the full scenario.
struct Rep {
    /// Spawn → exit at reference speed (see `calib`).
    wall_s: f64,
    /// Spawn → exit as the clock read it.
    raw_wall_s: f64,
    /// User + system CPU seconds at reference speed.
    cpu_s: f64,
    peak_rss_mb: f64,
}

pub struct Bench {
    pub workload: &'static Workload,
    scenario: Scenario,
    /// `benchmark/out/<seed>/`
    dir: PathBuf,
    /// Directory holding `dlb` and `trace_analyze`.
    bin_dir: PathBuf,
    /// Seed-42 pin (absent for other seeds and for `--smoke`).
    pin: Option<String>,
    reps: Vec<Rep>,
    /// Set-up probe times, `(at reference speed, raw)`.
    probes: Vec<(f64, f64)>,
    /// Simulated statistics of the first rep; later reps must agree.
    fields: Option<Fields>,
    /// Wall time spent in timed reps so far.
    pub measured: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Work count from the replay (the `events_per_s` numerator).
    work: Option<u64>,
    pub checksum: Option<String>,
    pub layers: BTreeMap<&'static str, f64>,
}

/// Median and samples of one end-to-end metric.
pub struct Summary {
    pub median: f64,
    pub samples: Vec<f64>,
    /// The samples before the speed-state correction, for the metrics
    /// that have one.
    pub raw: Option<Vec<f64>>,
}

impl Summary {
    fn of(samples: Vec<f64>, raw: Option<Vec<f64>>) -> Self {
        Summary {
            median: median(&samples),
            samples,
            raw,
        }
    }
}

impl Bench {
    /// Generates the scenario files of `workload` under `dir`.
    pub fn prepare(
        workload: &'static Workload,
        scenario: Scenario,
        dir: &Path,
        bin_dir: &Path,
        pin: Option<String>,
    ) -> std::io::Result<Bench> {
        std::fs::create_dir_all(dir)?;
        let bench = Bench {
            workload,
            scenario,
            dir: dir.to_path_buf(),
            bin_dir: bin_dir.to_path_buf(),
            pin,
            reps: Vec::new(),
            probes: Vec::new(),
            fields: None,
            measured: Duration::ZERO,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            work: None,
            checksum: None,
            layers: BTreeMap::new(),
        };
        std::fs::write(bench.path(""), bench.scenario.to_json())?;
        std::fs::write(bench.path("probe_"), bench.scenario.probe().to_json())?;
        Ok(bench)
    }

    pub fn reps(&self) -> usize {
        self.reps.len()
    }

    /// `<dir>/<prefix><workload>.json`
    fn path(&self, prefix: &str) -> PathBuf {
        self.dir
            .join(format!("{prefix}{}.json", self.workload.name))
    }

    fn trace_path(&self, tag: &str) -> PathBuf {
        self.dir
            .join(format!("trace_{tag}_{}.jsonl", self.workload.name))
    }

    fn fail(&mut self, what: String) {
        eprintln!("FAIL {}: {what}", self.workload.name);
        self.failed += 1;
        self.problems.push(what);
    }

    /// The `dlb` command line for `scenario_file`; `trace` adds
    /// `--trace <file>` (and `--profile` when `profile`).
    fn command(&self, scenario_file: &Path, trace: Option<(&Path, bool)>) -> Command {
        let mut cmd = Command::new(self.bin_dir.join("dlb"));
        match &self.scenario {
            Scenario::Run(_) => {
                cmd.arg("run").arg(scenario_file);
                if let Some((path, profile)) = trace {
                    cmd.arg("--trace").arg(path);
                    if profile {
                        cmd.arg("--profile");
                    }
                }
            }
            Scenario::Serve(_) => {
                cmd.arg("serve")
                    .arg(scenario_file)
                    .args(["--mode", "sim", "--out"])
                    .arg(self.path("stats_"));
            }
        }
        cmd
    }

    /// Spawns one invocation; `None` (and a recorded failure) when it
    /// cannot be run or exits non-zero.
    fn spawn(&mut self, mut cmd: Command) -> Option<proc::Exit> {
        self.attempted += 1;
        match proc::run(&mut cmd) {
            Ok(exit) if exit.ok => Some(exit),
            Ok(_) => {
                self.fail(format!("{cmd:?} exited non-zero"));
                None
            }
            Err(e) => {
                self.fail(format!("{cmd:?}: {e}"));
                None
            }
        }
    }

    /// [`Self::spawn`] between two calibration samples: the exit and
    /// the factor that takes its wall time to reference speed.
    fn spawn_calibrated(
        &mut self,
        cmd: Command,
        calib: &mut Calibrator,
    ) -> Option<(proc::Exit, f64)> {
        let before = calib.sample_ns();
        let exit = self.spawn(cmd)?;
        Some((exit, to_reference(before, calib.sample_ns())))
    }

    fn traced(&self) -> bool {
        matches!(&self.scenario, Scenario::Run(s) if s.traced)
    }

    /// The simulated statistics an invocation just produced.
    fn read_fields(&self, exit: &proc::Exit) -> Result<Fields, String> {
        match &self.scenario {
            Scenario::Run(_) => Ok(check::report_fields(&exit.stdout)),
            Scenario::Serve(_) => {
                let path = self.path("stats_");
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                check::stats_fields(&Json::parse(&text)?)
            }
        }
    }

    /// Spawns the set-up probe repeatedly.
    pub fn probe(&mut self, calib: &mut Calibrator) {
        let started = Instant::now();
        while self.probes.len() < PROBES
            && (self.probes.len() < MIN_PROBES || started.elapsed() < PROBE_BUDGET)
        {
            let trace = self.trace_path("probe");
            let cmd = self.command(
                &self.path("probe_"),
                self.traced().then_some((trace.as_path(), true)),
            );
            match self.spawn_calibrated(cmd, calib) {
                Some((exit, factor)) => self.probes.push((exit.wall_s * factor, exit.wall_s)),
                None => break,
            }
        }
        std::fs::remove_file(self.trace_path("probe")).ok();
    }

    /// One timed spawn of the full scenario; checks its statistics
    /// against the earlier reps'.
    pub fn rep(&mut self, calib: &mut Calibrator) {
        let started = Instant::now();
        let trace = self.trace_path("rep");
        let cmd = self.command(
            &self.path(""),
            self.traced().then_some((trace.as_path(), true)),
        );
        let exit = self.spawn_calibrated(cmd, calib);
        // The traced workload's JSONL is large; it never outlives its rep.
        std::fs::remove_file(&trace).ok();
        self.measured += started.elapsed();
        let Some((exit, factor)) = exit else { return };
        match self.read_fields(&exit) {
            Err(e) => self.fail(e),
            Ok(fields) => {
                let diff = self
                    .fields
                    .as_ref()
                    .and_then(|first| check::first_difference(first, &fields));
                if let Some(diff) = diff {
                    self.fail(format!(
                        "rep {} disagrees with rep 0: {diff}",
                        self.reps.len()
                    ));
                }
                self.fields.get_or_insert(fields);
            }
        }
        self.reps.push(Rep {
            wall_s: exit.wall_s * factor,
            raw_wall_s: exit.wall_s,
            cpu_s: exit.cpu_s * factor,
            peak_rss_mb: exit.peak_rss_mb,
        });
    }

    /// One replay of the scenario as the binary runs it.
    fn replay(
        &self,
        rec: &mut Recorder,
        sink: Option<Sink>,
        jobs: usize,
    ) -> Result<Replay, String> {
        match &self.scenario {
            Scenario::Run(sc) => {
                // The binary's own sink: buffered + profiled when traced.
                let sink = sink.unwrap_or(if sc.traced {
                    Sink::Buffer { profile: true }
                } else {
                    Sink::None
                });
                let out = self.trace_path("replay");
                let trace_out = matches!(sink, Sink::Buffer { .. }).then_some(out.as_path());
                replay_run(sc, sink, trace_out, jobs, rec)
            }
            Scenario::Serve(_) => replay_serve(&self.path(""), &self.path("replay_stats_"), rec),
        }
    }

    /// Output checks (ii)–(iv) against a replay's statistics: the
    /// binary printed exactly these, the seed-42 pin holds, the serve
    /// ledger closes.  (Check (i), rep agreement, runs in [`Self::rep`].)
    fn verify(&mut self, replay: &Replay) {
        self.work = Some(replay.work);
        let sum = check::checksum(&replay.fields);
        let diff = match &self.fields {
            None => Some("no invocation produced statistics to check".to_string()),
            Some(got) => check::first_difference(&replay.fields, got)
                .map(|diff| format!("binary disagrees with the replay: {diff}")),
        };
        if let Some(diff) = diff {
            self.fail(diff);
        }
        if let Some(pin) = self.pin.clone().filter(|pin| *pin != sum) {
            self.fail(format!("checksum {sum} differs from the pinned {pin}"));
        }
        if matches!(self.scenario, Scenario::Serve(_)) && !check::ledger_closes(&replay.fields) {
            self.fail("issued != completed + dropped + in_flight".into());
        }
        self.checksum = Some(sum);
    }

    /// The end-to-end output check: an untraced replay must reproduce
    /// the binary's statistics; the traced workload's JSONL must match
    /// byte for byte.
    pub fn check(&mut self) {
        match self.replay(&mut Recorder::new(false), None, 1) {
            Ok(replay) => self.verify(&replay),
            Err(e) => self.fail(format!("replay failed: {e}")),
        }
        if self.traced() {
            self.check_trace_bytes();
        }
        std::fs::remove_file(self.trace_path("replay")).ok();
    }

    /// One untimed `dlb run --trace` *without* `--profile` must be
    /// byte-identical to the replay's JSONL, and pass `trace_analyze
    /// --check`.
    fn check_trace_bytes(&mut self) {
        let ours = self.trace_path("replay");
        let theirs = self.trace_path("check");
        let sink = Some(Sink::Buffer { profile: false });
        if let Err(e) = self.replay(&mut Recorder::new(false), sink, 1) {
            self.fail(format!("trace replay failed: {e}"));
            return;
        }
        let cmd = self.command(&self.path(""), Some((&theirs, false)));
        if self.spawn(cmd).is_some() {
            match (std::fs::read(&ours), std::fs::read(&theirs)) {
                (Ok(a), Ok(b)) if a == b && !a.is_empty() => {}
                (Ok(a), Ok(b)) => self.fail(format!(
                    "trace bytes differ: replay {} B, binary {} B",
                    a.len(),
                    b.len()
                )),
                (a, b) => self.fail(format!("cannot read traces: {:?} {:?}", a.err(), b.err())),
            }
            let mut analyze = Command::new(self.bin_dir.join("trace_analyze"));
            analyze.arg("--in").arg(&theirs).arg("--check");
            self.spawn(analyze);
        }
        std::fs::remove_file(&theirs).ok();
    }

    /// End-to-end metrics so far, by name.
    pub fn end_to_end(&self) -> Option<BTreeMap<&'static str, Summary>> {
        if self.reps.is_empty() || self.probes.is_empty() {
            return None;
        }
        let work = self.work? as f64;
        let walls: Vec<f64> = self.reps.iter().map(|r| r.wall_s).collect();
        let raw_walls: Vec<f64> = self.reps.iter().map(|r| r.raw_wall_s).collect();
        let per_s = |walls: &[f64]| walls.iter().map(|w| work / w).collect();
        Some(BTreeMap::from([
            (
                "events_per_s",
                Summary::of(per_s(&walls), Some(per_s(&raw_walls))),
            ),
            ("wall_s", Summary::of(walls, Some(raw_walls))),
            (
                "peak_rss_mb",
                Summary::of(self.reps.iter().map(|r| r.peak_rss_mb).collect(), None),
            ),
            (
                "setup_s",
                Summary::of(
                    self.probes.iter().map(|p| p.0).collect(),
                    Some(self.probes.iter().map(|p| p.1).collect()),
                ),
            ),
        ]))
    }

    /// One replay between two calibration samples: its output, and its
    /// wall seconds with the factor that takes them to reference speed.
    fn replay_calibrated(
        &self,
        rec: &mut Recorder,
        sink: Option<Sink>,
        calib: &mut Calibrator,
    ) -> Result<(Replay, f64, f64), String> {
        let before = calib.sample_ns();
        let started = Instant::now();
        let replay = self.replay(rec, sink, 1)?;
        let secs = started.elapsed().as_secs_f64();
        Ok((replay, secs, to_reference(before, calib.sample_ns())))
    }

    /// The traced replay: per-layer metrics into `self.layers`, spans
    /// into `<dir>/spans_<workload>.jsonl`.  Also serves as the output
    /// check when no end-to-end check ran.  Every time is reported at
    /// reference speed, like the end-to-end ones.
    pub fn trace_layers(&mut self, calib: &mut Calibrator) {
        let pinned = proc::Pinned::new();
        while self.reps.len() < LAYER_REPS && self.failed == 0 {
            self.rep(calib);
        }
        if self.reps.is_empty() {
            return;
        }
        match self.layer_metrics(calib, pinned) {
            Ok(layers) => self.layers = layers.into_map(),
            Err(e) => self.fail(format!("traced replay failed: {e}")),
        }
        std::fs::remove_file(self.trace_path("replay")).ok();
    }

    fn layer_metrics(
        &mut self,
        calib: &mut Calibrator,
        pinned: Option<proc::Pinned>,
    ) -> Result<Layers, String> {
        // Traced and untraced replays alternate; every span total below
        // is the median over the traced ones (at reference speed).  Not
        // the fastest: the speed-state correction errs both ways, so a
        // minimum would pick the most over-corrected replay.
        let mut traced = Vec::new();
        let mut traced_s = Vec::new();
        let mut untraced_s = Vec::new();
        let mut main = None;
        for _ in 0..REPLAY_ROUNDS {
            let mut rec = Recorder::new(true);
            let (replay, secs, factor) = self.replay_calibrated(&mut rec, None, calib)?;
            traced.push((rec, factor));
            traced_s.push(secs * factor);
            main.get_or_insert(replay);
            let (_, secs, factor) =
                self.replay_calibrated(&mut Recorder::new(false), None, calib)?;
            untraced_s.push(secs * factor);
        }
        let main = main.expect("at least one round ran");
        if self.checksum.is_none() {
            self.verify(&main);
        }
        let name = self.workload.name;
        let spans_path = self.dir.join(format!("spans_{name}.jsonl"));
        traced[0]
            .0
            .write_jsonl(&spans_path, name)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;

        let t = Timed { replays: &traced };
        let mut m = Layers::new();
        if main.serve.is_none() {
            layers::workload_and_faults(&mut m, &t, &main);
        }
        layers::core(&mut m, &t, &main);
        layers::net(&mut m, &t, &main);
        layers::serve(&mut m, &t, &main);
        if self.traced() {
            self.trace_sink_metrics(&mut m, &t, &main, calib)?;
        }
        // Micro-loops, each between two calibration samples.
        let mut micro = |name: &str, run: &dyn Fn() -> f64| {
            let before = calib.sample_ns();
            let ns = run();
            m.set(name, ns * to_reference(before, calib.sample_ns()));
        };
        // The calendar queue carries the desim messages, the sparse
        // workload's activations and the serve simulator's events.
        if matches!(name, "async_lossy" | "million_sparse" | "serve_sim") {
            micro("net.equeue_ns_per_op", &micro::equeue);
        }
        if let Some(stats) = &main.serve {
            micro("serve.router_ns_per_note", &|| micro::router(stats.seed));
            micro("serve.hist_ns_per_record", &micro::hist);
            micro("serve.ring_ns_per_op", &micro::ring);
        }

        // dlb-cli: what the process costs beyond the library calls —
        // median spawn against the median replay kept above.
        let wall_s = median(&self.reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        m.set(
            "cli.cpu_s",
            median(&self.reps.iter().map(|r| r.cpu_s).collect::<Vec<_>>()),
        );
        m.set("cli.residual_s", wall_s - t.layer_sum_s());
        m.set("cli.residual_share", (wall_s - t.layer_sum_s()) / wall_s);
        m.set(
            "bench.span_overhead_ratio",
            ratio(median(&traced_s), median(&untraced_s)),
        );

        // dlb-pool: no workload runs parallel end to end on this box, so
        // the pool's baseline comes from replaying the many-run workload
        // through `par_map` — on both CPUs, hence unpinned and as the
        // clock reads it, sequential and parallel back to back.
        drop(pinned);
        if name == "paper_dense" {
            let timed = |jobs| {
                let started = Instant::now();
                self.replay(&mut Recorder::new(false), None, jobs)
                    .map(|_| started.elapsed().as_secs_f64())
            };
            m.set("pool.par_speedup_2", ratio(timed(1)?, timed(2)?));
            m.set("pool.dispatch_us", micro::pool_dispatch());
        }
        Ok(m)
    }

    /// dlb-trace rows: what the sink costs, from replays that differ
    /// only in the sink attached (median of REPLAY_ROUNDS each).
    fn trace_sink_metrics(
        &self,
        m: &mut Layers,
        t: &Timed,
        main: &Replay,
        calib: &mut Calibrator,
    ) -> Result<(), String> {
        // (core.step, core.observe) seconds under `sink`.
        let mut cost_with = |sink| {
            let mut replays = Vec::new();
            for _ in 0..REPLAY_ROUNDS {
                let mut rec = Recorder::new(true);
                let (_, _, factor) = self.replay_calibrated(&mut rec, Some(sink), calib)?;
                replays.push((rec, factor));
            }
            let timed = Timed { replays: &replays };
            Ok::<_, String>((timed.total_s("core.step"), timed.total_s("core.observe")))
        };
        let (none_s, none_observe_s) = cost_with(Sink::None)?;
        let (null_s, _) = cost_with(Sink::Null)?;
        // Engine events are captured inside the step, the driver's
        // per-step samples inside the observer.
        let capture_s =
            t.total_s("core.step") + t.total_s("core.observe") - none_s - none_observe_s;
        let write_s = t.total_s("trace.write");

        let before = calib.sample_ns();
        let started = Instant::now();
        let lines: Vec<String> = main.trace.iter().map(TraceEvent::to_line).collect();
        let encode_secs = started.elapsed().as_secs_f64();
        let text = std::fs::read_to_string(self.trace_path("replay")).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let parsed = text
            .lines()
            .filter(|l| TraceEvent::from_line(l).is_ok())
            .count();
        let parse_secs = started.elapsed().as_secs_f64();
        let factor = to_reference(before, calib.sample_ns());
        if parsed != main.trace.len() {
            return Err(format!(
                "{parsed} of {} trace lines parse back",
                main.trace.len()
            ));
        }
        // `--profile` lines carry wall times, so their count of digits
        // wanders; the exact counts leave them out.
        let exact = |ev: &TraceEvent| !matches!(ev, TraceEvent::StepProfile { .. });
        let events = main.trace.iter().filter(|ev| exact(ev)).count() as f64;
        let bytes: usize = main
            .trace
            .iter()
            .zip(&lines)
            .filter(|(ev, _)| exact(ev))
            .map(|(_, line)| line.len() + 1)
            .sum();
        m.set("trace.capture_s", capture_s);
        m.set("trace.null_sink_ratio", ratio(null_s, none_s));
        m.set("trace.encode_s", encode_secs * factor);
        m.set("trace.write_s", write_s);
        m.set("trace.parse_s", parse_secs * factor);
        m.set("trace.events", events);
        m.set("trace.bytes", bytes as f64);
        m.set(
            "trace.ns_per_event",
            ratio((capture_s + write_s) * 1e9, events),
        );
        Ok(())
    }
}
