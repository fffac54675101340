//! The seven benchmark workloads and the scenario files generated for
//! them.  The `dlb` binary only ever sees the generated file.
//!
//! Sizes are chosen so one `dlb` invocation takes about a second on the
//! 2-core reference box: a 10 s measurement window then holds eight to
//! ten invocations, and the driver's budget of ~20 s per benchmark run
//! (set-up probes, timed window, replay check) is met.

use dlb_faults::{CrashEvent, CrashMode, FaultPlan, PartitionEvent};
use dlb_json::{Json, ToJson};

/// `strategy` of a `dlb run` scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    Full { delta: usize, f: f64, c: usize },
    Simple { delta: usize, f: f64 },
    Async { delta: usize, f: f64, latency: u64 },
}

/// `workload` of a `dlb run` scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// The paper's §7 phase model at its default ranges.
    Phase,
    Uniform {
        p_gen: f64,
        p_con: f64,
    },
    Split {
        swap_every: usize,
    },
    SparsePhase {
        work: u32,
        gap: (u32, u32),
    },
}

/// A `dlb run` scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RunScenario {
    pub n: usize,
    pub steps: usize,
    pub runs: usize,
    pub seed: u64,
    pub strategy: Strategy,
    pub load: Load,
    pub faults: Option<FaultPlan>,
    /// Run with `--trace <file> --profile`.
    pub traced: bool,
}

/// Ignored leading share of each run in the quality summary (the
/// binary's default, written out so the file is self-contained).
pub const WARMUP_FRACTION: f64 = 0.2;

/// A `dlb serve --mode sim` scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScenario {
    pub shards: usize,
    pub seed: u64,
    pub delta: usize,
    pub f: f64,
    pub keys: u64,
    pub zipf_s: f64,
    pub service_ticks: (u64, u64),
    /// `(ticks, rate)` per phase; the run lasts their sum.
    pub phases: Vec<(u64, f64)>,
    pub faults: FaultPlan,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    Run(RunScenario),
    Serve(ServeScenario),
}

/// A named workload: why it is here, and how to size it.
pub struct Workload {
    pub name: &'static str,
    /// What one unit of `events_per_s` is.
    pub event_unit: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "paper_dense",
        event_unit: "non-idle load events",
        why: "full model at n=64, every class active everywhere: the balance-op kernel on dense rows",
    },
    Workload {
        name: "full_large",
        event_unit: "non-idle load events",
        why: "full model at n=8192, active classes << n: SparseRow merge-walk and cache misses",
    },
    Workload {
        name: "million_sparse",
        event_unit: "non-idle load events",
        why: "event-driven path at n=2^20, ~1% active, two crashes: calendar queue, sparse step, set-up, RSS",
    },
    Workload {
        name: "simple_sweep",
        event_unit: "non-idle load events",
        why: "practical variant, O(n) dense sweep at n=16384 where workload RNG matters; the comparison row",
    },
    Workload {
        name: "traced_simple",
        event_unit: "non-idle load events",
        why: "the only workload with a trace sink attached: capture, encode and file write dominate",
    },
    Workload {
        name: "async_lossy",
        event_unit: "non-idle load events",
        why: "desim message protocol under loss, duplication, jitter, a crash and a partition; free workload",
    },
    Workload {
        name: "serve_sim",
        event_unit: "requests issued",
        why: "dlb serve on the simulated clock: router, latency histograms, request source, two crashes",
    },
];

fn crash(proc: usize, at: u64, recover_at: Option<u64>) -> CrashEvent {
    CrashEvent {
        proc,
        at,
        recover_at,
    }
}

/// The generated scenario of workload `name` for `seed`.  `smoke`
/// shrinks the work about 50× (and unpins the checksums).
pub fn scenario(name: &str, seed: u64, smoke: bool) -> Option<Scenario> {
    // `pick(full, smoke)`
    let pick = |full: usize, small: usize| if smoke { small } else { full };
    let run = |n, steps, runs, strategy, load, faults, traced| {
        Some(Scenario::Run(RunScenario {
            n,
            steps,
            runs,
            seed,
            strategy,
            load,
            faults,
            traced,
        }))
    };
    match name {
        "paper_dense" => run(
            64,
            500,
            pick(40, 1),
            Strategy::Full {
                delta: 1,
                f: 1.1,
                c: 4,
            },
            Load::Phase,
            None,
            false,
        ),
        "full_large" => run(
            pick(8192, 512),
            pick(160, 60),
            1,
            Strategy::Full {
                delta: 2,
                f: 1.1,
                c: 4,
            },
            Load::Phase,
            None,
            false,
        ),
        "million_sparse" => {
            let n = pick(1 << 20, 1 << 15);
            run(
                n,
                100,
                1,
                Strategy::Full {
                    delta: 1,
                    f: 1.1,
                    c: 4,
                },
                Load::SparsePhase {
                    work: 2,
                    gap: (100, 300),
                },
                Some(FaultPlan {
                    crashes: vec![
                        crash(pick(4096, 128), 15, Some(45)),
                        crash(pick(700_000, 21_000), 30, None),
                    ],
                    ..FaultPlan::default()
                }),
                false,
            )
        }
        "simple_sweep" => run(
            pick(16384, 1024),
            pick(800, 200),
            1,
            Strategy::Simple { delta: 2, f: 1.1 },
            Load::Uniform {
                p_gen: 0.5,
                p_con: 0.4,
            },
            None,
            false,
        ),
        "traced_simple" => run(
            pick(4096, 256),
            pick(500, 150),
            1,
            Strategy::Simple { delta: 2, f: 1.1 },
            // Not `phase`: there the number of balance operations — and
            // with it the trace's size and the process's peak RSS — swings
            // ±4 % with the seed; fixed rates keep it within 1 %.
            Load::Uniform {
                p_gen: 0.5,
                p_con: 0.4,
            },
            Some(FaultPlan {
                crash_mode: CrashMode::Frozen,
                crashes: vec![crash(5, 100, Some(300)), crash(77, 200, None)],
                ..FaultPlan::default()
            }),
            true,
        ),
        "async_lossy" => run(
            pick(1024, 128),
            pick(6000, 1500),
            pick(6, 1),
            Strategy::Async {
                delta: 2,
                f: 1.3,
                latency: 4,
            },
            Load::Split { swap_every: 250 },
            // scenarios/lossy_network.json's plan; its seed 99 is 42 + 57.
            Some(FaultPlan {
                seed: seed.wrapping_add(57),
                loss: 0.1,
                transfer_loss: 0.05,
                duplication: 0.02,
                jitter: 3,
                crash_mode: CrashMode::Frozen,
                crashes: vec![crash(5, 500, Some(1200))],
                partitions: vec![PartitionEvent {
                    from: 800,
                    until: 1000,
                    group: (0..8).collect(),
                }],
            }),
            false,
        ),
        "serve_sim" => {
            let phase = pick(75_000, 1_500) as u64;
            Some(Scenario::Serve(ServeScenario {
                shards: 64,
                seed,
                delta: 2,
                f: 2.0,
                keys: 100_000,
                zipf_s: 1.1,
                service_ticks: (2, 6),
                phases: vec![(phase, 8.0), (phase, 14.0), (phase, 3.0)],
                faults: FaultPlan {
                    crash_mode: CrashMode::Lost,
                    crashes: vec![
                        crash(3, phase * 6 / 5, Some(phase * 2)),
                        crash(40, phase * 3 / 2, Some(phase * 5 / 2)),
                    ],
                    ..FaultPlan::default()
                },
            }))
        }
        _ => None,
    }
}

impl Scenario {
    /// The set-up probe: the same scenario cut to a single step (one
    /// tick, one phase and no crashes for serve), so a spawn of it pays
    /// process start, parse, construction, report and teardown only.
    pub fn probe(&self) -> Scenario {
        match self {
            Scenario::Run(s) => Scenario::Run(RunScenario {
                steps: 1,
                ..s.clone()
            }),
            Scenario::Serve(s) => Scenario::Serve(ServeScenario {
                phases: vec![(1, s.phases[0].1)],
                faults: FaultPlan::default(),
                ..s.clone()
            }),
        }
    }

    /// The scenario file's text.
    pub fn to_json(&self) -> String {
        match self {
            Scenario::Run(s) => s.to_json().render_pretty(),
            Scenario::Serve(s) => s.to_json().render_pretty(),
        }
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn pair<T: ToJson>(lo: T, hi: T) -> Json {
    Json::Arr(vec![lo.to_json(), hi.to_json()])
}

impl ToJson for RunScenario {
    fn to_json(&self) -> Json {
        let strategy = match self.strategy {
            Strategy::Full { delta, f, c } => obj(vec![
                ("kind", "full".to_json()),
                ("delta", delta.to_json()),
                ("f", f.to_json()),
                ("c", c.to_json()),
            ]),
            Strategy::Simple { delta, f } => obj(vec![
                ("kind", "simple".to_json()),
                ("delta", delta.to_json()),
                ("f", f.to_json()),
            ]),
            Strategy::Async { delta, f, latency } => obj(vec![
                ("kind", "async".to_json()),
                ("delta", delta.to_json()),
                ("f", f.to_json()),
                ("latency", latency.to_json()),
            ]),
        };
        let workload = match self.load {
            Load::Phase => obj(vec![("kind", "phase".to_json())]),
            Load::Uniform { p_gen, p_con } => obj(vec![
                ("kind", "uniform".to_json()),
                ("p_gen", p_gen.to_json()),
                ("p_con", p_con.to_json()),
            ]),
            Load::Split { swap_every } => obj(vec![
                ("kind", "split".to_json()),
                ("swap_every", swap_every.to_json()),
            ]),
            Load::SparsePhase { work, gap } => obj(vec![
                ("kind", "sparse-phase".to_json()),
                ("work", work.to_json()),
                ("gap", pair(gap.0, gap.1)),
            ]),
        };
        let mut fields = vec![
            ("n", self.n.to_json()),
            ("steps", self.steps.to_json()),
            ("runs", self.runs.to_json()),
            ("seed", self.seed.to_json()),
            ("warmup_fraction", WARMUP_FRACTION.to_json()),
            ("strategy", strategy),
            ("workload", workload),
        ];
        if let Some(plan) = &self.faults {
            fields.push(("faults", plan.to_json()));
        }
        obj(fields)
    }
}

impl ToJson for ServeScenario {
    fn to_json(&self) -> Json {
        let phases = self
            .phases
            .iter()
            .map(|&(ticks, rate)| obj(vec![("ticks", ticks.to_json()), ("rate", rate.to_json())]))
            .collect();
        obj(vec![
            ("shards", self.shards.to_json()),
            ("ticks", self.ticks().to_json()),
            ("seed", self.seed.to_json()),
            ("delta", self.delta.to_json()),
            ("f", self.f.to_json()),
            ("keys", self.keys.to_json()),
            ("zipf_s", self.zipf_s.to_json()),
            (
                "service_ticks",
                pair(self.service_ticks.0, self.service_ticks.1),
            ),
            ("phases", Json::Arr(phases)),
            ("faults", self.faults.to_json()),
        ])
    }
}

impl ServeScenario {
    pub fn ticks(&self) -> u64 {
        self.phases.iter().map(|p| p.0).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_generates_a_scenario_in_both_sizes() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                let sc = scenario(w.name, 7, smoke).expect(w.name);
                let text = sc.to_json();
                assert!(Json::parse(&text).is_ok(), "{}: {text}", w.name);
                assert!(text.contains("\"seed\": 7"), "{}", w.name);
                assert_ne!(sc.probe(), sc, "{}: the probe is a cut", w.name);
            }
        }
        assert!(scenario("nope", 1, false).is_none());
    }

    #[test]
    fn serve_scenarios_parse_strictly_and_probe_to_one_tick() {
        let sc = scenario("serve_sim", 42, false).unwrap();
        let parsed = dlb_serve::ServiceScenario::parse(&sc.to_json()).unwrap();
        assert_eq!(parsed.ticks, 225_000);
        assert_eq!(parsed.faults.crashes.len(), 2);
        let probe = dlb_serve::ServiceScenario::parse(&sc.probe().to_json()).unwrap();
        assert_eq!(probe.ticks, 1);
        assert!(probe.faults.crashes.is_empty());
    }

    #[test]
    fn fault_plans_fit_their_scenarios() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                if let Some(Scenario::Run(s)) = scenario(w.name, 42, smoke) {
                    if let Some(plan) = &s.faults {
                        plan.validate(s.n).expect(w.name);
                    }
                }
            }
        }
        let Some(Scenario::Run(lossy)) = scenario("async_lossy", 42, false) else {
            panic!("async_lossy is a run scenario");
        };
        assert_eq!(
            lossy.faults.unwrap().seed,
            99,
            "seed 42 gives the committed plan"
        );
    }
}
