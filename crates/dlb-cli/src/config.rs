//! Scenario configuration: a JSON description of *what to run* — network
//! size, balancing strategy, workload, horizon, optional fault plan — so
//! experiments can be driven without writing Rust.

use dlb_faults::FaultPlan;
use dlb_json::{FromJson, Json, ToJson};
use dlb_workload::sparse::SparsePattern;

/// A complete runnable scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of processors.
    pub n: usize,
    /// Global time steps per run.
    pub steps: usize,
    /// Independent seeded runs to average over.
    pub runs: usize,
    /// Master seed.
    pub seed: u64,
    /// Ignore the first fraction of each run when summarising quality.
    pub warmup_fraction: f64,
    /// The balancing strategy.
    pub strategy: StrategyConfig,
    /// Optional rival strategies: when non-empty, `dlb run` races
    /// `strategy` against each entry on the identical workload, fault
    /// plan and seeds, and prints a league table instead of a single
    /// report.
    pub balancer: Vec<StrategyConfig>,
    /// The load pattern.
    pub workload: WorkloadConfig,
    /// Optional fault injection: message loss, duplication, jitter,
    /// crashes and partitions, applied per run with a per-run seed.
    pub faults: Option<FaultPlan>,
}

fn default_runs() -> usize {
    10
}

fn default_warmup() -> f64 {
    0.2
}

/// Which balancer to run.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyConfig {
    /// The full §4 virtual-load-class algorithm.
    Full {
        /// Partners per balancing operation.
        delta: usize,
        /// Trigger factor.
        f: f64,
        /// Borrow limit.
        c: usize,
    },
    /// The practical raw-load variant.
    Simple {
        /// Partners per balancing operation.
        delta: usize,
        /// Trigger factor.
        f: f64,
    },
    /// The practical variant run as a message-level asynchronous
    /// protocol (the substrate fault plans act on).
    Async {
        /// Partners per balancing operation.
        delta: usize,
        /// Trigger factor.
        f: f64,
        /// Message latency in time units (one generate/consume tick = 1).
        latency: u64,
    },
    /// Speed-proportional balancing for heterogeneous processors.
    Weighted {
        /// Partners per balancing operation.
        delta: usize,
        /// Trigger factor.
        f: f64,
        /// Relative speed per processor (length must equal `n`).
        speeds: Vec<u64>,
    },
    /// The practical variant on an explicit topology.
    Topo {
        /// Partners per balancing operation.
        delta: usize,
        /// Trigger factor.
        f: f64,
        /// Interconnect.
        topology: TopologyConfig,
        /// Restrict partners to topology neighbours.
        neighbors_only: bool,
    },
    /// Rudolph/Slivkin-Allalouf/Upfal '91.
    Rsu91,
    /// Cilk-style random work stealing.
    WorkStealing,
    /// The §5 random-scatter strawman.
    RandomScatter,
    /// First-order diffusion on a topology (Cybenko).
    Diffusion {
        /// Interconnect.
        topology: TopologyConfig,
        /// Exchange coefficient (0 < alpha <= 0.5).
        alpha: f64,
    },
    /// Lin–Keller gradient model.
    Gradient {
        /// Interconnect.
        topology: TopologyConfig,
        /// Low watermark (attracts work below this load).
        low: u64,
        /// High watermark (sheds work above this load).
        high: u64,
    },
    /// Rotor-router quasirandom balancing (arXiv:1006.3302).
    Quasirandom {
        /// Interconnect.
        topology: TopologyConfig,
    },
    /// Randomised pairwise averaging (arXiv:2302.12201).
    DynamicAveraging {
        /// Interconnect.
        topology: TopologyConfig,
    },
    /// Greedy unit-token moves to the lightest neighbour (arXiv:1502.04511).
    LocallyOptimal {
        /// Interconnect.
        topology: TopologyConfig,
    },
    /// Dimension-exchange matchings (arXiv:1308.0148); topology must be
    /// a hypercube, torus or ring.
    DimensionExchange {
        /// Interconnect.
        topology: TopologyConfig,
    },
    /// No balancing.
    None,
}

fn default_c() -> usize {
    4
}

fn default_latency() -> u64 {
    4
}

/// Interconnect topologies.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyConfig {
    /// Fully connected.
    Complete,
    /// A cycle.
    Ring,
    /// `w × h` wrap-around grid (`w·h` must equal `n`).
    Torus {
        /// Width.
        w: usize,
        /// Height.
        h: usize,
    },
    /// Hypercube on `2^dim` processors.
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// Binary de Bruijn graph on `2^dim` processors.
    DeBruijn {
        /// Dimension.
        dim: u32,
    },
    /// Star with centre 0.
    Star,
}

/// Which workload drives the run.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadConfig {
    /// The paper's §7 phase model.
    Phase {
        /// Generation probability range.
        g: (f64, f64),
        /// Consumption probability range.
        c: (f64, f64),
        /// Phase length range.
        len: (usize, usize),
    },
    /// One processor generates every step.
    OneProducer {
        /// Index of the producer.
        producer: usize,
    },
    /// Independent per-processor coin flips.
    Uniform {
        /// P(generate).
        p_gen: f64,
        /// P(consume).
        p_con: f64,
    },
    /// A generating hotspot that moves every `period` steps.
    MovingHotspot {
        /// Steps between hotspot moves.
        period: usize,
        /// P(consume) for everyone else.
        p_con: f64,
    },
    /// Half produce, half consume, roles swap periodically.
    Split {
        /// Steps between role swaps.
        swap_every: usize,
    },
    /// An event-driven structurally sparse pattern (see
    /// [`dlb_workload::sparse`]): only the active processors are
    /// visited each step, so these are the patterns that scale to
    /// `n = 2²⁰`.  JSON kinds: `sparse-phase`, `sparse-hotspot`,
    /// `sparse-bursty`, `sparse-arrivals`.
    Sparse {
        /// Which sparse pattern runs.
        pattern: SparsePattern,
    },
}

impl WorkloadConfig {
    /// Whether this workload supports the event-driven sparse stepping
    /// path (`dlb run` takes it automatically unless `--dense` forces
    /// the O(n)-per-step path).
    pub fn is_sparse(&self) -> bool {
        matches!(self, WorkloadConfig::Sparse { .. })
    }
}

fn default_g() -> (f64, f64) {
    (0.1, 0.9)
}

fn default_cc() -> (f64, f64) {
    (0.1, 0.7)
}

fn default_len() -> (usize, usize) {
    (150, 400)
}

fn kind_of<'a>(value: &'a Json, what: &str) -> Result<&'a str, String> {
    value
        .get("kind")
        .and_then(|k| k.as_str())
        .ok_or_else(|| format!("{what} needs a string \"kind\" field"))
}

fn pair<T: FromJson + Copy>(value: &Json, key: &str, default: (T, T)) -> Result<(T, T), String> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => {
            let items: Vec<T> = FromJson::from_json(v).map_err(|e| format!("{key}: {e}"))?;
            match items[..] {
                [lo, hi] => Ok((lo, hi)),
                _ => Err(format!(
                    "{key} must hold exactly [lo, hi], got {} items",
                    items.len()
                )),
            }
        }
    }
}

fn pair_json<T: ToJson>(pair: &(T, T)) -> Json {
    Json::Arr(vec![pair.0.to_json(), pair.1.to_json()])
}

/// Generates the whole JSON surface of a `kind`-tagged config enum from
/// one row per kind — `"tag" => Variant { field: codec, … }`, fields in
/// document order, the JSON key being the field's name: `ToJson`,
/// `FromJson` (strict: the row's fields are the only keys accepted beside
/// `kind`) and `kind()`.  Codecs: `req` (required), `or(default)`
/// (optional), `pair(default)` (optional `[lo, hi]`).  A row may wrap its
/// variant in a slot of an outer one: `[Outer.slot] Inner::Variant { … }`.
macro_rules! kind_table {
    ($ty:ident, $what:literal:
        $( $tag:literal => $([$outer:ident . $slot:ident])? $($variant:ident)::+ {
            $( $field:ident : $codec:ident $(($default:expr))? ),*
        } ),* $(,)?
    ) => {
        impl $ty {
            /// The JSON `kind` tag of this value.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( kind_table!(@wrap [$($outer.$slot)?] $($variant)::+ { .. }) => $tag, )*
                }
            }
        }

        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let mut obj = vec![("kind".to_string(), Json::Str(self.kind().to_string()))];
                match self {
                    $( kind_table!(@wrap [$($outer.$slot)?] $($variant)::+ { $($field),* }) => {
                        $( obj.push((
                            stringify!($field).to_string(),
                            kind_table!(@encode $codec $field),
                        )); )*
                    } )*
                }
                Json::Obj(obj)
            }
        }

        impl FromJson for $ty {
            fn from_json(value: &Json) -> Result<Self, String> {
                match kind_of(value, $what)? {
                    $( $tag => {
                        dlb_json::reject_unknown(value, &["kind", $(stringify!($field)),*])?;
                        Ok(kind_table!(@wrap [$($outer.$slot)?] $($variant)::+ {
                            $( $field: kind_table!(
                                @decode $codec $(($default))? value stringify!($field)
                            ) ),*
                        }))
                    } )*
                    other => {
                        dlb_json::reject_unknown(value, &["kind"])?;
                        Err(format!("unknown {} kind {other:?}", $what))
                    }
                }
            }
        }
    };
    (@wrap [] $($inner:tt)*) => { $($inner)* };
    (@wrap [$outer:ident . $slot:ident] $($inner:tt)*) => { Self::$outer { $slot: $($inner)* } };
    (@encode pair $x:ident) => { pair_json($x) };
    (@encode $codec:ident $x:ident) => { $x.to_json() };
    (@decode req $v:ident $key:expr) => { dlb_json::req($v, $key)? };
    (@decode or($d:expr) $v:ident $key:expr) => { dlb_json::field_or($v, $key, $d)? };
    (@decode pair($d:expr) $v:ident $key:expr) => { pair($v, $key, $d)? };
}

kind_table! { TopologyConfig, "topology":
    "complete" => Self::Complete {},
    "ring" => Self::Ring {},
    "torus" => Self::Torus { w: req, h: req },
    "hypercube" => Self::Hypercube { dim: req },
    "de-bruijn" => Self::DeBruijn { dim: req },
    "star" => Self::Star {},
}

kind_table! { StrategyConfig, "strategy":
    "full" => Self::Full { delta: req, f: req, c: or(default_c()) },
    "simple" => Self::Simple { delta: req, f: req },
    "async" => Self::Async { delta: req, f: req, latency: or(default_latency()) },
    "weighted" => Self::Weighted { delta: req, f: req, speeds: req },
    "topo" => Self::Topo { delta: req, f: req, topology: req, neighbors_only: or(false) },
    "rsu91" => Self::Rsu91 {},
    "work-stealing" => Self::WorkStealing {},
    "random-scatter" => Self::RandomScatter {},
    "diffusion" => Self::Diffusion { topology: req, alpha: req },
    "gradient" => Self::Gradient { topology: req, low: req, high: req },
    "quasirandom" => Self::Quasirandom { topology: req },
    "dynamic-averaging" => Self::DynamicAveraging { topology: req },
    "locally-optimal" => Self::LocallyOptimal { topology: req },
    "dimension-exchange" => Self::DimensionExchange { topology: req },
    "none" => Self::None {},
}

kind_table! { WorkloadConfig, "workload":
    "phase" => Self::Phase {
        g: pair(default_g()), c: pair(default_cc()), len: pair(default_len())
    },
    "one-producer" => Self::OneProducer { producer: or(0) },
    "uniform" => Self::Uniform { p_gen: req, p_con: req },
    "moving-hotspot" => Self::MovingHotspot { period: req, p_con: req },
    "split" => Self::Split { swap_every: req },
    "sparse-phase" => [Sparse.pattern] SparsePattern::Phase { work: or(1), gap: pair((50, 150)) },
    "sparse-hotspot" => [Sparse.pattern] SparsePattern::Hotspot { period: req, consumer_gap: req },
    "sparse-bursty" => [Sparse.pattern] SparsePattern::Bursty {
        burst: req, quiet: req, quiet_gap: req
    },
    "sparse-arrivals" => [Sparse.pattern] SparsePattern::Arrivals {
        arrival_gap: req, service_gap: req
    },
}

impl ToJson for Scenario {
    fn to_json(&self) -> Json {
        let mut obj = vec![
            ("n".to_string(), self.n.to_json()),
            ("steps".to_string(), self.steps.to_json()),
            ("runs".to_string(), self.runs.to_json()),
            ("seed".to_string(), self.seed.to_json()),
            (
                "warmup_fraction".to_string(),
                self.warmup_fraction.to_json(),
            ),
            ("strategy".to_string(), self.strategy.to_json()),
            ("workload".to_string(), self.workload.to_json()),
        ];
        if !self.balancer.is_empty() {
            obj.push(("balancer".to_string(), self.balancer.to_json()));
        }
        if let Some(faults) = &self.faults {
            obj.push(("faults".to_string(), faults.to_json()));
        }
        Json::Obj(obj)
    }
}

impl FromJson for Scenario {
    fn from_json(value: &Json) -> Result<Self, String> {
        dlb_json::reject_unknown(
            value,
            &[
                "n",
                "steps",
                "runs",
                "seed",
                "warmup_fraction",
                "strategy",
                "workload",
                "balancer",
                "faults",
            ],
        )?;
        let faults = match value.get("faults") {
            None | Some(Json::Null) => None,
            Some(v) => Some(FaultPlan::from_json(v).map_err(|e| format!("faults: {e}"))?),
        };
        Ok(Scenario {
            n: dlb_json::req(value, "n")?,
            steps: dlb_json::req(value, "steps")?,
            runs: dlb_json::field_or(value, "runs", default_runs())?,
            seed: dlb_json::field_or(value, "seed", 0)?,
            warmup_fraction: dlb_json::field_or(value, "warmup_fraction", default_warmup())?,
            strategy: dlb_json::req(value, "strategy")?,
            workload: dlb_json::req(value, "workload")?,
            balancer: dlb_json::field_or(value, "balancer", Vec::new())?,
            faults,
        })
    }
}

impl Scenario {
    /// Parses a scenario from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let scenario: Scenario = FromJson::from_json(&Json::parse(text)?)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).render_pretty()
    }

    /// Checks cross-field constraints.
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 2 {
            return Err("need at least 2 processors".into());
        }
        if self.steps == 0 || self.runs == 0 {
            return Err("steps and runs must be positive".into());
        }
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            return Err("warmup_fraction must lie in [0, 1)".into());
        }
        for strategy in std::iter::once(&self.strategy).chain(&self.balancer) {
            if let StrategyConfig::Weighted { speeds, .. } = strategy {
                if speeds.len() != self.n {
                    return Err(format!(
                        "weighted strategy needs {} speeds, got {}",
                        self.n,
                        speeds.len()
                    ));
                }
            }
        }
        if !self.balancer.is_empty() {
            for strategy in std::iter::once(&self.strategy).chain(&self.balancer) {
                if matches!(strategy, StrategyConfig::Async { .. }) {
                    return Err("the balancer league runs synchronous steps; \
                         \"async\" cannot be a league contender"
                        .into());
                }
            }
        }
        if let WorkloadConfig::Sparse { pattern } = &self.workload {
            pattern.validate().map_err(|e| format!("workload: {e}"))?;
        }
        if let StrategyConfig::Async { latency, .. } = self.strategy {
            if latency > dlb_net::MAX_LATENCY {
                return Err(format!(
                    "strategy.latency = {latency} must be at most {}",
                    dlb_net::MAX_LATENCY
                ));
            }
        }
        if let Some(faults) = &self.faults {
            faults
                .validate(self.n)
                .map_err(|e| format!("faults: {e}"))?;
        }
        Ok(())
    }

    /// The built-in demo scenario (paper §7 on 64 processors).
    pub fn demo() -> Self {
        Scenario {
            n: 64,
            steps: 500,
            runs: 10,
            seed: 42,
            warmup_fraction: 0.2,
            strategy: StrategyConfig::Simple { delta: 1, f: 1.1 },
            workload: WorkloadConfig::Phase {
                g: default_g(),
                c: default_cc(),
                len: default_len(),
            },
            balancer: Vec::new(),
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_faults::{CrashEvent, CrashMode};

    #[test]
    fn demo_roundtrips() {
        let demo = Scenario::demo();
        let json = demo.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(demo, back);
    }

    #[test]
    fn minimal_json_with_defaults() {
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "simple", "delta": 1, "f": 1.2},
            "workload": {"kind": "one-producer"}
        }"#;
        let s = Scenario::from_json(text).unwrap();
        assert_eq!(s.runs, 10, "default runs");
        assert_eq!(s.seed, 0, "default seed");
        assert!(matches!(
            s.workload,
            WorkloadConfig::OneProducer { producer: 0 }
        ));
        assert_eq!(s.faults, None, "no faults by default");
    }

    #[test]
    fn validation_errors() {
        let mut s = Scenario::demo();
        s.n = 1;
        assert!(s.validate().is_err());
        let mut s = Scenario::demo();
        s.strategy = StrategyConfig::Weighted {
            delta: 1,
            f: 1.1,
            speeds: vec![1, 2],
        };
        assert!(s.validate().unwrap_err().contains("speeds"));
        let mut s = Scenario::demo();
        s.faults = Some(FaultPlan {
            loss: 2.0,
            ..FaultPlan::default()
        });
        assert!(s.validate().unwrap_err().contains("faults"));
        assert!(Scenario::from_json("{").is_err());
    }

    /// Values a `u64` holds but the protocol's timeouts cannot: `8·latency`
    /// and `(4·latency) << attempt` would wrap (to 0 at 2⁶¹ and 2⁶²).
    #[test]
    fn timing_values_that_would_wrap_are_refused_by_key() {
        let scenario = |latency, jitter| {
            let mut s = Scenario::demo();
            s.strategy = StrategyConfig::Async {
                delta: 1,
                f: 1.1,
                latency,
            };
            s.faults = Some(FaultPlan {
                jitter,
                ..FaultPlan::default()
            });
            s
        };
        for latency in [1 << 61, 1 << 62, dlb_net::MAX_LATENCY + 1] {
            let err = scenario(latency, 3).validate().unwrap_err();
            assert!(err.contains("strategy.latency"), "{err}");
        }
        for jitter in [u64::MAX, dlb_faults::MAX_JITTER + 1] {
            let err = scenario(4, jitter).validate().unwrap_err();
            assert!(err.contains("faults: jitter"), "{err}");
        }
        let edge = scenario(dlb_net::MAX_LATENCY, dlb_faults::MAX_JITTER);
        assert_eq!(edge.validate(), Ok(()), "the bounds are accepted");
    }

    /// `dlb run --trace` is the one way to name a trace path.
    #[test]
    fn a_trace_field_is_refused_by_name() {
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "simple", "delta": 1, "f": 1.2},
            "workload": {"kind": "one-producer"},
            "trace": "out/trace.jsonl"
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.starts_with("unknown key \"trace\""), "{err}");
    }

    #[test]
    fn all_strategy_kinds_parse() {
        for kind in [
            r#"{"kind": "full", "delta": 2, "f": 1.3}"#,
            r#"{"kind": "simple", "delta": 1, "f": 1.1}"#,
            r#"{"kind": "async", "delta": 2, "f": 1.3, "latency": 8}"#,
            r#"{"kind": "async", "delta": 2, "f": 1.3}"#,
            r#"{"kind": "topo", "delta": 1, "f": 1.1, "topology": {"kind": "ring"}, "neighbors_only": true}"#,
            r#"{"kind": "rsu91"}"#,
            r#"{"kind": "work-stealing"}"#,
            r#"{"kind": "random-scatter"}"#,
            r#"{"kind": "gradient", "topology": {"kind": "hypercube", "dim": 3}, "low": 2, "high": 8}"#,
            r#"{"kind": "diffusion", "topology": {"kind": "ring"}, "alpha": 0.25}"#,
            r#"{"kind": "quasirandom", "topology": {"kind": "hypercube", "dim": 3}}"#,
            r#"{"kind": "dynamic-averaging", "topology": {"kind": "complete"}}"#,
            r#"{"kind": "locally-optimal", "topology": {"kind": "torus", "w": 2, "h": 4}}"#,
            r#"{"kind": "dimension-exchange", "topology": {"kind": "ring"}}"#,
            r#"{"kind": "none"}"#,
        ] {
            let value = Json::parse(kind).unwrap();
            let parsed = StrategyConfig::from_json(&value);
            assert!(parsed.is_ok(), "{kind}: {parsed:?}");
        }
    }

    #[test]
    fn unknown_keys_rejected_with_key_path() {
        // Top level.
        let text = r#"{
            "n": 8, "steps": 100, "stepz": 1,
            "strategy": {"kind": "simple", "delta": 1, "f": 1.2},
            "workload": {"kind": "one-producer"}
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.contains("\"stepz\""), "{err}");

        // Nested: the wrapping `field '...'` context forms the key path.
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "simple", "delta": 1, "f": 1.2, "partners": 3},
            "workload": {"kind": "one-producer"}
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.contains("field 'strategy'"), "{err}");
        assert!(err.contains("\"partners\""), "{err}");

        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "simple", "delta": 1, "f": 1.2},
            "workload": {"kind": "one-producer", "producers": 2}
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.contains("field 'workload'"), "{err}");
        assert!(err.contains("\"producers\""), "{err}");

        // Three levels deep: strategy -> topology.
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "topo", "delta": 1, "f": 1.2,
                         "topology": {"kind": "hypercube", "dim": 3, "w": 2}},
            "workload": {"kind": "one-producer"}
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.contains("field 'strategy'"), "{err}");
        assert!(err.contains("field 'topology'"), "{err}");
        assert!(err.contains("\"w\""), "{err}");

        // A retired strategy kind is an error like any unknown one.
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "full-dense"},
            "workload": {"kind": "one-producer"}
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.contains("unknown strategy kind"), "{err}");

        // Fault plans are strict too.
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "async", "delta": 1, "f": 1.2},
            "workload": {"kind": "one-producer"},
            "faults": {"loss": 0.1, "crashes": [{"proc": 1, "at": 5, "rejoin": 9}]}
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.contains("faults"), "{err}");
        assert!(err.contains("\"rejoin\""), "{err}");
    }

    #[test]
    fn balancer_list_roundtrips_and_defaults_to_empty() {
        let mut s = Scenario::demo();
        assert!(s.balancer.is_empty());
        assert!(!s.to_json().contains("balancer"), "omitted when empty");
        s.balancer = vec![
            StrategyConfig::Quasirandom {
                topology: TopologyConfig::Hypercube { dim: 6 },
            },
            StrategyConfig::None,
        ];
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn async_cannot_enter_the_league() {
        let mut s = Scenario::demo();
        s.balancer = vec![StrategyConfig::Async {
            delta: 1,
            f: 1.1,
            latency: 4,
        }];
        assert!(s.validate().unwrap_err().contains("async"));
        // Async as the primary strategy is still fine without a league.
        let mut s = Scenario::demo();
        s.strategy = StrategyConfig::Async {
            delta: 1,
            f: 1.1,
            latency: 4,
        };
        assert!(s.validate().is_ok());
    }

    #[test]
    fn async_latency_defaults() {
        let value = Json::parse(r#"{"kind": "async", "delta": 1, "f": 1.2}"#).unwrap();
        let parsed = StrategyConfig::from_json(&value).unwrap();
        assert_eq!(
            parsed,
            StrategyConfig::Async {
                delta: 1,
                f: 1.2,
                latency: 4
            }
        );
    }

    #[test]
    fn faults_section_parses_and_roundtrips() {
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "async", "delta": 2, "f": 1.3},
            "workload": {"kind": "uniform", "p_gen": 0.5, "p_con": 0.3},
            "faults": {
                "loss": 0.1,
                "jitter": 2,
                "crash_mode": "frozen",
                "crashes": [{"proc": 3, "at": 50, "recover_at": 80}]
            }
        }"#;
        let s = Scenario::from_json(text).unwrap();
        let plan = s.faults.clone().expect("faults parsed");
        assert_eq!(plan.loss, 0.1);
        assert_eq!(plan.jitter, 2);
        assert_eq!(plan.crash_mode, CrashMode::Frozen);
        assert_eq!(
            plan.crashes,
            vec![CrashEvent {
                proc: 3,
                at: 50,
                recover_at: Some(80)
            }]
        );
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    /// Every committed scenario file must parse under the strict
    /// (unknown-key-rejecting) loaders — `service_*.json` through the
    /// serving loader, everything else through [`Scenario`].  A stray
    /// or misspelled key in any shipped file fails here, not at a
    /// user's command line.
    #[test]
    fn every_committed_scenario_file_parses_strictly() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            seen += 1;
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable scenario");
            if name.starts_with("service_") {
                dlb_serve::ServiceScenario::parse(&text)
                    .unwrap_or_else(|e| panic!("scenarios/{name}: {e}"));
            } else {
                Scenario::from_json(&text).unwrap_or_else(|e| panic!("scenarios/{name}: {e}"));
            }
        }
        assert!(seen >= 6, "expected the committed scenario set, saw {seen}");
    }

    /// The `kind_table!` rows against literal documents: every kind
    /// emits `kind` first and then its fields in row order, parses back
    /// to the same value, and the strict decoder keeps the error strings
    /// users (and the CLI tests) see.
    #[test]
    fn kind_tables_emit_parse_and_refuse_exactly() {
        for (doc, kind) in [
            (r#"{"kind":"full","delta":2,"f":1.3,"c":4}"#, "full"),
            (
                r#"{"kind":"topo","delta":1,"f":1.1,"topology":{"kind":"torus","w":2,"h":4},"neighbors_only":false}"#,
                "topo",
            ),
            (
                r#"{"kind":"gradient","topology":{"kind":"de-bruijn","dim":3},"low":2,"high":8}"#,
                "gradient",
            ),
            (r#"{"kind":"work-stealing"}"#, "work-stealing"),
        ] {
            let parsed = StrategyConfig::from_json(&Json::parse(doc).unwrap()).unwrap();
            assert_eq!(parsed.kind(), kind);
            assert_eq!(parsed.to_json().render(), doc);
        }
        for doc in [
            r#"{"kind":"phase","g":[0.1,0.9],"c":[0.1,0.7],"len":[150,400]}"#,
            r#"{"kind":"sparse-phase","work":1,"gap":[50,150]}"#,
            r#"{"kind":"sparse-bursty","burst":3,"quiet":40,"quiet_gap":9}"#,
        ] {
            let parsed = WorkloadConfig::from_json(&Json::parse(doc).unwrap()).unwrap();
            assert_eq!(parsed.to_json().render(), doc);
        }
        // Defaults fill in exactly where they did.
        let sparse = WorkloadConfig::from_json(&Json::parse(r#"{"kind":"sparse-phase"}"#).unwrap());
        assert_eq!(
            sparse.unwrap(),
            WorkloadConfig::Sparse {
                pattern: SparsePattern::Phase {
                    work: 1,
                    gap: (50, 150)
                }
            }
        );
        let err = |doc: &str| StrategyConfig::from_json(&Json::parse(doc).unwrap()).unwrap_err();
        assert_eq!(
            err(r#"{"kind":"full","delta":1,"f":1.1,"c":4,"q":1}"#),
            r#"unknown key "q" (allowed: kind, delta, f, c)"#
        );
        assert_eq!(
            err(r#"{"kind":"rsu91","delta":1}"#),
            r#"unknown key "delta" (allowed: kind)"#
        );
        // An unknown kind with a stray key reports the key first, as before.
        assert_eq!(
            err(r#"{"kind":"bogus","x":1}"#),
            r#"unknown key "x" (allowed: kind)"#
        );
        assert_eq!(
            err(r#"{"kind":"bogus"}"#),
            r#"unknown strategy kind "bogus""#
        );
        assert_eq!(
            err(r#"{"delta":1}"#),
            r#"strategy needs a string "kind" field"#
        );
        assert_eq!(err(r#"{"kind":"full","delta":1}"#), "missing field 'f'");
        let werr = |doc: &str| WorkloadConfig::from_json(&Json::parse(doc).unwrap()).unwrap_err();
        assert_eq!(
            werr(r#"{"kind":"phase","g":[0.1]}"#),
            "g must hold exactly [lo, hi], got 1 items"
        );
        assert_eq!(
            werr(r#"{"kind":"sparse-bursty","burst":1}"#),
            "missing field 'quiet'"
        );
    }
}
