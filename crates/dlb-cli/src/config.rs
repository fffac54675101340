//! Scenario configuration: a JSON description of *what to run* — network
//! size, balancing strategy, workload, horizon, optional fault plan — so
//! experiments can be driven without writing Rust.

use dlb_core::Params;
use dlb_faults::FaultPlan;
use dlb_json::{FromJson, Json, ToJson};
use dlb_workload::phase::PhaseConfig;
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

impl TopologyConfig {
    /// Vertices of this topology on a network of `n` (`None` when the
    /// count does not fit a `usize`).
    fn vertices(&self, n: usize) -> Option<usize> {
        match *self {
            Self::Complete | Self::Ring | Self::Star => Some(n),
            Self::Torus { w, h } => w.checked_mul(h),
            Self::Hypercube { dim } | Self::DeBruijn { dim } => 1usize.checked_shl(dim),
        }
    }
}

impl StrategyConfig {
    /// The interconnect this strategy runs on, if it names one.
    fn topology(&self) -> Option<&TopologyConfig> {
        match self {
            Self::Topo { topology, .. }
            | Self::Diffusion { topology, .. }
            | Self::Gradient { topology, .. }
            | Self::Quasirandom { topology }
            | Self::DynamicAveraging { topology }
            | Self::LocallyOptimal { topology }
            | Self::DimensionExchange { topology } => Some(topology),
            _ => None,
        }
    }

    /// Checks this strategy on `n` processors, as a league contender
    /// when `league`; `key` leads the error.
    fn validate(&self, key: &str, n: usize, league: bool) -> Result<(), String> {
        match self {
            Self::Full { delta, f, .. }
            | Self::Simple { delta, f }
            | Self::Async { delta, f, .. }
            | Self::Weighted { delta, f, .. }
            | Self::Topo { delta, f, .. } => {
                Params::new(n, *delta, *f, 4).map_err(|e| format!("{key}: {e}"))?;
            }
            _ => {}
        }
        if let Some(topology) = self.topology() {
            let vertices = topology.vertices(n);
            if vertices != Some(n) {
                let count = vertices.map_or("more than usize::MAX".to_string(), |v| v.to_string());
                return Err(format!(
                    "{key}.topology: {} has {count} vertices but n = {n}",
                    topology.kind()
                ));
            }
        }
        match self {
            Self::Weighted { speeds, .. } if speeds.len() != n => Err(format!(
                "{key}.speeds: needs {n} speeds, got {}",
                speeds.len()
            )),
            Self::Weighted { speeds, .. }
                if speeds.contains(&0)
                    || speeds
                        .iter()
                        .try_fold(0u64, |sum, &s| sum.checked_add(s))
                        .is_none() =>
            {
                Err(format!(
                    "{key}.speeds: must be positive with a sum below 2^64"
                ))
            }
            Self::Async { .. } if league => Err(format!(
                "{key}: the balancer league runs synchronous steps; \
                 \"async\" cannot be a league contender"
            )),
            Self::Async { latency, .. } if *latency > dlb_net::MAX_LATENCY => Err(format!(
                "{key}.latency = {latency} must be at most {}",
                dlb_net::MAX_LATENCY
            )),
            Self::Diffusion { alpha, .. } if !(*alpha > 0.0 && *alpha <= 0.5) => {
                Err(format!("{key}.alpha = {alpha} must lie in (0, 0.5]"))
            }
            Self::Gradient { low, high, .. } if low >= high => {
                Err(format!("{key}.low = {low} must be below high = {high}"))
            }
            Self::DimensionExchange {
                topology:
                    TopologyConfig::Complete | TopologyConfig::DeBruijn { .. } | TopologyConfig::Star,
            } => Err(format!(
                "{key}.topology: dimension-exchange needs a hypercube, torus or ring"
            )),
            _ => Ok(()),
        }
    }
}

impl WorkloadConfig {
    /// Checks this workload on `n` processors; `workload` leads the
    /// error.
    fn validate(&self, n: usize) -> Result<(), String> {
        match *self {
            Self::Phase { g, c, len } => PhaseConfig { g, c, len }
                .validate()
                .map_err(|e| format!("workload: {e}")),
            Self::OneProducer { producer } if producer >= n => Err(format!(
                "workload.producer = {producer} out of range (n = {n})"
            )),
            Self::Uniform { p_gen, p_con }
                if !(p_gen >= 0.0 && p_con >= 0.0 && p_gen + p_con <= 1.0) =>
            {
                Err("workload: uniform needs p_gen, p_con >= 0 and p_gen + p_con <= 1".into())
            }
            Self::MovingHotspot { period: 0, .. } => {
                Err("workload.period: must be positive".into())
            }
            Self::MovingHotspot { p_con, .. } if !(0.0..=1.0).contains(&p_con) => {
                Err(format!("workload.p_con = {p_con} must lie in [0, 1]"))
            }
            Self::Split { swap_every: 0 } => Err("workload.swap_every: must be positive".into()),
            Self::Sparse { pattern } => pattern.validate().map_err(|e| format!("workload: {e}")),
            _ => Ok(()),
        }
    }
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

    /// Checks every constraint a run relies on, naming the key that
    /// breaks it.  Field checks only: refusing a scenario builds nothing,
    /// so the builders in `run.rs` never fail.
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 2 {
            return Err("n: need at least 2 processors".into());
        }
        if self.steps == 0 {
            return Err("steps: must be positive".into());
        }
        if self.runs == 0 {
            return Err("runs: must be positive".into());
        }
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            return Err("warmup_fraction must lie in [0, 1)".into());
        }
        let league = !self.balancer.is_empty();
        let entries = self.balancer.iter().enumerate();
        let strategies = std::iter::once(("strategy".to_string(), &self.strategy))
            .chain(entries.map(|(i, s)| (format!("balancer[{i}]"), s)));
        for (key, strategy) in strategies {
            strategy.validate(&key, self.n, league)?;
        }
        self.workload.validate(self.n)?;
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

    /// The committed `dlb run` scenarios, parsed.
    fn committed_scenarios() -> Vec<Json> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut docs: Vec<(String, Json)> = std::fs::read_dir(&dir)
            .expect("scenarios/ exists")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("json"))
            .map(|path| path.file_name().unwrap().to_string_lossy().into_owned())
            .filter(|name| !name.starts_with("service_"))
            .map(|name| {
                let text = std::fs::read_to_string(dir.join(&name)).expect("readable");
                (name, Json::parse(&text).expect("committed scenarios parse"))
            })
            .collect();
        docs.sort_by(|a, b| a.0.cmp(&b.0));
        docs.into_iter().map(|(_, doc)| doc).collect()
    }

    /// Every node below the root, as the child indices that reach it.
    fn node_paths(doc: &Json) -> Vec<Vec<usize>> {
        fn walk(node: &Json, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            let children: Vec<&Json> = match node {
                Json::Arr(items) => items.iter().collect(),
                Json::Obj(fields) => fields.iter().map(|(_, v)| v).collect(),
                _ => Vec::new(),
            };
            for (i, child) in children.into_iter().enumerate() {
                path.push(i);
                out.push(path.clone());
                walk(child, path, out);
                path.pop();
            }
        }
        let mut out = Vec::new();
        walk(doc, &mut Vec::new(), &mut out);
        out
    }

    /// A hostile value: another JSON type, or one of the numbers that
    /// break unchecked arithmetic.
    fn hostile(which: usize) -> Json {
        match which % 9 {
            0 => Json::Null,
            1 => Json::Bool(true),
            2 => Json::Str("x".into()),
            3 => Json::Arr(vec![Json::Int(1)]),
            4 => Json::Obj(Vec::new()),
            5 => Json::Int(0),
            6 => Json::Int(-1),
            7 => Json::Int(u64::MAX.into()),
            _ => Json::Float(1e308),
        }
    }

    /// `doc` with the node at `path` swapped for `hostile(which)`
    /// (`op` 0), dropped (1) or duplicated with that value beside it (2).
    fn mutate(doc: &Json, path: &[usize], op: usize, which: usize) -> Json {
        let mut doc = doc.clone();
        let (&last, init) = path.split_last().expect("below the root");
        let mut parent = &mut doc;
        for &i in init {
            parent = match parent {
                Json::Arr(items) => &mut items[i],
                Json::Obj(fields) => &mut fields[i].1,
                _ => unreachable!("paths lead through containers"),
            };
        }
        match (parent, op % 3) {
            (Json::Arr(items), 0) => items[last] = hostile(which),
            (Json::Obj(fields), 0) => fields[last].1 = hostile(which),
            (Json::Arr(items), 1) => drop(items.remove(last)),
            (Json::Obj(fields), 1) => drop(fields.remove(last)),
            (Json::Arr(items), _) => items.insert(last + 1, hostile(which)),
            (Json::Obj(fields), _) => {
                let key = fields[last].0.clone();
                fields.insert(last + 1, (key, hostile(which)));
            }
            _ => unreachable!("paths lead through containers"),
        }
        doc
    }

    /// Whether `err` names where in the document it went wrong: a
    /// decoder's `field '…'` / `unknown key "…"`, or a scenario key
    /// leading the message (`faults: …`, `strategy.latency = …`).
    fn names_a_key(err: &str) -> bool {
        const KEYS: [&str; 9] = [
            "n",
            "steps",
            "runs",
            "seed",
            "warmup_fraction",
            "strategy",
            "workload",
            "balancer",
            "faults",
        ];
        err.contains("field '")
            || err.contains("unknown key \"")
            || KEYS.iter().any(|key| {
                err.strip_prefix(key)
                    .is_some_and(|rest| rest.starts_with([':', '.', ' ', '[']))
            })
    }

    /// Runs `scenario` as `dlb run` does when it is small enough to run
    /// in a test.  A scenario that validated must run to `Ok`.
    fn run_if_small(scenario: &Scenario) -> Result<(), String> {
        if scenario.n > 64 || scenario.steps > 8 || scenario.runs > 2 {
            return Ok(());
        }
        let opts = crate::run::RunOptions::default();
        if scenario.balancer.is_empty() {
            crate::run::execute_with(scenario, &opts).map(drop)
        } else {
            crate::run::execute_league(scenario, &opts).map(drop)
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes, and committed scenarios with a byte range
        /// overwritten: refused, or (when small) run to `Ok`; never a
        /// panic.
        #[test]
        fn arbitrary_bytes_never_panic_the_loader(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..512),
            doc in 0usize..64,
            at in proptest::any::<usize>(),
        ) {
            Scenario::from_json(&String::from_utf8_lossy(&bytes)).ok();
            let docs = committed_scenarios();
            let mut text = docs[doc % docs.len()].render().into_bytes();
            let at = at % text.len();
            let end = (at + bytes.len()).min(text.len());
            text.splice(at..end, bytes.iter().copied());
            if let Ok(scenario) = Scenario::from_json(&String::from_utf8_lossy(&text)) {
                let ran = run_if_small(&scenario);
                proptest::prop_assert!(ran.is_ok(), "{ran:?}\n    in {scenario:?}");
            }
        }

        /// Every committed scenario, structurally mutated at one node:
        /// `Ok` (and, when small, a run to `Ok`) or an `Err` that names a
        /// key, never a panic.
        #[test]
        fn mutated_scenarios_fail_by_key_or_run(
            node in proptest::any::<usize>(),
            op in 0usize..4,
            which in 0usize..9,
            shrink in proptest::any::<bool>(),
        ) {
            for doc in committed_scenarios() {
                let mut doc = doc;
                if shrink {
                    // Short enough to run: the mutation lands on a
                    // document the test can execute.
                    for (key, value) in [("steps", 6), ("runs", 2)] {
                        if let Json::Obj(fields) = &mut doc {
                            if let Some(field) = fields.iter_mut().find(|(k, _)| k == key) {
                                field.1 = Json::Int(value);
                            }
                        }
                    }
                }
                let paths = node_paths(&doc);
                let path = &paths[node % paths.len()];
                // `op` 3 sets a number; the others act on any node.
                let mutant = if op == 3 {
                    let numbers: Vec<&Vec<usize>> = paths
                        .iter()
                        .filter(|p| matches!(value_at(&doc, p), Json::Int(_) | Json::Float(_)))
                        .collect();
                    mutate(&doc, numbers[node % numbers.len()], 0, 5 + which % 4)
                } else {
                    mutate(&doc, path, op, which)
                };
                let text = mutant.render();
                match Scenario::from_json(&text) {
                    Ok(scenario) => {
                        let ran = run_if_small(&scenario);
                        proptest::prop_assert!(ran.is_ok(), "{ran:?}\n    in {text}");
                    }
                    Err(err) => proptest::prop_assert!(names_a_key(&err), "{err}\n    in {text}"),
                }
            }
        }
    }

    fn value_at<'a>(doc: &'a Json, path: &[usize]) -> &'a Json {
        path.iter().fold(doc, |node, &i| match node {
            Json::Arr(items) => &items[i],
            Json::Obj(fields) => &fields[i].1,
            _ => unreachable!("paths lead through containers"),
        })
    }

    /// The inputs the mutation proptest found panicking, kept: each is
    /// refused by key, or runs to a result.
    #[test]
    fn hostile_values_found_by_mutation_stay_fixed() {
        use crate::run::{execute_with, RunOptions};
        let doc = |strategy: &str, workload: &str| {
            format!(r#"{{"n":8,"steps":6,"runs":2,"strategy":{strategy},"workload":{workload}}}"#)
        };
        let simple = r#"{"kind":"simple","delta":1,"f":1.1}"#;
        let run =
            |text: &str| execute_with(&Scenario::from_json(text).unwrap(), &RunOptions::default());
        // A zero speed panicked `WeightedCluster::new`; a sum past 2^64
        // overflowed the proportional split.
        for speeds in ["[1,1,1,0,1,1,1,1]", "[18446744073709551615,1,1,1,1,1,1,1]"] {
            let weighted = format!(r#"{{"kind":"weighted","delta":1,"f":1.1,"speeds":{speeds}}}"#);
            let err = Scenario::from_json(&doc(&weighted, r#"{"kind":"one-producer"}"#));
            assert_eq!(
                err.unwrap_err(),
                "strategy.speeds: must be positive with a sum below 2^64"
            );
        }
        // `p_con = -1` panicked the hotspot's coin flip.
        let hotspot = r#"{"kind":"moving-hotspot","period":2,"p_con":-1}"#;
        assert_eq!(
            Scenario::from_json(&doc(simple, hotspot)).unwrap_err(),
            "workload.p_con = -1 must lie in [0, 1]"
        );
        // `C = 2^64 - 1` overflowed the settlement bound `C + 2`.
        let full = r#"{"kind":"full","delta":1,"f":1.1,"c":18446744073709551615}"#;
        assert!(run(&doc(full, r#"{"kind":"phase"}"#)).is_ok());
        // ... and `2C`, the league's Lemma 6 yardstick.
        let league = doc(full, r#"{"kind":"phase"},"balancer":[{"kind":"none"}]"#);
        let league = Scenario::from_json(&league).unwrap();
        assert!(crate::run::execute_league(&league, &RunOptions::default()).is_ok());
        // `1e308` renders as 309 digits, which came back as "bad number":
        // it parses, and the range check refuses it.
        let huge = format!(r#"{{"kind":"phase","g":[0.1,1{}]}}"#, "0".repeat(308));
        let err = Scenario::from_json(&doc(simple, &huge)).unwrap_err();
        assert!(err.starts_with("workload: generation range"), "{err}");
        // 200 000 `[` overflowed the parser's stack and aborted.
        let deep = doc(&"[".repeat(200_000), r#"{"kind":"phase"}"#);
        assert!(Scenario::from_json(&deep)
            .unwrap_err()
            .starts_with("nesting deeper than"));
    }

    /// What the builders used to refuse mid-run — after `dlb run` had
    /// printed `running:` and truncated the trace, naming no key — or
    /// never refused: a wrapped vertex count panicked (hypercube, torus)
    /// or ran a graph that was never built (de Bruijn).  Each is refused
    /// by the parser, its key leading the message.
    #[test]
    fn every_build_time_refusal_is_refused_by_key() {
        const SIMPLE: &str = r#"{"kind":"simple","delta":1,"f":1.1}"#;
        const UNIFORM: &str = r#"{"kind":"uniform","p_gen":0.5,"p_con":0.3}"#;
        // (key, n, strategy, workload); a league rides in the workload slot.
        #[rustfmt::skip]
        const CASES: [(&str, usize, &str, &str); 19] = [
            ("strategy.alpha", 8, r#"{"kind":"diffusion","topology":{"kind":"ring"},"alpha":0}"#, UNIFORM),
            ("strategy.alpha", 8, r#"{"kind":"diffusion","topology":{"kind":"ring"},"alpha":0.9}"#, UNIFORM),
            ("strategy.low", 8, r#"{"kind":"gradient","topology":{"kind":"ring"},"low":8,"high":8}"#, UNIFORM),
            ("strategy.topology", 8, r#"{"kind":"dimension-exchange","topology":{"kind":"star"}}"#, UNIFORM),
            ("strategy.topology", 8, r#"{"kind":"quasirandom","topology":{"kind":"hypercube","dim":4}}"#, UNIFORM),
            ("strategy.topology", 2, r#"{"kind":"quasirandom","topology":{"kind":"hypercube","dim":64}}"#, UNIFORM),
            ("strategy.topology", 2, r#"{"kind":"quasirandom","topology":{"kind":"hypercube","dim":65}}"#, UNIFORM),
            ("strategy.topology", 2, r#"{"kind":"topo","delta":1,"f":1.1,"topology":{"kind":"de-bruijn","dim":64}}"#, UNIFORM),
            ("strategy.topology", 2, r#"{"kind":"topo","delta":1,"f":1.1,"topology":{"kind":"de-bruijn","dim":65}}"#, UNIFORM),
            ("strategy.topology", 4, r#"{"kind":"quasirandom","topology":{"kind":"torus","w":9223372036854775810,"h":2}}"#, UNIFORM),
            ("balancer[0].topology", 8, SIMPLE, r#"{"kind":"phase"},"balancer":[{"kind":"locally-optimal","topology":{"kind":"de-bruijn","dim":2}}]"#),
            ("strategy:", 8, r#"{"kind":"simple","delta":8,"f":1.1}"#, UNIFORM),
            ("strategy:", 8, r#"{"kind":"full","delta":1,"f":0.5}"#, UNIFORM),
            ("workload.producer", 8, SIMPLE, r#"{"kind":"one-producer","producer":8}"#),
            ("workload:", 8, SIMPLE, r#"{"kind":"uniform","p_gen":0.7,"p_con":0.5}"#),
            ("workload.period", 8, SIMPLE, r#"{"kind":"moving-hotspot","period":0,"p_con":0.2}"#),
            ("workload.p_con", 8, SIMPLE, r#"{"kind":"moving-hotspot","period":3,"p_con":1.5}"#),
            ("workload.swap_every", 8, SIMPLE, r#"{"kind":"split","swap_every":0}"#),
            ("workload:", 8, SIMPLE, r#"{"kind":"phase","len":[0,10]}"#),
        ];
        for (key, n, strategy, workload) in CASES {
            let text =
                format!(r#"{{"n":{n},"steps":6,"strategy":{strategy},"workload":{workload}}}"#);
            let err = Scenario::from_json(&text).expect_err(&text);
            assert!(
                err.starts_with(key) && names_a_key(&err),
                "{err}\n    in {text}"
            );
        }
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
