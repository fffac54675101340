//! The `LoadBalancer` stepping contract, checked on every balancer the
//! CLI can build (every `StrategyConfig` kind but `async`, which is not
//! a `LoadBalancer`): the two [`Events`] arms are the same step, with
//! and without a crash mask; packets are conserved and
//! `load_summary()` equals a scan after every step; malformed input is
//! refused with the documented message before any state changes.

use crate::config::{StrategyConfig, TopologyConfig};
use crate::run::build_strategy_config;
use dlb_core::{Events, LoadBalancer, LoadEvent, LoadSummary};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const N: usize = 16;

/// One config per kind, each fitting `N` processors.
fn every_kind() -> Vec<StrategyConfig> {
    let cube = || TopologyConfig::Hypercube { dim: 4 };
    let torus = || TopologyConfig::Torus { w: 4, h: 4 };
    let all = vec![
        StrategyConfig::Full {
            delta: 2,
            f: 1.1,
            c: 4,
        },
        StrategyConfig::Simple { delta: 1, f: 1.1 },
        StrategyConfig::Weighted {
            delta: 2,
            f: 1.2,
            speeds: (1..=N as u64).collect(),
        },
        StrategyConfig::Topo {
            delta: 2,
            f: 1.1,
            topology: cube(),
            neighbors_only: false,
        },
        StrategyConfig::Topo {
            delta: 1,
            f: 1.1,
            topology: TopologyConfig::Ring,
            neighbors_only: true,
        },
        StrategyConfig::Rsu91,
        StrategyConfig::WorkStealing,
        StrategyConfig::RandomScatter,
        StrategyConfig::Diffusion {
            topology: torus(),
            alpha: 0.2,
        },
        StrategyConfig::Gradient {
            topology: cube(),
            low: 1,
            high: 3,
        },
        StrategyConfig::Quasirandom { topology: cube() },
        StrategyConfig::DynamicAveraging {
            topology: TopologyConfig::Complete,
        },
        StrategyConfig::LocallyOptimal { topology: torus() },
        StrategyConfig::DimensionExchange { topology: cube() },
        StrategyConfig::None,
    ];
    // No wildcard: a new kind fails to compile here until it is listed
    // above (or, like `async`, ruled out by name).
    for config in &all {
        match config {
            StrategyConfig::Async { .. } => unreachable!("not a LoadBalancer"),
            StrategyConfig::Full { .. }
            | StrategyConfig::Simple { .. }
            | StrategyConfig::Weighted { .. }
            | StrategyConfig::Topo { .. }
            | StrategyConfig::Rsu91
            | StrategyConfig::WorkStealing
            | StrategyConfig::RandomScatter
            | StrategyConfig::Diffusion { .. }
            | StrategyConfig::Gradient { .. }
            | StrategyConfig::Quasirandom { .. }
            | StrategyConfig::DynamicAveraging { .. }
            | StrategyConfig::LocallyOptimal { .. }
            | StrategyConfig::DimensionExchange { .. }
            | StrategyConfig::None => {}
        }
    }
    all
}

fn build(config: &StrategyConfig) -> Box<dyn LoadBalancer> {
    build_strategy_config(config, N, 7).expect("every_kind fits N")
}

fn decode(row: &[u8]) -> Vec<LoadEvent> {
    row.iter()
        .map(|&x| match x {
            0 | 1 => LoadEvent::Generate,
            2 => LoadEvent::Consume,
            _ => LoadEvent::Idle,
        })
        .collect()
}

fn active_of(events: &[LoadEvent]) -> Vec<(usize, LoadEvent)> {
    events
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, e)| e != LoadEvent::Idle)
        .collect()
}

proptest! {
    /// `Events::Dense` ≡ `Events::Active` on loads and `Metrics` after
    /// every step, under a crash mask that comes and goes;
    /// conservation and the summary hold throughout.
    #[test]
    fn dense_and_active_are_the_same_step(
        rows in prop::collection::vec(prop::collection::vec(0u8..5, N), 1..40),
        down in prop::collection::vec(0u8..4, N),
    ) {
        let down: Vec<bool> = down.iter().map(|&d| d == 0).collect();
        for config in every_kind() {
            let mut dense = build(&config);
            let mut active = build(&config);
            for (t, row) in rows.iter().enumerate() {
                let events = decode(row);
                // Thirds: no mask, the drawn mask, an all-up mask.
                let mask = match t % 3 {
                    0 => None,
                    1 => Some(down.clone()),
                    _ => Some(vec![false; N]),
                };
                dense.step_events(Events::Dense(&events), mask.as_deref());
                active.step_events(Events::Active(&active_of(&events)), mask.as_deref());
                let loads = dense.loads();
                prop_assert_eq!(&loads, &active.loads(), "{} step {}", config.kind(), t);
                prop_assert_eq!(dense.metrics(), active.metrics(), "{} step {}", config.kind(), t);
                let m = dense.metrics();
                prop_assert_eq!(
                    loads.iter().sum::<u64>(),
                    m.generated - m.consumed,
                    "{} loses packets at step {}", config.kind(), t
                );
                prop_assert_eq!(
                    active.load_summary(),
                    LoadSummary::from_loads(&loads),
                    "{} summary at step {}", config.kind(), t
                );
            }
        }
    }
}

/// One malformed call on a balancer.
type BadStep = Box<dyn FnOnce(&mut dyn LoadBalancer)>;

/// The panic message of `step`, which must leave `balancer` untouched.
fn refusal(balancer: &mut dyn LoadBalancer, step: BadStep) -> String {
    let before = (balancer.loads(), *balancer.metrics());
    let panic = catch_unwind(AssertUnwindSafe(|| step(balancer))).expect_err("must be refused");
    assert_eq!(
        before,
        (balancer.loads(), *balancer.metrics()),
        "{} changed state before refusing",
        balancer.name()
    );
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic carries a message")
}

#[test]
fn malformed_steps_are_refused_with_the_documented_messages() {
    let gen = LoadEvent::Generate;
    for config in every_kind() {
        let mut b = build(&config);
        let b = b.as_mut();
        b.step(&[gen; N]);
        let cases: [(&str, BadStep); 6] = [
            (
                "one event per processor",
                Box::new(move |b| b.step(&[gen; N - 1])),
            ),
            (
                "event/mask length mismatch",
                Box::new(move |b| b.step_masked(&[LoadEvent::Idle; N], &[false; N + 1])),
            ),
            (
                "mask length mismatch",
                Box::new(move |b| b.step_sparse_masked(&[(0, gen)], &[false; N - 1])),
            ),
            (
                "sparse events must be sorted by ascending processor",
                Box::new(move |b| b.step_sparse(&[(2, gen), (1, gen)])),
            ),
            (
                "sparse events must be sorted by ascending processor",
                Box::new(move |b| b.step_sparse(&[(3, gen), (3, gen)])),
            ),
            (
                "sparse event index 16 out of range (n = 16)",
                Box::new(move |b| b.step_sparse(&[(1, gen), (N, gen)])),
            ),
        ];
        for (message, step) in cases {
            let got = refusal(b, step);
            assert!(got.contains(message), "{}: {got:?}", config.kind());
        }
    }
}
