//! Umbrella crate for the SPAA'93 dynamic distributed load balancing
//! reproduction (Lüling & Monien, *A Dynamic Distributed Load Balancing
//! Algorithm with Provable Good Performance*).
//!
//! Re-exports the workspace crates under stable module names:
//!
//! * [`core`] — the algorithm itself (full virtual-load-class variant,
//!   practical variant, one-processor models).
//! * [`theory`] — operators, fixed points, theorem and cost bounds,
//!   variation-density engines.
//! * [`net`] — topologies, synchronous and asynchronous network
//!   simulators.
//! * [`faults`] — seeded deterministic fault plans and injection
//!   (message loss, duplication, jitter, crashes, partitions).
//! * [`json`] — the dependency-free JSON layer the tools serialise with.
//! * [`workload`] — load-pattern generators including the paper's §7 model.
//! * [`baselines`] — comparison balancers.
//!
//! See the `examples/` directory for runnable entry points and
//! `EXPERIMENTS.md` for the paper-versus-measured record.
//!
//! ```
//! use dlb::core::{imbalance_stats, Cluster, LoadBalancer, Params};
//! use dlb::workload::{drive, phase::PhaseWorkload};
//!
//! let params = Params::paper_section7(16);
//! let mut cluster = Cluster::new(params, 1);
//! let mut workload = PhaseWorkload::new(16, 200, Default::default(), 2);
//! drive(&mut cluster, &mut workload, 200, |_, _| {});
//! let stats = imbalance_stats(&cluster.loads());
//! assert!(stats.max_over_mean < 2.0);
//! ```

#![forbid(unsafe_code)]

pub use dlb_baselines as baselines;
pub use dlb_core as core;
pub use dlb_faults as faults;
pub use dlb_json as json;
pub use dlb_net as net;
pub use dlb_theory as theory;
pub use dlb_workload as workload;
