//! Substrate for the SPAA'93 reproduction: the "parallel machine" the
//! algorithm runs on.
//!
//! The paper assumes a distributed-memory processor network in which a
//! balancing operation costs constant time (arguing that wormhole routing
//! makes transfer distance negligible).  This crate supplies that machine
//! in three forms:
//!
//! * [`topology`] — interconnect graphs (complete, ring, 2-D torus,
//!   hypercube, de Bruijn, star, circulant) with hop-distance queries, so
//!   the communication the paper argues away can actually be *measured*;
//! * [`engine`] — the topology rule for `dlb-core`'s raw-load engine:
//!   hop-weighted communication accounting and the "balance with
//!   topology neighbours only" partner draw the paper lists as future
//!   work (locality); [`TopoCluster`] is that engine under this rule;
//! * [`desim`] — an asynchronous discrete-event simulator of the §5
//!   message protocol with latency, fault injection (`dlb-faults`) and a
//!   hardened timeout/retry state machine;
//! * [`runtime`] — a real threaded message-passing runtime: one OS thread
//!   per processor, work packets in per-worker queues, balancing by the
//!   paper's trigger rule, with injected crash/rejoin and queue
//!   redistribution, used by the branch-and-bound example;
//! * [`rng`] — deterministic per-entity ChaCha streams.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

pub mod desim;
pub mod engine;
pub mod equeue;
pub mod rng;
pub mod runtime;
pub mod topology;

pub use desim::{AsyncConfig, AsyncNetwork, AsyncStats, MAX_LATENCY};
pub use engine::{CommStats, PartnerMode, TopoCluster, TopoRule};
pub use equeue::CalendarQueue;
pub use runtime::{RuntimeConfig, RuntimeStats, ThreadedRuntime};
pub use topology::Topology;
