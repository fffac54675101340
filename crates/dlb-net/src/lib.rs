//! Substrate for the SPAA'93 reproduction: the "parallel machine" the
//! algorithm runs on.
//!
//! The paper assumes a distributed-memory processor network in which a
//! balancing operation costs constant time (arguing that wormhole routing
//! makes transfer distance negligible).  This crate supplies that machine,
//! stepped synchronously ([`engine`]) or by messages on a simulated clock
//! ([`desim`]):
//!
//! * [`topology`] — interconnect graphs (complete, ring, 2-D torus,
//!   hypercube, de Bruijn, star) with hop-distance queries, so
//!   the communication the paper argues away can actually be *measured*;
//! * [`adjacency`] — a topology's neighbour lists materialised once, for
//!   the rules and baselines that walk them every step;
//! * [`engine`] — the topology rule for `dlb-core`'s raw-load engine:
//!   hop-weighted communication accounting and the "balance with
//!   topology neighbours only" partner draw the paper lists as future
//!   work (locality); [`TopoCluster`] is that engine under this rule;
//! * [`desim`] — an asynchronous discrete-event simulator of the §5
//!   message protocol with latency, fault injection (`dlb-faults`) and a
//!   hardened timeout/retry state machine;
//! * [`rng`] — deterministic per-entity ChaCha streams.

// Two audited exceptions carry `#[allow(unsafe_code)]`: the calls in
// `desim`'s sweep dispatch to its AVX-512F and AVX2 chunk bodies, each
// right after the feature check that makes it sound.
#![deny(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

pub mod adjacency;
pub mod desim;
pub mod engine;
pub mod equeue;
pub mod rng;
pub mod topology;

pub use adjacency::Adjacency;
pub use desim::{AsyncConfig, AsyncNetwork, AsyncStats, MAX_LATENCY};
pub use engine::{CommStats, PartnerMode, TopoCluster, TopoRule};
pub use equeue::CalendarQueue;
pub use topology::Topology;
