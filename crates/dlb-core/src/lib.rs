//! The SPAA'93 dynamic distributed load balancing algorithm of Lüling &
//! Monien, implemented as an executable, instrumented model.
//!
//! Two variants are provided:
//!
//! * [`cluster::Cluster`] — the *analyzable* algorithm of §4 and the paper's
//!   appendix: every processor tracks per-class virtual loads
//!   `d_{i,1..n}`, borrowed-packet markers `b_{i,1..n}` (limit `C`), and
//!   triggers a balancing operation with `δ` random partners whenever its
//!   self-generated load has changed by the factor `f`.  This is the
//!   variant Theorems 3 and 4 are proved for.
//! * [`simple::SimpleCluster`] — the *practical* algorithm of \[7\] that the
//!   paper's introduction describes: identical trigger, but balancing raw
//!   load counts without the virtual-class bookkeeping.  This is what the
//!   branch-and-bound / Prolog / graphics applications cited by the paper
//!   actually ran.  It is one engine, [`simple::RawCluster`], generic
//!   over a [`simple::BalanceRule`] that decides who may be a partner
//!   and how the group total is split: `SimpleCluster` is the engine
//!   under the paper's even rule, [`weighted::WeightedCluster`] under
//!   shares proportional to processor speed, and `dlb-net`'s
//!   `TopoCluster` under topology neighbours with hop accounting.
//!
//! [`cluster::Cluster`] stores the `d`/`b` matrices sparsely
//! ([`sparse::SparseRow`] per processor), which is what lets it scale to
//! n ≥ 2¹⁸; the naive dense implementation survives as the test oracle
//! [`mod@reference`], and the two are bit-identical, enforced by proptests.
//!
//! [`one_proc`] contains the one-processor-generator(-consumer) models of
//! §3 (the paper's Figure 1), used to validate Theorems 1–3 and the cost
//! bounds of §6 empirically.
//!
//! Everything is deterministic given a seed, and every probabilistic
//! decision draws from a `ChaCha8` stream owned by the structure.
//!
//! ```
//! use dlb_core::{Cluster, LoadBalancer, LoadEvent, Params};
//!
//! // The paper's §7 configuration on 8 processors.
//! let params = Params::new(8, 1, 1.1, 4)?;
//! let mut cluster = Cluster::new(params, 42);
//!
//! // Processor 0 generates; everyone else idles.
//! let mut events = vec![LoadEvent::Idle; 8];
//! events[0] = LoadEvent::Generate;
//! for _ in 0..500 {
//!     cluster.step(&events);
//! }
//!
//! // Balancing spread the producer's 500 packets over the network.
//! assert_eq!(cluster.loads().iter().sum::<u64>(), 500);
//! assert!(cluster.loads().iter().all(|&l| l > 0));
//! cluster.check_invariants().unwrap();
//! # Ok::<(), dlb_theory::ParamError>(())
//! ```

// Ten audited exceptions carry `#[allow(unsafe_code)]`: the prefetch
// hint and the `Zeroable` impl of the processor record in `cluster`,
// the two `u64`-block-as-`u32`-keys views in `sparse`, and in `pages`
// the owner of zeroed values — its mapping, its heap allocation, its
// free and its two slice views — and the `Zeroable` impl of `u32` (the
// `Zeroable` declaration carries one too: it states the contract the
// impls keep).
#![deny(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

pub mod balance;
pub mod batch;
pub mod cluster;
pub mod metrics;
pub mod one_proc;
mod pages;
pub mod params;
pub mod recorder;
#[doc(hidden)]
pub mod reference;
pub mod simple;
pub mod snapshot;
pub mod sparse;
pub mod strategy;
mod summary;
pub mod weighted;

pub use batch::{step_batch, BatchEvent};
pub use cluster::Cluster;
pub use metrics::Metrics;
pub use pages::{Zeroable, Zeroed};
pub use params::{ExchangePolicy, Params, TriggerTable};
pub use recorder::LoadRecorder;
pub use simple::{Alive, BalanceRule, EvenRule, RawCluster, SimpleCluster};
pub use snapshot::ClusterSnapshot;
pub use sparse::SparseRow;
pub use strategy::{imbalance_stats, Events, ImbalanceStats, LoadBalancer, LoadEvent, LoadSummary};
pub use weighted::{ProportionalRule, WeightedCluster};
