//! Closed-form analysis layer for the SPAA'93 dynamic distributed load
//! balancing algorithm of Lüling & Monien.
//!
//! This crate contains no simulation of the algorithm itself (that lives in
//! `dlb-core`); it implements the *analysis* of the paper:
//!
//! * [`operators`] — the one-step expectation operators `G` and `C` of
//!   Lemma 1, their common fixed point `FIX(n, δ, f)` (Theorem 1) and the
//!   network-size-independent limits of Theorem 2.
//! * [`claims`] — the paper's six guarantees (Theorems 1–4, Lemmas 5
//!   and 6) as one table: statement, hypothesis and the bounds each puts
//!   on an observation, with the signed slack between them.
//! * [`bounds`] — the arithmetic underneath: `FIX` and its limits,
//!   Theorem 4's coefficient, the cost bounds of Lemmas 5 and 6
//!   (constants `U`, `D`, `D_i`).
//! * [`moments`] — an exact recursion for the first and second moments of
//!   the load in the one-processor-generator model, from which the
//!   variation density of §5 (Figure 6) is computed exactly.
//! * [`schedule`] — mixed grow/shrink words (the producer-consumer model in
//!   full generality), contraction rates and convergence-step predictions.
//! * [`compgraph`] — the computation-graph model of §5: occupancy counts
//!   `n(t, u)`, graph sampling, weighted-path-sum evaluation and exhaustive
//!   enumeration for cross-validation.
//!
//! All quantities are parameterised by the triple the paper uses
//! throughout: the network size `n`, the neighbourhood size `δ` and the
//! trigger factor `f`, with the standing assumption `1 ≤ f < δ + 1`.
//!
//! ```
//! use dlb_theory::{AlgoParams, TheoremBounds};
//!
//! let params = AlgoParams::new(64, 1, 1.1)?;
//! let bounds = TheoremBounds::for_params(&params);
//!
//! // Theorem 1: iterating G from a balanced start converges to FIX ...
//! let ratio = params.g_iter(1.0, 10_000);
//! assert!((ratio - bounds.fix).abs() < 1e-9);
//! // ... and Theorem 2 bounds it independent of the network size:
//! assert!(bounds.fix <= bounds.fix_limit); // δ/(δ+1−f)
//! # Ok::<(), dlb_theory::ParamError>(())
//! ```

#![forbid(unsafe_code)]

pub mod bounds;
pub mod claims;
pub mod compgraph;
pub mod moments;
pub mod operators;
pub mod schedule;

pub use bounds::{CostBounds, TheoremBounds};
pub use operators::{AlgoParams, ParamError};
