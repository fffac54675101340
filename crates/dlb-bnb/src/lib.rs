//! Parallel best-first branch & bound on the SPAA'93 load-balancing
//! runtime.
//!
//! Branch & bound is the application family the paper's algorithm was
//! built for — the authors' own systems ([7] "Load Balancing for
//! Distributed Branch & Bound Algorithms", [8] the parallel TSP solver)
//! keep every processor's subproblem pool balanced with exactly the
//! trigger rule this workspace implements.  This crate packages that
//! pattern behind a small trait:
//!
//! * implement [`Problem`] (branch, bound, leaf detection) for your
//!   optimisation problem;
//! * [`Solver::solve`] explores the tree on
//!   [`dlb_net::ThreadedRuntime`] with a shared atomic incumbent and
//!   bound-based pruning;
//! * three reference problems are included — the symmetric TSP
//!   ([`tsp::Tsp`], Held–Karp-verified), 0/1 knapsack
//!   ([`knapsack::Knapsack`], DP-verified) and N-Queens counting
//!   ([`nqueens::NQueens`], verified against the known sequence via the
//!   [`Enumeration`] driver).
//!
//! ```
//! use dlb_bnb::{knapsack::Knapsack, Solver};
//!
//! let problem = Knapsack::random(16, 50, 1);
//! let outcome = Solver::default().solve(&problem);
//! assert_eq!(outcome.best_value, Some(problem.optimum_by_dp()));
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

pub mod knapsack;
pub mod nqueens;
pub mod solver;
pub mod tsp;

pub use solver::{Enumeration, Objective, Problem, SolveOutcome, Solver};
