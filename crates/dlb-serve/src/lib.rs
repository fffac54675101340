//! `dlb-serve` — a request-routing service driven by the SPAA'93
//! trigger rule.
//!
//! The paper balances *packets* between processors; this crate applies
//! the same machinery to a serving front-end balancing *requests*
//! between shard queues:
//!
//! - [`router::TriggerRouter`] — the paper's grow/shrink `f`-trigger
//!   over live queue depths; a fired trigger equalises the initiator
//!   with `δ` random alive partners using the even-share primitive from
//!   [`dlb_core::balance`].
//! - `group::ShardGroup` (crate-private) — the shard state machine:
//!   sticky key placement, the queues, both triggers, plan application,
//!   crash redistribution.  Its clock is a `now` argument.
//! - [`dlb_workload::service::RequestSource`] — the open-loop load
//!   generator (diurnal rate phases, Zipf hot-key skew, seeded service
//!   demands).
//! - [`hist::LatencyHistogram`] — log-bucketed latency recording with
//!   a ≤ 1/32 relative quantile error.
//! - [`sim::run_sim`] — the driver: one group over every shard on
//!   [`dlb_net::CalendarQueue`]'s simulated clock, single-threaded and
//!   bit-reproducible for a fixed seed, with the conservation ledger
//!   `issued == completed + dropped + in_flight` checked every tick.
//! - [`stats::ServiceStats`] — the byte-stable report it emits,
//!   rendered through `dlb-json`.
//! - [`ring::SpscRing`] — a bounded lock-free single-producer
//!   single-consumer ring no driver uses; kept for the benchmark's
//!   `serve.ring_ns_per_op` micro-loop.
//!
//! Crash/rejoin plans from `dlb-faults` compose with the driver, and
//! per-request trace events (`req`, `req_done`, `redirect`) flow
//! through `dlb-trace`'s cached-enabled-flag [`dlb_trace::SharedSink`].

#![warn(clippy::cast_possible_truncation)]

mod group;
pub mod hist;
pub mod ring;
pub mod router;
pub mod scenario;
pub mod sim;
pub mod stats;

pub use hist::LatencyHistogram;
pub use ring::SpscRing;
pub use router::{RebalancePlan, TriggerRouter};
pub use scenario::ServiceScenario;
pub use sim::run_sim;
pub use stats::ServiceStats;

/// Sticky key → home shard placement: one SplitMix64 finalisation
/// round ([`dlb_net::rng::splitmix64`]), reduced mod `shards`.
///
/// This is *the* placement hash: `ShardGroup::arrive` places with it.
// The remainder is below `shards`, a `usize`.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn home_shard(key: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (dlb_net::rng::splitmix64(key) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::home_shard;

    /// Literals captured from the private mixer `home_shard` carried
    /// before it called the shared `splitmix64`: placement decides every
    /// committed serve output, so it is pinned at the function.
    #[test]
    fn home_shard_placement_is_pinned() {
        const PINS: [(u64, usize, usize); 20] = [
            (0, 1, 0),
            (0, 2, 1),
            (0, 7, 2),
            (0, 4096, 3503),
            (1, 1, 0),
            (1, 2, 1),
            (1, 7, 2),
            (1, 4096, 3265),
            (42, 7, 5),
            (42, 64, 21),
            (1000, 2, 0),
            (1000, 4096, 328),
            (0xdead_beef, 7, 2),
            (0xdead_beef, 4096, 2971),
            (1 << 32, 7, 6),
            (1 << 32, 64, 56),
            (u64::MAX, 1, 0),
            (u64::MAX, 2, 0),
            (u64::MAX, 7, 0),
            (u64::MAX, 4096, 3104),
        ];
        for (key, shards, shard) in PINS {
            assert_eq!(
                home_shard(key, shards),
                shard,
                "home_shard({key}, {shards})"
            );
        }
    }

    #[test]
    fn every_keys_home_is_a_valid_shard() {
        // Placement is one call site (`ShardGroup::arrive`), so there is no
        // second copy to agree with; what is left to check is the range.
        for n in [1usize, 2, 3, 8, 64] {
            for key in (0..2_000u64).chain([u64::MAX, u64::MAX - 1, 1 << 60]) {
                assert!(home_shard(key, n) < n, "home must be a valid shard");
            }
        }
    }
}
