//! Deterministic per-entity random streams.
//!
//! Every processor/worker gets its own ChaCha8 stream derived from a
//! master seed and its identity, so simulations are reproducible
//! regardless of thread interleaving or iteration order.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Derives an independent stream for entity `id` from a master `seed`
/// (SplitMix64 finalisation keeps nearby ids uncorrelated).
pub(crate) fn stream(seed: u64, id: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(mix(seed, id))
}

fn mix(seed: u64, id: u64) -> u64 {
    splitmix64(seed.wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// SplitMix64 finalisation step (Steele, Lea & Flood; the γ-increment is
/// folded in so `splitmix64(0) != 0`).  The one seed-mixing primitive
/// every derived stream in the workspace goes through: `stream` here,
/// `dlb-experiments`' `stream_seed` and `dlb-serve`'s key placement
/// (`home_shard`).
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn streams_are_deterministic() {
        let mut a = stream(1, 2);
        let mut b = stream(1, 2);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn streams_differ_across_ids_and_seeds() {
        let mut base = stream(1, 0);
        let mut other_id = stream(1, 1);
        let mut other_seed = stream(2, 0);
        let x = base.next_u64();
        assert_ne!(x, other_id.next_u64());
        assert_ne!(x, other_seed.next_u64());
    }

    #[test]
    fn mix_avalanche() {
        // Adjacent ids map far apart.
        assert_ne!(mix(0, 0), mix(0, 1));
        assert!(mix(0, 0).count_ones() > 8);
    }
}
