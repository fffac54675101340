//! Properties of the latency recorder that the serving report relies
//! on:
//!
//! 1. **Quantiles respect the bucket error bound** — any reported
//!    quantile is within a `1/SUB_BUCKETS` relative error of the true
//!    order statistic (exact below `SUB_BUCKETS`).
//! 2. **`quantile` is a sane quantile function** — monotone in `q`,
//!    `quantile(1.0)` lands in the max sample's bucket, and the
//!    `ceil(q · count) as u64` rank cast behaves exactly at integer
//!    boundaries of `q · count` (where an off-by-one would silently
//!    shift every reported percentile).

use dlb_serve::hist::{bucket_of, LatencyHistogram, SUB_BUCKETS};
use proptest::{prop_assert, prop_assert_eq, proptest};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Deterministic sample set with a heavy tail (spans many octaves).
fn samples(seed: u64, len: usize) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let octave = rng.gen_range(0u32..40);
            rng.gen_range(0..=(1u64 << octave))
        })
        .collect()
}

proptest! {
    #[test]
    fn quantiles_respect_the_bucket_error_bound(
        seed in 0u64..1_000_000,
        len in 1usize..400,
        q_mil in 1u64..=1000,
    ) {
        let q = q_mil as f64 / 1000.0;
        let mut values = samples(seed, len);
        let mut hist = LatencyHistogram::new();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        let rank = ((q * len as f64).ceil() as usize).clamp(1, len);
        let exact = values[rank - 1];
        let got = hist.quantile(q);
        if exact < SUB_BUCKETS {
            prop_assert_eq!(got, exact, "small samples are bucketed exactly");
        } else {
            let err = got.abs_diff(exact);
            prop_assert!(
                err.saturating_mul(SUB_BUCKETS) <= exact,
                "quantile {q}: got {got}, exact {exact}, relative error > 1/{SUB_BUCKETS}"
            );
        }
        prop_assert!(got <= hist.max(), "quantiles never exceed the observed max");
    }

    #[test]
    fn quantile_is_monotone_in_q(
        seed in 0u64..1_000_000,
        len in 1usize..400,
        a_mil in 1u64..=1000,
        b_mil in 1u64..=1000,
    ) {
        let mut hist = LatencyHistogram::new();
        for v in samples(seed, len) {
            hist.record(v);
        }
        let (lo, hi) = (a_mil.min(b_mil), a_mil.max(b_mil));
        prop_assert!(
            hist.quantile(lo as f64 / 1000.0) <= hist.quantile(hi as f64 / 1000.0),
            "q={} must not report above q={}", lo, hi
        );
    }

    #[test]
    fn quantile_one_lands_in_the_max_samples_bucket(
        seed in 0u64..1_000_000,
        len in 1usize..400,
    ) {
        let mut hist = LatencyHistogram::new();
        for v in samples(seed, len) {
            hist.record(v);
        }
        // rank = count reaches the last non-empty bucket, which is the
        // max sample's bucket; the midpoint is clamped to the exact max
        // but can never leave the bucket (the max is inside it).
        prop_assert_eq!(bucket_of(hist.quantile(1.0)), bucket_of(hist.max()));
        prop_assert!(hist.quantile(1.0) <= hist.max());
    }

    #[test]
    fn rank_cast_is_exact_at_integer_boundaries(count_log in 0u32..=5) {
        // `count` samples 0..count with count a power of two ≤ 32: every
        // value is bucketed exactly, and every q = j/count is exactly
        // representable in binary floating point — so `q · count` hits
        // the integer `j` with no rounding slack and the `ceil() as
        // u64` cast at the rank computation is exercised exactly *at*
        // the boundary (rank j → sample j-1) and just past it
        // (q = (2j+1)/2count → rank j+1 → sample j).
        let count = 1u64 << count_log; // ≤ SUB_BUCKETS, so buckets are exact
        let mut hist = LatencyHistogram::new();
        for v in 0..count {
            hist.record(v);
        }
        for j in 1..=count {
            let at = j as f64 / count as f64;
            prop_assert_eq!(
                hist.quantile(at),
                j - 1,
                "rank ceil({} · {}) must select sample {}", at, count, j - 1
            );
            if j < count {
                let past = (2 * j + 1) as f64 / (2 * count) as f64;
                prop_assert_eq!(
                    hist.quantile(past),
                    j,
                    "rank ceil({} · {}) must round up to sample {}", past, count, j
                );
            }
        }
        // q small enough that ceil(q·count) < 1 still clamps to rank 1.
        prop_assert_eq!(hist.quantile(1e-12), 0);
    }
}
