//! The balancing primitive: distributing indivisible packets of many load
//! classes over a group of processors so that
//!
//! 1. every class is split evenly over the group (±1 per the appendix
//!    constraint `|d_{l₁,j} − d_{l₂,j}| ≤ 1`), and
//! 2. the grand totals of the group members also differ by at most one
//!    (`|Σ_j d_{l₁,j} − Σ_j d_{l₂,j}| ≤ 1`) — the paper's "snake like
//!    distribution of packets".
//!
//! Both are achieved by a greedy rule: each class hands its `total mod m`
//! leftover packets to the members with the smallest running grand totals,
//! ties by slot.  An induction shows what the greedy rule looks like from
//! zeros: the running totals are `v + 1` on a prefix `0..h` of the slots
//! and `v` on the rest.  A class with `e < m` leftovers gives them to
//! the slots at `v` first, in slot order — `h, h+1, …` — and then to the
//! prefix from slot 0 on, so with `h' = (h + e) mod m` the totals are
//! again one higher on the prefix `0..h'` than on the rest.  The greedy
//! rule therefore needs no sort: it deals the leftovers from a cursor `h`
//! that goes round the slots — the snake — as the engine's kernel
//! (`cluster::equalise`) does.
//!
//! The partner draw that selects the group ([`sample_into`],
//! [`sample_others_into`]) lives here too.

use rand::Rng;

/// Draws `amount` distinct indices uniformly from `0..length` and
/// *appends* them to `out` (which is not cleared: the engines draw a
/// balance group's δ partners straight into the member list that
/// already holds the initiator).  This is the vendored
/// `rand::seq::index::sample` Floyd loop without its allocation — same
/// RNG consumption, same picks, asserted by a unit test below — and the
/// one partner-subset draw every engine shares.
///
/// # Panics
///
/// Panics when `amount > length`.
pub fn sample_into<R: Rng + ?Sized>(
    rng: &mut R,
    length: usize,
    amount: usize,
    out: &mut Vec<usize>,
) {
    assert!(amount <= length, "cannot sample {amount} from {length}");
    let start = out.len();
    for j in (length - amount)..length {
        let t = rng.gen_range(0..=j);
        let pick = if out[start..].contains(&t) { j } else { t };
        out.push(pick);
    }
}

/// Appends a uniform `amount`-subset of the processors `0..n` other
/// than `who` to `out`: the paper's partner draw.  One [`sample_into`]
/// over `n − 1` slots, with the slots at and above `who` shifted up.
pub fn sample_others_into<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    who: usize,
    amount: usize,
    out: &mut Vec<usize>,
) {
    let start = out.len();
    sample_into(rng, n - 1, amount, out);
    for x in &mut out[start..] {
        *x += usize::from(*x >= who);
        debug_assert_ne!(*x, who, "a processor drew itself as a partner");
    }
}

/// Evenly splits `total` into `m` shares differing by at most one,
/// listing the `total mod m` larger shares first.
pub fn even_shares(total: u64, m: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(m);
    even_shares_into(total, m, &mut out);
    out
}

/// [`even_shares`] into a caller-owned buffer (cleared first) — the
/// hot-path form used by the engines' reusable scratch space.
pub fn even_shares_into(total: u64, m: usize, out: &mut Vec<u64>) {
    assert!(m > 0, "cannot split over an empty group");
    let base = total / m as u64;
    // Below `m`.
    #[allow(clippy::cast_possible_truncation)]
    let extras = (total % m as u64) as usize;
    out.clear();
    out.extend((0..m).map(|i| if i < extras { base + 1 } else { base }));
}

/// Core of [`distribute_classes`]: writes the shares into a flat
/// row-major matrix `out[class * m + slot]` (resized as needed).  This is
/// the rule as stated — sort the members by running total, hand the
/// extras to the first ones — and the oracle the engine's snake
/// (`cluster::equalise`) is tested against.
pub(crate) fn distribute_classes_flat(
    class_totals: &[u64],
    m: usize,
    running: &mut [u64],
    out: &mut Vec<u64>,
) {
    assert!(m > 0);
    assert_eq!(running.len(), m);
    out.clear();
    out.resize(class_totals.len() * m, 0);
    let mut order: Vec<usize> = (0..m).collect();
    for (c, &total) in class_totals.iter().enumerate() {
        let base = total / m as u64;
        let extras = usize::try_from(total % m as u64).expect("below m");
        let row = &mut out[c * m..(c + 1) * m];
        for share in row.iter_mut() {
            *share = base;
        }
        if extras > 0 {
            order.sort_unstable_by_key(|&s| (running[s], s));
            for &s in &order[..extras] {
                row[s] += 1;
            }
        }
        if base > 0 || extras > 0 {
            for (r, &share) in running.iter_mut().zip(row.iter()) {
                *r += share;
            }
        }
    }
}

/// Distributes per-class totals over `m` members.
///
/// `class_totals[j]` is the number of class-`j` packets held by the whole
/// group; the result `out[j][s]` is the number assigned to member slot
/// `s`.  `running` carries grand totals across *multiple* calls (pass
/// zeros for a standalone distribution) so that, e.g., the real-packet
/// matrix and the marker matrix can share one evenness budget if desired.
///
/// Postconditions (tested):
/// * per class: `Σ_s out[j][s] == class_totals[j]` and spread ≤ 1;
/// * per member: grand-total spread ≤ 1 (including `running`).
pub fn distribute_classes(class_totals: &[u64], m: usize, running: &mut [u64]) -> Vec<Vec<u64>> {
    assert!(m > 0);
    assert_eq!(running.len(), m);
    let mut flat = Vec::new();
    distribute_classes_flat(class_totals, m, running, &mut flat);
    flat.chunks(m).map(|row| row.to_vec()).collect()
}

/// Distributes `total` indivisible units over members with per-member
/// capacities, as evenly as the capacities allow (units go to the member
/// with the smallest current share among those with spare capacity).
///
/// Used for redistributing borrowed-packet markers, whose per-processor
/// count must never exceed the borrow limit `C`.
///
/// # Panics
///
/// Panics if `total` exceeds the aggregate capacity.
pub fn distribute_capped(total: u64, caps: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(caps.len());
    distribute_capped_into(total, caps, &mut out);
    out
}

/// [`distribute_capped`] into a caller-owned buffer (cleared first).
pub(crate) fn distribute_capped_into(total: u64, caps: &[u64], out: &mut Vec<u64>) {
    // Saturating: under a borrow limit near 2⁶⁴ the caps' sum passes it.
    let capacity = caps.iter().fold(0u64, |sum, &cap| sum.saturating_add(cap));
    assert!(
        total <= capacity,
        "insufficient capacity: {total} > {capacity}"
    );
    out.clear();
    out.resize(caps.len(), 0);
    let mut remaining = total;
    while remaining > 0 {
        // One zipped min-scan per unit instead of indexed probes: the
        // filter and key would otherwise each re-check bounds on both
        // slices for every candidate.
        let idx = out
            .iter()
            .zip(caps.iter())
            .enumerate()
            .filter(|&(_, (&o, &c))| o < c)
            .min_by_key(|&(s, (&o, _))| (o, s))
            .map(|(s, _)| s)
            .expect("aggregate capacity checked above");
        out[idx] += 1;
        remaining -= 1;
    }
}

/// `max − min` of a slice (0 for empty input).
pub fn spread(values: &[u64]) -> u64 {
    match (values.iter().max(), values.iter().min()) {
        (Some(max), Some(min)) => max - min,
        _ => 0,
    }
}

/// Number of packets that change owners when the group moves from
/// `before[s]` to `after[s]` per member: `Σ max(before − after, 0)`
/// (equal to `Σ max(after − before, 0)` when totals are conserved).
pub(crate) fn moved(before: &[u64], after: &[u64]) -> u64 {
    before
        .iter()
        .zip(after.iter())
        .map(|(&x, &y)| x.saturating_sub(y))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sample_into_matches_vendored_sample() {
        // sample_into re-implements rand::seq::index::sample to avoid
        // its allocation; the two must stay in lockstep (same RNG draws,
        // same picks) or determinism silently breaks.  The prefix
        // already in `out` must not take part in the membership test.
        for seed in 0..20u64 {
            let mut out = vec![3, 14];
            sample_into(&mut ChaCha8Rng::seed_from_u64(seed), 15, 4, &mut out);
            let expect = rand::seq::index::sample(&mut ChaCha8Rng::seed_from_u64(seed), 15, 4);
            assert_eq!(out[..2], [3, 14], "seed {seed}");
            assert_eq!(out[2..], expect.clone().into_vec(), "seed {seed}");
            // The partner draw skips `who` by shifting the upper slots.
            let mut partners = vec![5];
            sample_others_into(
                &mut ChaCha8Rng::seed_from_u64(seed),
                16,
                5,
                4,
                &mut partners,
            );
            let shifted: Vec<usize> = expect.iter().map(|x| x + usize::from(x >= 5)).collect();
            assert_eq!(partners[1..], shifted, "seed {seed}");
        }
    }

    #[test]
    fn even_shares_exact_and_remainder() {
        assert_eq!(even_shares(10, 2), vec![5, 5]);
        assert_eq!(even_shares(11, 2), vec![6, 5]);
        assert_eq!(even_shares(3, 5), vec![1, 1, 1, 0, 0]);
        assert_eq!(even_shares(0, 3), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn even_shares_rejects_empty_group() {
        even_shares(1, 0);
    }

    #[test]
    fn distribute_single_class() {
        let mut running = vec![0u64; 3];
        let out = distribute_classes(&[7], 3, &mut running);
        assert_eq!(out[0].iter().sum::<u64>(), 7);
        assert_eq!(spread(&out[0]), 1);
    }

    #[test]
    fn distribute_many_classes_meets_both_constraints() {
        let totals = vec![7u64, 0, 13, 1, 1, 1, 2, 99];
        let m = 5;
        let mut running = vec![0u64; m];
        let out = distribute_classes(&totals, m, &mut running);
        for (j, shares) in out.iter().enumerate() {
            assert_eq!(shares.iter().sum::<u64>(), totals[j], "class {j} conserved");
            assert!(spread(shares) <= 1, "class {j} spread");
        }
        let grand: Vec<u64> = (0..m)
            .map(|s| out.iter().map(|shares| shares[s]).sum())
            .collect();
        assert!(spread(&grand) <= 1, "grand totals {grand:?}");
        assert_eq!(grand, running);
    }

    #[test]
    fn flat_and_nested_distributions_agree() {
        let totals = vec![7u64, 0, 13, 1, 99];
        let m = 4;
        let mut run_a = vec![0u64; m];
        let nested = distribute_classes(&totals, m, &mut run_a);
        let mut run_b = vec![0u64; m];
        let mut flat = Vec::new();
        distribute_classes_flat(&totals, m, &mut run_b, &mut flat);
        for (c, row) in nested.iter().enumerate() {
            assert_eq!(&flat[c * m..(c + 1) * m], row.as_slice(), "class {c}");
        }
        assert_eq!(run_a, run_b);
    }

    #[test]
    fn distribute_respects_prior_running_totals() {
        // A member that already carries more weight receives fewer extras.
        let mut running = vec![10u64, 0];
        let out = distribute_classes(&[1], 2, &mut running);
        assert_eq!(out[0], vec![0, 1], "extra goes to the lighter member");
    }

    #[test]
    fn moved_counts_departing_packets() {
        assert_eq!(moved(&[5, 0, 1], &[2, 2, 2]), 3);
        assert_eq!(moved(&[2, 2, 2], &[2, 2, 2]), 0);
    }

    #[test]
    fn capped_distribution_respects_caps_and_evenness() {
        let out = distribute_capped(7, &[4, 1, 4]);
        assert_eq!(out.iter().sum::<u64>(), 7);
        assert!(
            out.iter().zip([4u64, 1, 4]).all(|(&o, c)| o <= c),
            "{out:?}"
        );
        // With caps [4,1,4] the most even split of 7 is [3,1,3].
        assert_eq!(out, vec![3, 1, 3]);
        assert_eq!(distribute_capped(0, &[2, 2]), vec![0, 0]);
        // Caps summing past 2⁶⁴ wrapped the capacity check.
        assert_eq!(distribute_capped(3, &[1 << 63; 3]), vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "insufficient capacity")]
    fn capped_distribution_rejects_overflow() {
        distribute_capped(5, &[2, 2]);
    }

    #[test]
    fn adversarial_grand_total_spread_stays_one() {
        // Many classes with remainder 1 each: the greedy must rotate the
        // extras around the members.
        let totals = vec![1u64; 97];
        let m = 7;
        let mut running = vec![0u64; m];
        let out = distribute_classes(&totals, m, &mut running);
        let grand: Vec<u64> = (0..m).map(|s| out.iter().map(|sh| sh[s]).sum()).collect();
        assert!(spread(&grand) <= 1, "{grand:?}");
        assert_eq!(grand.iter().sum::<u64>(), 97);
    }
}
