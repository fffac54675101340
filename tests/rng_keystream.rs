//! The keystream under every engine, workload generator, fault injector
//! and router: `rand_chacha::ChaCha8Rng` checked against the published
//! ChaCha8 vector, against literals captured before its four-block refill
//! replaced the one-block generator, and against an independent scalar
//! block function at every buffer, block and counter boundary.
//!
//! `vendor/` is outside the workspace, so this file is what tier-1 sees
//! of that crate.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One ChaCha8 block — 32-byte key, 64-bit counter in words 12–13, zero
/// nonce — written from the specification, sharing nothing with the crate.
fn reference_block(seed: &[u8; 32], counter: u64) -> [u32; 16] {
    fn quarter(x: &mut [u32; 16], [a, b, c, d]: [usize; 4]) {
        for (rot_d, rot_b) in [(16, 12), (8, 7)] {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(rot_d);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(rot_b);
        }
    }
    let mut init = [0u32; 16];
    init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    for (word, bytes) in init[4..12].iter_mut().zip(seed.chunks_exact(4)) {
        *word = u32::from_le_bytes(bytes.try_into().expect("four bytes"));
    }
    init[12] = counter as u32;
    init[13] = (counter >> 32) as u32;
    let mut x = init;
    for _double_round in 0..4 {
        for i in 0..4 {
            quarter(&mut x, [i, 4 + i, 8 + i, 12 + i]);
        }
        for i in 0..4 {
            quarter(
                &mut x,
                [i, 4 + (i + 1) % 4, 8 + (i + 2) % 4, 12 + (i + 3) % 4],
            );
        }
    }
    for (word, start) in x.iter_mut().zip(init) {
        *word = word.wrapping_add(start);
    }
    x
}

/// Keystream word at absolute position `pos`: the block counter is the
/// low 64 bits of `pos / 16`.
fn reference_word(seed: &[u8; 32], pos: u128) -> u32 {
    reference_block(seed, (pos / 16) as u64)[(pos % 16) as usize]
}

/// What `next_u64` at `pos` must return: two consecutive words, low first.
fn reference_u64(seed: &[u8; 32], pos: u128) -> u64 {
    let lo = reference_word(seed, pos) as u64;
    let hi = reference_word(seed, pos.wrapping_add(1)) as u64;
    hi << 32 | lo
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Key = 0, IV = 0, block 0 of the ChaCha8 test vectors
/// (draft-strombergson-chacha-test-vectors, TC1).
const PUBLISHED_BLOCK_0: &str = "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e\
     984ce172b9216f419f445367456d5619314a42a3da86b001387bfdb80e0cfe42";

#[test]
fn published_chacha8_vector() {
    let mut rng = ChaCha8Rng::from_seed([0; 32]);
    let mut block = [0u8; 64];
    rng.fill_bytes(&mut block);
    assert_eq!(hex(&block), PUBLISHED_BLOCK_0);
    assert_eq!(rng.get_word_pos(), 16);

    let words = reference_block(&[0; 32], 0);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    assert_eq!(hex(&bytes), PUBLISHED_BLOCK_0, "the oracle itself");
}

/// `(seed, first four next_u64, next_u64 at 2³²·16 − 1, the two next_u64
/// from u128::MAX − 1)`, printed by the one-block generator of PR 23.
const CAPTURED: [(u64, [u64; 4], u64, [u64; 2]); 5] = [
    (
        42,
        [
            0x31159ef987c91afc,
            0x17559844b4169001,
            0xf7d0afbf9ad9a69f,
            0xb9207ad5fd37495a,
        ],
        0xea0512d0c12d183d,
        [0x5815c45804b59398, 0x31159ef987c91afc],
    ),
    (
        0,
        [
            0xbf94d1332d8ee5e8,
            0x3a738775a6da5a01,
            0x3d46ff10c143ee06,
            0x17c6ab23e9f6424f,
        ],
        0xf171c6dced356a35,
        [0x36c164254553ef66, 0xbf94d1332d8ee5e8],
    ),
    (
        4711,
        [
            0x26dd9ad1d186b860,
            0x335632061b878e7e,
            0x588931544736d21a,
            0x1d6b05fd290e6dff,
        ],
        0x0b67a0384efd3b29,
        [0x0c8325bca0a8d904, 0x26dd9ad1d186b860],
    ),
    (
        u64::MAX,
        [
            0x167fca9c60ef8644,
            0xf792fa24f2f83696,
            0x71e8f282dbcbe0b1,
            0xebaa0dca9492a6e7,
        ],
        0x7f22ff5506374e02,
        [0x77e402bef3894eba, 0x167fca9c60ef8644],
    ),
    (
        6022,
        [
            0x0bb46c2ead645f6d,
            0x994bf1dfd2f13a38,
            0x628e6e2acc22f3b4,
            0x071695a058b35122,
        ],
        0x61e80bea23509c72,
        [0x284ab64887b41372, 0x0bb46c2ead645f6d],
    ),
];

/// Word position whose `next_u64` straddles the counter's carry from
/// word 12 into word 13.
const COUNTER_CARRY: u128 = (1u128 << 32) * 16 - 1;

#[test]
fn parent_captured_literals() {
    for (seed, first, at_carry, at_wrap) in CAPTURED {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for want in first {
            assert_eq!(rng.next_u64(), want, "seed {seed}");
        }
        rng.set_word_pos(COUNTER_CARRY);
        assert_eq!(rng.next_u64(), at_carry, "seed {seed} at the carry");
        rng.set_word_pos(u128::MAX - 1);
        assert_eq!(rng.next_u64(), at_wrap[0], "seed {seed} before the wrap");
        assert_eq!(rng.next_u64(), at_wrap[1], "seed {seed} after the wrap");
        assert_eq!(rng.get_word_pos(), 2);
    }
    // 2²⁴ draws at seed 4711, folded one `u64` at a time FNV-1a style:
    // the `rng` row of BENCH_core.json carries the same number.
    let mut rng = ChaCha8Rng::seed_from_u64(4711);
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..1 << 24 {
        fnv = (fnv ^ rng.next_u64()).wrapping_mul(0x0100_0000_01b3);
    }
    assert_eq!(fnv, 0xfac6_aa56_b532_8ab6);
    assert_eq!(rng.get_word_pos(), 1 << 25);
}

#[test]
fn four_thousand_words_match_the_reference() {
    for seed_u64 in [0u64, 1, 2, 42, 4711, 6022, 0xdead_beef, u64::MAX] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed_u64);
        let seed = rng.get_seed();
        for pos in 0..4096u128 {
            assert_eq!(rng.get_word_pos(), pos);
            assert_eq!(
                rng.next_u32(),
                reference_word(&seed, pos),
                "seed {seed_u64} word {pos}"
            );
        }
    }
    // Seeds given as bytes rather than expanded from a `u64`.
    let mut seed = [0u8; 32];
    for (i, byte) in seed.iter_mut().enumerate() {
        *byte = (i as u8).wrapping_mul(37) ^ 0xa5;
    }
    let mut rng = ChaCha8Rng::from_seed(seed);
    assert_eq!(rng.get_seed(), seed);
    for pos in (0..4096u128).step_by(2) {
        assert_eq!(rng.next_u64(), reference_u64(&seed, pos), "word {pos}");
    }
}

#[test]
fn seeking_lands_on_every_boundary() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let seed = rng.get_seed();
    let positions = (0..200u128).chain([63, 64, 65, COUNTER_CARRY, u128::MAX - 1]);
    for pos in positions {
        rng.set_word_pos(pos);
        assert_eq!(rng.get_word_pos(), pos);
        assert_eq!(rng.next_u64(), reference_u64(&seed, pos), "u64 at {pos}");
        assert_eq!(rng.get_word_pos(), pos.wrapping_add(2));
        // And the draw after it, from wherever that one stopped.
        assert_eq!(
            rng.next_u64(),
            reference_u64(&seed, pos.wrapping_add(2)),
            "second u64 after {pos}"
        );
        // A fresh generator sought there compares equal and continues alike.
        let mut fresh = ChaCha8Rng::from_seed(seed);
        fresh.set_word_pos(rng.get_word_pos());
        assert_eq!(fresh, rng);
        assert_eq!(fresh.next_u32(), rng.next_u32());
    }
}

#[test]
fn mixed_widths_straddle_the_buffer_end() {
    for seed_u64 in [3u64, 4711] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed_u64);
        let seed = rng.get_seed();
        // A fixed 2:1 mix of wide and narrow draws, so the position before
        // a wide draw visits every residue mod 64, 63 included.
        let mut lcg = seed_u64;
        let mut straddles = 0;
        for _ in 0..20_000 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pos = rng.get_word_pos();
            if (lcg >> 33) % 3 == 0 {
                assert_eq!(rng.next_u32(), reference_word(&seed, pos), "u32 at {pos}");
                assert_eq!(rng.get_word_pos(), pos + 1);
            } else {
                straddles += usize::from(pos % 64 == 63);
                assert_eq!(rng.next_u64(), reference_u64(&seed, pos), "u64 at {pos}");
                assert_eq!(rng.get_word_pos(), pos + 2);
            }
        }
        assert!(straddles >= 50, "only {straddles} straddling draws");
    }
    // The two shortest ways to stand on word 63 before a wide draw.
    let mut narrow = ChaCha8Rng::seed_from_u64(9);
    let seed = narrow.get_seed();
    for _ in 0..63 {
        narrow.next_u32();
    }
    let mut wide = ChaCha8Rng::from_seed(seed);
    for _ in 0..31 {
        wide.next_u64();
    }
    wide.next_u32();
    assert_eq!(narrow.get_word_pos(), 63);
    assert_eq!(narrow, wide);
    assert_eq!(narrow.next_u64(), reference_u64(&seed, 63));
    assert_eq!(wide.next_u64(), reference_u64(&seed, 63));
    assert_eq!(narrow.get_word_pos(), 65);
    assert_eq!(narrow.next_u64(), reference_u64(&seed, 65));
}
