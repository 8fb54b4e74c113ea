//! Offline stand-in for the `rand_chacha` crate.
//!
//! Implements a genuine ChaCha stream cipher core (RFC 7539 quarter-rounds,
//! 8 double-rounds for the `ChaCha8Rng` flavor) so that seeded runs are
//! deterministic, portable across platforms, and statistically sound. The
//! stand-in does not promise the same output stream as upstream
//! `rand_chacha` — only the same *interface* and the same reproducibility
//! guarantees, which is all this workspace relies on.

#![warn(missing_docs)]

/// Callers import `rand_chacha::rand_core::{RngCore, SeedableRng}`; the
/// traits live in our `rand` stand-in, re-exported under the upstream name.
pub use rand as rand_core;

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 8;

/// A deterministic ChaCha8-based random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Cipher input block: constants, key, counter, nonce.
    state: [u32; 16],
    /// Current keystream block.
    buffer: [u32; 16],
    /// Next unread word in `buffer`; 16 means exhausted.
    index: usize,
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut working = self.state;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, (&w, &s)) in self
            .buffer
            .iter_mut()
            .zip(working.iter().zip(self.state.iter()))
        {
            *out = w.wrapping_add(s);
        }
        // 64-bit block counter in words 12..14.
        let counter = (self.state[12] as u64 | ((self.state[13] as u64) << 32)).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.index = 0;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646E;
        state[2] = 0x7962_2D32;
        state[3] = 0x6B20_6574;
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes([
                seed[4 * i],
                seed[4 * i + 1],
                seed[4 * i + 2],
                seed[4 * i + 3],
            ]);
        }
        // Counter and nonce start at zero.
        ChaCha8Rng {
            state,
            buffer: [0; 16],
            index: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    /// The next two words, low word first. When both sit in the current
    /// block they are read in one step; at index 15 (one word left) or 16
    /// (block used up) it is two `next_u32` calls, which refill in between
    /// or first. Either way the stream is the same.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.index;
        if let Some(&[lo, hi]) = self.buffer.get(i..i + 2) {
            self.index = i + 2;
            return lo as u64 | ((hi as u64) << 32);
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same == 0, "streams should be unrelated");
    }

    #[test]
    fn counter_advances_across_blocks() {
        // One block is 16 words; drawing 40 words must cross blocks without
        // repeating output.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let words: Vec<u32> = (0..40).map(|_| rng.next_u32()).collect();
        let mut sorted = words.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() > 35, "keystream words should be distinct");
    }

    #[test]
    fn clone_preserves_position() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..5 {
            rng.next_u32();
        }
        let mut fork = rng.clone();
        for _ in 0..20 {
            assert_eq!(rng.next_u64(), fork.next_u64());
        }
    }

    /// The serving loop's default resample seed (`0x5A17`) plus the two
    /// ends of the `seed_from_u64` range.
    const KAT_SEEDS: [u64; 3] = [0, 0x5A17, u64::MAX];

    /// Known answers, one row per seed in `KAT_SEEDS`: the first four
    /// `next_u32` words, the first four `next_u64` words, eight `next_u64`
    /// after one `next_u32` (the eighth straddles the first block's end)
    /// and three `next_u64` after fifteen `next_u32` (the first straddles).
    #[allow(clippy::type_complexity)]
    const KAT: [([u32; 4], [u64; 4], [u64; 8], [u64; 3]); 3] = [
        (
            [0x2d8e_e5e8, 0xbf94_d133, 0xa6da_5a01, 0x3a73_8775],
            [
                0xbf94_d133_2d8e_e5e8,
                0x3a73_8775_a6da_5a01,
                0x3d46_ff10_c143_ee06,
                0x17c6_ab23_e9f6_424f,
            ],
            [
                0xa6da_5a01_bf94_d133,
                0xc143_ee06_3a73_8775,
                0xe9f6_424f_3d46_ff10,
                0x2fb6_898b_17c6_ab23,
                0x86bf_f662_5ce2_479b,
                0xc72f_90bd_0ae8_099f,
                0x28e5_a01f_5f2f_09fd,
                0x94ef_af48_95d5_3efa,
            ],
            [
                0x94ef_af48_95d5_3efa,
                0x17d7_a4e4_1131_e62b,
                0xcd4c_18d1_9eec_7e55,
            ],
        ),
        (
            [0x66e1_6dfe, 0x66c1_f449, 0xd694_20fc, 0x9803_bd6e],
            [
                0x66c1_f449_66e1_6dfe,
                0x9803_bd6e_d694_20fc,
                0x41a5_482e_50e5_2606,
                0x6c5b_39a5_9de8_4317,
            ],
            [
                0xd694_20fc_66c1_f449,
                0x50e5_2606_9803_bd6e,
                0x9de8_4317_41a5_482e,
                0xe094_eebf_6c5b_39a5,
                0xb1ad_8f43_9425_a75c,
                0xf004_5768_607e_4ff6,
                0x09ee_f1cc_3090_6c1a,
                0xdaa3_3fed_cc97_dcd4,
            ],
            [
                0xdaa3_3fed_cc97_dcd4,
                0xd0bc_ae77_7ed2_d394,
                0xf3e6_c4cc_eb85_01b0,
            ],
        ),
        (
            [0x60ef_8644, 0x167f_ca9c, 0xf2f8_3696, 0xf792_fa24],
            [
                0x167f_ca9c_60ef_8644,
                0xf792_fa24_f2f8_3696,
                0x71e8_f282_dbcb_e0b1,
                0xebaa_0dca_9492_a6e7,
            ],
            [
                0xf2f8_3696_167f_ca9c,
                0xdbcb_e0b1_f792_fa24,
                0x9492_a6e7_71e8_f282,
                0xff25_b8bb_ebaa_0dca,
                0x5dd8_c0cf_438b_9759,
                0x2f5b_3043_3d92_cea8,
                0xe79a_fbc9_e533_584b,
                0x3c84_65a9_62a4_544f,
            ],
            [
                0x3c84_65a9_62a4_544f,
                0x8277_c5fc_3691_a39c,
                0xe9ac_b0a3_0b89_def3,
            ],
        ),
    ];

    #[test]
    fn known_answer_words() {
        for (&seed, (u32s, u64s, after_one, after_fifteen)) in KAT_SEEDS.iter().zip(KAT) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let got: Vec<u32> = (0..4).map(|_| rng.next_u32()).collect();
            assert_eq!(got, u32s, "seed {seed:#x}: next_u32");
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
            assert_eq!(got, u64s, "seed {seed:#x}: next_u64");
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.next_u32();
            let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            assert_eq!(got, after_one, "seed {seed:#x}: next_u64 after 1 next_u32");
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..15 {
                rng.next_u32();
            }
            let got: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
            assert_eq!(
                got, after_fifteen,
                "seed {seed:#x}: next_u64 after 15 next_u32"
            );
        }
    }

    #[test]
    fn known_answer_clone_mid_block() {
        for (&seed, (_, _, after_one, _)) in KAT_SEEDS.iter().zip(KAT) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.next_u32();
            rng.next_u64();
            let mut fork = rng.clone();
            for want in &after_one[1..] {
                assert_eq!(fork.next_u64(), *want, "seed {seed:#x}: clone");
                assert_eq!(rng.next_u64(), *want, "seed {seed:#x}: original");
            }
        }
    }

    /// FNV-1a over a 1M-step stream that mixes `next_u32` and `next_u64`
    /// at every word offset (so `next_u64` starts at both parities and
    /// straddles block ends) and continues from a clone every 1,000 steps.
    fn stream_digest(seed: u64) -> u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for step in 0u64..1_000_000 {
            let word = if step % 3 == 0 {
                u64::from(rng.next_u32())
            } else {
                rng.next_u64()
            };
            h = (h ^ word).wrapping_mul(0x0100_0000_01b3);
            if step % 1000 == 999 {
                rng = rng.clone();
            }
        }
        h
    }

    #[test]
    fn known_answer_stream_digest() {
        let got: Vec<u64> = KAT_SEEDS.iter().map(|&s| stream_digest(s)).collect();
        assert_eq!(
            got,
            [
                0xa8d7_e797_079c_9031,
                0xa58d_763b_f563_81a7,
                0x811f_e9e0_0075_4897,
            ],
            "{got:#018x?}"
        );
    }
}
