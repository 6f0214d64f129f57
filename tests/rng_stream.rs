//! Known-answer tests for the vendored ChaCha generators' output streams.
//!
//! Every simulation, workload, parity fixture and golden CLI output in this
//! repository is keyed to these streams, so a change to how the generators
//! refill (batching blocks, SIMD kernels) must leave them word-for-word
//! identical. The expected values were captured from the one-block-per-refill
//! scalar generator.

use rand::{RngCore, SeedableRng};
use rand_chacha::{ChaCha12Rng, ChaCha20Rng, ChaCha8Rng};

/// Words covered by each digest.
const WORDS: usize = 1_000;

/// Positions pinned explicitly: both sides of the 16-word block boundary and
/// of the 128-word (8-block) boundary, plus the last digested word.
const PINNED_AT: [usize; 6] = [0, 15, 16, 127, 128, 999];

struct Known {
    seed: u64,
    /// FNV-1a (64-bit) over the little-endian bytes of the first [`WORDS`]
    /// `next_u32` words.
    digest: u64,
    /// The words at [`PINNED_AT`].
    words: [u32; 6],
}

fn fnv1a(words: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn u32_stream<R: RngCore>(mut rng: R) -> Vec<u32> {
    (0..WORDS).map(|_| rng.next_u32()).collect()
}

/// The same words drawn as a mix of `next_u64` and `next_u32`, split back
/// into words low half first. A `next_u64` straddles every 16-word block
/// boundary (so every 128-word refill boundary too), and others fall inside
/// a block at both word parities.
fn mixed_stream<R: RngCore>(mut rng: R) -> Vec<u32> {
    let mut words = Vec::with_capacity(WORDS + 1);
    while words.len() < WORDS {
        let at = words.len();
        // Word 14 of a block is always drawn alone, so the draw after it
        // starts at word 15 and straddles.
        if at % 16 == 15 || (at % 16 != 14 && at % 3 == 0) {
            let pair = rng.next_u64();
            words.extend([pair as u32, (pair >> 32) as u32]);
        } else {
            words.push(rng.next_u32());
        }
    }
    words.truncate(WORDS);
    words
}

fn check<R: RngCore + SeedableRng>(name: &str, known: &[Known]) {
    for k in known {
        let words = u32_stream(R::seed_from_u64(k.seed));
        assert_eq!(fnv1a(&words), k.digest, "{name} seed {}: digest", k.seed);
        let pinned = PINNED_AT.map(|i| words[i]);
        assert_eq!(
            pinned, k.words,
            "{name} seed {}: words at {PINNED_AT:?}",
            k.seed
        );
        let mixed = mixed_stream(R::seed_from_u64(k.seed));
        assert_eq!(
            fnv1a(&mixed),
            k.digest,
            "{name} seed {}: mixed u32/u64 digest",
            k.seed
        );
    }
}

#[test]
fn chacha8_stream_is_pinned() {
    check::<ChaCha8Rng>(
        "ChaCha8",
        &[
            Known {
                seed: 0x1986_0106,
                digest: 0x6d49_15a0_70c4_52c7,
                words: [
                    0xaa8e_797d,
                    0x13c2_4d3d,
                    0x96ef_8ba5,
                    0x884b_5eeb,
                    0xebfe_be05,
                    0xa705_6d67,
                ],
            },
            Known {
                seed: 7,
                digest: 0x2c2a_22bb_953b_1008,
                words: [
                    0x5082_5212,
                    0xbdb5_1629,
                    0x5330_b601,
                    0xbd24_0eb6,
                    0x9920_7f0a,
                    0x78de_f687,
                ],
            },
        ],
    );
}

#[test]
fn chacha12_stream_is_pinned() {
    check::<ChaCha12Rng>(
        "ChaCha12",
        &[
            Known {
                seed: 0x1986_0106,
                digest: 0x89e6_9e1c_c0ba_c89f,
                words: [
                    0x325d_388f,
                    0x0365_670e,
                    0xbdee_3ec0,
                    0x1911_30ae,
                    0xdccb_42dd,
                    0x24bf_e747,
                ],
            },
            Known {
                seed: 7,
                digest: 0xcb3a_2e66_bee0_de94,
                words: [
                    0x3013_b8f1,
                    0x7c91_dd97,
                    0xe27f_f3a6,
                    0x3777_47e3,
                    0x1eb0_4853,
                    0xf572_b099,
                ],
            },
        ],
    );
}

#[test]
fn chacha20_stream_is_pinned() {
    check::<ChaCha20Rng>(
        "ChaCha20",
        &[
            Known {
                seed: 0x1986_0106,
                digest: 0x90dd_31d5_c017_4bfc,
                words: [
                    0x9a57_ecfa,
                    0xc601_c31a,
                    0x3966_444d,
                    0xb240_b7ae,
                    0x7f61_9923,
                    0x6c54_515c,
                ],
            },
            Known {
                seed: 7,
                digest: 0xb1b1_7c21_b88b_715b,
                words: [
                    0x5d94_2b5b,
                    0x3980_652a,
                    0xecd7_07a0,
                    0x2302_2844,
                    0x64f2_e55d,
                    0xb77b_2a6e,
                ],
            },
        ],
    );
}
