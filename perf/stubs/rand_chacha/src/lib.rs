//! Offline stand-in for the `rand_chacha` 0.3 crate (see
//! `perf/README.md`, "Offline build"): the ChaCha stream cipher run as a
//! generator, with a 64-bit block counter and a zero stream id, emitting
//! each 64-byte block as sixteen little-endian words in order.

use rand::{RngCore, SeedableRng};

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A ChaCha generator with `ROUNDS` rounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaChaRng<const ROUNDS: usize> {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    index: usize,
}

pub type ChaCha8Rng = ChaChaRng<8>;
pub type ChaCha20Rng = ChaChaRng<20>;

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

impl<const ROUNDS: usize> ChaChaRng<ROUNDS> {
    fn refill(&mut self) {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&CONSTANTS);
        input[4..12].copy_from_slice(&self.key);
        input[12] = self.counter as u32;
        input[13] = (self.counter >> 32) as u32;
        let mut s = input;
        for _ in 0..ROUNDS / 2 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (out, word) in s.iter_mut().zip(input) {
            *out = out.wrapping_add(word);
        }
        self.block = s;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

impl<const ROUNDS: usize> SeedableRng for ChaChaRng<ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        ChaChaRng {
            key,
            counter: 0,
            block: [0; 16],
            index: 16,
        }
    }
}

impl<const ROUNDS: usize> RngCore for ChaChaRng<ROUNDS> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let word = self.block[self.index];
        self.index += 1;
        word
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        hi << 32 | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.3.2 block-function vector, adapted: with 20 rounds, the
    /// RFC key and an all-zero counter/nonce the first word is fixed.
    #[test]
    fn chacha20_zero_key_first_block_matches_reference() {
        // Well-known keystream of ChaCha20 with zero key, zero nonce,
        // counter 0: 76 b8 e0 ad a0 f1 3d 90 ...
        let mut rng = ChaCha20Rng::from_seed([0; 32]);
        assert_eq!(rng.next_u32(), u32::from_le_bytes([0x76, 0xb8, 0xe0, 0xad]));
        assert_eq!(rng.next_u32(), u32::from_le_bytes([0xa0, 0xf1, 0x3d, 0x90]));
    }

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let mut c = ChaCha8Rng::seed_from_u64(8);
        let xs: Vec<u64> = (0..40).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..40).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..40).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
