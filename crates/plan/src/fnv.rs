//! FNV-1a, one 64-bit word per step, over four independent lanes — the one
//! hash this crate defines. The fingerprint's two streams and the store
//! checksum both run on it.
//!
//! One FNV chain is latency-bound: every word waits on the previous word's
//! multiply. Four lanes that absorb disjoint words are four independent
//! chains the CPU overlaps, and at the end they fold into one value with
//! the same step. Each step — xor, then multiply by the odd FNV prime — is
//! a bijection of the lane state, and the fold is a bijection in each
//! lane, so changing any one absorbed word changes the result.

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One FNV-1a step over a whole word.
#[inline]
pub(crate) fn step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Four independent FNV chains; the caller decides which lane a word goes to.
#[derive(Clone, Copy)]
pub(crate) struct Lanes([u64; 4]);

impl Lanes {
    pub(crate) fn seeded(seed: u64) -> Self {
        Self([seed; 4])
    }

    #[inline]
    pub(crate) fn absorb(&mut self, lane: usize, word: u64) {
        self.0[lane] = step(self.0[lane], word);
    }

    /// Folds the lanes, in lane order, into `h`.
    pub(crate) fn fold(self, h: u64) -> u64 {
        self.0.into_iter().fold(h, step)
    }
}

/// The store checksum: the bytes as little-endian words dealt round-robin
/// over the lanes, the last word zero-padded, folded into the byte length
/// so a zero-padded tail cannot alias a blob that really ends in zeros.
/// Not cryptographic (the threat model is bit rot and truncation, not
/// adversaries), but any single-bit flip changes exactly one word and so,
/// by the bijections above, the checksum.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = Lanes::seeded(FNV_OFFSET);
    let mut quads = bytes.chunks_exact(32);
    for quad in &mut quads {
        for (lane, word) in quad.chunks_exact(8).enumerate() {
            lanes.absorb(lane, u64::from_le_bytes(word.try_into().unwrap()));
        }
    }
    for (lane, tail) in quads.remainder().chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        lanes.absorb(lane, u64::from_le_bytes(word));
    }
    lanes.fold(step(FNV_OFFSET, bytes.len() as u64))
}
