//! The hasher of every fingerprint-keyed map on the solve path.
//!
//! Those maps — the registry's per-structure series, the adaptive layer's
//! telemetry shards and structure map — are keyed by pattern
//! fingerprints, which are already 128-bit hashes of the structure. The
//! standard library's SipHash-1-3 runs every word of such a key through
//! its rounds again; here each word costs one 64 × 64 → 128-bit multiply
//! folded back to 64 bits.
//!
//! The state starts from a seed drawn once per process from
//! [`RandomState`], so which keys share a bucket differs run to run and a
//! collision set cannot be precomputed offline.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Odd 64-bit multiplier (the golden-ratio constant): full-period, and
/// every input bit reaches both halves of the product.
const FOLD: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().build_hasher().finish())
}

/// One multiply-fold per hashed word (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct FpHasher {
    state: u64,
}

impl Hasher for FpHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = fold_mul(self.state ^ word, FOLD);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Builds [`FpHasher`]s from the per-process seed.
#[derive(Debug, Clone, Copy)]
pub struct FpBuildHasher {
    seed: u64,
}

impl Default for FpBuildHasher {
    fn default() -> Self {
        Self {
            seed: process_seed(),
        }
    }
}

impl BuildHasher for FpBuildHasher {
    type Hasher = FpHasher;

    #[inline]
    fn build_hasher(&self) -> FpHasher {
        FpHasher { state: self.seed }
    }
}

/// A map keyed by (something containing) a pattern fingerprint.
pub type FpMap<K, V> = HashMap<K, V, FpBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FpId;

    #[test]
    fn seeded_once_per_process_and_deterministic_within_it() {
        let (a, b) = (FpBuildHasher::default(), FpBuildHasher::default());
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.hash_one(FpId(1, 2)), b.hash_one(FpId(1, 2)));
        assert_ne!(a.hash_one(FpId(1, 2)), a.hash_one(FpId(2, 1)));
    }

    #[test]
    fn small_keys_spread_over_the_low_bits() {
        // Bucket index is the low bits: 1024 consecutive small keys must
        // not pile into a few of 256 buckets.
        let build = FpBuildHasher::default();
        let mut buckets = [0u32; 256];
        for i in 0..1024u64 {
            buckets[(build.hash_one(FpId(i, 0)) & 255) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n < 24), "{buckets:?}");
    }

    #[test]
    fn byte_writes_fold_in_word_chunks() {
        let build = FpBuildHasher::default();
        let mut bytes = build.build_hasher();
        bytes.write(&7u64.to_le_bytes());
        let mut word = build.build_hasher();
        word.write_u64(7);
        assert_eq!(bytes.finish(), word.finish());
    }
}
