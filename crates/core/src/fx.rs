//! A small, fast, deterministic hasher for keys the program builds itself.
//!
//! The model checker hashes millions of internally generated keys per
//! second: packed state records, interned local states, control-automaton
//! locations. SipHash (the standard library's default) defends hash maps
//! against keys crafted by an adversary, which none of these keys can be,
//! and costs several times more per word. [`FxHasher`] is the
//! multiply-rotate hash of the Firefox and rustc code bases — one rotate,
//! xor and multiply per word — plus a final avalanche step.
//!
//! The avalanche matters because [`FxHasher`] digests also feed tables
//! that keep only the *low* bits of a digest (the verifier's open-addressed
//! visited index masks them). A bare multiply carries entropy upwards only,
//! so records that differ in their high bytes alone would all land in one
//! probe run; the finalizer (MurmurHash3's `fmix64`) spreads every input
//! bit over every output bit.
//!
//! Output is identical on every platform and in every run: integers are
//! mixed by value (not by native byte order), byte strings are read
//! little-endian, and `usize` is widened to 64 bits. Use it only where
//! every hit is confirmed by an equality test, never for keys read from
//! outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's `FxHasher` (an odd 64-bit constant with
/// well-mixed bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The starting state: nonzero, so leading zero words still move it
/// (from zero, `add(0)` would leave the state at zero).
const START: u64 = 0x243f_6a88_85a3_08d3;

/// A deterministic multiply-rotate hasher with a final avalanche step
/// (see the [module docs](self)).
#[derive(Clone, Copy, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl Default for FxHasher {
    fn default() -> Self {
        FxHasher { hash: START }
    }
}

/// A [`std::hash::BuildHasher`] producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`HashMap`] keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;


impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut rest = chunks.remainder();
        if rest.len() >= 4 {
            self.add(u64::from(u32::from_le_bytes(
                rest[..4].try_into().expect("4 bytes"),
            )));
            rest = &rest[4..];
        }
        if rest.len() >= 2 {
            self.add(u64::from(u16::from_le_bytes(
                rest[..2].try_into().expect("2 bytes"),
            )));
            rest = &rest[2..];
        }
        if let Some(&b) = rest.first() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// MurmurHash3's `fmix64` over the running state.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn bytes(b: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(b);
        h.finish()
    }

    #[test]
    fn output_is_pinned() {
        // Fixed values, cross-checked against an independent
        // implementation of the same algorithm: they must not change
        // between runs, platforms or toolchains. (Tuples of integers
        // only: how `str` feeds a hasher is a detail of the standard
        // library.)
        assert_eq!(bytes(&[]), 0x7acd_bb98_b134_4213);
        assert_eq!(bytes(b"cfc"), 0x356f_85d5_561b_bed2);
        assert_eq!(bytes(&[0u8; 8]), 0x0f84_4373_0f99_d79a);
        assert_eq!(bytes(&(0u8..15).collect::<Vec<_>>()), 0xb13d_529d_c7f4_80c7);
        assert_eq!(
            FxBuildHasher::default().hash_one(42u64),
            0x5e18_397c_240a_21ca
        );
        assert_eq!(
            FxBuildHasher::default().hash_one((7u32, 9u8, u64::MAX)),
            0x2447_4183_e8fc_3386
        );
    }

    #[test]
    fn integers_hash_by_value_and_usize_as_u64() {
        let one = |f: &dyn Fn(&mut FxHasher)| {
            let mut h = FxHasher::default();
            f(&mut h);
            h.finish()
        };
        assert_eq!(one(&|h| h.write_usize(9)), one(&|h| h.write_u64(9)));
        assert_eq!(one(&|h| h.write_u32(9)), one(&|h| h.write_u64(9)));
        assert_eq!(one(&|h| h.write_u8(9)), one(&|h| h.write_u16(9)));
    }

    #[test]
    fn trailing_zero_bytes_change_the_digest() {
        assert_ne!(bytes(b"ab"), bytes(b"ab\0"));
        assert_ne!(bytes(&[1; 8]), bytes(&[1; 9]));
        assert_ne!(bytes(&[]), bytes(&[0]));
    }

    #[test]
    fn high_bits_reach_low_bits() {
        // Inputs differing only in their top byte must differ in their
        // low 16 bits almost always: this is what the finalizer adds.
        let low: HashSet<u64> = (0..256u64)
            .map(|i| {
                let mut h = FxHasher::default();
                (i << 56).hash(&mut h);
                h.finish() & 0xffff
            })
            .collect();
        assert!(low.len() > 250, "only {} distinct low halves", low.len());
    }
}
