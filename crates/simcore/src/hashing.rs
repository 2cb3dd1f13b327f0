//! A fast, fully deterministic hasher for simulation-internal maps.
//!
//! `std`'s default `RandomState` seeds SipHash from process entropy:
//! strong against collision flooding, but (a) needlessly slow for the
//! tiny keys the simulator hashes millions of times per run (MAC
//! addresses, ports, AP indices), and (b) *per-process* random — two
//! processes iterate the "same" map in different orders. No simulation
//! result may depend on iteration order anyway, but a fixed-seed hasher
//! turns that rule from a convention into a property of the build:
//! every run of every binary hashes, and therefore iterates,
//! identically.
//!
//! The mix function is the multiply-xor scheme popularised by the
//! Firefox/rustc "FxHash": fold each word into the state with a rotate,
//! xor, and multiply by a constant derived from the golden ratio. Keys
//! here are trusted simulation state, not attacker input, so HashDoS
//! resistance is not required.

// This is the definition site of the deterministic aliases themselves:
// the std types are re-parameterised with a fixed-seed hasher, never
// used with RandomState.
#![allow(
    clippy::disallowed_types,
    reason = "defines FxHashMap/FxHashSet over the std types with a fixed hasher"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier: 2^64 / φ, forced odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The deterministic multiply-xor hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold in the length so "ab" + "c" and "a" + "bc" differ.
            self.add_word(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, fixed seed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with the deterministic fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with the deterministic fast hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"spider"), hash_of(&"spider"));
        assert_eq!(
            hash_of(&[1u8, 2, 3, 4, 5, 6]),
            hash_of(&[1u8, 2, 3, 4, 5, 6])
        );
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        assert_ne!(hash_of(&[0u8; 6]), hash_of(&[0u8, 0, 0, 0, 0, 1]));
        // Length folding keeps different splits of the same bytes apart.
        assert_ne!(hash_of(&&b"ab"[..]), hash_of(&&b"ab\0"[..]));
    }

    #[test]
    fn maps_work_end_to_end() {
        let mut m: FxHashMap<u16, u32> = FxHashMap::default();
        for i in 0..1000u16 {
            m.insert(i, u32::from(i) * 7);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&6993));
        let s: FxHashSet<u16> = m.keys().copied().collect();
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn iteration_order_is_stable_for_equal_content() {
        let build = |order: &[u16]| -> Vec<u16> {
            let mut m: FxHashMap<u16, ()> = FxHashMap::default();
            for &k in order {
                m.insert(k, ());
            }
            m.keys().copied().collect()
        };
        // Same content inserted in the same order iterates identically —
        // the property seeded reruns rely on.
        assert_eq!(build(&[3, 1, 2]), build(&[3, 1, 2]));
    }
}
