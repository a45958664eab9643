//! Deterministic hash containers.
//!
//! `std::collections::HashMap` seeds its hasher randomly per process, which
//! would make iteration order — and therefore anything derived from it —
//! nondeterministic. All simulator state uses these fixed-seed FxHash-style
//! containers instead, so that every run of an experiment is bit-identical.

#![expect(
    clippy::disallowed_types,
    reason = "these are std's containers with a fixed-seed hasher, the replacement the rule names"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiplicative hasher with a fixed seed.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `HashMap` with a deterministic hasher.
pub type DetMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with a deterministic hasher.
pub type DetSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_keys_same_hash() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: DetMap<u64, &str> = DetMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&2), Some(&"two"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn set_membership() {
        let mut s: DetSet<u32> = DetSet::default();
        s.insert(7);
        assert!(s.contains(&7));
        assert!(!s.contains(&8));
    }
}
