//! A fast, deterministic hasher for the hash-consing tables.
//!
//! `std`'s default SipHash resists collision flooding by untrusted
//! keys, which node-id pairs never are, and costs several times more per
//! lookup than a multiply. [`FxHasher`] folds each word into the state
//! with an add and a multiply by a large odd constant (the scheme of
//! rustc's `FxHasher`), then rotates the product's well-mixed high bits
//! down to where the table takes its bucket index. It has no seed, so it
//! hashes the same on every run and platform — though the tables it
//! serves are only ever looked up, never iterated, so their contents
//! never depend on the hash anyway.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Multiply-rotate hasher for small integer keys. See the module docs.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(key)
    }

    #[test]
    fn hashes_are_fixed_and_spread_pairs() {
        // No seed: the same key hashes the same in every process.
        assert_eq!(hash_of((3u32, 5u32)), hash_of((3u32, 5u32)));
        // Operand order matters, and neighbouring node pairs land in
        // distinct buckets of a 4096-slot table.
        assert_ne!(hash_of((3u32, 5u32)), hash_of((5u32, 3u32)));
        let buckets: std::collections::HashSet<u64> = (0..64u32)
            .flat_map(|a| (0..64u32).map(move |b| hash_of((2 * a, 2 * b + 1)) & 0xfff))
            .collect();
        assert!(buckets.len() > 2500, "{} of 4096 buckets", buckets.len());
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), i);
        }
        assert!((0..1000u32).all(|i| m[&(i, i + 1)] == i));
        assert_eq!(m.get(&(1, 0)), None);
    }
}
