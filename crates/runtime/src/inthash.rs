//! The integer-key hasher behind the runtime's internal maps.
//!
//! The standard `HashMap` hashes with SipHash-1-3, whose per-key setup
//! is paid on every probe — several times per call on the paths that
//! key maps by WID (working sets, channel cursors, authz grants),
//! tenant id (the admission ledger) or lane index (budget moves).
//! SipHash exists to resist keys an attacker picks so they collide.
//! None of these keys come from outside the program: WIDs are minted by
//! the world table's monotonic allocator, lanes and tenant ids are
//! small integers the runtime or its configuration assigns. So the maps
//! use [`IntHasher`] instead: each integer written is folded into the
//! state through the SplitMix64 finalizer ([`machine::rng::mix64`]),
//! one multiply-xorshift pipeline per word. Keep the default hasher for
//! any map whose keys come from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use machine::rng::mix64;

/// SplitMix64-finalizer hasher for integer keys (and tuples of them).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IntHasher {
    state: u64,
}

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        // The golden-ratio increment SplitMix64 steps its state by keeps
        // a zero key from hashing to zero.
        self.state = mix64(self.state ^ n.wrapping_add(0x9E37_79B9_7F4A_7C15));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for [`IntHasher`].
pub(crate) type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed by runtime-assigned integers.
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildIntHasher>;

/// A `HashSet` of runtime-assigned integers.
pub(crate) type IntSet<K> = HashSet<K, BuildIntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildIntHasher::default().hash_one(value)
    }

    #[test]
    fn distinct_small_keys_and_tuples_hash_apart() {
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..64u64 {
            assert!(seen.insert(hash_of(a)), "u64 {a} collided");
            for b in 0..64u64 {
                assert!(seen.insert(hash_of((a, b + 1_000))), "({a}, {b}) collided");
            }
        }
        assert_ne!(hash_of(0u64), 0);
        // Width does not change a key's hash: a u32 tenant id and the
        // same value as u64 land alike.
        assert_eq!(hash_of(7u32), hash_of(7u64));
        assert_eq!(hash_of(7usize), hash_of(7u64));
    }

    #[test]
    fn maps_behave_like_the_default_ones() {
        let mut m: IntMap<(u64, u64), u64> = IntMap::default();
        for i in 0..1_000u64 {
            *m.entry((i % 10, i % 7)).or_insert(0) += 1;
        }
        assert_eq!(m.len(), 70);
        assert_eq!(m.values().sum::<u64>(), 1_000);
        let s: IntSet<u64> = (0..100).collect();
        assert!(s.contains(&99) && !s.contains(&100));
    }
}
