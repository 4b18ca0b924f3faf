//! Fixed-hash tables for integer ids: [`IdHasher`], [`IdSet`], [`IdMap`].
//!
//! The simulation's hottest sets are keyed by `u64` newtypes — a pool's
//! transaction ids, the engine's cancelled timers — that no adversary
//! chooses, so std's keyed SipHash buys nothing there but cost. An
//! [`IdHasher`] is one multiply and a fold, with no random state: two
//! tables given the same operations hold the same layout and iterate in
//! the same order, in any process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes integer keys with a multiply by the 64-bit golden ratio and a
/// splitmix-style fold of the high half into the low half.
///
/// The fold is required: the table indexes buckets by the low bits, and a
/// multiply alone leaves those a function of the key's low bits only. A
/// client transaction id is `CLIENT_TX_BASE + i·2²⁰ + seq`, so without the
/// fold every client's `seq 0` would land in one bucket chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn mix(&mut self, word: u64) {
        let x = (self.0 ^ word).wrapping_mul(Self::K);
        self.0 = x ^ (x >> 32);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

/// A `HashSet` of integer ids hashed by [`IdHasher`].
pub type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

/// A `HashMap` keyed by integer ids hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxId;
    use std::hash::BuildHasher;

    fn hash(id: TxId) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(id)
    }

    /// The engine's cancelled-timer set and the pools rely on this: the
    /// table is a function of its operations, not of a per-instance seed.
    #[test]
    fn two_fresh_sets_iterate_alike() {
        let ids = (0..5_000u64).map(|i| TxId(i.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 7));
        let (mut a, mut b) = (IdSet::default(), IdSet::default());
        for id in ids {
            a.insert(id);
            b.insert(id);
        }
        for id in (0..5_000u64).step_by(3).map(TxId) {
            a.remove(&id);
            b.remove(&id);
        }
        assert!(a.iter().eq(b.iter()));
    }

    /// `client-steady`'s 20 000 ids: 10 000 clients × `seq` 0..2, laid out
    /// as `CLIENT_TX_BASE + i·2²⁰ + seq`. A table of 2¹⁵ buckets sees the
    /// low 15 bits; with a multiply alone they take two values.
    #[test]
    fn client_ids_spread_over_the_low_bits() {
        let ids = || {
            (0..10_000u64).flat_map(|i| (0..2u64).map(move |seq| (1 << 32) + i * (1 << 20) + seq))
        };
        let low: IdSet<u64> = ids().map(|id| hash(TxId(id)) & 0x7fff).collect();
        assert!(low.len() >= 12_000, "{} distinct low-bit values", low.len());

        let multiply_only: IdSet<u64> = ids()
            .map(|id| id.wrapping_mul(IdHasher::K) & 0x7fff)
            .collect();
        assert_eq!(multiply_only.len(), 2);
    }

    #[test]
    fn a_map_finds_what_it_holds() {
        let mut map: IdMap<TxId, u64> = IdMap::default();
        for i in 0..1_000 {
            map.insert(TxId(i * 7), i);
        }
        assert!((0..1_000).all(|i| map[&TxId(i * 7)] == i));
        assert!(!map.contains_key(&TxId(1)));
    }
}
