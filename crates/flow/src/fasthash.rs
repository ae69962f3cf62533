//! Dependency-free FxHash-style hasher for hot-path maps.
//!
//! The std `HashMap` defaults to SipHash-1-3, a keyed hash chosen to resist
//! HashDoS from attacker-controlled keys. Flow keys in this pipeline are
//! derived from packet 5-tuples, which *are* untrusted input — so swapping
//! the hasher needs a safety argument, not just a benchmark:
//!
//! 1. `ConnTable` is capped by `max_conns` and evicts oldest-activity
//!    connections, so an adversary who engineers colliding 5-tuples can at
//!    worst degrade one bounded table, not grow memory or stall the run.
//! 2. The per-connection handler state is keyed by the *dense* `ConnIndex`
//!    (a slab index handed out sequentially), not by anything an attacker
//!    picks, so collision quality there is moot.
//! 3. `tests/tests/hash_table_props.rs` pins the fx-hash `ConnTable` to a
//!    std-SipHash one (`ConnTable::with_std_hasher`) callback for callback
//!    under eviction pressure, and the pipeline's output is a function of
//!    those callbacks alone.
//!
//! The mixing function is the classic Firefox/rustc multiply-rotate: fold
//! each 8-byte word into the state with `rotate_left(5) ^ word`, then
//! multiply by a 64-bit constant with good avalanche behaviour. It is not
//! cryptographic and does not pretend to be.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the rustc/Firefox FxHash lineage (derived from the
/// golden ratio, chosen for avalanche quality under `wrapping_mul`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for trusted-shape keys (see module docs
/// for why flow keys qualify despite being derived from untrusted packets).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = 0u64;
            for (i, &b) in rem.iter().enumerate() {
                word |= u64::from(b) << (8 * i);
            }
            // Fold the length in so "ab" | "" and "a" | "b" differ.
            self.add_to_hash(word ^ (rem.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; the unit-struct default state makes
/// `HashMap::with_hasher(FxBuildHasher::default())` zero-cost.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` alias using [`FxHasher`]. Construct with
/// [`fx_map_with_capacity`] (or `FxHashMap::default()`) — `HashMap::new()`
/// is not available for non-`RandomState` hashers, which conveniently
/// matches the ent-lint E002 hot-map rule.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Pre-sized [`FxHashMap`] constructor; use dataset hints so hot maps never
/// rehash mid-trace.
#[inline]
#[must_use]
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_bytes(b: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(b);
        h.finish()
    }

    #[test]
    fn deterministic_across_builders() {
        let b1 = FxBuildHasher::default();
        let b2 = FxBuildHasher::default();
        assert_eq!(b1.hash_one(0xdead_beefu64), b2.hash_one(0xdead_beefu64));
        assert_eq!(b1.hash_one("flow"), b2.hash_one("flow"));
    }

    #[test]
    fn tail_length_disambiguates() {
        // Same concatenated bytes, different split points, must not be
        // forced equal by zero-padding alone.
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn integer_writes_spread() {
        let b = FxBuildHasher::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..1000 {
            seen.insert(b.hash_one(i));
        }
        assert_eq!(seen.len(), 1000, "trivial collisions on small integers");
    }

    #[test]
    fn map_alias_round_trips() {
        let mut m: FxHashMap<u32, u32> = fx_map_with_capacity(16);
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        for i in 0..100 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
    }
}
