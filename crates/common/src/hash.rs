//! FxHash-style hashing.
//!
//! The workloads in this workspace hash enormous numbers of small keys
//! (dense `u32` ids, short token strings). The standard library's SipHash is
//! collision-attack resistant but measurably slower for such keys; the Rust
//! compiler's Fx algorithm (a multiply-and-rotate mix) is the usual
//! replacement. We implement it here rather than pulling in `rustc-hash` so
//! the workspace stays within its sanctioned dependency set.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash (64-bit variant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast, non-cryptographic hasher compatible in spirit with `rustc-hash`.
///
/// Not DoS-resistant — do not expose to untrusted key distributions. Within
/// this workspace all hashed keys are internally generated ids and tokens.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8 bytes at a time, then the tail. `chunks_exact` lets the
        // compiler elide bounds checks in the hot loop.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            self.add_to_hash(word);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = 0u64;
            for (i, &b) in tail.iter().enumerate() {
                word |= u64::from(b) << (8 * i);
            }
            // Mix the tail length in so "ab" and "ab\0" differ.
            self.add_to_hash(word ^ (tail.len() as u64) << 56);
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
}

/// `BuildHasher` for [`FxHasher`]; deterministic (no random seeding), which
/// also makes map iteration order reproducible within a build.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed by the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed by the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash a single value with the Fx algorithm, for contexts that need a raw
/// `u64` fingerprint (e.g. the interner's hash-to-bucket map).
#[inline]
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// SplitMix64: the deterministic hash behind the 429 `Retry-After` spread.
/// Statistically solid for seeds that differ in one bit, trivially
/// reproducible in tests, and free of wall-clock state.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(fx_hash("population"), fx_hash("population"));
        assert_eq!(fx_hash(&42u32), fx_hash(&42u32));
    }

    #[test]
    fn distinguishes_close_keys() {
        assert_ne!(fx_hash("population"), fx_hash("populatioN"));
        assert_ne!(fx_hash(&1u64), fx_hash(&2u64));
        // Tail-length mixing: a trailing NUL must change the hash.
        assert_ne!(fx_hash(b"ab".as_slice()), fx_hash(b"ab\0".as_slice()));
    }

    #[test]
    fn map_and_set_work() {
        let mut map: FxHashMap<u32, &str> = FxHashMap::default();
        map.insert(1, "one");
        map.insert(2, "two");
        assert_eq!(map.get(&1), Some(&"one"));

        let mut set: FxHashSet<&str> = FxHashSet::default();
        set.insert("a");
        assert!(set.contains("a"));
        assert!(!set.contains("b"));
    }

    #[test]
    fn long_and_short_strings_hash_differently() {
        let long = "a".repeat(100);
        let longer = "a".repeat(101);
        assert_ne!(fx_hash(long.as_str()), fx_hash(longer.as_str()));
    }

    #[test]
    fn splitmix_is_stable_and_spreads_adjacent_seeds() {
        assert_eq!(splitmix64(0), splitmix64(0));
        // Adjacent seeds land far apart (the property the Retry-After
        // spread relies on).
        let outputs: std::collections::BTreeSet<u64> = (0..64).map(splitmix64).collect();
        assert_eq!(outputs.len(), 64, "no collisions across adjacent seeds");
        let low_bits: std::collections::BTreeSet<u64> =
            (0..64).map(|s| splitmix64(s) % 8).collect();
        assert!(low_bits.len() >= 6, "low bits vary: {low_bits:?}");
    }
}
