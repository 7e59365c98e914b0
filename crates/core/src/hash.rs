//! Small, fast, seedable 64-bit hashing used by the sketches in this crate.
//!
//! The sketches ([`crate::distinct`], and the group tables in `fd-engine`)
//! need a hash with good avalanche behaviour that maps keys to
//! pseudo-uniform 64-bit values. We
//! implement the well-known `splitmix64` finalizer (Steele, Lea, Flood 2014)
//! rather than pulling an external hashing crate.

/// The splitmix64 finalizer: a cheap bijective mixer on `u64` with full
/// avalanche (every input bit flips every output bit with probability ≈ ½).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded 64-bit hash function over `u64` keys.
///
/// Different seeds give (empirically) independent hash functions, which is
/// what the KMV distinct sketches require.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededHash {
    seed: u64,
}

crate::codec_struct!(SeededHash { seed: u64 });

impl SeededHash {
    /// Creates a hash function for the given seed.
    pub fn new(seed: u64) -> Self {
        // Pre-mix the seed so that consecutive small seeds (0, 1, 2, …)
        // still yield unrelated hash functions.
        Self {
            seed: mix64(seed ^ 0xA076_1D64_78BD_642F),
        }
    }

    /// Hashes a key to a pseudo-uniform 64-bit value.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        mix64(key ^ self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), 42);
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn mix64_avalanche_single_bit() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = mix64(0x1234_5678_9ABC_DEF0);
        for bit in 0..64 {
            let flipped = mix64(0x1234_5678_9ABC_DEF0 ^ (1u64 << bit));
            let diff = (base ^ flipped).count_ones();
            assert!(
                (16..=48).contains(&diff),
                "bit {bit}: only {diff} bits flipped"
            );
        }
    }

    #[test]
    fn seeded_hashes_differ_by_seed() {
        let h1 = SeededHash::new(1);
        let h2 = SeededHash::new(2);
        let collisions = (0..1000u64).filter(|&k| h1.hash(k) == h2.hash(k)).count();
        assert_eq!(collisions, 0);
    }
}
