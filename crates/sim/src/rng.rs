//! Deterministic, splittable random-number streams.
//!
//! The paper averages each configuration over several independent runs
//! ("10 different random number seeds", §4). Reproducing that faithfully
//! requires RNG streams that are (a) deterministic across platforms and
//! crate versions, and (b) independently derivable per simulation component
//! (arrivals, type table, slack draws, IO draws, …) so that changing how
//! one component consumes randomness does not perturb the others.
//!
//! We therefore implement our own generator rather than relying on
//! `StdRng`'s unspecified algorithm: **xoshiro256++** seeded through
//! **SplitMix64**, the construction recommended by the xoshiro authors.
//! The generator implements [`rand::RngCore`] so it composes with the
//! `rand` API surface.

use rand::RngCore;

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
///
/// Used both for seeding xoshiro and for deriving labelled sub-streams.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256++ pseudo-random generator.
///
/// Period 2^256 − 1; passes BigCrush; 4×u64 of state. Deterministic given
/// the seed, independent of the `rand` crate's internals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Create a generator from a 64-bit seed, expanding it with SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // The all-zero state is invalid for xoshiro; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            Xoshiro256 { s: [1, 2, 3, 4] }
        } else {
            Xoshiro256 { s }
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl RngCore for Xoshiro256 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// A master seed from which independent component streams are derived by
/// label.
///
/// `StreamSeeder::new(run_seed).stream("arrivals")` always yields the same
/// generator for the same `(run_seed, label)` pair, and streams with
/// different labels are statistically independent (the label is hashed
/// into the SplitMix64 chain with FNV-1a).
#[derive(Debug, Clone, Copy)]
pub struct StreamSeeder {
    master: u64,
}

impl StreamSeeder {
    /// Create a seeder for one simulation run.
    pub fn new(master: u64) -> Self {
        StreamSeeder { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derive the deterministic stream for `label`.
    pub fn stream(&self, label: &str) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(self.master ^ fnv1a(label.as_bytes()))
    }
}

/// FNV-1a hash of a byte string (stable across platforms and versions).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values from the SplitMix64 reference implementation
        // seeded with 0.
        let mut state = 0u64;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut state), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut state), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn fill_bytes_matches_raw_stream() {
        let mut a = Xoshiro256::seed_from_u64(7);
        let mut b = Xoshiro256::seed_from_u64(7);
        let mut buf = [0u8; 20];
        a.fill_bytes(&mut buf);
        let w0 = b.next_raw().to_le_bytes();
        let w1 = b.next_raw().to_le_bytes();
        let w2 = b.next_raw().to_le_bytes();
        assert_eq!(&buf[0..8], &w0);
        assert_eq!(&buf[8..16], &w1);
        assert_eq!(&buf[16..20], &w2[..4]);
    }

    #[test]
    fn labelled_streams_are_stable_and_distinct() {
        let seeder = StreamSeeder::new(123);
        let mut s1 = seeder.stream("arrivals");
        let mut s1b = seeder.stream("arrivals");
        let mut s2 = seeder.stream("slack");
        assert_eq!(s1.next_raw(), s1b.next_raw());
        // Distinct labels must give distinct streams.
        let mut s1c = seeder.stream("arrivals");
        assert_ne!(s1c.next_raw(), s2.next_raw());
    }

    #[test]
    fn next_u32_uses_high_bits() {
        let mut a = Xoshiro256::seed_from_u64(5);
        let mut b = Xoshiro256::seed_from_u64(5);
        assert_eq!(a.next_u32() as u64, b.next_raw() >> 32);
    }
}
