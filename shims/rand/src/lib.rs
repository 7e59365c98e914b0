//! A minimal, dependency-free stand-in for the parts of the `rand` crate
//! this workspace uses: `SmallRng`, `SeedableRng::seed_from_u64`,
//! `Rng::gen` and `Rng::gen_range` over integer and float ranges.
//!
//! The workspace builds fully offline, so external crates are replaced by
//! in-repo shims with the same module paths. The generator is
//! xoshiro256++ seeded through splitmix64 — the same family the real
//! `SmallRng` uses on 64-bit targets. Streams are deterministic per seed
//! (which the samplers and workload generators rely on) but are *not*
//! bit-identical to the real crate's, and none of this is
//! cryptographically secure.

use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next word of the stream.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 bits of the stream.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be drawn uniformly from an RNG — the shim's stand-in for
/// `Standard: Distribution<T>`.
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl Standard for u16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}
impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}
impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}
impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}
impl Standard for f64 {
    /// Uniform in [0, 1): 53 mantissa bits, the standard ldexp construction.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}
impl<A: Standard, B: Standard> Standard for (A, B) {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (A::sample(rng), B::sample(rng))
    }
}

/// Ranges a uniform value can be drawn from (`Range` and `RangeInclusive`
/// over the primitive numeric types).
pub trait SampleRange<T> {
    /// Draws a value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}
impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// User-facing convenience methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Draws a bool that is `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from seeds, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a deterministic function of
    /// `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic generator (xoshiro256++).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SmallRng {
        /// The four xoshiro256++ state words, for
        /// [`from_state`](Self::from_state) to continue the stream from.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// A generator continuing from `state`. `None` for the all-zero
        /// state, which xoshiro never reaches and never leaves.
        pub fn from_state(state: [u64; 4]) -> Option<Self> {
            (state != [0; 4]).then_some(Self { s: state })
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let va: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.gen()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn a_restored_state_continues_the_identical_stream() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..5 {
            let _: u64 = rng.gen();
        }
        let mut resumed = SmallRng::from_state(rng.state()).expect("a live state");
        let a: Vec<u64> = (0..16).map(|_| rng.gen()).collect();
        let b: Vec<u64> = (0..16).map(|_| resumed.gen()).collect();
        assert_eq!(a, b);
        assert!(SmallRng::from_state([0; 4]).is_none());
        assert!(SmallRng::from_state([0, 0, 0, 1]).is_some());
    }

    #[test]
    fn unit_floats_land_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        // Mean of 10k uniforms must be near 1/2.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let a = rng.gen_range(0..7usize);
            assert!(a < 7);
            let b = rng.gen_range(40..=100u32);
            assert!((40..=100).contains(&b));
            let c = rng.gen_range(-2.5..=2.5f64);
            assert!((-2.5..=2.5).contains(&c));
            let d = rng.gen_range(1024..=65535u16);
            assert!(d >= 1024);
            let e = rng.gen_range(-10..10i64);
            assert!((-10..10).contains(&e));
        }
    }

    #[test]
    fn all_range_values_are_reachable() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.gen_range(0..7usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
