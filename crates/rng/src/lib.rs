//! # ent-rng — vendored deterministic PRNG
//!
//! A minimal, dependency-free random-number module exposing the subset of
//! the `rand` crate's API that this workspace uses (`Rng`, `RngExt`,
//! `SeedableRng`, `rngs::StdRng`). The workspace aliases it as `rand` so
//! generator code keeps its idiomatic imports while the build stays fully
//! offline: the crates.io registry is not reachable in the environments
//! this repository targets, and trace generation only needs a fast,
//! seedable, *reproducible* generator — not cryptographic strength.
//!
//! The core generator is xoshiro256++ (Blackman & Vigna), seeded through
//! splitmix64 exactly as the reference implementation recommends, so a
//! given seed produces one fixed packet stream forever — the property the
//! reproduction pipeline and the fault-injection harness both rely on.
//!
//! ```
//! use ent_rng::rngs::StdRng;
//! use ent_rng::{RngExt, SeedableRng};
//!
//! let mut a = StdRng::seed_from_u64(7);
//! let mut b = StdRng::seed_from_u64(7);
//! assert_eq!(a.random::<u32>(), b.random::<u32>());
//! let x: f64 = a.random();
//! assert!((0.0..1.0).contains(&x));
//! assert!(a.random_range(10..20u64) >= 10);
//! ```

use core::ops::{Range, RangeInclusive};

/// A source of random 64-bit words. The one method every generator must
/// provide; everything else derives from it via [`RngExt`].
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be produced uniformly from a random word stream.
pub trait FromRandom: Sized {
    /// Draw one uniformly distributed value.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! from_random_int {
    ($($t:ty),*) => {$(
        impl FromRandom for $t {
            fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
from_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRandom for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl FromRandom for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRandom for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Range types usable with [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty, matching `rand`'s contract.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                // Lemire-style widening multiply: maps the 64-bit word onto
                // [0, span) with negligible bias for the spans we use.
                let off = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start.wrapping_add(off as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                let off = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                start.wrapping_add(off as $t)
            }
        }
    )*};
}
sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::from_rng(rng) * (self.end - self.start)
    }
}

/// Convenience methods over any [`Rng`], mirroring `rand::Rng`.
pub trait RngExt: Rng {
    /// Draw a uniformly distributed value of type `T`.
    fn random<T: FromRandom>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Draw a value uniformly from `range`. Panics on an empty range.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Construction of seeded generators, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator whose entire output is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generator implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    ///
    /// 256 bits of state, period 2^256 − 1, passes BigCrush; ~1 ns per
    /// draw. Not cryptographically secure — fine for synthetic traffic and
    /// fault injection, which want speed and reproducibility.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            // splitmix64 expansion of the seed, per the xoshiro authors:
            // guarantees a non-zero, well-mixed initial state even for
            // adversarially similar seeds (0, 1, 2, ...).
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
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
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} not ~0.5");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(2);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.random_range(5..8usize);
            assert!((5..8).contains(&v));
            seen_lo |= v == 5;
            seen_hi |= v == 7;
            let w = r.random_range(0..=3u32);
            assert!(w <= 3);
            let x = r.random_range(1.0..2.0f64);
            assert!((1.0..2.0).contains(&x));
            let big = r.random_range(0..u64::MAX);
            assert!(big < u64::MAX);
        }
        assert!(seen_lo && seen_hi, "range endpoints never drawn");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(3);
        let _ = r.random_range(5..5u32);
    }

    #[test]
    fn bool_and_int_draws() {
        let mut r = StdRng::seed_from_u64(4);
        let mut trues = 0;
        for _ in 0..10_000 {
            if r.random::<bool>() {
                trues += 1;
            }
            let _: u16 = r.random();
            let _: i64 = r.random();
        }
        assert!((4_000..6_000).contains(&trues));
        assert!(!r.random_bool(0.0));
        assert!(r.random_bool(1.0));
    }

    #[test]
    fn works_through_dyn_and_ref() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.next_u64()
        }
        let mut r = StdRng::seed_from_u64(5);
        let _ = draw(&mut r);
        let rref: &mut StdRng = &mut r;
        let _ = rref.next_u64();
    }
}
