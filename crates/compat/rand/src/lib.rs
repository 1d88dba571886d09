//! Offline, API-compatible subset of the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the tiny slice of `rand`'s surface that `starj-noise` consumes:
//! [`rngs::StdRng`], [`RngCore`], [`SeedableRng`], the [`Rng`] extension
//! trait with `gen`/`gen_range`, and [`Error`].
//!
//! `StdRng` here is **xoshiro256\*\*** (Blackman & Vigna) seeded from 32
//! bytes — not the ChaCha12 generator of the real crate, but a solid
//! general-purpose PRNG that is deterministic for a given seed, which is the
//! property every consumer in this workspace actually relies on.

use std::ops::{Range, RangeInclusive};

/// Error type for fallible RNG operations. The generators in this crate are
/// infallible, so this is never constructed outside `try_fill_bytes`'s `Ok`.
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rng error")
    }
}

impl std::error::Error for Error {}

/// Core trait every random generator implements: raw integer and byte draws.
pub trait RngCore {
    /// Next uniform 32-bit value.
    fn next_u32(&mut self) -> u32;
    /// Next uniform 64-bit value.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fallible variant of [`RngCore::fill_bytes`]; never fails here.
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// A generator constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The seed array type.
    type Seed;
    /// Builds the generator deterministically from `seed`.
    fn from_seed(seed: Self::Seed) -> Self;
}

/// Types samplable uniformly from a generator's raw output (the subset of
/// `rand`'s `Standard` distribution used by this workspace).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform on [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Draws a uniform value below `bound` via Lemire-style rejection so every
/// value in `[0, bound)` is exactly equally likely.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Rejection zone keeps the draw unbiased.
    let zone = u64::MAX - u64::MAX.wrapping_rem(bound);
    loop {
        let v = rng.next_u64();
        if v < zone || zone == 0 {
            return v % bound;
        }
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<u64> for Range<u64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + uniform_below(rng, self.end - self.start)
    }
}

impl SampleRange<u32> for Range<u32> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u32 {
        assert!(self.start < self.end, "empty range");
        self.start + uniform_below(rng, u64::from(self.end - self.start)) as u32
    }
}

impl SampleRange<usize> for Range<usize> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + uniform_below(rng, (self.end - self.start) as u64) as usize
    }
}

impl SampleRange<i64> for Range<i64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> i64 {
        assert!(self.start < self.end, "empty range");
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add(uniform_below(rng, span) as i64)
    }
}

impl SampleRange<i64> for RangeInclusive<i64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> i64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        if lo == i64::MIN && hi == i64::MAX {
            return rng.next_u64() as i64;
        }
        let span = hi.wrapping_sub(lo) as u64 + 1;
        lo.wrapping_add(uniform_below(rng, span) as i64)
    }
}

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// Extension trait with the ergonomic draws (`gen`, `gen_range`) layered on
/// top of [`RngCore`]; blanket-implemented for every generator.
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard distribution.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a uniform value from `range`.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic general-purpose generator: **xoshiro256\*\*** seeded
    /// from 32 bytes. Stands in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn next(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // An all-zero state is a fixed point of xoshiro; remix through
            // SplitMix64 and ensure at least one word is non-zero.
            let mut sm = s[0] ^ s[1] ^ s[2] ^ s[3] ^ 0x9E37_79B9_7F4A_7C15;
            for w in &mut s {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm ^ *w;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *w = z ^ (z >> 31);
            }
            if s == [0; 4] {
                s[0] = 0xDEAD_BEEF_CAFE_F00D;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.next()
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            let mut chunks = dest.chunks_exact_mut(8);
            for chunk in &mut chunks {
                chunk.copy_from_slice(&self.next().to_le_bytes());
            }
            let rem = chunks.into_remainder();
            if !rem.is_empty() {
                let bytes = self.next().to_le_bytes();
                rem.copy_from_slice(&bytes[..rem.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::from_seed([7; 32]);
        let mut b = StdRng::from_seed([7; 32]);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::from_seed([1; 32]);
        let mut b = StdRng::from_seed([2; 32]);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut rng = StdRng::from_seed([3; 32]);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::from_seed([4; 32]);
        for _ in 0..10_000 {
            assert!(rng.gen_range(0u64..17) < 17);
            assert!(rng.gen_range(3usize..9) >= 3);
            let v = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&v));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = StdRng::from_seed([5; 32]);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_bytes_handles_odd_lengths() {
        let mut rng = StdRng::from_seed([6; 32]);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        assert!(rng.try_fill_bytes(&mut buf).is_ok());
    }
}
