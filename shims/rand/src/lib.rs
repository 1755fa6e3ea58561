//! Minimal in-tree stand-in for the [`rand`](https://crates.io/crates/rand)
//! crate (0.8 API subset).
//!
//! The reproduction's build environment has no network access to a cargo
//! registry, so the workspace vendors the small slice of the `rand` API it
//! actually uses: [`rngs::StdRng`] (a seedable xoshiro256++ generator),
//! the [`Rng`] extension methods `gen`, `gen_range`, `gen_bool`, the
//! [`SeedableRng::seed_from_u64`] constructor, and [`seq::SliceRandom`]'s
//! Fisher-Yates `shuffle`. Beyond that subset, `StdRng` has a raw-state
//! accessor pair ([`rngs::StdRng::state`], [`rngs::StdRng::from_state`])
//! for SIMD samplers that run several streams as register lanes; it is
//! not a `rand` API.
//!
//! The generator is deterministic for a given seed, which is all the
//! Monte Carlo and fault-injection layers require; it is NOT a
//! cryptographic RNG.

use std::ops::{Range, RangeInclusive};

/// Low-level source of randomness (subset of `rand_core::RngCore`).
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// Seedable generators (subset of `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (the only constructor the
    /// workspace uses).
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that can be sampled uniformly "at large" by [`Rng::gen`]
/// (stand-in for `rand::distributions::Standard` sampling).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types that can be sampled uniformly from a range by [`Rng::gen_range`].
pub trait UniformSample: Sized + Copy + PartialOrd {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

/// Range arguments accepted by [`Rng::gen_range`] (stand-in for
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: UniformSample> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample from an empty range");
        T::sample_range(rng, self.start, self.end, false)
    }
}

impl<T: UniformSample> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample from an empty range");
        T::sample_range(rng, lo, hi, true)
    }
}

/// User-facing extension methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value uniformly over the type's natural domain
    /// (`[0, 1)` for floats, the full range for integers).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from a half-open or inclusive range.
    fn gen_range<T: UniformSample, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let lo_w = lo as i128;
                let hi_w = hi as i128;
                let span = (hi_w - lo_w + if inclusive { 1 } else { 0 }) as u128;
                // `span == 0` can only happen for the full u128 range, which
                // no workspace type reaches (widest is 64-bit).
                let offset = (rng.next_u64() as u128) % span;
                (lo_w + offset as i128) as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_uniform_float {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                _inclusive: bool,
            ) -> Self {
                let u: $t = Standard::sample(rng);
                let v = lo + u * (hi - lo);
                // Guard against round-up to the open upper bound.
                if v >= hi && lo < hi {
                    lo.max(hi - (hi - lo) * <$t>::EPSILON)
                } else {
                    v
                }
            }
        }
    )*};
}
impl_uniform_float!(f32, f64);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++,
    /// seeded through SplitMix64 (the reference seeding procedure).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl StdRng {
        /// The raw xoshiro256++ state words `[s0, s1, s2, s3]`.
        ///
        /// Not part of the `rand` API (its `StdRng` is a different
        /// generator with no such accessor): it exists so a SIMD sampler
        /// can run several generators as the lanes of one register and
        /// hand each state back with [`from_state`](Self::from_state).
        /// `StdRng::from_state(rng.state())` continues `rng`'s stream
        /// draw for draw.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// The generator whose raw state is `s` — the inverse of
        /// [`state`](Self::state). The all-zero state is a fixed point of
        /// xoshiro256++ and never arises from seeding.
        pub fn from_state(s: [u64; 4]) -> Self {
            Self { s }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
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

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

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

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }
}

pub mod seq {
    use super::{Rng, UniformSample};

    /// Slice shuffling (subset of `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        /// In-place Fisher-Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = usize::sample_range(rng, 0, i, true);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn raw_state_round_trips_mid_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let _ = a.gen::<u64>();
        let mut b = StdRng::from_state(a.state());
        assert_eq!(a, b);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn unit_interval_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&x));
            let n = rng.gen_range(3usize..=9);
            assert!((3..=9).contains(&n));
        }
    }

    #[test]
    fn gen_bool_rate_is_sane() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..64).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 64-element shuffle should move something");
    }
}
