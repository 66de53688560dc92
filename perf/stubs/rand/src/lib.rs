//! Offline stand-in for the `rand` 0.8 crate (see `perf/README.md`,
//! "Offline build"): the part of its surface this repository uses —
//! [`RngCore`], [`SeedableRng`] and [`Rng`]'s `gen` and `gen_range` over
//! half-open ranges — following rand 0.8's published algorithms (PCG32 seed
//! expansion, 53/24-bit float conversion, widening-multiply integer
//! ranges), so a stream keeps its statistical shape.

use std::ops::Range;

/// The core of a random number generator.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be built from a fixed-size seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands `state` into a full seed with PCG32, as rand_core 0.6 does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let word = xorshifted.rotate_right((state >> 59) as u32);
            chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// A type `Rng::gen` can produce (rand's `Standard` distribution).
pub trait StandardSample: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// A range `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// User-facing methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

macro_rules! standard_int {
    ($($ty:ty => $next:ident),* $(,)?) => {$(
        impl StandardSample for $ty {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$next() as $ty
            }
        }
    )*};
}
standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
              i8 => next_u32, i16 => next_u32, i32 => next_u32, i64 => next_u64,
              usize => next_u64, isize => next_u64);

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

// Integer ranges: multiply a random word by the range width and keep the
// high half, rejecting the low halves that would bias it (rand 0.8's
// `UniformInt::sample_single`). Types of up to 32 bits draw a `u32`.
macro_rules! range_int {
    ($($ty:ty, $unsigned:ty, $large:ty, $wide:ty, $next:ident);* $(;)?) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                let range = self.end.wrapping_sub(self.start) as $unsigned as $large;
                let zone = if <$unsigned>::MAX as u64 <= u16::MAX as u64 {
                    let reject = (<$large>::MAX - range + 1) % range;
                    <$large>::MAX - reject
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let wide = rng.$next() as $large as $wide * range as $wide;
                    let (hi, lo) = ((wide >> <$large>::BITS) as $large, wide as $large);
                    if lo <= zone {
                        return self.start.wrapping_add(hi as $ty);
                    }
                }
            }
        }

    )*};
}
range_int!(u8, u8, u32, u64, next_u32; u16, u16, u32, u64, next_u32;
           u32, u32, u32, u64, next_u32; u64, u64, u64, u128, next_u64;
           usize, usize, u64, u128, next_u64;
           i8, u8, u32, u64, next_u32; i16, u16, u32, u64, next_u32;
           i32, u32, u32, u64, next_u32; i64, u64, u64, u128, next_u64;
           isize, usize, u64, u128, next_u64);

macro_rules! range_float {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                let scale = self.end - self.start;
                assert!(scale.is_finite(), "gen_range: range overflow");
                loop {
                    let unit: $ty = StandardSample::sample(rng);
                    let value = unit * scale + self.start;
                    if value < self.end {
                        return value;
                    }
                }
            }
        }
    )*};
}
range_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            // SplitMix64
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = Counter(1);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.gen_range(3u8..10);
            assert!((3..10).contains(&v));
            seen[(v - 3) as usize] = true;
            let w = rng.gen_range(-5i64..6);
            assert!((-5..6).contains(&w));
            let f = rng.gen_range(-0.1f32..0.1);
            assert!((-0.1..0.1).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
        assert!(seen.iter().all(|s| *s));
    }
}
