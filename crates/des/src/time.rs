//! Virtual simulation time.
//!
//! [`SimTime`] is a monotone instant measured in **picoseconds** since the
//! start of a simulation. Picosecond resolution lets the memory model express
//! sub-nanosecond latency differences (e.g. the 77.8 ns idle latency of the
//! paper's Tier 0) without floating-point drift in the event queue, while a
//! `u64` still covers more than 200 simulated days.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Picoseconds per nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// `x.round() as u64` (half away from zero, saturating) without the call:
/// on baseline x86-64 `f64::round` is a software routine, not an
/// instruction, and `SharedResource::next_completion` converts one ETA per
/// flow through here.
///
/// `x as u64` truncates and saturates. Below `2^53` the truncation converts
/// back exactly and `x - trunc` is exactly representable, so comparing it
/// with one half decides as `round` does; from `2^53` up `x` is an integer
/// and the fraction is zero. Past `2^64` the add must not wrap. NaN and
/// negative inputs give 0 either way.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let trunc = x as u64;
    trunc.saturating_add(u64::from(x - trunc as f64 >= 0.5))
}

/// An instant (or span) of virtual time, in picoseconds.
///
/// `SimTime` doubles as a duration type: subtracting two instants yields a
/// span, and spans add onto instants. This mirrors how simulation code
/// actually uses time and avoids a parallel `SimDuration` type.
///
/// # Examples
///
/// ```
/// use memtier_des::SimTime;
/// let latency = SimTime::from_ns_f64(77.8);
/// let total = latency.mul_f64(1000.0);
/// assert!((total.as_ns_f64() - 77_800.0).abs() < 1e-6);
/// assert_eq!(format!("{latency}"), "77.800ns");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero instant — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as the "never" sentinel for next-event queries.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Construct from fractional nanoseconds (rounded to the nearest ps).
    ///
    /// Negative and non-finite inputs saturate to zero: virtual time cannot
    /// run backwards.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        if !ns.is_finite() || ns <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime(round_to_u64(ns * PS_PER_NS as f64))
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_S)
    }

    /// Construct from fractional seconds (rounded to the nearest ps).
    ///
    /// Saturates at [`SimTime::MAX`] for inputs beyond the representable
    /// range and clamps negative/NaN inputs to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let ps = s * PS_PER_S as f64;
        if ps >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(round_to_u64(ps))
        }
    }

    /// This instant expressed in picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// This instant expressed in fractional microseconds (the unit of
    /// Chrome-tracing timestamps).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// This instant expressed in fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Multiply a span by a scalar (used to scale modeled costs).
    ///
    /// Saturates at [`SimTime::MAX`]; negative/NaN factors clamp to zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimTime {
        if !factor.is_finite() || factor <= 0.0 {
            return SimTime::ZERO;
        }
        let ps = self.0 as f64 * factor;
        if ps >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(round_to_u64(ps))
        }
    }

    /// True if this is the zero instant.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulated more than ~213 days"),
        )
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for SimTime {
    /// Sum spans: `ZERO` identity, panicking on overflow like [`Add`].
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: subtracted a later instant from an earlier one"),
        )
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_S {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", ps as f64 / PS_PER_US as f64)
        } else if ps >= PS_PER_NS {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
    }

    #[test]
    fn fractional_ns_round_trips() {
        let t = SimTime::from_ns_f64(77.8);
        assert_eq!(t.as_ps(), 77_800);
        assert!((t.as_ns_f64() - 77.8).abs() < 1e-9);
    }

    #[test]
    fn as_us_matches_other_units() {
        let t = SimTime::from_ms(10);
        assert!((t.as_us_f64() - 10_000.0).abs() < 1e-9);
        assert!((SimTime::from_ns(500).as_us_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_ns_f64(-5.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ns_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(3).mul_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn huge_secs_saturate() {
        assert_eq!(SimTime::from_secs_f64(1e30), SimTime::MAX);
        assert_eq!(SimTime::from_secs(1).mul_f64(1e30), SimTime::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(3);
        assert_eq!(a + b, SimTime::from_ns(13));
        assert_eq!(a - b, SimTime::from_ns(7));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_ns(13));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_ps(12)), "12ps");
        assert_eq!(format!("{}", SimTime::from_ns(5)), "5.000ns");
        assert_eq!(format!("{}", SimTime::from_us(5)), "5.000us");
        assert_eq!(format!("{}", SimTime::from_ms(5)), "5.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(5)), "5.000s");
    }

    #[test]
    fn sum_of_spans() {
        let total: SimTime = [
            SimTime::from_ns(1),
            SimTime::from_us(1),
            SimTime::from_ms(1),
        ]
        .into_iter()
        .sum();
        assert_eq!(total, SimTime::from_ps(1_001_001_000));
        let empty: SimTime = std::iter::empty().sum();
        assert_eq!(empty, SimTime::ZERO);
    }

    #[test]
    fn mul_f64_scales() {
        let t = SimTime::from_ns(100);
        assert_eq!(t.mul_f64(2.5), SimTime::from_ns(250));
        assert_eq!(t.mul_f64(0.0), SimTime::ZERO);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }
}
