//! Virtual time.
//!
//! The simulation measures time in integer nanoseconds from the start of the
//! run. `u64` nanoseconds cover ~584 years of virtual time, far beyond any
//! experiment in this repository. All arithmetic is checked in debug builds;
//! virtual time never goes backwards.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Span from an earlier instant to this one. Saturates to zero if
    /// `earlier` is in fact later (callers assert where it matters).
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Dur(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    /// Panics on negative or non-finite input.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        Dur((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("virtual time overflow"))
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    /// Span between two instants; panics (debug) if `rhs` is later.
    #[inline]
    fn sub(self, rhs: SimTime) -> Dur {
        debug_assert!(self.0 >= rhs.0, "virtual time went backwards");
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_500);
        let t2 = t + Dur::from_micros(2);
        assert_eq!(t2.nanos(), 3_500);
        assert_eq!((t2 - t).nanos(), 2_000);
    }

    #[test]
    fn dur_constructors_agree() {
        assert_eq!(Dur::from_secs(1), Dur::from_millis(1_000));
        assert_eq!(Dur::from_millis(1), Dur::from_micros(1_000));
        assert_eq!(Dur::from_micros(1), Dur::from_nanos(1_000));
        assert_eq!(Dur::from_secs_f64(0.5), Dur::from_millis(500));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(a.since(b), Dur::ZERO);
        assert_eq!(b.since(a), Dur::from_nanos(10));
    }

    #[test]
    fn dur_scaling() {
        assert_eq!(Dur::from_micros(3) * 4, Dur::from_micros(12));
        assert_eq!(Dur::from_micros(12) / 4, Dur::from_micros(3));
        let total: Dur = [Dur::from_nanos(1), Dur::from_nanos(2)].into_iter().sum();
        assert_eq!(total, Dur::from_nanos(3));
    }

    #[test]
    fn max_min() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Dur::from_nanos(5).max(Dur::from_nanos(9)), Dur::from_nanos(9));
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_float_duration_panics() {
        let _ = Dur::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Dur::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Dur::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::from_secs(12)), "12.000s");
    }
}
