//! Simulation time.
//!
//! Time is measured in integer femtoseconds so that every delay used by the
//! models (gate delays, wire delays, clock periods) is exactly
//! representable; determinism of the kernel depends on never rounding.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute point in simulation time, in femtoseconds since reset.
///
/// `SimTime` is totally ordered and wraps a `u64`, which covers about
/// 5 hours of simulated time at femtosecond resolution — far beyond any
/// workload in this repository.
///
/// # Examples
///
/// ```
/// use st_sim::time::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::ns(3);
/// assert_eq!(t.as_fs(), 3_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in femtoseconds.
///
/// # Examples
///
/// ```
/// use st_sim::time::SimDuration;
/// assert_eq!(SimDuration::ps(1), SimDuration::fs(1000));
/// assert_eq!(SimDuration::ns(2) / 4, SimDuration::ps(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw femtoseconds.
    pub const fn from_fs(fs: u64) -> Self {
        SimTime(fs)
    }

    /// Returns the raw femtosecond count.
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` must not be later than `self`"),
        )
    }

    /// Saturating duration since `earlier`; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration (a delta-cycle delay).
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from femtoseconds.
    pub const fn fs(v: u64) -> Self {
        SimDuration(v)
    }

    /// Creates a duration from picoseconds.
    pub const fn ps(v: u64) -> Self {
        SimDuration(v * 1_000)
    }

    /// Creates a duration from nanoseconds.
    pub const fn ns(v: u64) -> Self {
        SimDuration(v * 1_000_000)
    }

    /// Creates a duration from microseconds.
    pub const fn us(v: u64) -> Self {
        SimDuration(v * 1_000_000_000)
    }

    /// Returns the raw femtosecond count.
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// Returns the duration as (possibly truncated) picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as nanoseconds in floating point.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the zero-length duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a rational factor `num/den`, rounding to the
    /// nearest femtosecond. Used by the delay-variation sweeps (e.g. 150 %
    /// of nominal is `scaled(3, 2)`).
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn scaled(self, num: u64, den: u64) -> SimDuration {
        assert!(den != 0, "scale denominator must be non-zero");
        let v = (u128::from(self.0) * u128::from(num) + u128::from(den / 2)) / u128::from(den);
        SimDuration(u64::try_from(v).expect("scaled duration overflows u64"))
    }

    /// Scales by an integer percentage (100 = unchanged).
    pub fn percent(self, pct: u64) -> SimDuration {
        self.scaled(pct, 100)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulation time overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation time underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// How many whole `rhs` fit in `self`.
    #[inline]
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fs = self.0;
        if fs == 0 {
            write!(f, "0s")
        } else if fs.is_multiple_of(1_000_000_000) {
            write!(f, "{}us", fs / 1_000_000_000)
        } else if fs.is_multiple_of(1_000_000) {
            write!(f, "{}ns", fs / 1_000_000)
        } else if fs.is_multiple_of(1_000) {
            write!(f, "{}ps", fs / 1_000)
        } else {
            write!(f, "{fs}fs")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimDuration::ns(1), SimDuration::ps(1000));
        assert_eq!(SimDuration::ps(1), SimDuration::fs(1000));
        assert_eq!(SimDuration::us(1), SimDuration::ns(1000));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::ns(5);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::ns(5));
        assert_eq!((t - SimDuration::ns(2)).as_fs(), 3_000_000);
        assert_eq!(
            t.saturating_since(t + SimDuration::ns(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "`earlier` must not be later")]
    fn since_panics_when_reversed() {
        SimTime::ZERO.since(SimTime::from_fs(1));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::ns(10);
        assert_eq!(d.percent(50), SimDuration::ns(5));
        assert_eq!(d.percent(150), SimDuration::ns(15));
        assert_eq!(d.percent(200), SimDuration::ns(20));
        assert_eq!(d.scaled(1, 3), SimDuration::fs(3_333_333));
    }

    #[test]
    fn duration_division_and_remainder() {
        assert_eq!(SimDuration::ns(10) / SimDuration::ns(3), 3);
        assert_eq!(SimDuration::ns(10) % SimDuration::ns(3), SimDuration::ns(1));
        assert_eq!(SimDuration::ns(9) / 3, SimDuration::ns(3));
    }

    #[test]
    fn display_picks_largest_exact_unit() {
        assert_eq!(SimDuration::ns(3).to_string(), "3ns");
        assert_eq!(SimDuration::ps(1500).to_string(), "1500ps");
        assert_eq!(SimDuration::fs(42).to_string(), "42fs");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
        assert_eq!(SimDuration::us(7).to_string(), "7us");
    }

    #[test]
    fn display_time_matches_duration() {
        assert_eq!((SimTime::ZERO + SimDuration::ps(2)).to_string(), "2ps");
    }
}
