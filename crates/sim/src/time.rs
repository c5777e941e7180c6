//! Simulated time as an integer count of picoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, stored as integer picoseconds.
///
/// Picosecond resolution lets core cycles (500 ps at 2 GHz), cache latencies,
/// DRAM timings and link serialization delays compose exactly. A `u64` of
/// picoseconds covers ~213 simulated days, far beyond any experiment here.
///
/// # Example
///
/// ```
/// use sonuma_sim::SimTime;
///
/// let cycle = SimTime::from_cycles(1, 2_000_000_000);
/// assert_eq!(cycle, SimTime::from_ps(500));
/// assert_eq!(SimTime::from_ns(60) + cycle, SimTime::from_ps(60_500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero, the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from a whole number of clock cycles at `hz`.
    ///
    /// Rounds to the nearest picosecond; exact for the 2 GHz clock used
    /// throughout the soNUMA evaluation.
    #[inline]
    pub const fn from_cycles(cycles: u64, hz: u64) -> Self {
        // ps = cycles * 1e12 / hz, computed in u128 to avoid overflow.
        let ps = (cycles as u128 * 1_000_000_000_000u128) / hz as u128;
        SimTime(ps as u64)
    }

    /// Creates a time from a (possibly fractional) count of nanoseconds.
    ///
    /// Used by calibrated analytic models (e.g. the TCP baseline); rounds to
    /// the nearest picosecond.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration");
        SimTime((ns * 1_000.0).round() as u64)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in nanoseconds, as a float (for reporting).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time in microseconds, as a float (for reporting).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time in seconds, as a float (for bandwidth computations).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; `ZERO` if `other` is later than `self`.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_add(other.0).map(SimTime)
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0ns")
        } else if ps.is_multiple_of(1_000_000_000) {
            write!(f, "{}ms", ps / 1_000_000_000)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{:.3}ns", self.as_ns_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_exact() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_cycles(3, 2_000_000_000).as_ps(), 1_500);
        assert_eq!(SimTime::from_cycles(6, 2_000_000_000).as_ps(), 3_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(40);
        assert_eq!(a + b, SimTime::from_ns(140));
        assert_eq!(a - b, SimTime::from_ns(60));
        assert_eq!(a * 3, SimTime::from_ns(300));
        assert_eq!(a / 4, SimTime::from_ns(25));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn float_reporting() {
        let t = SimTime::from_ps(1_500);
        assert!((t.as_ns_f64() - 1.5).abs() < 1e-12);
        let t = SimTime::from_us(2);
        assert!((t.as_us_f64() - 2.0).abs() < 1e-12);
        assert!((SimTime::from_us(1_000).as_secs_f64() - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn from_ns_f64_rounds() {
        assert_eq!(SimTime::from_ns_f64(1.2344), SimTime::from_ps(1234));
        assert_eq!(SimTime::from_ns_f64(0.0), SimTime::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::ZERO.to_string(), "0ns");
        assert_eq!(SimTime::from_ns(300).to_string(), "300.000ns");
        assert_eq!(SimTime::from_us(2).to_string(), "2.000us");
        assert_eq!(SimTime::from_us(5_000).to_string(), "5ms");
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert!(SimTime::MAX > SimTime::from_us(1_000_000_000));
    }
}
