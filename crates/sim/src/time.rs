//! Simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in integer picoseconds.
///
/// Picosecond resolution lets the engine represent both sub-nanosecond
/// pipeline stages (a 400 MHz accelerator cycle is 2500 ps) and multi-second
/// cloud workload runs (a `u64` of picoseconds spans ~213 days) without
/// floating-point drift.
///
/// ```
/// use vfpga_sim::SimTime;
/// let t = SimTime::from_ns(2.5);
/// assert_eq!(t.as_ps(), 2500);
/// assert!((t.as_us() - 0.0025).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from integer picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from (possibly fractional) nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid time: {ns} ns");
        SimTime((ns * 1e3).round() as u64)
    }

    /// Creates a time from (possibly fractional) microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_us(us: f64) -> Self {
        assert!(us.is_finite() && us >= 0.0, "invalid time: {us} us");
        SimTime((us * 1e6).round() as u64)
    }

    /// Creates a time from (possibly fractional) milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_ms(ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "invalid time: {ms} ms");
        SimTime((ms * 1e9).round() as u64)
    }

    /// Creates a time from (possibly fractional) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs} s");
        SimTime((secs * 1e12).round() as u64)
    }

    /// Duration of `cycles` clock cycles at `freq_mhz` megahertz.
    ///
    /// ```
    /// use vfpga_sim::SimTime;
    /// // 400 cycles at 400 MHz is exactly one microsecond.
    /// assert_eq!(SimTime::from_cycles(400, 400.0), SimTime::from_us(1.0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `freq_mhz` is not strictly positive.
    pub fn from_cycles(cycles: u64, freq_mhz: f64) -> Self {
        assert!(freq_mhz > 0.0, "invalid frequency: {freq_mhz} MHz");
        let ps_per_cycle = 1e6 / freq_mhz;
        SimTime((cycles as f64 * ps_per_cycle).round() as u64)
    }

    /// This time in integer picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating difference `self - other`, zero if `other` is later.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_add(other.0).map(SimTime)
    }

    /// Saturating addition: [`SimTime::MAX`] on overflow (the end of time
    /// is as late as anything can happen).
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// Exponential backoff from a base of `self`: `self * 2^min(times, 32)`,
    /// saturating at [`SimTime::MAX`].
    pub fn doubled(self, times: u32) -> SimTime {
        SimTime(self.0.saturating_mul(1u64 << times.min(32)))
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us())
        } else {
            write!(f, "{:.3}ns", self.as_ns())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_us(1.5);
        assert_eq!(t.as_ps(), 1_500_000);
        assert!((t.as_ns() - 1500.0).abs() < 1e-9);
        assert!((t.as_ms() - 0.0015).abs() < 1e-12);
    }

    #[test]
    fn cycles_at_frequency() {
        // 300 MHz -> 3333.333ps per cycle, rounded.
        let t = SimTime::from_cycles(3, 300.0);
        assert_eq!(t.as_ps(), 10_000);
        assert_eq!(SimTime::from_cycles(0, 123.0), SimTime::ZERO);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_ns(10.0);
        let b = SimTime::from_ns(4.0);
        assert!(a > b);
        assert_eq!(a + b, SimTime::from_ns(14.0));
        assert_eq!(a - b, SimTime::from_ns(6.0));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_ns(5.0)), "5.000ns");
        assert_eq!(format!("{}", SimTime::from_us(5.0)), "5.000us");
        assert_eq!(format!("{}", SimTime::from_ms(5.0)), "5.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(5.0)), "5.000s");
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn negative_time_rejected() {
        let _ = SimTime::from_ns(-1.0);
    }
}
