//! Simulated time, durations, cycle counts and clock frequencies.
//!
//! The workspace uses two time domains:
//!
//! * the **cycle domain** ([`Cycles`]) in which CPU cost models operate, and
//! * the **wall-clock domain** ([`SimTime`], nanosecond resolution) in which
//!   the network, the OS and energy accounting operate.
//!
//! [`Frequency`] is the bridge between the two. All types are plain `u64`
//! newtypes: cheap to copy, totally ordered, and safe for use as event
//! timestamps.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, stored as integer nanoseconds.
///
/// `SimTime` doubles as a duration type; the arithmetic operators are
/// saturating-free (they panic on overflow in debug builds like ordinary
/// integer arithmetic), which is fine because a `u64` of nanoseconds spans
/// more than 580 years of simulated time.
///
/// # Examples
///
/// ```
/// use mb_simcore::time::SimTime;
///
/// let t = SimTime::from_micros(3) + SimTime::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// assert!(t < SimTime::from_millis(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use mb_simcore::time::SimTime;
    /// assert_eq!(SimTime::from_secs_f64(1.5e-9), SimTime::from_nanos(2));
    /// assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    /// ```
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e9).round() as u64)
    }

    /// This time as integer nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction: returns [`SimTime::ZERO`] instead of
    /// underflowing.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Scales a duration by a dimensionless factor, rounding to the nearest
    /// nanosecond. Negative factors clamp to zero.
    pub fn scale(self, factor: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
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
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

/// A count of CPU clock cycles.
///
/// Cost models accumulate `Cycles`; a [`Frequency`] converts them to
/// [`SimTime`].
///
/// # Examples
///
/// ```
/// use mb_simcore::time::Cycles;
/// let c = Cycles::new(10) + Cycles::new(32);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// The raw count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

/// A clock frequency in hertz; the bridge between [`Cycles`] and
/// [`SimTime`].
///
/// # Examples
///
/// ```
/// use mb_simcore::time::{Frequency, SimTime};
///
/// let nehalem = Frequency::from_mhz(2660);
/// assert!((nehalem.as_ghz() - 2.66).abs() < 1e-12);
/// // one cycle is ~0.376 ns; a million cycles is ~0.376 ms
/// let t = nehalem.cycles_to_time(1_000_000);
/// assert!((t.as_secs_f64() - 1.0e6 / 2.66e9).abs() < 1e-9); // ns rounding
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero: a zero-frequency clock cannot convert cycles
    /// to time.
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    pub fn from_mhz(mhz: u64) -> Self {
        Frequency::from_hz(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive");
        Frequency::from_hz((ghz * 1e9).round() as u64)
    }

    /// The frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// The frequency in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Converts a cycle count to wall-clock time at this frequency,
    /// rounding to the nearest nanosecond.
    pub fn cycles_to_time(self, cycles: u64) -> SimTime {
        // Use u128 to avoid overflow: cycles * 1e9 can exceed u64 for long
        // simulations.
        let ns = (cycles as u128 * 1_000_000_000u128 + (self.0 as u128 / 2)) / self.0 as u128;
        SimTime::from_nanos(ns as u64)
    }

    /// Converts [`Cycles`] to wall-clock time at this frequency.
    pub fn cycles(self, cycles: Cycles) -> SimTime {
        self.cycles_to_time(cycles.get())
    }

    /// Converts a wall-clock time to a cycle count at this frequency,
    /// rounding down.
    pub fn time_to_cycles(self, t: SimTime) -> Cycles {
        let c = t.as_nanos() as u128 * self.0 as u128 / 1_000_000_000u128;
        Cycles::new(c as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2} GHz", self.as_ghz())
        } else {
            write!(f, "{} MHz", self.0 / 1_000_000)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((a / 4).as_nanos(), 25);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn simtime_float_roundtrip() {
        let t = SimTime::from_secs_f64(0.123_456_789);
        assert_eq!(t.as_nanos(), 123_456_789);
        assert!((t.as_secs_f64() - 0.123_456_789).abs() < 1e-12);
    }

    #[test]
    fn simtime_display_units() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn simtime_sum_and_minmax() {
        let total: SimTime = (1..=4).map(SimTime::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
        assert_eq!(
            SimTime::from_nanos(3)
                .max(SimTime::from_nanos(7))
                .as_nanos(),
            7
        );
        assert_eq!(
            SimTime::from_nanos(3)
                .min(SimTime::from_nanos(7))
                .as_nanos(),
            3
        );
    }

    #[test]
    fn simtime_scale() {
        let t = SimTime::from_secs(2);
        assert_eq!(t.scale(0.5), SimTime::from_secs(1));
        assert_eq!(t.scale(-1.0), SimTime::ZERO);
    }

    #[test]
    fn cycles_arithmetic() {
        let c = Cycles::new(10) + Cycles::new(5);
        assert_eq!(c.get(), 15);
        assert_eq!((c - Cycles::new(5)).get(), 10);
        assert_eq!((c * 2).get(), 30);
        assert_eq!(Cycles::new(3).saturating_sub(Cycles::new(9)), Cycles::ZERO);
        let total: Cycles = (1..=3).map(Cycles::new).sum();
        assert_eq!(total.get(), 6);
    }

    #[test]
    fn frequency_conversions() {
        let f = Frequency::from_ghz(1.0);
        assert_eq!(f.cycles_to_time(1_000_000_000), SimTime::from_secs(1));
        assert_eq!(f.time_to_cycles(SimTime::from_secs(1)).get(), 1_000_000_000);
        // round-trip at a non-integer frequency
        let f = Frequency::from_ghz(2.66);
        let c = 1_000_000u64;
        let t = f.cycles_to_time(c);
        let back = f.time_to_cycles(t).get();
        assert!((back as i64 - c as i64).abs() <= 1);
    }

    #[test]
    fn frequency_display() {
        assert_eq!(Frequency::from_ghz(2.66).to_string(), "2.66 GHz");
        assert_eq!(Frequency::from_mhz(100).to_string(), "100 MHz");
    }

    #[test]
    #[should_panic(expected = "frequency must be non-zero")]
    fn zero_frequency_panics() {
        let _ = Frequency::from_hz(0);
    }

    #[test]
    fn no_overflow_on_long_simulations() {
        // 1e12 cycles at 1 GHz = 1000 s; exercises the u128 path.
        let f = Frequency::from_ghz(1.0);
        assert_eq!(
            f.cycles_to_time(1_000_000_000_000),
            SimTime::from_secs(1000)
        );
    }
}
