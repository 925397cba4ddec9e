//! Simulated time.
//!
//! Times in the reproduction harness are **modeled, not measured**: each
//! logical PDC server owns a [`SimClock`] that advances by the cost of its
//! I/O, CPU and network operations. The harness combines server timelines
//! the way a real synchronized run would (max across servers, plus the
//! client's aggregation time), making every experiment deterministic and
//! independent of the host machine.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero time.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration — used as an "unbounded"
    /// sentinel (e.g. a disabled client timeout). Sums and products
    /// saturate here.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From (fractional) seconds; saturates at zero for negatives.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9) as u64)
    }

    /// Nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

// `+`, `+=` and `* u64` saturate at `MAX` like `-` saturates at zero:
// a trace timestamp or quantum near the top of the range must not panic
// (debug) or wrap (release).
impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs.max(0.0)) as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{:.1}us", s * 1e6)
        }
    }
}

/// A per-server simulated timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now: SimDuration,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time since the clock's epoch.
    pub fn now(&self) -> SimDuration {
        self.now
    }

    /// Advance by `d`.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert!((SimDuration::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(3);
        assert_eq!(a + b, SimDuration::from_millis(13));
        assert_eq!(a - b, SimDuration::from_millis(7));
        assert_eq!((b - a), SimDuration::ZERO); // saturating
        assert_eq!(a * 3, SimDuration::from_millis(30));
        assert_eq!(a * 0.5, SimDuration::from_millis(5));
        assert_eq!(a / 2, SimDuration::from_millis(5));
        assert_eq!(a / 0, SimDuration::from_millis(10)); // clamped divisor
        let total: SimDuration = vec![a, b, b].into_iter().sum();
        assert_eq!(total, SimDuration::from_millis(16));
    }

    #[test]
    fn add_saturates() {
        let near = SimDuration::from_nanos(u64::MAX - 1);
        assert_eq!(near + SimDuration::from_nanos(5), SimDuration::MAX);
        assert_eq!(SimDuration::MAX + SimDuration::MAX, SimDuration::MAX);
        assert_eq!(near + SimDuration::from_nanos(1), SimDuration::MAX);
    }

    #[test]
    fn add_assign_saturates() {
        let mut t = SimDuration::from_nanos(u64::MAX - 3);
        t += SimDuration::from_millis(1);
        assert_eq!(t, SimDuration::MAX);
        let mut u = SimDuration::from_nanos(7);
        u += SimDuration::from_nanos(3);
        assert_eq!(u.as_nanos(), 10);
    }

    #[test]
    fn mul_saturates() {
        let big = SimDuration::from_nanos(u64::MAX / 2 + 1);
        assert_eq!(big * 2, SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(1e16) * 2, SimDuration::MAX);
        let half = SimDuration::from_nanos(u64::MAX / 2);
        assert_eq!(half * 2, SimDuration::from_nanos(u64::MAX - 1));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_secs_f64(2.5).to_string(), "2.500s");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7.0us");
    }

    #[test]
    fn clock_advances_and_syncs() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), SimDuration::ZERO);
        c.advance(SimDuration::from_millis(5));
        c.advance(SimDuration::from_millis(4));
        assert_eq!(c.now(), SimDuration::from_millis(9));
    }
}
