//! Virtual time for the deterministic simulator.
//!
//! All device and host latencies in `blockhead` are expressed as [`Nanos`],
//! a nanosecond duration/instant on the simulation's virtual timeline.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant on the virtual timeline, in nanoseconds.
///
/// `Nanos` doubles as instant and duration (like a bare `u64` timestamp
/// would) because the simulation's epoch is always zero; keeping one type
/// avoids a proliferation of conversions in device hot paths.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration / the simulation epoch.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable instant; used as "never" in schedulers.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }

    /// Returns `self - other`, or [`Nanos::ZERO`] if `other` is later.
    #[inline]
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; subtracting
    /// instants the wrong way around is always a simulation bug.
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Nanos {
    /// Formats with a human-scale unit: `ns`, `us`, `ms`, or `s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.1}us", self.as_micros_f64())
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Nanos::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Nanos::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!(a + b, Nanos::from_micros(14));
        assert_eq!(a - b, Nanos::from_micros(6));
        assert_eq!(a * 3, Nanos::from_micros(30));
        assert_eq!(a / 2, Nanos::from_micros(5));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Nanos = (1..=4).map(Nanos::from_nanos).sum();
        assert_eq!(total, Nanos::from_nanos(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos::from_nanos(900).to_string(), "900ns");
        assert_eq!(Nanos::from_micros(1500).to_string(), "1.50ms");
        assert_eq!(Nanos::from_secs(2).to_string(), "2.000s");
    }
}
