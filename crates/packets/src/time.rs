//! Simulation-friendly timestamps shared across the workspace.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use core::time::Duration;

/// A monotonically increasing timestamp in microseconds since an arbitrary
/// epoch (simulation start or capture start).
///
/// # Examples
///
/// ```
/// use kalis_packets::Timestamp;
/// use core::time::Duration;
///
/// let t = Timestamp::ZERO + Duration::from_millis(5);
/// assert_eq!(t.as_micros(), 5_000);
/// assert_eq!(t - Timestamp::ZERO, Duration::from_millis(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Build a timestamp from whole microseconds.
    pub fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Build a timestamp from whole milliseconds.
    pub fn from_millis(millis: u64) -> Self {
        Timestamp(millis * 1_000)
    }

    /// Build a timestamp from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (useful for rates).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub fn saturating_since(self, earlier: Timestamp) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.as_micros() as u64)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_micros() as u64;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;

    fn sub(self, rhs: Timestamp) -> Duration {
        Duration::from_micros(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = Timestamp::from_secs(3);
        assert_eq!(t.as_micros(), 3_000_000);
        let u = t + Duration::from_micros(250);
        assert_eq!(u - t, Duration::from_micros(250));
    }

    #[test]
    fn subtraction_saturates() {
        let early = Timestamp::from_secs(1);
        let late = Timestamp::from_secs(2);
        assert_eq!(early - late, Duration::ZERO);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
    }

    #[test]
    fn ordering_follows_micros() {
        assert!(Timestamp::from_millis(1) < Timestamp::from_millis(2));
    }

    #[test]
    fn display_in_seconds() {
        assert_eq!(Timestamp::from_millis(1500).to_string(), "1.500000s");
    }
}
