//! Capture timestamps.
//!
//! Trace timestamps are microseconds since an arbitrary epoch (classic pcap
//! resolution). A dedicated type avoids unit confusion between seconds,
//! milliseconds and microseconds that plagues trace tooling.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A capture timestamp with microsecond resolution.
///
/// Internally a `u64` count of microseconds since the trace epoch. Supports
/// ordering, differencing (yielding microseconds) and offsetting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The zero timestamp (trace epoch).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Timestamp(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Timestamp(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    #[inline]
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// Split into (seconds, microseconds-within-second) as stored by pcap.
    #[inline]
    pub const fn to_sec_usec(self) -> (u32, u32) {
        ((self.0 / 1_000_000) as u32, (self.0 % 1_000_000) as u32)
    }

    /// Saturating difference in microseconds (`self - earlier`).
    #[inline]
    pub const fn saturating_micros_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;
    /// Offset by microseconds.
    #[inline]
    fn add(self, us: u64) -> Timestamp {
        Timestamp(self.0 + us)
    }
}

impl AddAssign<u64> for Timestamp {
    #[inline]
    fn add_assign(&mut self, us: u64) {
        self.0 += us;
    }
}

impl Sub for Timestamp {
    type Output = u64;
    /// Difference in microseconds; panics in debug if `rhs` is later.
    #[inline]
    fn sub(self, rhs: Timestamp) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}", self.0 / 1_000_000, self.0 % 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let t = Timestamp::from_millis(1_234);
        assert_eq!(t.micros(), 1_234_000);
        assert_eq!(t.to_sec_usec(), (1, 234_000));
    }

    #[test]
    fn arithmetic() {
        let a = Timestamp::from_micros(100);
        let b = a + 50;
        assert_eq!(b - a, 50);
        assert_eq!(a.saturating_micros_since(b), 0);
        assert_eq!(b.saturating_micros_since(a), 50);
    }

    #[test]
    fn display_pads_microseconds() {
        assert_eq!(Timestamp::from_micros(1_000_005).to_string(), "1.000005");
    }
}
