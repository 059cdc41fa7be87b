//! Virtual time: nanosecond-resolution instants and durations.
//!
//! The paper quotes latencies in microseconds (8 µs one-way latency) and
//! timer intervals from 10 µs to 1 s; nanosecond resolution in a `u64` gives
//! ~584 years of range, far more than any experiment needs, while keeping
//! arithmetic branch-free.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// One nanosecond, as a [`Duration`] scale factor.
pub const NANOS: u64 = 1;
/// One microsecond in nanoseconds.
pub const MICROS: u64 = 1_000;
/// One millisecond in nanoseconds.
pub const MILLIS: u64 = 1_000_000;
/// One second in nanoseconds.
pub const SECS: u64 = 1_000_000_000;

/// An absolute instant on the virtual clock (nanoseconds since start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);
    /// The far future; used as the "never" sentinel for idle timers.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us * MICROS)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * MILLIS)
    }
    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * SECS)
    }
    /// Raw nanoseconds since the epoch.
    #[inline]
    pub const fn nanos(self) -> u64 {
        self.0
    }
    /// Time as fractional microseconds (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / MICROS as f64
    }
    /// Time as fractional milliseconds (for reporting).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MILLIS as f64
    }
    /// Time as fractional seconds (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SECS as f64
    }
    /// Duration elapsed since `earlier`; saturates at zero rather than
    /// wrapping, because stage timestamps may legitimately coincide.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }
    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * MICROS)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * MILLIS)
    }
    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * SECS)
    }
    /// Raw nanoseconds.
    #[inline]
    pub const fn nanos(self) -> u64 {
        self.0
    }
    /// Span as fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / MICROS as f64
    }
    /// Span as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MILLIS as f64
    }
    /// Span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SECS as f64
    }
    /// Time to move `bytes` at `bytes_per_sec`, rounded up to whole ns.
    ///
    /// This is the workhorse for serialization and DMA cost computation; the
    /// round-up guarantees a nonzero cost for any nonzero transfer so that
    /// back-to-back transfers can never be scheduled at the same instant.
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        assert!(bytes_per_sec > 0, "zero-bandwidth transfer");
        let ns = (bytes as u128 * SECS as u128).div_ceil(bytes_per_sec as u128);
        Duration(ns as u64)
    }
    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, d: Duration) -> Time {
        Time(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, d: Duration) -> Time {
        Time(self.0 - d.0)
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, t: Time) -> Duration {
        Duration(self.0 - t.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, d: Duration) -> Duration {
        Duration(self.0 + d.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, d: Duration) -> Duration {
        Duration(self.0 - d.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, d: Duration) {
        self.0 -= d.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, k: u64) -> Duration {
        Duration(self.0 * k)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, k: u64) -> Duration {
        Duration(self.0 / k)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Duration(self.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", Duration(self.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= SECS {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= MILLIS {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= MICROS {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_micros(3), Time::from_nanos(3_000));
        assert_eq!(Time::from_millis(2), Time::from_nanos(2_000_000));
        assert_eq!(Duration::from_secs(1).nanos(), SECS);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_nanos(100);
        let d = Duration::from_nanos(50);
        assert_eq!((t + d).nanos(), 150);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(Time::from_nanos(150)), Duration::ZERO);
        assert_eq!(Time::from_nanos(150).since(t), d);
        assert_eq!(d * 3, Duration::from_nanos(150));
        assert_eq!(Duration::from_nanos(150) / 3, d);
    }

    #[test]
    fn bytes_at_bandwidth() {
        // 120 MB/s PCI: 4 KB takes 34.13 us.
        let d = Duration::for_bytes(4096, 120_000_000);
        assert!((d.as_micros_f64() - 34.133).abs() < 0.01, "{d}");
        // Round-up: any nonzero transfer takes at least 1 ns.
        assert_eq!(Duration::for_bytes(1, u64::MAX / 2).nanos(), 1);
        assert_eq!(Duration::for_bytes(0, 1), Duration::ZERO);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Duration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", Duration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", Duration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Duration::from_secs(5)), "5.000s");
    }
}
