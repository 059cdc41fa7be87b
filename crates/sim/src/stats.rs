//! Lightweight statistics: counters and streaming summaries.
//!
//! Every protocol layer keeps its own `Stats` struct built from these
//! primitives; the benchmark harness reads them after a run to produce the
//! paper's tables. The summary keeps count/sum/min/max plus a sum of squares
//! so that mean and standard deviation are available without storing samples.

use std::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn hit(&mut self) {
        self.0 += 1;
    }
    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
    /// Reset to zero (used between measurement phases of a single run).
    #[inline]
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A signed level indicator (queue depth, in-flight window, credits).
///
/// Unlike [`Counter`] a gauge can move both ways; `set` pins it to an
/// absolute level while `add`/`sub` track deltas.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Gauge(pub i64);

impl Gauge {
    /// Pin to an absolute level.
    #[inline]
    pub fn set(&mut self, v: i64) {
        self.0 = v;
    }
    /// Move up by `n`.
    #[inline]
    pub fn add(&mut self, n: i64) {
        self.0 += n;
    }
    /// Move down by `n`.
    #[inline]
    pub fn sub(&mut self, n: i64) {
        self.0 -= n;
    }
    /// Current level.
    #[inline]
    pub fn get(self) -> i64 {
        self.0
    }
}

impl fmt::Display for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Streaming summary of a sample stream (count, sum, min, max, variance).
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    n: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Self {
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Sum of samples.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }
    /// Sample mean, or 0.0 when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
    /// Smallest sample, or 0.0 when empty.
    #[inline]
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }
    /// Largest sample, or 0.0 when empty.
    #[inline]
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
    /// Population standard deviation, or 0.0 with fewer than two samples.
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = (self.sum_sq / self.n as f64 - mean * mean).max(0.0);
        var.sqrt()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} min={:.3} max={:.3} sd={:.3}",
            self.n,
            self.mean(),
            self.min(),
            self.max(),
            self.stddev()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_moves_both_ways() {
        let mut g = Gauge::default();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-2);
        assert_eq!(g.get(), -2);
        assert_eq!(format!("{g}"), "-2");
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.hit();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }
}
