//! Streaming summaries of sample streams.
//!
//! The summary keeps count/sum/min/max plus a sum of squares so that mean
//! and standard deviation are available without storing samples. Event
//! counters and gauges live in `san_telemetry`'s metrics registry, which
//! every layer shares.

use std::fmt;

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
