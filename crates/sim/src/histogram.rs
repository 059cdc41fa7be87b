//! Log-bucketed histogram for latency-style distributions.
//!
//! Sixteen sub-buckets per power of two give a worst-case quantile error
//! under 7 % with a fixed 1 KB footprint — appropriate for recording every
//! packet of a long simulation without allocation on the hot path.

use crate::time::Duration;

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
const GROUPS: usize = 64 - SUB_BITS as usize;

/// Fixed-footprint histogram of nanosecond durations.
#[derive(Clone)]
pub struct Histogram {
    buckets: Box<[u64; GROUPS * SUB]>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0; GROUPS * SUB]),
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    #[inline]
    fn index_of(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let group = 63 - ns.leading_zeros() as usize; // top bit position
        let shift = group as u32 - SUB_BITS;
        let sub = ((ns >> shift) as usize) & (SUB - 1);
        // Groups below SUB_BITS were handled by the linear range above.
        (group - SUB_BITS as usize) * SUB + sub + SUB
    }

    /// Lower bound of the bucket at `idx` (inverse of `index_of`).
    fn value_of(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let idx = idx - SUB;
        let group = idx / SUB + SUB_BITS as usize;
        let sub = (idx % SUB) as u64;
        (1u64 << group) + (sub << (group as u32 - SUB_BITS))
    }

    /// Record one duration.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        let ns = d.nanos();
        let idx = Self::index_of(ns).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += ns as u128;
        self.max = self.max.max(ns);
        self.min = self.min.min(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean, or zero when empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum / self.count as u128) as u64)
    }

    /// Exact maximum.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(if self.count == 0 { 0 } else { self.max })
    }

    /// Exact minimum.
    pub fn min(&self) -> Duration {
        Duration::from_nanos(if self.count == 0 { 0 } else { self.min })
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket lower bound).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp to the true extremes for the edge quantiles.
                let v = Self::value_of(i).clamp(self.min, self.max);
                return Duration::from_nanos(v);
            }
        }
        self.max()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(n={}, mean={}, p50={}, p99={}, max={})",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_value_inverse() {
        for ns in [
            0u64,
            1,
            5,
            15,
            16,
            17,
            100,
            1000,
            65_535,
            1 << 20,
            u64::MAX >> 2,
        ] {
            let idx = Histogram::index_of(ns);
            let lo = Histogram::value_of(idx);
            let hi = Histogram::value_of(idx + 1);
            assert!(lo <= ns && ns < hi, "ns={ns} idx={idx} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        for i in 0..16u64 {
            h.record(Duration::from_nanos(i));
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min().nanos(), 0);
        assert_eq!(h.max().nanos(), 15);
        assert_eq!(h.quantile(0.5).nanos(), 7);
    }

    #[test]
    fn quantiles_of_uniform_stream() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(Duration::from_nanos(i * 100));
        }
        let p50 = h.quantile(0.5).nanos() as f64;
        let p99 = h.quantile(0.99).nanos() as f64;
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.08, "p50 {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.08, "p99 {p99}");
        assert_eq!(h.max().nanos(), 1_000_000);
        assert!((h.mean().nanos() as f64 / 500_050.0 - 1.0).abs() < 0.01);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The reported quantile is always within one bucket of a true
        /// sample, and quantiles are monotone in q.
        #[test]
        fn quantile_bounds(mut xs in proptest::collection::vec(1u64..1_000_000, 1..500)) {
            let mut h = Histogram::new();
            for &x in &xs {
                h.record(Duration::from_nanos(x));
            }
            xs.sort_unstable();
            for &(q, _) in &[(0.0, 0), (0.25, 0), (0.5, 0), (0.9, 0), (1.0, 0)] {
                let est = h.quantile(q).nanos();
                prop_assert!(est >= xs[0] / 2);
                prop_assert!(est <= *xs.last().unwrap());
            }
            prop_assert!(h.quantile(0.2) <= h.quantile(0.8));
        }
    }
}
