//! Deterministic simulation RNG.
//!
//! [`SimRng`] is the xoshiro256++ generator (Blackman & Vigna), seeded by a
//! SplitMix64 expansion of one `u64`, plus the handful of draw shapes the
//! simulator needs (uniform ranges, Bernoulli trials, exponential waits for
//! bursty-fault modelling). It forces explicit seeding — there is no
//! `from_entropy` path, so a run can never silently become irreproducible —
//! and every draw is defined here (53-bit unit floats, widened-multiply
//! integer ranges), so no dependency update can move a seeded simulation.
//! `stream_is_pinned` pins the stream.

/// Explicitly seeded fast RNG for simulation decisions.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed from a single `u64`. Identical seeds give identical streams.
    pub fn seed_from(mut seed: u64) -> Self {
        // SplitMix64 fills the four state words. Its output function is a
        // bijection and its four counters differ, so at most one word is
        // zero: xoshiro's stuck all-zero state cannot arise.
        let mut next = || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Derive an independent child stream; used to give each injected fault
    /// source its own stream so adding one fault source does not shift the
    /// draws seen by another.
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::seed_from(s)
    }

    /// Uniform draw in `[0, bound)`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.span(bound)
    }

    /// Uniform draw in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "cannot sample empty range");
        lo + self.span(hi - lo)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            // 53 random mantissa bits scaled into [0, 1).
            let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            unit < p
        }
    }

    /// Exponentially distributed value with the given mean (for inter-arrival
    /// fault times in the random fault model).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        const LO: f64 = f64::EPSILON;
        let u = loop {
            // 52 random mantissa bits under a zero exponent give [1, 2),
            // shifted and scaled into [LO, 1).
            let one_two = f64::from_bits((1023 << 52) | (self.next_u64() >> 12));
            let u = (one_two - 1.0) * (1.0 - LO) + LO;
            if u < 1.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Raw `u64` draw: one xoshiro256++ step.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fisher–Yates shuffle (deterministic given the stream position).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.span(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Unbiased draw in `[0, n)` for `n > 0`: the widened-multiply
    /// rejection method.
    #[inline]
    fn span(&mut self, n: u64) -> u64 {
        let zone = (n << n.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(n);
            if wide as u64 <= zone {
                return (wide >> 64) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(7);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean_roughly_right() {
        let mut r = SimRng::seed_from(9);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(100.0)).sum();
        let mean = sum / n as f64;
        assert!((90.0..110.0).contains(&mean), "mean={mean}");
    }

    #[test]
    fn fork_gives_independent_streams() {
        let mut root = SimRng::seed_from(3);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from(5);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    /// Every draw shape, folded into one FNV-1a value: a change that moves
    /// any draw of the stream (and so every seeded simulation) fails here.
    #[test]
    fn stream_is_pinned() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for seed in [0, 1, 42, u64::MAX] {
            let mut r = SimRng::seed_from(seed);
            for _ in 0..8 {
                fold(r.next_u64());
            }
            for _ in 0..16 {
                fold(r.below(7));
                fold(r.below((1 << 53) - 3));
                fold(r.range(1_000, 1_000_000));
                fold(u64::from(r.chance(0.3)));
                fold(r.exponential(100.0).to_bits());
            }
            let mut xs: Vec<u64> = (0..50).collect();
            r.shuffle(&mut xs);
            xs.iter().for_each(|&x| fold(x));
            fold(r.fork(5).next_u64());
        }
        assert_eq!(h, 0xbe72_3104_b392_df17);
    }

    #[test]
    fn below_and_range_bounds() {
        let mut r = SimRng::seed_from(11);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }
}
