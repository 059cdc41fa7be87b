//! One pass over a workload's units, and what it reports.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{ratio, Digest};

/// Inputs every workload takes.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Run the test-sized variant (seconds in a debug build) instead of
    /// the benchmark size.
    pub tiny: bool,
}

/// Per-layer values by metric name. Sums over the pass's units unless a
/// name says otherwise; names outside the registry are intermediate values
/// that derived ratios are computed from.
pub type Layers = BTreeMap<&'static str, f64>;

/// Add `v` to `name`.
pub fn add(m: &mut Layers, name: &'static str, v: f64) {
    *m.entry(name).or_default() += v;
}

/// Raise `name` to at least `v`.
pub fn raise(m: &mut Layers, name: &'static str, v: f64) {
    let e = m.entry(name).or_default();
    *e = e.max(v);
}

/// `m[num] / m[den]`, 0 when the base is empty.
pub fn per(m: &Layers, num: &str, den: &str) -> f64 {
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    ratio(get(num), get(den))
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up times, s: one per unit where each unit needs its own
    /// cluster, otherwise one per pass.
    pub setup_s: Vec<f64>,
    /// Host time of each unit, s, set-up excluded.
    pub unit_s: Vec<f64>,
    /// Wall time of the whole pass, s, set-up included.
    pub wall_s: f64,
    /// Digest of the simulated outcomes.
    pub digest: Digest,
    /// Units attempted.
    pub attempted: u64,
    /// Units whose outputs failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Per-layer and simulated-outcome values. A span-traced pass also
    /// sets `spans.loop_ms` (wall time inside traced loops),
    /// `spans.timing_ms` (the part of it spent reading the clock) and
    /// `spans.covered_ms` (the span self times that must account for the
    /// rest).
    pub layers: Layers,
}

impl Pass {
    /// Record a failed check on one unit.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// Run `f`, returning its value and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Set-ups faster than this are repeated within one sample, so a
/// microsecond set-up is not read at timer resolution.
const MIN_SETUP_SAMPLE_S: f64 = 2e-3;

/// Time a set-up: `f` runs until [`MIN_SETUP_SAMPLE_S`] has passed (at
/// least once) and the mean is reported with the last value built.
pub fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let mut reps = 0u32;
    loop {
        let v = std::hint::black_box(f());
        reps += 1;
        if t0.elapsed().as_secs_f64() >= MIN_SETUP_SAMPLE_S {
            return (v, t0.elapsed().as_secs_f64() / reps as f64);
        }
    }
}
