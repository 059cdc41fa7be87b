//! Run one workload for a time budget and report its metrics.

use std::time::Instant;

use san_chaos::Json;

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::pass::{per, Layers, Params, Pass};
use crate::stats::{median, peak_rss_mb, Digest};
use crate::Workload;

/// Scaled span self times must account for at least this share of the
/// traced loops' wall time.
pub const MIN_COVERAGE: f64 = 0.9;

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct BenchResult {
    /// Which workload ran.
    pub workload: Workload,
    /// Whether the metrics are the traced per-layer set.
    pub traced: bool,
    /// Passes measured (the untraced reference pass of a traced run not
    /// counted).
    pub passes: usize,
    /// Units attempted over all passes.
    pub attempted: u64,
    /// Units whose outputs failed a check.
    pub failed: u64,
    /// Every failed check, unit or run level.
    pub failures: Vec<String>,
    /// The first pass's digest of simulated outcomes.
    pub digest: Digest,
    /// Simulated-outcome values (`sim.*`) of the first pass.
    pub sim: Vec<(&'static str, f64)>,
    /// Metric values in registry order: the end-to-end set untraced, the
    /// per-layer set traced.
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl BenchResult {
    /// No check failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (each a value with its unit).
    pub fn json_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(m, v)| {
                    let entry = Json::obj(vec![("value", Json::Num(*v)), ("unit", m.unit.into())]);
                    (m.name.to_string(), entry)
                })
                .collect(),
        );
        let doc = Json::obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics),
        ]);
        doc.pretty().lines().map(str::trim_start).collect()
    }

    /// Human-readable lines printed before the JSON line.
    pub fn report_lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "{}: {} pass(es), {} unit(s), {} failed{}",
            self.workload.name(),
            self.passes,
            self.attempted,
            self.failed,
            if self.traced { ", traced" } else { "" }
        )];
        out.extend(self.failures.iter().map(|f| format!("FAIL {f}")));
        out.push(format!(
            "sim_digest {} {}",
            self.workload.name(),
            self.digest
        ));
        for (name, v) in &self.sim {
            out.push(format!("  {name:<28} {:>16}", show(*v)));
        }
        for (m, v) in &self.metrics {
            out.push(format!("  {:<28} {:>16} {}", m.name, show(*v), m.unit));
        }
        out
    }
}

/// Six decimals, or six significant digits for values below 1e-3.
pub fn show(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}

/// Run `w` for about `seconds`: whole passes only, at least one, so every
/// unit has the same number of repetitions. A traced run first makes one
/// untraced reference pass, which its digest and overhead are checked
/// against.
pub fn bench(w: Workload, p: &Params, seconds: f64, traced: bool) -> BenchResult {
    let t0 = Instant::now();
    let reference = traced.then(|| w.pass(p, false));
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = w.pass(p, traced);
        let last = pass.wall_s;
        passes.push(pass);
        if t0.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }

    let mut failures: Vec<String> = passes.iter().flat_map(|q| q.failures.clone()).collect();
    let digest = passes[0].digest;
    let reference_digest = reference.as_ref().map_or(digest, |r| r.digest);
    for (i, q) in passes.iter().enumerate() {
        if q.digest != reference_digest {
            failures.push(format!(
                "{}: pass {i} digest {} differs from {}",
                w.name(),
                q.digest,
                reference_digest
            ));
        }
    }
    let sim = passes[0]
        .layers
        .iter()
        .filter(|(k, _)| k.starts_with("sim."))
        .map(|(k, v)| (*k, *v))
        .collect();

    let metrics = match &reference {
        None => end_to_end(&passes),
        Some(r) => {
            let (m, coverage) = per_layer(&passes, r);
            if let Some(c) = coverage.filter(|&c| c < MIN_COVERAGE) {
                failures.push(format!(
                    "{}: span self times cover {:.1}% of traced wall time (< {:.0}%)",
                    w.name(),
                    c * 100.0,
                    MIN_COVERAGE * 100.0
                ));
            }
            m
        }
    };
    BenchResult {
        workload: w,
        traced,
        passes: passes.len(),
        attempted: passes.iter().map(|q| q.attempted).sum(),
        failed: passes.iter().map(|q| q.failed).sum(),
        failures,
        digest,
        sim,
        metrics,
    }
}

/// Each position's best (smallest) value over the passes. Every pass runs
/// the same units in the same order, and contention from other processes
/// only ever slows a unit down, so the best repetition is the steadiest
/// estimate of what the unit costs.
fn best_by_position<'a>(per_pass: impl Iterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for xs in per_pass {
        for (i, &x) in xs.iter().enumerate() {
            match best.get_mut(i) {
                Some(b) => *b = b.min(x),
                None => best.push(x),
            }
        }
    }
    best
}

fn end_to_end(passes: &[Pass]) -> Vec<(&'static MetricDef, f64)> {
    let setups = best_by_position(passes.iter().map(|q| &q.setup_s));
    let units = best_by_position(passes.iter().map(|q| &q.unit_s));
    END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => median(&setups),
                "wall_s" => setups.iter().chain(&units).sum(),
                "unit_ms_p50" => median(&units) * 1e3,
                "peak_rss_mb" => peak_rss_mb().unwrap_or(0.0),
                other => unreachable!("no measurement for {other}"),
            };
            (m, v)
        })
        .collect()
}

/// Per-layer values averaged over the traced passes, plus the tracing
/// bookkeeping; also the span coverage when the workload is span-traced.
fn per_layer(passes: &[Pass], reference: &Pass) -> (Vec<(&'static MetricDef, f64)>, Option<f64>) {
    let mut avg = Layers::new();
    for q in passes {
        for (k, v) in &q.layers {
            *avg.entry(*k).or_default() += v / passes.len() as f64;
        }
    }
    // Rates use the untraced reference pass's host time, not the traced
    // one's, so tracing overhead does not leak into them.
    let ref_run_s: f64 = reference.unit_s.iter().sum();
    avg.insert("reference.run_s", ref_run_s);
    let events_per_s = per(&avg, "des.events", "reference.run_s");
    let states_per_s = per(&avg, "mc.states", "reference.run_s");
    avg.insert("des.events_per_s", events_per_s);
    avg.insert("mc.states_per_s", states_per_s);
    let walls: Vec<f64> = passes.iter().map(|q| q.wall_s).collect();
    avg.insert(
        "bench.traced_overhead",
        crate::stats::ratio(median(&walls), reference.wall_s),
    );
    // The clock reads are the tracing overhead itself, not a layer's work:
    // the spans must account for the traced wall time net of them.
    let get = |k: &str| avg.get(k).copied().unwrap_or(0.0);
    let net_ms = get("spans.loop_ms") - get("spans.timing_ms");
    let covered_ms = get("spans.covered_ms");
    avg.insert("bench.unattributed_ms", net_ms - covered_ms);
    let coverage = (net_ms > 0.0).then(|| covered_ms / net_ms);
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m, avg.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    (metrics, coverage)
}
