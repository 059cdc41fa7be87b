//! Judge two sets of runs, metric by metric and workload by workload.
//!
//! The rule, for each end-to-end metric on each workload, with the i-th run
//! of a workload in set A paired with the i-th in set B:
//!
//! * **gain** — B wins at least nine tenths of the pairs (ties count for
//!   neither) and its median beats A's by more than A's own quartile
//!   spread; or every B run beats every A run;
//! * **unresolved** — A's quartile spread, as a share of its median, is
//!   wider than the metric's bound, so no verdict is possible;
//! * **regression** — B's median is worse than A's by more than the bound;
//! * **ok** — otherwise.

use san_chaos::Json;

use crate::bench::show;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::{median, quartiles};

/// One benchmark run as recorded by `san-perf run --json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// Digest of the simulated outcomes.
    pub digest: String,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// A set of runs (one side of a comparison).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSet {
    /// Runs in the order they were made.
    pub runs: Vec<Run>,
}

impl RunSet {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|r| {
                let metrics = Json::Obj(
                    r.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                );
                Json::obj(vec![
                    ("workload", r.workload.as_str().into()),
                    ("seed", r.seed.into()),
                    ("correct", r.correct.into()),
                    ("sim_digest", r.digest.as_str().into()),
                    ("metrics", metrics),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj(vec![("runs", runs.into())])
    }

    /// Parse the JSON form.
    pub fn from_json(doc: &Json) -> Result<RunSet, String> {
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("missing \"runs\" array")?;
        let run = |r: &Json| -> Result<Run, String> {
            let field = |k: &str| r.get(k).ok_or(format!("run without \"{k}\""));
            let metrics = match field("metrics")? {
                Json::Obj(kv) => kv
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|x| (k.clone(), x))
                            .ok_or(format!("metric {k} is not a number"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("\"metrics\" is not an object".into()),
            };
            Ok(Run {
                workload: field("workload")?.as_str().ok_or("bad workload")?.into(),
                seed: field("seed")?.as_u64().ok_or("bad seed")?,
                correct: field("correct")?.as_bool().ok_or("bad correct")?,
                digest: field("sim_digest")?.as_str().ok_or("bad digest")?.into(),
                metrics,
            })
        };
        Ok(RunSet {
            runs: runs.iter().map(run).collect::<Result<_, _>>()?,
        })
    }

    fn of(&self, workload: &str) -> Vec<&Run> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload)
            .collect()
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    fn of(xs: &[f64]) -> Summary {
        let (q1, q3) = quartiles(xs);
        Summary {
            median: median(xs),
            q1,
            q3,
        }
    }
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better beyond noise.
    Gain,
    /// B is within the bound of A.
    Ok,
    /// B is worse than A by more than the bound.
    Regression,
    /// A's own spread exceeds the bound.
    Unresolved,
}

/// One metric compared.
#[derive(Debug, Clone)]
pub struct MetricCmp {
    /// The metric.
    pub metric: &'static MetricDef,
    /// Side A.
    pub a: Summary,
    /// Side B.
    pub b: Summary,
    /// Pairs B won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// B's median change relative to A's, signed so that negative is
    /// better.
    pub worse_by: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare one metric's values (A and B in pair order).
pub fn compare_metric(metric: &'static MetricDef, a: &[f64], b: &[f64]) -> MetricCmp {
    let better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if sa.median != 0.0 {
        sign * (sb.median - sa.median) / sa.median.abs()
    } else {
        0.0
    };
    let spread = sa.q3 - sa.q1;
    let all_better =
        !a.is_empty() && !b.is_empty() && b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let most_pairs = pairs > 0 && wins * 10 >= pairs * 9;
    let verdict = if all_better && most_pairs {
        Verdict::Gain
    } else if sa.median == 0.0 || spread / sa.median.abs() > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regression
    } else if most_pairs && better(sb.median, sa.median) && (sb.median - sa.median).abs() > spread {
        Verdict::Gain
    } else {
        Verdict::Ok
    };
    MetricCmp {
        metric,
        a: sa,
        b: sb,
        wins,
        pairs,
        worse_by,
        verdict,
    }
}

/// All end-to-end metrics of one workload compared.
#[derive(Debug, Clone)]
pub struct WorkloadCmp {
    /// Workload name.
    pub workload: String,
    /// Pairs whose simulated-outcome digests differ.
    pub digest_changes: usize,
    /// Runs in either set that failed a check.
    pub incorrect: usize,
    /// Per metric.
    pub metrics: Vec<MetricCmp>,
}

/// Compare every workload present in both sets.
pub fn compare(a: &RunSet, b: &RunSet) -> Vec<WorkloadCmp> {
    let mut names: Vec<&str> = Vec::new();
    for r in &a.runs {
        if !names.contains(&r.workload.as_str()) && !b.of(&r.workload).is_empty() {
            names.push(&r.workload);
        }
    }
    names
        .into_iter()
        .map(|w| {
            let (ra, rb) = (a.of(w), b.of(w));
            let values = |runs: &[&Run], m: &str| -> Vec<f64> {
                runs.iter().filter_map(|r| r.value(m)).collect()
            };
            WorkloadCmp {
                workload: w.to_string(),
                digest_changes: ra
                    .iter()
                    .zip(&rb)
                    .filter(|(x, y)| x.seed == y.seed && x.digest != y.digest)
                    .count(),
                incorrect: ra.iter().chain(&rb).filter(|r| !r.correct).count(),
                metrics: END_TO_END
                    .iter()
                    .filter_map(|m| {
                        let (va, vb) = (values(&ra, m.name), values(&rb, m.name));
                        (!va.is_empty() && !vb.is_empty()).then(|| compare_metric(m, &va, &vb))
                    })
                    .collect(),
            }
        })
        .collect()
}

/// One row per workload, then one line per metric.
pub fn render(cmps: &[WorkloadCmp]) -> String {
    let mut s = String::new();
    for w in cmps {
        let verdicts: Vec<String> = w
            .metrics
            .iter()
            .map(|m| format!("{}={:?}", m.metric.name, m.verdict).to_lowercase())
            .collect();
        s.push_str(&format!(
            "{:<14} digest_changes={} incorrect={} {}\n",
            w.workload,
            w.digest_changes,
            w.incorrect,
            verdicts.join(" ")
        ));
        for m in &w.metrics {
            s.push_str(&format!(
                "    {:<12} A {} [{}, {}]  B {} [{}, {}]  {:+.1}%  wins {}/{}  bound {:.0}%\n",
                m.metric.name,
                show(m.a.median),
                show(m.a.q1),
                show(m.a.q3),
                show(m.b.median),
                show(m.b.q1),
                show(m.b.q3),
                m.worse_by * 100.0,
                m.wins,
                m.pairs,
                m.metric.bound * 100.0,
            ));
        }
    }
    s
}
