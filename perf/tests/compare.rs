//! The comparison rule on synthetic run sets.

use san_chaos::Json;
use san_perf::compare::{compare, compare_metric, Run, RunSet, Verdict};
use san_perf::metrics::END_TO_END;

fn metric(name: &str) -> &'static san_perf::metrics::MetricDef {
    END_TO_END.iter().find(|m| m.name == name).expect("metric")
}

/// Ten parent runs with a ~2% quartile spread around 100.
const PARENT: [f64; 10] = [
    99.0, 101.0, 100.0, 98.5, 101.5, 100.5, 99.5, 100.0, 102.0, 98.0,
];

fn scaled(k: f64) -> Vec<f64> {
    PARENT.iter().map(|x| x * k).collect()
}

#[test]
fn faster_on_every_pair_is_a_gain() {
    let c = compare_metric(metric("unit_ms_p50"), &PARENT, &scaled(0.9));
    assert_eq!(c.verdict, Verdict::Gain);
    assert_eq!((c.wins, c.pairs), (10, 10));
    assert!((c.worse_by + 0.1).abs() < 1e-9);
}

#[test]
fn slower_beyond_the_bound_is_a_regression() {
    let c = compare_metric(metric("wall_s"), &PARENT, &scaled(1.3));
    assert_eq!(c.verdict, Verdict::Regression);
    assert_eq!(c.wins, 0);
}

#[test]
fn within_the_bound_is_ok() {
    let c = compare_metric(metric("wall_s"), &PARENT, &scaled(1.05));
    assert_eq!(c.verdict, Verdict::Ok);
    // A median 1% better that does not clear the parent's own spread is
    // not a gain either.
    let c = compare_metric(metric("wall_s"), &PARENT, &scaled(0.99));
    assert_eq!(c.verdict, Verdict::Ok);
}

#[test]
fn parent_spread_wider_than_the_bound_is_unresolved() {
    let noisy = [
        60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 80.0, 120.0, 100.0,
    ];
    let c = compare_metric(metric("unit_ms_p50"), &noisy, &scaled(1.3));
    assert_eq!(c.verdict, Verdict::Unresolved);
    // ... unless every change run beats every parent run.
    let c = compare_metric(metric("unit_ms_p50"), &noisy, &scaled(0.5));
    assert_eq!(c.verdict, Verdict::Gain);
}

#[test]
fn higher_is_better_metrics_flip_the_direction() {
    let def = san_perf::metrics::MetricDef {
        name: "throughput",
        unit: "1/s",
        better: san_perf::metrics::Better::Higher,
        bound: 0.1,
    };
    let def: &'static _ = Box::leak(Box::new(def));
    assert_eq!(
        compare_metric(def, &PARENT, &scaled(1.2)).verdict,
        Verdict::Gain
    );
    assert_eq!(
        compare_metric(def, &PARENT, &scaled(0.8)).verdict,
        Verdict::Regression
    );
}

fn run_set(workload: &str, k: f64, digest: &str) -> RunSet {
    RunSet {
        runs: PARENT
            .iter()
            .enumerate()
            .map(|(i, &x)| Run {
                workload: workload.into(),
                seed: i as u64 + 1,
                correct: true,
                digest: digest.into(),
                metrics: END_TO_END
                    .iter()
                    .map(|m| (m.name.to_string(), x * k))
                    .collect(),
            })
            .collect(),
    }
}

#[test]
fn workloads_are_compared_row_by_row_with_digest_changes() {
    let mut a = run_set("perm1024", 1.0, "0x1");
    a.runs.extend(run_set("mc_verify", 1.0, "0x2").runs);
    let mut b = run_set("perm1024", 0.8, "0x1");
    b.runs.extend(run_set("mc_verify", 1.0, "0x3").runs);
    let rows = compare(&a, &b);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].workload, "perm1024");
    assert_eq!(rows[0].digest_changes, 0);
    assert!(rows[0].metrics.iter().all(|m| m.verdict == Verdict::Gain));
    assert_eq!(rows[1].digest_changes, 10);
    assert!(rows[1].metrics.iter().all(|m| m.verdict == Verdict::Ok));
    assert_eq!(rows[0].metrics.len(), END_TO_END.len());
}

#[test]
fn run_sets_round_trip_through_json() {
    let a = run_set("fig6_sweep", 1.5, "0xabc");
    let text = a.to_json().pretty();
    let back = RunSet::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(a, back);
    assert!(RunSet::from_json(&Json::parse("{}").unwrap()).is_err());
}
