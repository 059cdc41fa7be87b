//! The metrics a run prints are exactly those `BENCHMARK.json` declares,
//! and the result line has the shape the benchmark contract fixes.

use san_chaos::Json;
use san_perf::bench::bench;
use san_perf::metrics::{MetricDef, END_TO_END, PER_LAYER};
use san_perf::{Params, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn assert_same(doc: &Json, key: &str, registry: &[MetricDef]) {
    let listed = declared(doc, key);
    assert_eq!(listed.len(), registry.len(), "{key}: count differs");
    for (j, m) in listed.iter().zip(registry) {
        let field = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or_default();
        assert_eq!(field("name"), m.name, "{key}: order or name differs");
        assert_eq!(field("unit"), m.unit, "{}: unit", m.name);
        assert_eq!(field("better"), m.better.as_str(), "{}: direction", m.name);
        if key == "end_to_end" {
            let bound = j.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, Some(m.bound), "{}: bound", m.name);
        }
    }
}

#[test]
fn registry_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_same(&doc, "end_to_end", END_TO_END);
    assert_same(&doc, "per_layer", PER_LAYER);
    let workloads: Vec<&str> = declared(&doc, "workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}

/// The metric names `w`'s result line carries. The span-coverage gate is
/// statistical and needs full-size runs, so traced callers pick a workload
/// without spans.
fn printed_names(w: Workload, traced: bool) -> Vec<String> {
    let p = Params {
        seed: 1,
        tiny: true,
    };
    let r = bench(w, &p, 0.0, traced);
    assert!(r.correct(), "{:?}", r.failures);
    let line = r.json_line();
    assert!(!line.contains('\n'), "the result is one line");
    let doc = Json::parse(&line).expect("result line parses");
    let Json::Obj(top) = &doc else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert!(doc.get("attempted").and_then(Json::as_u64) >= Some(1));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is an object")
    };
    for (name, m) in metrics {
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{name} = {v}");
        assert!(m.get("unit").and_then(Json::as_str).is_some());
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn untraced_run_prints_the_end_to_end_metrics() {
    let doc = benchmark_json();
    let want: Vec<&str> = declared(&doc, "end_to_end")
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(printed_names(Workload::Perm1024, false), want);
}

#[test]
fn traced_run_prints_the_per_layer_metrics() {
    let doc = benchmark_json();
    let want: Vec<&str> = declared(&doc, "per_layer")
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(printed_names(Workload::Fig6Sweep, true), want);
}
