//! Every `BENCH_*.json` artifact at the repository root parses with the
//! workspace's JSON module and names the bench and command that produced
//! it. The files `san_bench::write_bench` writes also lead with the commit,
//! the core count and the build profile.

use std::path::Path;

use san_telemetry::json::Json;

/// The artifacts written by `san_bench::write_bench`.
const WRITER_MADE: [&str; 4] = [
    "BENCH_engine.json",
    "BENCH_reconfig.json",
    "BENCH_topo.json",
    "BENCH_workload.json",
];

/// Every root `BENCH_*.json`, parsed, in name order.
fn artifacts() -> Vec<(String, Json)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root).expect("the repository root is readable") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let text = std::fs::read_to_string(root.join(&name)).unwrap();
            let json = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            out.push((name, json));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn every_artifact_parses_and_names_its_bench_and_command() {
    let all = artifacts();
    for name in WRITER_MADE {
        assert!(all.iter().any(|(n, _)| n == name), "{name} is missing");
    }
    for (name, json) in &all {
        for key in ["bench", "command"] {
            assert!(
                json.get(key).and_then(Json::as_str).is_some(),
                "{name}: no string `{key}`"
            );
        }
    }
}

#[test]
fn writer_made_artifacts_lead_with_the_provenance_header() {
    for (name, json) in artifacts() {
        if !WRITER_MADE.contains(&name.as_str()) {
            continue;
        }
        let Json::Obj(fields) = &json else {
            panic!("{name}: not a JSON object")
        };
        let header: Vec<&str> = fields.iter().take(5).map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            header,
            ["bench", "command", "commit", "nproc", "profile"],
            "{name}"
        );
        let commit = json.get("commit").and_then(Json::as_str);
        assert!(commit.is_some_and(|c| !c.is_empty()), "{name}: commit");
        let nproc = json.get("nproc").and_then(Json::as_u64);
        assert!(nproc.is_some_and(|n| n >= 1), "{name}: nproc");
        let profile = json.get("profile").and_then(Json::as_str);
        assert!(
            matches!(profile, Some("release" | "debug")),
            "{name}: profile"
        );
    }
}
