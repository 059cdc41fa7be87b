//! `san-chaos replay` takes a repro file from outside the program. A plan
//! action naming a link its fabric lacks is refused before the trial runs:
//! the CLI names the file and the action and exits 1, the way it refuses a
//! repro that does not parse.

use std::process::Command;

use san_chaos::Campaign;
use san_telemetry::json::Json;

#[test]
fn a_plan_naming_a_missing_link_exits_1_before_running() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/campaigns/smoke.json"))
            .expect("read the smoke campaign");
    let trial = Campaign::parse(&text).expect("smoke parses").sample(0);
    let Json::Obj(mut kv) = trial.to_json() else {
        unreachable!("a trial serializes to an object")
    };
    for (k, v) in &mut kv {
        if k == "plan" {
            *v = Json::Arr(vec![Json::obj(vec![
                ("kind", "link_down".into()),
                ("at_ns", Json::Int(1_000_000)),
                ("link", Json::Int(999)),
            ])]);
        }
    }
    let path = std::env::temp_dir().join(format!("san-chaos-{}-link999.json", std::process::id()));
    std::fs::write(&path, Json::Obj(kv).pretty()).expect("write the repro");
    let out = Command::new(env!("CARGO_BIN_EXE_san-chaos"))
        .arg("replay")
        .arg(&path)
        .output()
        .expect("run san-chaos");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no trial ran");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!(
            "error: {}: plan[0] link_down: link 999 is not in topology pair\n",
            path.display()
        )
    );
}
