//! `san-mc trace` takes a trace file from outside the program. A trace
//! that is not a path of the model is refused at its first event the
//! model does not enable: the CLI names it, exits 1 and does not go on
//! to the simulator.

use std::process::{Command, Output};

use san_mc::{check, to_lines, CheckOpts, McConfig};
use san_telemetry::Telemetry;

/// Run `san-mc trace <cfg> <file> --sim` on `text`.
fn replay(cfg: &str, name: &str, text: &str) -> Output {
    let path = std::env::temp_dir().join(format!("san-mc-{}-{name}.trace", std::process::id()));
    std::fs::write(&path, text).expect("write the trace file");
    let out = Command::new(env!("CARGO_BIN_EXE_san-mc"))
        .args(["trace", cfg])
        .arg(&path)
        .arg("--sim")
        .output()
        .expect("run san-mc");
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn a_trace_off_the_model_exits_1_before_the_simulator() {
    for (name, text, event) in [
        (
            "empty-channel",
            "deliver-data 0 1 5\n".to_string(),
            "event 0 `deliver-data 0 1 5`",
        ),
        (
            "no-such-node",
            "post 0 7\n".to_string(),
            "event 0 `post 0 7`",
        ),
        (
            "too-many-posts",
            "post 0 1\n".repeat(14),
            "event 3 `post 0 1`",
        ),
    ] {
        let out = replay("tiny2", name, &text);
        assert_eq!(out.status.code(), Some(1), "{name}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            format!("model replay: {event} is not enabled; the trace is not a path of `tiny2`\n"),
            "{name}"
        );
    }
}

#[test]
fn the_leak2_counterexample_replays_on_model_and_simulator() {
    let r = check(&McConfig::leak2(), &CheckOpts::default(), &Telemetry::new());
    let cex = r.counterexample.expect("leak2 has a counterexample");
    let out = replay("leak2", "leak2", &to_lines(&cex.trace));
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("model replay: event 8 violates `descriptor-conservation`"),
        "{stdout}"
    );
    assert!(stdout.contains("sim replay: "), "{stdout}");
}
