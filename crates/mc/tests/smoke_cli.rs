//! `san-mc check --smoke` is the CI gate. Its leak canary, leak2, counts
//! only when the counterexample breaks `descriptor-conservation` — the
//! invariant the re-introduced descriptor leak violates — and not when a
//! shorter liveness counterexample would stand in for it.

use std::process::Command;

#[test]
fn smoke_canary_must_break_descriptor_conservation() {
    let out = Command::new(env!("CARGO_BIN_EXE_san-mc"))
        .args(["check", "--smoke"])
        .output()
        .expect("run san-mc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    for (line, cfg) in lines.iter().zip(["tiny2", "wrap2"]) {
        assert!(
            line.starts_with(cfg) && line.ends_with("VERIFIED"),
            "{line}"
        );
    }
    assert!(
        lines[2].starts_with("leak2") && lines[2].ends_with("FAIL-AS-EXPECTED"),
        "{}",
        lines[2]
    );
    assert_eq!(
        lines[3],
        "  (expected) `descriptor-conservation` via 9 events"
    );
}
