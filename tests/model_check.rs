//! Tier-1 pins on the `san-mc` model checker: the exact state spaces
//! (counts, depth and peak frontier) of the canonical config and of the
//! failure-model config, and the leak-knob config's exact shortest
//! counterexample. A change to the protocol kernel, the adversary, the
//! canonical encoding or the search order moves one of them.

use san_mc::{check, from_lines, replay_model, to_lines, CheckOpts, McConfig};
use san_telemetry::Telemetry;

/// The shortest event path to the re-introduced stale-retry leak, in
/// BFS discovery order.
const LEAK2_TRACE: &str = "\
post 0 1
deliver-data 0 1 0
tick 0 1
deliver-data 0 1 0
permfail 0 1
post 0 1
resolve 0 1 0
deliver-ack 1 0 0
retry-fire 0 1
";

#[test]
fn tiny2_state_space_is_pinned() {
    let r = check(&McConfig::tiny2(), &CheckOpts::default(), &Telemetry::new());
    assert!(r.verified(), "tiny2 must verify: {:?}", r.counterexample);
    assert_eq!(r.states, 37_705, "states");
    assert_eq!(r.transitions, 243_751, "transitions");
    assert_eq!(r.dedup_hits, 206_047, "dedup hits");
    assert_eq!(r.max_depth_seen, 25, "depth");
    assert_eq!(r.frontier_peak, 6_063, "frontier peak");
}

/// remap2 adds the mapping half of the model: link death and repair,
/// permanent-failure suspicion, spurious verdicts and remap retries.
#[test]
fn remap2_state_space_is_pinned() {
    let r = check(
        &McConfig::remap2(),
        &CheckOpts::default(),
        &Telemetry::new(),
    );
    assert!(r.verified(), "remap2 must verify: {:?}", r.counterexample);
    assert_eq!(r.states, 18_424, "states");
    assert_eq!(r.transitions, 72_396, "transitions");
    assert_eq!(r.dedup_hits, 53_973, "dedup hits");
    assert_eq!(r.max_depth_seen, 21, "depth");
    assert_eq!(r.frontier_peak, 2_685, "frontier peak");
    // The visited set holds each state as a tuple of interned key
    // sections; remap2's keys alone average 131.9 bytes.
    let per_state = r.visited_bytes_per_state();
    assert!(per_state <= 64.0, "visited set: {per_state:.1} B/state");
}

#[test]
fn leak2_counterexample_is_pinned() {
    let r = check(&McConfig::leak2(), &CheckOpts::default(), &Telemetry::new());
    let cex = r
        .counterexample
        .expect("leak2 must produce a counterexample");
    assert_eq!(cex.violation.invariant, "descriptor-conservation");
    assert_eq!(
        cex.violation.detail,
        "pair 0->1: posted 2 but accounted 1 (pending 0, held 0, queued 0, completed 1, failed 0)"
    );
    assert_eq!(to_lines(&cex.trace), LEAK2_TRACE);
    // The pinned text is a path of leak2 and replays to the same
    // violation at its last event.
    let trace = from_lines(LEAK2_TRACE).expect("the pinned trace parses");
    let replay = replay_model(&McConfig::leak2(), &trace).expect("a path of leak2");
    assert!(
        replay
            .violations
            .iter()
            .any(|(i, v)| *i == Some(8) && v.invariant == "descriptor-conservation"),
        "{:?}",
        replay.violations
    );
}
