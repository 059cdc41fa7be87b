//! Exhaustive verification results, pinned.
//!
//! These tests run the checker to exhaustion on the small configurations
//! and pin the outcomes: the exact state-space size of the canonical
//! config (any unintended change to the protocol kernel or the
//! canonicalizer moves this number), the exact equivalence of the
//! wrap-positioned config, the verdicts of the failure-model configs,
//! and the leak-knob counterexample with its model and simulator
//! replays.

use std::collections::{HashSet, VecDeque};

use san_fabric::fingerprint::Fnv;
use san_mc::{
    apply, check, enabled, encode, replay_model, replay_on_sim, CheckOpts, Frontier, McConfig,
    SysState,
};
use san_telemetry::Telemetry;

fn run(cfg: &McConfig, liveness: bool) -> san_mc::CheckReport {
    let opts = CheckOpts {
        liveness,
        ..CheckOpts::default()
    };
    check(cfg, &opts, &Telemetry::new())
}

/// The canonical 2-node config verifies exhaustively — including
/// liveness under the fair recovery schedule — and its state space is
/// exactly this big. A diff in the kernel, the adversary, or the
/// canonical encoding shows up here first.
#[test]
fn tiny2_exhaustive_and_pinned() {
    let r = run(&McConfig::tiny2(), true);
    assert!(r.verified(), "tiny2 must verify: {:?}", r.counterexample);
    assert_eq!(r.states, 37_705, "canonical state count moved");
    assert_eq!(r.transitions, 243_751, "canonical transition count moved");
}

/// Positioning every sequence number just below `u32::MAX` and the
/// generation at `u16::MAX` changes *nothing*: the canonicalizer encodes
/// all protocol values relative to per-pair bases, so the wrap-crossing
/// run collapses onto the identical state graph — same count, same
/// edges, same verdict. (This holds exactly because `tiny2` has no
/// mapping events; a generation bump resets absolute sequence numbers
/// and would make the graphs merely bisimilar, not identical.)
#[test]
fn wrap_positioning_is_invisible_to_the_checker() {
    let a = run(&McConfig::tiny2(), false);
    let b = run(&McConfig::wrap2(), false);
    assert!(a.verified() && b.verified());
    assert_eq!(a.states, b.states, "wrap2 state count diverged from tiny2");
    assert_eq!(a.transitions, b.transitions);
    assert_eq!(a.dedup_hits, b.dedup_hits);
    assert_eq!(a.max_depth_seen, b.max_depth_seen);
}

/// The full failure model — link death and repair, permanent-failure
/// suspicion, spurious mapping verdicts, remap retries — verifies, with
/// liveness.
#[test]
fn remap2_full_failure_model_verifies() {
    let r = run(&McConfig::remap2(), true);
    assert!(r.verified(), "remap2 must verify: {:?}", r.counterexample);
}

/// Two senders into one receiver: shared receiver, disjoint sequence
/// spaces per source pair.
#[test]
fn incast3_verifies() {
    let r = run(&McConfig::incast3(), false);
    assert!(r.verified(), "incast3 must verify: {:?}", r.counterexample);
}

/// The re-introduced PR 2 bug (stale remap retries dropping held
/// descriptors instead of requeueing them) is found by the checker in
/// well under a second of search, as a short shortest-path
/// counterexample violating descriptor conservation.
#[test]
fn leak_knob_yields_minimal_conservation_counterexample() {
    let cfg = McConfig::leak2();
    let r = run(&cfg, false);
    let cex = r
        .counterexample
        .expect("leak2 must produce a counterexample");
    assert!(
        cex.violation.invariant == "descriptor-conservation"
            || cex.violation.invariant == "descriptor-leak",
        "unexpected invariant: {}",
        cex.violation.invariant
    );
    assert!(
        cex.trace.len() <= 12,
        "BFS counterexample should be short, got {} events",
        cex.trace.len()
    );
    assert!(
        r.elapsed_secs < 30.0,
        "the leak must be found in seconds, took {:.1}s",
        r.elapsed_secs
    );

    // The trace is deterministic: replaying it reproduces the violation
    // at its final event.
    let replay = replay_model(&cfg, &cex.trace).expect("a checker trace is a path of its model");
    assert!(
        replay
            .violations
            .iter()
            .any(|(i, v)| *i == Some(cex.trace.len() - 1)
                && v.invariant == cex.violation.invariant),
        "replay must reproduce the violation: {:?}",
        replay.violations
    );

    // And it round-trips through the serialized form.
    let text = san_mc::to_lines(&cex.trace);
    assert_eq!(san_mc::from_lines(&text).unwrap(), cex.trace);

    // Without the knob, the identical trace is violation-free: the
    // counterexample indicts the bug, not the scenario.
    let fixed = McConfig::remap2();
    let clean = replay_model(&fixed, &cex.trace).expect("the leak trace is a path of remap2");
    assert!(
        clean.violations.is_empty(),
        "fixed model must survive the leak trace: {:?}",
        clean.violations
    );
}

/// The counterexample's environment schedule, replayed on the real
/// simulator running the *fixed* firmware, conserves descriptors and
/// drains — end-to-end evidence that the checker's finding is about the
/// re-introduced bug and that the production fix covers the exact
/// scenario the search discovered.
#[test]
fn leak_counterexample_environment_replays_clean_on_fixed_sim() {
    let cfg = McConfig::leak2();
    let r = run(&cfg, false);
    let cex = r
        .counterexample
        .expect("leak2 must produce a counterexample");
    let sim = replay_on_sim(&cfg, &cex.trace);
    assert!(
        sim.conserved(),
        "fixed firmware must conserve under the counterexample schedule: {sim:?}"
    );
    assert!(sim.posted > 0, "schedule must post traffic");
}

/// Budgets truncate instead of diverging: a one-state budget stops
/// immediately and reports truncation, never a spurious verdict.
#[test]
fn budgets_truncate_cleanly() {
    let cfg = McConfig::tiny2();
    let opts = CheckOpts {
        max_states: 10,
        ..CheckOpts::default()
    };
    let r = check(&cfg, &opts, &Telemetry::new());
    assert!(r.truncated);
    assert!(!r.verified());
    assert!(r.counterexample.is_none());
    let opts = CheckOpts {
        max_depth: 2,
        ..CheckOpts::default()
    };
    let r = check(&cfg, &opts, &Telemetry::new());
    assert!(r.truncated);
    assert!(r.counterexample.is_none());
}

/// Totals of [`reference_bfs`].
#[derive(Debug, PartialEq, Eq)]
struct Walk {
    states: usize,
    transitions: usize,
    dedup_hits: usize,
    /// FNV-1a over every new state's key, in discovery order.
    key_digest: u64,
}

/// Fold one key into `h`: its length, then its bytes as zero-padded
/// little-endian words.
fn fold_key(h: &mut Fnv, key: &[u8]) {
    h.u64(key.len() as u64);
    for chunk in key.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.u64(u64::from_le_bytes(word));
    }
}

/// A plain breadth-first search over the public, allocating model API
/// (`enabled`, `apply`, `encode`), independent of the checker's scratch
/// successor and collapsed frontier. Along the way it copies every newly
/// discovered state into two scratches that each hold the previous one:
/// one by `clone_from`, one by pushing the state onto a [`Frontier`] and
/// popping it, which unpacks only the image sections that differ from
/// the previous pop's. Both must print exactly like the source, and the
/// popped one must encode to the same key, so a field that `clone_from`
/// or the image skips, a container that unpacking fails to clear, or a
/// section that popping wrongly keeps, shows.
fn reference_bfs(cfg: &McConfig) -> Walk {
    let init = SysState::initial(cfg);
    let mut h = Fnv::new();
    let mut visited: HashSet<Vec<u8>> = HashSet::new();
    let key = encode(cfg, &init);
    fold_key(&mut h, &key);
    visited.insert(key);
    let mut copied = init.clone();
    let mut popped = init.clone();
    let mut queued = Frontier::new(cfg);
    let mut frontier = VecDeque::from([init]);
    let (mut transitions, mut dedup_hits) = (0, 0);
    while let Some(st) = frontier.pop_front() {
        for ev in enabled(cfg, &st) {
            transitions += 1;
            let (succ, viols) = apply(cfg, &st, &ev);
            assert!(viols.is_empty(), "{} violates {viols:?}", cfg.name);
            let key = encode(cfg, &succ);
            if visited.contains(&key) {
                dedup_hits += 1;
                continue;
            }
            fold_key(&mut h, &key);
            let printed = format!("{succ:?}");
            copied.clone_from(&succ);
            assert_eq!(format!("{copied:?}"), printed);
            queued.push(&succ);
            assert!(queued.pop(&mut popped), "a pushed state pops");
            assert_eq!(format!("{popped:?}"), printed);
            assert_eq!(encode(cfg, &popped), key);
            visited.insert(key);
            frontier.push_back(succ);
        }
    }
    Walk {
        states: visited.len(),
        transitions,
        dedup_hits,
        key_digest: h.finish(),
    }
}

/// The reference search must discover the same keys, byte for byte and
/// in the same order, as the allocating `Vec<Vec<u8>>` encoder did (the
/// digests were captured from it), and reach the checker's exact counts.
fn assert_reference_walk(cfg: &McConfig, key_digest: u64) {
    let walk = reference_bfs(cfg);
    let r = run(cfg, false);
    assert!(r.verified());
    let expected = Walk {
        states: r.states,
        transitions: r.transitions,
        dedup_hits: r.dedup_hits,
        key_digest,
    };
    assert_eq!(walk, expected, "{}", cfg.name);
}

/// tiny2 reorders, so its keys exercise the sorted channel records,
/// piggy-backed and plain packets mixed.
#[test]
fn tiny2_keys_match_the_reference_digest() {
    assert_reference_walk(&McConfig::tiny2(), 0xabf0_c78a_5a10_fe76);
}

/// wrap2 starts every seq at `u32::MAX - 1` and every generation at
/// `u16::MAX`, the longest varints in a frontier image. Its keys are
/// relative, so they digest exactly as tiny2's do.
#[test]
fn wrap2_keys_match_the_reference_digest() {
    assert_reference_walk(&McConfig::wrap2(), 0xabf0_c78a_5a10_fe76);
}

/// remap2 exercises link death, mapping, generation bumps and retries,
/// so its images carry held descriptors and retry state.
#[test]
fn remap2_keys_match_the_reference_digest() {
    assert_reference_walk(&McConfig::remap2(), 0x3c53_29b0_f323_bcdc);
}

/// The checker streams progress through the shared telemetry registry —
/// the counters must agree with the report.
#[test]
fn telemetry_counters_match_report() {
    let tel = Telemetry::new();
    let r = check(&McConfig::remap2(), &CheckOpts::default(), &tel);
    assert_eq!(tel.counter("mc.states").get(), r.states as u64);
    assert_eq!(tel.counter("mc.transitions").get(), r.transitions as u64);
    assert_eq!(tel.counter("mc.dedup").get(), r.dedup_hits as u64);
    assert!(tel.gauge("mc.states_per_sec").get() > 0);
}
