//! Counterexample traces: render, serialize, and replay against the
//! model.
//!
//! A trace is just the BFS event path — a list of [`McEvent`]s. Because
//! the model is deterministic given the event sequence, replaying the
//! list from the initial state reproduces the violation exactly, and the
//! serialized form (one event per line) round-trips through
//! [`McEvent::to_line`]/[`McEvent::from_line`] so a failure printed by
//! CI can be re-run locally with `san-mc trace`. A trace file is outside
//! input, so the replay takes an event only when the model enables it.

use std::fmt;

use crate::invariant::check_state;
use crate::model::{apply, enabled, McConfig, McEvent, SysState, Violation};

/// Serialize a trace, one event per line.
pub fn to_lines(trace: &[McEvent]) -> String {
    let mut out = String::new();
    for ev in trace {
        out.push_str(&ev.to_line());
        out.push('\n');
    }
    out
}

/// Parse a serialized trace; lines that are empty or start with `#` are
/// skipped. Returns `Err` with the offending line on parse failure.
pub fn from_lines(text: &str) -> Result<Vec<McEvent>, String> {
    let mut evs = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match McEvent::from_line(line) {
            Some(ev) => evs.push(ev),
            None => return Err(format!("unparseable trace line: {line:?}")),
        }
    }
    Ok(evs)
}

/// The result of replaying a trace against the model.
#[derive(Debug)]
pub struct Replay {
    /// State after the last event.
    pub end: SysState,
    /// Every violation observed, tagged with the 0-based index of the
    /// event that triggered it (`None` for violations already present in
    /// the final state).
    pub violations: Vec<(Option<usize>, Violation)>,
}

/// The first event of a trace that the model does not enable in the
/// state the events before it reach: the trace is not a path of the
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotEnabled {
    /// 0-based index of the event in the trace.
    pub index: usize,
    /// The event.
    pub event: McEvent,
}

impl fmt::Display for NotEnabled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event {} `{}` is not enabled",
            self.index,
            self.event.to_line()
        )
    }
}

/// Replay `trace` from the initial state of `cfg`, collecting every
/// transition- and state-level violation along the way. Each event must
/// be one that [`enabled`] lists in the state reached so far; the replay
/// stops at the first that is not.
pub fn replay_model(cfg: &McConfig, trace: &[McEvent]) -> Result<Replay, NotEnabled> {
    let mut st = SysState::initial(cfg);
    let mut violations: Vec<(Option<usize>, Violation)> = check_state(cfg, &st)
        .into_iter()
        .map(|v| (None, v))
        .collect();
    for (i, ev) in trace.iter().enumerate() {
        if !enabled(cfg, &st).contains(ev) {
            return Err(NotEnabled {
                index: i,
                event: *ev,
            });
        }
        let (next, viols) = apply(cfg, &st, ev);
        for v in viols {
            violations.push((Some(i), v));
        }
        for v in check_state(cfg, &next) {
            violations.push((Some(i), v));
        }
        st = next;
    }
    Ok(Replay {
        end: st,
        violations,
    })
}

/// Human-readable rendering of a counterexample: numbered events, then
/// the violation.
pub fn render(cfg: &McConfig, violation: &Violation, trace: &[McEvent]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "counterexample in config `{}` ({} events):\n",
        cfg.name,
        trace.len()
    ));
    for (i, ev) in trace.iter().enumerate() {
        out.push_str(&format!("  {i:>3}. {}\n", ev.to_line()));
    }
    out.push_str(&format!(
        "violated invariant `{}`: {}\n",
        violation.invariant, violation.detail
    ));
    out
}
