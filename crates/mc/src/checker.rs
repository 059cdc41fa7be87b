//! Exhaustive breadth-first search over the model's reachable states.
//!
//! The visited set keys on the exact canonical byte encoding
//! ([`crate::model::encode_into`]) — no lossy hashing, so "visited" can
//! never be a collision artifact. It stores each key collapsed, as SPIN's
//! COLLAPSE mode does: every distinct key section once, and each state as
//! its tuple of section ids, so a state costs tens of bytes, not a boxed
//! key of over a hundred. BFS order means the first
//! counterexample found is a *shortest* one; the parent map reconstructs
//! its event list, which replays through [`crate::trace::replay_model`]
//! and (for environment-level events) [`crate::simreplay`].
//!
//! The frontier holds each discovered, unexpanded state as one exact
//! byte image ([`san_ft::image`]), not as a `SysState`: a popped image is
//! unpacked into one reused state and expanded from there. The image is
//! exact, not the canonical key. The key erases channel order under
//! reordering, absolute seqs and generations, pool slot ids and the
//! fields the model does not read yet; counterexample events and
//! violation details need all of them.

use std::collections::VecDeque;
use std::time::Instant;

use san_ft::image::{pack_into, unpack_from};
use san_telemetry::Telemetry;

use crate::invariant::check_state;
use crate::model::{
    apply_in_place, enabled_into, encode_into, McConfig, McEvent, SysState, Violation,
};
use crate::visited::Visited;

/// Search budgets and switches.
#[derive(Debug, Clone)]
pub struct CheckOpts {
    /// Stop (truncated) after visiting this many distinct states.
    pub max_states: usize,
    /// Do not expand states deeper than this.
    pub max_depth: usize,
    /// Also check liveness: from every visited state, the fair recovery
    /// schedule must reach quiescence within a bounded number of steps.
    pub liveness: bool,
}

impl Default for CheckOpts {
    fn default() -> Self {
        Self {
            max_states: 20_000_000,
            max_depth: usize::MAX,
            liveness: false,
        }
    }
}

/// A violation plus the shortest event path that reaches it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What broke.
    pub violation: Violation,
    /// Events from the initial state up to and including the breaking
    /// transition (for state-level violations, up to the bad state).
    pub trace: Vec<McEvent>,
}

/// The outcome of one search.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Config name.
    pub config: String,
    /// Distinct canonical states visited.
    pub states: usize,
    /// Transitions explored (edges, including duplicates).
    pub transitions: usize,
    /// Transitions that landed on an already-visited state.
    pub dedup_hits: usize,
    /// Deepest BFS level reached.
    pub max_depth_seen: usize,
    /// Largest BFS frontier: the queue length after each completed
    /// expansion, starting at 1 for the initial state (0 when the initial
    /// state already violates an invariant).
    pub frontier_peak: usize,
    /// True when a budget stopped the search before exhaustion.
    pub truncated: bool,
    /// Bytes the visited set holds at the end: its section and tuple
    /// arenas and its two tables.
    pub visited_bytes: usize,
    /// First (shortest) counterexample, if any.
    pub counterexample: Option<Counterexample>,
    /// Wall-clock seconds spent.
    pub elapsed_secs: f64,
}

impl CheckReport {
    /// Did the search complete with no violation?
    pub fn verified(&self) -> bool {
        self.counterexample.is_none() && !self.truncated
    }

    /// Bytes the visited set holds per distinct state.
    pub fn visited_bytes_per_state(&self) -> f64 {
        self.visited_bytes as f64 / self.states.max(1) as f64
    }
}

/// Parent-map entry: how state `id` was first reached.
struct Reached {
    parent: u32,
    via: McEvent,
    depth: u32,
}

/// Walk the parent map back from `id` to the root.
fn trace_to(reached: &[Option<Reached>], mut id: u32) -> Vec<McEvent> {
    let mut evs = Vec::new();
    while let Some(r) = &reached[id as usize] {
        evs.push(r.via);
        id = r.parent;
    }
    evs.reverse();
    evs
}

/// Exhaustively explore `cfg` under `opts`, streaming progress metrics
/// into `tel` (`mc.states`, `mc.transitions`, `mc.dedup` counters;
/// `mc.frontier`, `mc.depth`, `mc.states_per_sec` gauges).
pub fn check(cfg: &McConfig, opts: &CheckOpts, tel: &Telemetry) -> CheckReport {
    let t0 = Instant::now();
    let c_states = tel.counter("mc.states");
    let c_trans = tel.counter("mc.transitions");
    let c_dedup = tel.counter("mc.dedup");
    let g_frontier = tel.gauge("mc.frontier");
    let g_depth = tel.gauge("mc.depth");
    let g_rate = tel.gauge("mc.states_per_sec");

    let mut report = CheckReport {
        config: cfg.name.to_string(),
        states: 0,
        transitions: 0,
        dedup_hits: 0,
        max_depth_seen: 0,
        frontier_peak: 0,
        truncated: false,
        visited_bytes: 0,
        counterexample: None,
        elapsed_secs: 0.0,
    };

    if let Err(e) = cfg.validate() {
        panic!("invalid model-checker config `{}`: {e}", cfg.name);
    }
    // The state being expanded: each popped image is unpacked over it.
    let mut st = SysState::initial(cfg);
    // Invariants must hold in the initial state too.
    let init_viols = check_state(cfg, &st);
    let mut reached: Vec<Option<Reached>> = Vec::new();
    let mut frontier: VecDeque<(u32, Box<[u8]>)> = VecDeque::new();
    // Every transition is expanded into this one scratch successor and
    // encoded into one reused key; the visited set copies only the
    // sections it has not seen into its arenas, and only a state not seen
    // before gets an exact-size frontier image, so the ~84% of
    // transitions that land on a visited state allocate nothing.
    let mut succ = st.clone();
    let mut key: Vec<u8> = Vec::new();
    let mut cuts: Vec<usize> = Vec::new();
    let mut image: Vec<u8> = Vec::new();
    let mut evs: Vec<McEvent> = Vec::new();
    let mut actions = Vec::new();
    let mut viols: Vec<Violation> = Vec::new();
    encode_into(cfg, &st, &mut key, &mut cuts);
    let mut visited = Visited::new(cuts.len());
    visited.insert(&key, &cuts);
    reached.push(None);
    report.states = 1;
    c_states.hit();
    if let Some(v) = init_viols.into_iter().next() {
        report.counterexample = Some(Counterexample {
            violation: v,
            trace: Vec::new(),
        });
        report.visited_bytes = visited.bytes();
        report.elapsed_secs = t0.elapsed().as_secs_f64();
        return report;
    }
    pack_into(&st, &mut image);
    frontier.push_back((0, image.as_slice().into()));
    report.frontier_peak = 1;

    'search: while let Some((id, packed)) = frontier.pop_front() {
        unpack_from(&mut st, &packed);
        let depth = reached[id as usize].as_ref().map_or(0, |r| r.depth);
        report.max_depth_seen = report.max_depth_seen.max(depth as usize);
        if opts.liveness {
            if let Err(detail) = recovery_converges(cfg, &st) {
                report.counterexample = Some(Counterexample {
                    violation: Violation {
                        invariant: "liveness",
                        detail,
                    },
                    trace: trace_to(&reached, id),
                });
                break 'search;
            }
        }
        if depth as usize >= opts.max_depth {
            report.truncated = true;
            continue;
        }
        enabled_into(cfg, &st, &mut evs);
        for &ev in &evs {
            report.transitions += 1;
            c_trans.hit();
            succ.clone_from(&st);
            apply_in_place(cfg, &mut succ, &ev, &mut actions, &mut viols);
            viols.extend(check_state(cfg, &succ));
            if let Some(v) = viols.drain(..).next() {
                let mut trace = trace_to(&reached, id);
                trace.push(ev);
                report.counterexample = Some(Counterexample {
                    violation: v,
                    trace,
                });
                break 'search;
            }
            encode_into(cfg, &succ, &mut key, &mut cuts);
            if !visited.insert(&key, &cuts) {
                report.dedup_hits += 1;
                c_dedup.hit();
                continue;
            }
            let succ_id = reached.len() as u32;
            reached.push(Some(Reached {
                parent: id,
                via: ev,
                depth: depth + 1,
            }));
            report.states += 1;
            c_states.hit();
            if report.states.is_multiple_of(4096) {
                g_frontier.set(frontier.len() as i64);
                g_depth.set(depth as i64 + 1);
                let secs = t0.elapsed().as_secs_f64().max(1e-9);
                g_rate.set((report.states as f64 / secs) as i64);
            }
            if report.states >= opts.max_states {
                report.truncated = true;
                break 'search;
            }
            pack_into(&succ, &mut image);
            frontier.push_back((succ_id, image.as_slice().into()));
        }
        report.frontier_peak = report.frontier_peak.max(frontier.len());
    }

    debug_assert_eq!(visited.len(), reached.len());
    report.visited_bytes = visited.bytes();
    report.elapsed_secs = t0.elapsed().as_secs_f64();
    g_frontier.set(frontier.len() as i64);
    g_depth.set(report.max_depth_seen as i64);
    g_rate.set((report.states as f64 / report.elapsed_secs.max(1e-9)) as i64);
    report
}

/// Bound on deterministic recovery steps before declaring non-convergence.
const RECOVERY_STEP_BOUND: usize = 20_000;

/// The fair recovery schedule: raise every link, then repeatedly take the
/// highest-priority enabled recovery move (retry timers fire, mapping
/// succeeds, the network delivers everything, scan timers fire). This is
/// the fairness assumption of the liveness theorem made executable: if
/// faults stop and timers keep firing, every posted message is delivered
/// or failed and the system drains.
///
/// Returns `Err(description)` when quiescence is not reached within
/// [`RECOVERY_STEP_BOUND`] steps.
pub fn recovery_converges(cfg: &McConfig, st: &SysState) -> Result<(), String> {
    let mut st = st.clone();
    // Fairness: the fault episode ends — all links come back.
    for ch in &mut st.chans {
        ch.up = true;
    }
    // Transition-level violations are the safety search's business; the
    // recovery schedule only asks whether the system drains.
    let (mut actions, mut ignored) = (Vec::new(), Vec::new());
    for step in 0..RECOVERY_STEP_BOUND {
        match recovery_next(cfg, &st) {
            None => {
                return check_quiescent(cfg, &st)
                    .map_err(|e| format!("stuck after {step} steps: {e}"));
            }
            Some(ev) => {
                apply_in_place(cfg, &mut st, &ev, &mut actions, &mut ignored);
                ignored.clear();
            }
        }
    }
    Err(format!(
        "no quiescence within {RECOVERY_STEP_BOUND} recovery steps"
    ))
}

/// The highest-priority enabled recovery move, or `None` at quiescence.
fn recovery_next(cfg: &McConfig, st: &SysState) -> Option<McEvent> {
    let n = cfg.n_nodes;
    // 1. Pending remap retries fire.
    for node in 0..n {
        for dst in 0..n {
            if node != dst && st.nodes[node].retry_pending[dst] {
                return Some(McEvent::RetryFire {
                    node: node as u8,
                    dst: dst as u8,
                });
            }
        }
    }
    // 2. Mapping runs succeed (links are up).
    for node in 0..n {
        for dst in 0..n {
            if node != dst && st.nodes[node].senders[dst].mapping {
                return Some(McEvent::Resolve {
                    node: node as u8,
                    dst: dst as u8,
                    found: true,
                });
            }
        }
    }
    // 3./4. The network delivers, FIFO.
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let ch = &st.chans[cfg.pair(src, dst)];
            if !ch.data.is_empty() {
                return Some(McEvent::DeliverData {
                    src: src as u8,
                    dst: dst as u8,
                    idx: 0,
                });
            }
            if !ch.acks.is_empty() {
                return Some(McEvent::DeliverAck {
                    src: src as u8,
                    dst: dst as u8,
                    idx: 0,
                });
            }
        }
    }
    // 5. Scan timers replay whatever is still unacknowledged.
    for node in 0..n {
        for dst in 0..n {
            if node == dst {
                continue;
            }
            let s = &st.nodes[node].senders[dst];
            if !s.retrans_q.is_empty() && !s.mapping {
                return Some(McEvent::Tick {
                    node: node as u8,
                    dst: dst as u8,
                });
            }
        }
    }
    None
}

/// Quiescence: nothing in flight, nothing queued, and every posted
/// message accounted as delivered or failed.
fn check_quiescent(cfg: &McConfig, st: &SysState) -> Result<(), String> {
    let n = cfg.n_nodes;
    for (who, node) in st.nodes.iter().enumerate() {
        if !node.pending.is_empty() {
            return Err(format!("node {who} still has pending descriptors"));
        }
        for dst in 0..n {
            if who == dst {
                continue;
            }
            if !node.held[dst].is_empty() {
                return Err(format!("node {who} still holds descriptors toward {dst}"));
            }
            if !node.senders[dst].retrans_q.is_empty() {
                return Err(format!("node {who} still queues packets toward {dst}"));
            }
            let p = cfg.pair(who, dst);
            for i in 0..st.posted[p] {
                let bit = 1u16 << i;
                if (st.delivered_mask[p] | st.failed_mask[p]) & bit == 0 {
                    return Err(format!(
                        "message {i} on pair {who}->{dst} neither delivered nor failed"
                    ));
                }
            }
        }
    }
    Ok(())
}
