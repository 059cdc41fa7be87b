//! `mc_verify`: the model-checker workload.
//!
//! `san_mc::check` with default options on `bidir2` (260,276 states),
//! `incast3` (53,907) and `remap2` (18,424): the checker and the
//! `ProtocolStep` kernel only, no discrete-event simulation. Kernel,
//! symmetry and partial-order-reduction work moves it; simulator changes
//! cannot.
//!
//! `check` reports totals only. A traced pass runs [`traced_search`], a
//! breadth-first search over the same public model functions with spans
//! around each, which also measures the frontier peak. It must reach the
//! same counts as `check`, which the digest comparison enforces.

use std::collections::{HashSet, VecDeque};

use san_mc::{apply, check, check_state, enabled, encode, CheckOpts, McConfig, SysState};
use san_telemetry::Telemetry;

use crate::pass::{add, raise, timed, timed_setup, Params, Pass};
use crate::stats::{ratio, Digest};
use crate::trace::{calibrated, span, Layer, Sampler, SpanRef};

/// Totals of one exhaustive search.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Search {
    /// Distinct states visited.
    states: usize,
    /// Transitions explored.
    transitions: usize,
    /// Transitions that reached an already-visited state.
    dedup_hits: usize,
    /// Deepest breadth-first level.
    max_depth: usize,
    /// Largest frontier (traced search only; 0 from `check`).
    frontier_peak: usize,
    /// Exhaustive and violation-free.
    verified: bool,
}

fn configs(p: &Params) -> Vec<McConfig> {
    let names: &[&str] = if p.tiny {
        &["remap2"]
    } else {
        &["bidir2", "incast3", "remap2"]
    };
    names
        .iter()
        .map(|n| McConfig::by_name(n).expect("preset exists"))
        .collect()
}

/// The library checker with default options.
fn checked(cfg: &McConfig) -> Search {
    let r = check(cfg, &CheckOpts::default(), &Telemetry::new());
    Search {
        states: r.states,
        transitions: r.transitions,
        dedup_hits: r.dedup_hits,
        max_depth: r.max_depth_seen,
        frontier_peak: 0,
        verified: r.verified(),
    }
}

/// Breadth-first search over the model with spans around the kernel
/// (`enabled`, `apply`), the invariants, the encoding and the search
/// itself; one expansion in [`crate::trace::SAMPLE_EVERY`] is timed.
fn traced_search(cfg: &McConfig, spans: &SpanRef) -> Search {
    let mut sampler = Sampler::default();
    let mut out = Search::default();
    let init = SysState::initial(cfg);
    if !check_state(cfg, &init).is_empty() {
        return out;
    }
    let mut visited: HashSet<Vec<u8>> = HashSet::new();
    visited.insert(encode(cfg, &init));
    out.states = 1;
    let mut frontier: VecDeque<(usize, SysState)> = VecDeque::from([(0, init)]);
    out.frontier_peak = 1;
    loop {
        // The search span's self time is the checker's own machinery: the
        // frontier, the visited set, and dropping states.
        spans.borrow_mut().begin_event(sampler.next_weight());
        spans.borrow_mut().enter(Layer::McSearch);
        let Some((depth, st)) = frontier.pop_front() else {
            spans.borrow_mut().abandon(Layer::McSearch);
            break;
        };
        out.max_depth = out.max_depth.max(depth);
        for ev in span(spans, Layer::McKernel, || enabled(cfg, &st)) {
            out.transitions += 1;
            let (succ, viols) = span(spans, Layer::McKernel, || apply(cfg, &st, &ev));
            let bad = !viols.is_empty()
                || span(spans, Layer::McInvariant, || {
                    !check_state(cfg, &succ).is_empty()
                });
            if bad {
                spans.borrow_mut().exit();
                return out;
            }
            let key = span(spans, Layer::McEncode, || encode(cfg, &succ));
            if visited.insert(key) {
                out.states += 1;
                frontier.push_back((depth + 1, succ));
            } else {
                out.dedup_hits += 1;
            }
        }
        out.frontier_peak = out.frontier_peak.max(frontier.len());
        drop(st);
        spans.borrow_mut().exit();
    }
    out.verified = true;
    out
}

/// One pass: the three configs (`remap2` alone when tiny).
pub fn pass(p: &Params, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let (_, wall) = timed(|| {
        let (cfgs, setup) = timed_setup(|| configs(p));
        pass.setup_s.push(setup);
        let spans = calibrated();
        let mut d = Digest::default();
        for cfg in &cfgs {
            let (s, run) = if traced {
                timed(|| traced_search(cfg, &spans))
            } else {
                timed(|| checked(cfg))
            };
            pass.unit_s.push(run);
            pass.attempted += 1;
            if !s.verified {
                pass.fail(format!("mc_verify {}: not verified", cfg.name));
            }
            d.str(cfg.name);
            d.u64s(&[
                s.states as u64,
                s.transitions as u64,
                s.dedup_hits as u64,
                s.max_depth as u64,
                s.verified as u64,
            ]);
            let m = &mut pass.layers;
            add(m, "mc.states", s.states as f64);
            add(m, "mc.transitions", s.transitions as f64);
            add(m, "mc.dedup_hits", s.dedup_hits as f64);
            raise(m, "mc.max_depth", s.max_depth as f64);
            raise(m, "mc.frontier_peak", s.frontier_peak as f64);
            if traced {
                add(m, "spans.loop_ms", run * 1e3);
            }
        }
        pass.digest = d;
        let m = &mut pass.layers;
        let new = m["mc.transitions"] - m["mc.dedup_hits"];
        m.insert("mc.new_state_ratio", ratio(new, m["mc.transitions"]));
        if traced {
            let sp = spans.borrow();
            for (layer, name) in [
                (Layer::McKernel, "mc.kernel_ms"),
                (Layer::McInvariant, "mc.invariant_ms"),
                (Layer::McEncode, "mc.encode_ms"),
                (Layer::McSearch, "mc.search_ms"),
            ] {
                m.insert(name, sp.self_ms(layer));
            }
            m.insert("spans.covered_ms", sp.total_self_ms());
            m.insert("spans.timing_ms", sp.timing_ms());
        }
    });
    pass.wall_s = wall;
    pass
}
