//! `san-mc` — exhaustive model checking of the protocol core.
//!
//! ```text
//! san-mc check [CONFIG ...] [--max-states N] [--max-depth N] [--liveness]
//!              [--smoke] [--trace-out FILE]
//! san-mc trace <CONFIG> <trace-file> [--sim]
//! san-mc stats [CONFIG ...]
//! san-mc list
//! ```
//!
//! `check` explores the named configurations (default: every preset)
//! and exits 0 iff each one verifies — exhaustively, with no violation.
//! `--smoke` is the CI gate: the 2-node exhaustive configs plus the
//! leak-knob config, which must *fail* with a `descriptor-conservation`
//! counterexample (the checker proving it still catches the PR 2 bug).
//! `trace` replays a serialized counterexample against the model (and,
//! with `--sim`, its environment schedule against the real simulator); it
//! exits 1 at the first event the model does not enable there.
//! `stats` prints per-config state-space sizes, the peak BFS frontier, the
//! visited set's bytes per state, the frontier's bytes per queued state
//! at its peak and throughput.

use std::process::ExitCode;

use san_mc::{check, CheckOpts, McConfig};
use san_telemetry::Telemetry;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  san-mc check [CONFIG ...] [--max-states N] [--max-depth N] [--liveness] \
         [--smoke] [--trace-out FILE]\n  san-mc trace <CONFIG> <trace-file> [--sim]\n  \
         san-mc stats [CONFIG ...]\n  san-mc list\nconfigs: {}",
        McConfig::presets()
            .iter()
            .map(|c| c.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("list") => cmd_list(),
        _ => usage(),
    }
}

/// Refuse configs the model cannot represent, naming the first one.
fn invalid(configs: &[McConfig]) -> Option<ExitCode> {
    let (cfg, e) = configs
        .iter()
        .find_map(|c| c.validate().err().map(|e| (c, e)))?;
    eprintln!("config `{}`: {e}", cfg.name);
    Some(ExitCode::from(2))
}

fn cmd_list() -> ExitCode {
    for cfg in McConfig::presets() {
        println!(
            "{:<8} nodes={} pool={} chan={} msgs={:?} faults(loss/dup/down/up/permfail/spurious)=\
             {}/{}/{}/{}/{}/{}{}",
            cfg.name,
            cfg.n_nodes,
            cfg.pool_capacity,
            cfg.chan_cap,
            cfg.messages,
            cfg.max_losses,
            cfg.max_dups,
            cfg.max_link_downs,
            cfg.max_link_ups,
            cfg.max_permfails,
            cfg.max_spurious,
            if cfg.knobs.leak_stale_retry_descs {
                " [leak knob ON]"
            } else {
                ""
            }
        );
    }
    ExitCode::SUCCESS
}

/// The invariant the smoke gate's leak canary must break.
const LEAK_INVARIANT: &str = "descriptor-conservation";

/// One line of verdict per config run: the counts, the peak frontier,
/// the visited set's bytes per state, the frontier's bytes per queued
/// state at its peak, the seconds and the verdict. With
/// `invariant` set, an expected counterexample must break that invariant.
fn report_line(
    r: &san_mc::CheckReport,
    expect_violation: bool,
    invariant: Option<&str>,
) -> (bool, String) {
    let verdict = match (&r.counterexample, r.truncated, expect_violation) {
        (Some(c), _, true) if invariant.is_some_and(|i| i != c.violation.invariant) => {
            (false, "WRONG-VIOLATION")
        }
        (Some(_), _, true) => (true, "FAIL-AS-EXPECTED"),
        (Some(_), _, false) => (false, "VIOLATION"),
        (None, true, _) => (false, "TRUNCATED"),
        (None, false, true) => (false, "EXPECTED-VIOLATION-MISSING"),
        (None, false, false) => (true, "VERIFIED"),
    };
    let line = format!(
        "{:<8} {:>9} states {:>10} transitions depth {:<3} dedup {:>9} frontier {:>7} {:>6.1} B/state {:>6.1} B/queued {:>8.2}s  {}",
        r.config,
        r.states,
        r.transitions,
        r.max_depth_seen,
        r.dedup_hits,
        r.frontier_peak,
        r.visited_bytes_per_state(),
        r.frontier_bytes_per_state(),
        r.elapsed_secs,
        verdict.1
    );
    (verdict.0, line)
}

fn cmd_check(args: &[String]) -> ExitCode {
    let mut names: Vec<String> = Vec::new();
    let mut opts = CheckOpts::default();
    let mut smoke = false;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-states" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.max_states = n,
                None => return usage(),
            },
            "--max-depth" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.max_depth = n,
                None => return usage(),
            },
            "--liveness" => opts.liveness = true,
            "--smoke" => smoke = true,
            "--trace-out" => match it.next() {
                Some(f) => trace_out = Some(f.clone()),
                None => return usage(),
            },
            name => names.push(name.to_string()),
        }
    }
    // The smoke gate: the exhaustive 2-node configs with liveness, plus
    // the leak config, which must break `descriptor-conservation`.
    let configs: Vec<McConfig> = if smoke {
        opts.liveness = true;
        ["tiny2", "wrap2", "leak2"]
            .iter()
            .map(|n| McConfig::by_name(n).expect("preset"))
            .collect()
    } else if names.is_empty() {
        McConfig::presets()
    } else {
        match names.iter().map(|n| McConfig::by_name(n)).collect() {
            Some(c) => c,
            None => return usage(),
        }
    };
    if let Some(code) = invalid(&configs) {
        return code;
    }

    let mut all_ok = true;
    for cfg in &configs {
        let tel = Telemetry::new();
        let expect_violation = cfg.knobs.leak_stale_retry_descs;
        // The smoke gate's leak canary runs without liveness: liveness
        // fails first on a shorter path, and would pass the canary even if
        // the leak stopped breaking conservation.
        let canary = smoke && expect_violation;
        let run_opts = CheckOpts {
            liveness: opts.liveness && !canary,
            ..opts.clone()
        };
        let report = check(cfg, &run_opts, &tel);
        let (ok, line) = report_line(&report, expect_violation, canary.then_some(LEAK_INVARIANT));
        println!("{line}");
        if let Some(cex) = &report.counterexample {
            if ok {
                println!(
                    "  (expected) `{}` via {} events",
                    cex.violation.invariant,
                    cex.trace.len()
                );
            } else {
                print!("{}", san_mc::render(cfg, &cex.violation, &cex.trace));
            }
            if let Some(path) = &trace_out {
                let file = format!("{path}.{}", cfg.name);
                if let Err(e) = std::fs::write(&file, san_mc::to_lines(&cex.trace)) {
                    eprintln!("  could not write {file}: {e}");
                } else {
                    println!("  trace written to {file}");
                }
            }
        }
        all_ok &= ok;
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let (name, file) = match (args.first(), args.get(1)) {
        (Some(n), Some(f)) => (n.as_str(), f.as_str()),
        _ => return usage(),
    };
    let on_sim = args.iter().any(|a| a == "--sim");
    let Some(cfg) = McConfig::by_name(name) else {
        return usage();
    };
    if let Some(code) = invalid(std::slice::from_ref(&cfg)) {
        return code;
    }
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match san_mc::from_lines(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let replay = match san_mc::replay_model(&cfg, &trace) {
        Ok(r) => r,
        Err(e) => {
            println!("model replay: {e}; the trace is not a path of `{name}`");
            return ExitCode::FAILURE;
        }
    };
    if replay.violations.is_empty() {
        println!("model replay: {} events, no violation", trace.len());
    } else {
        for (i, v) in &replay.violations {
            match i {
                Some(i) => println!(
                    "model replay: event {i} violates `{}`: {}",
                    v.invariant, v.detail
                ),
                None => println!(
                    "model replay: initial state violates `{}`: {}",
                    v.invariant, v.detail
                ),
            }
        }
    }
    if on_sim {
        let sim = san_mc::replay_on_sim(&cfg, &trace);
        println!(
            "sim replay: posted {} delivered {} failed {} pool-in-use {:?} drained {} -> {}",
            sim.posted,
            sim.delivered,
            sim.failed,
            sim.pool_in_use,
            sim.drained,
            if sim.conserved() {
                "conserved"
            } else {
                "NOT conserved"
            }
        );
    }
    ExitCode::SUCCESS
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let names: Vec<&str> = args.iter().map(String::as_str).collect();
    let configs: Vec<McConfig> = if names.is_empty() {
        McConfig::presets()
    } else {
        match names.iter().map(|n| McConfig::by_name(n)).collect() {
            Some(c) => c,
            None => return usage(),
        }
    };
    if let Some(code) = invalid(&configs) {
        return code;
    }
    println!(
        "{:<8} {:>10} {:>12} {:>7} {:>10} {:>9} {:>8} {:>9} {:>12} {:>9}",
        "config",
        "states",
        "transitions",
        "depth",
        "dedup",
        "frontier",
        "B/state",
        "B/queued",
        "states/sec",
        "seconds"
    );
    for cfg in &configs {
        let tel = Telemetry::new();
        let report = check(cfg, &CheckOpts::default(), &tel);
        println!(
            "{:<8} {:>10} {:>12} {:>7} {:>10} {:>9} {:>8.1} {:>9.1} {:>12} {:>9.2}",
            report.config,
            report.states,
            report.transitions,
            report.max_depth_seen,
            report.dedup_hits,
            report.frontier_peak,
            report.visited_bytes_per_state(),
            report.frontier_bytes_per_state(),
            tel.gauge("mc.states_per_sec").get(),
            report.elapsed_secs
        );
    }
    ExitCode::SUCCESS
}
