//! `chaos_faults`: the fault-campaign workload.
//!
//! 200 trials of each of five curated campaigns (1000 in all), one at a
//! time: `permanent` (switch kills, on-demand remapping), `reincarnation_hot`
//! (generation bumps under retransmission storms), `recovery` (remap-budget
//! exhaustion, `SendFailed`, host re-posting), `reconfig` (live re-cabling
//! epochs) and `atlas_torus` (UP*/DOWN* on a cyclic fabric under flaps).
//! It is the only workload that runs the mapper, the 8192-event trace ring
//! and the invariant oracle; fabric work per trial is small. The campaign
//! files are copies kept with the benchmark, so editing the curated suite
//! does not change what is measured.

use san_chaos::runner::run_trial_traced;
use san_chaos::{oracle, Campaign, Trial};
use san_telemetry::TraceKind;
use san_topo::planner::planner_for;

use crate::pass::{add, timed, timed_setup, Params, Pass};
use crate::stats::Digest;

const CAMPAIGNS: [&str; 5] = [
    include_str!("../campaigns/permanent.json"),
    include_str!("../campaigns/reincarnation_hot.json"),
    include_str!("../campaigns/recovery.json"),
    include_str!("../campaigns/reconfig.json"),
    include_str!("../campaigns/atlas_torus.json"),
];

/// Parse the campaigns and sample every trial, interleaving the campaigns
/// so a burst of machine noise does not land on one campaign. Workload
/// seed 1 keeps each campaign's own seed; other seeds shift it.
fn sample_trials(p: &Params) -> Vec<Trial> {
    let per_campaign = if p.tiny { 2 } else { 200 };
    let shift = p.seed.wrapping_sub(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let campaigns: Vec<Campaign> = CAMPAIGNS
        .iter()
        .map(|text| {
            let mut c = Campaign::parse(text).expect("bundled campaign parses");
            c.seed = c.seed.wrapping_add(shift);
            c
        })
        .collect();
    (0..per_campaign)
        .flat_map(|i| campaigns.iter().map(move |c| c.sample(i)))
        .collect()
}

/// What a traced pass replays on each trial's outputs: the planner-hint
/// computation `san_chaos::runner` performs and the oracle's trace digest.
fn replay(trial: &Trial, scan: &san_telemetry::TraceScan, pass: &mut Pass) {
    let proto = trial.protocol;
    if proto.reliable && proto.mapping {
        let built = trial.topology.build();
        let pairs = match &trial.workload {
            Some(spec) => san_workload::potential_pairs(spec, &built.traffic_hosts),
            None => trial.traffic.pairs(&built),
        };
        let mut planner = planner_for(&trial.topology.atlas_spec());
        let (_, s) = timed(|| {
            for &(a, b) in &pairs {
                for (s, d) in [(a, b), (b, a)] {
                    std::hint::black_box(planner.pair_routes(&built.topo, s, d, 4, &|_| true));
                }
            }
        });
        add(&mut pass.layers, "topo.plan_ms", s * 1e3);
        add(&mut pass.layers, "topo.plan_steps", planner.steps() as f64);
    }
    let (_, s) = timed(|| std::hint::black_box(oracle::digest_trace(scan)));
    add(&mut pass.layers, "chaos.oracle_digest_ms", s * 1e3);
}

/// One pass over the 1000 trials (10 when tiny).
pub fn pass(p: &Params, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let (_, wall) = timed(|| {
        let (trials, setup) = timed_setup(|| sample_trials(p));
        pass.layers.insert("chaos.sample_ms", setup * 1e3);
        pass.setup_s.push(setup);
        let mut d = Digest::default();
        for trial in &trials {
            let ((outcome, scan), run) = timed(|| run_trial_traced(trial));
            pass.unit_s.push(run);
            pass.attempted += 1;
            let verdict = outcome.verdict_line();
            if !outcome.passed() {
                pass.fail(verdict.clone());
            }
            d.str(&verdict);
            let m = &mut pass.layers;
            add(m, "chaos.trial_ms", run * 1e3);
            add(m, "chaos.send_failed", outcome.send_failed as f64);
            add(m, "chaos.reconfig_epochs", outcome.reconfig_epochs as f64);
            add(m, "ft.generation_bumps", outcome.generation_bumps as f64);
            add(m, "ft.map_probes", scan.count(TraceKind::ProbeSent) as f64);
            add(m, "fabric.path_resets", outcome.path_resets as f64);
            add(m, "telemetry.trace_events", scan.events().len() as f64);
            add(m, "telemetry.truncated_events", scan.truncated as f64);
            add(
                m,
                "telemetry.truncated_trials",
                (scan.truncated > 0) as u8 as f64,
            );
            if traced {
                replay(trial, &scan, &mut pass);
            }
        }
        pass.digest = d;
    });
    pass.wall_s = wall;
    pass
}
