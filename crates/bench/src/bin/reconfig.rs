//! `reconfig`: the live-reconfiguration policy study — a planned re-cable
//! (drain → detach → re-grow, plus one diversity grow where ports allow)
//! executed under a continuous reliable stream, comparing three control
//! planes on the same event schedule:
//!
//! * **static**: a GM-style full remap. Every epoch the driver rebuilds
//!   and reinstalls the complete route table (measured wall-clock); probe
//!   cost and remap latency are charged by the deterministic scout model
//!   (2 probes per alive switch port, one 400 µs batch per switch). The
//!   removal is unannounced — in-flight wormholes on the link die.
//! * **ondemand**: the paper's §4.2 recovery — the removal is unannounced,
//!   the affected sender rides retransmission into a permanent-failure
//!   verdict and re-maps just that destination (planner-hinted, as in
//!   `scale_map`). Probes and remap time are measured in-simulation.
//! * **incremental**: DBR-style patching. The removal is *announced*
//!   (drain): the planner stops offering the link, affected pairs are
//!   re-steered onto alternates computed through the drain-aware filter,
//!   in-flight traffic completes, and the detach kills nothing. Each
//!   epoch's fingerprint delta drives `UpDownMap::patch` and
//!   `RouteCache::replan_after` (measured wall-clock, touched-region
//!   stats) instead of a global rebuild.
//!
//! Per fabric and policy the study reports reconfiguration epochs, probe
//! cost, packets-in-flight lost at detach, and time-to-stable (extra
//! stream-completion time over an undisturbed baseline, plus the scout
//! model for `static`). `--smoke` gates the small fabrics (fat_tree:4,
//! torus2d:4x4x1) with hard assertions; the default runs the 128-host
//! fabrics and writes `BENCH_reconfig.json` (`--json <path>` overrides).

use std::time::Instant;

use san_bench::{json_arg, tsv, write_bench, Routes, Stream, StreamRun};
use san_fabric::engine::FabricEvent;
use san_fabric::updown::UpDownMap;
use san_fabric::{Endpoint, LinkId, NodeId, Route, RouteHints, Topology};
use san_ft::{MapperConfig, ProtocolConfig};
use san_sim::{Duration, Time};
use san_telemetry::json::Json;
use san_telemetry::Telemetry;
use san_topo::{validate, GenericDiversePlanner, RouteCache, RoutePlanner, TopoSpec};

const MESSAGES: u64 = 400;
const BYTES: u32 = 2048;
const HINT_K: usize = 4;
/// First reconfiguration action (drain announce for `incremental`).
const T0_MS: u64 = 2;
/// Drain notice and inter-step spacing.
const STEP_MS: u64 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Policy {
    Static,
    OnDemand,
    Incremental,
}

impl Policy {
    fn name(self) -> &'static str {
        match self {
            Policy::Static => "static",
            Policy::OnDemand => "ondemand",
            Policy::Incremental => "incremental",
        }
    }
}

/// One policy run's ledger.
#[derive(Default)]
struct RunResult {
    epochs: u64,
    /// Probe cost: measured mapper probes, or the scout model for `static`.
    probes: u64,
    inflight_lost: u64,
    delivered: usize,
    /// Virtual stream-completion time (ms).
    finish_ms: f64,
    /// Extra completion time over the undisturbed baseline (ms).
    sim_delay_ms: f64,
    /// Modeled scout-sweep latency (`static` only, ms).
    model_overhead_ms: f64,
    /// sim_delay + model overhead.
    time_to_stable_ms: f64,
    /// Switches examined by the UP*/DOWN* patch (`incremental`).
    patch_touched: usize,
    /// Planner pairs carried byte-identically / recomputed (`incremental`).
    replan_kept: usize,
    replan_replanned: usize,
    /// Wall-clock control-plane work (reinstall or patch+replan, µs).
    ctrl_us: u64,
}

/// The victim of the re-cable: the first switch-to-switch link on the
/// installed route whose removal keeps the pair connected.
fn pick_victim(topo: &Topology, src: NodeId, dst: NodeId, installed: &Route) -> LinkId {
    let links = validate::route_links(topo, src, installed).unwrap_or_default();
    links
        .iter()
        .copied()
        .filter(|&l| {
            let link = topo.link(l);
            link.a.switch().is_some() && link.b.switch().is_some()
        })
        .find(|&l| topo.shortest_route(src, dst, |x| x != l).is_some())
        .expect("installed route must cross a survivable switch link")
}

/// Two free ports on distinct switches, if the fabric has them — the
/// diversity-grow step exercises live link *addition* where port budgets
/// allow (tori have spare ports; a fat-tree is fully wired and skips it).
fn free_pair(topo: &Topology) -> Option<(Endpoint, Endpoint)> {
    let mut first: Option<Endpoint> = None;
    for i in 0..topo.num_switches() {
        let s = san_fabric::SwitchId(i as u16);
        if let Some(p) = topo.free_port(s) {
            let ep = Endpoint::Switch(s, san_fabric::PortId(p));
            match first {
                None => first = Some(ep),
                Some(f) => return Some((f, ep)),
            }
        }
    }
    None
}

fn mapper_probes(run: &StreamRun, node: NodeId) -> u64 {
    let st = run.map_stats(node);
    st.host_probes.get() + st.switch_probes.get()
}

/// Plan both directions of the pair through the engine's drain-aware
/// filter and offer the candidates as hints tagged with the current
/// epoch. With `steer`, each end also loads its first candidate as the
/// route.
fn replan_pair(
    run: &mut StreamRun,
    planner: &mut GenericDiversePlanner,
    src: NodeId,
    dst: NodeId,
    steer: bool,
) {
    for (s, d) in [(src, dst), (dst, src)] {
        let cands: Vec<Route> = {
            let engine = &run.cluster.engine;
            let usable = engine.planner_filter();
            planner.pair_routes(engine.topology(), s, d, HINT_K, &usable)
        };
        if let Some(first) = cands.first().filter(|_| steer) {
            run.cluster.nics[s.idx()].core.routes.set(d, *first);
        }
        let epoch = run.cluster.engine.reconfig_epoch();
        run.offer_hints(
            s,
            d,
            RouteHints::from_strategy(cands, planner.id(), epoch, false),
        );
    }
}

/// Run the re-cable schedule under `policy`. `baseline_ms < 0` marks the
/// calibration run (no reconfiguration events at all).
fn run_policy(
    topo0: &Topology,
    src: NodeId,
    dst: NodeId,
    routes: Routes,
    policy: Policy,
    baseline_ms: f64,
) -> RunResult {
    let calibrate = baseline_ms < 0.0;
    let tel = Telemetry::new();
    // `static` has no mapper: recovery is the driver's full reinstall.
    // The mapped policies keep a tight permanent-failure verdict so the
    // unannounced removal actually forces an on-demand run (`ondemand`)
    // — the drained policy never reaches it.
    let proto = match policy {
        Policy::Static => ProtocolConfig {
            retx_timeout: Duration::from_micros(200),
            ..ProtocolConfig::default()
        },
        _ => ProtocolConfig {
            retx_timeout: Duration::from_micros(200),
            perm_fail_threshold: Duration::from_micros(500),
            ..ProtocolConfig::default().with_mapping()
        },
    };
    let stream = Stream {
        src,
        dst,
        count: MESSAGES,
        bytes: BYTES,
    };
    let mcfg = MapperConfig::for_topology(topo0);
    let mut run = StreamRun::new(topo0.clone(), stream, proto, mcfg, &tel);
    run.install(routes);
    let installed = routes.route(topo0, src, dst);
    let victim = pick_victim(topo0, src, dst, &installed);
    let wire = *topo0.link(victim);
    let grow_extra = free_pair(topo0);

    // Planner hints on the healthy fabric (scale_map's hinted on-demand).
    let mut planner = GenericDiversePlanner::new();
    if policy != Policy::Static {
        for (s, d) in [(src, dst), (dst, src)] {
            let cands = planner.pair_routes(topo0, s, d, HINT_K, &|_| true);
            run.offer_hints(
                s,
                d,
                RouteHints::from_strategy(cands, planner.id(), 0, false),
            );
        }
    }

    // The schedule: (announce) → detach → re-grow → diversity grow.
    let t0 = Time::from_millis(T0_MS);
    let step = Duration::from_millis(STEP_MS);
    if !calibrate {
        if policy == Policy::Incremental {
            run.schedule(t0, FabricEvent::DrainLink { link: victim });
        }
        run.schedule(t0 + step, FabricEvent::RemoveLink { link: victim });
        let (a, b) = (wire.a, wire.b);
        run.schedule(t0 + step + step, FabricEvent::GrowLink { a, b });
        if let Some((a, b)) = grow_extra {
            run.schedule(t0 + step + step + step, FabricEvent::GrowLink { a, b });
        }
    }

    // Incremental control plane: a patched UP*/DOWN* map and a planner
    // cache migrated per fingerprint delta instead of rebuilt.
    let n = topo0.num_hosts();
    let mut local_ud = UpDownMap::build(topo0, |_| true).expect("switched fabric");
    let mut cache = RouteCache::new(HINT_K);
    let replan_sample =
        validate::sample_hosts(&(0..n).map(|h| NodeId(h as u16)).collect::<Vec<_>>(), 12);
    cache.plan(topo0, &replan_sample, &[]);

    let full_probes_per_sweep = full_sweep_probes(topo0);

    let mut out = RunResult::default();
    let mut seen_epochs = 0usize;
    let mut resteered = calibrate || policy != Policy::Incremental;
    let slice = Duration::from_micros(500);
    let finish = run.run(slice, Time::from_millis(400), |run, now| {
        // Drain announce: steer affected pairs off the draining link via
        // the drain-aware planner filter; in-flight traffic completes.
        if !resteered && now >= t0 {
            resteered = true;
            let c0 = Instant::now();
            replan_pair(run, &mut planner, src, dst, true);
            out.ctrl_us += c0.elapsed().as_micros() as u64;
        }

        // Epoch advanced: run the policy's control plane.
        let log_len = run.cluster.engine.reconfig_log().len();
        if log_len > seen_epochs {
            match policy {
                Policy::Static => {
                    let c0 = Instant::now();
                    run.install(routes);
                    out.ctrl_us += c0.elapsed().as_micros() as u64;
                    out.probes += full_probes_per_sweep;
                    out.model_overhead_ms += topo0.num_switches() as f64 * 2.0 * 0.4;
                }
                Policy::OnDemand => {} // endpoints recover on their own
                Policy::Incremental => {
                    let c0 = Instant::now();
                    for e in seen_epochs..log_len {
                        let engine = &run.cluster.engine;
                        let delta = engine.reconfig_log()[e].clone();
                        let topo = engine.topology().clone();
                        let alive = engine.alive_filter();
                        let ps = local_ud.patch(&topo, &alive, &delta.changed_switches);
                        out.patch_touched += ps.touched;
                        let rs = cache.replan_after(&topo, &delta, &replan_sample, &[]);
                        out.replan_kept += rs.kept_pairs;
                        out.replan_replanned += rs.replanned_pairs;
                    }
                    // Fresh failover hints through the current filter.
                    replan_pair(run, &mut planner, src, dst, false);
                    out.ctrl_us += c0.elapsed().as_micros() as u64;
                }
            }
            seen_epochs = log_len;
        }
        run.delivered() >= MESSAGES as usize
    });

    out.epochs = run.cluster.engine.reconfig_epoch();
    out.delivered = run.delivered();
    out.finish_ms = finish.as_millis_f64();
    out.inflight_lost = tel.counter("reconfig.inflight_lost").get();
    if policy != Policy::Static {
        out.probes = mapper_probes(&run, src) + mapper_probes(&run, dst);
    }
    if !calibrate {
        out.sim_delay_ms = (out.finish_ms - baseline_ms).max(0.0);
        out.time_to_stable_ms = out.sim_delay_ms + out.model_overhead_ms;
    }
    out
}

struct FabricReport {
    spec: String,
    results: Vec<(Policy, RunResult)>,
}

fn run_fabric(spec: TopoSpec, smoke: bool) -> FabricReport {
    let fab = spec.build();
    let survey = validate::check(&fab).expect("atlas fabric must validate");
    let topo = fab.topo.clone();
    let (src, dst) = (fab.hosts[0], *fab.hosts.last().unwrap());
    let routes = Routes::for_spec(&spec);
    println!(
        "== {} — {} hosts, {} switches, {} links; re-cable one installed-route link{}",
        spec.format(),
        survey.hosts,
        survey.switches,
        survey.links,
        if free_pair(&topo).is_some() {
            " + one diversity grow"
        } else {
            ""
        }
    );

    // Undisturbed calibration run: the stream's natural completion time.
    let base = run_policy(&topo, src, dst, routes, Policy::OnDemand, -1.0);
    println!(
        "  baseline (no reconfiguration): {}/{} in {:.3} ms",
        base.delivered, MESSAGES, base.finish_ms
    );

    println!(
        "  {:<12} {:>7} {:>8} {:>7} {:>10} {:>10} {:>10} {:>9} {:>11} {:>8}",
        "policy",
        "epochs",
        "probes",
        "lost",
        "stable.ms",
        "sim.ms",
        "model.ms",
        "patch.sw",
        "kept/replan",
        "ctrl.us"
    );
    let mut results = Vec::new();
    for policy in [Policy::Static, Policy::OnDemand, Policy::Incremental] {
        let r = run_policy(&topo, src, dst, routes, policy, base.finish_ms);
        println!(
            "  {:<12} {:>7} {:>8} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>9} {:>6}/{:<4} {:>8}",
            policy.name(),
            r.epochs,
            r.probes,
            r.inflight_lost,
            r.time_to_stable_ms,
            r.sim_delay_ms,
            r.model_overhead_ms,
            r.patch_touched,
            r.replan_kept,
            r.replan_replanned,
            r.ctrl_us
        );
        tsv(&[
            "reconfig".into(),
            spec.format(),
            policy.name().into(),
            r.epochs.to_string(),
            r.probes.to_string(),
            r.inflight_lost.to_string(),
            format!("{:.3}", r.time_to_stable_ms),
            r.delivered.to_string(),
            r.patch_touched.to_string(),
            r.replan_kept.to_string(),
            r.replan_replanned.to_string(),
            r.ctrl_us.to_string(),
        ]);
        assert!(
            r.delivered >= MESSAGES as usize,
            "{} {}: stream must complete across the re-cable ({}/{MESSAGES})",
            spec.format(),
            policy.name(),
            r.delivered
        );
        assert!(
            r.epochs >= 2,
            "{} {}: detach + re-grow must seal epochs",
            spec.format(),
            policy.name()
        );
        results.push((policy, r));
    }

    if smoke {
        let get = |p: Policy| &results.iter().find(|(q, _)| *q == p).unwrap().1;
        let (st, od, inc) = (
            get(Policy::Static),
            get(Policy::OnDemand),
            get(Policy::Incremental),
        );
        assert_eq!(
            inc.inflight_lost, 0,
            "smoke: a drained detach must kill no in-flight packets"
        );
        assert_eq!(
            inc.probes, 0,
            "smoke: the drained path must never reach the mapper"
        );
        assert!(
            od.inflight_lost > 0,
            "smoke: the unannounced detach must cost in-flight packets"
        );
        assert!(
            od.probes > 0,
            "smoke: the unannounced detach must force an on-demand run"
        );
        assert!(
            st.probes > full_sweep_probes(&topo),
            "smoke: the scout model must charge a full sweep per epoch"
        );
        assert!(
            inc.time_to_stable_ms <= st.time_to_stable_ms,
            "smoke: patching must not be slower to stabilize than a full remap"
        );
        assert!(
            inc.patch_touched > 0,
            "smoke: the patch must have examined the changed region"
        );
        assert!(
            inc.replan_kept > 0,
            "smoke: untouched planner pairs must be carried, not recomputed"
        );
        println!("  smoke gates: OK");
    }
    println!();
    FabricReport {
        spec: spec.format(),
        results,
    }
}

/// One full sweep of the scout model: 2 probes per switch port.
fn full_sweep_probes(topo: &Topology) -> u64 {
    (0..topo.num_switches())
        .map(|i| 2 * topo.switch_ports(san_fabric::SwitchId(i as u16)) as u64)
        .sum()
}

/// `BENCH_reconfig.json`'s body: the event schedule and one record per
/// fabric and policy.
fn bench_body(reports: &[FabricReport]) -> Vec<(&'static str, Json)> {
    let policies = reports
        .iter()
        .flat_map(|f| f.results.iter().map(move |(p, r)| (f.spec.as_str(), p, r)))
        .map(|(spec, p, r)| {
            Json::obj(vec![
                ("fabric", spec.into()),
                ("policy", p.name().into()),
                ("epochs", r.epochs.into()),
                ("probes", r.probes.into()),
                ("inflight_lost", r.inflight_lost.into()),
                ("delivered", (r.delivered as u64).into()),
                ("time_to_stable_ms", r.time_to_stable_ms.into()),
                ("sim_delay_ms", r.sim_delay_ms.into()),
                ("model_overhead_ms", r.model_overhead_ms.into()),
                ("patch_touched_switches", (r.patch_touched as u64).into()),
                ("replan_kept_pairs", (r.replan_kept as u64).into()),
                ("replan_replanned_pairs", (r.replan_replanned as u64).into()),
                ("ctrl_us", r.ctrl_us.into()),
            ])
        })
        .collect();
    let schedule = format!(
        "drain@{T0_MS}ms (incremental only), detach@+{STEP_MS}ms, re-grow@+{}ms, \
         diversity grow@+{}ms; {MESSAGES} x {BYTES}B stream",
        2 * STEP_MS,
        3 * STEP_MS
    );
    vec![
        ("schedule", schedule.into()),
        ("policies", Json::Arr(policies)),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let specs: Vec<TopoSpec> = if smoke {
        vec![
            TopoSpec::FatTree { k: 4 },
            TopoSpec::Torus2D {
                rows: 4,
                cols: 4,
                hosts: 1,
            },
        ]
    } else {
        vec![
            TopoSpec::FatTree { k: 8 },
            TopoSpec::Torus2D {
                rows: 8,
                cols: 8,
                hosts: 2,
            },
        ]
    };
    println!(
        "reconfig: full static remap vs on-demand mapping vs incremental patching, {} mode",
        if smoke { "smoke" } else { "128-host" }
    );
    println!();
    let mut reports = Vec::new();
    for spec in specs {
        reports.push(run_fabric(spec, smoke));
    }
    println!("probe columns: `static` is the scout model (2 probes per switch");
    println!("port, one 400 us batch per switch, once per epoch); `ondemand` and");
    println!("`incremental` are mapper probes measured in-simulation. Lost =");
    println!("reconfig.inflight_lost (wormholes killed at detach). stable.ms =");
    println!("extra stream time over the undisturbed baseline + model overhead.");
    // The smoke run writes JSON only when asked to.
    let path = json_arg().or_else(|| (!smoke).then(|| "BENCH_reconfig.json".into()));
    if let Some(path) = path {
        write_bench(&path, "reconfig", bench_body(&reports));
    }
}
