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

use san_bench::tsv;
use san_fabric::engine::FabricEvent;
use san_fabric::updown::UpDownMap;
use san_fabric::{Endpoint, LinkId, NodeId, Route, RouteHints, Topology};
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::testkit::{inbox, Collector, StreamSender};
use san_nic::{Cluster, ClusterConfig, HostAgent, IdleHost};
use san_sim::{Duration, Time};
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

fn topo_mapper_cfg(topo: &Topology) -> MapperConfig {
    MapperConfig {
        max_ports: topo.max_switch_ports().max(1),
        max_switch_sightings: (topo.num_switches() * 4).max(64),
        loop_probe_window: 2,
        ..MapperConfig::default()
    }
}

fn mapper_probes(cluster: &Cluster, node: usize) -> u64 {
    cluster.nics[node]
        .fw
        .as_any()
        .downcast_ref::<ReliableFirmware>()
        .map(|fw| {
            let st = fw.mapper_stats();
            st.host_probes.get() + st.switch_probes.get()
        })
        .unwrap_or(0)
}

/// Run the re-cable schedule under `policy`. `baseline_ms < 0` marks the
/// calibration run (no reconfiguration events at all).
#[allow(clippy::too_many_arguments)]
fn run_policy(
    topo0: &Topology,
    n: usize,
    src: NodeId,
    dst: NodeId,
    updown: bool,
    policy: Policy,
    baseline_ms: f64,
    calibrate: bool,
) -> RunResult {
    let tel = Telemetry::new();
    let ib = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = (0..n)
        .map(|h| -> Box<dyn HostAgent> {
            if h == src.idx() {
                Box::new(StreamSender::new(dst, BYTES, MESSAGES))
            } else if h == dst.idx() {
                Box::new(Collector(ib.clone()))
            } else {
                Box::new(IdleHost)
            }
        })
        .collect();
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
    let mcfg = topo_mapper_cfg(topo0);
    let mut cluster = Cluster::new(
        topo0.clone(),
        ClusterConfig {
            telemetry: tel.clone(),
            ..ClusterConfig::default()
        },
        move |_| Box::new(ReliableFirmware::new(proto.clone(), mcfg.clone(), n)),
        hosts,
    );
    if updown {
        cluster.install_updown_routes();
    } else {
        cluster.install_shortest_routes();
    }
    let installed = if updown {
        UpDownMap::build(topo0, |_| true)
            .expect("switched fabric")
            .route(topo0, src, dst, |_| true)
            .expect("pair routable")
    } else {
        topo0
            .shortest_route(src, dst, |_| true)
            .expect("pair routable")
    };
    let victim = pick_victim(topo0, src, dst, &installed);
    let wire = *topo0.link(victim);
    let grow_extra = free_pair(topo0);

    // Planner hints on the healthy fabric (scale_map's hinted on-demand).
    let mut planner = GenericDiversePlanner::new();
    if policy != Policy::Static {
        for (s, d) in [(src, dst), (dst, src)] {
            let cands = planner.pair_routes(topo0, s, d, HINT_K, &|_| true);
            if let Some(fw) = cluster.nics[s.idx()]
                .fw
                .as_any_mut()
                .downcast_mut::<ReliableFirmware>()
            {
                fw.offer_route_hints(d, RouteHints::from_strategy(cands, planner.id(), 0, false));
            }
        }
    }

    // The schedule: (announce) → detach → re-grow → diversity grow.
    let t0 = Time::from_millis(T0_MS);
    let step = Duration::from_millis(STEP_MS);
    if !calibrate {
        if policy == Policy::Incremental {
            cluster
                .sim
                .schedule(t0, FabricEvent::DrainLink { link: victim }.into());
        }
        cluster
            .sim
            .schedule(t0 + step, FabricEvent::RemoveLink { link: victim }.into());
        cluster.sim.schedule(
            t0 + step + step,
            FabricEvent::GrowLink {
                a: wire.a,
                b: wire.b,
            }
            .into(),
        );
        if let Some((a, b)) = grow_extra {
            cluster.sim.schedule(
                t0 + step + step + step,
                FabricEvent::GrowLink { a, b }.into(),
            );
        }
    }

    // Incremental control plane: a patched UP*/DOWN* map and a planner
    // cache migrated per fingerprint delta instead of rebuilt.
    let mut local_ud = UpDownMap::build(topo0, |_| true).expect("switched fabric");
    let mut cache = RouteCache::new(HINT_K);
    let replan_sample =
        validate::sample_hosts(&(0..n).map(|h| NodeId(h as u16)).collect::<Vec<_>>(), 12);
    cache.plan(topo0, &replan_sample, &[]);

    let full_probes_per_sweep: u64 = (0..topo0.num_switches())
        .map(|i| 2 * topo0.switch_ports(san_fabric::SwitchId(i as u16)) as u64)
        .sum();

    let mut out = RunResult::default();
    let mut seen_epochs = 0usize;
    let mut resteered = calibrate || policy != Policy::Incremental;
    let deadline = Time::from_millis(400);
    let slice = Duration::from_micros(500);
    let mut t = Time::ZERO + slice;
    let finish = loop {
        let now = cluster.run_until(t);

        // Drain announce: steer affected pairs off the draining link via
        // the drain-aware planner filter; in-flight traffic completes.
        if !resteered && now >= t0 {
            resteered = true;
            let c0 = Instant::now();
            for (s, d) in [(src, dst), (dst, src)] {
                let cands: Vec<Route> = {
                    let usable = cluster.engine.planner_filter();
                    planner.pair_routes(cluster.engine.topology(), s, d, HINT_K, &usable)
                };
                if let Some(first) = cands.first() {
                    cluster.nics[s.idx()].core.routes.set(d, *first);
                }
                let epoch = cluster.engine.reconfig_epoch();
                if let Some(fw) = cluster.nics[s.idx()]
                    .fw
                    .as_any_mut()
                    .downcast_mut::<ReliableFirmware>()
                {
                    fw.offer_route_hints(
                        d,
                        RouteHints::from_strategy(cands, planner.id(), epoch, false),
                    );
                }
            }
            out.ctrl_us += c0.elapsed().as_micros() as u64;
        }

        // Epoch advanced: run the policy's control plane.
        let log_len = cluster.engine.reconfig_log().len();
        if log_len > seen_epochs {
            match policy {
                Policy::Static => {
                    let c0 = Instant::now();
                    if updown {
                        cluster.install_updown_routes();
                    } else {
                        cluster.install_shortest_routes();
                    }
                    out.ctrl_us += c0.elapsed().as_micros() as u64;
                    out.probes += full_probes_per_sweep;
                    out.model_overhead_ms += topo0.num_switches() as f64 * 2.0 * 0.4;
                }
                Policy::OnDemand => {} // endpoints recover on their own
                Policy::Incremental => {
                    let c0 = Instant::now();
                    for e in seen_epochs..log_len {
                        let delta = cluster.engine.reconfig_log()[e].clone();
                        let topo = cluster.engine.topology().clone();
                        let alive = cluster.engine.alive_filter();
                        let ps = local_ud.patch(&topo, &alive, &delta.changed_switches);
                        out.patch_touched += ps.touched;
                        let rs = cache.replan_after(&topo, &delta, &replan_sample, &[]);
                        out.replan_kept += rs.kept_pairs;
                        out.replan_replanned += rs.replanned_pairs;
                    }
                    // Fresh failover hints through the current filter.
                    for (s, d) in [(src, dst), (dst, src)] {
                        let cands: Vec<Route> = {
                            let usable = cluster.engine.planner_filter();
                            planner.pair_routes(cluster.engine.topology(), s, d, HINT_K, &usable)
                        };
                        let epoch = cluster.engine.reconfig_epoch();
                        if let Some(fw) = cluster.nics[s.idx()]
                            .fw
                            .as_any_mut()
                            .downcast_mut::<ReliableFirmware>()
                        {
                            fw.offer_route_hints(
                                d,
                                RouteHints::from_strategy(cands, planner.id(), epoch, false),
                            );
                        }
                    }
                    out.ctrl_us += c0.elapsed().as_micros() as u64;
                }
            }
            seen_epochs = log_len;
        }

        if ib.borrow().len() >= MESSAGES as usize || t >= deadline {
            break now;
        }
        t += slice;
    };

    out.epochs = cluster.engine.reconfig_epoch();
    out.delivered = ib.borrow().len();
    out.finish_ms = finish.as_millis_f64();
    out.inflight_lost = tel.counter("reconfig.inflight_lost").get();
    if policy != Policy::Static {
        out.probes = mapper_probes(&cluster, src.idx()) + mapper_probes(&cluster, dst.idx());
    }
    if baseline_ms >= 0.0 {
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
    let n = fab.hosts.len();
    let (src, dst) = (fab.hosts[0], *fab.hosts.last().unwrap());
    let updown = matches!(
        spec,
        TopoSpec::Torus2D { .. } | TopoSpec::Torus3D { .. } | TopoSpec::Regular { .. }
    );
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
    let base = run_policy(&topo, n, src, dst, updown, Policy::OnDemand, -1.0, true);
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
        let r = run_policy(&topo, n, src, dst, updown, policy, base.finish_ms, false);
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
            st.probes > full_probes_sanity(&topo),
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

/// One full sweep of the scout model — the floor `static` must exceed.
fn full_probes_sanity(topo: &Topology) -> u64 {
    (0..topo.num_switches())
        .map(|i| 2 * topo.switch_ports(san_fabric::SwitchId(i as u16)) as u64)
        .sum()
}

fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".into()
    }
}

fn write_json(path: &str, reports: &[FabricReport]) {
    let mut s = String::from("{\n  \"bench\": \"reconfig\",\n");
    s.push_str(&format!(
        "  \"schedule\": \"drain@{T0_MS}ms (incremental only), detach@+{STEP_MS}ms, re-grow@+{}ms, diversity grow@+{}ms; {MESSAGES} x {BYTES}B stream\",\n",
        2 * STEP_MS,
        3 * STEP_MS
    ));
    s.push_str("  \"policies\": [\n");
    let total: usize = reports.iter().map(|f| f.results.len()).sum();
    let mut i = 0;
    for f in reports {
        for (p, r) in &f.results {
            i += 1;
            s.push_str(&format!(
                "    {{\"fabric\": \"{}\", \"policy\": \"{}\", \"epochs\": {}, \"probes\": {}, \"inflight_lost\": {}, \"delivered\": {}, \"time_to_stable_ms\": {}, \"sim_delay_ms\": {}, \"model_overhead_ms\": {}, \"patch_touched_switches\": {}, \"replan_kept_pairs\": {}, \"replan_replanned_pairs\": {}, \"ctrl_us\": {}}}{}\n",
                f.spec,
                p.name(),
                r.epochs,
                r.probes,
                r.inflight_lost,
                r.delivered,
                json_f(r.time_to_stable_ms),
                json_f(r.sim_delay_ms),
                json_f(r.model_overhead_ms),
                r.patch_touched,
                r.replan_kept,
                r.replan_replanned,
                r.ctrl_us,
                if i < total { "," } else { "" }
            ));
        }
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());
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
    match (smoke, json_path) {
        (false, p) => write_json(p.as_deref().unwrap_or("BENCH_reconfig.json"), &reports),
        (true, Some(p)) => write_json(&p, &reports),
        (true, None) => {}
    }
}
