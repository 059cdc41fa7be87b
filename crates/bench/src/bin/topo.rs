//! `topo`: the cross-topology routing study — fat-tree vs torus2d/3d vs
//! near-regular at comparable cost (128 hosts each), scoring the
//! family-selected [`RoutePlanner`] strategy against the generic
//! diverse-ECMP search and then exercising each fabric end to end:
//!
//! * **planning**: route-enumeration steps and achieved link-disjoint
//!   diversity at equal k over a host sample — the tori must come in at
//!   least 10× cheaper via symmetry templates, at diversity no worse;
//! * **fault survival**: how many healthy-fabric candidate sets still
//!   hold a live route after a spread of fabric links dies (the hint
//!   value proposition: alternates that survive need no replanning);
//! * **remap under traffic**: one on-route link killed under a reliable
//!   stream with family-planner hints offered — delivered count, probe
//!   cost and remap virtual time at the affected endpoints;
//! * **throughput**: the san-workload traffic engine offered over the
//!   same fabric — delivered goodput, delivery ratio and pooled p99.
//!
//! Output: aligned text, `#tsv` lines, and `BENCH_topo.json` (path
//! override: `--json <path>`). `--smoke` runs small fabrics as a
//! CI gate with hard assertions (strategy-selection pin, torus
//! planner step floor, diversity parity, fat-tree deep-signature
//! cold-start regression, stream completion) and writes no JSON.

use san_bench::tsv;
use san_fabric::engine::FabricEvent;
use san_fabric::updown::UpDownMap;
use san_fabric::{LinkId, NodeId, Route, RouteHints, Topology};
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::testkit::{inbox, Collector, StreamSender};
use san_nic::{Cluster, ClusterConfig, HostAgent, IdleHost};
use san_sim::{Duration, Time};
use san_topo::{planner_for, validate, GenericDiversePlanner, RoutePlanner, TopoSpec};
use san_workload::{run as run_workload, ArrivalSpec, DestSpec, RunConfig, SizeSpec, WorkloadSpec};

const HINT_K: usize = 4;
const MESSAGES: u64 = 200;
const BYTES: u32 = 2048;
const FAULT_LINKS: usize = 4;

/// One planned pair: the healthy-fabric candidate sets of both strategies.
struct PairPlan {
    src: NodeId,
    native: Vec<Route>,
    generic: Vec<Route>,
}

/// Planner-comparison aggregates over the host sample.
struct PlannerCmp {
    strategy: &'static str,
    pairs: usize,
    native_steps: u64,
    generic_steps: u64,
    native_disjoint: usize,
    generic_disjoint: usize,
    plans: Vec<PairPlan>,
}

/// Candidate survival under the dead-link spread.
struct FaultSurvival {
    dead_links: usize,
    pairs: usize,
    native_pairs_alive: usize,
    generic_pairs_alive: usize,
    native_alive_cands: usize,
    generic_alive_cands: usize,
}

/// The simulated one-link remap leg.
struct RemapRun {
    delivered: usize,
    host_probes: u64,
    switch_probes: u64,
    remap_ms: f64,
}

/// The san-workload throughput leg.
struct WorkloadLeg {
    offered: u64,
    delivered: u64,
    ratio: f64,
    mb_per_s: f64,
    p99_us: f64,
}

/// Everything measured for one fabric, in JSON order.
struct FabricReport {
    spec: String,
    class: &'static str,
    hosts: usize,
    switches: usize,
    links: usize,
    diameter: usize,
    planner: PlannerCmp,
    faults: FaultSurvival,
    remap: RemapRun,
    workload: WorkloadLeg,
}

fn trace_ok(topo: &Topology, a: NodeId, b: NodeId, r: &Route) -> bool {
    topo.trace_route(a, r, |_| true) == Some(san_fabric::Endpoint::Host(b))
}

/// Plan every ordered pair of the sample with both strategies, validating
/// every route and scoring steps + diversity.
fn compare_planners(spec: &TopoSpec, topo: &Topology, sample: &[NodeId]) -> PlannerCmp {
    let mut native = planner_for(spec);
    let mut generic = GenericDiversePlanner::new();
    let alive = |_: LinkId| true;
    let mut plans = Vec::new();
    let (mut nd, mut gd) = (0usize, 0usize);
    for &a in sample {
        for &b in sample {
            if a == b {
                continue;
            }
            let n = native.pair_routes(topo, a, b, HINT_K, &alive);
            let g = generic.pair_routes(topo, a, b, HINT_K, &alive);
            assert!(!n.is_empty(), "{}: {a}->{b} unplanned", spec.format());
            for r in n.iter().chain(g.iter()) {
                assert!(
                    trace_ok(topo, a, b, r),
                    "{}: bad route {r:?}",
                    spec.format()
                );
            }
            nd += validate::disjoint_count(topo, a, &n);
            gd += validate::disjoint_count(topo, a, &g);
            plans.push(PairPlan {
                src: a,
                native: n,
                generic: g,
            });
        }
    }
    PlannerCmp {
        strategy: native.id(),
        pairs: plans.len(),
        native_steps: native.steps(),
        generic_steps: generic.steps(),
        native_disjoint: nd,
        generic_disjoint: gd,
        plans,
    }
}

/// Kill a spread of survivable fabric links and count, per strategy, the
/// pairs whose healthy candidate set still holds a fully-alive route (no
/// replanning needed) plus the total alive candidates.
fn fault_survival(topo: &Topology, cmp: &PlannerCmp) -> FaultSurvival {
    let surv = validate::survivable_links(topo);
    let mut dead: Vec<LinkId> = (0..FAULT_LINKS.min(surv.len()))
        .map(|j| surv[j * surv.len() / FAULT_LINKS.min(surv.len()).max(1)])
        .collect();
    dead.dedup();
    let alive_route = |src: NodeId, r: &Route| {
        validate::route_links(topo, src, r)
            .map(|ls| ls.iter().all(|l| !dead.contains(l)))
            .unwrap_or(false)
    };
    let mut out = FaultSurvival {
        dead_links: dead.len(),
        pairs: cmp.plans.len(),
        native_pairs_alive: 0,
        generic_pairs_alive: 0,
        native_alive_cands: 0,
        generic_alive_cands: 0,
    };
    for p in &cmp.plans {
        let na = p.native.iter().filter(|r| alive_route(p.src, r)).count();
        let ga = p.generic.iter().filter(|r| alive_route(p.src, r)).count();
        out.native_alive_cands += na;
        out.generic_alive_cands += ga;
        out.native_pairs_alive += (na > 0) as usize;
        out.generic_pairs_alive += (ga > 0) as usize;
    }
    out
}

fn mapper_stats(cluster: &Cluster, node: usize) -> san_ft::MapStats {
    cluster.nics[node]
        .fw
        .as_any()
        .downcast_ref::<ReliableFirmware>()
        .expect("reliable firmware")
        .mapper_stats()
        .clone()
}

fn topo_mapper_cfg(topo: &Topology) -> MapperConfig {
    MapperConfig {
        max_ports: topo.max_switch_ports().max(1),
        max_switch_sightings: (topo.num_switches() * 4).max(64),
        loop_probe_window: 2,
        ..MapperConfig::default()
    }
}

/// Kill one switch-switch link of the installed route under a reliable
/// stream, with family-planner hints (provenance-tagged) pre-offered at
/// both endpoints. The pair stays connected by construction.
fn remap_under_stream(
    spec: &TopoSpec,
    topo: &Topology,
    n: usize,
    src: NodeId,
    dst: NodeId,
) -> RemapRun {
    // Cyclic fabrics need a deadlock-free installed table.
    let updown = !matches!(spec, TopoSpec::FatTree { .. });
    let installed = if updown {
        UpDownMap::build(topo, |_| true)
            .expect("switched fabric")
            .route(topo, src, dst, |_| true)
            .expect("pair routable")
    } else {
        topo.shortest_route(src, dst, |_| true)
            .expect("pair routable")
    };
    // First on-route fabric link whose death keeps the pair connected.
    let victim = validate::route_links(topo, src, &installed)
        .expect("installed route traces")
        .into_iter()
        .filter(|&l| {
            let link = topo.link(l);
            link.a.switch().is_some() && link.b.switch().is_some()
        })
        .find(|&l| topo.shortest_route(src, dst, |x| x != l).is_some())
        .expect("a survivable on-route link");

    let ib = inbox();
    let agents: Vec<Box<dyn HostAgent>> = (0..n)
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
    let proto = ProtocolConfig {
        perm_fail_threshold: Duration::from_millis(10),
        ..ProtocolConfig::default().with_mapping()
    };
    let mcfg = topo_mapper_cfg(topo);
    let mut cluster = Cluster::new(
        topo.clone(),
        ClusterConfig::default(),
        move |_| Box::new(ReliableFirmware::new(proto.clone(), mcfg.clone(), n)),
        agents,
    );
    if updown {
        cluster.install_updown_routes();
    } else {
        cluster.install_shortest_routes();
    }
    let mut planner = planner_for(spec);
    for (s, d) in [(src, dst), (dst, src)] {
        let routes = planner.pair_routes(topo, s, d, HINT_K, &|_| true);
        if let Some(fw) = cluster.nics[s.idx()]
            .fw
            .as_any_mut()
            .downcast_mut::<ReliableFirmware>()
        {
            fw.offer_route_hints(d, RouteHints::from_strategy(routes, planner.id(), 0, false));
        }
    }
    cluster.sim.schedule(
        Time::from_millis(2),
        FabricEvent::LinkDown { link: victim }.into(),
    );
    let deadline = Time::from_millis(400);
    let mut t = Time::from_millis(5);
    loop {
        cluster.run_until(t);
        if ib.borrow().len() >= MESSAGES as usize || t >= deadline {
            break;
        }
        t += Duration::from_millis(5);
    }
    let (ss, sd) = (
        mapper_stats(&cluster, src.idx()),
        mapper_stats(&cluster, dst.idx()),
    );
    let delivered = ib.borrow().len();
    RemapRun {
        delivered,
        host_probes: ss.host_probes.get() + sd.host_probes.get(),
        switch_probes: ss.switch_probes.get() + sd.switch_probes.get(),
        remap_ms: ss.last_time_ms.max(sd.last_time_ms),
    }
}

/// Offer the standard study workload over the fabric.
fn workload_leg(spec: &TopoSpec, smoke: bool) -> WorkloadLeg {
    let cfg = RunConfig {
        spec: WorkloadSpec {
            tenants: 4,
            arrival: ArrivalSpec::Poisson { rate: 2_000.0 },
            size: SizeSpec::Fixed(4_096),
            dest: DestSpec::Uniform,
            window_ms: if smoke { 2 } else { 5 },
            max_backlog: 4,
        },
        topo: *spec,
        seed: 0x7090_0001,
        adaptive: true,
        host_recovery: true,
        grace_ms: if smoke { 200 } else { 500 },
        ..RunConfig::default()
    };
    let r = run_workload(&cfg);
    WorkloadLeg {
        offered: r.offered_total,
        delivered: r.delivered_total,
        ratio: r.delivery_ratio(),
        mb_per_s: r.delivered_mb_per_s(),
        p99_us: r.p99_ns as f64 / 1e3,
    }
}

/// Cold-start regression (smoke only): a fat-tree cold start with deep
/// signatures must resolve past the old core-aliasing boundary.
fn coldstart_gate(topo: &Topology, n: usize) {
    let ib = inbox();
    let (src, dst) = (NodeId(0), NodeId(n as u16 - 1));
    let agents: Vec<Box<dyn HostAgent>> = (0..n)
        .map(|h| -> Box<dyn HostAgent> {
            if h == src.idx() {
                Box::new(StreamSender::new(dst, 64, 1))
            } else if h == dst.idx() {
                Box::new(Collector(ib.clone()))
            } else {
                Box::new(IdleHost)
            }
        })
        .collect();
    let proto = ProtocolConfig::default().with_mapping();
    let mut mcfg = topo_mapper_cfg(topo);
    mcfg.deep_signatures = true;
    let mut cluster = Cluster::new(
        topo.clone(),
        ClusterConfig::default(),
        move |_| Box::new(ReliableFirmware::new(proto.clone(), mcfg.clone(), n)),
        agents,
    );
    // Patience-paced exploration: several virtual seconds are legitimate.
    let deadline = Time::from_secs(30);
    let mut t = Time::from_millis(5);
    loop {
        cluster.run_until(t);
        let st = mapper_stats(&cluster, src.idx());
        if st.resolved.get() + st.unreachable.get() >= 1 || t >= deadline {
            assert_eq!(
                st.resolved.get(),
                1,
                "fat-tree cold start must resolve with deep signatures"
            );
            println!(
                "  cold-start gate: resolved after {} probes",
                st.host_probes.get() + st.switch_probes.get()
            );
            return;
        }
        t += Duration::from_millis(5);
    }
}

/// Strategy-selection pin (smoke only): the family planner for a fat-tree
/// is the generic strategy.
fn strategy_gate(spec: &TopoSpec) {
    assert_eq!(
        planner_for(spec).id(),
        "generic-diverse",
        "fat trees take the generic strategy"
    );
    println!("  strategy gate: fat trees take the generic-diverse planner");
}

fn run_fabric(spec: &TopoSpec, smoke: bool) -> FabricReport {
    let fab = spec.build();
    let survey = validate::check(&fab).expect("atlas fabric must validate");
    let topo = fab.topo.clone();
    let n = fab.hosts.len();
    println!(
        "== {} — {} hosts, {} switches, {} links, diameter {} hops",
        spec.format(),
        survey.hosts,
        survey.switches,
        survey.links,
        survey.diameter_hops
    );

    let sample = validate::sample_hosts(&fab.hosts, if smoke { 8 } else { 12 });
    let planner = compare_planners(spec, &topo, &sample);
    let ratio = planner.generic_steps as f64 / planner.native_steps.max(1) as f64;
    println!(
        "  planning ({} pairs, k={HINT_K}): {} {} steps vs generic {} ({:.1}x), \
         disjoint {} vs {}",
        planner.pairs,
        planner.strategy,
        planner.native_steps,
        planner.generic_steps,
        ratio,
        planner.native_disjoint,
        planner.generic_disjoint
    );
    if matches!(spec, TopoSpec::Torus2D { .. } | TopoSpec::Torus3D { .. }) {
        // The acceptance floor: symmetry templates beat the search by 10x
        // at study scale, never trading diversity away for it. On the tiny
        // smoke tori routes are so short that the one-time grid survey
        // dominates, so the smoke floor is 4x.
        let floor: u64 = if smoke { 4 } else { 10 };
        assert!(
            planner.native_steps * floor <= planner.generic_steps,
            "{}: torus-native must be >={floor}x cheaper (native {} generic {})",
            spec.format(),
            planner.native_steps,
            planner.generic_steps
        );
        assert!(
            planner.native_disjoint >= planner.generic_disjoint,
            "{}: torus-native diversity regressed",
            spec.format()
        );
    }

    let faults = fault_survival(&topo, &planner);
    println!(
        "  fault survival ({} dead links): native {}/{} pairs keep a live hint \
         ({} candidates), generic {}/{} ({})",
        faults.dead_links,
        faults.native_pairs_alive,
        faults.pairs,
        faults.native_alive_cands,
        faults.generic_pairs_alive,
        faults.pairs,
        faults.generic_alive_cands
    );

    let remap = remap_under_stream(spec, &topo, n, fab.hosts[0], *fab.hosts.last().unwrap());
    println!(
        "  remap under stream: {}/{} delivered, {} host + {} switch probes, remap {:.3} ms",
        remap.delivered, MESSAGES, remap.host_probes, remap.switch_probes, remap.remap_ms
    );
    assert!(
        remap.delivered >= MESSAGES as usize,
        "{}: stream must complete despite the on-route link failure ({}/{MESSAGES})",
        spec.format(),
        remap.delivered
    );

    let workload = workload_leg(spec, smoke);
    println!(
        "  workload: {}/{} delivered (ratio {:.4}), {:.1} MB/s, p99 {:.1} us",
        workload.delivered, workload.offered, workload.ratio, workload.mb_per_s, workload.p99_us
    );
    assert!(
        workload.delivered > 0,
        "{}: workload delivered nothing",
        spec.format()
    );

    if smoke && matches!(spec, TopoSpec::FatTree { .. }) {
        strategy_gate(spec);
        coldstart_gate(&topo, n);
    }

    tsv(&[
        "topo".into(),
        spec.format(),
        planner.strategy.into(),
        planner.native_steps.to_string(),
        planner.generic_steps.to_string(),
        planner.native_disjoint.to_string(),
        planner.generic_disjoint.to_string(),
        faults.native_pairs_alive.to_string(),
        faults.pairs.to_string(),
        remap.delivered.to_string(),
        (remap.host_probes + remap.switch_probes).to_string(),
        format!("{:.3}", remap.remap_ms),
        format!("{:.1}", workload.mb_per_s),
        format!("{:.4}", workload.ratio),
    ]);
    println!();
    FabricReport {
        spec: spec.format(),
        class: fab.class().name(),
        hosts: survey.hosts,
        switches: survey.switches,
        links: survey.links,
        diameter: survey.diameter_hops,
        planner,
        faults,
        remap,
        workload,
    }
}

fn jf(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

fn write_json(path: &str, mode: &str, reports: &[FabricReport]) {
    let mut s = format!("{{\n  \"bench\": \"topo\",\n  \"mode\": \"{mode}\",\n  \"k\": {HINT_K},\n  \"fabrics\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let p = &r.planner;
        let f = &r.faults;
        let m = &r.remap;
        let w = &r.workload;
        s.push_str(&format!(
            "    {{\"spec\": \"{}\", \"class\": \"{}\", \"hosts\": {}, \"switches\": {}, \"links\": {}, \"diameter_hops\": {},\n",
            r.spec, r.class, r.hosts, r.switches, r.links, r.diameter
        ));
        s.push_str(&format!(
            "     \"planner\": {{\"strategy\": \"{}\", \"pairs\": {}, \"native_steps\": {}, \"generic_steps\": {}, \"step_ratio\": {}, \"native_disjoint\": {}, \"generic_disjoint\": {}}},\n",
            p.strategy,
            p.pairs,
            p.native_steps,
            p.generic_steps,
            jf(p.generic_steps as f64 / p.native_steps.max(1) as f64),
            p.native_disjoint,
            p.generic_disjoint
        ));
        s.push_str(&format!(
            "     \"fault_survival\": {{\"dead_links\": {}, \"pairs\": {}, \"native_pairs_alive\": {}, \"generic_pairs_alive\": {}, \"native_alive_candidates\": {}, \"generic_alive_candidates\": {}}},\n",
            f.dead_links,
            f.pairs,
            f.native_pairs_alive,
            f.generic_pairs_alive,
            f.native_alive_cands,
            f.generic_alive_cands
        ));
        s.push_str(&format!(
            "     \"remap\": {{\"messages\": {}, \"delivered\": {}, \"host_probes\": {}, \"switch_probes\": {}, \"remap_ms\": {}}},\n",
            MESSAGES, m.delivered, m.host_probes, m.switch_probes, jf(m.remap_ms)
        ));
        s.push_str(&format!(
            "     \"workload\": {{\"offered_msgs\": {}, \"delivered_msgs\": {}, \"delivery_ratio\": {}, \"delivered_mb_per_s\": {}, \"p99_us\": {}}}}}{}\n",
            w.offered,
            w.delivered,
            jf(w.ratio),
            jf(w.mb_per_s),
            jf(w.p99_us),
            if i + 1 < reports.len() { "," } else { "" }
        ));
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
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_topo.json".into());
    let specs: Vec<&str> = if smoke {
        vec![
            "fat_tree:4",
            "torus2d:4x4x1",
            "torus3d:3x3x3x1",
            "regular:16x4x1:1",
        ]
    } else {
        vec![
            "fat_tree:8",
            "torus2d:8x8x2",
            "torus3d:4x4x4x2",
            "regular:64x4x2:1",
        ]
    };
    println!(
        "topo: cross-topology routing study, {} mode (k={HINT_K})\n",
        if smoke { "smoke" } else { "128-host" }
    );
    let mut reports = Vec::new();
    for s in specs {
        let spec = TopoSpec::parse(s).expect("atlas spec");
        reports.push(run_fabric(&spec, smoke));
    }
    if smoke {
        println!("topo smoke: OK");
    } else {
        write_json(&json_path, "full", &reports);
    }
}
