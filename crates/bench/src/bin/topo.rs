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

use san_bench::{
    cold_start, json_arg, remap_under_stream, tsv, write_bench, Remap, Routes, Stream,
};
use san_fabric::engine::FabricEvent;
use san_fabric::{LinkId, NodeId, Route, RouteHints, Topology};
use san_telemetry::json::Json;
use san_telemetry::Telemetry;
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
    remap: Remap,
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

/// Kill one switch-switch link of the installed route under a reliable
/// stream, with family-planner hints (provenance-tagged) pre-offered at
/// both endpoints. The pair stays connected by construction.
fn remap_one_link(spec: &TopoSpec, topo: &Topology, src: NodeId, dst: NodeId) -> Remap {
    let routes = Routes::for_spec(spec);
    let installed = routes.route(topo, src, dst);
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
    let mut planner = planner_for(spec);
    let hints: Vec<(NodeId, NodeId, RouteHints)> = [(src, dst), (dst, src)]
        .into_iter()
        .map(|(s, d)| {
            let routes = planner.pair_routes(topo, s, d, HINT_K, &|_| true);
            (
                s,
                d,
                RouteHints::from_strategy(routes, planner.id(), 0, false),
            )
        })
        .collect();
    let stream = Stream {
        src,
        dst,
        count: MESSAGES,
        bytes: BYTES,
    };
    let faults = [FabricEvent::LinkDown { link: victim }];
    remap_under_stream(topo, stream, routes, &hints, &faults, &Telemetry::new())
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
fn coldstart_gate(topo: &Topology, src: NodeId, dst: NodeId) {
    let cold = cold_start(topo, src, dst, true);
    assert_eq!(
        cold.resolved, 1,
        "fat-tree cold start must resolve with deep signatures"
    );
    println!("  cold-start gate: resolved after {} probes", cold.probes);
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

    let (src, dst) = (fab.hosts[0], *fab.hosts.last().unwrap());
    let remap = remap_one_link(spec, &topo, src, dst);
    println!(
        "  remap under stream: {}/{} delivered, {} host + {} switch probes, remap {:.3} ms",
        remap.delivered,
        MESSAGES,
        remap.host_probes(),
        remap.switch_probes(),
        remap.remap_ms()
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
        coldstart_gate(&topo, src, dst);
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
        (remap.host_probes() + remap.switch_probes()).to_string(),
        format!("{:.3}", remap.remap_ms()),
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

/// `BENCH_topo.json`'s body: the run mode, the hint fan-out and one
/// record per fabric.
fn bench_body(mode: &str, reports: &[FabricReport]) -> Vec<(&'static str, Json)> {
    let count = |n: usize| Json::from(n as u64);
    let fabrics = reports
        .iter()
        .map(|r| {
            let (p, f, m, w) = (&r.planner, &r.faults, &r.remap, &r.workload);
            Json::obj(vec![
                ("spec", r.spec.as_str().into()),
                ("class", r.class.into()),
                ("hosts", count(r.hosts)),
                ("switches", count(r.switches)),
                ("links", count(r.links)),
                ("diameter_hops", count(r.diameter)),
                (
                    "planner",
                    Json::obj(vec![
                        ("strategy", p.strategy.into()),
                        ("pairs", count(p.pairs)),
                        ("native_steps", p.native_steps.into()),
                        ("generic_steps", p.generic_steps.into()),
                        (
                            "step_ratio",
                            (p.generic_steps as f64 / p.native_steps.max(1) as f64).into(),
                        ),
                        ("native_disjoint", count(p.native_disjoint)),
                        ("generic_disjoint", count(p.generic_disjoint)),
                    ]),
                ),
                (
                    "fault_survival",
                    Json::obj(vec![
                        ("dead_links", count(f.dead_links)),
                        ("pairs", count(f.pairs)),
                        ("native_pairs_alive", count(f.native_pairs_alive)),
                        ("generic_pairs_alive", count(f.generic_pairs_alive)),
                        ("native_alive_candidates", count(f.native_alive_cands)),
                        ("generic_alive_candidates", count(f.generic_alive_cands)),
                    ]),
                ),
                (
                    "remap",
                    Json::obj(vec![
                        ("messages", MESSAGES.into()),
                        ("delivered", count(m.delivered)),
                        ("host_probes", m.host_probes().into()),
                        ("switch_probes", m.switch_probes().into()),
                        ("remap_ms", m.remap_ms().into()),
                    ]),
                ),
                (
                    "workload",
                    Json::obj(vec![
                        ("offered_msgs", w.offered.into()),
                        ("delivered_msgs", w.delivered.into()),
                        ("delivery_ratio", w.ratio.into()),
                        ("delivered_mb_per_s", w.mb_per_s.into()),
                        ("p99_us", w.p99_us.into()),
                    ]),
                ),
            ])
        })
        .collect();
    vec![
        ("mode", mode.into()),
        ("k", count(HINT_K)),
        ("fabrics", Json::Arr(fabrics)),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
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
        let path = json_arg().unwrap_or_else(|| "BENCH_topo.json".into());
        write_bench(&path, "topo", bench_body("full", &reports));
    }
}
