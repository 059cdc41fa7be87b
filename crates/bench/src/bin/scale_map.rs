//! `scale_map`: Table 3 taken beyond the testbed's 4 hops — failure
//! recovery on atlas fabrics of hundreds of hosts, comparing the paper's
//! two reconfiguration strategies at scale:
//!
//! * **on-demand** (§4.2): the affected sender re-maps just its broken
//!   destination by probing, here seeded with `san-topo` planner hints
//!   (the ECMP/disjoint candidate set computed on the healthy fabric).
//!   Measured in-simulation: probe counts, remap virtual time, delivered
//!   messages, route-length stretch against the degraded optimum.
//! * **full-map recompute**: a GM-style global remap. Probe cost is the
//!   deterministic scout model (one host probe + one loop probe per alive
//!   switch port) with one 400 µs probe batch per switch scan; route
//!   recompute is measured wall-clock (UP*/DOWN* full table and the
//!   planner's `RouteCache`, miss then hit).
//!
//! Each fabric also runs one *cold-start* on-demand exploration (no
//! routes, no hints) — the regime of Table 3's chain — which demonstrates
//! why hints matter. Historically the fat-tree cold start *failed*: the
//! depth-1 host signature cannot tell apart host-less aggregation
//! switches serving different pods, so a foreign sighting merged into a
//! known switch through a shared core and whole pods went unexplored
//! (unreachable after ~322 probes on fat_tree:8). With two-hop
//! signatures (`MapperConfig::deep_signatures`, on for the fat-tree cold
//! starts here) the aggregation layer resolves exactly, path-reset-aware
//! patience deadlines recover the probes that self-deadlock in the
//! unknown wiring, and the cold start converges — at a probe cost that
//! still makes the hint path orders of magnitude cheaper.
//!
//! `--smoke` runs the small fabrics (fat_tree:4, torus2d:4x4x1) as a CI
//! gate with hard assertions; the default runs the 128-host fabrics
//! (fat_tree:8, torus2d:8x8x2). Three failure severities per fabric:
//! one link, one switch, two switches + two links (victims picked on the
//! installed route / its alternates, pair-connectivity preserved).

use std::time::Instant;

use san_bench::{cold_start, remap_under_stream, tsv, ColdStart, Routes, Stream};
use san_fabric::engine::FabricEvent;
use san_fabric::updown::UpDownMap;
use san_fabric::{Endpoint, LinkId, NodeId, Route, RouteHints, SwitchId, Topology};
use san_telemetry::Telemetry;
use san_topo::{validate, GenericDiversePlanner, RouteCache, RoutePlanner, TopoSpec};

const MESSAGES: u64 = 400;
const BYTES: u32 = 2048;
const HINT_K: usize = 4;

/// One concrete failure scenario.
struct Scenario {
    name: &'static str,
    dead_links: Vec<LinkId>,
    dead_switches: Vec<SwitchId>,
}

impl Scenario {
    /// The failure as fabric events: every link, then every switch.
    fn faults(&self) -> Vec<FabricEvent> {
        let links = self
            .dead_links
            .iter()
            .map(|&link| FabricEvent::LinkDown { link });
        let switches = self
            .dead_switches
            .iter()
            .map(|&switch| FabricEvent::SwitchDown { switch });
        links.chain(switches).collect()
    }
}

fn alive_with<'a>(
    topo: &'a Topology,
    dead_links: &'a [LinkId],
    dead_switches: &'a [SwitchId],
) -> impl Fn(LinkId) -> bool + Copy + 'a {
    move |l| {
        if dead_links.contains(&l) {
            return false;
        }
        let link = topo.link(l);
        let on_dead = |ep: Endpoint| ep.switch().is_some_and(|(s, _)| dead_switches.contains(&s));
        !(on_dead(link.a) || on_dead(link.b))
    }
}

/// Switches (in traversal order) and switch-to-switch links of a route.
fn route_elems(topo: &Topology, src: NodeId, route: &Route) -> (Vec<SwitchId>, Vec<LinkId>) {
    let links = validate::route_links(topo, src, route).unwrap_or_default();
    let mut sws = Vec::new();
    let mut ss = Vec::new();
    for &l in &links {
        let link = topo.link(l);
        for ep in [link.a, link.b] {
            if let Some((s, _)) = ep.switch() {
                if !sws.contains(&s) {
                    sws.push(s);
                }
            }
        }
        if link.a.switch().is_some() && link.b.switch().is_some() {
            ss.push(l);
        }
    }
    (sws, ss)
}

/// The three severities, derived from the installed route (and its
/// planner alternates for extra link victims). Every pick is verified to
/// keep the measured pair connected.
fn severities(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    installed: &Route,
    alternates: &[Route],
) -> Vec<Scenario> {
    let (sws, ss_links) = route_elems(topo, src, installed);
    let interm: Vec<SwitchId> = if sws.len() > 2 {
        sws[1..sws.len() - 1].to_vec()
    } else {
        sws.clone()
    };
    let mut link_pool = ss_links.clone();
    for alt in alternates {
        for l in route_elems(topo, src, alt).1 {
            if !link_pool.contains(&l) {
                link_pool.push(l);
            }
        }
    }
    let ok = |dl: &[LinkId], ds: &[SwitchId]| {
        topo.shortest_route(src, dst, alive_with(topo, dl, ds))
            .is_some()
    };
    let mut out = Vec::new();
    if let Some(&l) = ss_links.iter().find(|&&l| ok(&[l], &[])) {
        out.push(Scenario {
            name: "1_link",
            dead_links: vec![l],
            dead_switches: Vec::new(),
        });
    }
    if let Some(&s) = interm.iter().find(|&&s| ok(&[], &[s])) {
        out.push(Scenario {
            name: "1_switch",
            dead_links: Vec::new(),
            dead_switches: vec![s],
        });
    }
    let mut ds: Vec<SwitchId> = Vec::new();
    for &s in &interm {
        if ds.len() == 2 {
            break;
        }
        let mut t = ds.clone();
        t.push(s);
        if ok(&[], &t) {
            ds = t;
        }
    }
    let mut dl: Vec<LinkId> = Vec::new();
    for &l in &link_pool {
        if dl.len() == 2 {
            break;
        }
        let adjacent = {
            let link = topo.link(l);
            [link.a, link.b]
                .iter()
                .any(|ep| ep.switch().is_some_and(|(s, _)| ds.contains(&s)))
        };
        if adjacent {
            continue;
        }
        let mut t = dl.clone();
        t.push(l);
        if ok(&t, &ds) {
            dl = t;
        }
    }
    if !ds.is_empty() || !dl.is_empty() {
        out.push(Scenario {
            name: "2_switches_2_links",
            dead_links: dl,
            dead_switches: ds,
        });
    }
    out
}

fn run_fabric(spec: TopoSpec, smoke: bool, tel: &Telemetry) {
    let fab = spec.build();
    let survey = validate::check(&fab).expect("atlas fabric must validate");
    let class = fab.class().name();
    let topo = fab.topo.clone();
    // Per-class inventory gauges: dashboards and the telemetry export key
    // fabric scale by family.
    for (leaf, v) in [
        ("hosts", survey.hosts as i64),
        ("switches", survey.switches as i64),
        ("links", survey.links as i64),
        ("diameter_hops", survey.diameter_hops as i64),
        ("min_diversity", survey.min_diversity as i64),
    ] {
        tel.gauge(&format!("topo.{class}.{leaf}")).set(v);
    }
    println!(
        "== {} — {} hosts, {} switches, {} links, diameter {} hops, diversity >= {}",
        spec.format(),
        survey.hosts,
        survey.switches,
        survey.links,
        survey.diameter_hops,
        survey.min_diversity
    );

    let (src, dst) = (fab.hosts[0], *fab.hosts.last().unwrap());
    let routes = Routes::for_spec(&spec);
    let installed = routes.route(&topo, src, dst);
    let mut planner = GenericDiversePlanner::new();
    let cands = planner.pair_routes(&topo, src, dst, HINT_K, &|_| true);
    let back = planner.pair_routes(&topo, dst, src, HINT_K, &|_| true);
    let id = planner.id();
    let hints = vec![
        (
            src,
            dst,
            RouteHints::from_strategy(cands.clone(), id, 0, false),
        ),
        (dst, src, RouteHints::from_strategy(back, id, 0, false)),
    ];

    // Cold start first: the blind-exploration baseline. With deep
    // signatures on, this must *converge* even on the fat trees whose
    // host-less aggregation layer used to alias (the old documented
    // boundary); the probe count is what hints then save.
    let deep = matches!(spec, TopoSpec::FatTree { .. });
    let ColdStart {
        resolved: res,
        unreachable: unr,
        probes,
    } = cold_start(&topo, src, dst, deep);
    let verdict = if res > 0 { "resolved" } else { "failed" };
    println!(
        "  cold-start exploration ({} -> {}): {verdict} after {probes} probes \
         (resolved {res}, unreachable {unr})",
        src.0, dst.0
    );
    tsv(&[
        "scale_map".into(),
        spec.format(),
        "cold_start".into(),
        verdict.into(),
        probes.to_string(),
    ]);
    if matches!(spec, TopoSpec::FatTree { .. }) {
        assert_eq!(
            res,
            1,
            "{}: fat-tree cold start must resolve with deep signatures \
             (unreachable {unr} after {probes} probes)",
            spec.format()
        );
    }

    println!(
        "  {:<20} {:>7} {:>9} {:>9} {:>9} {:>8} {:>9} {:>11} {:>11}",
        "severity",
        "deliv",
        "h.probes",
        "s.probes",
        "remap.ms",
        "stretch",
        "full.prb",
        "updown.us",
        "plan.us"
    );
    for scen in severities(&topo, src, dst, &installed, &cands) {
        let alive = alive_with(&topo, &scen.dead_links, &scen.dead_switches);

        // -- full-map side (graph work, no simulation) -------------------
        let alive_sw: Vec<SwitchId> = fab
            .switches
            .iter()
            .copied()
            .filter(|s| !scen.dead_switches.contains(s))
            .collect();
        let full_probes: u64 = alive_sw
            .iter()
            .map(|&s| 2 * topo.switch_ports(s) as u64)
            .sum();
        let full_time_model_ms = alive_sw.len() as f64 * 2.0 * 0.4;
        let t0 = Instant::now();
        let ud = UpDownMap::build(&topo, alive).expect("still connected");
        let table = ud.full_table(&topo, alive);
        let updown_us = t0.elapsed().as_micros() as u64;
        let routed = table
            .iter()
            .flat_map(|row| row.iter())
            .filter(|r| r.is_some())
            .count();
        // Planner recompute on the degraded fabric: miss, then the cache
        // hit that a flap storm would take.
        let eff_dead: Vec<LinkId> = topo
            .links()
            .map(|(id, _)| id)
            .filter(|&l| !alive(l))
            .collect();
        let sample = validate::sample_hosts(&fab.hosts, 16);
        let mut cache = RouteCache::with_telemetry(HINT_K, tel);
        let t1 = Instant::now();
        let plan_a = cache.plan(&topo, &sample, &eff_dead);
        let plan_miss_us = t1.elapsed().as_micros() as u64;
        let t2 = Instant::now();
        let plan_b = cache.plan(&topo, &sample, &eff_dead);
        let plan_hit_us = t2.elapsed().as_micros() as u64;
        assert_eq!(
            plan_a.fingerprint(),
            plan_b.fingerprint(),
            "cache hit must be byte-identical to the recompute"
        );

        // -- on-demand side (simulated) ----------------------------------
        let stream = Stream {
            src,
            dst,
            count: MESSAGES,
            bytes: BYTES,
        };
        let remap = remap_under_stream(&topo, stream, routes, &hints, &scen.faults(), tel);
        let delivered = remap.delivered;
        let degraded_best = topo
            .shortest_route(src, dst, alive)
            .map(|r| r.len())
            .unwrap_or(0);
        let surviving_hint = cands
            .iter()
            .filter(|r| {
                validate::route_links(&topo, src, r)
                    .map(|ls| ls.iter().all(|&l| alive(l)))
                    .unwrap_or(false)
            })
            .map(|r| r.len())
            .min();
        let stretch = match (surviving_hint, degraded_best) {
            (Some(h), b) if b > 0 => h as f64 / b as f64,
            _ => 0.0,
        };
        let remap_ms = remap.remap_ms();
        println!(
            "  {:<20} {:>3}/{:<3} {:>9} {:>9} {:>9.3} {:>8.2} {:>9} {:>11} {:>5}/{:<5}",
            scen.name,
            delivered,
            MESSAGES,
            remap.host_probes(),
            remap.switch_probes(),
            remap_ms,
            stretch,
            full_probes,
            updown_us,
            plan_miss_us,
            plan_hit_us
        );
        tsv(&[
            "scale_map".into(),
            spec.format(),
            scen.name.into(),
            delivered.to_string(),
            remap.host_probes().to_string(),
            remap.switch_probes().to_string(),
            format!("{remap_ms:.3}"),
            format!("{stretch:.2}"),
            full_probes.to_string(),
            format!("{full_time_model_ms:.1}"),
            updown_us.to_string(),
            plan_miss_us.to_string(),
            plan_hit_us.to_string(),
            routed.to_string(),
        ]);
        // The gate: every severity must complete the stream, and a remap
        // must actually have happened at one of the endpoints.
        // Duplicates are possible at the reset (same as Table 3 B), so
        // completion means "at least every unique message arrived".
        assert!(
            delivered >= MESSAGES as usize,
            "{} {}: stream must complete despite the failure ({delivered}/{MESSAGES})",
            spec.format(),
            scen.name
        );
        assert!(
            remap.src.runs.get() + remap.dst.runs.get() >= 1,
            "{} {}: the failure must force at least one mapping run",
            spec.format(),
            scen.name
        );
        if smoke {
            assert!(
                remap.src.hint_resolved.get() + remap.dst.hint_resolved.get() >= 1,
                "{} {}: smoke gate expects the planner-hint fast path",
                spec.format(),
                scen.name
            );
        }
    }
    println!();
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
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
        "scale_map: on-demand (hinted) vs full-map reconfiguration, {} mode",
        if smoke { "smoke" } else { "128-host" }
    );
    println!();
    let tel_dir = san_bench::telemetry_dir();
    let tel = match &tel_dir {
        Some(_) => Telemetry::with_trace(1 << 16),
        None => Telemetry::new(),
    };
    for spec in specs {
        run_fabric(spec, smoke, &tel);
    }
    println!("on-demand columns are simulated probe/remap work at the affected");
    println!("endpoints; full-map columns are the scout-probe model (2 probes per");
    println!("alive switch port, one 400 us batch per switch) plus measured");
    println!("wall-clock for the UP*/DOWN* full table and planner RouteCache");
    println!("(miss/hit).");
    if let Some(dir) = tel_dir {
        san_bench::emit_telemetry(&dir, "scale_map", &tel);
    }
}
