//! Strategy-equivalence pins for the `RoutePlanner` seam.
//!
//! The refactor that introduced the trait (and the torus-native strategy)
//! must leave the default generic path *byte-identical* to the historical
//! planner: chaos campaign verdicts and the Table 3 regression both hang
//! off plans staying exactly the same. The fingerprints below were
//! captured from the pre-trait planner; if any of them moves, the generic
//! strategy changed behaviour, not just shape.

use san_fabric::{NodeId, Topology};
use san_topo::{
    planner_for, validate, GenericDiversePlanner, PlanRequest, PlanTable, RouteCache, RoutePlanner,
    TopoSpec,
};

/// `(spec, k, sampled hosts, fingerprint of the historical plan)`.
const PINS: &[(&str, usize, usize, u64)] = &[
    ("fat_tree:4", 4, 6, 0xcd43af2cbc5f9fe5),
    ("torus2d:4x4x2", 3, 8, 0x152b682580a095c6),
    ("testbed:2", 4, 8, 0xc30dbfaa21b0c0e5),
    ("regular:16x4x2:3", 4, 8, 0x3b5171f78bcbd3c7),
];

/// Every ordered pair of `hosts`, planned by the generic strategy over a
/// healthy fabric.
fn generic_plan(topo: &Topology, hosts: &[NodeId], k: usize) -> PlanTable {
    GenericDiversePlanner::new()
        .plan(&PlanRequest {
            topo,
            hosts,
            k,
            alive: &|_| true,
            hints: None,
        })
        .table
}

#[test]
fn generic_strategy_is_byte_identical_to_historical_plans() {
    for &(spec, k, sample, pin) in PINS {
        let f = TopoSpec::parse(spec).unwrap().build();
        let hosts = validate::sample_hosts(&f.hosts, sample);
        let table = generic_plan(&f.topo, &hosts, k);
        assert_eq!(
            table.fingerprint(),
            pin,
            "generic plan for {spec} k={k} diverged from the pre-trait planner"
        );
    }
}

#[test]
fn route_cache_hit_path_serves_the_pinned_plan() {
    for &(spec, k, sample, pin) in PINS {
        let f = TopoSpec::parse(spec).unwrap().build();
        let hosts = validate::sample_hosts(&f.hosts, sample);
        let mut cache = RouteCache::new(k);
        let miss = cache.plan(&f.topo, &hosts, &[]);
        assert_eq!(miss.fingerprint(), pin, "{spec} miss path");
        let hit = cache.plan(&f.topo, &hosts, &[]);
        assert_eq!(hit.fingerprint(), pin, "{spec} hit path");
        assert!(cache.last_was_hit());
        assert_eq!(cache.hits.get(), 1);
        assert_eq!(cache.misses.get(), 1);
        assert_eq!(cache.strategy(), "generic-diverse");
    }
}

#[test]
fn family_selected_planner_matches_generic_on_non_tori() {
    for spec in ["fat_tree:4", "regular:16x4x2:3", "testbed:2"] {
        let parsed = TopoSpec::parse(spec).unwrap();
        let f = parsed.build();
        let hosts = validate::sample_hosts(&f.hosts, 6);
        let mut p = planner_for(&parsed);
        assert_eq!(p.id(), "generic-diverse", "{spec} family must stay generic");
        let alive = |_| true;
        let planned = p.plan(&PlanRequest {
            topo: &f.topo,
            hosts: &hosts,
            k: 3,
            alive: &alive,
            hints: None,
        });
        assert_eq!(
            planned.table.fingerprint(),
            generic_plan(&f.topo, &hosts, 3).fingerprint()
        );
    }
}

#[test]
fn spec_selected_cache_uses_torus_strategy() {
    let spec = TopoSpec::parse("torus2d:4x4x2").unwrap();
    let f = spec.build();
    let mut cache = RouteCache::for_spec(3, &spec);
    assert_eq!(cache.strategy(), "torus-symmetry");
    let table = cache.plan(&f.topo, &f.hosts, &[]);
    assert_eq!(table.len(), f.hosts.len() * (f.hosts.len() - 1));
    // Every pair still gets a valid primary on the torus strategy.
    for &a in &f.hosts {
        for &b in &f.hosts {
            if a != b {
                assert!(table.primary(a, b).is_some());
            }
        }
    }
}
