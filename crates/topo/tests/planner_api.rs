//! Strategy-equivalence pins for the `RoutePlanner` seam.
//!
//! The refactor that introduced the trait (and the torus-native strategy)
//! must leave the default generic path *byte-identical* to the historical
//! planner: chaos campaign verdicts and the Table 3 regression both hang
//! off plans staying exactly the same. The fingerprints below were
//! captured from the pre-trait planner; if any of them moves, the generic
//! strategy changed behaviour, not just shape.

use san_fabric::{Fnv, NodeId, Topology};
use san_topo::{planner_for, validate, GenericDiversePlanner, RoutePlanner, TopoSpec};

/// `(spec, k, sampled hosts, fingerprint of the historical plan)`.
const PINS: &[(&str, usize, usize, u64)] = &[
    ("fat_tree:4", 4, 6, 0xcd43af2cbc5f9fe5),
    ("torus2d:4x4x2", 3, 8, 0x152b682580a095c6),
    ("testbed:2", 4, 8, 0xc30dbfaa21b0c0e5),
    ("regular:16x4x2:3", 4, 8, 0x3b5171f78bcbd3c7),
];

/// The torus strategy's plans, same sampling and digest as [`PINS`].
const TORUS_PINS: &[(&str, usize, usize, u64)] = &[
    ("torus2d:4x4x2", 3, 8, 0x06492cf3de87f085),
    ("torus3d:4x4x4x1", 4, 8, 0x9eef26f0eec34da7),
];

/// FNV-1a over every ordered pair of `hosts` in (src, dst) id order:
/// the pair's ids, candidate count, and each candidate's length and
/// ports. Disconnected pairs (no candidates) contribute nothing.
fn plan_fingerprint(p: &mut dyn RoutePlanner, topo: &Topology, hosts: &[NodeId], k: usize) -> u64 {
    let mut ids = hosts.to_vec();
    ids.sort();
    let mut h = Fnv::new();
    for &a in &ids {
        for &b in &ids {
            if a == b {
                continue;
            }
            let routes = p.pair_routes(topo, a, b, k, &|_| true);
            if routes.is_empty() {
                continue;
            }
            h.u64(a.0 as u64);
            h.u64(b.0 as u64);
            h.u64(routes.len() as u64);
            for r in &routes {
                h.u64(r.len() as u64);
                for &port in r.ports() {
                    h.u64(port as u64);
                }
            }
        }
    }
    h.finish()
}

#[test]
fn generic_strategy_is_byte_identical_to_historical_plans() {
    for &(spec, k, sample, pin) in PINS {
        let f = TopoSpec::parse(spec).unwrap().build();
        let hosts = validate::sample_hosts(&f.hosts, sample);
        let mut p = GenericDiversePlanner::new();
        assert_eq!(
            plan_fingerprint(&mut p, &f.topo, &hosts, k),
            pin,
            "generic plan for {spec} k={k} diverged from the pre-trait planner"
        );
    }
}

#[test]
fn torus_strategy_is_pinned() {
    for &(spec, k, sample, pin) in TORUS_PINS {
        let parsed = TopoSpec::parse(spec).unwrap();
        let f = parsed.build();
        let hosts = validate::sample_hosts(&f.hosts, sample);
        let mut p = planner_for(&parsed);
        assert_eq!(p.id(), "torus-symmetry");
        assert_eq!(
            plan_fingerprint(p.as_mut(), &f.topo, &hosts, k),
            pin,
            "torus plan for {spec} k={k} changed"
        );
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
        assert_eq!(
            plan_fingerprint(p.as_mut(), &f.topo, &hosts, 3),
            plan_fingerprint(&mut GenericDiversePlanner::new(), &f.topo, &hosts, 3)
        );
    }
}

#[test]
fn spec_selected_planner_uses_torus_strategy() {
    let spec = TopoSpec::parse("torus2d:4x4x2").unwrap();
    let f = spec.build();
    let mut p = planner_for(&spec);
    assert_eq!(p.id(), "torus-symmetry");
    // Every pair gets a valid primary on the torus strategy.
    for &a in &f.hosts {
        for &b in &f.hosts {
            if a != b {
                let routes = p.pair_routes(&f.topo, a, b, 3, &|_| true);
                let primary = routes.first().expect("every torus pair has a primary");
                assert_eq!(
                    f.topo.trace_route(a, primary, |_| true),
                    Some(san_fabric::Endpoint::Host(b))
                );
            }
        }
    }
}
