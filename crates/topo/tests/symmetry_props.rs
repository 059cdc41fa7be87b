//! Property tests for the torus-symmetry strategy over the atlas torus
//! grid: on every torus the atlas can build, for random host pairs, the
//! template planner must produce valid routes whose primary is minimal,
//! with link diversity at least the generic planner's at equal k — and
//! under a survivable dead link it must still route around the damage
//! (falling back to the generic search rather than stranding a pair).

use std::collections::HashSet;

use proptest::prelude::*;
use san_fabric::{Endpoint, LinkId, NodeId, Route, Topology};
use san_topo::validate::{self, route_links};
use san_topo::{planner_for, RoutePlanner, TopoSpec};

fn trace_ok(topo: &Topology, a: NodeId, b: NodeId, r: &Route) -> bool {
    topo.trace_route(a, r, |_| true) == Some(Endpoint::Host(b))
}

use san_topo::validate::disjoint_count;

fn check_pair(spec: &TopoSpec, ai: usize, bi: usize, k: usize) -> Result<(), TestCaseError> {
    let f = spec.build();
    let (a, b) = (f.hosts[ai % f.hosts.len()], f.hosts[bi % f.hosts.len()]);
    if a == b {
        return Ok(());
    }
    let mut torus = planner_for(spec);
    prop_assert_eq!(torus.id(), "torus-symmetry");
    let mut generic = san_topo::GenericDiversePlanner::new();
    let alive = |_: LinkId| true;
    let t = torus.pair_routes(&f.topo, a, b, k, &alive);
    let g = generic.pair_routes(&f.topo, a, b, k, &alive);
    prop_assert!(!t.is_empty(), "{}: {a}->{b} unplanned", spec.format());
    // Validity: every candidate traces to the destination host.
    for r in &t {
        prop_assert!(trace_ok(&f.topo, a, b, r), "{}: bad {r:?}", spec.format());
    }
    // No duplicates.
    let uniq: HashSet<&Route> = t.iter().collect();
    prop_assert_eq!(uniq.len(), t.len());
    // Minimality: the primary is as short as the generic BFS primary.
    prop_assert_eq!(
        t[0].len(),
        g[0].len(),
        "{}: {a}->{b} primary not minimal",
        spec.format()
    );
    // Diversity at equal k: never worse than the generic search.
    prop_assert!(
        disjoint_count(&f.topo, a, &t) >= disjoint_count(&f.topo, a, &g),
        "{}: {a}->{b} torus {t:?} less diverse than generic {g:?}",
        spec.format()
    );
    Ok(())
}

fn check_dead_link(spec: &TopoSpec, ai: usize, bi: usize, li: usize) -> Result<(), TestCaseError> {
    let f = spec.build();
    let (a, b) = (f.hosts[ai % f.hosts.len()], f.hosts[bi % f.hosts.len()]);
    if a == b {
        return Ok(());
    }
    let survivable = validate::survivable_links(&f.topo);
    if survivable.is_empty() {
        return Ok(());
    }
    let dead = survivable[li % survivable.len()];
    // Skip when the victim is a host-attach link of the pair itself — no
    // planner can route around a host's only link.
    for h in [a, b] {
        if f.topo.link_at(Endpoint::Host(h)) == Some(dead) {
            return Ok(());
        }
    }
    let mut torus = planner_for(spec);
    let alive = |l: LinkId| l != dead;
    let t = torus.pair_routes(&f.topo, a, b, 4, &alive);
    prop_assert!(
        !t.is_empty(),
        "{}: {a}->{b} stranded by one survivable dead link {dead:?}",
        spec.format()
    );
    for r in &t {
        let links = route_links(&f.topo, a, r);
        prop_assert!(links.is_some(), "{}: {r:?} broken", spec.format());
        prop_assert!(
            !links.unwrap().contains(&dead),
            "{}: {r:?} crosses the dead link",
            spec.format()
        );
        prop_assert!(trace_ok(&f.topo, a, b, r));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2-D tori across the atlas grid, including degenerate rings and
    /// 2-extent wrap dimensions.
    #[test]
    fn torus2d_routes_valid_minimal_diverse(
        rows in 1u16..9,
        cols in 2u16..9,
        hosts in 1u8..3,
        ai in 0usize..256,
        bi in 0usize..256,
        k in 1usize..6,
    ) {
        check_pair(&TopoSpec::Torus2D { rows, cols, hosts }, ai, bi, k)?;
    }

    /// 3-D tori across small extents.
    #[test]
    fn torus3d_routes_valid_minimal_diverse(
        x in 2u16..5,
        y in 2u16..5,
        z in 1u16..5,
        ai in 0usize..256,
        bi in 0usize..256,
        k in 1usize..6,
    ) {
        check_pair(&TopoSpec::Torus3D { x, y, z, hosts: 1 }, ai, bi, k)?;
    }

    /// Dead-link avoidance: quadrant alternates (or the generic fallback)
    /// must keep every survivable pair planned, avoiding the dead link.
    #[test]
    fn torus_dead_links_are_routed_around(
        rows in 2u16..8,
        cols in 2u16..8,
        ai in 0usize..256,
        bi in 0usize..256,
        li in 0usize..1024,
    ) {
        check_dead_link(&TopoSpec::Torus2D { rows, cols, hosts: 1 }, ai, bi, li)?;
    }
}
