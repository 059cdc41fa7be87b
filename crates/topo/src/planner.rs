//! The multipath route planner.
//!
//! For one host pair the planner computes up to k candidate source
//! routes: the shortest route first, then further equal-cost routes
//! selected greedily for link diversity, then link-disjoint alternates
//! (each avoiding every fabric link the earlier candidates used). The
//! set is a failover list — diversity, not enumeration order, is what
//! makes it survive a fault. The set is exactly what the on-demand
//! mapper wants as *hints* after a failure: try the alternates with
//! single host probes before paying for a BFS exploration. Callers ask
//! for the pairs they use, one at a time, through
//! [`RoutePlanner::pair_routes`].
//!
//! Planning is a *strategy* behind the [`RoutePlanner`] trait: the
//! topology-agnostic [`GenericDiversePlanner`] (BFS/ECMP pool + diverse
//! selection, exactly the historical behaviour) and the torus-native
//! [`crate::symmetry::TorusSymmetryPlanner`] (O(k·hops) template
//! materialization, no pool enumeration). [`planner_for`] picks the
//! strategy by [`TopoSpec`] family. Both strategies share one greedy
//! diversity selection (`select_diverse`).
//!
//! Deadlock-freedom of a set of planned routes is a *verdict*, not a
//! guarantee: minimal routes on cyclic fabrics (tori) generally are not
//! deadlock-free, and the paper's whole point is to recover rather than
//! avoid. `fabric::updown::routes_deadlock_free` gives that verdict for
//! any `(source, route)` list.

use std::collections::{HashSet, VecDeque};

use san_fabric::route::MAX_HOPS;
use san_fabric::{Endpoint, LinkId, NodeId, PortId, Route, SwitchId, Topology};

use crate::atlas::TopoSpec;
use crate::validate::route_links;

/// A route-planning strategy: per-pair candidate generation plus a work
/// counter. `steps` is the strategy's route-enumeration work — ports/edges
/// examined for search-based strategies, hops emitted for template-based
/// ones — the currency the cross-topology study compares.
pub trait RoutePlanner {
    /// Stable strategy identifier (`"generic-diverse"`, `"torus-symmetry"`).
    fn id(&self) -> &'static str;

    /// Up to `k` diverse candidate routes for one ordered pair over the
    /// alive links. Empty when disconnected.
    fn pair_routes(
        &mut self,
        topo: &Topology,
        from: NodeId,
        to: NodeId,
        k: usize,
        alive: &dyn Fn(LinkId) -> bool,
    ) -> Vec<Route>;

    /// Cumulative route-enumeration steps this strategy has spent.
    fn steps(&self) -> u64;
}

/// The topology-agnostic strategy: BFS distance labels + equal-cost DFS
/// pool, greedy link-diversity selection, then link-disjoint detours.
#[derive(Debug, Default)]
pub struct GenericDiversePlanner {
    steps: u64,
}

impl GenericDiversePlanner {
    /// A fresh planner with a zeroed step counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoutePlanner for GenericDiversePlanner {
    fn id(&self) -> &'static str {
        "generic-diverse"
    }

    fn pair_routes(
        &mut self,
        topo: &Topology,
        from: NodeId,
        to: NodeId,
        k: usize,
        alive: &dyn Fn(LinkId) -> bool,
    ) -> Vec<Route> {
        candidate_routes_counted(topo, from, to, k, alive, &mut self.steps)
    }

    fn steps(&self) -> u64 {
        self.steps
    }
}

/// The strategy for a [`TopoSpec`] family: torus2d/3d get the
/// symmetry-template planner, everything else the generic one.
pub fn planner_for(spec: &TopoSpec) -> Box<dyn RoutePlanner> {
    match *spec {
        TopoSpec::Torus2D { rows, cols, .. } => {
            Box::new(crate::symmetry::TorusSymmetryPlanner::new(&[rows, cols]))
        }
        TopoSpec::Torus3D { x, y, z, .. } => {
            Box::new(crate::symmetry::TorusSymmetryPlanner::new(&[x, y, z]))
        }
        _ => Box::new(GenericDiversePlanner::new()),
    }
}

/// Up to `k` candidate routes from `from` to `to` over alive links:
/// the first shortest route, then further equal-cost routes picked
/// greedily for *link diversity* (fewest fabric links shared with the
/// already-selected set), then link-disjoint detours. Diversity is the
/// point of a candidate set — a failover list whose entries all cross the
/// same link dies as one — so plain enumeration order (which packs all
/// same-first-hop ECMP routes together) is not used directly. Empty when
/// the pair is disconnected.
///
/// This is the generic strategy's per-pair body, with the work counter
/// threaded through: every BFS neighbor scan, every DFS port examined, and
/// a whole-fabric charge per detour shortest-path call count as one step.
pub(crate) fn candidate_routes_counted(
    topo: &Topology,
    from: NodeId,
    to: NodeId,
    k: usize,
    alive: &dyn Fn(LinkId) -> bool,
    steps: &mut u64,
) -> Vec<Route> {
    if from == to || k == 0 {
        return Vec::new();
    }
    // Enumerate a larger equal-cost pool than requested, then select a
    // diverse k out of it.
    let pool_cap = k.saturating_mul(4).clamp(k, 32);
    let pool = ecmp_routes(topo, from, to, pool_cap, alive, steps);
    let mut routes = select_diverse(topo, from, &pool, k);
    let mut chosen: HashSet<Route> = routes.iter().copied().collect();
    // Link-disjoint alternates: ban the fabric links every accepted route
    // uses and re-run shortest path until k or exhaustion.
    let exempt: Vec<LinkId> = [from, to]
        .iter()
        .filter_map(|&h| topo.link_at(Endpoint::Host(h)))
        .collect();
    let mut banned: HashSet<LinkId> = routes
        .iter()
        .flat_map(|r| route_links(topo, from, r).unwrap_or_default())
        .filter(|l| !exempt.contains(l))
        .collect();
    let probed = std::cell::Cell::new(0u64);
    while routes.len() < k {
        // A detour shortest-path call is a fabric BFS; its work is every
        // link it examines, counted via the open-predicate invocations.
        let open = |l: LinkId| {
            probed.set(probed.get() + 1);
            alive(l) && (!banned.contains(&l) || exempt.contains(&l))
        };
        let Some(r) = topo.shortest_route(from, to, open) else {
            break;
        };
        if chosen.contains(&r) {
            break;
        }
        banned.extend(
            route_links(topo, from, &r)
                .unwrap_or_default()
                .into_iter()
                .filter(|l| !exempt.contains(l)),
        );
        chosen.insert(r);
        routes.push(r);
    }
    *steps += probed.get();
    routes
}

/// Up to `k` routes out of `pool`, picked greedily for *link diversity*:
/// each pick is the unchosen pool route sharing the fewest links with the
/// routes already picked, the earliest such route on a tie. The pool's
/// first route is therefore always the first pick.
pub(crate) fn select_diverse(
    topo: &Topology,
    from: NodeId,
    pool: &[Route],
    k: usize,
) -> Vec<Route> {
    let mut routes: Vec<Route> = Vec::new();
    let mut chosen: HashSet<Route> = HashSet::new();
    let mut used: HashSet<LinkId> = HashSet::new();
    while routes.len() < k {
        let best = pool
            .iter()
            .filter(|r| !chosen.contains(*r))
            .map(|r| {
                let links = route_links(topo, from, r).unwrap_or_default();
                let overlap = links.iter().filter(|l| used.contains(l)).count();
                (overlap, r)
            })
            .min_by_key(|&(overlap, _)| overlap);
        let Some((_, r)) = best else { break };
        used.extend(route_links(topo, from, r).unwrap_or_default());
        chosen.insert(*r);
        routes.push(*r);
    }
    routes
}

/// All equal-cost shortest routes (up to `k`), enumerated by DFS over the
/// BFS distance labels in ascending port order — deterministic and
/// duplicate-free by construction.
fn ecmp_routes(
    topo: &Topology,
    from: NodeId,
    to: NodeId,
    k: usize,
    alive: &dyn Fn(LinkId) -> bool,
    steps: &mut u64,
) -> Vec<Route> {
    let Some(first) = topo.link_at(Endpoint::Host(from)) else {
        return Vec::new();
    };
    if !alive(first) {
        return Vec::new();
    }
    let Endpoint::Switch(s0, _) = topo.link(first).other(Endpoint::Host(from)) else {
        return Vec::new(); // host-to-host direct links don't exist
    };
    let Some(last) = topo.link_at(Endpoint::Host(to)) else {
        return Vec::new();
    };
    if !alive(last) {
        return Vec::new();
    }
    let Endpoint::Switch(sd, dport) = topo.link(last).other(Endpoint::Host(to)) else {
        return Vec::new();
    };
    // BFS switch-hop distances toward the destination switch.
    let mut dist = vec![u32::MAX; topo.num_switches()];
    dist[sd.idx()] = 0;
    let mut q = VecDeque::from([sd]);
    while let Some(s) = q.pop_front() {
        for (_, link, far) in topo.neighbors(s) {
            *steps += 1;
            if !alive(link) {
                continue;
            }
            if let Some((s2, _)) = far.switch() {
                if dist[s2.idx()] == u32::MAX {
                    dist[s2.idx()] = dist[s.idx()] + 1;
                    q.push_back(s2);
                }
            }
        }
    }
    if dist[s0.idx()] == u32::MAX || dist[s0.idx()] as usize + 1 > MAX_HOPS {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut stack: Vec<u8> = Vec::new();
    dfs_equal_cost(
        topo, s0, sd, dport, &dist, alive, k, &mut stack, &mut out, steps,
    );
    out
}

#[allow(clippy::too_many_arguments)] // recursive enumeration carries its whole frame
fn dfs_equal_cost(
    topo: &Topology,
    at: SwitchId,
    sd: SwitchId,
    dport: PortId,
    dist: &[u32],
    alive: &dyn Fn(LinkId) -> bool,
    k: usize,
    stack: &mut Vec<u8>,
    out: &mut Vec<Route>,
    steps: &mut u64,
) {
    if out.len() >= k {
        return;
    }
    if at == sd {
        // The final hop exits toward the destination host; `dport` is the
        // port the host hangs off, which is exactly the output port to take.
        let mut ports = stack.clone();
        ports.push(dport.idx() as u8);
        out.push(Route::from_ports(&ports));
        return;
    }
    for p in 0..topo.switch_ports(at) {
        *steps += 1;
        let ep = Endpoint::Switch(at, PortId(p));
        let Some(link) = topo.link_at(ep) else {
            continue;
        };
        if !alive(link) {
            continue;
        }
        if let Some((s2, _)) = topo.link(link).other(ep).switch() {
            if dist[s2.idx()] != u32::MAX && dist[s2.idx()] + 1 == dist[at.idx()] {
                stack.push(p);
                dfs_equal_cost(topo, s2, sd, dport, dist, alive, k, stack, out, steps);
                stack.pop();
                if out.len() >= k {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_fabric::updown::routes_deadlock_free;

    fn trace_ok(topo: &Topology, a: NodeId, b: NodeId, r: &Route) -> bool {
        topo.trace_route(a, r, |_| true) == Some(Endpoint::Host(b))
    }

    #[test]
    fn ecmp_finds_all_minimal_fat_tree_paths() {
        let f = TopoSpec::FatTree { k: 4 }.build();
        // Cross-pod pair: k/2 aggs × k/2 cores... but minimal path count is
        // (k/2)² = 4 for k=4 (choice of agg and core on the up path).
        let (a, b) = (f.hosts[0], *f.hosts.last().unwrap());
        let routes = GenericDiversePlanner::new().pair_routes(&f.topo, a, b, 16, &|_| true);
        assert_eq!(routes.len(), 4, "(k/2)^2 minimal routes, got {routes:?}");
        for r in &routes {
            assert_eq!(r.len(), 5);
            assert!(trace_ok(&f.topo, a, b, r));
        }
        // All distinct.
        let mut uniq = routes.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), routes.len());
    }

    #[test]
    fn disjoint_alternates_extend_equal_cost() {
        let f = TopoSpec::Testbed(1).build();
        let (a, b) = (f.hosts[0], f.hosts[1]);
        let routes = GenericDiversePlanner::new().pair_routes(&f.topo, a, b, 4, &|_| true);
        assert!(routes.len() >= 2, "redundant testbed has alternates");
        for r in &routes {
            assert!(trace_ok(&f.topo, a, b, r));
        }
        // First two candidates are fabric-link-disjoint... the ECMP set
        // already may share links; at minimum the full set is not all one
        // path.
        assert!(routes.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn dead_links_are_avoided() {
        let f = TopoSpec::Testbed(1).build();
        let (a, b) = (f.hosts[0], f.hosts[1]);
        let dead = [f.spare_links[0], f.spare_links[1]];
        let alive = |l: LinkId| !dead.contains(&l);
        let routes = GenericDiversePlanner::new().pair_routes(&f.topo, a, b, 4, &alive);
        assert!(!routes.is_empty(), "detour exists");
        for r in &routes {
            let links = route_links(&f.topo, a, r).unwrap();
            assert!(links.iter().all(|l| !dead.contains(l)));
            assert!(trace_ok(&f.topo, a, b, r));
        }
    }

    /// `(source, primary)` for every ordered pair of `hosts`, planned by
    /// `p` over the healthy fabric, the shape the deadlock verdict takes.
    fn primaries(
        p: &mut dyn RoutePlanner,
        topo: &Topology,
        hosts: &[NodeId],
        k: usize,
    ) -> Vec<(NodeId, Route)> {
        let mut out = Vec::new();
        for &a in hosts {
            for &b in hosts {
                if a != b {
                    let routes = p.pair_routes(topo, a, b, k, &|_| true);
                    out.push((a, *routes.first().expect("connected pair")));
                }
            }
        }
        out
    }

    #[test]
    fn fat_tree_primaries_are_deadlock_free() {
        let f = TopoSpec::FatTree { k: 4 }.build();
        let sample = crate::validate::sample_hosts(&f.hosts, 6);
        let routes = primaries(&mut GenericDiversePlanner::new(), &f.topo, &sample, 4);
        assert_eq!(routes.len(), 6 * 5);
        // Minimal fat-tree routes are up-then-down, hence deadlock-free.
        assert!(routes_deadlock_free(&f.topo, &routes));
    }

    #[test]
    fn torus_primaries_are_not_deadlock_free() {
        let f = TopoSpec::Torus2D {
            rows: 8,
            cols: 8,
            hosts: 1,
        }
        .build();
        let routes = primaries(&mut GenericDiversePlanner::new(), &f.topo, &f.hosts, 1);
        assert!(
            !routes_deadlock_free(&f.topo, &routes),
            "minimal wrap-around routes must form channel cycles"
        );
    }

    #[test]
    fn pair_routes_counts_steps() {
        let f = TopoSpec::FatTree { k: 4 }.build();
        let (a, b) = (f.hosts[0], *f.hosts.last().unwrap());
        let mut p = GenericDiversePlanner::new();
        assert_eq!(p.steps(), 0);
        let first = p.pair_routes(&f.topo, a, b, 3, &|_| true);
        let after_one = p.steps();
        assert!(after_one > 0, "generic planning must account its search");
        // The same question costs the same work again and gets the same
        // answer: the counter accumulates, the planner keeps no state.
        assert_eq!(p.pair_routes(&f.topo, a, b, 3, &|_| true), first);
        assert_eq!(p.steps(), 2 * after_one);
    }
}
