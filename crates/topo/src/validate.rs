//! Structural validators: the checks every atlas fabric must pass before a
//! simulation, a bench or a chaos campaign is allowed to trust it.
//!
//! Validation is graph analysis over the wiring only — no simulation. The
//! expensive all-pairs checks sample evenly spaced hosts so a 128-host
//! fabric validates in milliseconds even in debug builds.

use std::collections::VecDeque;

use san_fabric::updown::UpDownMap;
use san_fabric::{Endpoint, LinkId, NodeId, PortId, Route, SwitchId, Topology};

use crate::atlas::Fabric;

/// What [`check`] learned about a fabric.
#[derive(Debug, Clone)]
pub struct Survey {
    /// Host count.
    pub hosts: usize,
    /// Switch count.
    pub switches: usize,
    /// Link count.
    pub links: usize,
    /// Longest shortest route (in route hops) over the sampled host pairs.
    pub diameter_hops: usize,
    /// Smallest link-disjoint path-diversity lower bound over the sampled
    /// host pairs (capped at 8). 1 means some pair has a single point of
    /// failure in the switch fabric.
    pub min_diversity: usize,
}

/// Up to `n` evenly spaced hosts — the sample the quadratic checks run on.
pub fn sample_hosts(hosts: &[NodeId], n: usize) -> Vec<NodeId> {
    if hosts.len() <= n {
        return hosts.to_vec();
    }
    (0..n)
        .map(|i| hosts[i * (hosts.len() - 1) / (n - 1).max(1)])
        .collect()
}

/// Are all wired hosts in one connected component over alive links?
/// Unwired hosts fail the check: an atlas fabric never strands a host.
pub fn hosts_connected(topo: &Topology, alive: impl Fn(LinkId) -> bool) -> bool {
    let n_hosts = topo.num_hosts();
    if n_hosts == 0 {
        return true;
    }
    for h in 0..n_hosts {
        if topo.link_at(Endpoint::Host(NodeId(h as u16))).is_none() {
            return false;
        }
    }
    // BFS over hosts + switches. Node encoding: 0..n_hosts hosts, then
    // switches.
    let n = n_hosts + topo.num_switches();
    let mut seen = vec![false; n];
    let mut q = VecDeque::from([0usize]);
    seen[0] = true;
    while let Some(u) = q.pop_front() {
        let eps: Vec<Endpoint> = if u < n_hosts {
            vec![Endpoint::Host(NodeId(u as u16))]
        } else {
            let s = SwitchId((u - n_hosts) as u16);
            (0..topo.switch_ports(s))
                .map(|p| Endpoint::Switch(s, PortId(p)))
                .collect()
        };
        for ep in eps {
            let Some(link) = topo.link_at(ep) else {
                continue;
            };
            if !alive(link) {
                continue;
            }
            let v = match topo.link(link).other(ep) {
                Endpoint::Host(h) => h.idx(),
                Endpoint::Switch(s, _) => n_hosts + s.idx(),
            };
            if !seen[v] {
                seen[v] = true;
                q.push_back(v);
            }
        }
    }
    (0..n_hosts).all(|h| seen[h])
}

/// Port-budget sanity: every host is wired, every switch port index a link
/// claims exists on the switch, and both endpoints of every link agree
/// with the reverse `link_at` lookup (no aliased ports).
pub fn port_budget_ok(topo: &Topology) -> Result<(), String> {
    for h in 0..topo.num_hosts() {
        if topo.link_at(Endpoint::Host(NodeId(h as u16))).is_none() {
            return Err(format!("host {h} is not wired"));
        }
    }
    for (id, link) in topo.links() {
        for ep in [link.a, link.b] {
            if let Some((s, p)) = ep.switch() {
                if p.idx() >= topo.switch_ports(s) as usize {
                    return Err(format!(
                        "link {} claims port {} on switch {} which has only {} ports",
                        id.idx(),
                        p.idx(),
                        s.idx(),
                        topo.switch_ports(s)
                    ));
                }
            }
            if topo.link_at(ep) != Some(id) {
                return Err(format!("link {} endpoint {ep:?} aliased", id.idx()));
            }
        }
    }
    Ok(())
}

/// The link ids a source route traverses (host attachment link included),
/// or `None` if the route leaves the fabric.
pub fn route_links(topo: &Topology, src: NodeId, route: &Route) -> Option<Vec<LinkId>> {
    let first = topo.link_at(Endpoint::Host(src))?;
    let mut links = vec![first];
    let mut at = topo.link(first).other(Endpoint::Host(src));
    for &p in route.ports() {
        let (s, _) = at.switch()?;
        let ep = Endpoint::Switch(s, PortId(p));
        let link = topo.link_at(ep)?;
        links.push(link);
        at = topo.link(link).other(ep);
    }
    Some(links)
}

/// Greedy lower bound on the number of link-disjoint switch-fabric paths
/// between two hosts, capped at `cap`. The hosts' own attachment links are
/// exempt (each host has exactly one), so this measures fabric diversity:
/// 1 = a single fabric link can cut the pair, `cap` = at least `cap`
/// independent paths (or a same-switch pair, which no fabric link can cut).
pub fn link_disjoint_paths(topo: &Topology, a: NodeId, b: NodeId, cap: usize) -> usize {
    let exempt: Vec<LinkId> = [a, b]
        .iter()
        .filter_map(|&h| topo.link_at(Endpoint::Host(h)))
        .collect();
    let mut used: Vec<LinkId> = Vec::new();
    let mut count = 0;
    while count < cap {
        let alive = |l: LinkId| !used.contains(&l) || exempt.contains(&l);
        let Some(route) = topo.shortest_route(a, b, alive) else {
            break;
        };
        let links = route_links(topo, a, &route).expect("shortest route traces");
        let fabric_links: Vec<LinkId> = links.into_iter().filter(|l| !exempt.contains(l)).collect();
        count += 1;
        if fabric_links.is_empty() {
            return cap; // same-switch pair: only host links, uncuttable
        }
        used.extend(fabric_links);
    }
    count
}

/// Greedy in-order count of candidates link-disjoint from every earlier
/// counted one, host-attach links excluded — the planner-independent
/// diversity currency route-planning strategies are scored with (the
/// symmetry proptests and the cross-topology study both use it).
pub fn disjoint_count(topo: &Topology, from: NodeId, routes: &[Route]) -> usize {
    let mut used: std::collections::HashSet<LinkId> = std::collections::HashSet::new();
    let mut n = 0;
    for r in routes {
        let Some(links) = route_links(topo, from, r) else {
            continue;
        };
        let fabric: Vec<LinkId> = links
            .iter()
            .copied()
            .filter(|&l| topo.link(l).a.switch().is_some() && topo.link(l).b.switch().is_some())
            .collect();
        if fabric.iter().all(|l| !used.contains(l)) {
            n += 1;
            used.extend(fabric);
        }
    }
    n
}

/// Links whose individual death leaves all hosts connected — the safe
/// candidates for single-fault injection. Host attachment links are never
/// survivable (each host has exactly one), so only fabric links qualify.
pub fn survivable_links(topo: &Topology) -> Vec<LinkId> {
    let Some(cuts) = host_cuts(topo) else {
        return Vec::new();
    };
    topo.links()
        .filter(|(_, l)| l.a.host().is_none() && l.b.host().is_none())
        .map(|(id, _)| id)
        .filter(|id| !cuts.links[id.idx()])
        .collect()
}

/// Host-less switches whose individual death leaves all hosts connected —
/// the safe candidates for permanent switch kills.
pub fn survivable_switches(topo: &Topology) -> Vec<SwitchId> {
    let Some(cuts) = host_cuts(topo) else {
        return Vec::new();
    };
    (0..topo.num_switches())
        .map(|i| SwitchId(i as u16))
        .filter(|&s| topo.neighbors(s).all(|(_, _, far)| far.host().is_none()))
        .filter(|s| !cuts.switches[s.idx()])
        .collect()
}

/// What cuts the hosts apart: per link id, whether its death alone would,
/// and per switch, whether its death alone would.
struct HostCuts {
    links: Vec<bool>,
    switches: Vec<bool>,
}

/// One iterative depth-first search from host 0 that finds every bridge
/// and articulation point (Tarjan) and counts the hosts under each tree
/// vertex. Host 0 is the root, so the part a cut leaves above always
/// holds a host: a tree link cuts the hosts apart when it is a bridge
/// with a host below it, and a switch when a child subtree it separates
/// holds a host. Links and switches the search never reaches carry no
/// host path. Parallel links are told apart by id, so only the link a
/// vertex was entered by is its tree link; a self-loop link changes no
/// low point. `None` when the hosts are not all wired and connected.
fn host_cuts(topo: &Topology) -> Option<HostCuts> {
    let n_hosts = topo.num_hosts();
    let mut cuts = HostCuts {
        links: vec![false; topo.num_links()],
        switches: vec![false; topo.num_switches()],
    };
    if n_hosts == 0 {
        return Some(cuts);
    }
    let host = |h: usize| Endpoint::Host(NodeId(h as u16));
    if (0..n_hosts).any(|h| topo.link_at(host(h)).is_none()) {
        return None;
    }
    // Vertices: hosts 0..n_hosts, then switches.
    let vertex = |ep: Endpoint| match ep {
        Endpoint::Host(h) => h.idx(),
        Endpoint::Switch(s, _) => n_hosts + s.idx(),
    };
    // Port `i` of vertex `v`; a host has one.
    let port = |v: usize, i: usize| {
        if v < n_hosts {
            (i == 0).then_some(host(v))
        } else {
            let s = SwitchId((v - n_hosts) as u16);
            (i < usize::from(topo.switch_ports(s))).then_some(Endpoint::Switch(s, PortId(i as u8)))
        }
    };
    let n = n_hosts + topo.num_switches();
    // Discovery times start at 1, so 0 is unvisited.
    let (mut disc, mut low, mut hosts_below) = (vec![0u32; n], vec![0u32; n], vec![0u32; n]);
    let mut time = 1;
    (disc[0], low[0], hosts_below[0]) = (time, time, 1);
    // Frames: a vertex, the link it was entered by, the next port to scan.
    let mut stack: Vec<(usize, Option<LinkId>, usize)> = vec![(0, None, 0)];
    while let Some(top) = stack.last_mut() {
        let (v, via, i) = *top;
        if let Some(ep) = port(v, i) {
            top.2 += 1;
            let Some(link) = topo.link_at(ep).filter(|&l| Some(l) != via) else {
                continue;
            };
            let w = vertex(topo.link(link).other(ep));
            if disc[w] == 0 {
                time += 1;
                (disc[w], low[w], hosts_below[w]) = (time, time, u32::from(w < n_hosts));
                stack.push((w, Some(link), 0));
            } else {
                low[v] = low[v].min(disc[w]);
            }
            continue;
        }
        // Every port of `v` is scanned: fold it into its parent.
        stack.pop();
        let (Some(&(p, _, _)), Some(via)) = (stack.last(), via) else {
            continue;
        };
        low[p] = low[p].min(low[v]);
        hosts_below[p] += hosts_below[v];
        if hosts_below[v] > 0 {
            cuts.links[via.idx()] |= low[v] > disc[p];
            if p >= n_hosts {
                cuts.switches[p - n_hosts] |= low[v] >= disc[p];
            }
        }
    }
    (0..n_hosts).all(|h| disc[h] > 0).then_some(cuts)
}

/// Full structural validation of an atlas fabric:
///
/// 1. port budget + all hosts wired,
/// 2. all hosts mutually connected,
/// 3. `UpDownMap::build` succeeds and yields a route for every sampled
///    host pair (the full-map baseline must work here),
/// 4. diameter and path-diversity survey over sampled pairs.
pub fn check(fab: &Fabric) -> Result<Survey, String> {
    let topo = &fab.topo;
    port_budget_ok(topo)?;
    if !hosts_connected(topo, |_| true) {
        return Err(format!("{}: hosts are not connected", fab.spec.format()));
    }
    let map = UpDownMap::build(topo, |_| true)
        .ok_or_else(|| format!("{}: UpDownMap::build failed", fab.spec.format()))?;
    let sample = sample_hosts(&fab.hosts, 8);
    let mut diameter = 0;
    let mut min_diversity = usize::MAX;
    for &a in &sample {
        for &b in &sample {
            if a == b {
                continue;
            }
            let r = map
                .route(topo, a, b, |_| true)
                .ok_or_else(|| format!("no UP*/DOWN* route {a} -> {b}"))?;
            let shortest = topo
                .shortest_route(a, b, |_| true)
                .ok_or_else(|| format!("no route {a} -> {b}"))?;
            let _ = r;
            diameter = diameter.max(shortest.len());
            min_diversity = min_diversity.min(link_disjoint_paths(topo, a, b, 8));
        }
    }
    Ok(Survey {
        hosts: topo.num_hosts(),
        switches: topo.num_switches(),
        links: topo.num_links(),
        diameter_hops: diameter,
        min_diversity: if min_diversity == usize::MAX {
            0
        } else {
            min_diversity
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atlas::TopoSpec;

    #[test]
    fn fat_tree_validates_with_diversity() {
        let f = TopoSpec::FatTree { k: 4 }.build();
        let s = check(&f).unwrap();
        assert_eq!((s.hosts, s.switches), (16, 20));
        assert_eq!(s.diameter_hops, 5, "cross-pod = edge-agg-core-agg-edge");
        assert!(
            s.min_diversity >= 2,
            "fat-tree pairs have k/2 disjoint paths, got {}",
            s.min_diversity
        );
    }

    #[test]
    fn chain_has_no_diversity() {
        let f = TopoSpec::Chain(3).build();
        let s = check(&f).unwrap();
        assert_eq!(
            s.min_diversity, 1,
            "a chain is all single points of failure"
        );
        assert!(survivable_links(&f.topo).is_empty());
        assert!(survivable_switches(&f.topo).is_empty());
    }

    #[test]
    fn torus_links_are_survivable() {
        let f = TopoSpec::Torus2D {
            rows: 4,
            cols: 4,
            hosts: 1,
        }
        .build();
        let s = check(&f).unwrap();
        assert!(s.min_diversity >= 2);
        // Every fabric link in a torus is on a cycle.
        assert_eq!(survivable_links(&f.topo).len(), 32);
        // Every switch carries a host, so none can be killed safely.
        assert!(survivable_switches(&f.topo).is_empty());
    }

    #[test]
    fn fat_tree_cores_and_aggs_are_killable() {
        let f = TopoSpec::FatTree { k: 4 }.build();
        // 8 aggs + 4 cores carry no hosts and are individually redundant.
        assert_eq!(survivable_switches(&f.topo).len(), 12);
    }

    #[test]
    fn spare_tree_ring_makes_uplinks_survivable() {
        let full = TopoSpec::SpareTree {
            fanout: 2,
            depth: 2,
            hosts: 1,
            spares: u16::MAX,
        }
        .build();
        // With the full leaf ring every fabric link sits on a cycle.
        let n_fabric_links = full.topo.num_links() - full.topo.num_hosts();
        assert_eq!(survivable_links(&full.topo).len(), n_fabric_links);
        let bare = TopoSpec::SpareTree {
            fanout: 2,
            depth: 2,
            hosts: 1,
            spares: 0,
        }
        .build();
        assert!(
            survivable_links(&bare.topo).is_empty(),
            "a bare tree has none"
        );
    }

    #[test]
    fn same_switch_pair_is_uncuttable() {
        let f = TopoSpec::Star(4).build();
        assert_eq!(
            link_disjoint_paths(&f.topo, f.hosts[0], f.hosts[1], 8),
            8,
            "no fabric link exists to cut"
        );
    }

    #[test]
    fn dead_link_detected_by_connectivity() {
        let f = TopoSpec::Chain(2).build();
        let cut = f.topo.links().next().unwrap().0;
        assert!(hosts_connected(&f.topo, |_| true));
        assert!(!hosts_connected(&f.topo, |l| l != cut));
    }
}
