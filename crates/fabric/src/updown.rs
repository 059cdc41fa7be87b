//! UP*/DOWN* deadlock-free routing — the full-map baseline.
//!
//! The classic algorithm the Myrinet mapper uses (§4.2, refs [10, 26, 29]):
//! build a spanning tree of the switches by BFS, orient every link "up"
//! (toward the root: lower BFS level, ties broken by lower switch id), and
//! allow only routes consisting of zero or more up channels followed by zero
//! or more down channels. Such routes cannot form a cyclic channel
//! dependency, hence no deadlock — at the cost of generally non-minimal
//! paths and a *full* network map.
//!
//! The paper's contribution replaces this with on-demand partial mapping and
//! accepts possibly-deadlocking routes (recovered by path reset +
//! retransmission); this module is the baseline it is compared against, and
//! also the source of initial route tables for experiments that start from a
//! correctly mapped network.

use std::collections::VecDeque;

use crate::ids::{Endpoint, LinkId, NodeId, PortId, SwitchId};
use crate::route::{Route, MAX_HOPS};
use crate::topology::Topology;

/// The result of a full UP*/DOWN* mapping pass.
#[derive(Debug, Clone)]
pub struct UpDownMap {
    /// BFS level of each switch from the root (None = unreachable).
    pub level: Vec<Option<u32>>,
    /// The root switch chosen.
    pub root: SwitchId,
}

/// Direction of a traversal step relative to the spanning-tree orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Up,
    Down,
}

/// Compute BFS levels from `root` over alive links.
pub fn bfs_levels(
    topo: &Topology,
    root: SwitchId,
    alive: &impl Fn(LinkId) -> bool,
) -> Vec<Option<u32>> {
    let mut level = vec![None; topo.num_switches()];
    level[root.idx()] = Some(0);
    let mut q = VecDeque::from([root]);
    while let Some(s) = q.pop_front() {
        let l = level[s.idx()].unwrap();
        for p in 0..topo.switch_ports(s) {
            let Some(link) = topo.link_at(Endpoint::Switch(s, PortId(p))) else {
                continue;
            };
            if !alive(link) {
                continue;
            }
            if let Endpoint::Switch(s2, _) = topo.link(link).other(Endpoint::Switch(s, PortId(p))) {
                if level[s2.idx()].is_none() {
                    level[s2.idx()] = Some(l + 1);
                    q.push_back(s2);
                }
            }
        }
    }
    level
}

impl UpDownMap {
    /// Build the orientation for `topo` rooted at the lowest-id switch that
    /// is reachable, considering only alive links.
    pub fn build(topo: &Topology, alive: impl Fn(LinkId) -> bool) -> Option<UpDownMap> {
        if topo.num_switches() == 0 {
            return None;
        }
        let root = SwitchId(0);
        let level = bfs_levels(topo, root, &alive);
        Some(UpDownMap { level, root })
    }

    /// Is traversing from switch `a` to switch `b` an **up** step?
    /// Up = toward the root: strictly lower level, ties broken by lower id.
    fn step_dir(&self, a: SwitchId, b: SwitchId) -> Option<Dir> {
        let (la, lb) = (self.level[a.idx()]?, self.level[b.idx()]?);
        Some(if (lb, b.0) < (la, a.0) {
            Dir::Up
        } else {
            Dir::Down
        })
    }

    /// Compute an UP*/DOWN*-legal route from `from` to `to`, shortest among
    /// legal routes (BFS over (switch, phase) states). `None` when no legal
    /// route exists within the [`MAX_HOPS`] = 16 hop budget.
    pub fn route(
        &self,
        topo: &Topology,
        from: NodeId,
        to: NodeId,
        alive: impl Fn(LinkId) -> bool,
    ) -> Option<Route> {
        if from == to {
            return Some(Route::empty());
        }
        let mut found = None;
        self.search_hosts(topo, from, alive, |h, route| {
            if h == to {
                found = Some(route());
            }
            found.is_some()
        });
        found
    }

    /// Every host's [`UpDownMap::route`] from `src`, indexed by
    /// destination, from one search: entry `b` (including `b == src`) is
    /// exactly `route(topo, src, b, alive)`.
    ///
    /// # Panics
    /// Panics if `src` is not a host of `topo`.
    pub fn routes_from(
        &self,
        topo: &Topology,
        src: NodeId,
        alive: impl Fn(LinkId) -> bool,
    ) -> Vec<Option<Route>> {
        let mut row = vec![None; topo.num_hosts()];
        row[src.idx()] = Some(Route::empty());
        self.search_hosts(topo, src, alive, |h, route| {
            row[h.idx()].get_or_insert_with(route);
            false
        });
        row
    }

    /// The breadth-first search behind [`UpDownMap::route`] and
    /// [`UpDownMap::routes_from`], over (switch, went-down) states: once a
    /// down step is taken, up steps are forbidden. States leave the queue
    /// in BFS order and ports are scanned in ascending order; a route that
    /// already has [`MAX_HOPS`] bytes is not extended. `hit(h, route)` is
    /// called for every alive link into a host; a switch can be scanned in
    /// both phases, so a host can be hit twice, and its first hit is its
    /// route. `route()` builds the route on demand, as in the search behind
    /// [`Topology::shortest_route`]. The search stops as soon as `hit`
    /// returns true.
    fn search_hosts(
        &self,
        topo: &Topology,
        from: NodeId,
        alive: impl Fn(LinkId) -> bool,
        mut hit: impl FnMut(NodeId, &dyn Fn() -> Route) -> bool,
    ) {
        let Some(first) = topo.link_at(Endpoint::Host(from)) else {
            return;
        };
        if !alive(first) {
            return;
        }
        let s0 = match topo.link(first).other(Endpoint::Host(from)) {
            Endpoint::Host(h) => {
                hit(h, &Route::empty);
                return;
            }
            Endpoint::Switch(s, _) => s,
        };
        let mut seen = vec![[false; 2]; topo.num_switches()];
        let mut q = VecDeque::new();
        seen[s0.idx()][0] = true;
        q.push_back((s0, false, Route::empty()));
        while let Some((s, went_down, route)) = q.pop_front() {
            if route.len() == MAX_HOPS {
                continue;
            }
            for p in 0..topo.switch_ports(s) {
                let Some(link) = topo.link_at(Endpoint::Switch(s, PortId(p))) else {
                    continue;
                };
                if !alive(link) {
                    continue;
                }
                match topo.link(link).other(Endpoint::Switch(s, PortId(p))) {
                    Endpoint::Host(h) => {
                        if hit(h, &|| route.then(p)) {
                            return;
                        }
                    }
                    Endpoint::Switch(s2, _) => {
                        let Some(dir) = self.step_dir(s, s2) else {
                            continue;
                        };
                        let down2 = match dir {
                            Dir::Up if went_down => continue, // down→up is illegal
                            Dir::Up => false,
                            Dir::Down => true,
                        };
                        let gd = went_down || down2;
                        if !seen[s2.idx()][gd as usize] {
                            seen[s2.idx()][gd as usize] = true;
                            q.push_back((s2, gd, route.then(p)));
                        }
                    }
                }
            }
        }
    }

    /// Compute the full routing table: routes for every ordered host pair
    /// (the "full network map" whose cost the paper's scheme avoids
    /// paying), one [`UpDownMap::routes_from`] search per source.
    pub fn full_table(
        &self,
        topo: &Topology,
        alive: impl Fn(LinkId) -> bool + Copy,
    ) -> Vec<Vec<Option<Route>>> {
        (0..topo.num_hosts())
            .map(|a| self.routes_from(topo, NodeId(a as u16), alive))
            .collect()
    }
}

/// Check that a set of routes cannot deadlock: build the channel-waits-for
/// graph (for each route, channel i depends on channel i+1) and verify it is
/// acyclic. Used by tests to prove UP*/DOWN* tables are safe and that the
/// on-demand mapper's tables may *not* be (the paper accepts this).
pub fn routes_deadlock_free(topo: &Topology, routes: &[(NodeId, Route)]) -> bool {
    use std::collections::HashMap;
    // Collect directed channel sequences per route.
    let mut edges: HashMap<(LinkId, bool), Vec<(LinkId, bool)>> = HashMap::new();
    let mut nodes: Vec<(LinkId, bool)> = Vec::new();
    for (src, route) in routes {
        let mut chs = Vec::new();
        let Some(first) = topo.link_at(Endpoint::Host(*src)) else {
            continue;
        };
        let mut at = topo.link(first).other(Endpoint::Host(*src));
        chs.push((first, topo.link(first).a == Endpoint::Host(*src)));
        for &p in route.ports() {
            let Some((s, _)) = at.switch() else { break };
            let Some(link) = topo.link_at(Endpoint::Switch(s, PortId(p))) else {
                break;
            };
            chs.push((link, topo.link(link).a == Endpoint::Switch(s, PortId(p))));
            at = topo.link(link).other(Endpoint::Switch(s, PortId(p)));
        }
        for w in chs.windows(2) {
            edges.entry(w[0]).or_default().push(w[1]);
            nodes.push(w[0]);
            nodes.push(w[1]);
        }
    }
    nodes.sort_unstable_by_key(|&(l, d)| (l.0, d));
    nodes.dedup();
    // DFS cycle check.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let idx: HashMap<(LinkId, bool), usize> =
        nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut mark = vec![Mark::White; nodes.len()];
    fn dfs(
        u: usize,
        nodes: &[(LinkId, bool)],
        idx: &HashMap<(LinkId, bool), usize>,
        edges: &HashMap<(LinkId, bool), Vec<(LinkId, bool)>>,
        mark: &mut [Mark],
    ) -> bool {
        mark[u] = Mark::Grey;
        if let Some(succs) = edges.get(&nodes[u]) {
            for v in succs {
                let vi = idx[v];
                match mark[vi] {
                    Mark::Grey => return false, // cycle
                    Mark::White => {
                        if !dfs(vi, nodes, idx, edges, mark) {
                            return false;
                        }
                    }
                    Mark::Black => {}
                }
            }
        }
        mark[u] = Mark::Black;
        true
    }
    for u in 0..nodes.len() {
        if mark[u] == Mark::White && !dfs(u, &nodes, &idx, &edges, &mut mark) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{self, paper_mapping_testbed};

    #[test]
    fn levels_from_root() {
        let tb = paper_mapping_testbed(1);
        let m = UpDownMap::build(&tb.topo, |_| true).unwrap();
        assert_eq!(m.level[0], Some(0));
        assert_eq!(m.level[1], Some(1));
        assert_eq!(m.level[2], Some(1));
        assert_eq!(m.level[3], Some(1));
    }

    #[test]
    fn updown_routes_exist_and_trace() {
        let tb = paper_mapping_testbed(2);
        let m = UpDownMap::build(&tb.topo, |_| true).unwrap();
        for &a in &tb.hosts {
            for &b in &tb.hosts {
                if a == b {
                    continue;
                }
                let r = m.route(&tb.topo, a, b, |_| true).expect("legal route");
                assert_eq!(
                    tb.topo.trace_route(a, &r, |_| true),
                    Some(Endpoint::Host(b)),
                    "route {r:?} from {a} must reach {b}"
                );
            }
        }
    }

    #[test]
    fn full_table_is_deadlock_free() {
        let tb = paper_mapping_testbed(2);
        let m = UpDownMap::build(&tb.topo, |_| true).unwrap();
        let table = m.full_table(&tb.topo, |_| true);
        let mut routes = Vec::new();
        for (a, row) in table.iter().enumerate() {
            for r in row.iter().flatten() {
                routes.push((NodeId(a as u16), *r));
            }
        }
        assert!(routes_deadlock_free(&tb.topo, &routes));
    }

    #[test]
    fn cyclic_routes_detected_as_deadlock_prone() {
        // Build a 3-switch ring with one host per switch, and route every
        // host "the long way around" so channel dependencies form a cycle.
        let mut t = Topology::new();
        let hs: Vec<_> = (0..3).map(|_| t.add_host()).collect();
        let ss: Vec<_> = (0..3).map(|_| t.add_switch(4)).collect();
        for i in 0..3 {
            t.connect_host(hs[i], ss[i], 0);
            t.connect_switches(ss[i], 1, ss[(i + 1) % 3], 2);
        }
        // Clockwise two-hop routes: h_i -> s_i -> s_{i+1} -> s_{i+2} -> h_{i+2}
        let routes: Vec<(NodeId, Route)> = (0..3)
            .map(|i| (hs[i], Route::from_ports(&[1, 1, 0])))
            .collect();
        for (h, r) in &routes {
            let dst = t.trace_route(*h, r, |_| true).unwrap();
            assert!(matches!(dst, Endpoint::Host(_)));
        }
        assert!(
            !routes_deadlock_free(&t, &routes),
            "ring routes must form a cycle"
        );
    }

    #[test]
    fn chain_routes_are_safe() {
        let (t, a, b) = topology::chain(4);
        let r = t.shortest_route(a, b, |_| true).unwrap();
        let rb = t.shortest_route(b, a, |_| true).unwrap();
        assert!(routes_deadlock_free(&t, &[(a, r), (b, rb)]));
    }

    /// Row `src` of [`UpDownMap::routes_from`] against the per-pair
    /// search, entry by entry.
    fn assert_row_matches(
        m: &UpDownMap,
        t: &Topology,
        src: NodeId,
        alive: impl Fn(LinkId) -> bool + Copy,
    ) {
        let row = m.routes_from(t, src, alive);
        assert_eq!(row.len(), t.num_hosts());
        for (b, r) in row.iter().enumerate() {
            let b = NodeId(b as u16);
            assert_eq!(*r, m.route(t, src, b, alive), "{src} -> {b}");
        }
    }

    #[test]
    fn route_rows_edge_cases() {
        // A source with no link, or a dead first link, reaches only itself.
        let (mut t, a, b) = topology::pair_via_switch();
        let stray = t.add_host();
        let m = UpDownMap::build(&t, |_| true).unwrap();
        let row = m.routes_from(&t, stray, |_| true);
        assert_eq!(row, vec![None, None, Some(Route::empty())]);
        assert_eq!(m.routes_from(&t, a, |_| true)[stray.idx()], None);
        let la = t.link_at(Endpoint::Host(a)).unwrap();
        let row = m.routes_from(&t, a, |l| l != la);
        assert_eq!(row, vec![Some(Route::empty()), None, None]);
        for src in [a, b, stray] {
            assert_row_matches(&m, &t, src, |_| true);
            assert_row_matches(&m, &t, src, |l| l != la);
        }
        // Beyond the hop budget: a chain is all down steps from its head,
        // so only its length stops the route.
        for (k, reach) in [(MAX_HOPS, true), (MAX_HOPS + 1, false)] {
            let (t, a, b) = topology::chain(k);
            let m = UpDownMap::build(&t, |_| true).unwrap();
            let row = m.routes_from(&t, a, |_| true);
            assert_eq!(row[b.idx()].is_some(), reach, "chain({k})");
            assert_row_matches(&m, &t, a, |_| true);
            assert_row_matches(&m, &t, b, |_| true);
        }
    }

    #[test]
    fn updown_survives_dead_links() {
        let tb = paper_mapping_testbed(1);
        let dead = [tb.redundant_links[0], tb.redundant_links[1]];
        let alive = |l: LinkId| !dead.contains(&l);
        let m = UpDownMap::build(&tb.topo, alive).unwrap();
        let (a, b) = (tb.hosts[0], tb.hosts[1]);
        let r = m.route(&tb.topo, a, b, alive).expect("detour must exist");
        assert_eq!(tb.topo.trace_route(a, &r, alive), Some(Endpoint::Host(b)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::topology::Topology;
    use proptest::prelude::*;
    use san_sim::SimRng;

    /// Build a random connected multi-switch network.
    fn random_topology(seed: u64, n_switch: usize, n_host: usize, extra: usize) -> Topology {
        let mut rng = SimRng::seed_from(seed);
        let mut t = Topology::new();
        let switches: Vec<_> = (0..n_switch).map(|_| t.add_switch(16)).collect();
        // Random spanning tree.
        for i in 1..n_switch {
            let j = rng.below(i as u64) as usize;
            let pa = (0..16)
                .find(|&p| {
                    t.link_at(Endpoint::Switch(switches[i], PortId(p)))
                        .is_none()
                })
                .unwrap();
            let pb = (0..16)
                .find(|&p| {
                    t.link_at(Endpoint::Switch(switches[j], PortId(p)))
                        .is_none()
                })
                .unwrap();
            t.connect_switches(switches[i], pa, switches[j], pb);
        }
        // Extra redundant links.
        for _ in 0..extra {
            let i = rng.below(n_switch as u64) as usize;
            let j = rng.below(n_switch as u64) as usize;
            if i == j {
                continue;
            }
            let pa = (0..16).find(|&p| {
                t.link_at(Endpoint::Switch(switches[i], PortId(p)))
                    .is_none()
            });
            let pb = (0..16).find(|&p| {
                t.link_at(Endpoint::Switch(switches[j], PortId(p)))
                    .is_none()
            });
            if let (Some(pa), Some(pb)) = (pa, pb) {
                t.connect_switches(switches[i], pa, switches[j], pb);
            }
        }
        // Hosts round-robin across switches.
        for h in 0..n_host {
            let host = t.add_host();
            let s = switches[h % n_switch];
            if let Some(p) = (0..16).find(|&p| t.link_at(Endpoint::Switch(s, PortId(p))).is_none())
            {
                t.connect_host(host, s, p);
            }
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// For any random connected topology, UP*/DOWN* produces routes for
        /// all wired host pairs, the routes trace correctly, and the full
        /// table is deadlock-free.
        #[test]
        fn updown_always_safe(seed in any::<u64>(), n_switch in 2usize..6, n_host in 2usize..8, extra in 0usize..4) {
            let t = random_topology(seed, n_switch, n_host, extra);
            let m = UpDownMap::build(&t, |_| true).unwrap();
            let table = m.full_table(&t, |_| true);
            let mut routes = Vec::new();
            #[allow(clippy::needless_range_loop)] // a/b are also NodeId values
            for a in 0..t.num_hosts() {
                for b in 0..t.num_hosts() {
                    if a == b { continue; }
                    let wired = |h: usize| t.link_at(Endpoint::Host(NodeId(h as u16))).is_some();
                    if wired(a) && wired(b) {
                        let r = table[a][b].expect("connected pair must have a route");
                        prop_assert_eq!(
                            t.trace_route(NodeId(a as u16), &r, |_| true),
                            Some(Endpoint::Host(NodeId(b as u16)))
                        );
                        routes.push((NodeId(a as u16), r));
                    }
                }
            }
            prop_assert!(routes_deadlock_free(&t, &routes));
        }
    }
}
