//! The multipath route planner and its degraded-fabric cache.
//!
//! For every host pair the planner computes up to k candidate source
//! routes: the shortest route first, then further equal-cost routes
//! selected greedily for link diversity, then link-disjoint alternates
//! (each avoiding every fabric link the earlier candidates used). The
//! set is a failover list — diversity, not enumeration order, is what
//! makes it survive a fault. The set is exactly what
//! the on-demand mapper wants as *hints* after a failure — try the
//! alternates with single host probes before paying for a BFS exploration
//! — and what a global controller would install as a full map.
//!
//! Planning is a *strategy* behind the [`RoutePlanner`] trait: the
//! topology-agnostic [`GenericDiversePlanner`] (BFS/ECMP pool + diverse
//! selection, exactly the historical behaviour) and the torus-native
//! [`crate::symmetry::TorusSymmetryPlanner`] (O(k·hops) template
//! materialization, no pool enumeration). [`planner_for`] picks the
//! strategy by [`TopoSpec`] family; [`RouteCache`] carries one and
//! exposes its provenance (strategy id, planner epoch, hit/miss) so
//! mapper hints can say where they came from.
//!
//! Deadlock-freedom of a planned table is a *verdict*, not a guarantee:
//! minimal routes on cyclic fabrics (tori) generally are not
//! deadlock-free, and the paper's whole point is to recover rather than
//! avoid. [`PlanTable::deadlock_free`] reuses
//! `fabric::updown::routes_deadlock_free` so callers can decide.
//!
//! [`RouteCache`] memoizes plans keyed by `(topology fingerprint,
//! alive-set fingerprint)`: repeated remaps on the same degraded fabric
//! (the common case during a flap storm) are O(1) lookups, and the
//! hit/miss counters are registered in telemetry when a handle is given.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use san_fabric::route::MAX_HOPS;
use san_fabric::updown::routes_deadlock_free;
use san_fabric::{Endpoint, LinkId, NodeId, PortId, Route, SwitchId, Topology, WiringDelta};
use san_telemetry::{Counter, Telemetry};

use crate::atlas::{fingerprint_topology, Fnv, TopoSpec};
use crate::validate::route_links;

/// One planning request: the wiring, the hosts whose ordered pairs want
/// candidates, the per-pair candidate budget, the alive-link predicate,
/// and optionally a prior table to carry unaffected pairs from.
pub struct PlanRequest<'a> {
    /// The wiring to plan over.
    pub topo: &'a Topology,
    /// Hosts whose ordered pairs are planned.
    pub hosts: &'a [NodeId],
    /// Candidate budget per pair.
    pub k: usize,
    /// Which links may be used.
    pub alive: &'a dyn Fn(LinkId) -> bool,
    /// Prior plan to migrate across a wiring delta, if any.
    pub hints: Option<PlanHints<'a>>,
}

/// Carry-over hints for incremental replanning: pairs whose every prior
/// candidate avoids the delta's changed links keep their candidate lists
/// byte-identically; everything else is recomputed.
pub struct PlanHints<'a> {
    /// The table planned on the pre-delta wiring (same alive set).
    pub prior: &'a PlanTable,
    /// The wiring delta separating `prior`'s topology from the current one.
    pub delta: &'a WiringDelta,
}

/// A planning result: the table plus what the carry-over path did.
pub struct Planned {
    /// The planned table.
    pub table: PlanTable,
    /// Pairs carried over byte-identically from the prior table.
    pub kept_pairs: usize,
    /// Pairs recomputed (non-empty result).
    pub replanned_pairs: usize,
}

/// A route-planning strategy. Implementations provide per-pair candidate
/// generation; whole-table planning (with incremental carry-over) is a
/// shared default. `steps` is the strategy's route-enumeration work
/// counter — ports/edges examined for search-based strategies, hops
/// emitted for template-based ones — the currency the cross-topology
/// study compares.
pub trait RoutePlanner {
    /// Stable strategy identifier (hint provenance, telemetry).
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

    /// Plan every ordered pair of `req.hosts`. With [`PlanRequest::hints`],
    /// pairs whose prior candidates all avoid the delta's changed links are
    /// carried over byte-identically; the rest are recomputed via
    /// [`RoutePlanner::pair_routes`].
    fn plan(&mut self, req: &PlanRequest<'_>) -> Planned {
        let mut routes = BTreeMap::new();
        let mut kept_pairs = 0;
        let mut replanned_pairs = 0;
        for &a in req.hosts {
            for &b in req.hosts {
                if a == b {
                    continue;
                }
                let carried = req.hints.as_ref().and_then(|h| {
                    let cands = h.prior.routes(a, b);
                    let untouched = !cands.is_empty()
                        && cands.iter().all(|r| {
                            route_links(req.topo, a, r)
                                .is_some_and(|links| links.iter().all(|l| !h.delta.touches(*l)))
                        });
                    untouched.then(|| cands.to_vec())
                });
                match carried {
                    Some(cands) => {
                        kept_pairs += 1;
                        routes.insert((a.0, b.0), cands);
                    }
                    None => {
                        let cands = self.pair_routes(req.topo, a, b, req.k, req.alive);
                        if !cands.is_empty() {
                            replanned_pairs += 1;
                            routes.insert((a.0, b.0), cands);
                        }
                    }
                }
            }
        }
        Planned {
            table: PlanTable { routes },
            kept_pairs,
            replanned_pairs,
        }
    }
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

/// A planned route table: up to k candidates per ordered host pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanTable {
    /// Candidates per (src, dst), primaries first. Ordered map so
    /// iteration — and therefore the fingerprint — is deterministic.
    routes: BTreeMap<(u16, u16), Vec<Route>>,
}

impl PlanTable {
    /// The candidate set for a pair (empty when disconnected).
    pub fn routes(&self, from: NodeId, to: NodeId) -> &[Route] {
        self.routes
            .get(&(from.0, to.0))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The primary (first shortest) route for a pair.
    pub fn primary(&self, from: NodeId, to: NodeId) -> Option<Route> {
        self.routes(from, to).first().copied()
    }

    /// All (src, primary route) pairs — the shape the deadlock checker
    /// takes.
    pub fn primaries(&self) -> Vec<(NodeId, Route)> {
        self.routes
            .iter()
            .filter_map(|(&(a, _), rs)| rs.first().map(|&r| (NodeId(a), r)))
            .collect()
    }

    /// Would installing every primary route at once be deadlock-free?
    /// (UP*/DOWN* tables are; minimal tables on cyclic fabrics usually are
    /// not — the paper recovers instead of avoiding.)
    pub fn deadlock_free(&self, topo: &Topology) -> bool {
        routes_deadlock_free(topo, &self.primaries())
    }

    /// Pairs planned.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when nothing was planned.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// FNV-1a digest over every pair's candidate list — byte-identical
    /// plans (and nothing else) collide, which is what the cache
    /// determinism test pins.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (&(a, b), rs) in &self.routes {
            h.u64(a as u64);
            h.u64(b as u64);
            h.u64(rs.len() as u64);
            for r in rs {
                h.u64(r.len() as u64);
                for &p in r.ports() {
                    h.u64(p as u64);
                }
            }
        }
        h.finish()
    }
}

/// Digest of an alive-link set, given the dead list (sorted internally so
/// callers can pass ids in any order).
pub fn alive_fingerprint(dead: &[LinkId]) -> u64 {
    let mut ids: Vec<u32> = dead.iter().map(|l| l.0).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut h = Fnv::new();
    h.u64(ids.len() as u64);
    for id in ids {
        h.u64(id as u64);
    }
    h.finish()
}

/// What [`RouteCache::replan_after`] did with one fingerprint delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplanStats {
    /// Pairs whose candidate lists were carried over byte-identically
    /// (no candidate crosses a changed link).
    pub kept_pairs: usize,
    /// Pairs recomputed: a candidate crossed a changed link, or the pair
    /// only became plannable on the new wiring.
    pub replanned_pairs: usize,
    /// Stale whole-cache entries dropped (old-fingerprint entries for
    /// *other* alive sets — their dead lists are unknown here, so they
    /// cannot be migrated).
    pub evicted: usize,
}

/// Memoized planning over degraded fabrics, keyed by
/// `(topology fingerprint, alive-set fingerprint)`, computing through a
/// [`RoutePlanner`] strategy (generic unless constructed with
/// [`RouteCache::for_spec`]).
pub struct RouteCache {
    k: usize,
    planner: Box<dyn RoutePlanner>,
    entries: HashMap<(u64, u64), Arc<PlanTable>>,
    epoch: u64,
    last_hit: bool,
    /// Cache hits (same degraded fabric re-planned).
    pub hits: Counter,
    /// Cache misses (fresh plan computed).
    pub misses: Counter,
    /// Entries evicted by reconfiguration deltas.
    pub evicted: Counter,
    /// Pairs carried over byte-identically across reconfigurations.
    pub kept_pairs: Counter,
    /// Pairs recomputed by reconfiguration deltas.
    pub replanned_pairs: Counter,
}

impl RouteCache {
    /// A cache planning `k` candidates per pair with the generic strategy
    /// and local counters.
    pub fn new(k: usize) -> Self {
        Self::with_planner(k, Box::new(GenericDiversePlanner::new()))
    }

    /// A cache planning through an explicit strategy.
    pub fn with_planner(k: usize, planner: Box<dyn RoutePlanner>) -> Self {
        Self {
            k: k.max(1),
            planner,
            entries: HashMap::new(),
            epoch: 0,
            last_hit: false,
            hits: Counter::default(),
            misses: Counter::default(),
            evicted: Counter::default(),
            kept_pairs: Counter::default(),
            replanned_pairs: Counter::default(),
        }
    }

    /// A cache whose strategy is chosen by [`TopoSpec`] family (torus
    /// specs get the symmetry planner, everything else generic).
    pub fn for_spec(k: usize, spec: &TopoSpec) -> Self {
        Self::with_planner(k, planner_for(spec))
    }

    /// Same as [`RouteCache::new`], with hit/miss counters registered in
    /// `tel` as `topo.cache.hits` / `topo.cache.misses`, and the
    /// reconfiguration counters as
    /// `reconfig.cache.{evicted, kept_pairs, replanned_pairs}`.
    pub fn with_telemetry(k: usize, tel: &Telemetry) -> Self {
        Self {
            hits: tel.counter("topo.cache.hits"),
            misses: tel.counter("topo.cache.misses"),
            evicted: tel.counter("reconfig.cache.evicted"),
            kept_pairs: tel.counter("reconfig.cache.kept_pairs"),
            replanned_pairs: tel.counter("reconfig.cache.replanned_pairs"),
            ..Self::new(k)
        }
    }

    /// The strategy id of the planner behind this cache.
    pub fn strategy(&self) -> &'static str {
        self.planner.id()
    }

    /// The planner epoch: the latest reconfiguration epoch migrated via
    /// [`RouteCache::replan_after`] (0 before any migration).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the most recent [`RouteCache::plan`] call was a cache hit.
    pub fn last_was_hit(&self) -> bool {
        self.last_hit
    }

    /// Cumulative route-enumeration steps the strategy has spent.
    pub fn steps(&self) -> u64 {
        self.planner.steps()
    }

    /// Migrate the cache across a live-reconfiguration delta instead of
    /// cold-starting on the new fingerprint. The entry for the *current*
    /// dead set is patched pair by pair: a pair whose every candidate
    /// avoids `delta.changed_links` keeps its candidate list
    /// byte-identically (the untouched-pair hit path), everything else —
    /// crossing pairs and pairs only plannable on the new wiring — is
    /// recomputed. Old-fingerprint entries for other alive sets are
    /// evicted (their dead lists are unknown here). After this call,
    /// [`RouteCache::plan`] on the new wiring is an O(1) hit.
    pub fn replan_after(
        &mut self,
        topo: &Topology,
        delta: &WiringDelta,
        hosts: &[NodeId],
        dead: &[LinkId],
    ) -> ReplanStats {
        let afp = alive_fingerprint(dead);
        let old = self.entries.remove(&(delta.old_fp, afp));
        // Every remaining old-fingerprint entry is unmigratable.
        let before = self.entries.len();
        self.entries.retain(|&(tfp, _), _| tfp != delta.old_fp);
        let evicted = before - self.entries.len();
        let alive = |l: LinkId| !dead.contains(&l);
        let k = self.k;
        let planned = self.planner.plan(&PlanRequest {
            topo,
            hosts,
            k,
            alive: &alive,
            hints: old.as_deref().map(|prior| PlanHints { prior, delta }),
        });
        let stats = ReplanStats {
            kept_pairs: planned.kept_pairs,
            replanned_pairs: planned.replanned_pairs,
            evicted,
        };
        self.entries
            .insert((delta.new_fp, afp), Arc::new(planned.table));
        self.epoch = delta.epoch;
        self.evicted.add(stats.evicted as u64);
        self.kept_pairs.add(stats.kept_pairs as u64);
        self.replanned_pairs.add(stats.replanned_pairs as u64);
        stats
    }

    /// The plan for `topo` with the given dead links, computed on first
    /// sight and shared (O(1)) afterwards. `hosts` must be the same for a
    /// given topology fingerprint (atlas fabrics guarantee this: hosts are
    /// part of the wiring, and the wiring is the fingerprint).
    pub fn plan(&mut self, topo: &Topology, hosts: &[NodeId], dead: &[LinkId]) -> Arc<PlanTable> {
        let key = (fingerprint_topology(topo), alive_fingerprint(dead));
        if let Some(hit) = self.entries.get(&key) {
            self.hits.hit();
            self.last_hit = true;
            return hit.clone();
        }
        self.misses.hit();
        self.last_hit = false;
        let k = self.k;
        let alive = |l: LinkId| !dead.contains(&l);
        let table = Arc::new(
            self.planner
                .plan(&PlanRequest {
                    topo,
                    hosts,
                    k,
                    alive: &alive,
                    hints: None,
                })
                .table,
        );
        self.entries.insert(key, table.clone());
        table
    }

    /// Cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atlas::TopoSpec;

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

    #[test]
    fn plan_covers_all_pairs_and_updown_is_safe() {
        let f = TopoSpec::FatTree { k: 4 }.build();
        let sample = crate::validate::sample_hosts(&f.hosts, 6);
        let table = RouteCache::new(4).plan(&f.topo, &sample, &[]);
        assert_eq!(table.len(), 6 * 5);
        // Minimal fat-tree routes are up-then-down, hence deadlock-free.
        assert!(table.deadlock_free(&f.topo));
    }

    #[test]
    fn torus_primaries_are_not_deadlock_free() {
        let f = TopoSpec::Torus2D {
            rows: 8,
            cols: 8,
            hosts: 1,
        }
        .build();
        let table = RouteCache::new(1).plan(&f.topo, &f.hosts, &[]);
        assert!(
            !table.deadlock_free(&f.topo),
            "minimal wrap-around routes must form channel cycles"
        );
    }

    #[test]
    fn trait_plan_matches_pair_routes_and_counts_steps() {
        let f = TopoSpec::FatTree { k: 4 }.build();
        let hosts = crate::validate::sample_hosts(&f.hosts, 6);
        let mut p = GenericDiversePlanner::new();
        let alive = |_: LinkId| true;
        let planned = p.plan(&PlanRequest {
            topo: &f.topo,
            hosts: &hosts,
            k: 3,
            alive: &alive,
            hints: None,
        });
        assert_eq!(planned.kept_pairs, 0);
        assert_eq!(planned.replanned_pairs, planned.table.len());
        assert_eq!(planned.table.len(), 6 * 5);
        assert!(p.steps() > 0, "generic planning must account its search");
        // Whole-table planning is per-pair planning, pair by pair.
        let mut fresh = GenericDiversePlanner::new();
        for &a in &hosts {
            for &b in &hosts {
                if a != b {
                    let routes = fresh.pair_routes(&f.topo, a, b, 3, &alive);
                    assert_eq!(planned.table.routes(a, b), routes.as_slice());
                }
            }
        }
    }

    #[test]
    fn replan_after_keeps_untouched_pairs_byte_identical() {
        use san_fabric::fingerprint_topology;
        let mut f = TopoSpec::FatTree { k: 4 }.build();
        let hosts = crate::validate::sample_hosts(&f.hosts, 6);
        let mut cache = RouteCache::new(3);
        let before = cache.plan(&f.topo, &hosts, &[]);

        // Detach one survivable edge-agg link live.
        let victim = crate::validate::survivable_links(&f.topo)[0];
        let old_fp = fingerprint_topology(&f.topo);
        let wire = f.topo.disconnect(victim);
        let delta = san_fabric::WiringDelta {
            epoch: 1,
            old_fp,
            new_fp: fingerprint_topology(&f.topo),
            changed_links: vec![victim],
            changed_switches: [wire.a, wire.b]
                .iter()
                .filter_map(|ep| ep.switch().map(|(s, _)| s))
                .collect(),
        };
        let stats = cache.replan_after(&f.topo, &delta, &hosts, &[]);
        assert!(stats.kept_pairs > 0, "most pairs avoid one edge link");
        assert!(stats.replanned_pairs > 0, "pairs crossing it must replan");
        assert_eq!(cache.epoch(), 1, "migration adopts the delta epoch");

        // The migrated entry is the O(1) hit path on the new wiring…
        let hits_before = cache.hits.get();
        let after = cache.plan(&f.topo, &hosts, &[]);
        assert_eq!(cache.hits.get(), hits_before + 1, "migration pre-seeded");
        assert!(cache.last_was_hit());
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let old_cands = before.routes(a, b);
                let crossed = old_cands.iter().any(|r| {
                    route_links(&f.topo, a, r).is_none_or(|links| links.contains(&victim))
                });
                if !crossed {
                    // …and untouched pairs kept byte-identical candidates.
                    assert_eq!(
                        old_cands,
                        after.routes(a, b),
                        "untouched pair {a} -> {b} must not change"
                    );
                } else {
                    // Crossing pairs were replanned around the detached link.
                    for r in after.routes(a, b) {
                        let links = route_links(&f.topo, a, r).unwrap();
                        assert!(!links.contains(&victim));
                    }
                    assert!(!after.routes(a, b).is_empty(), "survivable link");
                }
            }
        }
    }

    #[test]
    fn replan_after_evicts_unmigratable_alive_sets() {
        use san_fabric::fingerprint_topology;
        let mut f = TopoSpec::FatTree { k: 4 }.build();
        let hosts = crate::validate::sample_hosts(&f.hosts, 4);
        let mut cache = RouteCache::new(2);
        let some_link = f.topo.links().next().unwrap().0;
        cache.plan(&f.topo, &hosts, &[]);
        cache.plan(&f.topo, &hosts, &[some_link]); // second alive set
        assert_eq!(cache.len(), 2);

        let victim = crate::validate::survivable_links(&f.topo)[1];
        let old_fp = fingerprint_topology(&f.topo);
        f.topo.disconnect(victim);
        let delta = san_fabric::WiringDelta {
            epoch: 1,
            old_fp,
            new_fp: fingerprint_topology(&f.topo),
            changed_links: vec![victim],
            changed_switches: Vec::new(),
        };
        let stats = cache.replan_after(&f.topo, &delta, &hosts, &[]);
        assert_eq!(stats.evicted, 1, "the degraded-set entry is unmigratable");
        assert_eq!(cache.len(), 1, "only the migrated entry survives");
        assert_eq!(cache.evicted.get(), 1);
    }

    #[test]
    fn cache_hits_are_shared_and_identical() {
        let f = TopoSpec::Torus2D {
            rows: 4,
            cols: 4,
            hosts: 2,
        }
        .build();
        let dead = [f.topo.links().next().unwrap().0];
        let mut cache = RouteCache::new(3);
        let first = cache.plan(&f.topo, &f.hosts, &dead);
        assert!(!cache.last_was_hit());
        let second = cache.plan(&f.topo, &f.hosts, &dead);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second lookup is the hit path"
        );
        assert!(cache.last_was_hit());
        assert_eq!(cache.hits.get(), 1);
        assert_eq!(cache.misses.get(), 1);
        // A different alive set is a different entry.
        let other = cache.plan(&f.topo, &f.hosts, &[]);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.strategy(), "generic-diverse");
    }
}
