//! Torus-native route planning from translational symmetry.
//!
//! On a wrap-around mesh every minimal route between two switches is an
//! interleaving of per-dimension minimal wrap offsets, so the k diverse
//! candidates the mapper wants as hints can be *written down* from
//! templates — dimension-order permutations, the opposite way around the
//! ring in each dimension (quadrant alternates), and sideways-translated
//! copies of the canonical path for straight-line pairs — in O(k·hops)
//! per pair, with no BFS distance labelling and no equal-cost pool
//! enumeration. That is the whole trick of symmetry-driven forwarding:
//! the topology's translation group generates the path diversity that
//! the generic planner has to search for.
//!
//! [`TorusSymmetryPlanner`] implements [`RoutePlanner`] for torus2d/3d
//! atlas fabrics. It keys a small port-direction table (`grid`) off the
//! live topology and *verifies every hop against the wiring and the
//! alive predicate* while materializing a template, so dead links simply
//! knock out individual candidates (the later, differently-routed
//! templates survive — quadrant-aware disjoint alternates). If the
//! wiring stops looking like the declared torus (reconfigured, wrong
//! extents) or no template survives at all, it falls back to the generic
//! search so callers never lose routes by picking the wrong strategy.

use std::collections::HashSet;

use san_fabric::route::MAX_HOPS;
use san_fabric::{Endpoint, LinkId, NodeId, PortId, Route, SwitchId, Topology};

use crate::planner::{candidate_routes_counted, select_diverse, RoutePlanner};

/// Supported torus ranks (the atlas builds 2-D and 3-D tori).
const MAX_DIMS: usize = 3;

/// Round-robin key for template ordering: `(rank, extra, first move)` —
/// see [`TorusSymmetryPlanner::templates`].
type FamilyKey = (usize, usize, Option<(usize, usize)>);

/// Signed direction along one dimension.
const POS: usize = 0;
const NEG: usize = 1;

/// Per-switch port lookup: which output port moves one step along
/// dimension `d` in direction `sign`. Rebuilt whenever the wiring's
/// gross shape changes; every use is re-verified against the live
/// topology during materialization.
struct Grid {
    key: (usize, usize),
    dir_port: Vec<[[Option<u8>; 2]; MAX_DIMS]>,
}

/// One route template: a flat move list (dimension, direction), a
/// diversity rank, and the extra hop count over the minimal path.
/// Templates are ordered by `(rank, extra)`: all-minimal combos first,
/// then the families expected link-disjoint from the canonical path
/// (fully-opposite quadrants and sideways translations), then mixed
/// combos that share one dimension's segment with a minimal route.
struct Template {
    moves: Vec<(usize, usize)>,
    rank: usize,
    extra: usize,
}

/// The torus2d/3d strategy: symmetry templates instead of search.
pub struct TorusSymmetryPlanner {
    dims: Vec<usize>,
    steps: u64,
    grid: Option<Grid>,
}

impl TorusSymmetryPlanner {
    /// A planner for a torus with the given dimension extents (in atlas
    /// flat order: `[rows, cols]` for torus2d, `[x, y, z]` for torus3d).
    /// Extents are clamped exactly like the atlas generator clamps them.
    pub fn new(dims: &[u16]) -> Self {
        Self {
            dims: dims.iter().map(|&d| d.clamp(1, 64) as usize).collect(),
            steps: 0,
            grid: None,
        }
    }

    fn stride(&self, d: usize) -> usize {
        self.dims[..d].iter().product()
    }

    fn coord(&self, i: usize, d: usize) -> usize {
        (i / self.stride(d)) % self.dims[d]
    }

    /// Flat index of `i`'s neighbor one step along `d` in `sign`.
    fn step_idx(&self, i: usize, d: usize, sign: usize) -> usize {
        let e = self.dims[d];
        let c = self.coord(i, d);
        let c2 = if sign == POS {
            (c + 1) % e
        } else {
            (c + e - 1) % e
        };
        i + c2 * self.stride(d) - c * self.stride(d)
    }

    /// Build (or reuse) the port-direction table for the live wiring.
    /// `None` when the wiring does not look like the declared torus.
    fn ensure_grid(&mut self, topo: &Topology) -> bool {
        let n: usize = self.dims.iter().product();
        let key = (topo.num_switches(), topo.num_links());
        if let Some(g) = &self.grid {
            if g.key == key {
                return true;
            }
        }
        self.grid = None;
        if topo.num_switches() != n || self.dims.len() > MAX_DIMS {
            return false;
        }
        let mut dir_port = vec![[[None; 2]; MAX_DIMS]; n];
        let mut survey = 0u64;
        for (i, slots) in dir_port.iter_mut().enumerate() {
            for (port, _link, far) in topo.neighbors(SwitchId(i as u16)) {
                // Charge the one-time survey like any other planning work.
                survey += 1;
                let Some((s2, _)) = far.switch() else {
                    continue;
                };
                let j = s2.idx();
                for (d, slot) in slots.iter_mut().enumerate().take(self.dims.len()) {
                    if self.dims[d] < 2 {
                        continue;
                    }
                    if j == self.step_idx(i, d, POS) && slot[POS].is_none() {
                        slot[POS] = Some(port.0);
                    }
                    if j == self.step_idx(i, d, NEG) && slot[NEG].is_none() {
                        slot[NEG] = Some(port.0);
                    }
                }
            }
        }
        self.steps += survey;
        self.grid = Some(Grid { key, dir_port });
        true
    }

    /// Walk a template through the live wiring, verifying every hop
    /// against the topology and the alive predicate. `None` when any hop
    /// is missing/dead or the route would not fit in [`MAX_HOPS`].
    #[allow(clippy::too_many_arguments)]
    fn materialize(
        &mut self,
        topo: &Topology,
        alive: &dyn Fn(LinkId) -> bool,
        src_sw: usize,
        dst_sw: usize,
        dst_port: u8,
        moves: &[(usize, usize)],
    ) -> Option<Route> {
        // O(hops) per candidate: one step charged per hop emitted,
        // including the final host port.
        self.steps += moves.len() as u64 + 1;
        if moves.len() + 1 > MAX_HOPS {
            return None;
        }
        let grid = self.grid.as_ref()?;
        let mut ports: Vec<u8> = Vec::with_capacity(moves.len() + 1);
        let mut at = src_sw;
        for &(d, sign) in moves {
            let port = grid.dir_port[at][d][sign]?;
            let ep = Endpoint::Switch(SwitchId(at as u16), PortId(port));
            let link = topo.link_at(ep)?;
            if !alive(link) {
                return None;
            }
            let (s2, _) = topo.link(link).other(ep).switch()?;
            at = s2.idx();
            ports.push(port);
        }
        if at != dst_sw {
            return None;
        }
        ports.push(dst_port);
        Some(Route::from_ports(&ports))
    }

    /// The template list for one switch pair, ordered by extra hops:
    /// direction combos (minimal wrap first, then the other way around
    /// each ring — the quadrant alternates) × dimension-order
    /// permutations, then sideways translations of the minimal path in
    /// every zero-offset dimension (the straight-line disjoint family).
    fn templates(&self, src_sw: usize, dst_sw: usize) -> Vec<Template> {
        let nd = self.dims.len();
        // Per-dimension signed move options, minimal first:
        // (direction, count, extra-hops-vs-minimal).
        let mut choices: Vec<Vec<(usize, usize, usize)>> = Vec::with_capacity(nd);
        for d in 0..nd {
            let e = self.dims[d];
            let raw = (self.coord(dst_sw, d) + e - self.coord(src_sw, d)) % e;
            if raw == 0 {
                choices.push(vec![(POS, 0, 0)]);
            } else if 2 * raw == e {
                choices.push(vec![(POS, raw, 0), (NEG, e - raw, 0)]);
            } else if raw < e - raw {
                choices.push(vec![(POS, raw, 0), (NEG, e - raw, (e - raw) - raw)]);
            } else {
                choices.push(vec![(NEG, e - raw, 0), (POS, raw, raw - (e - raw))]);
            }
        }
        let perms: &[&[usize]] = match nd {
            1 => &[&[0]],
            2 => &[&[0, 1], &[1, 0]],
            _ => &[
                &[0, 1, 2],
                &[0, 2, 1],
                &[1, 0, 2],
                &[1, 2, 0],
                &[2, 0, 1],
                &[2, 1, 0],
            ],
        };
        let mut out = Vec::new();
        // Direction combos × permutations (cartesian product over the
        // per-dimension choice lists; at most 2^3 × 6 templates).
        let combos: usize = choices.iter().map(Vec::len).product();
        for c in 0..combos {
            let mut pick = Vec::with_capacity(nd);
            let mut rest = c;
            let mut extra = 0;
            let (mut min_dims, mut alt_dims) = (0, 0);
            for ch in &choices {
                let (sign, count, ex) = ch[rest % ch.len()];
                rest /= ch.len();
                extra += ex;
                if count > 0 {
                    if ex == 0 {
                        min_dims += 1;
                    } else {
                        alt_dims += 1;
                    }
                }
                pick.push((sign, count));
            }
            // All-minimal combos lead; fully-opposite combos (every moving
            // dimension takes the long way round its ring) are disjoint
            // from them and come next; mixed combos share one dimension's
            // links with a minimal route, so they trail.
            let rank = if alt_dims == 0 {
                0
            } else if min_dims == 0 {
                1
            } else {
                2
            };
            for perm in perms {
                let mut moves = Vec::new();
                for &d in perm.iter() {
                    let (sign, count) = pick[d];
                    moves.extend(std::iter::repeat_n((d, sign), count));
                }
                out.push(Template { moves, rank, extra });
            }
            // Split interleavings: break one moving dimension's run into a
            // 1/(n-1) split around another's (remaining dimensions appended
            // in order). On 2-extent dimensions these are the only way to
            // reach crossing links the contiguous templates can't help
            // sharing, so they trail the quadrant families as rank 3.
            for da in 0..nd {
                let (sa, ca) = pick[da];
                if ca < 2 {
                    continue;
                }
                for db in 0..nd {
                    let (sb, cb) = pick[db];
                    if db == da || cb == 0 {
                        continue;
                    }
                    for head in [1, ca - 1] {
                        let mut moves = Vec::new();
                        moves.extend(std::iter::repeat_n((da, sa), head));
                        moves.extend(std::iter::repeat_n((db, sb), cb));
                        moves.extend(std::iter::repeat_n((da, sa), ca - head));
                        for (dc, &(sc, cc)) in pick.iter().enumerate() {
                            if dc != da && dc != db {
                                moves.extend(std::iter::repeat_n((dc, sc), cc));
                            }
                        }
                        out.push(Template {
                            moves,
                            rank: 3,
                            extra,
                        });
                    }
                }
            }
        }
        // Sideways translations of the minimal path: step ±m out along a
        // zero-offset dimension, run the (dimension-order) minimal moves
        // there, step back. The whole middle is translated, which is what
        // makes these link-disjoint from the canonical path.
        let base: Vec<(usize, usize)> = (0..nd)
            .flat_map(|d| {
                let (sign, count, _) = choices[d][0];
                std::iter::repeat_n((d, sign), count)
            })
            .collect();
        for (d, choice) in choices.iter().enumerate().take(nd) {
            let e = self.dims[d];
            if choice[0].1 != 0 || e < 2 {
                continue; // only translate along unused dimensions
            }
            for m in 1..=e / 2 {
                for sign in [POS, NEG] {
                    let back = if sign == POS { NEG } else { POS };
                    let mut moves = Vec::with_capacity(base.len() + 2 * m);
                    moves.extend(std::iter::repeat_n((d, sign), m));
                    moves.extend(base.iter().copied());
                    moves.extend(std::iter::repeat_n((d, back), m));
                    out.push(Template {
                        moves,
                        rank: 1,
                        extra: 2 * m,
                    });
                }
            }
        }
        // Identical move lists (e.g. both permutations of a single-moving-
        // dimension pair) materialize to the same route — drop them here so
        // they are never walked, let alone charged.
        let mut seen: HashSet<Vec<(usize, usize)>> = HashSet::new();
        out.retain(|t| seen.insert(t.moves.clone()));
        // Within a (rank, extra) class, round-robin over distinct first
        // moves: one template per starting direction before any seconds.
        // Without this, the 3-D permutation families monopolize the pool
        // with one first hop and the selection never sees the others.
        let mut firsts: std::collections::HashMap<FamilyKey, usize> =
            std::collections::HashMap::new();
        let slots: Vec<usize> = out
            .iter()
            .map(|t| {
                let slot = firsts
                    .entry((t.rank, t.extra, t.moves.first().copied()))
                    .or_insert(0);
                *slot += 1;
                *slot - 1
            })
            .collect();
        let mut order: Vec<usize> = (0..out.len()).collect();
        order.sort_by_key(|&i| (out[i].rank, out[i].extra, slots[i], i));
        order
            .into_iter()
            .map(|i| Template {
                moves: std::mem::take(&mut out[i].moves),
                rank: out[i].rank,
                extra: out[i].extra,
            })
            .collect()
    }
}

impl RoutePlanner for TorusSymmetryPlanner {
    fn id(&self) -> &'static str {
        "torus-symmetry"
    }

    fn pair_routes(
        &mut self,
        topo: &Topology,
        from: NodeId,
        to: NodeId,
        k: usize,
        alive: &dyn Fn(LinkId) -> bool,
    ) -> Vec<Route> {
        if from == to || k == 0 {
            return Vec::new();
        }
        let attach = |h: NodeId| -> Option<(usize, u8, LinkId)> {
            let link = topo.link_at(Endpoint::Host(h))?;
            let (s, p) = topo.link(link).other(Endpoint::Host(h)).switch()?;
            Some((s.idx(), p.0, link))
        };
        let fallback =
            |me: &mut Self| candidate_routes_counted(topo, from, to, k, alive, &mut me.steps);
        if !self.ensure_grid(topo) {
            return fallback(self);
        }
        let (Some((src_sw, _, src_link)), Some((dst_sw, dst_port, dst_link))) =
            (attach(from), attach(to))
        else {
            return fallback(self);
        };
        if !alive(src_link) || !alive(dst_link) {
            return Vec::new(); // no detour can avoid a host's only link
        }
        // Materialize an ordered pool, then greedy-select k for link
        // diversity exactly like the generic strategy does — the first
        // minimal template stays the primary, and the selection can reach
        // past near-duplicates to the disjoint families. Materializing
        // stops as soon as the pool already holds k pairwise-disjoint
        // routes in order (then the selection below returns exactly
        // those), which keeps the common case at ~k templates walked; only
        // when the fabric genuinely lacks easy diversity does the walk
        // continue through the (finite, rank-ordered) template list.
        let mut pool = Vec::new();
        let mut seen: HashSet<Route> = HashSet::new();
        let mut pooled_links: HashSet<LinkId> = HashSet::new();
        let mut diverse_in_order = 0usize;
        for t in self.templates(src_sw, dst_sw) {
            if diverse_in_order >= k {
                break;
            }
            if let Some(r) = self.materialize(topo, alive, src_sw, dst_sw, dst_port, &t.moves) {
                if seen.insert(r) {
                    let fabric: Vec<LinkId> = crate::validate::route_links(topo, from, &r)
                        .unwrap_or_default()
                        .into_iter()
                        .filter(|&l| {
                            topo.link(l).a.switch().is_some() && topo.link(l).b.switch().is_some()
                        })
                        .collect();
                    if fabric.iter().all(|l| !pooled_links.contains(l)) {
                        diverse_in_order += 1;
                        pooled_links.extend(fabric);
                    }
                    pool.push(r);
                }
            }
        }
        if pool.is_empty() {
            // Wiring surprises (or heavy damage) — never strand a pair the
            // generic search could still connect.
            return fallback(self);
        }
        select_diverse(topo, from, &pool, k)
    }

    fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atlas::TopoSpec;
    use crate::planner::{planner_for, GenericDiversePlanner};
    use crate::validate::{disjoint_count, route_links};

    fn trace_ok(topo: &Topology, a: NodeId, b: NodeId, r: &Route) -> bool {
        topo.trace_route(a, r, |_| true) == Some(Endpoint::Host(b))
    }

    #[test]
    fn planner_for_selects_by_family() {
        let t2 = TopoSpec::parse("torus2d:8x8x2").unwrap();
        let t3 = TopoSpec::parse("torus3d:4x4x4x1").unwrap();
        let ft = TopoSpec::parse("fat_tree:4").unwrap();
        assert_eq!(planner_for(&t2).id(), "torus-symmetry");
        assert_eq!(planner_for(&t3).id(), "torus-symmetry");
        assert_eq!(planner_for(&ft).id(), "generic-diverse");
    }

    #[test]
    fn torus_routes_are_valid_and_minimal_first() {
        let spec = TopoSpec::parse("torus2d:8x8x2").unwrap();
        let f = spec.build();
        let mut p = TorusSymmetryPlanner::new(&[8, 8]);
        let alive = |_: LinkId| true;
        for (&a, &b) in [
            (&f.hosts[0], &f.hosts[37]),
            (&f.hosts[0], &f.hosts[1]), // same switch
            (&f.hosts[3], &f.hosts[99]),
        ] {
            let routes = p.pair_routes(&f.topo, a, b, 4, &alive);
            assert!(!routes.is_empty());
            let generic = GenericDiversePlanner::new().pair_routes(&f.topo, a, b, 4, &alive);
            assert_eq!(
                routes[0].len(),
                generic[0].len(),
                "primary must be minimal for {a}->{b}"
            );
            for r in &routes {
                assert!(trace_ok(&f.topo, a, b, r), "{a}->{b} via {r:?}");
            }
        }
    }

    #[test]
    fn quadrant_alternates_survive_dead_links() {
        let spec = TopoSpec::parse("torus2d:8x8x1").unwrap();
        let f = spec.build();
        let (a, b) = (f.hosts[0], f.hosts[27]); // (0,0) -> (3,3)
        let mut p = TorusSymmetryPlanner::new(&[8, 8]);
        let healthy = p.pair_routes(&f.topo, a, b, 4, &(|_: LinkId| true));
        assert_eq!(healthy.len(), 4);
        // Kill every fabric link of the primary; the alternates must route
        // around through other quadrants.
        let dead: Vec<LinkId> = route_links(&f.topo, a, &healthy[0])
            .unwrap()
            .into_iter()
            .filter(|&l| {
                l != f.topo.link_at(Endpoint::Host(a)).unwrap()
                    && l != f.topo.link_at(Endpoint::Host(b)).unwrap()
            })
            .collect();
        let alive = |l: LinkId| !dead.contains(&l);
        let degraded = p.pair_routes(&f.topo, a, b, 4, &alive);
        assert!(!degraded.is_empty(), "quadrant alternates must survive");
        for r in &degraded {
            let links = route_links(&f.topo, a, r).unwrap();
            assert!(links.iter().all(|l| !dead.contains(l)));
            assert!(trace_ok(&f.topo, a, b, r));
        }
    }

    #[test]
    fn non_torus_wiring_falls_back_to_generic() {
        let f = TopoSpec::FatTree { k: 4 }.build();
        let (a, b) = (f.hosts[0], *f.hosts.last().unwrap());
        // Deliberately wrong declaration: extents that don't match.
        let mut p = TorusSymmetryPlanner::new(&[4, 4]);
        let alive = |_: LinkId| true;
        let routes = p.pair_routes(&f.topo, a, b, 4, &alive);
        let generic = GenericDiversePlanner::new().pair_routes(&f.topo, a, b, 4, &alive);
        assert_eq!(routes, generic);
    }

    #[test]
    fn template_planning_is_far_cheaper_than_search() {
        let spec = TopoSpec::parse("torus2d:8x8x2").unwrap();
        let f = spec.build();
        let mut torus = TorusSymmetryPlanner::new(&[8, 8]);
        let mut generic = GenericDiversePlanner::new();
        let alive = |_: LinkId| true;
        let hosts = crate::validate::sample_hosts(&f.hosts, 16);
        let mut diversity = (0usize, 0usize);
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let t = torus.pair_routes(&f.topo, a, b, 4, &alive);
                let g = generic.pair_routes(&f.topo, a, b, 4, &alive);
                diversity.0 += disjoint_count(&f.topo, a, &t);
                diversity.1 += disjoint_count(&f.topo, a, &g);
            }
        }
        assert!(diversity.0 >= diversity.1, "torus diversity {diversity:?}");
        assert!(
            torus.steps() * 10 <= generic.steps(),
            "templates must be >=10x cheaper: torus={} generic={}",
            torus.steps(),
            generic.steps()
        );
    }
}
