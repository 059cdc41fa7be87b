//! Static network topology: hosts, crossbar switches, and the links between
//! them.
//!
//! The topology is the *physical* wiring. Whether a link is currently alive
//! is dynamic state owned by the traversal engine ([`crate::engine`]), so a
//! reconfiguration experiment (Table 3: a node is re-connected elsewhere)
//! wires both locations here and toggles liveness at run time.
//!
//! Also provided: BFS shortest-route search, per pair or one row per
//! source (the oracle used for initial route tables and as ground truth in
//! mapper tests), and canonical builders for every topology the paper
//! uses.

use crate::ids::{Endpoint, LinkId, NodeId, PortId, SwitchId};
use crate::route::{Route, MAX_HOPS};
use std::collections::VecDeque;
use std::fmt;

/// An undirected link between two endpoints.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// One side.
    pub a: Endpoint,
    /// The other side.
    pub b: Endpoint,
}

impl Link {
    /// The endpoint opposite to `ep`.
    ///
    /// # Panics
    /// Panics if `ep` is neither side of the link.
    pub fn other(&self, ep: Endpoint) -> Endpoint {
        if self.a == ep {
            self.b
        } else if self.b == ep {
            self.a
        } else {
            panic!("{ep:?} is not an endpoint of this link")
        }
    }
}

/// Why a wiring request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The endpoint already has a link plugged in.
    AlreadyWired(Endpoint),
    /// The endpoint names a host, switch, or port that does not exist.
    OutOfRange(Endpoint),
    /// Both ends of the requested link are the same endpoint.
    SelfLoop(Endpoint),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::AlreadyWired(ep) => write!(f, "endpoint {ep:?} already wired"),
            WireError::OutOfRange(ep) => write!(f, "endpoint {ep:?} out of range"),
            WireError::SelfLoop(ep) => write!(f, "endpoint {ep:?} cannot be wired to itself"),
        }
    }
}

impl std::error::Error for WireError {}

/// The wiring of a SAN.
///
/// Links are stored in id-indexed slots; [`Topology::disconnect`] leaves a
/// tombstone and frees the id onto a LIFO stack so a later live
/// [`Topology::try_connect`] reuses ids most-recently-freed first. Link ids
/// therefore stay stable across a reconfiguration — channel and metric
/// arrays indexed by `LinkId` never need compaction — and a reverse
/// mutation (re-wiring the same endpoints in reverse removal order)
/// restores the identical id assignment, and with it the identical wiring
/// fingerprint.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    hosts: Vec<Option<LinkId>>,
    switches: Vec<Vec<Option<LinkId>>>,
    links: Vec<Option<Link>>,
    free_links: Vec<LinkId>,
}

impl Topology {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host (one network port).
    pub fn add_host(&mut self) -> NodeId {
        self.hosts.push(None);
        NodeId((self.hosts.len() - 1) as u16)
    }

    /// Add `n` hosts, returning their IDs.
    pub fn add_hosts(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_host()).collect()
    }

    /// Add a full-crossbar switch with `ports` ports.
    pub fn add_switch(&mut self, ports: u8) -> SwitchId {
        self.switches.push(vec![None; ports as usize]);
        SwitchId((self.switches.len() - 1) as u16)
    }

    /// Wire two endpoints together, refusing (rather than corrupting the
    /// port accounting) when an endpoint is out of range, already wired, or
    /// wired to itself. This is the live-reconfiguration entry point: a
    /// freed link id is reused (most recently freed first) so ids stay
    /// dense and stable.
    pub fn try_connect(&mut self, a: Endpoint, b: Endpoint) -> Result<LinkId, WireError> {
        if a == b {
            return Err(WireError::SelfLoop(a));
        }
        for ep in [a, b] {
            if !self.endpoint_in_range(ep) {
                return Err(WireError::OutOfRange(ep));
            }
            if self.link_at(ep).is_some() {
                return Err(WireError::AlreadyWired(ep));
            }
        }
        let id = self.free_links.pop().unwrap_or_else(|| {
            self.links.push(None);
            LinkId((self.links.len() - 1) as u32)
        });
        self.links[id.idx()] = Some(Link { a, b });
        *self.port_slot_mut(a) = Some(id);
        *self.port_slot_mut(b) = Some(id);
        Ok(id)
    }

    /// Wire two endpoints together.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or already wired; builders
    /// treat a bad wiring plan as a bug. Reconfiguration code that must
    /// handle refusal uses [`Topology::try_connect`].
    pub fn connect(&mut self, a: Endpoint, b: Endpoint) -> LinkId {
        match self.try_connect(a, b) {
            Ok(id) => id,
            Err(e) => panic!("connect: {e}"),
        }
    }

    /// Unwire a link: both ports become free, the id goes back on the free
    /// stack (LIFO), and the link record is returned so the caller can
    /// re-wire or log it. Returns `None` when the link was already removed.
    pub fn try_disconnect(&mut self, id: LinkId) -> Option<Link> {
        let link = self.links.get_mut(id.idx())?.take()?;
        *self.port_slot_mut(link.a) = None;
        *self.port_slot_mut(link.b) = None;
        self.free_links.push(id);
        Some(link)
    }

    /// Unwire a link.
    ///
    /// # Panics
    /// Panics if the link does not exist (or was already removed).
    pub fn disconnect(&mut self, id: LinkId) -> Link {
        self.try_disconnect(id)
            .unwrap_or_else(|| panic!("disconnect: link {} does not exist", id.idx()))
    }

    /// De-rack a switch: unwire every link incident to it, in port order.
    /// The switch record itself remains (switch ids are stable), left with
    /// zero wired ports. Returns the removed links.
    pub fn remove_switch(&mut self, s: SwitchId) -> Vec<(LinkId, Link)> {
        let mut ids: Vec<LinkId> = Vec::new();
        for p in 0..self.switch_ports(s) {
            if let Some(id) = self.link_at(Endpoint::Switch(s, PortId(p))) {
                // A link joining two ports of the same switch appears twice.
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
        }
        ids.into_iter()
            .map(|id| (id, self.disconnect(id)))
            .collect()
    }

    /// Does `ep` name a host or a switch port of this fabric?
    pub fn endpoint_in_range(&self, ep: Endpoint) -> bool {
        match ep {
            Endpoint::Host(h) => h.idx() < self.hosts.len(),
            Endpoint::Switch(s, p) => self
                .switches
                .get(s.idx())
                .is_some_and(|ports| p.idx() < ports.len()),
        }
    }

    /// Convenience: wire host `h` to switch `s` port `p`.
    pub fn connect_host(&mut self, h: NodeId, s: SwitchId, p: u8) -> LinkId {
        self.connect(Endpoint::Host(h), Endpoint::Switch(s, PortId(p)))
    }

    /// Convenience: wire switch `sa` port `pa` to switch `sb` port `pb`.
    pub fn connect_switches(&mut self, sa: SwitchId, pa: u8, sb: SwitchId, pb: u8) -> LinkId {
        self.connect(
            Endpoint::Switch(sa, PortId(pa)),
            Endpoint::Switch(sb, PortId(pb)),
        )
    }

    fn port_slot_mut(&mut self, ep: Endpoint) -> &mut Option<LinkId> {
        match ep {
            Endpoint::Host(h) => &mut self.hosts[h.idx()],
            Endpoint::Switch(s, p) => &mut self.switches[s.idx()][p.idx()],
        }
    }

    /// The link wired at `ep`, if any.
    pub fn link_at(&self, ep: Endpoint) -> Option<LinkId> {
        match ep {
            Endpoint::Host(h) => self.hosts.get(h.idx()).copied().flatten(),
            Endpoint::Switch(s, p) => self
                .switches
                .get(s.idx())
                .and_then(|ports| ports.get(p.idx()))
                .copied()
                .flatten(),
        }
    }

    /// Link record.
    ///
    /// # Panics
    /// Panics if the link was removed by a reconfiguration.
    pub fn link(&self, id: LinkId) -> &Link {
        self.links[id.idx()]
            .as_ref()
            .unwrap_or_else(|| panic!("link {} was removed from the topology", id.idx()))
    }

    /// Link record, `None` when the id is out of range or the link was
    /// removed.
    pub fn try_link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.idx()).and_then(|l| l.as_ref())
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }
    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }
    /// Size of the link *id space* (wired links plus tombstones of removed
    /// ones). Per-link arrays indexed by `LinkId` must be this long; on a
    /// never-reconfigured fabric it equals the wired-link count.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }
    /// Number of links actually wired right now.
    pub fn num_wired_links(&self) -> usize {
        self.links.iter().filter(|l| l.is_some()).count()
    }
    /// Port count of a switch.
    pub fn switch_ports(&self, s: SwitchId) -> u8 {
        self.switches[s.idx()].len() as u8
    }
    /// Largest port count of any switch — the port budget an on-demand
    /// mapper has to probe per switch on this fabric.
    pub fn max_switch_ports(&self) -> u8 {
        self.switches.iter().map(|p| p.len()).max().unwrap_or(0) as u8
    }

    /// All currently wired links, with IDs (removed links are skipped).
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|l| (LinkId(i as u32), l)))
    }

    /// Lowest unwired port of switch `s`, if any — the generator hook large
    /// parametric topologies (`san-topo`) use so wiring code never has to
    /// track port cursors by hand.
    pub fn free_port(&self, s: SwitchId) -> Option<u8> {
        (0..self.switch_ports(s)).find(|&p| self.link_at(Endpoint::Switch(s, PortId(p))).is_none())
    }

    /// Number of wired ports on switch `s`.
    pub fn wired_ports(&self, s: SwitchId) -> u8 {
        (0..self.switch_ports(s))
            .filter(|&p| self.link_at(Endpoint::Switch(s, PortId(p))).is_some())
            .count() as u8
    }

    /// The switch port a host hangs off, if it is wired (and wired to a
    /// switch rather than another host).
    pub fn switch_of_host(&self, h: NodeId) -> Option<(SwitchId, PortId)> {
        let link = self.link_at(Endpoint::Host(h))?;
        self.link(link).other(Endpoint::Host(h)).switch()
    }

    /// The wired neighbors of switch `s`: `(own port, link, far endpoint)`
    /// for every connected port, in port order. Validator plumbing for the
    /// structural checks in `san-topo`.
    pub fn neighbors(&self, s: SwitchId) -> impl Iterator<Item = (PortId, LinkId, Endpoint)> + '_ {
        (0..self.switch_ports(s)).filter_map(move |p| {
            let ep = Endpoint::Switch(s, PortId(p));
            let link = self.link_at(ep)?;
            Some((PortId(p), link, self.link(link).other(ep)))
        })
    }

    /// Follow a full source route from `src`; returns the endpoint reached
    /// (`Endpoint::Host` on success) or `None` if the route exits an unwired
    /// or out-of-range port or has hops left over after reaching a host.
    /// `alive` filters dead links (pass `|_| true` for the physical wiring).
    pub fn trace_route(
        &self,
        src: NodeId,
        route: &Route,
        alive: impl Fn(LinkId) -> bool,
    ) -> Option<Endpoint> {
        let first = self.link_at(Endpoint::Host(src))?;
        if !alive(first) {
            return None;
        }
        let mut at = self.link(first).other(Endpoint::Host(src));
        for (i, &port) in route.ports().iter().enumerate() {
            let (s, _) = at.switch()?; // a route hop while at a host is invalid
            if port >= self.switch_ports(s) {
                return None;
            }
            let link = self.link_at(Endpoint::Switch(s, PortId(port)))?;
            if !alive(link) {
                return None;
            }
            at = self.link(link).other(Endpoint::Switch(s, PortId(port)));
            if at.host().is_some() && i + 1 < route.len() {
                return None; // route continues past a host
            }
        }
        Some(at)
    }

    /// BFS shortest route between two hosts over alive links. Ground-truth
    /// oracle for tests and initial route tables; the on-demand mapper must
    /// *not* use this (it probes instead).
    ///
    /// `None` when `to` is unreachable over alive links **or** every route
    /// to it needs more than the [`MAX_HOPS`] = 16 switch hops a source
    /// route can carry: a connected fabric whose diameter exceeds the route
    /// budget still has pairs without a route.
    pub fn shortest_route(
        &self,
        from: NodeId,
        to: NodeId,
        alive: impl Fn(LinkId) -> bool,
    ) -> Option<Route> {
        if from == to {
            return Some(Route::empty());
        }
        let mut found = None;
        self.search_hosts(from, alive, |h, route| {
            if h == to {
                found = Some(route());
            }
            found.is_some()
        });
        found
    }

    /// Every host's [`Topology::shortest_route`] from `src`, indexed by
    /// destination, from one search: entry `b` (including `b == src`) is
    /// exactly `shortest_route(src, b, alive)`. Installing a full table
    /// this way costs one BFS per source instead of one per pair.
    ///
    /// # Panics
    /// Panics if `src` is not a host of this topology.
    pub fn shortest_routes_from(
        &self,
        src: NodeId,
        alive: impl Fn(LinkId) -> bool,
    ) -> Vec<Option<Route>> {
        let mut row = vec![None; self.num_hosts()];
        row[src.idx()] = Some(Route::empty());
        self.search_hosts(src, alive, |h, route| {
            row[h.idx()].get_or_insert_with(route);
            false
        });
        row
    }

    /// The breadth-first search behind [`Topology::shortest_route`] and
    /// [`Topology::shortest_routes_from`]. Switches leave the queue in BFS
    /// order and ports are scanned in ascending order; a route that already
    /// has [`MAX_HOPS`] bytes is not extended. `hit(h, route)` is called for
    /// each host the search reaches, with `route()` building the route to
    /// it on demand: a per-pair search passes over most hosts, and building
    /// a route for each of them slowed `perm1024`'s 1024 per-pair searches
    /// by ~13%. The search stops as soon as `hit` returns true.
    fn search_hosts(
        &self,
        from: NodeId,
        alive: impl Fn(LinkId) -> bool,
        mut hit: impl FnMut(NodeId, &dyn Fn() -> Route) -> bool,
    ) {
        let Some(first) = self.link_at(Endpoint::Host(from)) else {
            return;
        };
        if !alive(first) {
            return;
        }
        let s0 = match self.link(first).other(Endpoint::Host(from)) {
            Endpoint::Host(h) => {
                hit(h, &Route::empty);
                return;
            }
            Endpoint::Switch(s, _) => s,
        };
        let mut seen = vec![false; self.num_switches()];
        let mut queue = VecDeque::new();
        seen[s0.idx()] = true;
        queue.push_back((s0, Route::empty()));
        while let Some((s, route)) = queue.pop_front() {
            if route.len() == MAX_HOPS {
                continue;
            }
            for p in 0..self.switch_ports(s) {
                let Some(link) = self.link_at(Endpoint::Switch(s, PortId(p))) else {
                    continue;
                };
                if !alive(link) {
                    continue;
                }
                match self.link(link).other(Endpoint::Switch(s, PortId(p))) {
                    Endpoint::Host(h) => {
                        if hit(h, &|| route.then(p)) {
                            return;
                        }
                    }
                    Endpoint::Switch(s2, _) => {
                        if !seen[s2.idx()] {
                            seen[s2.idx()] = true;
                            queue.push_back((s2, route.then(p)));
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical builders for the paper's experiments.
// ---------------------------------------------------------------------------

/// Two hosts joined by one 8-port switch: the microbenchmark setup (§5.1.4,
/// "a pair of nodes connected with a switch"). Hosts are on ports 0 and 1.
pub fn pair_via_switch() -> (Topology, NodeId, NodeId) {
    let mut t = Topology::new();
    let a = t.add_host();
    let b = t.add_host();
    let s = t.add_switch(8);
    t.connect_host(a, s, 0);
    t.connect_host(b, s, 1);
    (t, a, b)
}

/// `n` hosts on a single 16-port switch.
pub fn star(n: usize) -> (Topology, Vec<NodeId>) {
    assert!(n <= 16);
    let mut t = Topology::new();
    let hosts = t.add_hosts(n);
    let s = t.add_switch(16);
    for (i, &h) in hosts.iter().enumerate() {
        t.connect_host(h, s, i as u8);
    }
    (t, hosts)
}

/// A chain of `k` 8-port switches with one host at each end, giving a
/// (k)-switch-hop host pair; used by the Table 3 hop sweep.
/// Host ports: port 0 of the first and last switch; inter-switch links use
/// ports 1 (toward the tail) and 2 (toward the head).
pub fn chain(k: usize) -> (Topology, NodeId, NodeId) {
    assert!(k >= 1);
    let mut t = Topology::new();
    let a = t.add_host();
    let b = t.add_host();
    let switches: Vec<_> = (0..k).map(|_| t.add_switch(8)).collect();
    t.connect_host(a, switches[0], 0);
    for w in switches.windows(2) {
        t.connect_switches(w[0], 1, w[1], 2);
    }
    t.connect_host(b, switches[k - 1], if k == 1 { 1 } else { 0 });
    (t, a, b)
}

/// Handle bundle for the Figure 2 mapping testbed.
#[derive(Debug, Clone)]
pub struct MappingTestbed {
    /// The wiring.
    pub topo: Topology,
    /// All hosts, indexed by the switch they hang off: `hosts[i]` hangs off
    /// `switches[i % 4]`.
    pub hosts: Vec<NodeId>,
    /// The four switches: two 16-port cores then two 8-port leaves.
    pub switches: Vec<SwitchId>,
    /// The redundant core-to-core link (killable to force re-routes).
    pub redundant_links: Vec<LinkId>,
}

/// The Figure 2 dynamic-mapping testbed: two 16-port and two 8-port
/// full-crossbar switches in a tree with redundant links so no single link is
/// a point of failure, plus `hosts_per_switch` hosts on each switch.
///
/// Wiring (ports in parentheses):
/// * core0 (16p) ⇄ core1 (16p) twice — ports 14/15 to 14/15,
/// * leaf2 (8p) to core0 (p12) and core1 (p12) — ports 6,7,
/// * leaf3 (8p) to core0 (p13) and core1 (p13) — ports 6,7,
/// * hosts on ports 0.. of their switch.
pub fn paper_mapping_testbed(hosts_per_switch: usize) -> MappingTestbed {
    assert!((1..=6).contains(&hosts_per_switch));
    let mut t = Topology::new();
    let core0 = t.add_switch(16);
    let core1 = t.add_switch(16);
    let leaf2 = t.add_switch(8);
    let leaf3 = t.add_switch(8);
    let redundant = vec![
        t.connect_switches(core0, 14, core1, 14),
        t.connect_switches(core0, 15, core1, 15),
        t.connect_switches(leaf2, 6, core0, 12),
        t.connect_switches(leaf2, 7, core1, 12),
        t.connect_switches(leaf3, 6, core0, 13),
        t.connect_switches(leaf3, 7, core1, 13),
    ];
    let switches = vec![core0, core1, leaf2, leaf3];
    let mut hosts = Vec::new();
    for i in 0..hosts_per_switch {
        for &s in &switches {
            let h = t.add_host();
            t.connect_host(h, s, i as u8);
            hosts.push(h);
        }
    }
    MappingTestbed {
        topo: t,
        hosts,
        switches,
        redundant_links: redundant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_and_query() {
        let (t, a, b) = pair_via_switch();
        assert_eq!(t.num_hosts(), 2);
        assert_eq!(t.num_switches(), 1);
        assert_eq!(t.num_links(), 2);
        let la = t.link_at(Endpoint::Host(a)).unwrap();
        let other = t.link(la).other(Endpoint::Host(a));
        assert_eq!(other, Endpoint::Switch(SwitchId(0), PortId(0)));
        assert!(t
            .link_at(Endpoint::Switch(SwitchId(0), PortId(5)))
            .is_none());
        let _ = b;
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wire_panics() {
        let mut t = Topology::new();
        let h = t.add_host();
        let s = t.add_switch(4);
        t.connect_host(h, s, 0);
        let h2 = t.add_host();
        let _ = h2;
        t.connect(Endpoint::Host(h), Endpoint::Switch(s, PortId(1)));
    }

    #[test]
    fn try_connect_refuses_without_corrupting() {
        let mut t = Topology::new();
        let h = t.add_host();
        let s = t.add_switch(4);
        t.connect_host(h, s, 0);
        // Already-wired host port.
        assert_eq!(
            t.try_connect(Endpoint::Host(h), Endpoint::Switch(s, PortId(1))),
            Err(WireError::AlreadyWired(Endpoint::Host(h)))
        );
        // Out-of-range switch port / unknown switch.
        assert_eq!(
            t.try_connect(
                Endpoint::Switch(s, PortId(9)),
                Endpoint::Switch(s, PortId(1))
            ),
            Err(WireError::OutOfRange(Endpoint::Switch(s, PortId(9))))
        );
        assert_eq!(
            t.try_connect(
                Endpoint::Switch(SwitchId(7), PortId(0)),
                Endpoint::Switch(s, PortId(1))
            ),
            Err(WireError::OutOfRange(Endpoint::Switch(
                SwitchId(7),
                PortId(0)
            )))
        );
        // Self-loop.
        assert_eq!(
            t.try_connect(
                Endpoint::Switch(s, PortId(1)),
                Endpoint::Switch(s, PortId(1))
            ),
            Err(WireError::SelfLoop(Endpoint::Switch(s, PortId(1))))
        );
        // The refusals left the accounting authoritative: ports 1..3 free.
        assert_eq!(t.num_links(), 1);
        assert_eq!(t.wired_ports(s), 1);
        assert_eq!(t.free_port(s), Some(1));
    }

    #[test]
    fn disconnect_frees_ports_and_reuses_ids_lifo() {
        let (mut t, a, b) = pair_via_switch();
        let la = t.link_at(Endpoint::Host(a)).unwrap();
        let lb = t.link_at(Endpoint::Host(b)).unwrap();
        assert_eq!(t.num_wired_links(), 2);
        let rec_a = t.disconnect(la);
        let rec_b = t.disconnect(lb);
        assert_eq!(t.num_wired_links(), 0);
        assert_eq!(t.num_links(), 2, "id space keeps the tombstones");
        assert!(t.try_link(la).is_none());
        assert_eq!(t.free_port(SwitchId(0)), Some(0), "ports are free again");
        // LIFO reuse: re-wiring in reverse removal order restores ids.
        assert_eq!(t.try_connect(rec_b.a, rec_b.b), Ok(lb));
        assert_eq!(t.try_connect(rec_a.a, rec_a.b), Ok(la));
        assert_eq!(t.link_at(Endpoint::Host(a)), Some(la));
        assert_eq!(t.num_wired_links(), 2);
    }

    #[test]
    fn remove_switch_unwires_everything() {
        let tb = paper_mapping_testbed(1);
        let mut t = tb.topo.clone();
        let core0 = tb.switches[0];
        let incident = t.remove_switch(core0);
        // core0: 2 core links + 1 per leaf (2) + 1 host = 5 links.
        assert_eq!(incident.len(), 5);
        assert_eq!(t.wired_ports(core0), 0);
        for (id, _) in &incident {
            assert!(t.try_link(*id).is_none());
        }
        // The rest of the fabric still routes around the removed core.
        let (h2, h3) = (tb.hosts[2], tb.hosts[3]); // on the two leaves
        assert!(t.shortest_route(h2, h3, |_| true).is_some());
        // Removing again is a no-op with nothing left to unwire.
        assert!(t.remove_switch(core0).is_empty());
    }

    #[test]
    fn trace_route_follows_wiring() {
        let (t, a, b) = pair_via_switch();
        // a → switch port 1 → b
        let r = Route::from_ports(&[1]);
        assert_eq!(t.trace_route(a, &r, |_| true), Some(Endpoint::Host(b)));
        // Port 5 is unwired.
        assert_eq!(t.trace_route(a, &Route::from_ports(&[5]), |_| true), None);
        // Out-of-range port.
        assert_eq!(t.trace_route(a, &Route::from_ports(&[200]), |_| true), None);
        // Route continuing past a host is invalid.
        assert_eq!(
            t.trace_route(a, &Route::from_ports(&[1, 0]), |_| true),
            None
        );
        // Dead link filter.
        let la = t.link_at(Endpoint::Host(a)).unwrap();
        assert_eq!(t.trace_route(a, &r, |l| l != la), None);
    }

    #[test]
    fn shortest_route_in_chain() {
        for k in 1..=4 {
            let (t, a, b) = chain(k);
            let r = t.shortest_route(a, b, |_| true).expect("route exists");
            assert_eq!(r.len(), k, "chain of {k} switches needs {k} hops");
            assert_eq!(t.trace_route(a, &r, |_| true), Some(Endpoint::Host(b)));
            // And back.
            let rb = t.shortest_route(b, a, |_| true).unwrap();
            assert_eq!(t.trace_route(b, &rb, |_| true), Some(Endpoint::Host(a)));
        }
    }

    #[test]
    fn shortest_route_respects_dead_links() {
        let tb = paper_mapping_testbed(1);
        let (a, b) = (tb.hosts[0], tb.hosts[1]); // on core0 and core1
        let direct = tb.topo.shortest_route(a, b, |_| true).unwrap();
        assert_eq!(direct.len(), 2, "one core-to-core hop");
        // Kill both direct core links: route must detour via a leaf.
        let dead = [tb.redundant_links[0], tb.redundant_links[1]];
        let detour = tb
            .topo
            .shortest_route(a, b, |l| !dead.contains(&l))
            .unwrap();
        assert_eq!(detour.len(), 3, "detour via a leaf switch");
        assert_eq!(
            tb.topo.trace_route(a, &detour, |l| !dead.contains(&l)),
            Some(Endpoint::Host(b))
        );
    }

    #[test]
    fn no_route_when_partitioned() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let s1 = t.add_switch(4);
        let s2 = t.add_switch(4);
        t.connect_host(a, s1, 0);
        t.connect_host(b, s2, 0);
        assert!(t.shortest_route(a, b, |_| true).is_none());
    }

    #[test]
    fn mapping_testbed_shape() {
        let tb = paper_mapping_testbed(2);
        assert_eq!(tb.topo.num_switches(), 4);
        assert_eq!(tb.hosts.len(), 8);
        assert_eq!(tb.topo.switch_ports(tb.switches[0]), 16);
        assert_eq!(tb.topo.switch_ports(tb.switches[2]), 8);
        // Every host pair is connected.
        for &x in &tb.hosts {
            for &y in &tb.hosts {
                if x != y {
                    assert!(tb.topo.shortest_route(x, y, |_| true).is_some());
                }
            }
        }
    }

    #[test]
    fn route_longer_than_max_hops_is_not_found() {
        // Chain longer than MAX_HOPS: BFS must terminate and return None.
        let (t, a, b) = chain(MAX_HOPS + 2);
        assert!(t.shortest_route(a, b, |_| true).is_none());
    }

    /// Row `src` of [`Topology::shortest_routes_from`] against the
    /// per-pair search, entry by entry.
    fn assert_row_matches(t: &Topology, src: NodeId, alive: impl Fn(LinkId) -> bool + Copy) {
        let row = t.shortest_routes_from(src, alive);
        assert_eq!(row.len(), t.num_hosts());
        for (b, r) in row.iter().enumerate() {
            let b = NodeId(b as u16);
            assert_eq!(*r, t.shortest_route(src, b, alive), "{src} -> {b}");
        }
    }

    #[test]
    fn route_rows_from_a_cut_off_host() {
        let (mut t, a, b) = pair_via_switch();
        let stray = t.add_host(); // never wired
                                  // A source reaches itself by the empty route, wired or not.
        let row = t.shortest_routes_from(stray, |_| true);
        assert_eq!(row, vec![None, None, Some(Route::empty())]);
        assert_row_matches(&t, stray, |_| true);
        // Nothing routes *to* an unwired host either.
        assert_eq!(t.shortest_routes_from(a, |_| true)[stray.idx()], None);
        assert_row_matches(&t, a, |_| true);
        // A dead first link cuts the source off from everyone but itself.
        let la = t.link_at(Endpoint::Host(a)).unwrap();
        let row = t.shortest_routes_from(a, |l| l != la);
        assert_eq!(row, vec![Some(Route::empty()), None, None]);
        assert_row_matches(&t, a, |l| l != la);
        // ... and the far side cannot reach it through that link.
        assert_eq!(t.shortest_routes_from(b, |l| l != la)[a.idx()], None);
        assert_row_matches(&t, b, |l| l != la);
    }

    #[test]
    fn route_rows_respect_the_hop_budget() {
        // Exactly MAX_HOPS switches fit the route budget; one more does not.
        let (t, a, b) = chain(MAX_HOPS);
        let row = t.shortest_routes_from(a, |_| true);
        assert_eq!(row[b.idx()].map(|r| r.len()), Some(MAX_HOPS));
        assert_row_matches(&t, a, |_| true);
        let (t, a, b) = chain(MAX_HOPS + 1);
        assert_eq!(t.shortest_routes_from(a, |_| true)[b.idx()], None);
        assert_eq!(t.shortest_routes_from(b, |_| true)[a.idx()], None);
        assert_row_matches(&t, a, |_| true);
    }

    #[test]
    fn route_rows_over_a_direct_host_link() {
        // Two hosts cabled to each other: the empty route reaches the peer.
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        t.connect(Endpoint::Host(a), Endpoint::Host(b));
        let row = t.shortest_routes_from(a, |_| true);
        assert_eq!(row, vec![Some(Route::empty()); 2]);
        assert_row_matches(&t, a, |_| true);
        assert_row_matches(&t, b, |_| true);
    }
}
