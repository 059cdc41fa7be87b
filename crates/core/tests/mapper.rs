//! On-demand mapper behaviour: probe economics, BFS order, identity checks,
//! caching of side discoveries, and queued requests.

use san_fabric::{topology, NodeId, RouteHints};
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::testkit::{inbox, make_desc, Collector, Inbox};
use san_nic::{Cluster, ClusterConfig, HostAgent, HostCtx, IdleHost};
use san_sim::{Duration, Time};

fn fw_of(c: &Cluster, node: usize) -> &ReliableFirmware {
    c.nics[node]
        .fw
        .as_any()
        .downcast_ref::<ReliableFirmware>()
        .unwrap()
}

fn cold_cluster(topo: san_fabric::Topology, hosts: Vec<Box<dyn HostAgent>>) -> Cluster {
    let n = topo.num_hosts();
    let proto = ProtocolConfig::default().with_mapping();
    Cluster::new(
        topo,
        ClusterConfig::default(),
        move |_| {
            Box::new(ReliableFirmware::new(
                proto.clone(),
                MapperConfig::default(),
                n,
            ))
        },
        hosts,
    )
    // deliberately no install_shortest_routes(): cold start
}

fn run_until_count(c: &mut Cluster, ib: &Inbox, n: usize, deadline: Time) -> bool {
    let mut t = Time::from_millis(2);
    while ib.borrow().len() < n {
        if t > deadline {
            return false;
        }
        c.run_until(t);
        t += Duration::from_millis(2);
    }
    true
}

/// Hop-1 targets are found with host probes alone (Table 3's first row has
/// zero switch probes) and probe counts grow with hop distance.
#[test]
fn probe_counts_grow_with_hops() {
    let mut host_probes = Vec::new();
    let mut switch_probes = Vec::new();
    let mut times = Vec::new();
    for hops in 1..=4usize {
        let (topo, _a, b) = topology::chain(hops);
        let ib = inbox();
        let hosts: Vec<Box<dyn HostAgent>> = vec![
            Box::new(san_nic::testkit::StreamSender::new(b, 64, 1)),
            Box::new(Collector(ib.clone())),
        ];
        let mut c = cold_cluster(topo, hosts);
        assert!(
            run_until_count(&mut c, &ib, 1, Time::from_secs(5)),
            "hop {hops} mapped"
        );
        let st = fw_of(&c, 0).mapper_stats();
        host_probes.push(st.last_host_probes);
        switch_probes.push(st.last_switch_probes);
        times.push(st.last_time_ms);
    }
    assert_eq!(
        switch_probes[0], 0,
        "hop 1 needs no switch probes (paper Table 3)"
    );
    for w in host_probes.windows(2) {
        assert!(w[1] > w[0], "host probes grow with hops: {host_probes:?}");
    }
    for w in switch_probes[1..].windows(2) {
        assert!(
            w[1] > w[0],
            "switch probes grow with hops: {switch_probes:?}"
        );
    }
    for w in times.windows(2) {
        assert!(w[1] > w[0], "mapping time grows with hops: {times:?}");
    }
}

/// Identity checks prevent re-mapping a switch seen through a redundant
/// link as a new one: on the Figure 2 testbed (6 inter-switch links, 4
/// switches) an exhaustive exploration must terminate with exactly the
/// four real switches, which bounds the probe count.
#[test]
fn redundant_links_do_not_duplicate_switches() {
    let tb = topology::paper_mapping_testbed(1);
    let n = tb.hosts.len();
    let (src, dst) = (tb.hosts[2], tb.hosts[3]); // leaf to leaf
    let ib = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = (0..n)
        .map(|h| -> Box<dyn HostAgent> {
            if h == src.idx() {
                Box::new(san_nic::testkit::StreamSender::new(dst, 64, 1))
            } else if h == dst.idx() {
                Box::new(Collector(ib.clone()))
            } else {
                Box::new(IdleHost)
            }
        })
        .collect();
    let mut c = cold_cluster(tb.topo, hosts);
    assert!(run_until_count(&mut c, &ib, 1, Time::from_secs(10)));
    let st = fw_of(&c, src.idx()).mapper_stats();
    // Loop probes per expanded port ≤ 16, identity ≤ 4 per found switch,
    // with at most 4 switches and ~40 candidate ports in this testbed. If
    // identity checks failed, exploration would never converge (the switch
    // graph would look infinite); a finite, modest bound proves they work.
    assert!(
        st.last_switch_probes < 600,
        "switch probes bounded by the real topology: {}",
        st.last_switch_probes
    );
    assert!(st.resolved.get() >= 1);
}

/// Routes discovered along the way are cached: a second send to a
/// different (already-seen) host triggers no new mapping run.
#[test]
fn side_discoveries_are_cached() {
    struct TwoTargets {
        first: NodeId,
        second: NodeId,
        step: u32,
    }
    impl HostAgent for TwoTargets {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            ctx.wake_in(Duration::from_micros(5), 0);
        }
        fn on_wake(&mut self, ctx: &mut HostCtx, _token: u64) {
            match self.step {
                0 => {
                    ctx.post_send(make_desc(self.first, 64, 0, ctx.now()));
                    self.step = 1;
                    ctx.wake_in(Duration::from_millis(30), 0);
                }
                1 => {
                    ctx.post_send(make_desc(self.second, 64, 1, ctx.now()));
                    self.step = 2;
                }
                _ => {}
            }
        }
        fn on_message(&mut self, _ctx: &mut HostCtx, _pkt: san_fabric::Packet) {}
        fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
    }

    // Star: everything is one switch away, so mapping for the first target
    // discovers every host on the switch.
    let (topo, hosts_ids) = topology::star(6);
    let ib1 = inbox();
    let ib2 = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = (0..6)
        .map(|h| -> Box<dyn HostAgent> {
            if h == 0 {
                Box::new(TwoTargets {
                    first: hosts_ids[3],
                    second: hosts_ids[5],
                    step: 0,
                })
            } else if h == 3 {
                Box::new(Collector(ib1.clone()))
            } else if h == 5 {
                Box::new(Collector(ib2.clone()))
            } else {
                Box::new(IdleHost)
            }
        })
        .collect();
    let mut c = cold_cluster(topo, hosts);
    c.run_until(Time::from_millis(100));
    assert_eq!(ib1.borrow().len(), 1);
    assert_eq!(ib2.borrow().len(), 1, "second target reached");
    let st = fw_of(&c, 0).mapper_stats();
    assert_eq!(
        st.runs.get(),
        1,
        "the second send must reuse the cached side discovery"
    );
    assert!(c.nics[0].core.routes.known() >= 2);
}

/// Two cold destinations requested back-to-back: the mapper serializes the
/// runs and both senders complete (queued-request path).
#[test]
fn queued_mapping_requests_serialize() {
    struct Burst {
        targets: Vec<NodeId>,
    }
    impl HostAgent for Burst {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            ctx.wake_in(Duration::from_micros(5), 0);
        }
        fn on_wake(&mut self, ctx: &mut HostCtx, _token: u64) {
            for (i, t) in self.targets.iter().enumerate() {
                ctx.post_send(make_desc(*t, 64, i as u64, ctx.now()));
            }
        }
        fn on_message(&mut self, _ctx: &mut HostCtx, _pkt: san_fabric::Packet) {}
        fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
    }
    // Chain of 2 switches with extra hosts so targets differ in distance.
    let mut topo = san_fabric::Topology::new();
    let sender = topo.add_host();
    let near = topo.add_host();
    let far = topo.add_host();
    let s0 = topo.add_switch(8);
    let s1 = topo.add_switch(8);
    topo.connect_host(sender, s0, 0);
    topo.connect_host(near, s0, 1);
    topo.connect_host(far, s1, 0);
    topo.connect_switches(s0, 2, s1, 2);

    let ib_near = inbox();
    let ib_far = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(Burst {
            targets: vec![far, near],
        }),
        Box::new(Collector(ib_near.clone())),
        Box::new(Collector(ib_far.clone())),
    ];
    let mut c = cold_cluster(topo, hosts);
    c.run_until(Time::from_millis(200));
    assert_eq!(ib_far.borrow().len(), 1, "far target delivered");
    assert_eq!(ib_near.borrow().len(), 1, "near target delivered");
    let st = fw_of(&c, 0).mapper_stats();
    // Mapping toward `far` explores s0 first and finds `near` on the way,
    // so the queued request for `near` resolves from cache: one run total.
    assert_eq!(
        st.runs.get(),
        1,
        "queued request satisfied by side discovery"
    );
}

/// Identity resolution pays for itself on redundant fabrics: exploring for
/// an unreachable destination, the checked mapper terminates after the four
/// real switches, while the unchecked one re-discovers switches through
/// every redundant link until the sighting budget stops it.
#[test]
fn identity_checks_cost_probes() {
    let run = |checks: bool| -> (u64, u64) {
        let tb = topology::paper_mapping_testbed(1);
        let n = tb.hosts.len();
        let phantom = NodeId(n as u16);
        let mut topo = tb.topo.clone();
        let _ = topo.add_host(); // exists in the id space, wired nowhere
        let hosts: Vec<Box<dyn HostAgent>> = (0..=n)
            .map(|h| -> Box<dyn HostAgent> {
                if h == 0 {
                    Box::new(san_nic::testkit::StreamSender::new(phantom, 64, 1))
                } else {
                    Box::new(IdleHost)
                }
            })
            .collect();
        let proto = ProtocolConfig::default().with_mapping();
        let mcfg = MapperConfig {
            identity_checks: checks,
            ..Default::default()
        };
        let mut c = Cluster::new(
            topo,
            ClusterConfig::default(),
            move |_| Box::new(ReliableFirmware::new(proto.clone(), mcfg.clone(), n + 1)),
            hosts,
        );
        let mut t = Time::from_millis(5);
        loop {
            c.run_until(t);
            let st = fw_of(&c, 0).mapper_stats();
            if st.unreachable.get() > 0 || t > Time::from_secs(30) {
                return (
                    st.host_probes.get() + st.switch_probes.get(),
                    st.unreachable.get(),
                );
            }
            t += Duration::from_millis(5);
        }
    };
    let (with, term_with) = run(true);
    let (without, term_without) = run(false);
    assert_eq!(
        term_with, 1,
        "checked mapper concludes unreachable exactly once"
    );
    assert_eq!(
        term_without, 1,
        "unchecked mapper is saved by the sighting budget"
    );
    // The unchecked run re-scans every redundant sighting; the exact ratio
    // depends on where the sighting budget cuts it off, but the checked run
    // must be strictly cheaper.
    assert!(
        (with as f64) < without as f64 * 0.75,
        "identity checks bound exploration on redundant fabrics: with={with} without={without}"
    );
}

/// A redundant two-switch fabric for the planner-hint tests: two parallel
/// inter-switch links, sender on s0, target on s1. Returns the topology,
/// the two host-to-host candidate routes (one per parallel link) and the
/// ids needed to kill one of them.
fn hinted_fabric() -> (
    san_fabric::Topology,
    NodeId,
    Vec<san_fabric::Route>,
    [san_fabric::LinkId; 2],
) {
    let mut topo = san_fabric::Topology::new();
    let sender = topo.add_host();
    let dst = topo.add_host();
    let s0 = topo.add_switch(4);
    let s1 = topo.add_switch(4);
    topo.connect_host(sender, s0, 0);
    topo.connect_host(dst, s1, 0);
    let l1 = topo.connect_switches(s0, 1, s1, 1);
    let l2 = topo.connect_switches(s0, 2, s1, 2);
    let candidates = vec![
        san_fabric::Route::from_ports(&[1, 0]),
        san_fabric::Route::from_ports(&[2, 0]),
    ];
    let _ = sender;
    (topo, dst, candidates, [l1, l2])
}

/// Planner-offered candidates short-circuit exploration: the mapping run
/// verifies a hint with one host probe per candidate and never probes a
/// switch.
#[test]
fn offered_candidates_resolve_without_exploration() {
    let (topo, dst, candidates, _links) = hinted_fabric();
    let ib = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(san_nic::testkit::StreamSender::new(dst, 64, 1)),
        Box::new(Collector(ib.clone())),
    ];
    let mut c = cold_cluster(topo, hosts);
    c.nics[0]
        .fw
        .as_any_mut()
        .downcast_mut::<ReliableFirmware>()
        .unwrap()
        .offer_route_hints(dst, RouteHints::manual(candidates));
    assert!(run_until_count(&mut c, &ib, 1, Time::from_secs(1)));
    let st = fw_of(&c, 0).mapper_stats();
    assert_eq!(st.hint_resolved.get(), 1, "the hint phase must resolve");
    assert_eq!(
        st.last_switch_probes, 0,
        "no exploration behind a good hint"
    );
    assert!(
        st.last_host_probes <= 2,
        "one probe per candidate, got {}",
        st.last_host_probes
    );
    assert!(
        st.last_time_ms < 0.4,
        "hint resolution beats one batch deadline"
    );
}

/// Hints whose routes are all dead are not trusted: the mapper falls back
/// to exploration and still resolves the destination.
#[test]
fn dead_candidates_fall_back_to_exploration() {
    let (topo, dst, candidates, [l1, _l2]) = hinted_fabric();
    let ib = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(san_nic::testkit::StreamSender::new(dst, 64, 1)),
        Box::new(Collector(ib.clone())),
    ];
    let mut c = cold_cluster(topo, hosts);
    // Kill the link the first candidate rides before the stream starts:
    // its hint probe dies in the fabric, but the second candidate still
    // resolves the run inside the hint phase — a planner hint only has to
    // contain ONE live route to skip exploration.
    c.sim.schedule(
        Time(1),
        san_fabric::engine::FabricEvent::LinkDown { link: l1 }.into(),
    );
    c.nics[0]
        .fw
        .as_any_mut()
        .downcast_mut::<ReliableFirmware>()
        .unwrap()
        .offer_route_hints(dst, RouteHints::manual(candidates.clone()));
    assert!(run_until_count(&mut c, &ib, 1, Time::from_secs(1)));
    let st = fw_of(&c, 0).mapper_stats();
    assert_eq!(st.hint_resolved.get(), 1, "surviving candidate resolves");
    assert_eq!(st.last_switch_probes, 0);

    // Now kill BOTH links' worth of candidates: offer routes that are all
    // dead on a fresh cluster and the mapper must fall back to exploring
    // the real fabric instead of trusting the planner.
    let (topo, dst, candidates, [l1, _l2]) = hinted_fabric();
    let ib = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(san_nic::testkit::StreamSender::new(dst, 64, 1)),
        Box::new(Collector(ib.clone())),
    ];
    let mut c = cold_cluster(topo, hosts);
    c.sim.schedule(
        Time(1),
        san_fabric::engine::FabricEvent::LinkDown { link: l1 }.into(),
    );
    // Offer only the candidate that rides the killed link, twice: every
    // hint probe is lost to silence.
    c.nics[0]
        .fw
        .as_any_mut()
        .downcast_mut::<ReliableFirmware>()
        .unwrap()
        .offer_route_hints(dst, RouteHints::manual(vec![candidates[0], candidates[0]]));
    assert!(run_until_count(&mut c, &ib, 1, Time::from_secs(5)));
    let st = fw_of(&c, 0).mapper_stats();
    assert_eq!(st.hint_resolved.get(), 0, "dead hints must not resolve");
    assert!(
        st.last_switch_probes > 0,
        "fallback exploration probes the fabric"
    );
    assert!(st.resolved.get() >= 1, "destination still mapped");
}

/// Fat-tree cold starts cross the depth-1 signature's blind spot: host-less
/// aggregation switches serving different pods answer identically, falsely
/// merge through a shared core, and whole pods go unexplored — the
/// *core-aliasing* boundary. Two-hop signatures (`deep_signatures`) plus
/// path-reset-aware patience deadlines resolve the aggregation layer and
/// recover self-deadlocked probes, so the same exploration converges.
#[test]
fn fat_tree_cold_start_needs_deep_signatures() {
    use san_topo::TopoSpec;
    let run = |deep: bool| {
        let fab = TopoSpec::parse("fat_tree:4").unwrap().build();
        let topo = fab.topo.clone();
        let n = fab.hosts.len();
        let (src, dst) = (fab.hosts[0], *fab.hosts.last().unwrap());
        let ib = inbox();
        let hosts: Vec<Box<dyn HostAgent>> = (0..n)
            .map(|h| -> Box<dyn HostAgent> {
                if h == src.idx() {
                    Box::new(san_nic::testkit::StreamSender::new(dst, 64, 1))
                } else if h == dst.idx() {
                    Box::new(Collector(ib.clone()))
                } else {
                    Box::new(IdleHost)
                }
            })
            .collect();
        let proto = ProtocolConfig::default().with_mapping();
        let mcfg = MapperConfig {
            max_ports: topo.max_switch_ports().max(1),
            max_switch_sightings: (topo.num_switches() * 4).max(64),
            deep_signatures: deep,
            ..MapperConfig::default()
        };
        let mut c = Cluster::new(
            topo,
            ClusterConfig::default(),
            move |_| Box::new(ReliableFirmware::new(proto.clone(), mcfg.clone(), n)),
            hosts,
        );
        // Source and destination sit in different pods: the route crosses
        // the aliasing aggregation/core layers both ways.
        let mut t = Time::from_millis(5);
        loop {
            c.run_until(t);
            let st = fw_of(&c, src.idx()).mapper_stats();
            let (res, unr) = (st.resolved.get(), st.unreachable.get());
            if res + unr >= 1 || t >= Time::from_secs(20) {
                return (res, unr, st.deep_scans.get());
            }
            t += Duration::from_millis(5);
        }
    };

    let (res, unr, scans) = run(false);
    assert_eq!(
        (res, unr),
        (0, 1),
        "depth-1 signatures alias the fat-tree core layer: the cross-pod \
         destination must conclude unreachable"
    );
    assert_eq!(scans, 0, "deep scans are off by default");

    let (res, unr, scans) = run(true);
    assert_eq!(
        (res, unr),
        (1, 0),
        "deep signatures resolve the cross-pod destination"
    );
    assert!(scans > 0, "the fix actually ran deep scans");
}
