//! Tier-1 pins on the initial route tables a "freshly, correctly mapped"
//! simulation starts from. Each digest folds every installed route (or its
//! absence) for every ordered host pair, read back through
//! `RouteTable::get`, so a change to either search's queue order, its hop
//! budget, its tie-breaking or the table itself moves one.
//!
//! The last test installs the full shortest-path table on 1024 hosts. One
//! search per source keeps that under a second in release; the per-pair
//! form took tens of seconds, so this test also keeps it from returning.

use san_fabric::fingerprint::Fnv;
use san_fabric::{Endpoint, NodeId};
use san_nic::{Cluster, ClusterConfig, HostAgent, IdleHost, UnreliableFirmware};
use san_topo::TopoSpec;

fn cluster(spec: &str) -> Cluster {
    let topo = TopoSpec::parse(spec).expect("atlas spec").build().topo;
    let hosts = (0..topo.num_hosts())
        .map(|_| Box::new(IdleHost) as Box<dyn HostAgent>)
        .collect();
    Cluster::new(
        topo,
        ClusterConfig::default(),
        |_| Box::new(UnreliableFirmware),
        hosts,
    )
}

/// FNV-1a over `get(b)` on every NIC `a`, for every `b` in host order.
fn table_digest(c: &Cluster) -> u64 {
    let mut h = Fnv::new();
    for nic in &c.nics {
        for b in 0..c.nics.len() {
            match nic.core.routes.get(NodeId(b as u16)) {
                None => h.u64(u64::MAX),
                Some(r) => {
                    h.u64(r.len() as u64);
                    for &p in r.ports() {
                        h.u64(p as u64);
                    }
                }
            }
        }
    }
    h.finish()
}

fn assert_digest(spec: &str, updown: bool, golden: u64) {
    let mut c = cluster(spec);
    if updown {
        c.install_updown_routes();
    } else {
        c.install_shortest_routes();
    }
    let got = table_digest(&c);
    assert_eq!(
        got, golden,
        "{spec}: route table digest moved (got {got:#018x})"
    );
}

#[test]
fn shortest_tables_are_pinned() {
    assert_digest("fat_tree:8", false, 0x9068_390b_b313_4725);
    assert_digest("testbed:2", false, 0x477e_bcfb_b9da_8665);
}

#[test]
fn updown_table_is_pinned() {
    assert_digest("torus2d:8x8x2", true, 0x6dc7_c698_7ba4_5325);
}

#[test]
fn full_shortest_table_on_1024_hosts() {
    let mut c = cluster("fat_tree:16");
    let n = c.nics.len();
    assert_eq!(n, 1024);
    c.install_shortest_routes();
    let topo = c.engine.topology();
    for (a, nic) in c.nics.iter().enumerate() {
        assert_eq!(nic.core.routes.known(), n - 1, "h{a}: every peer routed");
    }
    for a in (0..n).step_by(73) {
        let src = NodeId(a as u16);
        for b in (0..n).filter(|&b| b != a) {
            let dst = NodeId(b as u16);
            let r = c.nics[a].core.routes.get(dst).expect("installed");
            assert_eq!(
                topo.trace_route(src, &r, |_| true),
                Some(Endpoint::Host(dst)),
                "{src} -> {dst} via {r:?}"
            );
        }
    }
}
