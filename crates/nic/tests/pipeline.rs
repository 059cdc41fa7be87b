//! End-to-end tests of the unreliable (no fault tolerance) pipeline:
//! the simulated system must reproduce the paper's failure-free baseline —
//! ~8 µs one-way latency for a 4-byte message and a ~118 MB/s PCI-bound
//! bandwidth plateau — before any reliability machinery is added.

use san_fabric::topology;
use san_fabric::NodeId;
use san_nic::testkit::{inbox, Collector, Inbox, StreamSender};
use san_nic::{Cluster, ClusterConfig, HostAgent, IdleHost, UnreliableFirmware};

fn two_node_cluster(sender: StreamSender) -> (Cluster, Inbox) {
    let (topo, _a, _b) = topology::pair_via_switch();
    let inbox = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = vec![Box::new(sender), Box::new(Collector(inbox.clone()))];
    let mut cluster = Cluster::new(
        topo,
        ClusterConfig::default(),
        |_| Box::new(UnreliableFirmware),
        hosts,
    );
    cluster.install_shortest_routes();
    (cluster, inbox)
}

#[test]
fn four_byte_one_way_latency_is_about_8us() {
    let (mut cluster, inbox) = two_node_cluster(StreamSender::new(NodeId(1), 4, 1));
    cluster.run_until_idle();
    let inbox = inbox.borrow();
    assert_eq!(inbox.len(), 1);
    let pkt = &inbox[0];
    let lat = pkt.stamps.host_seen.since(pkt.stamps.host_post);
    let us = lat.as_micros_f64();
    assert!(
        (7.0..9.0).contains(&us),
        "4-byte no-FT latency ≈ 8 µs, got {us:.2} µs"
    );
    // Stage ordering must be monotone.
    let s = &pkt.stamps;
    assert!(s.host_post <= s.nic_tx_start);
    assert!(s.nic_tx_start <= s.injected);
    assert!(s.injected <= s.delivered);
    assert!(s.delivered <= s.deposited);
    assert!(s.deposited <= s.host_seen);
}

#[test]
fn payload_bytes_arrive_intact() {
    let (mut cluster, inbox) = two_node_cluster(StreamSender::new(NodeId(1), 32, 1));
    cluster.run_until_idle();
    let inbox = inbox.borrow();
    assert_eq!(inbox[0].payload.as_ref(), &[0xA5u8; 32][..]);
    assert!(inbox[0].crc_ok());
}

#[test]
fn unidirectional_bandwidth_hits_pci_plateau() {
    let n = 256u64; // 1 MB total in 4 KB packets
    let (mut cluster, inbox) = two_node_cluster(StreamSender::new(NodeId(1), 4096, n));
    cluster.run_until_idle();
    let inbox = inbox.borrow();
    assert_eq!(inbox.len(), n as usize);
    let first = inbox[0].stamps.host_post;
    let last = inbox.last().unwrap().stamps.deposited;
    let secs = last.since(first).as_secs_f64();
    let mbps = (n * 4096) as f64 / secs / 1e6;
    assert!(
        (105.0..122.0).contains(&mbps),
        "no-FT unidirectional bandwidth ≈ 118 MB/s (PCI bound), got {mbps:.1}"
    );
}

#[test]
fn small_queue_still_makes_progress() {
    let (topo, _a, _b) = topology::pair_via_switch();
    let inbox = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(StreamSender::new(NodeId(1), 4096, 64)),
        Box::new(Collector(inbox.clone())),
    ];
    let cfg = ClusterConfig {
        send_bufs: 2,
        ..Default::default()
    };
    let mut cluster = Cluster::new(topo, cfg, |_| Box::new(UnreliableFirmware), hosts);
    cluster.install_shortest_routes();
    cluster.run_until_idle();
    assert_eq!(inbox.borrow().len(), 64);
    // With only 2 buffers the sender must have blocked at least once.
    assert!(cluster.nics[0].core.stats.blocked_no_buffer.get() > 0);
}

#[test]
fn messages_arrive_in_posting_order() {
    let (mut cluster, inbox) = two_node_cluster(StreamSender::new(NodeId(1), 512, 50));
    cluster.run_until_idle();
    let ids: Vec<u64> = inbox.borrow().iter().map(|p| p.msg_id).collect();
    assert_eq!(ids, (0..50).collect::<Vec<_>>());
}

#[test]
fn no_route_descriptor_is_counted_not_wedged() {
    let (topo, _a, _b) = topology::pair_via_switch();
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(StreamSender::new(NodeId(1), 64, 3)),
        Box::new(IdleHost),
    ];
    let mut cluster = Cluster::new(
        topo,
        ClusterConfig::default(),
        |_| Box::new(UnreliableFirmware),
        hosts,
    );
    // No routes installed.
    cluster.run_until_idle();
    assert_eq!(cluster.nics[0].core.stats.unroutable.get(), 3);
    assert_eq!(cluster.engine.stats().injected, 0);
}
