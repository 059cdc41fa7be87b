//! Path-reset checks keep their exact place in the event order.
//!
//! Every injected flight owes one path-reset check at injection time plus
//! the 62 ms default timeout. The fabric engine queues those checks in
//! injection order and arms only the head in the event queue, under the
//! sequence number reserved at injection, so each check pops at the same
//! `(time, seq)` as a timer armed per flight would. Both runs below go to
//! 150 ms, past the first 88 ms of checks, and pin the event count, the
//! last event's time and the path resets to the values that per-flight
//! timers gave. A dropped or reordered check moves at least one of them.
//!
//! - A fat_tree:4 reliable stream: almost every check is stale (its flight
//!   was delivered long before). The per-flight timers also held one
//!   pending event per flight injected in the last 62 ms. Sampled every
//!   50 µs, the peak `Sim::pending()` was 32,860 with per-flight timers and
//!   1,025 with the check queue; the bound sits between the two.
//! - Three hosts on a three-switch ring whose routes all run the same way
//!   round: the worms deadlock, so checks fire and reset live flights, and
//!   every replay after a reset owes checks of its own.

use san_fabric::{NodeId, Route, SwitchId, Topology};
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::testkit::StreamSender;
use san_nic::{Cluster, ClusterConfig, HostAgent};
use san_sim::{Duration, Time};
use san_topo::TopoSpec;

/// A reliable-firmware cluster over `topo` where host `i` streams `count`
/// packets of `bytes` to `dst(i)`, with the default path-reset timeout.
fn streams(topo: Topology, dst: impl Fn(usize) -> usize, bytes: u32, count: u64) -> Cluster {
    let n = topo.num_hosts();
    let hosts: Vec<Box<dyn HostAgent>> = (0..n)
        .map(|i| -> Box<dyn HostAgent> {
            Box::new(StreamSender::new(NodeId(dst(i) as u16), bytes, count))
        })
        .collect();
    let c = Cluster::new(
        topo,
        ClusterConfig::default(),
        |_| {
            Box::new(ReliableFirmware::new(
                ProtocolConfig::default(),
                MapperConfig::default(),
                n,
            ))
        },
        hosts,
    );
    assert_eq!(
        c.engine.config().path_reset_timeout,
        Duration::from_millis(62)
    );
    c
}

/// Run to 150 ms in 50 µs slices; returns the peak pending-event count
/// seen between slices.
fn run_to_150ms(c: &mut Cluster) -> usize {
    let end = Time::from_millis(150);
    let mut peak = 0;
    let mut t = Time::ZERO;
    while t < end {
        t = (t + Duration::from_micros(50)).min(end);
        c.run_until(t);
        peak = peak.max(c.sim.pending());
    }
    peak
}

#[test]
fn stale_reset_checks_pop_in_place() {
    let fabric = TopoSpec::parse("fat_tree:4").expect("valid spec").build();
    let n = fabric.hosts.len();
    let mut c = streams(fabric.topo, |i| (i + n / 2) % n, 2048, 2000);
    c.install_shortest_routes();
    let peak_pending = run_to_150ms(&mut c);
    let stats = c.engine.stats();
    assert_eq!(
        (
            c.events_processed(),
            c.sim.now(),
            stats.path_resets,
            stats.delivered
        ),
        (490_400, Time::from_nanos(149_123_601), 0, 36_000),
        "events processed, last event time, path resets, deliveries"
    );
    assert!(
        peak_pending < 2_000,
        "peak pending events {peak_pending}: a timer per flight is back"
    );
}

#[test]
fn live_reset_checks_fire_in_place() {
    let mut t = Topology::new();
    let hs: Vec<NodeId> = (0..3).map(|_| t.add_host()).collect();
    let ss: Vec<SwitchId> = (0..3).map(|_| t.add_switch(4)).collect();
    for i in 0..3 {
        t.connect_host(hs[i], ss[i], 0);
        t.connect_switches(ss[i], 1, ss[(i + 1) % 3], 2);
    }
    let mut c = streams(t, |i| (i + 2) % 3, 65536, 20);
    // Every route leaves each switch by port 1 until it reaches the
    // destination's switch: a cycle of channel dependencies.
    c.install_routes(|a, b| {
        let hops = (b.idx() + 3 - a.idx()) % 3;
        let mut ports = vec![1u8; hops];
        ports.push(0);
        Some(Route::from_ports(&ports))
    });
    run_to_150ms(&mut c);
    let stats = c.engine.stats();
    assert_eq!(
        (c.events_processed(), c.sim.now(), stats.path_resets),
        (4_759, Time::from_nanos(149_873_870), 615),
        "events processed, last event time, path resets"
    );
}
