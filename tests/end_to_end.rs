//! Cross-crate integration tests: the whole stack — fabric, NIC, reliable
//! firmware, VMMC, mapper — exercised together.

use san_fabric::engine::FabricEvent;
use san_fabric::{topology, NodeId, Topology, TransientFaults};
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::testkit::{inbox, Collector, StreamSender};
use san_nic::{Cluster, ClusterConfig, HostAgent, UnreliableFirmware};
use san_sim::{Duration, Time};

fn ft_cluster(
    topo: Topology,
    cfg: ClusterConfig,
    proto: ProtocolConfig,
    hosts: Vec<Box<dyn HostAgent>>,
) -> Cluster {
    let n = topo.num_hosts();
    let mut c = Cluster::new(
        topo,
        cfg,
        move |_| {
            Box::new(ReliableFirmware::new(
                proto.clone(),
                MapperConfig::default(),
                n,
            ))
        },
        hosts,
    );
    c.install_shortest_routes();
    c
}

/// The unreliable baseline genuinely loses data under wire faults — the
/// negative control that proves the reliability layer is doing the work.
#[test]
fn unreliable_firmware_loses_messages_under_loss() {
    let (topo, _a, _b) = topology::pair_via_switch();
    let ib = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(StreamSender::new(NodeId(1), 1024, 200)),
        Box::new(Collector(ib.clone())),
    ];
    let mut c = Cluster::new(
        topo,
        ClusterConfig::default(),
        |_| Box::new(UnreliableFirmware),
        hosts,
    );
    c.install_shortest_routes();
    c.engine
        .set_transient_faults(TransientFaults::loss(0.05), 7);
    c.run_until(Time::from_millis(100));
    let got = ib.borrow().len();
    assert!(
        got < 200,
        "without FT, 5% loss must lose messages (got {got}/200)"
    );
    assert!(got > 100, "but most still arrive");
}

/// Same seed, same everything → bit-identical statistics.
#[test]
fn runs_are_deterministic() {
    let run = || {
        let (topo, _a, _b) = topology::pair_via_switch();
        let ib = inbox();
        let hosts: Vec<Box<dyn HostAgent>> = vec![
            Box::new(StreamSender::new(NodeId(1), 2048, 150)),
            Box::new(Collector(ib.clone())),
        ];
        let proto = ProtocolConfig::default().with_error_rate(1.0 / 30.0);
        let mut c = ft_cluster(topo, ClusterConfig::default(), proto, hosts);
        c.engine
            .set_transient_faults(TransientFaults::loss(0.01), 99);
        c.run_until(Time::from_millis(500));
        let s = &c.nics[0].core.stats;
        let fingerprint = (
            ib.borrow().len(),
            s.retransmits.get(),
            s.acks_rx.get(),
            c.engine.stats().delivered,
            c.events_processed(),
            ib.borrow()
                .iter()
                .map(|p| p.stamps.host_seen.nanos())
                .sum::<u64>(),
        );
        fingerprint
    };
    assert_eq!(run(), run(), "identical seeds must give identical runs");
}

/// Reliable delivery across a three-switch path with loss *and* corruption
/// on the wire plus send-side injected drops — all three fault mechanisms
/// at once.
#[test]
fn triple_fault_gauntlet() {
    let (topo, a, b) = topology::chain(3);
    let ib = inbox();
    let n = 120u64;
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(StreamSender::new(b, 1024, n)),
        Box::new(Collector(ib.clone())),
    ];
    let _ = a;
    let proto = ProtocolConfig::default().with_error_rate(1.0 / 40.0);
    let mut c = ft_cluster(topo, ClusterConfig::default(), proto, hosts);
    c.engine.set_transient_faults(
        TransientFaults {
            loss_prob: 0.01,
            corrupt_prob: 0.01,
            burst: None,
        },
        1234,
    );
    let mut t = Time::from_millis(20);
    while (ib.borrow().len() as u64) < n && t < Time::from_secs(5) {
        c.run_until(t);
        t += Duration::from_millis(20);
    }
    let ids: Vec<u64> = ib.borrow().iter().map(|p| p.msg_id).collect();
    assert_eq!(
        ids,
        (0..n).collect::<Vec<_>>(),
        "exactly once, in order, all faults at once"
    );
    assert!(c.nics[0].core.stats.retransmits.get() > 0);
}

/// Many-to-one incast on a star: four senders hammer one receiver with
/// errors injected; everything arrives per sender in order.
#[test]
fn incast_with_errors() {
    let (topo, hosts_ids) = topology::star(5);
    let sink = hosts_ids[4];
    let per_sender = 60u64;
    let ib = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = (0..5)
        .map(|h| -> Box<dyn HostAgent> {
            if h < 4 {
                Box::new(StreamSender::new(sink, 2048, per_sender))
            } else {
                Box::new(Collector(ib.clone()))
            }
        })
        .collect();
    let proto = ProtocolConfig::default().with_error_rate(1.0 / 50.0);
    let mut c = ft_cluster(topo, ClusterConfig::default(), proto, hosts);
    let mut t = Time::from_millis(20);
    while (ib.borrow().len() as u64) < 4 * per_sender && t < Time::from_secs(5) {
        c.run_until(t);
        t += Duration::from_millis(20);
    }
    let ibb = ib.borrow();
    assert_eq!(ibb.len() as u64, 4 * per_sender);
    for s in 0..4u16 {
        let ids: Vec<u64> = ibb
            .iter()
            .filter(|p| p.src == NodeId(s))
            .map(|p| p.msg_id)
            .collect();
        assert_eq!(
            ids,
            (0..per_sender).collect::<Vec<_>>(),
            "sender {s} stream in order"
        );
    }
}

/// A switch dies on the Figure 2 testbed; the redundant fabric carries the
/// stream after on-demand re-mapping.
#[test]
fn switch_death_failover_on_testbed() {
    let tb = topology::paper_mapping_testbed(2);
    let n_hosts = tb.hosts.len();
    let (src, dst) = (tb.hosts[2], tb.hosts[3]); // on the two leaf switches
    let ib = inbox();
    let count = 150u64;
    let hosts: Vec<Box<dyn HostAgent>> = (0..n_hosts)
        .map(|h| -> Box<dyn HostAgent> {
            if h == src.idx() {
                Box::new(StreamSender::new(dst, 2048, count))
            } else if h == dst.idx() {
                Box::new(Collector(ib.clone()))
            } else {
                Box::new(san_nic::IdleHost)
            }
        })
        .collect();
    let proto = ProtocolConfig {
        perm_fail_threshold: Duration::from_millis(10),
        ..ProtocolConfig::default().with_mapping()
    };
    let mut c = ft_cluster(tb.topo, ClusterConfig::default(), proto, hosts);
    // The leaf-to-leaf shortest route goes through one core switch; kill
    // that entire switch mid-stream.
    let route = c.nics[src.idx()].core.routes.get(dst).unwrap();
    let first_hop = route.hop(0); // leaf2 port 6 → core0, port 7 → core1
    let victim = if first_hop == 6 {
        tb.switches[0]
    } else {
        tb.switches[1]
    };
    c.sim.schedule(
        Time::from_millis(2),
        FabricEvent::SwitchDown { switch: victim }.into(),
    );
    let mut t = Time::from_millis(20);
    while (ib
        .borrow()
        .iter()
        .map(|p| p.msg_id)
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64)
        < count
        && t < Time::from_secs(10)
    {
        c.run_until(t);
        t += Duration::from_millis(20);
    }
    let unique: std::collections::BTreeSet<u64> = ib.borrow().iter().map(|p| p.msg_id).collect();
    assert_eq!(
        unique.len() as u64,
        count,
        "stream must survive a switch death"
    );
    assert!(!c.engine.switch_alive(victim));
}

/// VMMC multi-segment messages (> 4 KB) reassemble correctly across
/// injected errors; payload bytes survive intact.
#[test]
fn vmmc_large_messages_with_errors() {
    use san_nic::timing::HOST_SEND_DMA;
    use san_nic::HostCtx;
    use san_vmmc::{ExportId, VmmcLib};

    struct BigSender {
        vmmc: VmmcLib,
        sent: bool,
    }
    impl HostAgent for BigSender {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            self.vmmc.export(1 << 20, None);
            ctx.wake_in(HOST_SEND_DMA, 0);
        }
        fn on_wake(&mut self, ctx: &mut HostCtx, _token: u64) {
            if !self.sent {
                self.sent = true;
                let to = VmmcLib::import(NodeId(1), ExportId(0), 1 << 20);
                // 64 KB of real, patterned data (17 segments).
                let data: Vec<u8> = (0..65536 + 123).map(|i| (i * 31 % 251) as u8).collect();
                self.vmmc.send(ctx, to, 512, bytes::Bytes::from(data));
            }
        }
        fn on_message(&mut self, _ctx: &mut HostCtx, _pkt: san_fabric::Packet) {}
        fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
    }

    type GotCell = std::rc::Rc<std::cell::RefCell<Option<(u32, Vec<u8>)>>>;

    struct BigReceiver {
        vmmc: VmmcLib,
        got: GotCell,
    }
    impl HostAgent for BigReceiver {
        fn on_start(&mut self, _ctx: &mut HostCtx) {
            self.vmmc.export(1 << 20, None);
        }
        fn on_wake(&mut self, _ctx: &mut HostCtx, _token: u64) {}
        fn on_message(&mut self, _ctx: &mut HostCtx, pkt: san_fabric::Packet) {
            if let Some(dm) = self.vmmc.on_packet(&pkt) {
                let data = self.vmmc.read_export(dm.export, dm.offset, dm.len).to_vec();
                *self.got.borrow_mut() = Some((dm.offset, data));
            }
        }
        fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
    }

    let (topo, _a, _b) = topology::pair_via_switch();
    let got = std::rc::Rc::new(std::cell::RefCell::new(None));
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(BigSender {
            vmmc: VmmcLib::new(NodeId(0)),
            sent: false,
        }),
        Box::new(BigReceiver {
            vmmc: VmmcLib::new(NodeId(1)),
            got: got.clone(),
        }),
    ];
    let proto = ProtocolConfig::default().with_error_rate(1.0 / 10.0); // brutal
    let mut c = ft_cluster(topo, ClusterConfig::default(), proto, hosts);
    c.run_until(Time::from_millis(200));
    let got = got.borrow();
    let (offset, data) = got.as_ref().expect("message must complete");
    assert_eq!(*offset, 512);
    assert_eq!(data.len(), 65536 + 123);
    for (i, &b) in data.iter().enumerate() {
        assert_eq!(b as usize, i * 31 % 251, "byte {i} corrupted");
    }
}
