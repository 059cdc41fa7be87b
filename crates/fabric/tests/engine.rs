//! Behavioural tests of the fabric traversal engine: timing, contention,
//! fault injection, deadlock and path reset.

use san_fabric::engine::{
    DropReason, Engine, EngineConfig, FabricEvent, FabricOut, HOP_LATENCY, LINK_BANDWIDTH,
};
use san_fabric::ids::{Endpoint, NodeId, PortId, SwitchId};
use san_fabric::packet::{Packet, PacketKind};
use san_fabric::route::{Route, MAX_HOPS};
use san_fabric::topology::{self, Topology};
use san_fabric::TransientFaults;
use san_sim::{Duration, Sim, Time};

type TSim = Sim<FabricEvent>;

fn drain(engine: &mut Engine, sim: &mut TSim) -> Vec<(Time, FabricOut)> {
    let mut outs = Vec::new();
    while let Some((t, ev)) = sim.pop() {
        let mut o = Vec::new();
        engine.handle(sim, ev, &mut o);
        outs.extend(o.into_iter().map(|x| (t, x)));
    }
    outs
}

fn raw_packet(src: NodeId, dst: NodeId, route: Route, len: u32) -> Packet {
    let mut p = Packet::new(src, dst, PacketKind::Raw).with_logical_len(len);
    p.route = route;
    p
}

#[test]
fn small_packet_delivery_timing() {
    let (t, a, b) = topology::pair_via_switch();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let pkt = raw_packet(a, b, Route::from_ports(&[1]), 4);
    let mut o = Vec::new();
    engine.inject(&mut sim, pkt, &mut o);
    assert!(o.is_empty());
    let outs = drain(&mut engine, &mut sim);
    let (t_del, out) = &outs[0];
    match out {
        FabricOut::Delivered { node, pkt } => {
            assert_eq!(*node, b);
            // Two channel hops at 300 ns each dominate the tiny payload.
            assert_eq!(*t_del, Time::from_nanos(600));
            // Reverse route: host a sits on switch port 0.
            assert_eq!(pkt.reverse_route.ports(), &[0]);
        }
        other => panic!("expected delivery, got {other:?}"),
    }
    assert_eq!(engine.stats().delivered, 1);
    assert_eq!(engine.in_flight(), 0);
}

#[test]
fn large_packet_pays_serialization() {
    let (t, a, b) = topology::pair_via_switch();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let pkt = raw_packet(a, b, Route::from_ports(&[1]), 4096);
    let wire = pkt.wire_bytes() as u64;
    let mut o = Vec::new();
    engine.inject(&mut sim, pkt, &mut o);
    let outs = drain(&mut engine, &mut sim);
    let expect = Duration::for_bytes(wire, LINK_BANDWIDTH);
    match &outs[0] {
        (t_del, FabricOut::Delivered { .. }) => {
            assert_eq!(
                *t_del,
                Time::ZERO + expect,
                "tail arrival = serialization time"
            );
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn contention_serializes_on_shared_channel() {
    let (t, a, b) = topology::pair_via_switch();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    for i in 0..3 {
        let mut pkt = raw_packet(a, b, Route::from_ports(&[1]), 4096);
        pkt.msg_id = i;
        engine.inject(&mut sim, pkt, &mut o);
    }
    let outs = drain(&mut engine, &mut sim);
    let deliveries: Vec<(Time, u64)> = outs
        .iter()
        .filter_map(|(t, o)| match o {
            FabricOut::Delivered { pkt, .. } => Some((*t, pkt.msg_id)),
            _ => None,
        })
        .collect();
    assert_eq!(deliveries.len(), 3);
    // In injection order...
    assert_eq!(
        deliveries.iter().map(|d| d.1).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    // ...and spaced by at least a serialization time each (they share the
    // source's outgoing channel).
    let ser = Duration::for_bytes(4096, LINK_BANDWIDTH);
    assert!(deliveries[1].0.since(deliveries[0].0) >= ser);
    assert!(deliveries[2].0.since(deliveries[1].0) >= ser);
}

#[test]
fn wire_loss_drops_silently() {
    let (t, a, b) = topology::pair_via_switch();
    let mut engine = Engine::new(t, EngineConfig::default());
    engine.set_transient_faults(TransientFaults::loss(1.0), 7);
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    engine.inject(
        &mut sim,
        raw_packet(a, b, Route::from_ports(&[1]), 64),
        &mut o,
    );
    let outs = drain(&mut engine, &mut sim);
    assert!(outs.iter().any(|(_, o)| matches!(
        o,
        FabricOut::Dropped {
            reason: DropReason::WireLoss,
            ..
        }
    )));
    assert_eq!(engine.stats().delivered, 0);
    assert_eq!(engine.stats().dropped_total(), 1);
}

#[test]
fn wire_corruption_fails_crc_at_receiver() {
    let (t, a, b) = topology::pair_via_switch();
    let mut engine = Engine::new(t, EngineConfig::default());
    engine.set_transient_faults(TransientFaults::corruption(1.0), 7);
    let mut sim = TSim::new(1);
    let mut pkt = raw_packet(a, b, Route::from_ports(&[1]), 0);
    pkt.seal();
    assert!(pkt.crc_ok());
    let mut o = Vec::new();
    engine.inject(&mut sim, pkt, &mut o);
    let outs = drain(&mut engine, &mut sim);
    match &outs[0].1 {
        FabricOut::Delivered { pkt, .. } => assert!(!pkt.crc_ok(), "corruption must fail CRC"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn unwired_port_drops_invalid_route() {
    let (t, a, b) = topology::pair_via_switch();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    engine.inject(
        &mut sim,
        raw_packet(a, b, Route::from_ports(&[6]), 16),
        &mut o,
    );
    let outs = drain(&mut engine, &mut sim);
    assert!(matches!(
        outs[0].1,
        FabricOut::Dropped {
            reason: DropReason::InvalidRoute,
            ..
        }
    ));
}

#[test]
fn route_exhausted_at_switch_is_absorbed() {
    let (t, a, b) = topology::pair_via_switch();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    engine.inject(&mut sim, raw_packet(a, b, Route::empty(), 16), &mut o);
    let outs = drain(&mut engine, &mut sim);
    assert!(matches!(
        outs[0].1,
        FabricOut::Dropped {
            reason: DropReason::Absorbed,
            ..
        }
    ));
}

#[test]
fn route_past_host_is_invalid() {
    let (t, a, b) = topology::pair_via_switch();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    engine.inject(
        &mut sim,
        raw_packet(a, b, Route::from_ports(&[1, 0]), 16),
        &mut o,
    );
    let outs = drain(&mut engine, &mut sim);
    assert!(matches!(
        outs[0].1,
        FabricOut::Dropped {
            reason: DropReason::InvalidRoute,
            ..
        }
    ));
}

#[test]
fn link_death_kills_in_flight_and_blocks_future() {
    let (t, a, b) = topology::pair_via_switch();
    let b_link = t.link_at(Endpoint::Host(b)).unwrap();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    // A long packet that will still be on the wire when the link dies.
    engine.inject(
        &mut sim,
        raw_packet(a, b, Route::from_ports(&[1]), 1_000_000),
        &mut o,
    );
    sim.schedule(
        Time::from_micros(100),
        FabricEvent::LinkDown { link: b_link },
    );
    let outs = drain(&mut engine, &mut sim);
    assert!(outs.iter().any(|(_, o)| matches!(
        o,
        FabricOut::Dropped {
            reason: DropReason::KilledByFault,
            ..
        }
    )));
    assert!(!engine.link_alive(b_link));
    // A new injection dies at acquisition of the dead channel.
    let mut o = Vec::new();
    engine.inject(
        &mut sim,
        raw_packet(a, b, Route::from_ports(&[1]), 64),
        &mut o,
    );
    let outs = drain(&mut engine, &mut sim);
    assert!(outs.iter().any(|(_, o)| matches!(
        o,
        FabricOut::Dropped {
            reason: DropReason::DeadLink,
            ..
        }
    )));
}

#[test]
fn switch_death_stops_traffic() {
    let (t, a, b) = topology::pair_via_switch();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    engine.kill_switch(&mut sim, SwitchId(0), &mut o);
    assert!(!engine.switch_alive(SwitchId(0)));
    engine.inject(
        &mut sim,
        raw_packet(a, b, Route::from_ports(&[1]), 64),
        &mut o,
    );
    let outs = drain(&mut engine, &mut sim);
    // The host link channels died with the switch, so the drop happens
    // synchronously at injection (dead first channel).
    assert!(o
        .iter()
        .chain(outs.iter().map(|(_, o)| o))
        .any(|o| matches!(o, FabricOut::Dropped { .. })));
    assert_eq!(engine.stats().delivered, 0);
}

#[test]
fn link_revival_restores_traffic() {
    let (t, a, b) = topology::pair_via_switch();
    let b_link = t.link_at(Endpoint::Host(b)).unwrap();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    engine.set_link_alive(&mut sim, b_link, false, &mut o);
    engine.set_link_alive(&mut sim, b_link, true, &mut o);
    engine.inject(
        &mut sim,
        raw_packet(a, b, Route::from_ports(&[1]), 64),
        &mut o,
    );
    let outs = drain(&mut engine, &mut sim);
    assert!(outs
        .iter()
        .any(|(_, o)| matches!(o, FabricOut::Delivered { .. })));
}

/// Only the oldest path-reset check is armed at a time, yet each pops at
/// the `(time, seq)` it took at injection: the three checks of flights
/// injected at t = 0 all pop before an event scheduled after them for the
/// same instant.
#[test]
fn reset_checks_keep_injection_order_among_ties() {
    let mut t = Topology::new();
    let hs: Vec<NodeId> = (0..3).map(|_| t.add_host()).collect();
    let ss: Vec<SwitchId> = (0..3).map(|_| t.add_switch(4)).collect();
    for i in 0..3 {
        t.connect_host(hs[i], ss[i], 0);
        t.connect_switches(ss[i], 1, ss[(i + 1) % 3], 2);
    }
    let cfg = EngineConfig {
        path_reset_timeout: Duration::from_millis(1),
    };
    let mut engine = Engine::new(t, cfg);
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    for i in 0..3 {
        let dst = hs[(i + 2) % 3];
        engine.inject(
            &mut sim,
            raw_packet(hs[i], dst, Route::from_ports(&[1, 1, 0]), 65536),
            &mut o,
        );
    }
    let deadline = Time::from_millis(1);
    sim.schedule(deadline, FabricEvent::Reconfigured);
    let mut at_deadline = Vec::new();
    while let Some((t, ev)) = sim.pop() {
        if t == deadline {
            at_deadline.push(matches!(ev, FabricEvent::ResetCheck));
        }
        engine.handle(&mut sim, ev, &mut o);
    }
    assert_eq!(at_deadline, [true, true, true, false]);
    assert_eq!(engine.stats().path_resets, 3);
}

/// Three hosts on a 3-switch ring all routing "the long way" produce a
/// genuine channel-dependency deadlock; the path-reset timer must fire and
/// kill all three flights, reporting resets to the senders.
#[test]
fn ring_deadlock_recovers_via_path_reset() {
    let mut t = Topology::new();
    let hs: Vec<NodeId> = (0..3).map(|_| t.add_host()).collect();
    let ss: Vec<SwitchId> = (0..3).map(|_| t.add_switch(4)).collect();
    for i in 0..3 {
        t.connect_host(hs[i], ss[i], 0);
        t.connect_switches(ss[i], 1, ss[(i + 1) % 3], 2);
    }
    let cfg = EngineConfig {
        path_reset_timeout: Duration::from_millis(1),
    };
    let mut engine = Engine::new(t, cfg);
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    for i in 0..3 {
        // Big enough that the worm still occupies its first inter-switch
        // channel when it blocks on the next one.
        let dst = hs[(i + 2) % 3];
        engine.inject(
            &mut sim,
            raw_packet(hs[i], dst, Route::from_ports(&[1, 1, 0]), 65536),
            &mut o,
        );
    }
    let outs = drain(&mut engine, &mut sim);
    let resets: Vec<&FabricOut> = outs
        .iter()
        .map(|(_, o)| o)
        .filter(|o| matches!(o, FabricOut::PathReset { .. }))
        .collect();
    assert_eq!(
        resets.len(),
        3,
        "all three flights deadlock and reset: {outs:?}"
    );
    assert_eq!(engine.stats().path_resets, 3);
    assert_eq!(engine.in_flight(), 0);
    // After recovery the channels are free again: a fresh minimal-route
    // packet goes through.
    let mut o = Vec::new();
    engine.inject(
        &mut sim,
        raw_packet(hs[0], hs[1], Route::from_ports(&[1, 0]), 64),
        &mut o,
    );
    let outs = drain(&mut engine, &mut sim);
    assert!(outs
        .iter()
        .any(|(_, o)| matches!(o, FabricOut::Delivered { .. })));
}

#[test]
fn reverse_route_traces_back_in_chain() {
    let (t, a, b) = topology::chain(3);
    let fwd = t.shortest_route(a, b, |_| true).unwrap();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    engine.inject(&mut sim, raw_packet(a, b, fwd, 64), &mut o);
    let outs = drain(&mut engine, &mut sim);
    let rev = match &outs[0].1 {
        FabricOut::Delivered { pkt, .. } => pkt.reverse_route,
        other => panic!("{other:?}"),
    };
    // The reverse route must reach `a` when traced from `b`.
    assert_eq!(
        engine.topology().trace_route(b, &rev, |_| true),
        Some(Endpoint::Host(a))
    );
    // And actually deliver when injected.
    let mut o = Vec::new();
    engine.inject(&mut sim, raw_packet(b, a, rev, 64), &mut o);
    let outs = drain(&mut engine, &mut sim);
    assert!(matches!(&outs[0].1, FabricOut::Delivered { node, .. } if *node == a));
}

/// A route of the full `MAX_HOPS` bytes crosses 16 switches: the flight
/// holds 17 channels and records 16 input ports, all inline.
#[test]
fn max_hop_route_delivers_with_a_full_reverse_route() {
    let (t, a, b) = topology::chain(MAX_HOPS);
    let fwd = t.shortest_route(a, b, |_| true).unwrap();
    assert_eq!(fwd.len(), MAX_HOPS);
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    engine.inject(&mut sim, raw_packet(a, b, fwd, 64), &mut o);
    let outs = drain(&mut engine, &mut sim);
    let rev = match &outs[..] {
        [(_, FabricOut::Delivered { node, pkt })] if *node == b => pkt.reverse_route,
        other => panic!("{other:?}"),
    };
    assert_eq!(rev.len(), MAX_HOPS);
    assert_eq!(
        engine.topology().trace_route(b, &rev, |_| true),
        Some(Endpoint::Host(a))
    );
    assert_eq!(engine.in_flight(), 0);
}

/// One switch more than the route covers: the head enters a 17th switch
/// with no route byte left, records its 17th input port and is absorbed
/// there, holding 17 channels — the most a flight can.
#[test]
fn route_exhausted_at_the_17th_switch_is_absorbed() {
    let (t, a, b) = topology::chain(MAX_HOPS + 1);
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    let route = Route::from_ports(&[1; MAX_HOPS]);
    engine.inject(&mut sim, raw_packet(a, b, route, 64), &mut o);
    let outs = drain(&mut engine, &mut sim);
    match &outs[..] {
        [(
            at,
            FabricOut::Dropped {
                reason: DropReason::Absorbed,
                ..
            },
        )] => assert_eq!(*at, Time::ZERO + HOP_LATENCY * (MAX_HOPS as u64 + 1)),
        other => panic!("{other:?}"),
    }
    assert_eq!(engine.in_flight(), 0);
}

/// A link dying under a flight that holds 17 channels frees every one of
/// them: the flight waiting behind it on the injection channel is granted
/// and crosses the whole chain once the link is back.
#[test]
fn link_death_under_a_17_channel_flight_releases_all_of_them() {
    let (t, a, b) = topology::chain(MAX_HOPS);
    let fwd = t.shortest_route(a, b, |_| true).unwrap();
    let mid = t
        .link_at(Endpoint::Switch(SwitchId(MAX_HOPS as u16 / 2), PortId(1)))
        .unwrap();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    // Flight 1 reaches b within 17 hops and then streams for ~6 ms.
    let mut big = raw_packet(a, b, fwd, 1_000_000);
    big.msg_id = 1;
    engine.inject(&mut sim, big, &mut o);
    let mut small = raw_packet(a, b, fwd, 64);
    small.msg_id = 2;
    engine.inject(&mut sim, small, &mut o);
    assert_eq!(engine.in_flight(), 2);
    let cut = Time::from_micros(100);
    sim.schedule(cut, FabricEvent::LinkDown { link: mid });
    sim.schedule(cut, FabricEvent::LinkUp { link: mid });
    let outs = drain(&mut engine, &mut sim);
    let fates: Vec<(Time, u64, bool)> = outs
        .iter()
        .map(|(at, o)| match o {
            FabricOut::Delivered { pkt, .. } => (*at, pkt.msg_id, true),
            FabricOut::Dropped {
                pkt,
                reason: DropReason::KilledByFault,
            } => (*at, pkt.msg_id, false),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(fates.len(), 2, "{fates:?}");
    assert_eq!(fates[0], (cut, 1, false));
    assert_eq!((fates[1].1, fates[1].2), (2, true));
    assert!(fates[1].0 > cut);
    assert_eq!(engine.in_flight(), 0);
}

#[test]
fn full_duplex_channels_do_not_collide() {
    // Simultaneous opposite-direction traffic on the same link must not
    // contend: channels are directional.
    let (t, a, b) = topology::pair_via_switch();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    engine.inject(
        &mut sim,
        raw_packet(a, b, Route::from_ports(&[1]), 4096),
        &mut o,
    );
    engine.inject(
        &mut sim,
        raw_packet(b, a, Route::from_ports(&[0]), 4096),
        &mut o,
    );
    let outs = drain(&mut engine, &mut sim);
    let times: Vec<Time> = outs
        .iter()
        .filter_map(|(t, o)| matches!(o, FabricOut::Delivered { .. }).then_some(*t))
        .collect();
    assert_eq!(times.len(), 2);
    assert_eq!(
        times[0], times[1],
        "full duplex: both directions proceed in parallel"
    );
}

#[test]
fn waiting_flight_killed_by_fault_is_removed_from_queue() {
    // Flight 1 occupies the switch->b channel; flight 2 waits on it; the a
    // side link then dies killing flight 2 (it holds a->switch). Flight 1
    // must still deliver and the wait queue must not dangle.
    let mut t = Topology::new();
    let a = t.add_host();
    let b = t.add_host();
    let c = t.add_host();
    let s = t.add_switch(4);
    t.connect_host(a, s, 0);
    t.connect_host(b, s, 1);
    t.connect_host(c, s, 2);
    let a_link = t.link_at(Endpoint::Host(a)).unwrap();
    let mut engine = Engine::new(t, EngineConfig::default());
    let mut sim = TSim::new(1);
    let mut o = Vec::new();
    // c -> b big packet grabs the s->b channel.
    engine.inject(
        &mut sim,
        raw_packet(c, b, Route::from_ports(&[1]), 1_000_000),
        &mut o,
    );
    // a -> b will wait behind it.
    engine.inject(
        &mut sim,
        raw_packet(a, b, Route::from_ports(&[1]), 4096),
        &mut o,
    );
    // Kill a's link while a->b is waiting.
    sim.schedule(
        Time::from_micros(50),
        FabricEvent::LinkDown { link: a_link },
    );
    let outs = drain(&mut engine, &mut sim);
    let delivered: Vec<NodeId> = outs
        .iter()
        .filter_map(|(_, o)| match o {
            FabricOut::Delivered { pkt, .. } => Some(pkt.src),
            _ => None,
        })
        .collect();
    assert_eq!(delivered, vec![c], "only the c->b packet survives");
    assert!(outs.iter().any(|(_, o)| matches!(
        o,
        FabricOut::Dropped {
            reason: DropReason::KilledByFault,
            ..
        }
    )));
    assert_eq!(engine.in_flight(), 0);
}

/// Bursty loss produces clustered drops with the configured average rate:
/// the same mean as independent loss, but far fewer distinct loss episodes.
#[test]
fn bursty_losses_cluster() {
    use san_fabric::fault::TransientFaults;
    let run = |faults: TransientFaults| -> Vec<bool> {
        let (t, a, b) = topology::pair_via_switch();
        let mut engine = Engine::new(t, EngineConfig::default());
        engine.set_transient_faults(faults, 42);
        let mut sim = TSim::new(1);
        let mut lost = Vec::new();
        for i in 0..4000u64 {
            let mut o = Vec::new();
            let mut pkt = raw_packet(a, b, Route::from_ports(&[1]), 16);
            pkt.msg_id = i;
            engine.inject(&mut sim, pkt, &mut o);
            let outs = drain(&mut engine, &mut sim);
            let dropped = outs
                .iter()
                .map(|(_, w)| w)
                .chain(o.iter())
                .any(|w| matches!(w, FabricOut::Dropped { .. }));
            lost.push(dropped);
        }
        lost
    };
    let independent = run(TransientFaults::loss(0.02));
    let bursty = run(TransientFaults::bursty_loss(0.02, 8.0));
    let rate = |l: &[bool]| l.iter().filter(|&&x| x).count() as f64 / l.len() as f64;
    // Comparable average rates...
    assert!(
        (rate(&independent) - 0.02).abs() < 0.01,
        "{}",
        rate(&independent)
    );
    assert!((rate(&bursty) - 0.02).abs() < 0.015, "{}", rate(&bursty));
    // ...but far fewer distinct episodes in the bursty channel.
    let episodes = |l: &[bool]| l.windows(2).filter(|w| !w[0] && w[1]).count();
    assert!(
        episodes(&bursty) * 3 < episodes(&independent),
        "bursts cluster: {} vs {} episodes",
        episodes(&bursty),
        episodes(&independent)
    );
}
