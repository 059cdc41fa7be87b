//! The sim↔model bridge: the simulator firmware and the pure
//! [`ProtocolStep`] model are two drivers of the *same* kernel, so for a
//! deterministic scenario their observable behavior must be
//! byte-identical.
//!
//! Property: for any message count, pool size, ACK-request interval and
//! error-injector interval, a one-way stream over a 2-host chain
//! produces — in the simulator and in the model —
//!
//! * the identical deposit sequence (host-visible message ids, in
//!   delivery order), and
//! * the identical error-injector suppression sequence (which sequence
//!   numbers the §5.1.3 injector ate, in order),
//!
//! compared as encoded byte strings. Timing differs (the sim has real
//! latencies and timers; the model's schedule is phase-structured), but
//! first-transmission order is admission order in both, and go-back-N
//! delivers in sequence order — so these observables are
//! timing-invariant. `FeedbackPolicy::EveryK` keeps the ACK-request
//! pattern free of pool-pressure timing (`SenderFeedback` couples to
//! batch-admission timing and would be a false diff).

use proptest::prelude::*;
use san_fabric::topology;
use san_ft::step::{
    FaultKnobs, ModelPacket, NodeAction, NodeEvent, NodeModel, NodeState, ProtocolStep,
};
use san_ft::{FeedbackPolicy, ProtocolConfig, ReliableFirmware, MAX_MAP_ATTEMPTS};
use san_nic::testkit::{inbox, Collector, StreamSender};
use san_nic::{Cluster, ClusterConfig, Firmware, HostAgent};
use san_sim::{Duration, Time};
use san_telemetry::{Layer, Telemetry, TraceKind};
use std::collections::VecDeque;

/// Observables of one run: deposit msg_ids in order and injector-
/// suppressed seqs in order (both as byte strings), plus the final
/// protocol positions — sender `next_seq`/generation and receiver
/// `expected` — which any divergence in assignment or acceptance logic
/// would shift.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    deposits: Vec<u8>,
    drops: Vec<u8>,
    end_next_seq: u32,
    end_generation: u16,
    end_expected: u32,
}

fn run_sim(msgs: u64, pool: u16, every_k: u32, drop_interval: Option<u64>) -> Observed {
    let (topo, a, b) = topology::chain(1);
    let telemetry = Telemetry::with_trace(8192);
    let ib = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(StreamSender::new(b, 64, msgs)),
        Box::new(Collector(ib.clone())),
    ];
    let proto = ProtocolConfig {
        feedback: FeedbackPolicy::EveryK(every_k),
        drop_interval,
        ..ProtocolConfig::default()
    };
    let mut c = Cluster::new(
        topo,
        ClusterConfig {
            send_bufs: pool,
            telemetry: telemetry.clone(),
            ..ClusterConfig::default()
        },
        move |_| -> Box<dyn Firmware> {
            Box::new(ReliableFirmware::new(proto.clone(), Default::default(), 2))
        },
        hosts,
    );
    c.install_shortest_routes();
    let mut t = Time::from_millis(1);
    let deadline = Time::from_secs(10);
    while (ib.borrow().len() as u64) < msgs && t < deadline {
        c.run_until(t);
        t += Duration::from_millis(1);
    }
    assert_eq!(
        ib.borrow().len() as u64,
        msgs,
        "sim must deliver everything"
    );

    let mut deposits = Vec::new();
    for pkt in ib.borrow().iter() {
        deposits.extend_from_slice(&pkt.msg_id.to_le_bytes());
    }
    let scan = telemetry.scan();
    let mut drops = Vec::new();
    for e in scan.events() {
        if e.layer == Layer::Ft && e.kind == TraceKind::PacketDropped && e.node == a.0 {
            drops.extend_from_slice(&e.seq.to_le_bytes());
        }
    }
    let fw = c.nics[a.0 as usize]
        .fw
        .as_any()
        .downcast_ref::<ReliableFirmware>()
        .unwrap();
    let rx = c.nics[b.0 as usize]
        .fw
        .as_any()
        .downcast_ref::<ReliableFirmware>()
        .unwrap();
    Observed {
        deposits,
        drops,
        end_next_seq: fw.sender(b).next_seq,
        end_generation: fw.sender(b).generation,
        end_expected: rx.receiver(a).expected,
    }
}

fn run_model(msgs: u64, pool: u16, every_k: u32, drop_interval: Option<u64>) -> Observed {
    let mk = |me: usize| NodeModel {
        me,
        n_nodes: 2,
        pool_capacity: pool,
        feedback: FeedbackPolicy::EveryK(every_k),
        receiver_ack_every: 16, // ProtocolConfig::default()
        drop_interval,
        max_map_attempts: MAX_MAP_ATTEMPTS,
        knobs: FaultKnobs::default(),
    };
    let (ma, mb) = (mk(0), mk(1));
    let mut sa = ma.initial_state(0, 0);
    let mut sb = mb.initial_state(0, 0);
    let mut wire: VecDeque<ModelPacket> = VecDeque::new();
    let mut acks: VecDeque<(u32, u16)> = VecDeque::new();
    let mut deposits = Vec::new();
    let mut drops = Vec::new();

    // Step one model in place and route the actions into the
    // channels/observation log.
    let mut step = |m: &NodeModel,
                    st: &mut NodeState,
                    ev: NodeEvent,
                    wire: &mut VecDeque<ModelPacket>,
                    acks: &mut VecDeque<(u32, u16)>| {
        let mut actions = Vec::new();
        m.step(st, &ev, &mut actions);
        for act in actions {
            match act {
                NodeAction::Transmit { pkt, .. } => wire.push_back(pkt),
                NodeAction::InjectorDrop { seq, .. } => {
                    drops.extend_from_slice(&seq.to_le_bytes());
                }
                NodeAction::Deposit { payload, .. } => {
                    deposits.extend_from_slice(&payload.to_le_bytes());
                }
                NodeAction::AckTx {
                    ack_seq, ack_gen, ..
                } => acks.push_back((ack_seq, ack_gen)),
                _ => {}
            }
        }
    };

    // Phase 1: the host posts everything up front (StreamSender does).
    for payload in 0..msgs {
        let ev = NodeEvent::PostSend { dst: 1, payload };
        step(&ma, &mut sa, ev, &mut wire, &mut acks);
    }
    // Phase 2: rounds of deliver-everything / ack-everything / scan-tick
    // until the stream completes and drains — the model analogue of the
    // sim's flow of wire deliveries punctuated by timer fires.
    for _round in 0..(10 * msgs + 100) {
        let done = sa.completed[1] == msgs
            && sa.senders[1].retrans_q.is_empty()
            && wire.is_empty()
            && acks.is_empty();
        if done {
            break;
        }
        while let Some(pkt) = wire.pop_front() {
            let ev = NodeEvent::RxData { src: 0, pkt };
            step(&mb, &mut sb, ev, &mut wire, &mut acks);
        }
        while let Some((ack_seq, ack_gen)) = acks.pop_front() {
            let ev = NodeEvent::RxAck {
                src: 1,
                ack_seq,
                ack_gen,
            };
            step(&ma, &mut sa, ev, &mut wire, &mut acks);
        }
        if !sa.senders[1].retrans_q.is_empty() && wire.is_empty() && acks.is_empty() {
            let ev = NodeEvent::ScanTick { dst: 1 };
            step(&ma, &mut sa, ev, &mut wire, &mut acks);
        }
    }
    assert_eq!(sa.completed[1], msgs, "model must complete the stream");
    Observed {
        deposits,
        drops,
        end_next_seq: sa.senders[1].next_seq,
        end_generation: sa.senders[1].generation,
        end_expected: sb.receivers[0].expected,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lockstep: same kernel, two drivers, identical observables.
    #[test]
    fn sim_and_model_agree_on_observables(
        msgs in 1u64..12,
        pool in 2u16..9,
        every_k in 1u32..5,
        drop_raw in 0u64..7,
    ) {
        // 0 and 1 mean "injector off"; 2..7 are live intervals.
        let drop = (drop_raw >= 2).then_some(drop_raw);
        let sim = run_sim(msgs, pool, every_k, drop);
        let model = run_model(msgs, pool, every_k, drop);
        prop_assert_eq!(&sim, &model, "sim and model observables diverged");
    }
}

/// The deterministic worst case pinned outside proptest: every first
/// transmission suppressed (`drop_interval = 1`) forces delivery to run
/// entirely on go-back-N replays, in both drivers.
#[test]
fn all_first_transmissions_dropped_still_agrees() {
    let sim = run_sim(5, 2, 2, Some(1));
    let model = run_model(5, 2, 2, Some(1));
    assert_eq!(sim.drops.len(), 5 * 4, "all five first transmissions eaten");
    assert_eq!(sim, model);
}
