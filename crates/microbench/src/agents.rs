//! Host agents for the microbenchmarks, built on the VMMC library so that
//! multi-segment messages, exports and imports are exercised end to end.

use std::cell::RefCell;
use std::rc::Rc;

use san_fabric::{NodeId, Packet};
use san_nic::timing::host_send;
use san_nic::{HostAgent, HostCtx};
use san_sim::Time;
use san_vmmc::{DeliveredMsg, ExportId, VmmcLib};

/// Results shared with the driver.
#[derive(Debug, Default)]
pub struct BenchState {
    /// Completed round/message timestamps (start, end).
    pub samples: Vec<(Time, Time)>,
    /// Message-level completions seen by the sink.
    pub received: Vec<DeliveredMsg>,
    /// Total payload bytes completed at the sink.
    pub bytes: u64,
    /// The run is over.
    pub done: bool,
}

/// Shared handle.
pub type StateRef = Rc<RefCell<BenchState>>;

/// Make an empty shared state.
pub fn state() -> StateRef {
    Rc::new(RefCell::new(BenchState::default()))
}

const EXPORT_SIZE: u32 = 2 * 1024 * 1024;

/// Ping-pong initiator: sends a message of `bytes`, waits for the echo,
/// repeats `rounds` times, recording per-round (start, end).
pub struct Pinger {
    /// Peer node.
    pub peer: NodeId,
    /// Message size.
    pub bytes: u32,
    /// Rounds to run.
    pub rounds: u32,
    round: u32,
    started: Time,
    vmmc: VmmcLib,
    state: StateRef,
}

impl Pinger {
    /// Build a pinger publishing into `state`.
    pub fn new(peer: NodeId, bytes: u32, rounds: u32, state: StateRef) -> Self {
        Self {
            peer,
            bytes,
            rounds,
            round: 0,
            started: Time::ZERO,
            vmmc: VmmcLib::new(NodeId(0)),
            state,
        }
    }

    fn fire(&mut self, ctx: &mut HostCtx) {
        self.started = ctx.now();
        let to = VmmcLib::import(self.peer, ExportId(0), EXPORT_SIZE);
        self.vmmc.send_logical(ctx, to, 0, self.bytes);
    }
}

impl HostAgent for Pinger {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.vmmc.export(EXPORT_SIZE, None);
        ctx.wake_in(host_send(self.bytes), 0);
    }
    fn on_wake(&mut self, ctx: &mut HostCtx, _token: u64) {
        self.fire(ctx);
    }
    fn on_message(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        if self.vmmc.on_packet(&pkt).is_some() {
            // Echo completed: round over.
            self.state
                .borrow_mut()
                .samples
                .push((self.started, ctx.now()));
            self.round += 1;
            if self.round < self.rounds {
                ctx.wake_in(host_send(self.bytes), 0);
            } else {
                self.state.borrow_mut().done = true;
            }
        }
    }
    fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
}

/// Ping-pong responder: echoes every completed message back.
pub struct Echoer {
    /// Peer node.
    pub peer: NodeId,
    vmmc: VmmcLib,
}

impl Echoer {
    /// Build an echoer on `me` replying to `peer`.
    pub fn new(me: NodeId, peer: NodeId) -> Self {
        Self {
            peer,
            vmmc: VmmcLib::new(me),
        }
    }
}

impl HostAgent for Echoer {
    fn on_start(&mut self, _ctx: &mut HostCtx) {
        self.vmmc.export(EXPORT_SIZE, None);
    }
    fn on_wake(&mut self, _ctx: &mut HostCtx, _token: u64) {}
    fn on_message(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        if let Some(dm) = self.vmmc.on_packet(&pkt) {
            let to = VmmcLib::import(self.peer, ExportId(0), EXPORT_SIZE);
            self.vmmc.send_logical(ctx, to, 0, dm.len);
        }
    }
    fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
}

/// Unidirectional streamer: posts `count` messages of `bytes` each as fast
/// as the NIC accepts descriptors.
pub struct UniSource {
    /// Peer node.
    pub peer: NodeId,
    /// Per-message size.
    pub bytes: u32,
    /// Messages to send.
    pub count: u64,
    sent: u64,
    vmmc: VmmcLib,
}

impl UniSource {
    /// Build a source.
    pub fn new(peer: NodeId, bytes: u32, count: u64) -> Self {
        Self {
            peer,
            bytes,
            count,
            sent: 0,
            vmmc: VmmcLib::new(NodeId(0)),
        }
    }
}

impl HostAgent for UniSource {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.vmmc.export(EXPORT_SIZE, None);
        ctx.wake_in(host_send(self.bytes), 0);
    }
    fn on_wake(&mut self, ctx: &mut HostCtx, _token: u64) {
        let to = VmmcLib::import(self.peer, ExportId(0), EXPORT_SIZE);
        while self.sent < self.count {
            self.vmmc.send_logical(ctx, to, 0, self.bytes);
            self.sent += 1;
        }
    }
    fn on_message(&mut self, _ctx: &mut HostCtx, _pkt: Packet) {}
    fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
}

/// Message sink: counts completed messages and records stamps.
pub struct Sink {
    vmmc: VmmcLib,
    state: StateRef,
    expect: u64,
}

impl Sink {
    /// Build a sink expecting `expect` messages.
    pub fn new(me: NodeId, expect: u64, state: StateRef) -> Self {
        Self {
            vmmc: VmmcLib::new(me),
            state,
            expect,
        }
    }
}

impl HostAgent for Sink {
    fn on_start(&mut self, _ctx: &mut HostCtx) {
        self.vmmc.export(EXPORT_SIZE, None);
    }
    fn on_wake(&mut self, _ctx: &mut HostCtx, _token: u64) {}
    fn on_message(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        if let Some(dm) = self.vmmc.on_packet(&pkt) {
            let mut st = self.state.borrow_mut();
            st.bytes += dm.len as u64;
            st.samples.push((dm.completed_at, ctx.now()));
            st.received.push(dm);
            if st.received.len() as u64 >= self.expect {
                st.done = true;
            }
        }
    }
    fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
}
