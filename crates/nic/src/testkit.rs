//! Reusable simple host agents for tests, examples and harnesses.
//!
//! These model the two ends of the paper's microbenchmarks at the *host
//! agent* level: a streaming sender that posts descriptors as fast as the
//! NIC accepts them, and a collector that records everything deposited into
//! host memory. Richer traffic (ping-pong, application phases) lives in
//! `san-microbench` and `san-svm`.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use san_fabric::{NodeId, Packet, PacketFlags};
use san_sim::Time;

use crate::cluster::{HostAgent, HostCtx};
use crate::nic::SendDesc;
use crate::timing::{host_send, vmmc_consts::PIO_LIMIT};

/// Shared inbox of deposited packets.
pub type Inbox = Rc<RefCell<Vec<Packet>>>;

/// Make an empty shared inbox.
pub fn inbox() -> Inbox {
    Rc::new(RefCell::new(Vec::new()))
}

/// Build a one-packet send descriptor (PIO for ≤32 B, DMA otherwise).
/// Payload bytes are materialized only for small messages; bulk traffic is
/// timed by logical length.
pub fn make_desc(dst: NodeId, bytes: u32, msg_id: u64, posted_at: Time) -> SendDesc {
    let mut flags = PacketFlags::default();
    flags.set(PacketFlags::FIRST_SEG);
    flags.set(PacketFlags::LAST_SEG);
    SendDesc {
        dst,
        payload: if bytes <= 64 {
            Bytes::from(vec![0xA5u8; bytes as usize])
        } else {
            Bytes::new()
        },
        logical_len: bytes,
        pio: bytes <= PIO_LIMIT,
        notify: false,
        msg_id,
        msg_offset: 0,
        msg_len: bytes,
        recv_buf: 0,
        flags,
        tenant: 0,
        posted_at,
    }
}

/// Records every message deposited on this host.
pub struct Collector(pub Inbox);

impl HostAgent for Collector {
    fn on_start(&mut self, _ctx: &mut HostCtx) {}
    fn on_wake(&mut self, _ctx: &mut HostCtx, _token: u64) {}
    fn on_message(&mut self, _ctx: &mut HostCtx, pkt: Packet) {
        self.0.borrow_mut().push(pkt);
    }
    fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
}

/// Posts `count` packets of `bytes` each to `dst` after paying the host-side
/// library cost once; the first message's `posted_at` is the user initiation
/// time (t = 0) so end-to-end latency includes the host send stage.
pub struct StreamSender {
    /// Destination.
    pub dst: NodeId,
    /// Per-packet payload size.
    pub bytes: u32,
    /// Number of packets.
    pub count: u64,
    sent: u64,
}

impl StreamSender {
    /// Build a sender.
    pub fn new(dst: NodeId, bytes: u32, count: u64) -> Self {
        Self {
            dst,
            bytes,
            count,
            sent: 0,
        }
    }
}

impl HostAgent for StreamSender {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        ctx.wake_in(host_send(self.bytes), 0);
    }
    fn on_wake(&mut self, ctx: &mut HostCtx, _token: u64) {
        let posted = ctx.now();
        while self.sent < self.count {
            let stamp = if self.sent == 0 { Time::ZERO } else { posted };
            ctx.post_send(make_desc(self.dst, self.bytes, self.sent, stamp));
            self.sent += 1;
        }
    }
    fn on_message(&mut self, _ctx: &mut HostCtx, _pkt: Packet) {}
    fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
}
