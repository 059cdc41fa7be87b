//! # san-ft — firmware-level fault tolerance for system area networks
//!
//! This crate is the reproduction of the contribution of *"Tolerating
//! Network Failures in System Area Networks"* (Tang & Bilas, ICPP 2002):
//!
//! * [`ReliableFirmware`] — the retransmission protocol of §4.1, implemented
//!   as a NIC control program over `san-nic`'s mechanisms:
//!   - go-back-N with **per-destination-node** retransmission queues,
//!   - cumulative ACKs (one sequence number acknowledges everything up to
//!     and including it), **no NACKs**, **no receiver-side buffering** of
//!     out-of-order packets (they are dropped on the spot),
//!   - a **single periodic timer** for all packets (vs. AM-II's per-packet
//!     timers),
//!   - piggy-backed ACKs on reverse data traffic, and **sender-based
//!     feedback**: the ACK-request bit frequency follows the sender's
//!     free-buffer level (§4.1.2),
//!   - sequence-number **generations** so that re-mapped paths restart
//!     cleanly and stale packets are discarded (§4.2),
//!   - the paper's error injector: drop the packet on the send side, right
//!     before wire injection, at fixed packet counts (§5.1.3).
//! * [`Mapper`] — the on-demand network mapping scheme of §4.2: partial maps
//!   discovered by BFS probing (host probes + switch/loop probes with
//!   explicit return routes), triggered only when a destination has no route
//!   or a route has made no progress for the permanent-failure threshold.
//!   No deadlock-free route computation — deadlock is *recovered from* via
//!   the fabric's path reset plus retransmission, not avoided.
//!
//! The configuration space ([`ProtocolConfig`]) exposes exactly the knobs the
//! paper sweeps in Table 1: NIC send-buffer count (in `san-nic`'s
//! `ClusterConfig`), the retransmission timer interval, and the error rate.

pub mod config;
pub mod firmware;
pub mod image;
pub mod mapper;
pub mod proto;
pub mod seq;
pub mod step;

/// Record a protocol-layer trace event observed by `core`'s node. `dst`
/// is the conversation partner; `generation`/`seq` identify the packet
/// for packet-scoped kinds and carry protocol state otherwise.
pub(crate) fn ft_trace(
    core: &san_nic::NicCore,
    at: san_sim::Time,
    kind: san_telemetry::TraceKind,
    dst: san_fabric::NodeId,
    generation: u16,
    seq: u32,
    aux: u64,
) {
    core.telemetry.record(san_telemetry::TraceEvent {
        at_ns: at.nanos(),
        layer: san_telemetry::Layer::Ft,
        kind,
        node: core.node.0,
        src: core.node.0,
        dst: dst.0,
        generation,
        seq,
        aux,
    });
}

pub use config::{FeedbackPolicy, MapperConfig, ProtocolConfig};
pub use firmware::ReliableFirmware;
pub use mapper::{MapStats, Mapper};
pub use proto::{
    ReceiverState, RttEstimator, SenderState, MAX_RTO_BACKOFF, MIN_CWND, RTO_MAX, RTO_MIN,
};
pub use seq::{gen_newer, seq_leq, seq_lt};
pub use step::{
    ack_progress, group_ack_due, injector_fires, plan_replay, retry_is_stale, tx_assign,
    unreachable_next, FaultKnobs, ModelBuf, ModelDesc, ModelPacket, NodeAction, NodeEvent,
    NodeModel, NodeState, ProtocolStep, TxAssign, UnreachableNext, MAX_MAP_ATTEMPTS,
};
