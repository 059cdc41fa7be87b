//! The structured trace ring: a bounded, zero-alloc-on-hot-path recorder
//! of simulation events with virtual-nanosecond timestamps.
//!
//! Recording is gated by an enum — a disabled recorder is a single branch,
//! so un-instrumented runs pay effectively nothing. Enabled recording
//! writes a `Copy` event into a pre-allocated ring, overwriting the oldest
//! events when full (the overwrite count is reported so truncation is
//! never silent). Events can be filtered at record time by layer bitmask
//! and node, keeping deep traces affordable on big clusters.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The protocol layer an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Layer {
    /// Wires, switches, cut-through channels.
    Fabric = 0,
    /// NIC mechanism: DMA engines, send pool, rings.
    Nic = 1,
    /// The paper's reliability firmware and mapper.
    Ft = 2,
    /// User-level communication library.
    Vmmc = 3,
    /// Shared virtual memory protocol.
    Svm = 4,
    /// Host agents / applications.
    Host = 5,
}

impl Layer {
    /// All layers, for filter masks.
    pub const ALL: [Layer; 6] = [
        Layer::Fabric,
        Layer::Nic,
        Layer::Ft,
        Layer::Vmmc,
        Layer::Svm,
        Layer::Host,
    ];

    /// This layer's bit in a filter mask.
    #[inline]
    pub const fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// Short lowercase name used by exporters.
    pub const fn name(self) -> &'static str {
        match self {
            Layer::Fabric => "fabric",
            Layer::Nic => "nic",
            Layer::Ft => "ft",
            Layer::Vmmc => "vmmc",
            Layer::Svm => "svm",
            Layer::Host => "host",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceKind {
    /// Host posted a send descriptor (`aux` = payload bytes).
    PacketEnqueued = 0,
    /// Packet entered the fabric (`aux` = wire bytes).
    PacketInjected = 1,
    /// Flit head crossed a switch (`aux` = output port).
    PacketHop = 2,
    /// Packet died (`aux` = drop-reason code; fabric layer) or was
    /// suppressed by the error injector before the wire (ft layer).
    PacketDropped = 3,
    /// Fault flipped payload bits; CRC will catch it at the receiver.
    PacketCorrupted = 4,
    /// Tail reached the destination NIC intact (`aux` = payload bytes).
    PacketDelivered = 5,
    /// Receiving NIC DMAed the payload to host memory.
    PacketDeposited = 6,
    /// Explicit or piggybacked cumulative ACK left a node
    /// (`aux` = 1 when piggybacked on data).
    AckSent = 7,
    /// Cumulative ACK advanced the sender window (`aux` = packets freed).
    AckProcessed = 8,
    /// A protocol timer fired (`aux` = timer token).
    TimerFired = 9,
    /// Go-back-N resent a packet (`aux` = queue position).
    Retransmit = 10,
    /// Mapper emitted a probe (`aux` = probe token).
    ProbeSent = 11,
    /// Sender epoch advanced after remapping (`generation` = new epoch).
    GenerationBump = 12,
    /// A DMA engine started a transfer (`aux` = bytes).
    DmaStart = 13,
    /// A DMA engine finished a transfer (`aux` = bytes).
    DmaEnd = 14,
    /// The fabric's path-reset watchdog killed a wedged worm.
    PathReset = 15,
    /// A workload host observed a complete tenant message (`node` = the
    /// receiver, `src`/`dst` = the message endpoints, `aux` packs the
    /// tenant id and delivery latency — see [`TraceEvent::pack_tenant`]).
    TenantDelivered = 16,
    /// The fabric wiring changed while running (live reconfiguration):
    /// `seq` = the new reconfiguration epoch, `aux` = the new wiring
    /// fingerprint. The full delta (changed links/switches) is in the
    /// engine's reconfiguration log, addressable by epoch.
    Reconfig = 17,
}

impl TraceKind {
    /// Short name used by exporters.
    pub const fn name(self) -> &'static str {
        match self {
            TraceKind::PacketEnqueued => "enqueued",
            TraceKind::PacketInjected => "injected",
            TraceKind::PacketHop => "hop",
            TraceKind::PacketDropped => "dropped",
            TraceKind::PacketCorrupted => "corrupted",
            TraceKind::PacketDelivered => "delivered",
            TraceKind::PacketDeposited => "deposited",
            TraceKind::AckSent => "ack_sent",
            TraceKind::AckProcessed => "ack_processed",
            TraceKind::TimerFired => "timer_fired",
            TraceKind::Retransmit => "retransmit",
            TraceKind::ProbeSent => "probe_sent",
            TraceKind::GenerationBump => "generation_bump",
            TraceKind::DmaStart => "dma_start",
            TraceKind::DmaEnd => "dma_end",
            TraceKind::PathReset => "path_reset",
            TraceKind::TenantDelivered => "tenant_delivered",
            TraceKind::Reconfig => "reconfig",
        }
    }

    /// True for kinds whose `(src, dst, generation, seq)` identifies a
    /// data packet, so the lifecycle reconstructor can join on them.
    pub const fn is_packet_scoped(self) -> bool {
        matches!(
            self,
            TraceKind::PacketInjected
                | TraceKind::PacketHop
                | TraceKind::PacketDropped
                | TraceKind::PacketCorrupted
                | TraceKind::PacketDelivered
                | TraceKind::PacketDeposited
                | TraceKind::Retransmit
        )
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded event. `Copy` and fixed-size: recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time, nanoseconds since simulation start.
    pub at_ns: u64,
    /// Originating layer.
    pub layer: Layer,
    /// What happened.
    pub kind: TraceKind,
    /// Node observing the event.
    pub node: u16,
    /// Packet source node (when packet-scoped).
    pub src: u16,
    /// Packet destination node (when packet-scoped).
    pub dst: u16,
    /// Sender epoch of the packet or event.
    pub generation: u16,
    /// Sequence number (when packet-scoped).
    pub seq: u32,
    /// Kind-specific extra (bytes, port, reason code, token...).
    pub aux: u64,
}

impl TraceEvent {
    /// Pack a tenant id and a delivery latency into the `aux` word of a
    /// [`TraceKind::TenantDelivered`] event: tenant in the high 16 bits,
    /// latency (nanoseconds, saturated to 48 bits ≈ 78 hours) below it.
    #[inline]
    pub fn pack_tenant(tenant: u16, latency_ns: u64) -> u64 {
        ((tenant as u64) << 48) | latency_ns.min((1 << 48) - 1)
    }

    /// Canonical single-line text form; the determinism test and the CSV
    /// exporter both build on this, so it must stay stable.
    pub fn to_line(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{}",
            self.at_ns,
            self.layer.name(),
            self.kind.name(),
            self.node,
            self.src,
            self.dst,
            self.generation,
            self.seq,
            self.aux
        )
    }
}

/// Record-time filter: which layers and (optionally) which node to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter {
    /// Bitmask of [`Layer::bit`]s to record.
    pub layer_mask: u8,
    /// When set, only events observed at this node are recorded.
    pub node: Option<u16>,
}

impl TraceFilter {
    /// Keep everything.
    pub const fn all() -> Self {
        Self {
            layer_mask: u8::MAX,
            node: None,
        }
    }

    /// Keep only the given layers.
    pub fn layers(layers: &[Layer]) -> Self {
        let mut mask = 0;
        for l in layers {
            mask |= l.bit();
        }
        Self {
            layer_mask: mask,
            node: None,
        }
    }

    /// Restrict (a copy of) this filter to one node.
    pub fn at_node(mut self, node: u16) -> Self {
        self.node = Some(node);
        self
    }

    /// Does `ev` pass?
    #[inline]
    pub fn admits(&self, ev: &TraceEvent) -> bool {
        if self.layer_mask & ev.layer.bit() == 0 {
            return false;
        }
        match self.node {
            Some(n) => ev.node == n,
            None => true,
        }
    }
}

impl Default for TraceFilter {
    fn default() -> Self {
        Self::all()
    }
}

/// Post-hoc queries over a drained trace.
///
/// Consumers (invariant oracles, reports) drain the ring once with
/// [`crate::Telemetry::scan`] and then slice the owned event list by kind,
/// packet stream, or time window without re-walking the ring. All queries
/// preserve recording (oldest-first) order.
#[derive(Debug, Clone)]
pub struct TraceScan {
    events: Vec<TraceEvent>,
    /// Events the ring overwrote before the scan: when nonzero the oldest
    /// part of the history is missing and completeness-style conclusions
    /// ("X never happened") are unsound.
    pub truncated: u64,
}

impl TraceScan {
    /// Wrap an already-drained event list (`truncated` as reported by the
    /// ring at drain time).
    pub fn new(events: Vec<TraceEvent>, truncated: u64) -> Self {
        Self { events, truncated }
    }

    /// Every event, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of one kind, oldest first.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// How many events of `kind` were recorded.
    pub fn count(&self, kind: TraceKind) -> usize {
        self.of_kind(kind).count()
    }

    /// The distinct (src, dst) streams that have packet-scoped events,
    /// in first-appearance order.
    pub fn pairs(&self) -> Vec<(u16, u16)> {
        let mut out = Vec::new();
        for e in &self.events {
            if e.kind.is_packet_scoped() && !out.contains(&(e.src, e.dst)) {
                out.push((e.src, e.dst));
            }
        }
        out
    }
}

/// One ring slot: a `TraceEvent` packed into four relaxed atomic words.
///
/// Relaxed `AtomicU64` stores and loads compile to plain `mov`s on every
/// mainstream ISA, so recording costs one `fetch_add` (the index claim)
/// plus four ordinary stores — no lock, ~8 ns per event. The trade-off is
/// that a snapshot taken *while another thread records* may observe a
/// half-written ("torn") event; simulations are single-threaded over
/// their telemetry handle and export after the run, so this never arises
/// in practice, and it is memory-safe (atomics, not UB) when it does.
#[derive(Debug)]
struct Slot([AtomicU64; 4]);

impl Slot {
    const fn empty() -> Self {
        Self([
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
        ])
    }

    #[inline]
    fn store(&self, ev: &TraceEvent) {
        let w1 = ev.layer as u64
            | (ev.kind as u64) << 8
            | (ev.node as u64) << 16
            | (ev.src as u64) << 32
            | (ev.dst as u64) << 48;
        let w2 = ev.generation as u64 | (ev.seq as u64) << 16;
        self.0[0].store(ev.at_ns, Ordering::Relaxed);
        self.0[1].store(w1, Ordering::Relaxed);
        self.0[2].store(w2, Ordering::Relaxed);
        self.0[3].store(ev.aux, Ordering::Relaxed);
    }

    fn load(&self) -> TraceEvent {
        let w1 = self.0[1].load(Ordering::Relaxed);
        let w2 = self.0[2].load(Ordering::Relaxed);
        TraceEvent {
            at_ns: self.0[0].load(Ordering::Relaxed),
            layer: layer_from(w1 as u8),
            kind: kind_from((w1 >> 8) as u8),
            node: (w1 >> 16) as u16,
            src: (w1 >> 32) as u16,
            dst: (w1 >> 48) as u16,
            generation: w2 as u16,
            seq: (w2 >> 16) as u32,
            aux: self.0[3].load(Ordering::Relaxed),
        }
    }
}

fn layer_from(b: u8) -> Layer {
    Layer::ALL[(b as usize).min(Layer::ALL.len() - 1)]
}

fn kind_from(b: u8) -> TraceKind {
    use TraceKind::*;
    const KINDS: [TraceKind; 18] = [
        PacketEnqueued,
        PacketInjected,
        PacketHop,
        PacketDropped,
        PacketCorrupted,
        PacketDelivered,
        PacketDeposited,
        AckSent,
        AckProcessed,
        TimerFired,
        Retransmit,
        ProbeSent,
        GenerationBump,
        DmaStart,
        DmaEnd,
        PathReset,
        TenantDelivered,
        Reconfig,
    ];
    KINDS[(b as usize).min(KINDS.len() - 1)]
}

/// Fixed-capacity overwrite-oldest event buffer, lock-free.
///
/// `head` counts every admitted event ever recorded; the slot written is
/// `head % capacity` (capacity is rounded up to a power of two so the
/// modulo is a mask). Oldest-first order and the overwrite count both
/// derive from `head` alone.
#[derive(Debug)]
pub(crate) struct Ring {
    filter: TraceFilter,
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
}

impl Ring {
    pub(crate) fn new(capacity: usize, filter: TraceFilter) -> Self {
        assert!(capacity > 0, "trace ring capacity must be nonzero");
        let cap = capacity.next_power_of_two();
        let slots: Box<[Slot]> = (0..cap).map(|_| Slot::empty()).collect();
        Self {
            filter,
            slots,
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn push(&self, ev: TraceEvent) {
        if !self.filter.admits(&ev) {
            return;
        }
        // Plain load+store, not `fetch_add`: an uncontended RMW is still a
        // ~20-cycle locked op, and one simulation records from one thread.
        // Concurrent recorders (not a supported pattern, same caveat as
        // torn snapshot reads above) would at worst co-claim a slot.
        let head = self.head.load(Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Relaxed);
        let idx = head & self.mask;
        self.slots[idx as usize].store(&ev);
        // Touch the cache line two slots ahead so its read-for-ownership
        // overlaps the simulation work between events instead of stalling
        // the next record call (slots are half a line; +2 is the next line).
        let ahead = ((idx + 2) & self.mask) as usize;
        self.slots[ahead].0[0].load(Ordering::Relaxed);
    }

    /// Batched push: claims the head once for the whole admitted batch and
    /// writes the slots sequentially. Order within the batch is preserved,
    /// so flushing an engine-side buffer at dispatch boundaries keeps the
    /// global trace byte-identical to unbatched recording.
    pub(crate) fn push_batch(&self, evs: &[TraceEvent]) {
        // Count admitted events first so the head moves exactly once.
        let admitted = evs.iter().filter(|e| self.filter.admits(e)).count() as u64;
        if admitted == 0 {
            return;
        }
        let head = self.head.load(Ordering::Relaxed);
        self.head.store(head + admitted, Ordering::Relaxed);
        let mut idx = head;
        for ev in evs {
            if self.filter.admits(ev) {
                self.slots[(idx & self.mask) as usize].store(ev);
                idx += 1;
            }
        }
    }

    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let n = head.min(cap);
        let start = if head > cap { head & self.mask } else { 0 };
        (0..n)
            .map(|i| self.slots[((start + i) & self.mask) as usize].load())
            .collect()
    }

    pub(crate) fn overwritten(&self) -> u64 {
        let head = self.head.load(Ordering::Relaxed);
        head.saturating_sub(self.slots.len() as u64)
    }

    pub(crate) fn clear(&self) {
        self.head.store(0, Ordering::Relaxed);
    }
}

/// The recorder behind a `Telemetry` handle. Disabled tracing is one
/// branch on this enum — the tentpole's "feature-gated cheap" guarantee.
#[derive(Debug)]
pub(crate) enum Recorder {
    /// No ring allocated; `record` is a single discriminant test.
    Off,
    /// Lock-free bounded ring (see [`Ring`]).
    On(Ring),
}

impl Recorder {
    #[inline]
    pub(crate) fn record(&self, ev: TraceEvent) {
        match self {
            Recorder::Off => {}
            Recorder::On(ring) => ring.push(ev),
        }
    }

    #[inline]
    pub(crate) fn record_batch(&self, evs: &[TraceEvent]) {
        match self {
            Recorder::Off => {}
            Recorder::On(ring) => ring.push_batch(evs),
        }
    }
}
