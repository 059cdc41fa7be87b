//! The wire packet descriptor.
//!
//! A real Myrinet frame is `route bytes … header … payload … CRC32`. In the
//! simulator a [`Packet`] is a descriptor carrying the fields of *every*
//! protocol layer we model — fabric routing, the reliability protocol's
//! sequence/generation/ACK numbers, and VMMC message bookkeeping. Collapsing
//! the layers into one struct is the standard DES shortcut: it is exactly the
//! information a real frame would carry, declared once instead of
//! serialized/deserialized at every layer boundary. The CRC is computed over
//! the *real* bytes when a payload is attached; bulk benchmark traffic that
//! carries no real bytes uses `payload_len` for timing and the `corrupted`
//! flag to model CRC failure.

use bytes::Bytes;
use san_sim::Time;

use crate::crc::crc32_frame;
use crate::ids::NodeId;
use crate::route::Route;

/// Stage timestamps collected as a packet flows through the system, used by
/// the latency-breakdown experiment (Figure 3). Zero means "not reached".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stamps {
    /// Host library began the send operation.
    pub host_post: Time,
    /// NIC saw the send descriptor.
    pub nic_tx_start: Time,
    /// Head entered the wire (network DMA start).
    pub injected: Time,
    /// Tail arrived at the destination NIC.
    pub delivered: Time,
    /// Receive-side host DMA finished depositing into host memory.
    pub deposited: Time,
    /// Receiving process observed the message.
    pub host_seen: Time,
}

/// Fixed header overhead on the wire, excluding route bytes (one per hop)
/// and the trailing CRC. Matches the order of magnitude of VMMC's headers.
pub const HEADER_BYTES: u32 = 16;
/// Trailing CRC-32.
pub const CRC_BYTES: u32 = 4;

/// What a packet is, one level above the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// VMMC data segment (possibly with a piggy-backed ACK).
    Data,
    /// Explicit acknowledgment (header-only).
    Ack,
    /// Mapping probe expecting the *host* at the end of the route to reply
    /// with its identity over the reverse route.
    ProbeHost,
    /// Mapping probe whose route loops through a switch back to the prober;
    /// its arrival back at the sender proves the probed port pair exists.
    ProbeLoop,
    /// Reply to a `ProbeHost` (carries the responder's identity).
    ProbeReply,
    /// Opaque test traffic used by unit tests and deadlock experiments.
    Raw,
}

/// Header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketFlags(pub u8);

impl PacketFlags {
    /// Sender requests an explicit ACK for this packet (sender-based
    /// feedback, §4.1.2).
    pub const ACK_REQUEST: PacketFlags = PacketFlags(1 << 0);
    /// The `ack_seq`/`ack_gen` fields are valid (piggy-backed ACK).
    pub const PIGGY_ACK: PacketFlags = PacketFlags(1 << 1);
    /// First segment of a multi-packet VMMC message.
    pub const FIRST_SEG: PacketFlags = PacketFlags(1 << 2);
    /// Last segment of a multi-packet VMMC message.
    pub const LAST_SEG: PacketFlags = PacketFlags(1 << 3);

    /// Set `other` in `self`.
    #[inline]
    pub fn set(&mut self, other: PacketFlags) {
        self.0 |= other.0;
    }
    /// Clear `other` in `self`.
    #[inline]
    pub fn clear(&mut self, other: PacketFlags) {
        self.0 &= !other.0;
    }
    /// True if every bit of `other` is set in `self`.
    #[inline]
    pub fn has(self, other: PacketFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

/// A packet in flight. See the module docs for the layering rationale.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Sending host.
    pub src: NodeId,
    /// Intended destination host (probes may target the sender itself).
    pub dst: NodeId,
    /// Layer-above discriminator.
    pub kind: PacketKind,
    /// Reliability protocol: per-destination sequence number.
    pub seq: u32,
    /// Reliability protocol: route generation (bumped on re-mapping, §4.2).
    pub generation: u16,
    /// Piggy-backed cumulative ACK (valid when `PIGGY_ACK` is set): all
    /// packets of `ack_gen` up to and including `ack_seq` are acknowledged.
    pub ack_seq: u32,
    /// Generation the piggy-backed ACK refers to.
    pub ack_gen: u16,
    /// Flag bits.
    pub flags: PacketFlags,
    /// Source route: output port per switch hop.
    pub route: Route,
    /// Filled in by the fabric on delivery: the route back to the sender, as
    /// recorded from the input ports actually traversed.
    pub reverse_route: Route,
    /// Real payload bytes, when the traffic carries data; may be empty while
    /// `payload_len` is nonzero for bulk timing-only traffic.
    pub payload: Bytes,
    /// Logical payload length in bytes (drives serialization cost).
    pub payload_len: u32,
    /// CRC-32 over header+payload as computed at injection.
    pub crc: u32,
    /// Set when fault injection corrupted the packet on the wire; receivers
    /// treat this exactly as a CRC mismatch.
    pub corrupted: bool,
    /// VMMC: message identifier (also reused as probe token).
    pub msg_id: u64,
    /// VMMC: byte offset of this segment within the message.
    pub msg_offset: u32,
    /// VMMC: total message length.
    pub msg_len: u32,
    /// VMMC: receiver-side import/export buffer identifier.
    pub recv_buf: u32,
    /// Multi-tenant workload tag: which tenant stream this segment belongs
    /// to (0 = untagged/legacy traffic). Carried in otherwise-unused header
    /// padding, so it is excluded from the CRC image like `stamps`.
    pub tenant: u16,
    /// Stage timestamps (simulation instrumentation, not wire data).
    pub stamps: Stamps,
}

impl Packet {
    /// A blank packet of the given kind between `src` and `dst`; callers fill
    /// in protocol fields as needed.
    pub fn new(src: NodeId, dst: NodeId, kind: PacketKind) -> Self {
        Packet {
            src,
            dst,
            kind,
            seq: 0,
            generation: 0,
            ack_seq: 0,
            ack_gen: 0,
            flags: PacketFlags::default(),
            route: Route::empty(),
            reverse_route: Route::empty(),
            payload: Bytes::new(),
            payload_len: 0,
            crc: 0,
            corrupted: false,
            msg_id: 0,
            msg_offset: 0,
            msg_len: 0,
            recv_buf: 0,
            tenant: 0,
            stamps: Stamps::default(),
        }
    }

    /// Attach real payload bytes (sets `payload_len` to match).
    pub fn with_payload(mut self, data: Bytes) -> Self {
        self.payload_len = data.len() as u32;
        self.payload = data;
        self
    }

    /// Declare a logical payload size without carrying bytes.
    pub fn with_logical_len(mut self, len: u32) -> Self {
        self.payload = Bytes::new();
        self.payload_len = len;
        self
    }

    /// Total bytes this packet occupies on the wire.
    #[inline]
    pub fn wire_bytes(&self) -> u32 {
        HEADER_BYTES + self.route.len() as u32 + self.payload_len + CRC_BYTES
    }

    /// The header bytes the CRC covers, in a canonical order.
    fn header_image(&self) -> [u8; 24] {
        let mut h = [0u8; 24];
        h[0..2].copy_from_slice(&self.src.0.to_le_bytes());
        h[2..4].copy_from_slice(&self.dst.0.to_le_bytes());
        h[4] = self.kind as u8;
        h[5] = self.flags.0;
        h[6..10].copy_from_slice(&self.seq.to_le_bytes());
        h[10..12].copy_from_slice(&self.generation.to_le_bytes());
        h[12..16].copy_from_slice(&self.ack_seq.to_le_bytes());
        h[16..18].copy_from_slice(&self.ack_gen.to_le_bytes());
        h[18..22].copy_from_slice(&self.msg_offset.to_le_bytes());
        h[22] = (self.msg_id & 0xFF) as u8;
        h[23] = (self.payload_len & 0xFF) as u8;
        h
    }

    /// Compute and stamp the CRC (send-side network DMA behaviour).
    pub fn seal(&mut self) {
        self.crc = crc32_frame(&self.header_image(), &self.payload);
    }

    /// Receive-side CRC check. A packet fails if fault injection marked it
    /// corrupted, or if its real bytes no longer match the sealed CRC.
    pub fn crc_ok(&self) -> bool {
        !self.corrupted && self.crc == crc32_frame(&self.header_image(), &self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_set_clear_has() {
        let mut f = PacketFlags::default();
        f.set(PacketFlags::ACK_REQUEST);
        f.set(PacketFlags::LAST_SEG);
        assert!(f.has(PacketFlags::ACK_REQUEST));
        assert!(f.has(PacketFlags::LAST_SEG));
        assert!(!f.has(PacketFlags::PIGGY_ACK));
        f.clear(PacketFlags::ACK_REQUEST);
        assert!(!f.has(PacketFlags::ACK_REQUEST));
        assert!(f.has(PacketFlags::LAST_SEG));
    }

    #[test]
    fn wire_bytes_accounts_for_all_parts() {
        let mut p = Packet::new(NodeId(0), NodeId(1), PacketKind::Data).with_logical_len(4096);
        p.route = Route::from_ports(&[1, 2, 3]);
        assert_eq!(p.wire_bytes(), HEADER_BYTES + 3 + 4096 + CRC_BYTES);
    }

    #[test]
    fn seal_then_check_roundtrip() {
        let mut p = Packet::new(NodeId(0), NodeId(1), PacketKind::Data)
            .with_payload(Bytes::from_static(b"hello world"));
        p.seq = 17;
        p.seal();
        assert!(p.crc_ok());
        // Header mutation after sealing must be detected.
        p.seq = 18;
        assert!(!p.crc_ok());
        p.seq = 17;
        assert!(p.crc_ok());
        // The wire-corruption flag also fails the check.
        p.corrupted = true;
        assert!(!p.crc_ok());
    }

    #[test]
    fn payload_mutation_detected() {
        let mut p = Packet::new(NodeId(2), NodeId(3), PacketKind::Data)
            .with_payload(Bytes::from(vec![5u8; 256]));
        p.seal();
        assert!(p.crc_ok());
        let mut bytes = p.payload.to_vec();
        bytes[100] ^= 0x40;
        p.payload = Bytes::from(bytes);
        assert!(!p.crc_ok());
    }
}
