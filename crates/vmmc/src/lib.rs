//! # san-vmmc — Virtual Memory-Mapped Communication
//!
//! The user-level communication layer of the paper's testbed (§3.2):
//! processes *export* regions of their address space (with permissions),
//! remote processes *import* them, and sends deposit data directly into the
//! importer-named remote buffer — no receiver-side copies, no interrupts.
//!
//! Mechanics reproduced here:
//! * sends ≤ 32 B go by programmed I/O (the host CPU writes descriptor and
//!   data together); larger sends are DMA'd by the NIC,
//! * messages larger than 4 KB are segmented into 4 KB packets,
//! * the receive side reassembles segments into the export buffer and
//!   notifies the process once the full message has landed,
//! * export permissions are checked on arrival: a packet naming a bad or
//!   foreign buffer is discarded (the protection model of VMMC),
//! * message-level **deduplication**: the reliability layer guarantees
//!   exactly-once per generation but may redeliver across a generation
//!   reset after a permanent failure; deposits are idempotent, and this
//!   layer additionally swallows duplicate *notifications*.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use bytes::Bytes;
use san_fabric::{NodeId, Packet, PacketFlags, PacketKind};
use san_nic::vmmc_consts::{PIO_LIMIT, SEGMENT_BYTES};
use san_nic::{HostCtx, SendDesc};
use san_sim::{Duration, Time};
use san_telemetry::{Counter, Telemetry};

/// Identifier of an exported buffer on its owning host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ExportId(pub u32);

/// A handle obtained by importing a remote export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImportHandle {
    /// The exporting host.
    pub remote: NodeId,
    /// The remote buffer.
    pub export: ExportId,
    /// Size of the remote buffer.
    pub size: u32,
}

/// An exported receive region.
#[derive(Debug)]
struct ExportBuf {
    size: u32,
    /// Backing bytes: empty until the first segment carrying real data
    /// lands, then `size` bytes. Logical-only traffic (timing runs that
    /// materialize no payload) never allocates them.
    data: Vec<u8>,
    /// Hosts allowed to deposit (None = anyone).
    allow: Option<Vec<NodeId>>,
}

/// A fully received message, as reported to the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredMsg {
    /// Sending host.
    pub src: NodeId,
    /// Sender-assigned message id.
    pub msg_id: u64,
    /// The export buffer it landed in.
    pub export: ExportId,
    /// Offset of the message within the buffer.
    pub offset: u32,
    /// Message length.
    pub len: u32,
    /// Tenant stream the message belongs to (from the completing segment's
    /// tag; 0 = untagged).
    pub tenant: u16,
    /// When the last segment was visible to the process.
    pub completed_at: Time,
}

/// VMMC statistics.
#[derive(Debug, Default, Clone)]
pub struct VmmcStats {
    /// Messages sent.
    pub msgs_sent: Counter,
    /// Segments posted.
    pub segments_sent: Counter,
    /// Messages fully received.
    pub msgs_received: Counter,
    /// Segments rejected by protection checks.
    pub protection_drops: Counter,
    /// Duplicate message notifications swallowed.
    pub dup_msgs: Counter,
    /// End-to-end recovery: messages re-posted after a `SendFailed`.
    pub reposts: Counter,
    /// End-to-end recovery: messages given up on (attempt budget spent or
    /// no longer retained).
    pub abandoned: Counter,
}

impl VmmcStats {
    /// Stats whose cells are registered in `tel` under
    /// `vmmc.node.<n>.*`.
    pub fn registered(tel: &Telemetry, node: NodeId) -> Self {
        let v = |leaf: &str| tel.counter(&format!("vmmc.node.{}.{leaf}", node.0));
        Self {
            msgs_sent: v("msgs_sent"),
            segments_sent: v("segments_sent"),
            msgs_received: v("msgs_received"),
            protection_drops: v("protection_drops"),
            dup_msgs: v("dup_msgs"),
            reposts: v("reposts"),
            abandoned: v("abandoned"),
        }
    }
}

/// Host-level end-to-end recovery policy: what to do when the NIC reports
/// `SendFailed` (destination unreachable across the whole remap budget).
/// The paper's baseline is silent drop; with a policy installed the library
/// re-posts the message — bounded attempts, exponential backoff — once the
/// caller drives [`VmmcLib::flush_retries`] at the returned times. Re-posts
/// reuse the original `msg_id`, so the receiver's exact dedup makes them
/// idempotent even when the first copy (or part of it) did land.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Re-posts allowed per message before it is abandoned.
    pub max_attempts: u32,
    /// Backoff before the first re-post; doubles per subsequent failure of
    /// the same message.
    pub base_backoff: Duration,
    /// How many recent sends to retain for possible re-posting. Memory
    /// bound; a failure arriving for an evicted message is abandoned.
    pub retain: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: Duration::from_micros(500),
            retain: 4096,
        }
    }
}

/// A send retained for possible end-to-end re-posting.
#[derive(Debug)]
struct RetainedSend {
    to: ImportHandle,
    offset: u32,
    len: u32,
    data: Option<Bytes>,
    attempts: u32,
    /// Scheduled re-post time after a failure; `None` while in flight.
    due: Option<Time>,
}

#[derive(Debug)]
struct RecoveryState {
    cfg: RecoveryConfig,
    retained: BTreeMap<u64, RetainedSend>,
}

#[derive(Debug, Default)]
struct Assembly {
    len: u32,
    export: ExportId,
    first_offset: u32,
    seen_offsets: Vec<u32>,
}

/// Bound on out-of-order completion ids tracked per source. Exceeding it
/// (possible only when thousands of abandoned gaps accumulate) degrades to
/// the high-water behavior for the evicted gap.
const COMPLETED_ABOVE_CAP: usize = 4096;

/// Exactly which message ids from one source have completed. Ids complete
/// in order on a healthy stream (one contiguous prefix, nothing stored);
/// end-to-end re-posting after a `SendFailed` can complete an *older* id
/// after a newer one, so the contiguous prefix is supplemented by an exact
/// set of out-of-order completions — this is what makes same-`msg_id`
/// re-posts idempotent instead of falsely swallowed.
#[derive(Debug, Default)]
struct CompletedIds {
    /// Smallest id not known to be complete (prefix `0..next` is done).
    next: u64,
    /// Completed ids beyond the contiguous prefix.
    above: BTreeSet<u64>,
}

impl CompletedIds {
    fn contains(&self, id: u64) -> bool {
        id < self.next || self.above.contains(&id)
    }

    fn insert(&mut self, id: u64) {
        if id < self.next {
            return;
        }
        if id == self.next {
            self.next += 1;
            while self.above.remove(&self.next) {
                self.next += 1;
            }
        } else {
            self.above.insert(id);
            if self.above.len() > COMPLETED_ABOVE_CAP {
                let evicted = self.above.pop_first().unwrap();
                self.next = self.next.max(evicted + 1);
                while self.above.remove(&self.next) {
                    self.next += 1;
                }
            }
        }
    }
}

/// Per-host VMMC library state. Host agents embed one and feed it arriving
/// packets; it turns them into message-level notifications.
#[derive(Debug)]
pub struct VmmcLib {
    node: NodeId,
    exports: Vec<ExportBuf>,
    next_msg_id: u64,
    assembling: HashMap<(NodeId, u64), Assembly>,
    /// Completed msg ids per peer, for dedup across generation-reset
    /// redelivery and end-to-end re-posting.
    completed: HashMap<NodeId, CompletedIds>,
    /// End-to-end recovery policy; `None` = the paper's silent-drop default.
    recovery: Option<RecoveryState>,
    /// Tenant tag stamped on every outgoing segment (0 = untagged).
    tenant: u16,
    /// Statistics.
    pub stats: VmmcStats,
}

impl VmmcLib {
    /// Library for one host, with private (unexported) statistics.
    pub fn new(node: NodeId) -> Self {
        Self::with_telemetry(node, &Telemetry::new())
    }

    /// Library whose stats counters are registered in `tel` under
    /// `vmmc.node.<n>.*`.
    pub fn with_telemetry(node: NodeId, tel: &Telemetry) -> Self {
        Self {
            node,
            exports: Vec::new(),
            next_msg_id: 0,
            assembling: HashMap::new(),
            completed: HashMap::new(),
            recovery: None,
            tenant: 0,
            stats: VmmcStats::registered(tel, node),
        }
    }

    /// Owner host.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Tag every subsequent send with `tenant` (multi-tenant workload
    /// attribution; 0 = untagged legacy traffic).
    pub fn set_tenant(&mut self, tenant: u16) {
        self.tenant = tenant;
    }

    /// The tenant tag currently stamped on outgoing segments.
    pub fn tenant(&self) -> u16 {
        self.tenant
    }

    /// Install an end-to-end recovery policy: sends are retained and, on a
    /// `SendFailed` completion, re-posted with bounded, backoff-paced
    /// attempts (drive with [`VmmcLib::on_send_failed`] +
    /// [`VmmcLib::flush_retries`]).
    pub fn enable_recovery(&mut self, cfg: RecoveryConfig) {
        self.recovery = Some(RecoveryState {
            cfg,
            retained: BTreeMap::new(),
        });
    }

    /// Messages currently awaiting a scheduled re-post.
    pub fn retries_pending(&self) -> usize {
        self.recovery.as_ref().map_or(0, |r| {
            r.retained.values().filter(|p| p.due.is_some()).count()
        })
    }

    /// The NIC reported `msg_id` dropped as unreachable. Schedules a
    /// re-post (exponential backoff, bounded attempts) and returns the
    /// backoff delay — the caller must arrange a [`VmmcLib::flush_retries`]
    /// call after it elapses. Returns `None` when the message is abandoned
    /// (budget spent, not retained, or no recovery policy).
    pub fn on_send_failed(&mut self, now: Time, msg_id: u64) -> Option<Duration> {
        let r = self.recovery.as_mut()?;
        let Some(p) = r.retained.get_mut(&msg_id) else {
            self.stats.abandoned.hit();
            return None;
        };
        if p.attempts >= r.cfg.max_attempts {
            r.retained.remove(&msg_id);
            self.stats.abandoned.hit();
            return None;
        }
        p.attempts += 1;
        let delay = r.cfg.base_backoff * (1u64 << (p.attempts - 1).min(16));
        p.due = Some(now + delay);
        Some(delay)
    }

    /// Re-post every message whose backoff has elapsed (same `msg_id`: the
    /// receiver's exact dedup makes redelivery idempotent). Returns the
    /// time until the earliest still-pending retry, if any.
    pub fn flush_retries(&mut self, ctx: &mut HostCtx) -> Option<Duration> {
        let now = ctx.now();
        let Some(r) = &mut self.recovery else {
            return None;
        };
        let due_now: Vec<u64> = r
            .retained
            .iter()
            .filter(|(_, p)| p.due.is_some_and(|t| t <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in due_now {
            let r = self.recovery.as_mut().unwrap();
            let p = r.retained.get_mut(&id).unwrap();
            p.due = None;
            let (to, offset, len, data) = (p.to, p.offset, p.len, p.data.clone());
            self.stats.reposts.hit();
            self.post_segments(ctx, to, offset, len, data.as_ref(), id);
        }
        let r = self.recovery.as_ref().unwrap();
        r.retained
            .values()
            .filter_map(|p| p.due)
            .min()
            .map(|t| t.since(now))
    }

    /// Export a receive region of `size` bytes. `allow` restricts which
    /// hosts may deposit into it (`None` = unrestricted). The region reads
    /// as zeros until written; its storage is allocated by the first
    /// deposit of real bytes.
    pub fn export(&mut self, size: u32, allow: Option<Vec<NodeId>>) -> ExportId {
        self.exports.push(ExportBuf {
            size,
            data: Vec::new(),
            allow,
        });
        ExportId(self.exports.len() as u32 - 1)
    }

    /// Import `export` on `remote`. In real VMMC this is a handshake through
    /// a connection daemon; permission is re-checked on every deposit, so
    /// the simulation performs the binding locally.
    pub fn import(remote: NodeId, export: ExportId, size: u32) -> ImportHandle {
        ImportHandle {
            remote,
            export,
            size,
        }
    }

    /// Read back bytes from an export buffer (what the process sees):
    /// zeros wherever nothing real was ever deposited.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the region.
    pub fn read_export(&self, id: ExportId, offset: u32, len: u32) -> Cow<'_, [u8]> {
        let b = &self.exports[id.0 as usize];
        let range = offset as usize..offset as usize + len as usize;
        assert!(
            range.end <= b.size as usize,
            "read past the export: {}..{} > {}",
            range.start,
            range.end,
            b.size
        );
        if b.data.is_empty() {
            Cow::Owned(vec![0; len as usize])
        } else {
            Cow::Borrowed(&b.data[range])
        }
    }

    /// Send `data` into the imported remote buffer at `offset`. Returns the
    /// message id. Segments > 4 KB; PIO for ≤ 32 B.
    pub fn send(&mut self, ctx: &mut HostCtx, to: ImportHandle, offset: u32, data: Bytes) -> u64 {
        assert!(
            offset as usize + data.len() <= to.size as usize,
            "send overruns the imported buffer: {} + {} > {}",
            offset,
            data.len(),
            to.size
        );
        self.send_inner(ctx, to, offset, data.len() as u32, Some(data))
    }

    /// Send `len` logical bytes (no real payload materialized) — used by
    /// bulk benchmarks where only timing matters.
    pub fn send_logical(
        &mut self,
        ctx: &mut HostCtx,
        to: ImportHandle,
        offset: u32,
        len: u32,
    ) -> u64 {
        assert!(offset + len <= to.size, "send overruns the imported buffer");
        self.send_inner(ctx, to, offset, len, None)
    }

    /// Send a real-byte `header` padded with `pad` logical bytes (one
    /// message of total length `header.len() + pad`). Used for protocol
    /// messages whose control part is real data but whose bulk payload only
    /// needs to cost wire/DMA time.
    pub fn send_padded(
        &mut self,
        ctx: &mut HostCtx,
        to: ImportHandle,
        offset: u32,
        header: Bytes,
        pad: u32,
    ) -> u64 {
        let total = header.len() as u32 + pad;
        assert!(
            offset + total <= to.size,
            "send overruns the imported buffer"
        );
        self.send_inner(ctx, to, offset, total, Some(header))
    }

    fn send_inner(
        &mut self,
        ctx: &mut HostCtx,
        to: ImportHandle,
        offset: u32,
        len: u32,
        data: Option<Bytes>,
    ) -> u64 {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        self.stats.msgs_sent.hit();
        if let Some(r) = &mut self.recovery {
            r.retained.insert(
                msg_id,
                RetainedSend {
                    to,
                    offset,
                    len,
                    data: data.clone(),
                    attempts: 0,
                    due: None,
                },
            );
            while r.retained.len() > r.cfg.retain {
                r.retained.pop_first();
            }
        }
        self.post_segments(ctx, to, offset, len, data.as_ref(), msg_id);
        msg_id
    }

    /// Segment a message and post its descriptors (shared by first sends
    /// and recovery re-posts, which reuse the original `msg_id`).
    fn post_segments(
        &mut self,
        ctx: &mut HostCtx,
        to: ImportHandle,
        offset: u32,
        len: u32,
        data: Option<&Bytes>,
        msg_id: u64,
    ) {
        let posted_at = ctx.now();
        let mut off = 0u32;
        loop {
            let seg = (len - off).min(SEGMENT_BYTES);
            let mut flags = PacketFlags::default();
            if off == 0 {
                flags.set(PacketFlags::FIRST_SEG);
            }
            if off + seg >= len {
                flags.set(PacketFlags::LAST_SEG);
            }
            // Real bytes may cover only a prefix of the message (padded
            // sends): each segment carries whatever real bytes fall in its
            // range.
            let payload = match data {
                Some(d) if len > 0 => {
                    let start = (off as usize).min(d.len());
                    let end = ((off + seg) as usize).min(d.len());
                    if start < end {
                        d.slice(start..end)
                    } else {
                        Bytes::new()
                    }
                }
                _ => Bytes::new(),
            };
            let desc = SendDesc {
                dst: to.remote,
                payload,
                logical_len: seg,
                pio: len <= PIO_LIMIT,
                notify: false,
                msg_id,
                // The wire offset is buffer-relative so deposits land at the
                // right place without a completion pass.
                msg_offset: offset + off,
                msg_len: len,
                recv_buf: to.export.0,
                flags,
                tenant: self.tenant,
                posted_at,
            };
            self.stats.segments_sent.hit();
            ctx.post_send(desc);
            off += seg;
            if off >= len {
                break;
            }
        }
    }

    /// Feed one deposited packet; returns the completed message when this
    /// segment was the last missing piece.
    pub fn on_packet(&mut self, pkt: &Packet) -> Option<DeliveredMsg> {
        if pkt.kind != PacketKind::Data && pkt.kind != PacketKind::Raw {
            return None;
        }
        // Protection: the named export must exist, the sender must be
        // allowed, and the segment must fit.
        let Some(buf) = self.exports.get_mut(pkt.recv_buf as usize) else {
            self.stats.protection_drops.hit();
            return None;
        };
        if let Some(allow) = &buf.allow {
            if !allow.contains(&pkt.src) {
                self.stats.protection_drops.hit();
                return None;
            }
        }
        let end = pkt.msg_offset as u64 + pkt.payload_len as u64;
        if end > buf.size as u64 {
            self.stats.protection_drops.hit();
            return None;
        }
        // Duplicate of an already-completed message (redelivery across a
        // generation reset, or an end-to-end re-post of a message whose
        // first copy did land): deposit is idempotent, notification
        // swallowed.
        if let Some(c) = self.completed.get(&pkt.src) {
            if c.contains(pkt.msg_id) && !self.assembling.contains_key(&(pkt.src, pkt.msg_id)) {
                self.stats.dup_msgs.hit();
                return None;
            }
        }
        // Deposit real bytes (direct write into the export region).
        if !pkt.payload.is_empty() {
            if buf.data.is_empty() {
                buf.data = vec![0; buf.size as usize];
            }
            let dst =
                &mut buf.data[pkt.msg_offset as usize..pkt.msg_offset as usize + pkt.payload.len()];
            dst.copy_from_slice(&pkt.payload);
        }
        let key = (pkt.src, pkt.msg_id);
        let a = self.assembling.entry(key).or_insert_with(|| Assembly {
            len: pkt.msg_len,
            export: ExportId(pkt.recv_buf),
            first_offset: 0,
            seen_offsets: Vec::new(),
        });
        if pkt.flags.has(PacketFlags::FIRST_SEG) {
            a.first_offset = pkt.msg_offset;
        }
        if a.seen_offsets.contains(&pkt.msg_offset) {
            return None; // segment-level duplicate within an incomplete message
        }
        a.seen_offsets.push(pkt.msg_offset);
        let need = if a.len == 0 {
            1
        } else {
            a.len.div_ceil(SEGMENT_BYTES)
        };
        if (a.seen_offsets.len() as u32) < need {
            return None;
        }
        let a = self.assembling.remove(&key).unwrap();
        self.completed
            .entry(pkt.src)
            .or_default()
            .insert(pkt.msg_id);
        self.stats.msgs_received.hit();
        Some(DeliveredMsg {
            src: pkt.src,
            msg_id: pkt.msg_id,
            export: a.export,
            offset: a.first_offset,
            len: a.len,
            tenant: pkt.tenant,
            completed_at: pkt.stamps.host_seen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(src: u16, msg_id: u64, offset: u32, len: u32, msg_len: u32, buf: u32) -> Packet {
        let mut p = Packet::new(NodeId(src), NodeId(0), PacketKind::Data);
        p.msg_id = msg_id;
        p.msg_offset = offset;
        p.msg_len = msg_len;
        p.recv_buf = buf;
        p.payload_len = len;
        let mut flags = PacketFlags::default();
        if offset == 0 {
            flags.set(PacketFlags::FIRST_SEG);
        }
        if offset + len >= msg_len {
            flags.set(PacketFlags::LAST_SEG);
        }
        p.flags = flags;
        p
    }

    #[test]
    fn export_and_read_roundtrip() {
        let mut lib = VmmcLib::new(NodeId(0));
        let e = lib.export(128, None);
        let mut p = seg(1, 0, 0, 5, 5, e.0);
        p.payload = Bytes::from_static(b"hello");
        let msg = lib.on_packet(&p).expect("single segment completes");
        assert_eq!(msg.len, 5);
        assert_eq!(lib.read_export(e, 0, 5), b"hello".as_slice());
    }

    #[test]
    fn never_written_export_reads_zeros() {
        let mut lib = VmmcLib::new(NodeId(0));
        let e = lib.export(4096, None);
        assert_eq!(lib.read_export(e, 0, 4096), vec![0u8; 4096]);
        assert_eq!(lib.read_export(e, 4000, 96), vec![0u8; 96]);
        assert!(lib.read_export(e, 4096, 0).is_empty());
    }

    #[test]
    fn real_bytes_read_back_beside_zeros() {
        let mut lib = VmmcLib::new(NodeId(0));
        let e = lib.export(8192, None);
        let mut p = seg(1, 0, 4096, 3, 3, e.0);
        p.flags.set(PacketFlags::FIRST_SEG);
        p.payload = Bytes::from_static(b"abc");
        assert!(lib.on_packet(&p).is_some());
        assert_eq!(lib.read_export(e, 4096, 3), b"abc".as_slice());
        assert_eq!(lib.read_export(e, 4094, 6), b"\0\0abc\0".as_slice());
        assert_eq!(lib.read_export(e, 0, 4096), vec![0u8; 4096]);
    }

    #[test]
    fn logical_only_deposits_allocate_no_storage() {
        let mut lib = VmmcLib::new(NodeId(0));
        let e = lib.export(65536, None);
        let msg_len = 4096 * 3;
        for off in [0, 4096, 8192] {
            lib.on_packet(&seg(1, 0, off, 4096, msg_len, e.0));
        }
        assert_eq!(lib.stats.msgs_received.get(), 1);
        assert_eq!(lib.exports[e.0 as usize].data.capacity(), 0);
        assert_eq!(lib.read_export(e, 0, msg_len), vec![0u8; msg_len as usize]);
    }

    #[test]
    fn segmented_message_completes_on_last_segment() {
        let mut lib = VmmcLib::new(NodeId(0));
        let e = lib.export(16384, None);
        let msg_len = 4096 * 2 + 1000;
        assert!(lib.on_packet(&seg(1, 7, 0, 4096, msg_len, e.0)).is_none());
        assert!(lib
            .on_packet(&seg(1, 7, 4096, 4096, msg_len, e.0))
            .is_none());
        let done = lib
            .on_packet(&seg(1, 7, 8192, 1000, msg_len, e.0))
            .expect("complete");
        assert_eq!(done.len, msg_len);
        assert_eq!(done.msg_id, 7);
        assert_eq!(lib.stats.msgs_received.get(), 1);
    }

    #[test]
    fn protection_rejects_bad_buffer_and_forbidden_host() {
        let mut lib = VmmcLib::new(NodeId(0));
        let e = lib.export(64, Some(vec![NodeId(2)]));
        // Unknown buffer id.
        assert!(lib.on_packet(&seg(2, 0, 0, 8, 8, 99)).is_none());
        assert_eq!(lib.stats.protection_drops.get(), 1);
        // Host 1 is not allowed.
        assert!(lib.on_packet(&seg(1, 0, 0, 8, 8, e.0)).is_none());
        assert_eq!(lib.stats.protection_drops.get(), 2);
        // Host 2 is allowed.
        assert!(lib.on_packet(&seg(2, 0, 0, 8, 8, e.0)).is_some());
        // Overrun rejected.
        assert!(lib.on_packet(&seg(2, 1, 60, 8, 8, e.0)).is_none());
        assert_eq!(lib.stats.protection_drops.get(), 3);
    }

    #[test]
    fn duplicate_completed_message_swallowed() {
        let mut lib = VmmcLib::new(NodeId(0));
        let e = lib.export(64, None);
        assert!(lib.on_packet(&seg(1, 0, 0, 8, 8, e.0)).is_some());
        assert!(
            lib.on_packet(&seg(1, 0, 0, 8, 8, e.0)).is_none(),
            "dup swallowed"
        );
        assert_eq!(lib.stats.dup_msgs.get(), 1);
        // A later message still goes through.
        assert!(lib.on_packet(&seg(1, 1, 0, 8, 8, e.0)).is_some());
    }

    #[test]
    fn duplicate_segment_within_message_ignored() {
        let mut lib = VmmcLib::new(NodeId(0));
        let e = lib.export(16384, None);
        let msg_len = 8192;
        assert!(lib.on_packet(&seg(1, 3, 0, 4096, msg_len, e.0)).is_none());
        assert!(
            lib.on_packet(&seg(1, 3, 0, 4096, msg_len, e.0)).is_none(),
            "same segment twice"
        );
        let done = lib.on_packet(&seg(1, 3, 4096, 4096, msg_len, e.0));
        assert!(
            done.is_some(),
            "completes exactly when all distinct segments arrived"
        );
    }

    #[test]
    fn interleaved_messages_from_two_sources_assemble_independently() {
        let mut lib = VmmcLib::new(NodeId(0));
        let e = lib.export(32768, None);
        assert!(lib.on_packet(&seg(1, 0, 0, 4096, 8192, e.0)).is_none());
        assert!(lib.on_packet(&seg(2, 0, 0, 4096, 8192, e.0)).is_none());
        assert!(lib.on_packet(&seg(2, 0, 4096, 4096, 8192, e.0)).is_some());
        assert!(lib.on_packet(&seg(1, 0, 4096, 4096, 8192, e.0)).is_some());
        assert_eq!(lib.stats.msgs_received.get(), 2);
    }

    #[test]
    fn out_of_order_completion_not_swallowed() {
        // End-to-end recovery can complete an *older* id after a newer one
        // (msg 0 re-posted after msg 1 already landed). The old high-water
        // dedup would have swallowed msg 0 forever; the exact set must not.
        let mut lib = VmmcLib::new(NodeId(0));
        let e = lib.export(64, None);
        assert!(lib.on_packet(&seg(1, 1, 0, 8, 8, e.0)).is_some());
        assert!(
            lib.on_packet(&seg(1, 0, 0, 8, 8, e.0)).is_some(),
            "older id completing late is a fresh message, not a duplicate"
        );
        // Both are now dedup'd.
        assert!(lib.on_packet(&seg(1, 0, 0, 8, 8, e.0)).is_none());
        assert!(lib.on_packet(&seg(1, 1, 0, 8, 8, e.0)).is_none());
        assert_eq!(lib.stats.dup_msgs.get(), 2);
    }

    #[test]
    fn completed_ids_prefix_merging() {
        let mut c = CompletedIds::default();
        c.insert(2);
        c.insert(1);
        assert!(!c.contains(0));
        assert!(c.contains(1) && c.contains(2));
        c.insert(0);
        assert_eq!(c.next, 3, "gap filled, prefix merges");
        assert!(c.above.is_empty());
    }

    #[test]
    fn failed_send_without_policy_or_retention_is_abandoned() {
        let mut lib = VmmcLib::new(NodeId(0));
        // No policy installed: silent-drop baseline.
        assert_eq!(lib.on_send_failed(Time::ZERO, 3), None);
        assert_eq!(lib.stats.abandoned.get(), 0, "baseline: not even counted");
        // Policy installed but the message was never retained (evicted or
        // pre-policy): abandoned explicitly.
        lib.enable_recovery(RecoveryConfig::default());
        assert_eq!(lib.on_send_failed(Time::ZERO, 3), None);
        assert_eq!(lib.stats.abandoned.get(), 1);
    }

    #[test]
    fn failed_send_backoff_doubles_until_budget() {
        let mut lib = VmmcLib::new(NodeId(0));
        lib.enable_recovery(RecoveryConfig {
            max_attempts: 3,
            base_backoff: Duration::from_micros(100),
            retain: 8,
        });
        // Retain a message by hand (send_inner needs a live cluster ctx).
        lib.recovery.as_mut().unwrap().retained.insert(
            7,
            RetainedSend {
                to: VmmcLib::import(NodeId(1), ExportId(0), 64),
                offset: 0,
                len: 8,
                data: None,
                attempts: 0,
                due: None,
            },
        );
        let now = Time::from_millis(1);
        assert_eq!(lib.on_send_failed(now, 7), Some(Duration::from_micros(100)));
        assert_eq!(lib.on_send_failed(now, 7), Some(Duration::from_micros(200)));
        assert_eq!(lib.on_send_failed(now, 7), Some(Duration::from_micros(400)));
        assert_eq!(lib.retries_pending(), 1);
        assert_eq!(lib.on_send_failed(now, 7), None, "budget spent");
        assert_eq!(lib.stats.abandoned.get(), 1);
        assert_eq!(lib.retries_pending(), 0, "abandoned message dropped");
    }

    #[test]
    fn deposits_land_at_buffer_offsets() {
        let mut lib = VmmcLib::new(NodeId(0));
        let e = lib.export(64, None);
        let mut p = seg(1, 0, 10, 4, 4, e.0);
        // A message written at buffer offset 10 (sender offset parameter):
        // the wire carries msg_offset = 10 with FIRST_SEG.
        p.flags.set(PacketFlags::FIRST_SEG);
        p.flags.set(PacketFlags::LAST_SEG);
        p.payload = Bytes::from_static(b"ABCD");
        let done = lib.on_packet(&p).unwrap();
        assert_eq!(done.offset, 10);
        assert_eq!(lib.read_export(e, 10, 4), b"ABCD".as_slice());
    }
}
