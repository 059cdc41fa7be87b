//! NIC SRAM accounting and the send-buffer pool.
//!
//! The LANai 7 has 2 MB of SRAM shared by firmware code, data structures,
//! receive buffers and send buffers (§3.1, §5.1.1). Send buffers are the
//! scarce resource the paper sweeps (2–128 buffers of ~4 KB); a sender that
//! runs out blocks until an acknowledgment frees one, which is exactly the
//! pipelining limit the queue-size experiments measure.
//!
//! Receive buffers are provisioned at one per peer node plus slack, which the
//! paper argues (§5.1.1) is enough that receivers are never overwhelmed; the
//! pool checks the budget but the receive path never blocks.

use san_fabric::Packet;
use san_sim::Time;

/// Total SRAM on the NIC (2 MB).
pub const SRAM_BYTES: u32 = 2 * 1024 * 1024;
/// SRAM reserved for firmware code + data structures.
pub const FIRMWARE_BYTES: u32 = 256 * 1024;
/// Size of one packet buffer (send or receive).
pub const BUF_BYTES: u32 = 4096 + 128; // payload + header slack

/// Index of a send buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BufId(pub u16);

/// One send buffer: either free or holding a packet awaiting transmission
/// or acknowledgment.
#[derive(Debug)]
struct Buf {
    pkt: Option<Packet>,
    /// Last time this packet was put on the wire (for retransmission aging).
    last_tx: Time,
}

/// The send-buffer pool.
#[derive(Debug)]
pub struct SendPool {
    bufs: Vec<Buf>,
    free: Vec<BufId>,
}

/// Error: SRAM budget exceeded.
#[derive(Debug, PartialEq, Eq)]
pub struct SramOverflow {
    /// Bytes requested in total.
    pub requested: u32,
    /// Bytes available for buffers.
    pub available: u32,
}

impl SendPool {
    /// Create a pool of `send_bufs` send buffers, verifying the whole SRAM
    /// budget (firmware + send + `recv_bufs` receive buffers) fits in 2 MB.
    pub fn new(send_bufs: u16, recv_bufs: u16) -> Result<SendPool, SramOverflow> {
        let requested = FIRMWARE_BYTES + (send_bufs as u32 + recv_bufs as u32) * BUF_BYTES;
        if requested > SRAM_BYTES {
            return Err(SramOverflow {
                requested,
                available: SRAM_BYTES,
            });
        }
        let bufs = (0..send_bufs)
            .map(|_| Buf {
                pkt: None,
                last_tx: Time::ZERO,
            })
            .collect();
        let free = (0..send_bufs).rev().map(BufId).collect();
        Ok(SendPool { bufs, free })
    }

    /// Total buffers.
    pub fn capacity(&self) -> usize {
        self.bufs.len()
    }

    /// Currently free buffers.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Buffers currently held (allocated and not yet released) — zero
    /// after a clean protocol drain, so oracles use it to detect leaks.
    pub fn in_use(&self) -> usize {
        self.bufs.len() - self.free.len()
    }

    /// Fraction of buffers free, in `[0,1]` (drives sender-based feedback).
    pub fn free_fraction(&self) -> f64 {
        self.free.len() as f64 / self.bufs.len() as f64
    }

    /// Claim a buffer for `pkt`. Returns `None` when exhausted (the send
    /// path must block).
    pub fn alloc(&mut self, pkt: Packet) -> Option<BufId> {
        let id = self.free.pop()?;
        let b = &mut self.bufs[id.0 as usize];
        debug_assert!(b.pkt.is_none(), "free-list handed out an occupied buffer");
        b.pkt = Some(pkt);
        b.last_tx = Time::ZERO;
        Some(id)
    }

    /// Release a buffer back to the free list, returning its packet.
    ///
    /// # Panics
    /// Panics if the buffer is already free (double-free is always a bug).
    pub fn release(&mut self, id: BufId) -> Packet {
        let b = &mut self.bufs[id.0 as usize];
        let pkt = b.pkt.take().expect("double free of send buffer");
        self.free.push(id);
        pkt
    }

    /// Borrow the packet held in `id`.
    pub fn pkt(&self, id: BufId) -> &Packet {
        self.bufs[id.0 as usize]
            .pkt
            .as_ref()
            .expect("buffer is free")
    }

    /// Mutably borrow the packet held in `id`.
    pub fn pkt_mut(&mut self, id: BufId) -> &mut Packet {
        self.bufs[id.0 as usize]
            .pkt
            .as_mut()
            .expect("buffer is free")
    }

    /// Record a (re)transmission instant for aging.
    pub fn mark_tx(&mut self, id: BufId, at: Time) {
        self.bufs[id.0 as usize].last_tx = at;
    }

    /// Last transmission instant.
    pub fn last_tx(&self, id: BufId) -> Time {
        self.bufs[id.0 as usize].last_tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_fabric::{NodeId, PacketKind};

    fn pkt() -> Packet {
        Packet::new(NodeId(0), NodeId(1), PacketKind::Data)
    }

    #[test]
    fn alloc_until_exhausted_then_release() {
        let mut p = SendPool::new(2, 4).unwrap();
        assert_eq!(p.capacity(), 2);
        let a = p.alloc(pkt()).unwrap();
        let b = p.alloc(pkt()).unwrap();
        assert_ne!(a, b);
        assert!(p.alloc(pkt()).is_none(), "pool exhausted");
        assert_eq!(p.free_count(), 0);
        p.release(a);
        assert_eq!(p.free_count(), 1);
        assert!(p.alloc(pkt()).is_some());
    }

    #[test]
    fn allocation_order_is_deterministic() {
        let mut p = SendPool::new(4, 0).unwrap();
        let ids: Vec<u16> = (0..4).map(|_| p.alloc(pkt()).unwrap().0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut p = SendPool::new(1, 0).unwrap();
        let a = p.alloc(pkt()).unwrap();
        p.release(a);
        p.release(a);
    }

    #[test]
    fn sram_budget_enforced() {
        // 128 send buffers + a few receive buffers fit (the paper's max).
        assert!(SendPool::new(128, 16).is_ok());
        // But you cannot configure more than SRAM allows.
        let err = SendPool::new(400, 100).unwrap_err();
        assert!(err.requested > err.available);
    }

    #[test]
    fn free_fraction_tracks_occupancy() {
        let mut p = SendPool::new(4, 0).unwrap();
        assert_eq!(p.free_fraction(), 1.0);
        let a = p.alloc(pkt()).unwrap();
        let _b = p.alloc(pkt()).unwrap();
        assert_eq!(p.free_fraction(), 0.5);
        p.release(a);
        assert_eq!(p.free_fraction(), 0.75);
    }

    #[test]
    fn mark_and_read_tx_time() {
        let mut p = SendPool::new(1, 0).unwrap();
        let a = p.alloc(pkt()).unwrap();
        assert_eq!(p.last_tx(a), Time::ZERO);
        p.mark_tx(a, Time::from_micros(5));
        assert_eq!(p.last_tx(a), Time::from_micros(5));
        assert_eq!(p.pkt(a).dst, NodeId(1));
    }
}
