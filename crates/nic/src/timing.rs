//! The calibrated cost model of the paper's testbed.
//!
//! Hardware (§3): dual Pentium-II/450 hosts, 32-bit PCI (~120 MB/s effective),
//! Myrinet M2M-PCI64A-2 NICs — LANai 7 @ 66 MHz with 2 MB SRAM, three DMA
//! engines — and 1.28 Gb/s (160 MB/s) full-duplex links.
//!
//! The constants below are chosen so that the simulated *failure-free,
//! no-fault-tolerance* system reproduces the paper's headline numbers:
//! ~8 µs one-way latency for a 4-byte message with the Figure 3 stage split,
//! and a large-message bandwidth plateau of ~118 MB/s limited by the PCI bus.
//! The fault-tolerance overheads ([`FT_SEND_OVERHEAD`], [`FT_RX_OVERHEAD`])
//! are the paper's measured ~1 µs per side (Figure 3). The paper measures
//! one testbed, so every cost is a constant.

use san_sim::Duration;

use vmmc_consts::PIO_LIMIT;

/// Effective PCI bandwidth for host↔SRAM DMA (bytes/s). Paper: ~120 MB/s.
pub const PCI_BANDWIDTH: u64 = 120_000_000;
/// Fixed setup cost of one host-DMA transaction.
pub const DMA_SETUP: Duration = Duration::from_nanos(600);
/// Host library cost to issue a small (PIO, ≤32 B) send: user-level
/// checks, building + PIO-writing the descriptor and inline data.
pub const HOST_SEND_PIO: Duration = Duration::from_nanos(1_400);
/// Host library cost to issue a DMA (>32 B) send descriptor.
pub const HOST_SEND_DMA: Duration = Duration::from_nanos(1_100);
/// LANai cost to fetch a send descriptor and claim a send buffer.
pub const SEND_DESC_PROC: Duration = Duration::from_nanos(1_200);
/// LANai cost to build the packet header and look up the route.
pub const SEND_HDR_BUILD: Duration = Duration::from_nanos(1_300);
/// LANai receive-path processing (dequeue + CRC compare + dispatch).
pub const RX_PROC: Duration = Duration::from_nanos(1_200);
/// Extra send-side cost of the reliability firmware (sequence
/// assignment + retransmission-queue management). Paper: ≈1 µs.
pub const FT_SEND_OVERHEAD: Duration = Duration::from_nanos(1_000);
/// Extra receive-side cost of the reliability firmware (sequence check
/// + ACK bookkeeping). Paper: ≈1 µs.
pub const FT_RX_OVERHEAD: Duration = Duration::from_nanos(1_000);
/// LANai cost to process one incoming acknowledgment (free buffers).
pub const ACK_PROC: Duration = Duration::from_nanos(800);
/// LANai cost to emit one explicit ACK packet (header-only build).
pub const ACK_BUILD: Duration = Duration::from_nanos(700);
/// Fixed cost of one retransmission-timer scan...
pub const TIMER_SCAN_BASE: Duration = Duration::from_nanos(600);
/// ...plus this much per non-empty retransmission queue scanned.
pub const TIMER_SCAN_PER_QUEUE: Duration = Duration::from_nanos(150);
/// LANai cost per packet re-enqueued for retransmission.
pub const RETX_PER_PKT: Duration = Duration::from_nanos(500);
/// Host-side notification cost when a message is deposited (the
/// receiving process notices new data).
pub const HOST_NOTIFY: Duration = Duration::from_nanos(500);
/// Receiving process cost to consume/check a message.
pub const HOST_RECV_CHECK: Duration = Duration::from_nanos(800);
/// LANai cost to build/process one mapping probe.
pub const PROBE_PROC: Duration = Duration::from_nanos(800);

/// Host→SRAM (or SRAM→host) DMA time for `bytes`.
#[inline]
pub fn host_dma(bytes: u32) -> Duration {
    DMA_SETUP + Duration::for_bytes(bytes as u64, PCI_BANDWIDTH)
}

/// Host library cost to issue a send of `bytes`: [`HOST_SEND_PIO`] up to
/// [`PIO_LIMIT`] bytes, [`HOST_SEND_DMA`] above.
#[inline]
pub fn host_send(bytes: u32) -> Duration {
    if bytes <= PIO_LIMIT {
        HOST_SEND_PIO
    } else {
        HOST_SEND_DMA
    }
}

/// VMMC constants (§3.2).
pub mod vmmc_consts {
    /// Messages at or below this are PIO'd by the host CPU.
    pub const PIO_LIMIT: u32 = 32;
    /// Messages larger than this are segmented by the MCP.
    pub const SEGMENT_BYTES: u32 = 4096;
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_fabric::engine::{HOP_LATENCY, LINK_BANDWIDTH};

    #[test]
    fn four_byte_latency_budget_is_about_8us() {
        // Sanity-check the calibration against Figure 3 before any machinery
        // exists: sum the no-FT stage costs for a 4-byte PIO message over
        // one switch (2 channel hops + ~25 wire bytes at link bandwidth).
        let wire = HOP_LATENCY * 2 + Duration::for_bytes(16 + 1 + 4 + 4, LINK_BANDWIDTH);
        let total = host_send(4)
            + SEND_DESC_PROC
            + SEND_HDR_BUILD
            + wire
            + RX_PROC
            + host_dma(4)
            + HOST_NOTIFY
            + HOST_RECV_CHECK;
        let us = total.nanos() as f64 / 1000.0;
        assert!(
            (7.0..9.0).contains(&us),
            "no-FT 4-byte latency ≈ 8 µs, got {us:.2}"
        );
        // And with fault tolerance: ≈ +2 µs (Figure 3).
        let ft = us + (FT_SEND_OVERHEAD + FT_RX_OVERHEAD).nanos() as f64 / 1000.0;
        assert!(
            (9.0..11.0).contains(&ft),
            "FT 4-byte latency ≈ 10 µs, got {ft:.2}"
        );
    }

    #[test]
    fn pci_bounds_large_message_bandwidth() {
        // Per-4KB-packet PCI occupancy bounds throughput at ~118 MB/s.
        let per_pkt = host_dma(4096);
        let mbps = 4096.0 / per_pkt.as_secs_f64() / 1e6;
        assert!(
            (110.0..121.0).contains(&mbps),
            "PCI-bound plateau, got {mbps:.1} MB/s"
        );
    }

    #[test]
    fn nic_processing_hides_under_pci_for_bulk() {
        // The NIC CPU work per 4 KB packet (even with FT) must fit inside
        // the PCI DMA time, or the simulated bandwidth overhead of FT would
        // exceed the paper's <4%.
        let cpu = SEND_DESC_PROC + SEND_HDR_BUILD + FT_SEND_OVERHEAD;
        assert!(cpu < host_dma(4096));
        let rx_cpu = RX_PROC + FT_RX_OVERHEAD + ACK_BUILD;
        assert!(rx_cpu < host_dma(4096));
    }
}
