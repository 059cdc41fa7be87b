//! Packet-lifecycle reconstruction: join trace events into per-packet
//! timelines.
//!
//! Packet-scoped events (injected/hop/dropped/corrupted/delivered/
//! deposited/retransmit) are keyed by `(src, dst, generation, seq)`; the
//! reconstructor groups a trace by that key and sorts each group by
//! timestamp. This turns a flat event stream into the paper's narrative
//! devices — e.g. for Figure 5's false-retransmission knee, a timeline
//! that shows *delivered at t₁, retransmitted anyway at t₂ > t₁* because
//! the 100 µs timer beat the ACK back to the sender.

use std::collections::BTreeMap;
use std::fmt;

use crate::trace::{TraceEvent, TraceKind};

/// The join key identifying one data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketKey {
    /// Sending node.
    pub src: u16,
    /// Receiving node.
    pub dst: u16,
    /// Sender epoch.
    pub generation: u16,
    /// Sequence number within the epoch.
    pub seq: u32,
}

impl fmt::Display for PacketKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}->{} gen{} seq{}",
            self.src, self.dst, self.generation, self.seq
        )
    }
}

/// All events observed for one packet, in timestamp order.
#[derive(Debug, Clone)]
pub struct PacketTimeline {
    /// The packet's identity.
    pub key: PacketKey,
    /// Packet-scoped events, sorted by `(at_ns, kind)`.
    pub events: Vec<TraceEvent>,
}

impl PacketTimeline {
    /// Times the firmware queued a retransmission of this packet.
    pub fn retransmits(&self) -> Vec<u64> {
        self.at_times(TraceKind::Retransmit)
    }

    /// First time the packet reached its destination intact, if ever.
    pub fn first_delivery(&self) -> Option<u64> {
        self.at_times(TraceKind::PacketDelivered).first().copied()
    }

    /// True when the packet was retransmitted *after* it had already been
    /// delivered — the retransmission was spurious (paper §4.2: the
    /// retransmission timer expired before the cumulative ACK arrived).
    pub fn has_false_retransmit(&self) -> bool {
        match self.first_delivery() {
            Some(t_del) => self.retransmits().iter().any(|&t_rtx| t_rtx > t_del),
            None => false,
        }
    }

    /// Human-readable multi-line rendering of the timeline.
    pub fn render(&self) -> String {
        let mut out = format!("packet {}:\n", self.key);
        for ev in &self.events {
            out.push_str(&format!(
                "  {:>12} ns  [{}] {} (aux={})\n",
                ev.at_ns,
                ev.layer.name(),
                ev.kind.name(),
                ev.aux
            ));
        }
        out
    }

    fn at_times(&self, kind: TraceKind) -> Vec<u64> {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.at_ns)
            .collect()
    }
}

/// Group a trace into per-packet timelines, ordered by packet key.
///
/// Non-packet-scoped events (timers, ACKs, probes...) are ignored; use the
/// raw event stream for those.
pub fn reconstruct(events: &[TraceEvent]) -> Vec<PacketTimeline> {
    let mut by_key: BTreeMap<PacketKey, Vec<TraceEvent>> = BTreeMap::new();
    for ev in events {
        if !ev.kind.is_packet_scoped() {
            continue;
        }
        let key = PacketKey {
            src: ev.src,
            dst: ev.dst,
            generation: ev.generation,
            seq: ev.seq,
        };
        by_key.entry(key).or_default().push(*ev);
    }
    by_key
        .into_iter()
        .map(|(key, mut evs)| {
            evs.sort_by_key(|e| (e.at_ns, e.kind));
            PacketTimeline { key, events: evs }
        })
        .collect()
}

/// Timelines containing a spurious retransmission, ordered by packet key.
pub fn false_retransmits(events: &[TraceEvent]) -> Vec<PacketTimeline> {
    reconstruct(events)
        .into_iter()
        .filter(|t| t.has_false_retransmit())
        .collect()
}
