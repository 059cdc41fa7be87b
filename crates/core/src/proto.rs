//! Per-peer protocol state: the sender's retransmission queue and the
//! receiver's expected-sequence tracking.
//!
//! Both sides are kept **per node**, not per connection — the paper calls
//! this out as critical for firmware scalability (§4.1.1): queues per
//! process pair would exhaust NIC memory.

use std::collections::VecDeque;

use san_nic::BufId;
use san_sim::{Duration, Time};

use crate::image_fields;
use crate::seq::{gen_newer, seq_leq};

/// Lower clamp for the adaptive age threshold and scan period. It must
/// exceed the steady-state cumulative-ACK lag or clean traffic is
/// retransmitted spuriously (the paper's 10 µs-timer failure mode).
pub const RTO_MIN: Duration = Duration::from_micros(200);

/// Upper clamp for the adaptive age threshold, backoff included.
pub const RTO_MAX: Duration = Duration::from_secs(1);

/// Cap on the consecutive-expiry backoff shift: the threshold never grows
/// by more than 2⁶ over the base estimate (the clamp to [`RTO_MAX`] binds
/// first anyway).
pub const MAX_RTO_BACKOFF: u32 = 6;

/// Smallest damped outstanding window. Never below 2: one packet in
/// flight plus one carrying the ACK request keeps the ACK clock alive
/// even at full clamp.
pub const MIN_CWND: u32 = 2;

/// Per-destination adaptive-RTO state (EXTENSION): Jacobson smoothed
/// RTT/variance in the RFC 6298 shape, with Karn's rule enforced by the
/// caller (only samples from never-retransmitted packets are fed in) and
/// an exponential backoff shift bumped on consecutive queue expiries.
///
/// Pure bookkeeping — no simulation side effects — so it can be carried
/// unconditionally without perturbing the fixed-timer baseline.
#[derive(Debug, Clone, Default)]
pub struct RttEstimator {
    /// Smoothed RTT in nanoseconds; `None` until the first clean sample.
    srtt_ns: Option<u64>,
    /// Mean deviation in nanoseconds.
    rttvar_ns: u64,
    /// Consecutive-expiry backoff shift (doubles the threshold per step).
    backoff: u32,
}

image_fields!(RttEstimator {
    srtt_ns,
    rttvar_ns,
    backoff,
});

impl RttEstimator {
    /// Feed one clean round-trip sample (SRTT ← 7/8·SRTT + 1/8·sample,
    /// RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT − sample|). A clean round trip is
    /// also the only thing that ends a backoff episode.
    pub fn sample(&mut self, rtt: Duration) {
        let r = rtt.nanos();
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2;
            }
            Some(srtt) => {
                let err = srtt.abs_diff(r);
                self.rttvar_ns = (3 * self.rttvar_ns + err) / 4;
                self.srtt_ns = Some((7 * srtt + r) / 8);
            }
        }
        self.backoff = 0;
    }

    /// The base age threshold `SRTT + 4·RTTVAR` clamped to `[lo, hi]`, or
    /// `None` before the first sample.
    pub fn base_threshold(&self, lo: Duration, hi: Duration) -> Option<Duration> {
        let srtt = self.srtt_ns?;
        let raw = srtt.saturating_add(4 * self.rttvar_ns);
        Some(Duration::from_nanos(
            raw.clamp(lo.nanos(), hi.nanos().max(lo.nanos())),
        ))
    }

    /// The effective threshold: the base (or `fallback` before the first
    /// sample, clamped the same way) shifted left by the backoff, never
    /// exceeding `hi`.
    pub fn threshold(&self, fallback: Duration, lo: Duration, hi: Duration) -> Duration {
        let base = self.base_threshold(lo, hi).unwrap_or_else(|| {
            Duration::from_nanos(
                fallback
                    .nanos()
                    .clamp(lo.nanos(), hi.nanos().max(lo.nanos())),
            )
        });
        let shifted = base
            .nanos()
            .saturating_mul(1u64 << self.backoff.min(MAX_RTO_BACKOFF));
        Duration::from_nanos(shifted.min(hi.nanos().max(base.nanos())))
    }

    /// A queue expiry fired and the window was replayed: double the
    /// threshold for the next round (capped).
    pub fn bump_backoff(&mut self) {
        self.backoff = (self.backoff + 1).min(MAX_RTO_BACKOFF);
    }

    /// Current backoff shift (for gauges and tests).
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Smoothed RTT, if a sample has been taken (for gauges and tests).
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt_ns.map(Duration::from_nanos)
    }
}

/// Send-side state toward one destination node.
#[derive(Debug)]
pub struct SenderState {
    /// Next sequence number to assign.
    pub next_seq: u32,
    /// Current route generation.
    pub generation: u16,
    /// Buffers transmitted but not yet acknowledged, in sequence order
    /// (the retransmission queue of §4.1).
    pub retrans_q: VecDeque<BufId>,
    /// Packets sent since the last ACK request (sender-based feedback).
    pub since_ack_req: u32,
    /// Last time an acknowledgment freed something (progress marker for the
    /// transient/permanent failure threshold).
    pub last_progress: Time,
    /// Until when a full-queue retransmission is already booked on the
    /// network DMA — prevents a short timer from piling duplicate
    /// retransmissions of the same window on top of each other.
    pub retx_busy_until: Time,
    /// The destination is currently being (re)mapped; hold retransmissions.
    pub mapping: bool,
    /// Consecutive mapping runs that ended in an unreachable verdict with
    /// traffic still queued. Probe batches share the fabric with everything
    /// else, so a verdict can be spoiled by probe loss or probe-vs-probe
    /// deadlock; the firmware retries before believing it.
    pub map_attempts: u32,
    /// Do not restart mapping before this time (widening backoff between
    /// unreachable verdicts, so synchronized senders desynchronize instead
    /// of re-colliding their probe storms).
    pub remap_backoff_until: Time,
    /// Adaptive-RTO estimator toward this destination (EXTENSION; inert
    /// bookkeeping when `adaptive_rto` is off).
    pub rtt: RttEstimator,
    /// Karn's rule: sequence numbers below this were covered by a
    /// retransmission in the current generation, so an ACK for them is
    /// ambiguous and must not produce an RTT sample.
    pub karn_barrier: u32,
    /// Damped outstanding window: packets allowed on the wire toward this
    /// destination. Effectively unbounded until a timeout halves it
    /// (EXTENSION; only enforced when `window_damping` is on).
    pub cwnd: u32,
    /// Tail entries of `retrans_q` parked by the damped window, awaiting
    /// (re)transmission as it reopens. Always a suffix of the queue.
    pub unsent_tail: usize,
}

impl Default for SenderState {
    fn default() -> Self {
        Self {
            next_seq: 0,
            generation: 0,
            retrans_q: VecDeque::new(),
            since_ack_req: 0,
            last_progress: Time::ZERO,
            retx_busy_until: Time::ZERO,
            mapping: false,
            map_attempts: 0,
            remap_backoff_until: Time::ZERO,
            rtt: RttEstimator::default(),
            karn_barrier: 0,
            cwnd: u32::MAX,
            unsent_tail: 0,
        }
    }
}

/// Field-wise, so `clone_from` keeps the destination's queue buffer (the
/// model checker overwrites one scratch successor per transition). Both
/// methods name every field: a new field fails to compile until it is
/// copied here.
impl Clone for SenderState {
    fn clone(&self) -> Self {
        let mut s = Self::default();
        s.clone_from(self);
        s
    }

    fn clone_from(&mut self, src: &Self) {
        let Self {
            next_seq,
            generation,
            retrans_q,
            since_ack_req,
            last_progress,
            retx_busy_until,
            mapping,
            map_attempts,
            remap_backoff_until,
            rtt,
            karn_barrier,
            cwnd,
            unsent_tail,
        } = self;
        *next_seq = src.next_seq;
        *generation = src.generation;
        retrans_q.clone_from(&src.retrans_q);
        *since_ack_req = src.since_ack_req;
        *last_progress = src.last_progress;
        *retx_busy_until = src.retx_busy_until;
        *mapping = src.mapping;
        *map_attempts = src.map_attempts;
        *remap_backoff_until = src.remap_backoff_until;
        rtt.clone_from(&src.rtt);
        *karn_barrier = src.karn_barrier;
        *cwnd = src.cwnd;
        *unsent_tail = src.unsent_tail;
    }
}

image_fields!(SenderState {
    next_seq,
    generation,
    retrans_q,
    since_ack_req,
    last_progress,
    retx_busy_until,
    mapping,
    map_attempts,
    remap_backoff_until,
    rtt,
    karn_barrier,
    cwnd,
    unsent_tail,
});

impl SenderState {
    /// Assign the next sequence number.
    pub fn take_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        s
    }

    /// Start a new generation (after re-mapping): sequence numbers restart
    /// at zero, §4.2.
    pub fn new_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        self.next_seq = 0;
        self.since_ack_req = 0;
        self.retx_busy_until = Time::ZERO;
        // The sequence space restarts, so the Karn barrier restarts with it.
        self.karn_barrier = 0;
    }

    /// Packets currently on the wire (transmitted and unacknowledged):
    /// the retransmission queue minus its window-parked suffix.
    pub fn in_flight(&self) -> usize {
        self.retrans_q.len() - self.unsent_tail
    }

    /// Karn eligibility: may an ACK covering `seq` produce an RTT sample?
    pub fn sample_eligible(&self, seq: u32) -> bool {
        seq_leq(self.karn_barrier, seq)
    }

    /// Length of the retransmission-queue prefix that the cumulative
    /// `ack_seq` acknowledges (same generation only; 0 for stale-generation
    /// ACKs). Callers `drain(..n)` it from `retrans_q` and release the
    /// buffers, so an ACK allocates nothing.
    pub fn acked_prefix(
        &self,
        ack_seq: u32,
        ack_gen: u16,
        seq_of: impl Fn(BufId) -> (u32, u16),
    ) -> usize {
        if ack_gen != self.generation {
            return 0;
        }
        self.retrans_q
            .iter()
            .take_while(|&&b| {
                let (seq, gen) = seq_of(b);
                gen == self.generation && seq_leq(seq, ack_seq)
            })
            .count()
    }
}

/// Receive-side state from one source node.
#[derive(Debug, Clone, Default)]
pub struct ReceiverState {
    /// Sequence number expected next.
    pub expected: u32,
    /// Generation currently accepted.
    pub generation: u16,
    /// An ACK is owed (set on accept; cleared when any ACK — explicit or
    /// piggy-backed — carries the current cumulative value).
    pub ack_owed: bool,
    /// Packets accepted since the last ACK (any kind) left for this source;
    /// drives the receiver-side group-ACK threshold.
    pub accepted_since_ack: u32,
}

image_fields!(ReceiverState {
    expected,
    generation,
    ack_owed,
    accepted_since_ack,
});

/// What the receiver decides to do with an arriving data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxVerdict {
    /// In order: accept, deposit, advance.
    Accept,
    /// Already seen (retransmission of acknowledged data): drop, but re-ACK
    /// so the sender can free buffers.
    Duplicate,
    /// A gap: drop immediately, no buffering, no NACK (§4.1.1).
    OutOfOrder,
    /// From a superseded generation: drop silently (§4.2).
    StaleGeneration,
}

impl ReceiverState {
    /// Classify a packet and update state for accepted ones.
    pub fn classify(&mut self, seq: u32, generation: u16) -> RxVerdict {
        if generation != self.generation {
            if gen_newer(generation, self.generation) {
                // A new generation started (path re-mapped): adopt it and
                // expect its sequence space from zero.
                self.generation = generation;
                self.expected = 0;
            } else {
                return RxVerdict::StaleGeneration;
            }
        }
        if seq == self.expected {
            self.expected = self.expected.wrapping_add(1);
            self.ack_owed = true;
            self.accepted_since_ack += 1;
            RxVerdict::Accept
        } else if seq_leq(seq, self.expected.wrapping_sub(1)) {
            RxVerdict::Duplicate
        } else {
            RxVerdict::OutOfOrder
        }
    }

    /// The cumulative ACK value: everything up to and including this
    /// sequence number has been received in order.
    pub fn cumulative_ack(&self) -> u32 {
        self.expected.wrapping_sub(1)
    }

    /// An ACK (explicit or piggy-backed) carrying the cumulative value just
    /// left: reset the owed/threshold bookkeeping.
    pub fn note_ack_sent(&mut self) {
        self.ack_owed = false;
        self.accepted_since_ack = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_seq_assignment_and_wrap() {
        let mut s = SenderState {
            next_seq: u32::MAX,
            ..Default::default()
        };
        assert_eq!(s.take_seq(), u32::MAX);
        assert_eq!(s.take_seq(), 0);
    }

    #[test]
    fn new_generation_resets() {
        let mut s = SenderState {
            next_seq: 55,
            since_ack_req: 3,
            ..Default::default()
        };
        s.new_generation();
        assert_eq!(s.generation, 1);
        assert_eq!(s.next_seq, 0);
        assert_eq!(s.since_ack_req, 0);
    }

    #[test]
    fn cumulative_ack_frees_prefix() {
        let mut s = SenderState::default();
        // Buffers 10..15 hold seqs 0..5.
        for i in 10..15 {
            s.retrans_q.push_back(BufId(i));
        }
        let seq_of = |b: BufId| ((b.0 - 10) as u32, 0u16);
        let n = s.acked_prefix(2, 0, seq_of);
        assert_eq!(n, 3);
        let freed: Vec<BufId> = s.retrans_q.drain(..n).collect();
        assert_eq!(freed, vec![BufId(10), BufId(11), BufId(12)]);
        assert_eq!(s.retrans_q.len(), 2);
        // Re-acking the same value frees nothing more.
        assert_eq!(s.acked_prefix(2, 0, seq_of), 0);
        // Stale generation frees nothing.
        assert_eq!(s.acked_prefix(4, 9, seq_of), 0);
        // Acking everything covers the whole queue.
        assert_eq!(s.acked_prefix(4, 0, seq_of), 2);
    }

    #[test]
    fn estimator_converges_and_clamps() {
        let mut e = RttEstimator::default();
        let lo = Duration::from_micros(200);
        let hi = Duration::from_secs(1);
        // Before any sample the fallback rules, clamped into [lo, hi].
        assert_eq!(e.base_threshold(lo, hi), None);
        assert_eq!(e.threshold(Duration::from_secs(5), lo, hi), hi);
        assert_eq!(e.threshold(Duration::from_micros(10), lo, hi), lo);
        // First sample seeds SRTT = sample, RTTVAR = sample/2.
        e.sample(Duration::from_micros(400));
        assert_eq!(e.srtt(), Some(Duration::from_micros(400)));
        // base = 400 + 4*200 = 1200 µs.
        assert_eq!(e.base_threshold(lo, hi), Some(Duration::from_micros(1200)));
        // Repeated identical samples shrink the variance toward zero, so
        // the threshold converges toward SRTT (clamped below by lo).
        for _ in 0..64 {
            e.sample(Duration::from_micros(400));
        }
        let t = e.base_threshold(lo, hi).unwrap();
        assert!(t < Duration::from_micros(500), "converged: {t:?}");
        assert!(t >= lo);
    }

    #[test]
    fn backoff_doubles_threshold_and_resets_on_clean_sample() {
        let mut e = RttEstimator::default();
        let lo = Duration::from_micros(100);
        let hi = Duration::from_secs(1);
        e.sample(Duration::from_micros(300));
        let base = e.threshold(Duration::ZERO, lo, hi);
        e.bump_backoff();
        assert_eq!(e.threshold(Duration::ZERO, lo, hi), base * 2);
        e.bump_backoff();
        assert_eq!(e.threshold(Duration::ZERO, lo, hi), base * 4);
        // The shift saturates...
        for _ in 0..40 {
            e.bump_backoff();
        }
        assert_eq!(e.backoff(), MAX_RTO_BACKOFF);
        // ...and never exceeds the upper clamp.
        assert!(e.threshold(Duration::ZERO, lo, hi) <= hi);
        // Only a clean-ACK round trip (a new sample) ends the episode.
        e.sample(Duration::from_micros(300));
        assert_eq!(e.backoff(), 0);
    }

    #[test]
    fn karn_barrier_excludes_retransmitted_seqs() {
        let mut s = SenderState::default();
        for _ in 0..10 {
            s.take_seq();
        }
        // A go-back-N replay makes every assigned seq ambiguous.
        s.karn_barrier = s.next_seq;
        assert!(!s.sample_eligible(3));
        assert!(!s.sample_eligible(9));
        // Packets sequenced after the replay are clean again.
        let fresh = s.take_seq();
        assert!(s.sample_eligible(fresh));
        // A new generation restarts the sequence space and the barrier.
        s.new_generation();
        assert!(s.sample_eligible(0));
    }

    #[test]
    fn receiver_in_order_acceptance() {
        let mut r = ReceiverState::default();
        assert_eq!(r.classify(0, 0), RxVerdict::Accept);
        assert_eq!(r.classify(1, 0), RxVerdict::Accept);
        assert_eq!(r.cumulative_ack(), 1);
        assert!(r.ack_owed);
    }

    #[test]
    fn receiver_drops_gaps_and_duplicates() {
        let mut r = ReceiverState::default();
        assert_eq!(r.classify(0, 0), RxVerdict::Accept);
        // Gap: 2 while expecting 1.
        assert_eq!(r.classify(2, 0), RxVerdict::OutOfOrder);
        // Still expecting 1 — the gap did not advance anything.
        assert_eq!(r.classify(1, 0), RxVerdict::Accept);
        // Old packet again.
        assert_eq!(r.classify(0, 0), RxVerdict::Duplicate);
    }

    #[test]
    fn receiver_generation_handling() {
        let mut r = ReceiverState::default();
        for s in 0..5 {
            assert_eq!(r.classify(s, 0), RxVerdict::Accept);
        }
        // New generation restarts at 0.
        assert_eq!(r.classify(0, 1), RxVerdict::Accept);
        assert_eq!(r.generation, 1);
        assert_eq!(r.expected, 1);
        // Stale generation dropped silently.
        assert_eq!(r.classify(7, 0), RxVerdict::StaleGeneration);
        assert_eq!(r.expected, 1, "stale packets do not disturb state");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Feeding the receiver an arbitrary interleaving of sequence
        /// numbers (duplicates, gaps, reorderings) must accept exactly the
        /// in-order prefix exactly once.
        #[test]
        fn receiver_accepts_each_seq_once_in_order(
            seqs in proptest::collection::vec(0u32..32, 1..200)
        ) {
            let mut r = ReceiverState::default();
            let mut accepted = Vec::new();
            for &s in &seqs {
                if r.classify(s, 0) == RxVerdict::Accept {
                    accepted.push(s);
                }
            }
            // Accepted seqs are exactly 0..n in order for some n.
            for (i, &s) in accepted.iter().enumerate() {
                prop_assert_eq!(s, i as u32);
            }
        }

        /// acked_prefix never frees out of order and never frees beyond
        /// the cumulative ack.
        #[test]
        fn acked_prefix_is_exact(n in 1usize..50, ack in 0u32..60) {
            let mut s = SenderState::default();
            for i in 0..n {
                s.retrans_q.push_back(BufId(i as u16));
            }
            let k = s.acked_prefix(ack, 0, |b| (b.0 as u32, 0));
            let expect = ((ack as usize) + 1).min(n);
            prop_assert_eq!(k, expect);
            for (i, b) in s.retrans_q.drain(..k).enumerate() {
                prop_assert_eq!(b.0 as usize, i);
            }
        }
    }
}
