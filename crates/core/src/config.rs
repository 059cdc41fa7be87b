//! Protocol configuration — the paper's Table 1 parameter space.

use san_fabric::Topology;
use san_sim::Duration;

/// How the sender decides when to set the ACK-request bit (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedbackPolicy {
    /// The paper's sender-based feedback: the request interval scales with
    /// the free-buffer level — scarce buffers → request on every packet;
    /// plentiful buffers → request rarely (capacity-proportional interval).
    SenderFeedback,
    /// Ablation baseline: request an ACK every `k` packets regardless of
    /// buffer pressure.
    EveryK(u32),
}

impl FeedbackPolicy {
    /// The ACK-request interval given the current pool state.
    ///
    /// The interval never exceeds half the pool: that guarantees that
    /// whenever the pool is full, at least one queued packet carries an
    /// ACK request, so the sender can never deadlock waiting for an ACK
    /// nobody was asked for (the periodic timer is the second backstop).
    pub fn interval(&self, free_fraction: f64, capacity: usize) -> u32 {
        let cap_bound = ((capacity as u32) / 2).max(1);
        match *self {
            FeedbackPolicy::EveryK(k) => k.max(1),
            FeedbackPolicy::SenderFeedback => {
                let raw = if free_fraction < 0.5 {
                    // Buffers scarce-to-moderate: timely — but still
                    // batched, cumulative — acknowledgments.
                    8
                } else {
                    // Plenty of buffers: amortize ACK traffic over a window
                    // proportional to the pool (this is what collapses at
                    // q=128 under 1e-2 errors — Figure 8's finding).
                    ((capacity as u32) / 4).clamp(8, 64)
                };
                raw.min(cap_bound)
            }
        }
    }
}

/// Retransmission-protocol configuration (§4.1, Table 1).
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Retransmission timer interval *and* the age threshold after which an
    /// unacknowledged packet is considered lost. Paper sweep: 10 µs – 1 s;
    /// best value 1 ms.
    pub retx_timeout: Duration,
    /// ACK-request policy.
    pub feedback: FeedbackPolicy,
    /// Drop every Nth outgoing data packet on the send side, right before
    /// injection (the paper's §5.1.3 injector). `None` = no injected errors.
    /// Paper sweep: 1e-2 … 1e-5 → `Some(100)` … `Some(100_000)`.
    pub drop_interval: Option<u64>,
    /// Receiver-side group ACK: after this many accepted-but-unacknowledged
    /// packets from one source, the receiver emits a cumulative ACK even if
    /// none was requested. This bounds the sender's worst-case free-buffer
    /// starvation independent of the request bits (the BDM/Pro-style
    /// "acknowledge groups of N packets" the paper cites in §2); the
    /// sender-based feedback of §4.1.2 remains the primary mechanism.
    pub receiver_ack_every: u32,
    /// A path with no acknowledged progress for this long is declared
    /// permanently failed and handed to the mapper (§4, "time interval
    /// threshold" distinguishing transient from permanent).
    pub perm_fail_threshold: Duration,
    /// Enable the on-demand mapper (permanent-failure recovery). When
    /// disabled, a permanently dead path just stalls — the configuration of
    /// the microbenchmark sweeps, where only transient errors exist.
    pub enable_mapping: bool,
    /// ABLATION (AM-II design, §2): one timer event per transmitted packet
    /// instead of the paper's single periodic timer. Every expiry costs NIC
    /// CPU even when the packet was long since acknowledged.
    pub per_packet_timers: bool,
    /// EXTENSION (VI / Infiniband reliability levels, §2): *reliable
    /// reception* — acknowledge only after the payload has fully landed in
    /// host memory, instead of the default *reliable delivery* (ACK when
    /// the NIC has the packet). Stronger guarantee, longer ACK latency.
    pub reliable_reception: bool,
    /// ABLATION: selective retransmission — the receiver buffers
    /// out-of-order packets (bounded window) and the sender retransmits only
    /// the timed-out head instead of the whole queue. The paper's design
    /// deliberately omits this (§4.1.1, no receiver buffering); Figure 8's
    /// q=128/1e-2 collapse is attributed to its absence.
    pub selective_retransmission: bool,
    /// EXTENSION: adaptive retransmission control. The firmware estimates a
    /// smoothed per-destination RTT (plus variance) from ACK round trips,
    /// excluding samples from retransmitted packets (Karn's rule), and ages
    /// each queue against `SRTT + 4·RTTVAR` (clamped to
    /// [`rto_min`, `rto_max`], doubled per consecutive expiry) instead of
    /// the fixed `retx_timeout`. The paper's *single* periodic scan timer
    /// is kept — only the per-queue age threshold (and the scan's own
    /// period, which follows the smallest estimate) adapts. Off by default:
    /// the fixed-timer behavior of the paper is the baseline for every
    /// sweep and ablation.
    pub adaptive_rto: bool,
    /// Lower clamp for the adaptive age threshold and scan period. Must
    /// exceed the steady-state cumulative-ACK lag or clean traffic is
    /// retransmitted spuriously (the paper's 10 µs-timer failure mode).
    pub rto_min: Duration,
    /// Upper clamp for the adaptive age threshold (including backoff).
    pub rto_max: Duration,
    /// EXTENSION: retransmit-storm damping. A timeout-triggered go-back-N
    /// replay halves the per-destination outstanding window (packets
    /// allowed on the wire); clean cumulative ACKs reopen it
    /// multiplicatively. Excess packets stay queued and flow as the window
    /// reopens, so a saturated channel degrades gracefully instead of
    /// collapsing past the congestion knee. Off by default (paper
    /// baseline: the whole queue replays and every new packet transmits
    /// immediately).
    pub window_damping: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            retx_timeout: Duration::from_millis(1), // the paper's best value
            feedback: FeedbackPolicy::SenderFeedback,
            receiver_ack_every: 16,
            drop_interval: None,
            perm_fail_threshold: Duration::from_millis(50),
            enable_mapping: false,
            per_packet_timers: false,
            reliable_reception: false,
            selective_retransmission: false,
            adaptive_rto: false,
            rto_min: Duration::from_micros(200),
            rto_max: Duration::from_secs(1),
            window_damping: false,
        }
    }
}

impl ProtocolConfig {
    /// Set the error rate as the paper states it (10^-k per packet):
    /// `rate = 1e-3` → drop one packet in every 1000.
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.drop_interval = if rate <= 0.0 {
            None
        } else {
            Some((1.0 / rate).round() as u64)
        };
        self
    }

    /// Set the retransmission timer.
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.retx_timeout = t;
        self
    }

    /// Enable on-demand mapping.
    pub fn with_mapping(mut self) -> Self {
        self.enable_mapping = true;
        self
    }

    /// Enable adaptive RTT-driven retransmission control.
    pub fn with_adaptive_rto(mut self) -> Self {
        self.adaptive_rto = true;
        self
    }

    /// Enable retransmit-storm damping.
    pub fn with_window_damping(mut self) -> Self {
        self.window_damping = true;
        self
    }

    /// The paper's Table 1 timer sweep values.
    pub fn timer_sweep() -> Vec<Duration> {
        vec![
            Duration::from_micros(10),
            Duration::from_micros(100),
            Duration::from_millis(1),
            Duration::from_millis(10),
            Duration::from_secs(1),
        ]
    }

    /// The paper's Table 1 send-queue sweep values.
    pub fn queue_sweep() -> Vec<u16> {
        vec![2, 8, 32, 128]
    }

    /// The paper's error-rate sweep (including the figures' 1e-2).
    pub fn error_sweep() -> Vec<f64> {
        vec![0.0, 1e-2, 1e-3, 1e-4, 1e-5]
    }
}

/// On-demand mapper configuration (§4.2).
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// Highest port number to probe on an unknown switch (Myrinet switches
    /// in the testbed have at most 16 ports; a probe into a nonexistent
    /// port simply times out, which is how port counts are discovered).
    pub max_ports: u8,
    /// Run identity checks to distinguish a re-encountered switch from a
    /// new one (switches carry no identity on the wire, §6.2).
    pub identity_checks: bool,
    /// Exploration budget: a run that sights more switches than this gives
    /// up (only reachable when identity resolution keeps mis-classifying,
    /// e.g. under probe loss in a dense cyclic fabric). Large fabrics —
    /// the `topo` atlas goes to hundreds of switches — need this raised
    /// above the testbed default.
    pub max_switch_sightings: usize,
    /// Most loop probes allowed in flight at once. A full concurrent batch
    /// (the default, `usize::MAX`) matches the paper's testbed behaviour;
    /// on large cyclic fabrics the non-looping probes of a batch wander the
    /// redundant paths and deadlock *each other*, and the path-reset timer
    /// (~62 ms) fires long after the 400 µs batch deadline
    /// (`mapper::PROBE_TIMEOUT`) misread the loss as "nothing there". A
    /// small window (1–2) removes probe–probe cycles at the cost of one
    /// batch deadline per window-full.
    pub loop_probe_window: usize,
    /// Two-hop identity signatures for host-less switches. The depth-1
    /// host signature cannot tell apart two core/aggregation switches that
    /// serve disjoint pods but answer the same loop probe through a shared
    /// neighbour — the fat-tree *core-aliasing* failure, where a foreign
    /// aggregation switch merges into an already-known one and whole pods
    /// go unexplored. With this on, a candidate whose depth-1 signature is
    /// all-silent is host-probed two hops out (`route_to(c) + [p, q]` for
    /// every port pair, including back through the discovering link, so the
    /// signature is arrival-direction independent): aggregation switches
    /// pick up their pod's hosts at depth 2 and dedup exactly; only
    /// switches silent at *both* depths (true cores) fall back to the
    /// loop-probe identity check. Off by default — the testbed-scale
    /// behaviour of the paper needs no depth-2 probes. Deep runs wait
    /// `mapper::PROBE_PATIENCE` per batch instead of `mapper::PROBE_TIMEOUT`.
    pub deep_signatures: bool,
}

impl Default for MapperConfig {
    fn default() -> Self {
        Self {
            max_ports: 16,
            identity_checks: true,
            max_switch_sightings: 64,
            loop_probe_window: usize::MAX,
            deep_signatures: false,
        }
    }
}

impl MapperConfig {
    /// A mapper sized to `topo`, for the atlas fabrics: the real port
    /// budget (probing 16 ports on a 5-port torus switch is 11 guaranteed
    /// silences per phase), a sighting budget that scales with the fabric,
    /// and paced loop probes (a full concurrent batch deadlocks itself on
    /// cyclic fabrics). The paper's testbed shapes keep [`Default`].
    pub fn for_topology(topo: &Topology) -> Self {
        Self {
            max_ports: topo.max_switch_ports().max(1),
            max_switch_sightings: (topo.num_switches() * 4).max(64),
            loop_probe_window: 2,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rate_mapping() {
        let c = ProtocolConfig::default().with_error_rate(1e-3);
        assert_eq!(c.drop_interval, Some(1000));
        let c = ProtocolConfig::default().with_error_rate(0.0);
        assert_eq!(c.drop_interval, None);
    }

    #[test]
    fn feedback_intervals_scale_with_pressure() {
        let f = FeedbackPolicy::SenderFeedback;
        assert_eq!(
            f.interval(0.1, 32),
            8,
            "scarce buffers → timely batched ACKs"
        );
        assert_eq!(f.interval(0.3, 32), 8);
        assert_eq!(f.interval(0.9, 32), 8, "clamped at 8");
        assert_eq!(f.interval(0.9, 128), 32, "large pool → rare requests");
        assert_eq!(f.interval(0.1, 2), 1, "never more than half the pool");
        assert_eq!(f.interval(0.9, 8), 4, "half-pool bound: 8/2");
        assert_eq!(FeedbackPolicy::EveryK(7).interval(0.9, 128), 7);
        assert_eq!(
            FeedbackPolicy::EveryK(0).interval(0.9, 128),
            1,
            "k=0 clamps to 1"
        );
    }

    #[test]
    fn adaptive_knobs_default_off() {
        // Paper-faithful baseline: every extension knob is off by default,
        // so existing sweeps and ablations are unaffected.
        let c = ProtocolConfig::default();
        assert!(!c.adaptive_rto);
        assert!(!c.window_damping);
        assert!(ProtocolConfig::default().with_adaptive_rto().adaptive_rto);
        assert!(
            ProtocolConfig::default()
                .with_window_damping()
                .window_damping
        );
        assert!(c.rto_min < c.rto_max);
    }

    #[test]
    fn sweeps_match_table1() {
        assert_eq!(ProtocolConfig::queue_sweep(), vec![2, 8, 32, 128]);
        assert_eq!(ProtocolConfig::timer_sweep().len(), 5);
        assert!(ProtocolConfig::error_sweep().contains(&1e-4));
    }
}
