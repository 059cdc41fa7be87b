//! The reliable control program (§4.1) — the paper's retransmission scheme
//! as a `san_nic::Firmware`.
//!
//! Send path: every data packet gets a per-destination sequence number and
//! the current generation; after the network DMA reads it, the buffer moves
//! to that destination's retransmission queue instead of the free list.
//! A *single* periodic timer scans all queues; a queue whose oldest packet
//! has been unacknowledged for longer than the timeout is retransmitted
//! whole, in order (go-back-N), straight from NIC SRAM — no host copies,
//! no re-DMA (the paper's key difference from host-level schemes, §4.1.1).
//!
//! Receive path: in-order packets are deposited and advance the cumulative
//! ACK; gaps are dropped with no buffering and no NACK; duplicates are
//! dropped but re-ACKed. ACKs piggy-back on reverse data when possible and
//! are sent explicitly when the packet requests one — the request frequency
//! being the sender-based feedback of §4.1.2.
//!
//! Error injection: the paper's mechanism (§5.1.3) — every Nth data packet
//! is placed directly into the retransmission queue *without* touching the
//! wire, so the receiver misses it and drops all successors until the timer
//! recovers.

use san_fabric::{NodeId, Packet, PacketFlags, PacketKind, Route};
use san_nic::{timing, BufId, Firmware, NicCore, NicCtx, SendDesc};
use san_sim::{Duration, Time};
use san_telemetry::TraceKind;

use crate::config::{MapperConfig, ProtocolConfig};
use crate::ft_trace;
use crate::mapper::{MapOutcome, Mapper};
use crate::proto::{ReceiverState, RxVerdict, SenderState, RTO_MAX, RTO_MIN};
use crate::step::{
    ack_progress, group_ack_due, injector_fires, plan_replay, retry_is_stale, tx_assign,
    unreachable_next, UnreachableNext, MAX_MAP_ATTEMPTS,
};

/// Timer token: the retransmission scan.
pub const TOKEN_RETX: u64 = 0;
/// Timer tokens in `[TOKEN_MAPPER_BASE, TOKEN_PKT_BASE)` belong to the mapper.
pub const TOKEN_MAPPER_BASE: u64 = 1 << 32;
/// Timer tokens at or above this are per-packet expiries (the AM-II
/// ablation): `TOKEN_PKT_BASE | dst << 32 | seq`.
pub const TOKEN_PKT_BASE: u64 = 1 << 48;
/// Timer tokens at or above this retry an on-demand mapping run that ended
/// in an (untrusted) unreachable verdict: `TOKEN_REMAP_RETRY_BASE | dst`.
pub const TOKEN_REMAP_RETRY_BASE: u64 = 1 << 49;

/// The reliable firmware (retransmission + optional on-demand mapping).
pub struct ReliableFirmware {
    cfg: ProtocolConfig,
    senders: Vec<SenderState>,
    receivers: Vec<ReceiverState>,
    /// Out-of-order packets held per source (selective-retransmission
    /// ablation only; the paper's design keeps these empty).
    rx_buffers: Vec<std::collections::BTreeMap<u32, Packet>>,
    mapper: Mapper,
    /// Data packets processed by the injector so far (drop-interval clock).
    tx_counter: u64,
    n_nodes: usize,
    /// One bit per destination, set iff its retransmission queue is
    /// non-empty, so the periodic scan visits only those queues.
    queued: Vec<u64>,
    /// Each destination's adaptive base threshold (`SRTT + 4·RTTVAR`
    /// clamped between [`RTO_MIN`] and [`RTO_MAX`]), refreshed on every RTT sample;
    /// `None` before the first. The scan period is their minimum.
    base_thresholds: Vec<Option<Duration>>,
    /// The periodic scan's list of non-empty queues, kept across firings
    /// so that its storage is reused.
    active: Vec<NodeId>,
}

/// Bound on buffered out-of-order packets per source in the selective
/// ablation.
const RX_BUFFER_WINDOW: u32 = 64;

impl ReliableFirmware {
    /// Build the firmware for a cluster of `n_nodes` hosts.
    pub fn new(cfg: ProtocolConfig, mapper_cfg: MapperConfig, n_nodes: usize) -> Self {
        Self {
            cfg,
            senders: (0..n_nodes).map(|_| SenderState::default()).collect(),
            receivers: (0..n_nodes).map(|_| ReceiverState::default()).collect(),
            rx_buffers: (0..n_nodes).map(|_| Default::default()).collect(),
            mapper: Mapper::new(mapper_cfg),
            tx_counter: 0,
            n_nodes,
            queued: vec![0; n_nodes.div_ceil(64)],
            base_thresholds: vec![None; n_nodes],
            active: Vec::new(),
        }
    }

    /// Record whether `dst`'s retransmission queue is non-empty. Called at
    /// each of the three places the queue grows or drains.
    fn set_queued(&mut self, dst: NodeId, non_empty: bool) {
        let (word, bit) = (dst.idx() / 64, 1u64 << (dst.idx() % 64));
        if non_empty {
            self.queued[word] |= bit;
        } else {
            self.queued[word] &= !bit;
        }
    }

    /// Fill `active` with every destination whose queue is non-empty, in
    /// ascending order.
    fn collect_queued(&self, active: &mut Vec<NodeId>) {
        active.clear();
        for (w, &word) in self.queued.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                active.push(NodeId((w * 64) as u16 + bits.trailing_zeros() as u16));
                bits &= bits - 1;
            }
        }
        debug_assert!(
            active
                .iter()
                .map(|d| d.idx())
                .eq((0..self.n_nodes).filter(|&i| !self.senders[i].retrans_q.is_empty())),
            "the queue bitset disagrees with the retransmission queues"
        );
    }

    /// Protocol configuration in use.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// Mapper statistics (probe counts, mapping times).
    pub fn mapper_stats(&self) -> &crate::mapper::MapStats {
        self.mapper.stats()
    }

    /// Offer candidate routes for `dst` to the on-demand mapper (from an
    /// external planner such as `san_topo::RoutePlanner::pair_routes`). The
    /// next mapping run for `dst` verifies the candidates before falling
    /// back to exploration; see [`crate::Mapper::offer_hints`].
    pub fn offer_route_hints(&mut self, dst: NodeId, routes: Vec<Route>) {
        self.mapper.offer_hints(dst, routes);
    }

    /// Send-side state toward `dst` (for tests and reports).
    pub fn sender(&self, dst: NodeId) -> &SenderState {
        &self.senders[dst.idx()]
    }

    /// Receive-side state from `src` (for tests and reports).
    pub fn receiver(&self, src: NodeId) -> &ReceiverState {
        &self.receivers[src.idx()]
    }

    /// Total buffers parked in retransmission queues across all peers —
    /// the end-state drain check used by invariant oracles.
    pub fn unacked_total(&self) -> usize {
        self.senders.iter().map(|s| s.retrans_q.len()).sum()
    }

    /// True when every retransmission queue has drained, no destination is
    /// mid-mapping and no remap retry is pending: the firmware holds no
    /// state that still owes work.
    pub fn drained(&self) -> bool {
        self.senders
            .iter()
            .all(|s| s.retrans_q.is_empty() && !s.mapping && s.map_attempts == 0)
    }

    /// Pre-position the sequence space toward `dst` (testing hook: exercise
    /// wrap-around without sending 2³² packets). The receiving side must be
    /// positioned identically with [`ReliableFirmware::force_receiver_seq`].
    pub fn force_sender_seq(&mut self, dst: NodeId, next_seq: u32) {
        self.senders[dst.idx()].next_seq = next_seq;
    }

    /// Pre-position the expected sequence number from `src` (testing hook,
    /// pairs with [`ReliableFirmware::force_sender_seq`]).
    pub fn force_receiver_seq(&mut self, src: NodeId, expected: u32) {
        self.receivers[src.idx()].expected = expected;
    }

    /// Interval until the next periodic scan. Fixed mode: the configured
    /// timer, exactly as in the paper. Adaptive mode: the scan follows the
    /// *smallest* per-destination estimate (no backoff — backoff widens the
    /// age threshold, not the scan), so a 1 s configured timer no longer
    /// means 1 s of blindness; before any RTT sample exists the floor
    /// [`RTO_MIN`] is used, because the first samples arrive within the first
    /// round trips — long before the first loss needs detecting.
    fn scan_period(&self) -> Duration {
        if !self.cfg.adaptive_rto {
            return self.cfg.retx_timeout;
        }
        self.base_thresholds
            .iter()
            .flatten()
            .min()
            .copied()
            .unwrap_or(RTO_MIN)
    }

    /// Age past which `dst`'s queue head counts as lost. Fixed mode: the
    /// configured timer. Adaptive mode: SRTT + 4·RTTVAR clamped
    /// between [`RTO_MIN`] and [`RTO_MAX`], doubled per consecutive expiry
    /// (Karn).
    fn age_threshold(&self, dst: NodeId) -> Duration {
        if !self.cfg.adaptive_rto {
            return self.cfg.retx_timeout;
        }
        self.senders[dst.idx()]
            .rtt
            .threshold(self.cfg.retx_timeout, RTO_MIN, RTO_MAX)
    }

    fn arm_timer(&self, core: &NicCore, ctx: &mut NicCtx) {
        let node = core.node;
        // Self-pacing: the timer handler runs *on* the LANai, so the next
        // firing cannot happen before the CPU has finished everything the
        // current one queued. Without this, a 10 µs timer on a saturated
        // NIC stacks retransmission storms faster than they can execute
        // (and the event queue grows without bound).
        let at = core.cpu.free_at().max(ctx.now()) + self.scan_period();
        ctx.sim.schedule(
            at,
            san_nic::ClusterEvent::Nic(node, san_nic::NicEvent::Timer { token: TOKEN_RETX }),
        );
    }

    /// Process a cumulative acknowledgment from `peer`.
    fn process_ack(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        peer: NodeId,
        ack_seq: u32,
        ack_gen: u16,
    ) {
        core.stats.acks_rx.hit();
        core.cpu.acquire(ctx.now(), timing::ACK_PROC);
        let s = &mut self.senders[peer.idx()];
        let n_freed = s.acked_prefix(ack_seq, ack_gen, |b| {
            let p = core.pool.pkt(b);
            (p.seq, p.generation)
        });
        if n_freed > 0 {
            s.last_progress = ctx.now();
            // Karn's rule: the newest acknowledged packet yields an RTT
            // sample only if it was sequenced *after* the last go-back-N
            // replay — an ACK covering a retransmitted seq is ambiguous
            // (first copy or second?) and must not feed the estimator.
            // A clean round trip also ends any backoff episode and reopens
            // the damped window.
            let newest = s.retrans_q[n_freed - 1];
            let (newest_seq, sent_at) = (core.pool.pkt(newest).seq, core.pool.last_tx(newest));
            let clean = s.sample_eligible(newest_seq) && sent_at > Time::ZERO;
            if clean && self.cfg.adaptive_rto {
                s.rtt.sample(ctx.now().since(sent_at));
                self.base_thresholds[peer.idx()] = s.rtt.base_threshold(RTO_MIN, RTO_MAX);
            }
            for b in s.retrans_q.drain(..n_freed) {
                core.pool.release(b);
            }
            let drained = s.retrans_q.is_empty();
            ack_progress(
                s,
                clean,
                self.cfg.window_damping,
                core.pool.capacity() as u32,
            );
            if drained {
                self.set_queued(peer, false);
            }
            core.request_pump();
            if self.cfg.window_damping {
                self.fill_window(core, ctx, peer);
            }
        }
        ft_trace(
            core,
            ctx.now(),
            TraceKind::AckProcessed,
            peer,
            ack_gen,
            ack_seq,
            n_freed as u64,
        );
    }

    /// Send an explicit cumulative ACK to `to`, routed along the reverse of
    /// the path the acknowledged packet just arrived on. That path is
    /// provably fresh (the packet crossed it nanoseconds ago, and links are
    /// full duplex), whereas the receiver's own route table may be stale —
    /// the receiver has no way to notice a dead route it only uses for ACKs,
    /// because ACKs are themselves unacknowledged.
    fn send_explicit_ack(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        to: NodeId,
        reverse: Route,
        earliest: Time,
    ) {
        let r = &self.receivers[to.idx()];
        let (ack_seq, ack_gen) = (r.cumulative_ack(), r.generation);
        let route = if reverse.is_empty() {
            core.routes.get(to).unwrap_or(reverse)
        } else {
            reverse
        };
        let mut ack = Packet::new(core.node, to, PacketKind::Ack);
        ack.route = route;
        ack.ack_seq = ack_seq;
        ack.ack_gen = ack_gen;
        ack.flags.set(PacketFlags::PIGGY_ACK);
        let t = core.cpu.acquire(ctx.now(), timing::ACK_BUILD).max(earliest);
        core.stats.acks_tx.hit();
        ft_trace(
            core,
            ctx.now(),
            TraceKind::AckSent,
            to,
            ack.ack_gen,
            ack.ack_seq,
            0,
        );
        core.transmit_unpooled_from(ctx, ack, t);
        self.receivers[to.idx()].note_ack_sent();
    }

    /// Arm a per-packet expiry (AM-II ablation).
    fn arm_pkt_timer(&self, core: &NicCore, ctx: &mut NicCtx, dst: NodeId, seq: u32) {
        if !self.cfg.per_packet_timers {
            return;
        }
        let token = TOKEN_PKT_BASE | ((dst.0 as u64) << 32) | seq as u64;
        let node = core.node;
        // Same self-pacing rationale as `arm_timer`.
        let at = core.cpu.free_at().max(ctx.now()) + self.cfg.retx_timeout;
        ctx.sim.schedule(
            at,
            san_nic::ClusterEvent::Nic(node, san_nic::NicEvent::Timer { token }),
        );
    }

    /// Selective-repeat retransmission (ablation): resend every packet that
    /// has individually aged past the timeout — but, unlike go-back-N, not
    /// the packets transmitted recently. Paired with receiver buffering,
    /// retransmissions of packets the receiver already holds become cheap
    /// duplicates instead of useful redeliveries.
    fn retransmit_aged(&mut self, core: &mut NicCore, ctx: &mut NicCtx, dst: NodeId) {
        let now = ctx.now();
        let s = &self.senders[dst.idx()];
        if s.mapping || s.retrans_q.is_empty() {
            return;
        }
        if now < s.retx_busy_until {
            return;
        }
        let aged: Vec<BufId> = s
            .retrans_q
            .iter()
            .copied()
            .filter(|&b| now.since(core.pool.last_tx(b)) >= self.cfg.retx_timeout)
            .collect();
        let n = aged.len();
        for (i, b) in aged.iter().enumerate() {
            let t = core.cpu.acquire(now, timing::RETX_PER_PKT);
            if i + 1 == n {
                core.pool.pkt_mut(*b).flags.set(PacketFlags::ACK_REQUEST);
            }
            core.stats.retransmits.hit();
            let (seq, generation) = {
                let p = core.pool.pkt(*b);
                (p.seq, p.generation)
            };
            ft_trace(
                core,
                now,
                TraceKind::Retransmit,
                dst,
                generation,
                seq,
                i as u64,
            );
            core.transmit_from(ctx, *b, t);
            self.arm_pkt_timer(core, ctx, dst, seq);
        }
        if n > 0 {
            let s = &mut self.senders[dst.idx()];
            s.retx_busy_until = core.net_tx.free_at();
            // Karn's rule: resent seqs are ambiguous; only callers on the
            // timeout path reach here, so the expiry backoff widens too.
            s.karn_barrier = s.next_seq;
            if self.cfg.adaptive_rto {
                s.rtt.bump_backoff();
            }
        }
    }

    /// Retransmit the unacknowledged window to `dst`, in order, from SRAM
    /// (go-back-N). The last one requests an ACK so recovery completes even
    /// with no further traffic.
    ///
    /// `timeout` marks a loss-triggered replay (periodic scan or per-packet
    /// expiry) as opposed to an opportunistic one (path reset, fresh route
    /// after a remap): only real timeouts widen the adaptive backoff and
    /// clamp the damped window.
    fn retransmit_queue(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        dst: NodeId,
        timeout: bool,
    ) {
        let now = ctx.now();
        let s = &mut self.senders[dst.idx()];
        if s.retrans_q.is_empty() || s.mapping {
            return;
        }
        // Don't stack a second copy of the window onto the network DMA while
        // the previous retransmission round is still draining.
        if now < s.retx_busy_until {
            return;
        }
        let n = plan_replay(s, self.cfg.adaptive_rto, self.cfg.window_damping, timeout);
        let bufs: Vec<BufId> = s.retrans_q.iter().take(n).copied().collect();
        for (i, b) in bufs.iter().enumerate() {
            let t = core.cpu.acquire(now, timing::RETX_PER_PKT);
            if i + 1 == n {
                core.pool.pkt_mut(*b).flags.set(PacketFlags::ACK_REQUEST);
            }
            core.stats.retransmits.hit();
            let (seq, generation) = {
                let p = core.pool.pkt(*b);
                (p.seq, p.generation)
            };
            ft_trace(
                core,
                now,
                TraceKind::Retransmit,
                dst,
                generation,
                seq,
                i as u64,
            );
            core.transmit_from(ctx, *b, t);
            self.arm_pkt_timer(core, ctx, dst, seq);
        }
        self.senders[dst.idx()].retx_busy_until = core.net_tx.free_at();
    }

    /// Transmit parked packets (window-damping suffix) while the reopened
    /// window has room. Packets the injector or a replay never put on the
    /// wire count as first transmissions: they pass the error injector and
    /// the tx counters exactly as they would have on the normal send path.
    fn fill_window(&mut self, core: &mut NicCore, ctx: &mut NicCtx, dst: NodeId) {
        let now = ctx.now();
        loop {
            let s = &self.senders[dst.idx()];
            if s.unsent_tail == 0 || s.mapping || (s.in_flight() as u32) >= s.cwnd {
                break;
            }
            let idx = s.retrans_q.len() - s.unsent_tail;
            let b = s.retrans_q[idx];
            let s = &mut self.senders[dst.idx()];
            s.unsent_tail -= 1;
            // Request an ACK from the last packet the window lets through:
            // if the window fills right here, reopening depends on it.
            let window_edge = s.unsent_tail == 0 || (s.in_flight() as u32) >= s.cwnd;
            let first_time = core.pool.last_tx(b) == Time::ZERO;
            let t = core.cpu.acquire(now, timing::RETX_PER_PKT);
            if window_edge {
                core.pool.pkt_mut(b).flags.set(PacketFlags::ACK_REQUEST);
            }
            let (seq, generation) = {
                let p = core.pool.pkt(b);
                (p.seq, p.generation)
            };
            if first_time {
                // First trip to the wire: the paper's injector clock ticks
                // here, not at descriptor-post time.
                if injector_fires(&mut self.tx_counter, self.cfg.drop_interval) {
                    core.stats.injected_drops.hit();
                    ft_trace(core, now, TraceKind::PacketDropped, dst, generation, seq, 0);
                    core.pool.mark_tx(b, now);
                    self.arm_pkt_timer(core, ctx, dst, seq);
                    continue;
                }
                core.stats.packets_tx.hit();
            } else {
                core.stats.retransmits.hit();
                ft_trace(core, now, TraceKind::Retransmit, dst, generation, seq, 0);
            }
            core.transmit_from(ctx, b, t);
            self.arm_pkt_timer(core, ctx, dst, seq);
        }
    }

    /// Declare `dst`'s route permanently failed and start on-demand mapping.
    fn start_remap(&mut self, core: &mut NicCore, ctx: &mut NicCtx, dst: NodeId) {
        core.routes.invalidate(dst);
        self.senders[dst.idx()].mapping = true;
        self.mapper.request(core, ctx, dst);
    }

    /// Backoff before the `attempt`-th remap retry. Exponential in the
    /// attempt (so consecutive tries eventually straddle the fabric's
    /// path-reset window, which is what clears a probe deadlock), plus a
    /// deterministic per-(node, attempt) spread: perm-failure detection
    /// synchronizes every sender that lost the same switch, and identically
    /// timed retries would re-create the exact probe collision that spoiled
    /// the first verdict.
    fn remap_backoff(&self, node: NodeId, attempt: u32) -> san_sim::Duration {
        let unit = self
            .cfg
            .retx_timeout
            .max(san_sim::Duration::from_micros(100));
        let base = unit * (1u64 << attempt.min(6));
        // SplitMix64-style finalizer over (node, attempt).
        let mut h = ((node.0 as u64) << 32) ^ (attempt as u64) ^ 0x9E37_79B9_7F4A_7C15;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        base + san_sim::Duration::from_nanos(h % (unit * 4).nanos().max(1))
    }

    /// A scheduled remap retry for `dst` fired.
    fn on_remap_retry(&mut self, core: &mut NicCore, ctx: &mut NicCtx, dst: NodeId) {
        if self.senders[dst.idx()].mapping {
            // A newer mapping run is active; its outcome owns the held
            // descriptors.
            return;
        }
        let descs = self.mapper.release_descriptors(dst);
        let s = &self.senders[dst.idx()];
        if retry_is_stale(s.map_attempts, core.routes.get(dst).is_some()) {
            // Stale retry: progress resumed (acks reset the attempt count)
            // or the route came back via side discovery. The episode is
            // over, but descriptors parked in the mapper must go back to
            // the normal send path or they are lost — re-queue them; if the
            // route is still missing they re-trigger mapping as a fresh
            // episode with a fresh budget.
            if !descs.is_empty() {
                for d in descs {
                    core.pending.push_back(d);
                }
                core.request_pump();
            }
            return;
        }
        if s.retrans_q.is_empty() && descs.is_empty() {
            // Nothing owed toward dst anymore; forget the episode.
            self.senders[dst.idx()].map_attempts = 0;
            return;
        }
        for d in descs {
            self.mapper.hold_descriptor(d);
        }
        self.start_remap(core, ctx, dst);
    }

    /// Mapping finished for `dst`: either re-route + new generation, or give
    /// up and drop everything queued toward it (§4.2).
    ///
    /// `also_failed`: msg ids of descriptors the mapper was holding for
    /// `dst`, dropped along with the queue on the unreachable verdict. They
    /// are folded into the *same* failure notification as the queued and
    /// pending packets, so a message whose segments straddle the
    /// retransmission queue and the mapper's hold list still produces
    /// exactly one `SendFailed` per `msg_id`.
    fn finish_remap(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        dst: NodeId,
        route: Option<Route>,
        also_failed: Vec<u64>,
    ) {
        let s = &mut self.senders[dst.idx()];
        s.mapping = false;
        match route {
            Some(route) => {
                core.routes.set(dst, route);
                // New generation: renumber the queued window from zero and
                // retransmit it over the new route.
                s.new_generation();
                let generation = s.generation;
                let bufs: Vec<BufId> = s.retrans_q.iter().copied().collect();
                for b in &bufs {
                    let seq = s.take_seq();
                    let p = core.pool.pkt_mut(*b);
                    p.seq = seq;
                    p.generation = generation;
                    p.route = route;
                }
                s.last_progress = ctx.now();
                s.retx_busy_until = Time::ZERO;
                s.map_attempts = 0;
                s.remap_backoff_until = Time::ZERO;
                ft_trace(
                    core,
                    ctx.now(),
                    TraceKind::GenerationBump,
                    dst,
                    generation,
                    0,
                    bufs.len() as u64,
                );
                debug_assert!(also_failed.is_empty());
                self.retransmit_queue(core, ctx, dst, false);
                core.request_pump();
            }
            None => {
                // Unreachable: drop pending packets (paper: "the node is
                // labeled as unreachable and any pending packets are
                // dropped") and post error completions so the host can own
                // end-to-end recovery. The retry budget restarts — a future
                // episode (after a repair) deserves fresh evidence.
                s.map_attempts = 0;
                s.remap_backoff_until = Time::ZERO;
                let bufs: Vec<BufId> = s.retrans_q.drain(..).collect();
                s.unsent_tail = 0;
                self.set_queued(dst, false);
                let mut failed = also_failed;
                failed.reserve(bufs.len());
                for b in bufs {
                    failed.push(core.pool.pkt(b).msg_id);
                    core.pool.release(b);
                }
                core.stats.unroutable.hit();
                // Descriptors still pending toward dst are dropped too.
                failed.extend(
                    core.pending
                        .iter()
                        .filter(|d| d.dst == dst)
                        .map(|d| d.msg_id),
                );
                core.pending.retain(|d| d.dst != dst);
                notify_send_failed(core, ctx, dst, failed);
                core.request_pump();
            }
        }
    }
}

/// Post error completions to the host for sends dropped as unreachable.
/// Unconditional (not gated on `SendDesc::notify`): a host that opted out
/// of success interrupts still needs to hear about errors to own
/// end-to-end recovery.
fn notify_send_failed(core: &NicCore, ctx: &mut NicCtx, dst: NodeId, mut msg_ids: Vec<u64>) {
    msg_ids.sort_unstable();
    msg_ids.dedup();
    let seen = ctx.now() + timing::HOST_NOTIFY;
    let node = core.node;
    for msg_id in msg_ids {
        ctx.sim.schedule(
            seen,
            san_nic::ClusterEvent::Host(node, san_nic::HostEvent::SendFailed { msg_id, dst }),
        );
    }
}

impl Firmware for ReliableFirmware {
    fn name(&self) -> &'static str {
        "reliable-ft"
    }

    fn on_start(&mut self, core: &mut NicCore, ctx: &mut NicCtx) {
        debug_assert_eq!(self.n_nodes, self.senders.len());
        // The mapper is built before the NIC exists; re-home its stats onto
        // the simulation's registry now that the telemetry handle is known.
        self.mapper.register_metrics(&core.telemetry, core.node);
        self.arm_timer(core, ctx);
    }

    fn on_tx_ready(&mut self, core: &mut NicCore, ctx: &mut NicCtx, buf: BufId) {
        let now = ctx.now();
        let fw_done = core.cpu.acquire(now, timing::FT_SEND_OVERHEAD);
        let dst = core.pool.pkt(buf).dst;
        let free_frac = core.pool.free_fraction();
        let capacity = core.pool.capacity();

        // Sequence/generation assignment, ACK-request decision (sender-based
        // feedback, §4.1.2) and piggy-back selection: the shared kernel.
        let s = &mut self.senders[dst.idx()];
        let assign = tx_assign(
            s,
            &mut self.receivers[dst.idx()],
            &self.cfg.feedback,
            free_frac,
            capacity,
        );
        let (seq, generation) = (assign.seq, assign.generation);
        if s.retrans_q.is_empty() {
            // The queue was empty, so "progress" bookkeeping restarts now —
            // an idle path must not look permanently failed.
            s.last_progress = now;
        }
        s.retrans_q.push_back(buf);
        self.set_queued(dst, true);

        {
            let p = core.pool.pkt_mut(buf);
            p.seq = seq;
            p.generation = generation;
            if assign.want_ack {
                p.flags.set(PacketFlags::ACK_REQUEST);
            }
            if let Some((ack_seq, ack_gen)) = assign.piggy {
                p.flags.set(PacketFlags::PIGGY_ACK);
                p.ack_seq = ack_seq;
                p.ack_gen = ack_gen;
            }
        }
        if let Some((ack_seq, ack_gen)) = assign.piggy {
            ft_trace(core, now, TraceKind::AckSent, dst, ack_gen, ack_seq, 1);
        }

        // Window damping: if the outstanding window is full (or older
        // packets are already parked — FIFO), the packet joins the parked
        // suffix instead of the wire. It flows out via `fill_window` as
        // ACKs reopen the window; the injector clock ticks there, on its
        // real first transmission.
        if self.cfg.window_damping {
            let s = &mut self.senders[dst.idx()];
            if s.unsent_tail > 0 || (s.in_flight() as u32) > s.cwnd {
                s.unsent_tail += 1;
                return;
            }
        }

        // The paper's error injector: suppress every Nth first transmission.
        if injector_fires(&mut self.tx_counter, self.cfg.drop_interval) {
            core.stats.injected_drops.hit();
            ft_trace(core, now, TraceKind::PacketDropped, dst, generation, seq, 0);
            core.pool.mark_tx(buf, now);
            self.arm_pkt_timer(core, ctx, dst, seq);
            return; // the packet sits in the retransmission queue only
        }
        core.stats.packets_tx.hit();
        core.transmit_from(ctx, buf, fw_done);
        self.arm_pkt_timer(core, ctx, dst, seq);
    }

    fn on_tx_injected(&mut self, _core: &mut NicCore, _ctx: &mut NicCtx, _buf: BufId) {
        // The buffer stays in the retransmission queue until acknowledged.
    }

    fn on_rx(&mut self, core: &mut NicCore, ctx: &mut NicCtx, pkt: Packet) {
        let fw_done = core.cpu.acquire(ctx.now(), timing::FT_RX_OVERHEAD);
        match pkt.kind {
            PacketKind::Ack => {
                self.process_ack(core, ctx, pkt.src, pkt.ack_seq, pkt.ack_gen);
            }
            PacketKind::Data | PacketKind::Raw => {
                if pkt.flags.has(PacketFlags::PIGGY_ACK) {
                    self.process_ack(core, ctx, pkt.src, pkt.ack_seq, pkt.ack_gen);
                }
                let src = pkt.src;
                let verdict = self.receivers[src.idx()].classify(pkt.seq, pkt.generation);
                let ack_requested = pkt.flags.has(PacketFlags::ACK_REQUEST);
                let reverse = pkt.reverse_route;
                match verdict {
                    RxVerdict::Accept => {
                        core.stats.data_accepted.hit();
                        let generation = pkt.generation;
                        let deposited = core.deposit_from(ctx, pkt, fw_done);
                        // Selective ablation: drain any buffered successors
                        // that are now in order.
                        if self.cfg.selective_retransmission {
                            loop {
                                let expected = self.receivers[src.idx()].expected;
                                let Some(p) = self.rx_buffers[src.idx()].remove(&expected) else {
                                    break;
                                };
                                if self.receivers[src.idx()].classify(p.seq, generation)
                                    == RxVerdict::Accept
                                {
                                    core.stats.data_accepted.hit();
                                    core.deposit_from(ctx, p, fw_done);
                                }
                            }
                        }
                        // Explicit ACK when requested, or when the group
                        // threshold is reached with no reverse traffic to
                        // piggy-back on.
                        let group_due =
                            group_ack_due(&self.receivers[src.idx()], self.cfg.receiver_ack_every);
                        if ack_requested || group_due {
                            // Reliable *reception* (VI's strongest level)
                            // withholds the ACK until the host memory write
                            // has completed; reliable *delivery* (the
                            // paper's level) acknowledges from the NIC.
                            let earliest = if self.cfg.reliable_reception {
                                deposited
                            } else {
                                Time::ZERO
                            };
                            self.send_explicit_ack(core, ctx, src, reverse, earliest);
                        }
                    }
                    RxVerdict::Duplicate => {
                        core.stats.dup_drops.hit();
                        // Re-ACK so the sender can free its window.
                        if ack_requested {
                            self.send_explicit_ack(core, ctx, src, reverse, Time::ZERO);
                        }
                    }
                    RxVerdict::OutOfOrder => {
                        if self.cfg.selective_retransmission {
                            // Buffer within a bounded window instead of
                            // dropping (the design the paper rejects).
                            let expected = self.receivers[src.idx()].expected;
                            if pkt.seq.wrapping_sub(expected) < RX_BUFFER_WINDOW {
                                self.rx_buffers[src.idx()].insert(pkt.seq, pkt);
                            } else {
                                core.stats.ooo_drops.hit();
                            }
                        } else {
                            core.stats.ooo_drops.hit();
                            // Dropped with no buffering and no NACK (§4.1.1).
                        }
                    }
                    RxVerdict::StaleGeneration => {
                        core.stats.stale_gen_drops.hit();
                    }
                }
            }
            PacketKind::ProbeLoop | PacketKind::ProbeReply => {
                let outcome = self.mapper.on_probe_result(core, ctx, &pkt);
                self.apply_map_outcomes(core, ctx, outcome);
            }
            PacketKind::ProbeHost => {
                // Handled by the core (identity reply) before we see it.
            }
        }
    }

    fn on_timer(&mut self, core: &mut NicCore, ctx: &mut NicCtx, token: u64) {
        if token >= TOKEN_REMAP_RETRY_BASE {
            let dst = NodeId((token & 0xFFFF) as u16);
            self.on_remap_retry(core, ctx, dst);
            return;
        }
        if token >= TOKEN_PKT_BASE {
            // Per-packet expiry (AM-II ablation): the check costs CPU even
            // when the packet has long been acknowledged.
            core.stats.timer_fires.hit();
            ft_trace(
                core,
                ctx.now(),
                TraceKind::TimerFired,
                core.node,
                0,
                0,
                token,
            );
            core.cpu.acquire(ctx.now(), timing::TIMER_SCAN_BASE);
            let dst = NodeId(((token >> 32) & 0xFFFF) as u16);
            let seq = (token & 0xFFFF_FFFF) as u32;
            let s = &self.senders[dst.idx()];
            let unacked = s.retrans_q.iter().any(|&b| {
                core.pool.pkt(b).seq == seq && core.pool.pkt(b).generation == s.generation
            });
            if unacked {
                let head_age = ctx
                    .now()
                    .since(core.pool.last_tx(*s.retrans_q.front().unwrap()));
                if head_age >= self.cfg.retx_timeout {
                    if self.cfg.selective_retransmission {
                        self.retransmit_aged(core, ctx, dst);
                    } else {
                        self.retransmit_queue(core, ctx, dst, true);
                    }
                } else {
                    // Something ahead of this packet was (re)sent recently;
                    // the expiry must re-arm or the packet is orphaned.
                    self.arm_pkt_timer(core, ctx, dst, seq);
                }
            }
            return;
        }
        if token >= TOKEN_MAPPER_BASE {
            let outcome = self.mapper.on_timer(core, ctx, token);
            self.apply_map_outcomes(core, ctx, outcome);
            return;
        }
        debug_assert_eq!(token, TOKEN_RETX);
        core.stats.timer_fires.hit();
        ft_trace(
            core,
            ctx.now(),
            TraceKind::TimerFired,
            core.node,
            0,
            0,
            token,
        );
        let now = ctx.now();
        // One scan of all retransmission queues (the paper's single timer),
        // visiting the non-empty ones in ascending order.
        let mut active = std::mem::take(&mut self.active);
        self.collect_queued(&mut active);
        let scan_cost =
            timing::TIMER_SCAN_BASE + timing::TIMER_SCAN_PER_QUEUE * active.len() as u64;
        core.cpu.acquire(now, scan_cost);
        for &dst in &active {
            // Adaptive mode ages each queue against its own estimate; fixed
            // mode against the configured timer (identical to the seed).
            let threshold = self.age_threshold(dst);
            let s = &self.senders[dst.idx()];
            let head = *s.retrans_q.front().unwrap();
            let age = now.since(core.pool.last_tx(head));
            if age >= threshold {
                // Permanent-failure check first (§4): no acknowledged
                // progress for the whole threshold ⇒ remap.
                if self.cfg.enable_mapping
                    && !s.mapping
                    && now >= s.remap_backoff_until
                    && now.since(s.last_progress) >= self.cfg.perm_fail_threshold
                {
                    self.start_remap(core, ctx, dst);
                } else if self.cfg.per_packet_timers {
                    // Retransmission duty belongs to the per-packet expiries
                    // in this ablation; the periodic scan only watches for
                    // permanent failures.
                } else if self.cfg.selective_retransmission {
                    self.retransmit_aged(core, ctx, dst);
                } else {
                    self.retransmit_queue(core, ctx, dst, true);
                }
            }
        }
        self.active = active;
        self.arm_timer(core, ctx);
    }

    fn on_path_reset(&mut self, core: &mut NicCore, ctx: &mut NicCtx, pkt: Packet) {
        // The fabric dropped a stuck packet of ours (deadlock recovery). The
        // copy is still in the retransmission queue; retransmit immediately
        // rather than waiting a full timer period.
        match pkt.kind {
            PacketKind::Data | PacketKind::Raw => {
                let dst = pkt.dst;
                self.senders[dst.idx()].retx_busy_until = Time::ZERO;
                // Not a timeout: the fabric told us exactly what happened,
                // so the RTO backoff and the damped window are left alone.
                self.retransmit_queue(core, ctx, dst, false);
            }
            // A probe died in a probe-probe deadlock: silence would be
            // misread as "nothing behind that port", so resend it.
            PacketKind::ProbeHost | PacketKind::ProbeLoop => {
                self.mapper.on_path_reset(core, ctx, &pkt);
            }
            // One of our probe replies died; the prober would misread the
            // silence. Replay it as-is (route and identity are unchanged).
            PacketKind::ProbeReply => {
                let t = core.cpu.acquire(ctx.now(), timing::PROBE_PROC);
                core.stats.probe_replies_tx.hit();
                core.transmit_unpooled_from(ctx, pkt, t);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_no_route(&mut self, core: &mut NicCore, ctx: &mut NicCtx, desc: SendDesc) {
        if !self.cfg.enable_mapping {
            core.stats.unroutable.hit();
            return;
        }
        // Queue the descriptor and map on demand (§4.2: "When a NIC needs to
        // communicate with another NIC ... it starts mapping the network").
        let dst = desc.dst;
        self.mapper.hold_descriptor(desc);
        let s = &self.senders[dst.idx()];
        // During a retry backoff the scheduled retry owns the restart; the
        // descriptor just waits with the rest.
        if !s.mapping && ctx.now() >= s.remap_backoff_until {
            self.senders[dst.idx()].mapping = true;
            self.mapper.request(core, ctx, dst);
        }
    }
}

impl ReliableFirmware {
    fn apply_map_outcomes(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        outcomes: Vec<MapOutcome>,
    ) {
        for o in outcomes {
            match o {
                MapOutcome::RouteFound { dst, route } => {
                    // Install side routes discovered along the way for free.
                    if core.routes.get(dst).is_none() {
                        core.routes.set(dst, route);
                    }
                }
                MapOutcome::TargetResolved { dst, route } => {
                    let descs = self.mapper.release_descriptors(dst);
                    if route.is_some() {
                        self.finish_remap(core, ctx, dst, route, Vec::new());
                        for d in descs {
                            core.pending.push_back(d);
                        }
                        core.request_pump();
                        continue;
                    }
                    self.senders[dst.idx()].map_attempts += 1;
                    let attempt = self.senders[dst.idx()].map_attempts;
                    let owes = !self.senders[dst.idx()].retrans_q.is_empty() || !descs.is_empty();
                    match unreachable_next(attempt, owes, MAX_MAP_ATTEMPTS) {
                        UnreachableNext::Retry => {
                            // Don't believe a single silent run while traffic
                            // is still queued: keep everything and try again
                            // after a backoff (see MAX_MAP_ATTEMPTS).
                            let until = ctx.now() + self.remap_backoff(core.node, attempt);
                            let s = &mut self.senders[dst.idx()];
                            s.mapping = false;
                            s.remap_backoff_until = until;
                            for d in descs {
                                self.mapper.hold_descriptor(d);
                            }
                            ctx.sim.schedule(
                                until,
                                san_nic::ClusterEvent::Nic(
                                    core.node,
                                    san_nic::NicEvent::Timer {
                                        token: TOKEN_REMAP_RETRY_BASE | dst.0 as u64,
                                    },
                                ),
                            );
                        }
                        UnreachableNext::Accept => {
                            // Verdict confirmed across the retry budget (or
                            // nothing is queued): accept unreachable. The held
                            // descriptors are dropped with the rest of the
                            // pending traffic (re-posting them would
                            // re-trigger mapping forever). Their msg ids
                            // travel *into* `finish_remap` so a message split
                            // across the hold list and the retransmission
                            // queue fails once, not twice.
                            core.stats.unroutable.add(descs.len() as u64);
                            let held: Vec<u64> = descs.iter().map(|d| d.msg_id).collect();
                            self.finish_remap(core, ctx, dst, None, held);
                        }
                    }
                    core.request_pump();
                }
            }
        }
    }
}
