//! The cut-through traversal engine.
//!
//! A packet in flight (a `Flight`) acquires the *directed channels* along
//! its source route one hop at a time. A channel belongs to at most one
//! flight; a flight that finds its next channel busy waits in that channel's
//! FIFO **while still holding everything it already acquired** — that is
//! wormhole backpressure, and with cyclic route sets it produces genuine
//! deadlock, which the paper's design intentionally permits and recovers from
//! via the Myrinet path-reset timer plus retransmission (§4.2).
//!
//! Timing: the head moves one hop per [`HOP_LATENCY`]; serialization of the
//! packet body is paid once, starting when the first channel is acquired;
//! delivery (tail arrival) happens at
//! `max(last_hop_head_arrival, first_acquire + serialization)`; all held
//! channels release at delivery. A flight not delivered within
//! `path_reset_timeout` of injection is killed and reported to the sender as
//! a path reset — the hardware deadlock-recovery behaviour (§3.3).
//!
//! Path-reset checks: every injection owes one check at injection time plus
//! the timeout. Those deadlines arrive in order, so the engine queues them
//! FIFO and keeps only the head armed in the event queue. Each check takes
//! its sequence number at injection ([`Sim::reserve_seq`]) and is scheduled
//! under it when it reaches the head ([`Sim::schedule_reserved`]), so every
//! check — a stale one for a flight long delivered, too — pops at exactly
//! the `(time, seq)` it would have had if armed at injection.
//!
//! Fault hooks: wire loss and corruption probabilities (transient), and link
//! / switch death (permanent), under which held flights are killed silently —
//! exactly the failure the retransmission protocol must mask.

use std::collections::VecDeque;

use san_des::arena::Slab;
use san_sim::{Duration, Sim, SimRng, Time};
use san_telemetry::{Layer, Telemetry, TraceEvent, TraceKind};

use crate::fault::TransientFaults;
use crate::fingerprint::fingerprint_topology;
use crate::ids::{Endpoint, LinkId, NodeId, PortId, SwitchId};
use crate::packet::Packet;
use crate::route::{Route, MAX_HOPS};
use crate::topology::{Link, Topology, WireError};

/// Link bandwidth in bytes/second. Myrinet: 1.28 Gb/s = 160 MB/s.
pub const LINK_BANDWIDTH: u64 = 160_000_000;

/// Per-hop head latency (propagation + crossbar fall-through).
pub const HOP_LATENCY: Duration = Duration::from_nanos(300);

/// The fabric's one setting.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Send-path reset (deadlock detection) timeout. Myrinet allows 62.5 ms
    /// to 4 s; the paper's testbed uses the hardware default.
    pub path_reset_timeout: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            path_reset_timeout: Duration::from_millis(62), // ≈ Myrinet minimum 62.5ms
        }
    }
}

/// Events the engine schedules for itself. The cluster driver routes them
/// back via [`Engine::handle`].
#[derive(Debug, Clone, Copy)]
pub enum FabricEvent {
    /// The head of `flight` reached the far end of its last-acquired channel.
    HeadAdvance { flight: u32, epoch: u32 },
    /// The tail of `flight` reached the destination: delivery completes.
    TailDone { flight: u32, epoch: u32 },
    /// The oldest queued path-reset check is due (the flight and epoch it
    /// checks are at the head of the engine's check queue).
    ResetCheck,
    /// Permanent fault: a link dies.
    LinkDown { link: LinkId },
    /// Repair / reconfiguration: a link comes (back) up.
    LinkUp { link: LinkId },
    /// Permanent fault: a whole switch dies.
    SwitchDown { switch: SwitchId },
    /// Live reconfiguration: wire a new link between two free ports.
    GrowLink { a: Endpoint, b: Endpoint },
    /// Live reconfiguration: announce a planned removal — the link keeps
    /// carrying in-flight traffic but planners stop offering it.
    DrainLink { link: LinkId },
    /// Live reconfiguration: detach a link from the fabric (in-flight
    /// traffic on it is lost and recovered by retransmission).
    RemoveLink { link: LinkId },
    /// Live reconfiguration: de-rack a whole switch (all its links detach).
    RemoveSwitch { switch: SwitchId },
    /// Notification that a reconfiguration epoch completed. It carries
    /// nothing; it stays because it takes a queue sequence number, which
    /// orders every later tie.
    Reconfigured,
}

/// Uninhabited: no flight ever leaves the serial engine. Kept only because
/// `perf/src/trace.rs` names it (through [`FabricOut::ShardCross`],
/// [`Engine::inject_crossing`] and the cluster's `Portal` event) until that
/// copy of the cluster loop is deleted; the compiler proves every use of it
/// unreachable.
#[derive(Debug)]
pub enum PortalCrossing {}

/// Why a packet vanished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Tried to cross a dead link.
    DeadLink,
    /// Entered a dead switch.
    DeadSwitch,
    /// Route exits an unwired/out-of-range port, or continues past a host.
    InvalidRoute,
    /// Route bytes ran out while still inside the network.
    Absorbed,
    /// Transient wire loss (fault injection).
    WireLoss,
    /// Killed because a link/switch it occupied died.
    KilledByFault,
}

/// What the engine tells the outside world.
#[derive(Debug)]
pub enum FabricOut {
    /// `pkt` arrived in full at `node` (its `reverse_route` is filled in).
    Delivered {
        /// Destination host.
        node: NodeId,
        /// The packet, with `reverse_route` populated.
        pkt: Packet,
    },
    /// `pkt` disappeared inside the network; nobody is notified on real
    /// hardware — the output exists for statistics and tests.
    Dropped {
        /// The lost packet.
        pkt: Packet,
        /// Why.
        reason: DropReason,
    },
    /// The sender's path-reset timer fired: the packet was dropped and the
    /// sending NIC is told its send path was reset (it will retransmit).
    PathReset {
        /// The sender whose path was reset.
        src: NodeId,
        /// The packet that was stuck.
        pkt: Packet,
    },
    /// Never constructed ([`PortalCrossing`] is uninhabited). Kept only for
    /// `perf/src/trace.rs`, which matches on it.
    ShardCross(Box<PortalCrossing>),
}

/// Point-in-time fabric statistics (a snapshot of the registered
/// `fabric.*` telemetry counters; see [`Engine::stats`]).
#[derive(Debug, Default, Clone)]
pub struct EngineStats {
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Drops by cause: dead link, dead switch, invalid route, absorbed,
    /// wire loss, killed-by-fault (same order as [`DropReason`]).
    pub dropped: [u64; 6],
    /// Path resets (deadlock recoveries).
    pub path_resets: u64,
    /// Bytes delivered.
    pub bytes_delivered: u64,
}

impl EngineStats {
    /// Total drops of all causes.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }
}

impl DropReason {
    /// Metric-path leaf for this cause (`fabric.dropped.<name>`).
    pub const fn name(self) -> &'static str {
        match self {
            DropReason::DeadLink => "dead_link",
            DropReason::DeadSwitch => "dead_switch",
            DropReason::InvalidRoute => "invalid_route",
            DropReason::Absorbed => "absorbed",
            DropReason::WireLoss => "wire_loss",
            DropReason::KilledByFault => "killed_by_fault",
        }
    }
}

/// The engine's registered metric cells (`fabric.*` family).
#[derive(Debug)]
struct FabricMetrics {
    injected: san_telemetry::Counter,
    delivered: san_telemetry::Counter,
    dropped: [san_telemetry::Counter; 6],
    path_resets: san_telemetry::Counter,
    bytes_delivered: san_telemetry::Counter,
    /// Cumulative occupied time per link (`fabric.link.<n>.busy_ns`),
    /// summed over both directed channels.
    link_busy: Vec<san_telemetry::Counter>,
}

impl FabricMetrics {
    fn register(tel: &Telemetry, num_links: usize) -> Self {
        const REASONS: [DropReason; 6] = [
            DropReason::DeadLink,
            DropReason::DeadSwitch,
            DropReason::InvalidRoute,
            DropReason::Absorbed,
            DropReason::WireLoss,
            DropReason::KilledByFault,
        ];
        Self {
            injected: tel.counter("fabric.injected"),
            delivered: tel.counter("fabric.delivered"),
            dropped: REASONS.map(|r| tel.counter(&format!("fabric.dropped.{}", r.name()))),
            path_resets: tel.counter("fabric.path_resets"),
            bytes_delivered: tel.counter("fabric.bytes_delivered"),
            link_busy: (0..num_links)
                .map(|l| tel.counter(&format!("fabric.link.{l}.busy_ns")))
                .collect(),
        }
    }

    fn count_drop(&self, r: DropReason) {
        self.dropped[r as usize].hit();
    }
}

/// The live-reconfiguration metric cells (`reconfig.*` family).
#[derive(Debug)]
struct ReconfigMetrics {
    /// Reconfiguration epochs completed.
    epochs: san_telemetry::Counter,
    /// Links grown live.
    links_added: san_telemetry::Counter,
    /// Links detached live.
    links_removed: san_telemetry::Counter,
    /// Packets in flight lost to a detach (the cost a drain avoids).
    inflight_lost: san_telemetry::Counter,
    /// Drain durations: announce-to-detach time per drained link.
    drain_ns: san_telemetry::HistogramHandle,
}

impl ReconfigMetrics {
    fn register(tel: &Telemetry) -> Self {
        Self {
            epochs: tel.counter("reconfig.epochs"),
            links_added: tel.counter("reconfig.links_added"),
            links_removed: tel.counter("reconfig.links_removed"),
            inflight_lost: tel.counter("reconfig.inflight_lost"),
            drain_ns: tel.histogram("reconfig.drain_ns"),
        }
    }
}

#[derive(Debug)]
struct Channel {
    owner: Option<u32>,
    waiters: VecDeque<u32>,
    alive: bool,
    /// When the current owner acquired the channel (for busy accounting).
    acquired_at: Time,
}

/// Most channels a flight can hold, and most switches it can enter: its
/// injection link plus one per route byte. A flight whose route runs out
/// inside the network is absorbed at the switch after its last route byte,
/// the `MAX_HOPS + 1`-th at most.
const MAX_HELD: usize = MAX_HOPS + 1;

/// A packet in flight. Its channel and port records are inline arrays, so
/// injecting, advancing and retiring a flight never allocates.
#[derive(Debug)]
struct Flight {
    pkt: Packet,
    src: NodeId,
    /// Acquired channels, in acquisition order (`held[..n_held]`).
    held: [u32; MAX_HELD],
    n_held: u8,
    hop_idx: usize,
    /// Input port at each switch entered, in order (`in_ports[..n_in_ports]`);
    /// reversed, they are the delivered packet's return route.
    in_ports: [u8; MAX_HELD],
    n_in_ports: u8,
    ser_done: Time,
    waiting_on: Option<u32>,
    will_drop_on_wire: bool,
}

impl Flight {
    /// A flight at the start of its route that holds nothing yet.
    fn new(pkt: Packet, src: NodeId, will_drop_on_wire: bool) -> Self {
        Flight {
            pkt,
            src,
            held: [0; MAX_HELD],
            n_held: 0,
            hop_idx: 0,
            in_ports: [0; MAX_HELD],
            n_in_ports: 0,
            ser_done: Time::MAX, // set on first acquire
            waiting_on: None,
            will_drop_on_wire,
        }
    }

    fn held(&self) -> &[u32] {
        &self.held[..self.n_held as usize]
    }

    fn in_ports(&self) -> &[u8] {
        &self.in_ports[..self.n_in_ports as usize]
    }

    /// The channel the head crossed last.
    fn last_held(&self) -> u32 {
        *self
            .held()
            .last()
            .expect("a granted flight holds a channel")
    }

    /// Holds or waits on a channel matching `pred`.
    fn touches(&self, pred: impl Fn(u32) -> bool) -> bool {
        self.held().iter().any(|&c| pred(c)) || self.waiting_on.is_some_and(pred)
    }
}

/// The path-reset check owed to one injected flight: at `at`, under the
/// event-queue sequence number `seq` reserved at injection, kill the flight
/// if `(flight, epoch)` is still in the network.
#[derive(Debug)]
struct ResetDeadline {
    at: Time,
    seq: u64,
    flight: u32,
    epoch: u32,
}

/// The traversal engine. Owns the topology, channel occupancy, and all
/// flights.
#[derive(Debug)]
pub struct Engine {
    topo: Topology,
    cfg: EngineConfig,
    channels: Vec<Channel>,
    switch_alive: Vec<bool>,
    /// In-flight packets: stable indices + generation tags, LIFO slot reuse
    /// (identical to the hand-rolled slab this replaced, so event-epoch
    /// matching and slot-assignment order are unchanged).
    flights: Slab<Flight>,
    /// Path-reset checks not yet due, in injection order, which is also
    /// `(at, seq)` order. The head, and only the head, is armed in the
    /// event queue as a [`FabricEvent::ResetCheck`].
    reset_checks: VecDeque<ResetDeadline>,
    faults: TransientFaults,
    fault_rng: SimRng,
    /// Gilbert–Elliott channel state (true = bad) when `faults.burst` is set.
    burst_bad: bool,
    /// Per-link draining flag (planned removal announced): the link still
    /// carries traffic but planners must stop offering it.
    draining: Vec<bool>,
    /// When each draining link's drain was announced.
    drain_started: Vec<Time>,
    /// Completed reconfiguration steps (the current epoch).
    reconfig_epoch: u64,
    metrics: FabricMetrics,
    rmetrics: ReconfigMetrics,
    tel: Telemetry,
}

impl Engine {
    /// Build an engine over `topo` with all links alive, registering its
    /// metrics into a private (unexported) telemetry handle. Simulations
    /// that want the `fabric.*` family visible pass their own handle via
    /// [`Engine::with_telemetry`] (the cluster layer does this).
    pub fn new(topo: Topology, cfg: EngineConfig) -> Self {
        Self::with_telemetry(topo, cfg, Telemetry::new())
    }

    /// Build an engine registering `fabric.*` metrics into `tel` and
    /// recording trace events through it.
    pub fn with_telemetry(topo: Topology, cfg: EngineConfig, tel: Telemetry) -> Self {
        let channels = (0..topo.num_links() * 2)
            .map(|_| Channel {
                owner: None,
                waiters: VecDeque::new(),
                alive: true,
                acquired_at: Time::ZERO,
            })
            .collect();
        let switch_alive = vec![true; topo.num_switches()];
        let metrics = FabricMetrics::register(&tel, topo.num_links());
        let rmetrics = ReconfigMetrics::register(&tel);
        let num_links = topo.num_links();
        Self {
            topo,
            cfg,
            channels,
            switch_alive,
            flights: Slab::new(),
            reset_checks: VecDeque::new(),
            faults: TransientFaults::none(),
            fault_rng: SimRng::seed_from(0x00FA_B017),
            burst_bad: false,
            draining: vec![false; num_links],
            drain_started: vec![Time::ZERO; num_links],
            reconfig_epoch: 0,
            metrics,
            rmetrics,
            tel,
        }
    }

    /// The telemetry handle this engine records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Build a packet-scoped trace event at `now`; `node` is the observer.
    fn pkt_event(now: Time, kind: TraceKind, node: NodeId, pkt: &Packet, aux: u64) -> TraceEvent {
        TraceEvent {
            at_ns: now.nanos(),
            layer: Layer::Fabric,
            kind,
            node: node.0,
            src: pkt.src.0,
            dst: pkt.dst.0,
            generation: pkt.generation,
            seq: pkt.seq,
            aux,
        }
    }

    /// Count + trace + report a drop (every loss funnels through here).
    fn report_drop(
        &mut self,
        now: Time,
        pkt: Packet,
        reason: DropReason,
        out: &mut Vec<FabricOut>,
    ) {
        self.metrics.count_drop(reason);
        self.tel.record(Self::pkt_event(
            now,
            TraceKind::PacketDropped,
            pkt.src,
            &pkt,
            reason as u64,
        ));
        out.push(FabricOut::Dropped { pkt, reason });
    }

    /// The wiring.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Physical constants.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Statistics so far: a by-value snapshot of the registered `fabric.*`
    /// counters. This thin view stays because `perf/` and the `engine`
    /// study read it.
    pub fn stats(&self) -> EngineStats {
        let m = &self.metrics;
        let mut dropped = [0u64; 6];
        for (slot, c) in dropped.iter_mut().zip(&m.dropped) {
            *slot = c.get();
        }
        EngineStats {
            injected: m.injected.get(),
            delivered: m.delivered.get(),
            dropped,
            path_resets: m.path_resets.get(),
            bytes_delivered: m.bytes_delivered.get(),
        }
    }

    /// Install transient wire-fault model (loss/corruption probabilities)
    /// with a dedicated RNG seed.
    pub fn set_transient_faults(&mut self, f: TransientFaults, seed: u64) {
        self.faults = f;
        self.fault_rng = SimRng::seed_from(seed);
    }

    /// Serialization time of `bytes` on a link.
    #[inline]
    pub fn serialization(&self, bytes: u32) -> Duration {
        Duration::for_bytes(bytes as u64, LINK_BANDWIDTH)
    }

    /// Is the given link currently alive?
    pub fn link_alive(&self, l: LinkId) -> bool {
        self.channels[l.idx() * 2].alive
    }

    /// Is the given switch currently alive?
    pub fn switch_alive(&self, s: SwitchId) -> bool {
        self.switch_alive[s.idx()]
    }

    /// Alive-filter closure for route oracles.
    pub fn alive_filter(&self) -> impl Fn(LinkId) -> bool + '_ {
        |l| {
            self.link_alive(l) && {
                let link = self.topo.link(l);
                let sw_ok = |ep: Endpoint| ep.switch().is_none_or(|(s, _)| self.switch_alive(s));
                sw_ok(link.a) && sw_ok(link.b)
            }
        }
    }

    /// Number of flights currently inside the network.
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    // -- channel helpers ----------------------------------------------------

    /// Directed channel id for traversing `link` away from endpoint `from`.
    fn channel_from(&self, link: LinkId, from: Endpoint) -> u32 {
        let l = self.topo.link(link);
        let dir = if l.a == from { 0 } else { 1 };
        (link.idx() * 2 + dir) as u32
    }

    fn channel_link(&self, ch: u32) -> LinkId {
        LinkId(ch / 2)
    }

    /// Far end of directed channel `ch`.
    fn channel_dst(&self, ch: u32) -> Endpoint {
        let link = self.topo.link(self.channel_link(ch));
        if ch.is_multiple_of(2) {
            link.b
        } else {
            link.a
        }
    }

    // -- injection ----------------------------------------------------------

    /// Inject `pkt` from its `src` host at the current time. The engine
    /// draws transient wire faults, seals nothing (callers seal), and starts
    /// the head moving. Events come back through [`Engine::handle`].
    pub fn inject<E: From<FabricEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        mut pkt: Packet,
        out: &mut Vec<FabricOut>,
    ) {
        self.metrics.injected.hit();
        pkt.stamps.injected = sim.now();
        self.tel.record(Self::pkt_event(
            sim.now(),
            TraceKind::PacketInjected,
            pkt.src,
            &pkt,
            pkt.wire_bytes() as u64,
        ));
        // Transient wire faults: independent per packet, or gated by the
        // Gilbert–Elliott channel state when a burst model is configured.
        let faults_active = match self.faults.burst {
            None => true,
            Some(b) => {
                self.burst_bad = b.step(self.burst_bad, &mut self.fault_rng);
                self.burst_bad
            }
        };
        let mut will_drop = false;
        if faults_active {
            if self.faults.loss_prob > 0.0 && self.fault_rng.chance(self.faults.loss_prob) {
                will_drop = true;
            }
            if self.faults.corrupt_prob > 0.0 && self.fault_rng.chance(self.faults.corrupt_prob) {
                pkt.corrupted = true;
                self.tel.record(Self::pkt_event(
                    sim.now(),
                    TraceKind::PacketCorrupted,
                    pkt.src,
                    &pkt,
                    0,
                ));
            }
        }

        let src = pkt.src;
        let Some(first_link) = self.topo.link_at(Endpoint::Host(src)) else {
            self.report_drop(sim.now(), pkt, DropReason::InvalidRoute, out);
            return;
        };
        let (slot, epoch) = self.flights.insert(Flight::new(pkt, src, will_drop));
        // Owe the path-reset (deadlock) check; arm it if it heads the queue.
        let check = ResetDeadline {
            at: sim.now() + self.cfg.path_reset_timeout,
            seq: sim.reserve_seq(),
            flight: slot,
            epoch,
        };
        match self.reset_checks.back() {
            None => sim.schedule_reserved(check.at, check.seq, FabricEvent::ResetCheck.into()),
            Some(last) => debug_assert!(last.at <= check.at, "deadlines arrive in order"),
        }
        self.reset_checks.push_back(check);
        let ch = self.channel_from(first_link, Endpoint::Host(src));
        self.try_acquire(sim, slot, ch, out);
    }

    /// Unreachable: [`PortalCrossing`] is uninhabited. Kept only for
    /// `perf/src/trace.rs`, which calls it.
    pub fn inject_crossing<E>(
        &mut self,
        _sim: &mut Sim<E>,
        x: PortalCrossing,
        _out: &mut Vec<FabricOut>,
    ) {
        match x {}
    }

    // -- event handling -----------------------------------------------------

    /// Process one fabric event.
    pub fn handle<E: From<FabricEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        ev: FabricEvent,
        out: &mut Vec<FabricOut>,
    ) {
        match ev {
            FabricEvent::HeadAdvance { flight, epoch } => {
                if self.live(flight, epoch) {
                    self.head_advance(sim, flight, out);
                }
            }
            FabricEvent::TailDone { flight, epoch } => {
                if self.live(flight, epoch) {
                    self.finish_delivery(sim, flight, out);
                }
            }
            FabricEvent::ResetCheck => {
                let ResetDeadline { flight, epoch, .. } = self
                    .reset_checks
                    .pop_front()
                    .expect("an armed check heads the queue");
                if let Some(next) = self.reset_checks.front() {
                    sim.schedule_reserved(next.at, next.seq, FabricEvent::ResetCheck.into());
                }
                if self.live(flight, epoch) {
                    self.metrics.path_resets.hit();
                    let f = self.kill_flight(sim, flight);
                    self.tel.record(Self::pkt_event(
                        sim.now(),
                        TraceKind::PathReset,
                        f.src,
                        &f.pkt,
                        0,
                    ));
                    out.push(FabricOut::PathReset {
                        src: f.src,
                        pkt: f.pkt,
                    });
                }
            }
            FabricEvent::LinkDown { link } => self.set_link_alive(sim, link, false, out),
            FabricEvent::LinkUp { link } => self.set_link_alive(sim, link, true, out),
            FabricEvent::SwitchDown { switch } => self.kill_switch(sim, switch, out),
            FabricEvent::GrowLink { a, b } => {
                // A refused grow (port raced into use) is not an engine
                // error: the campaign scheduled it against stale wiring.
                let _ = self.grow_link(sim, a, b, out);
            }
            FabricEvent::DrainLink { link } => self.drain_link(sim, link),
            FabricEvent::RemoveLink { link } => {
                let _ = self.shrink_link(sim, link, out);
            }
            FabricEvent::RemoveSwitch { switch } => {
                let _ = self.shrink_switch(sim, switch, out);
            }
            // Pure notification: the mutation that produced it already ran.
            FabricEvent::Reconfigured => {}
        }
    }

    fn live(&self, flight: u32, epoch: u32) -> bool {
        self.flights.contains(flight, epoch)
    }

    /// Try to take channel `ch` for `flight`; on success the head starts
    /// crossing it, otherwise the flight queues on the channel.
    fn try_acquire<E: From<FabricEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        flight: u32,
        ch: u32,
        out: &mut Vec<FabricOut>,
    ) {
        if !self.channels[ch as usize].alive {
            let f = self.kill_flight(sim, flight);
            self.report_drop(sim.now(), f.pkt, DropReason::DeadLink, out);
            return;
        }
        let c = &mut self.channels[ch as usize];
        if c.owner.is_none() {
            c.owner = Some(flight);
            self.grant(sim, flight, ch);
        } else {
            c.waiters.push_back(flight);
            self.flights.get_mut(flight).unwrap().waiting_on = Some(ch);
        }
    }

    /// `flight` now owns `ch`: start the head across it.
    fn grant<E: From<FabricEvent>>(&mut self, sim: &mut Sim<E>, flight: u32, ch: u32) {
        let epoch = self.flights.generation(flight);
        let now = sim.now();
        self.channels[ch as usize].acquired_at = now;
        let f = self.flights.get_mut(flight).unwrap();
        f.waiting_on = None;
        f.held[f.n_held as usize] = ch;
        f.n_held += 1;
        if f.n_held == 1 {
            // First channel: the body starts streaming now.
            f.ser_done = now + Duration::for_bytes(f.pkt.wire_bytes() as u64, LINK_BANDWIDTH);
        }
        sim.schedule_in(
            HOP_LATENCY,
            FabricEvent::HeadAdvance { flight, epoch }.into(),
        );
    }

    /// The head arrived at the far end of its last-acquired channel.
    fn head_advance<E: From<FabricEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        flight: u32,
        out: &mut Vec<FabricOut>,
    ) {
        let last_ch = self.flights.get(flight).expect("live flight").last_held();
        let at = self.channel_dst(last_ch);
        match at {
            Endpoint::Host(_h) => {
                let (hop_idx, route_len, ser_done) = {
                    let f = self.flights.get(flight).unwrap();
                    (f.hop_idx, f.pkt.route.len(), f.ser_done)
                };
                if hop_idx < route_len {
                    // Route bytes left over after reaching a host: invalid.
                    let f = self.kill_flight(sim, flight);
                    self.report_drop(sim.now(), f.pkt, DropReason::InvalidRoute, out);
                    return;
                }
                // Tail arrives when serialization completes (cut-through).
                let epoch = self.flights.generation(flight);
                let t = sim.now().max(ser_done);
                sim.schedule(t, FabricEvent::TailDone { flight, epoch }.into());
            }
            Endpoint::Switch(s, in_port) => {
                if !self.switch_alive[s.idx()] {
                    let f = self.kill_flight(sim, flight);
                    self.report_drop(sim.now(), f.pkt, DropReason::DeadSwitch, out);
                    return;
                }
                let (hop_idx, route_len) = {
                    let f = self.flights.get_mut(flight).unwrap();
                    f.in_ports[f.n_in_ports as usize] = in_port.0;
                    f.n_in_ports += 1;
                    (f.hop_idx, f.pkt.route.len())
                };
                if hop_idx >= route_len {
                    // Route exhausted inside the network: absorbed.
                    let f = self.kill_flight(sim, flight);
                    self.report_drop(sim.now(), f.pkt, DropReason::Absorbed, out);
                    return;
                }
                let port = self.flights.get(flight).unwrap().pkt.route.hop(hop_idx);
                self.flights.get_mut(flight).unwrap().hop_idx += 1;
                if port >= self.topo.switch_ports(s) {
                    let f = self.kill_flight(sim, flight);
                    self.report_drop(sim.now(), f.pkt, DropReason::InvalidRoute, out);
                    return;
                }
                let Some(link) = self.topo.link_at(Endpoint::Switch(s, PortId(port))) else {
                    let f = self.kill_flight(sim, flight);
                    self.report_drop(sim.now(), f.pkt, DropReason::InvalidRoute, out);
                    return;
                };
                // Hop trace: observer is the switch (aux = exit port).
                let ev = {
                    let f = self.flights.get(flight).unwrap();
                    Self::pkt_event(
                        sim.now(),
                        TraceKind::PacketHop,
                        NodeId(s.idx() as u16),
                        &f.pkt,
                        port as u64,
                    )
                };
                self.tel.record(ev);
                let ch = self.channel_from(link, Endpoint::Switch(s, PortId(port)));
                self.try_acquire(sim, flight, ch, out);
            }
        }
    }

    /// Tail reached the destination: release everything and deliver.
    fn finish_delivery<E: From<FabricEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        flight: u32,
        out: &mut Vec<FabricOut>,
    ) {
        let last_ch = self.flights.get(flight).expect("live flight").last_held();
        let dest = self.channel_dst(last_ch);
        let mut f = self.take_flight(flight);
        self.release_held(sim, &f);
        let node = dest.host().expect("finish_delivery at a non-host");
        // Build the usable return route: reversed input ports.
        let mut rev = Route::empty();
        for &p in f.in_ports().iter().rev() {
            rev = rev.then(p);
        }
        f.pkt.reverse_route = rev;
        f.pkt.stamps.delivered = sim.now();
        if f.will_drop_on_wire {
            self.report_drop(sim.now(), f.pkt, DropReason::WireLoss, out);
        } else {
            self.metrics.delivered.hit();
            self.metrics.bytes_delivered.add(f.pkt.payload_len as u64);
            self.tel.record(Self::pkt_event(
                sim.now(),
                TraceKind::PacketDelivered,
                node,
                &f.pkt,
                f.pkt.payload_len as u64,
            ));
            out.push(FabricOut::Delivered { node, pkt: f.pkt });
        }
    }

    /// Remove a flight, releasing channels and wait-queue membership.
    /// Returns the flight so callers can report its packet.
    fn kill_flight<E: From<FabricEvent>>(&mut self, sim: &mut Sim<E>, flight: u32) -> Flight {
        let mut f = self.take_flight(flight);
        if let Some(ch) = f.waiting_on.take() {
            self.channels[ch as usize].waiters.retain(|&w| w != flight);
        }
        self.release_held(sim, &f);
        f
    }

    fn take_flight(&mut self, flight: u32) -> Flight {
        self.flights.remove(flight).expect("flight gone")
    }

    /// Free all channels a (removed) flight holds, granting each to its
    /// next waiter.
    fn release_held<E: From<FabricEvent>>(&mut self, sim: &mut Sim<E>, f: &Flight) {
        let now = sim.now();
        for &ch in f.held() {
            let busy = now.since(self.channels[ch as usize].acquired_at);
            self.metrics.link_busy[(ch / 2) as usize].add(busy.nanos());
            self.channels[ch as usize].owner = None;
            // Grant to the next live waiter.
            while let Some(w) = self.channels[ch as usize].waiters.pop_front() {
                if self.flights.get(w).is_some() {
                    self.channels[ch as usize].owner = Some(w);
                    self.grant(sim, w, ch);
                    break;
                }
            }
        }
    }

    // -- permanent faults ---------------------------------------------------

    /// Change a link's liveness. Bringing a link down kills every flight
    /// holding either of its channels (their data is lost on the wire).
    pub fn set_link_alive<E: From<FabricEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        link: LinkId,
        alive: bool,
        out: &mut Vec<FabricOut>,
    ) {
        for dir in 0..2 {
            self.channels[link.idx() * 2 + dir].alive = alive;
        }
        if !alive {
            self.kill_flights_on(sim, |held_ch| LinkId(held_ch / 2) == link, out);
        }
    }

    /// Kill a switch: all its links' channels die with it.
    pub fn kill_switch<E: From<FabricEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        s: SwitchId,
        out: &mut Vec<FabricOut>,
    ) {
        self.switch_alive[s.idx()] = false;
        let dead_links: Vec<LinkId> = self
            .topo
            .links()
            .filter(|(_, l)| {
                [l.a, l.b]
                    .iter()
                    .any(|ep| ep.switch().is_some_and(|(sw, _)| sw == s))
            })
            .map(|(id, _)| id)
            .collect();
        for l in &dead_links {
            for dir in 0..2 {
                self.channels[l.idx() * 2 + dir].alive = false;
            }
        }
        self.kill_flights_on(sim, |ch| dead_links.contains(&LinkId(ch / 2)), out);
    }

    fn kill_flights_on<E: From<FabricEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        pred: impl Fn(u32) -> bool,
        out: &mut Vec<FabricOut>,
    ) {
        let victims: Vec<u32> = self
            .flights
            .iter()
            .filter_map(|(i, fl)| fl.touches(&pred).then_some(i))
            .collect();
        for v in victims {
            if self.flights.get(v).is_some() {
                let f = self.kill_flight(sim, v);
                self.report_drop(sim.now(), f.pkt, DropReason::KilledByFault, out);
            }
        }
    }

    // -- live reconfiguration -----------------------------------------------

    /// The reconfiguration epoch: how many wiring mutations have completed.
    /// Drivers poll this between slices and re-plan when it advances.
    pub fn reconfig_epoch(&self) -> u64 {
        self.reconfig_epoch
    }

    /// Is this link marked draining (planned removal announced)?
    pub fn link_draining(&self, l: LinkId) -> bool {
        self.draining.get(l.idx()).copied().unwrap_or(false)
    }

    /// Candidate filter for route planners: alive **and not draining**.
    /// In-flight traffic still crosses a draining link ([`Engine::alive_filter`]
    /// stays true for it); only *new* route offers avoid it.
    pub fn planner_filter(&self) -> impl Fn(LinkId) -> bool + '_ {
        let alive = self.alive_filter();
        move |l| alive(l) && !self.link_draining(l)
    }

    /// Flights currently holding or waiting on a channel matching `pred`.
    fn count_flights_on(&self, pred: impl Fn(u32) -> bool) -> u64 {
        self.flights
            .iter()
            .filter(|(_, fl)| fl.touches(&pred))
            .count() as u64
    }

    /// Seal one wiring mutation: advance the epoch, record the trace
    /// event with the new fingerprint, and emit a
    /// [`FabricEvent::Reconfigured`] notification at the current instant.
    fn finish_reconfig<E: From<FabricEvent>>(&mut self, sim: &mut Sim<E>) -> u64 {
        self.reconfig_epoch += 1;
        let epoch = self.reconfig_epoch;
        self.rmetrics.epochs.hit();
        self.tel.record(TraceEvent {
            at_ns: sim.now().nanos(),
            layer: Layer::Fabric,
            kind: TraceKind::Reconfig,
            node: 0,
            src: 0,
            dst: 0,
            generation: 0,
            seq: epoch as u32,
            aux: fingerprint_topology(&self.topo),
        });
        let now = sim.now();
        sim.schedule(now, FabricEvent::Reconfigured.into());
        epoch
    }

    /// Grow per-link state (channels, busy counters, drain flags) to cover
    /// the current link id space, and reset the pair for a (re)wired id.
    fn provision_link_state(&mut self, id: LinkId) {
        while self.channels.len() < self.topo.num_links() * 2 {
            self.channels.push(Channel {
                owner: None,
                waiters: VecDeque::new(),
                alive: true,
                acquired_at: Time::ZERO,
            });
        }
        while self.metrics.link_busy.len() < self.topo.num_links() {
            let l = self.metrics.link_busy.len();
            self.metrics
                .link_busy
                .push(self.tel.counter(&format!("fabric.link.{l}.busy_ns")));
        }
        self.draining.resize(self.topo.num_links(), false);
        self.drain_started.resize(self.topo.num_links(), Time::ZERO);
        for dir in 0..2 {
            let c = &mut self.channels[id.idx() * 2 + dir];
            debug_assert!(c.owner.is_none(), "revived channel still owned");
            c.owner = None;
            c.waiters.clear();
            c.alive = true;
            c.acquired_at = Time::ZERO;
        }
        self.draining[id.idx()] = false;
    }

    /// Live link addition: wire two free ports, provision channel and
    /// metric state for the (possibly reused) id, and seal the epoch.
    /// Traffic can cross the new link from this instant on.
    pub fn grow_link<E: From<FabricEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        a: Endpoint,
        b: Endpoint,
        _out: &mut Vec<FabricOut>,
    ) -> Result<LinkId, WireError> {
        let id = self.topo.try_connect(a, b)?;
        self.provision_link_state(id);
        self.rmetrics.links_added.hit();
        self.finish_reconfig(sim);
        Ok(id)
    }

    /// Announce a planned removal: the link keeps carrying in-flight
    /// traffic, but [`Engine::planner_filter`] stops offering it. A later
    /// [`Engine::shrink_link`] completes the removal and records the drain
    /// duration.
    pub fn drain_link<E: From<FabricEvent>>(&mut self, sim: &mut Sim<E>, link: LinkId) {
        if self.topo.try_link(link).is_none() || self.draining[link.idx()] {
            return;
        }
        self.draining[link.idx()] = true;
        self.drain_started[link.idx()] = sim.now();
    }

    /// Live link removal: kill whatever is still in flight on the link
    /// (counted as `reconfig.inflight_lost` — zero for a completed drain),
    /// detach it from the topology, and seal the epoch. The freed link id
    /// goes back on the LIFO stack for future grows.
    pub fn shrink_link<E: From<FabricEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        link: LinkId,
        out: &mut Vec<FabricOut>,
    ) -> Option<Link> {
        self.topo.try_link(link)?;
        let lost = self.count_flights_on(|ch| LinkId(ch / 2) == link);
        self.rmetrics.inflight_lost.add(lost);
        self.set_link_alive(sim, link, false, out);
        if self.draining[link.idx()] {
            self.rmetrics
                .drain_ns
                .record(sim.now().since(self.drain_started[link.idx()]));
            self.draining[link.idx()] = false;
        }
        let gone = self.topo.disconnect(link);
        self.rmetrics.links_removed.hit();
        self.finish_reconfig(sim);
        Some(gone)
    }

    /// Live switch removal: detach every incident link (in-flight traffic
    /// on them is lost and counted), then seal a single epoch covering the
    /// whole de-rack. The switch record remains with zero wired ports.
    /// Returns the sealed epoch (0 if the switch had no wired links).
    pub fn shrink_switch<E: From<FabricEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        s: SwitchId,
        out: &mut Vec<FabricOut>,
    ) -> u64 {
        let incident: Vec<LinkId> = self
            .topo
            .links()
            .filter(|(_, l)| {
                [l.a, l.b]
                    .iter()
                    .any(|ep| ep.switch().is_some_and(|(sw, _)| sw == s))
            })
            .map(|(id, _)| id)
            .collect();
        if incident.is_empty() {
            return 0;
        }
        let lost = self.count_flights_on(|ch| incident.contains(&LinkId(ch / 2)));
        self.rmetrics.inflight_lost.add(lost);
        for &link in &incident {
            self.set_link_alive(sim, link, false, out);
            if self.draining[link.idx()] {
                self.rmetrics
                    .drain_ns
                    .record(sim.now().since(self.drain_started[link.idx()]));
                self.draining[link.idx()] = false;
            }
            self.topo.disconnect(link);
            self.rmetrics.links_removed.hit();
        }
        self.finish_reconfig(sim)
    }
}
