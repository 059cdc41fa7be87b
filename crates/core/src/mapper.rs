//! On-demand network mapping (§4.2).
//!
//! A NIC that needs a route — because it never had one, or because a path
//! stopped making progress for the permanent-failure threshold — explores
//! the network *from itself, only as far as needed*, with two probe kinds:
//!
//! * **Host probes** (`ProbeHost`): source-routed out of a switch port; any
//!   host at the end replies with its identity over the recorded reverse
//!   route. Finding the target host ends the run immediately.
//! * **Loop probes** (`ProbeLoop`): routes of the form
//!   `route_to(S) + [p, q] + reverse_from(S)` that return to the prober iff
//!   port `p` of `S` hides a switch whose port `q` leads back to `S`. A hit
//!   simultaneously proves the switch exists and yields a usable
//!   `reverse_from` for it — the inductive step that keeps the whole
//!   exploration possible with pure source routing (after Mainwaring et
//!   al.'s SAN mapping [22]). Because Myrinet switches carry no identity,
//!   a hit is followed by a **signature scan** — host probes on every port of
//!   the candidate. The per-port host population is the switch's identity:
//!   anonymous switches are told apart by who hangs off them, which is
//!   robust where pure loop-probe identity (`route_to(candidate) +
//!   reverse_from(K)`) has false positives in cyclic fabrics. The loop
//!   check remains as the fallback for host-less transit switches.
//!
//! Probes of a phase are pipelined and share one timeout window; silence is
//! informative (an unwired port, a dead link, a missing switch all look the
//! same: no reply). The discovered partial map is *not* required to be
//! deadlock-free — recovery is the retransmission protocol's job.

use std::collections::{HashMap, VecDeque};

use san_fabric::route::MAX_HOPS;
use san_fabric::{NodeId, Packet, PacketKind, Route, RouteHints};
use san_nic::{timing, ClusterEvent, NicCore, NicCtx, NicEvent, SendDesc};
use san_sim::{Duration, Time};
use san_telemetry::{Counter, SummaryHandle, Telemetry, TraceKind};

use crate::config::MapperConfig;
use crate::firmware::TOKEN_MAPPER_BASE;
use crate::ft_trace;

/// What a finished (or progressing) mapping run tells the firmware.
#[derive(Debug)]
pub enum MapOutcome {
    /// A host (not necessarily the target) was located; its route can be
    /// cached for free.
    RouteFound {
        /// The host.
        dst: NodeId,
        /// Route from this NIC to it.
        route: Route,
    },
    /// The mapping run for `dst` ended: `Some(route)` on success, `None`
    /// when the destination is unreachable.
    TargetResolved {
        /// The requested destination.
        dst: NodeId,
        /// The discovered route, if any.
        route: Option<Route>,
    },
}

/// Mapping statistics (Table 3's columns).
#[derive(Debug, Default, Clone)]
pub struct MapStats {
    /// Mapping runs started.
    pub runs: Counter,
    /// Runs that found the target.
    pub resolved: Counter,
    /// Runs that declared the target unreachable.
    pub unreachable: Counter,
    /// Host probes sent (all runs).
    pub host_probes: Counter,
    /// Switch (loop + identity) probes sent (all runs).
    pub switch_probes: Counter,
    /// Runs resolved by a planner-supplied hint route (no exploration).
    pub hint_resolved: Counter,
    /// Deep (two-hop) signature scans performed (all runs).
    pub deep_scans: Counter,
    /// Strategy id of the most recently consumed hint set (`""` = none).
    pub last_hint_strategy: &'static str,
    /// Planner epoch of the most recently consumed hint set.
    pub last_hint_epoch: u64,
    /// Whether the most recently consumed hint set was a planner-cache hit.
    pub last_hint_cache_hit: bool,
    /// Host probes in the most recent completed run.
    pub last_host_probes: u64,
    /// Switch probes in the most recent completed run.
    pub last_switch_probes: u64,
    /// Mapping time of the most recent completed run (ms).
    pub last_time_ms: f64,
    /// Distribution of mapping times (ms).
    pub times_ms: SummaryHandle,
}

impl MapStats {
    /// Stats whose cells are registered in `tel` under
    /// `ft.node.<n>.map.*`. Scalar "most recent run" fields are not
    /// registry material and stay local.
    pub fn registered(tel: &Telemetry, node: NodeId) -> Self {
        let m = |leaf: &str| format!("ft.node.{}.map.{leaf}", node.0);
        Self {
            runs: tel.counter(&m("runs")),
            resolved: tel.counter(&m("resolved")),
            unreachable: tel.counter(&m("unreachable")),
            host_probes: tel.counter(&m("host_probes")),
            switch_probes: tel.counter(&m("switch_probes")),
            hint_resolved: tel.counter(&m("hint_resolved")),
            deep_scans: tel.counter(&m("deep_scans")),
            last_hint_strategy: "",
            last_hint_epoch: 0,
            last_hint_cache_hit: false,
            last_host_probes: 0,
            last_switch_probes: 0,
            last_time_ms: 0.0,
            times_ms: tel.summary(&m("times_ms")),
        }
    }
}

#[derive(Debug)]
struct KnownSwitch {
    route_to: Route,
    reverse_from: Route,
    explored_hosts: bool,
    candidates: Vec<u8>,
    /// Which host (if any) answered on each port — the switch's *identity
    /// signature*. Myrinet switches are anonymous, but the hosts hanging off
    /// them are not: two sightings with different host signatures are
    /// provably different switches, which is what defeats the
    /// reverse-route false positives cyclic fabrics can produce.
    signature: Vec<Option<NodeId>>,
    /// Two-hop host signature (`max_ports × max_ports`, row-major by
    /// `(p, q)`), taken only when the depth-1 signature was all-silent and
    /// `deep_signatures` is on. `None` = never scanned. The full matrix is
    /// a property of the switch alone — every port is probed, including
    /// the one leading back to the discoverer — so two sightings of the
    /// same switch through different redundant links compare equal.
    deep_signature: Option<Vec<Option<NodeId>>>,
}

#[derive(Debug, Clone, Copy)]
enum ProbeTag {
    /// Host probe along a planner-supplied candidate route (hint phase).
    HintAt {
        i: usize,
    },
    HostAt {
        idx: usize,
        port: u8,
    },
    /// Host probe through a switch candidate's port (signature scan).
    SigAt {
        port: u8,
    },
    /// Host probe two hops out of a switch candidate — through its port
    /// `p`, then the neighbour's port `q` (deep-signature scan).
    DeepSigAt {
        p: u8,
        q: u8,
    },
    LoopQ {
        q: u8,
    },
    IdentityOf {
        k: usize,
    },
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Verify planner-supplied candidate routes before any exploration: one
    /// host probe per candidate; the target answering ends the run at
    /// hint-probe cost. Silence on all of them falls back to [`Phase::Hosts`]
    /// from scratch.
    Hint,
    Hosts {
        idx: usize,
    },
    Expand {
        idx: usize,
        port: u8,
    },
    /// Host-signature scan of a switch candidate found behind
    /// `switches[parent]` port `port` (its own back-port is `back`).
    Signature {
        parent: usize,
        port: u8,
        back: u8,
    },
    /// Two-hop host-signature scan of a candidate whose depth-1 signature
    /// was all-silent (`deep_signatures` on): hosts two hops out identify
    /// aggregation-layer switches that depth-1 scans cannot tell apart —
    /// the fat-tree core-aliasing fix.
    DeepSignature {
        parent: usize,
        port: u8,
        back: u8,
    },
    /// Legacy loop-probe identity check, used only when the candidate's
    /// signature is host-less and therefore non-discriminating (at every
    /// scanned depth).
    Identity {
        parent: usize,
        port: u8,
        back: u8,
    },
}

#[derive(Debug)]
struct MapRun {
    target: NodeId,
    started: Time,
    host_probes: u64,
    switch_probes: u64,
    switches: Vec<KnownSwitch>,
    phase: Phase,
    batch: u64,
    outstanding: HashMap<u64, ProbeTag>,
    loop_hits: Vec<u8>,
    identity_hits: Vec<usize>,
    /// Per-port replies of the phase in progress (Hosts / Signature).
    sig_scratch: Vec<Option<NodeId>>,
    /// Per-port-pair replies of a deep-signature scan in progress,
    /// row-major by `(p, q)`.
    deep_scratch: Vec<Option<NodeId>>,
    my_port: Option<u8>,
    /// The candidate routes of the hint phase, by probe index.
    hint_routes: Vec<Route>,
    /// Loop probes of the current phase not yet on the wire (paced by
    /// `loop_probe_window`); drained one window-full per batch deadline.
    pending: VecDeque<(PacketKind, Route, ProbeTag)>,
    /// Probes of the current phase killed by the fabric's path-reset timer,
    /// in kill order (= injection order: the first entry is the worm that
    /// wedged, the rest were queued behind it). Deep-signature mode only;
    /// resent rotated at the next patience deadline.
    reset_victims: Vec<(PacketKind, Route, ProbeTag)>,
    /// How many times each probe route has been path-reset this run. A
    /// route that keeps wedging is retracing a channel its own worm holds
    /// (a *self*-deadlock): it can never complete and is dropped — silence
    /// is its true answer — after [`MAX_PROBE_RESETS`] attempts.
    reset_counts: HashMap<Route, u8>,
}

/// A probe path-reset this many times is a self-deadlocking route: give up.
const MAX_PROBE_RESETS: u8 = 3;

/// How long to wait for a batch of probes before concluding silence.
const PROBE_TIMEOUT: Duration = Duration::from_micros(400);

/// Batch deadline used instead of [`PROBE_TIMEOUT`] when
/// `MapperConfig::deep_signatures` is on. Multi-hop probes into unknown
/// wiring can revisit a channel their own worm still holds — a
/// *self*-deadlock no pacing avoids — and the fabric only clears it at the
/// path-reset timer (~62 ms). Probes queued behind the wedge are killed by
/// their own reset timers and retransmitted; their outcomes arrive one reset
/// period late, so the phase deadline must outlast the reset timer or the
/// late answers are misread as silence. Must exceed the fabric's
/// `path_reset_timeout` (62 ms by default).
const PROBE_PATIENCE: Duration = Duration::from_millis(64);

/// The on-demand mapper of one NIC.
#[derive(Debug)]
pub struct Mapper {
    cfg: MapperConfig,
    run: Option<MapRun>,
    waiting: VecDeque<NodeId>,
    held: HashMap<NodeId, Vec<SendDesc>>,
    /// Host probes still in flight when their run ended early (target found
    /// before the batch deadline): a late reply still names a host and its
    /// route — free knowledge worth caching.
    late_probes: HashMap<u64, Route>,
    /// Planner-supplied candidate routes with provenance, consumed by the
    /// next run for their destination (see [`Mapper::offer_hints`]).
    hints: HashMap<NodeId, RouteHints>,
    next_token: u64,
    next_batch: u64,
    stats: MapStats,
}

impl Mapper {
    /// A mapper with no knowledge.
    pub fn new(cfg: MapperConfig) -> Self {
        Self {
            cfg,
            run: None,
            waiting: VecDeque::new(),
            held: HashMap::new(),
            late_probes: HashMap::new(),
            hints: HashMap::new(),
            next_token: 1,
            next_batch: 1,
            stats: MapStats::default(),
        }
    }

    /// Statistics.
    pub fn stats(&self) -> &MapStats {
        &self.stats
    }

    /// Re-home this mapper's stats onto cells registered in `tel` under
    /// `ft.node.<n>.map.*`. Called by the firmware at cluster start,
    /// before any mapping run, so no counts are lost in the swap.
    pub fn register_metrics(&mut self, tel: &Telemetry, node: NodeId) {
        self.stats = MapStats::registered(tel, node);
    }

    /// Is a run in progress?
    pub fn active(&self) -> bool {
        self.run.is_some()
    }

    /// Park a descriptor until its destination's mapping resolves.
    pub fn hold_descriptor(&mut self, desc: SendDesc) {
        self.held.entry(desc.dst).or_default().push(desc);
    }

    /// Offer candidate routes for `dst` from an external planner (e.g. the
    /// `topo` crate's route cache), with provenance: which strategy planned
    /// them, at which planner epoch, and whether they came out of a warm
    /// cache (recorded in [`MapStats`] when the run consumes them). The
    /// next mapping run for `dst` verifies them with one host probe each
    /// *before* exploring: a live candidate resolves the run at hint cost,
    /// all-silent falls back to the normal exploration. Candidates are
    /// consumed by that run; routes longer than the source-route budget are
    /// dropped here.
    pub fn offer_hints(&mut self, dst: NodeId, hints: RouteHints) {
        let routes: Vec<Route> = hints
            .routes
            .iter()
            .copied()
            .filter(|r| r.len() <= MAX_HOPS)
            .collect();
        if routes.is_empty() {
            self.hints.remove(&dst);
        } else {
            self.hints.insert(dst, RouteHints { routes, ..hints });
        }
    }

    /// Take back the descriptors parked for `dst`.
    pub fn release_descriptors(&mut self, dst: NodeId) -> Vec<SendDesc> {
        self.held.remove(&dst).unwrap_or_default()
    }

    /// Ask for a route to `dst`. Runs immediately if idle, else queues.
    pub fn request(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        dst: NodeId,
    ) -> Vec<MapOutcome> {
        if self.run.is_some() {
            if !self.waiting.contains(&dst) {
                self.waiting.push_back(dst);
            }
            return Vec::new();
        }
        self.begin_run(core, ctx, dst);
        Vec::new()
    }

    fn begin_run(&mut self, core: &mut NicCore, ctx: &mut NicCtx, dst: NodeId) {
        self.stats.runs.hit();
        self.run = Some(MapRun {
            target: dst,
            started: ctx.now(),
            host_probes: 0,
            switch_probes: 0,
            switches: vec![KnownSwitch {
                route_to: Route::empty(),
                reverse_from: Route::empty(), // filled when we find ourselves
                explored_hosts: false,
                candidates: Vec::new(),
                signature: Vec::new(),
                deep_signature: None,
            }],
            phase: Phase::Hosts { idx: 0 },
            batch: 0,
            outstanding: HashMap::new(),
            loop_hits: Vec::new(),
            identity_hits: Vec::new(),
            sig_scratch: Vec::new(),
            deep_scratch: Vec::new(),
            my_port: None,
            hint_routes: Vec::new(),
            pending: VecDeque::new(),
            reset_victims: Vec::new(),
            reset_counts: HashMap::new(),
        });
        match self.hints.remove(&dst) {
            Some(h) => {
                self.stats.last_hint_strategy = h.strategy;
                self.stats.last_hint_epoch = h.epoch;
                self.stats.last_hint_cache_hit = h.cache_hit;
                self.start_hint_phase(core, ctx, h.routes)
            }
            None => self.start_hosts_phase(core, ctx, 0),
        }
    }

    // -- probe emission -----------------------------------------------------

    fn send_probe(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        kind: PacketKind,
        route: Route,
        tag: ProbeTag,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        let run = self.run.as_mut().expect("probe outside a run");
        run.outstanding.insert(token, tag);
        match kind {
            PacketKind::ProbeHost => {
                run.host_probes += 1;
                self.stats.host_probes.hit();
            }
            PacketKind::ProbeLoop => {
                run.switch_probes += 1;
                self.stats.switch_probes.hit();
            }
            _ => unreachable!("not a probe kind"),
        }
        let mut p = Packet::new(core.node, core.node, kind);
        p.route = route;
        p.msg_id = token;
        p.payload_len = 8;
        let t = core.cpu.acquire(ctx.now(), timing::PROBE_PROC);
        core.stats.probes_tx.hit();
        let target = self.run.as_ref().map(|r| r.target).unwrap_or(core.node);
        ft_trace(core, ctx.now(), TraceKind::ProbeSent, target, 0, 0, token);
        core.transmit_unpooled_from(ctx, p, t);
    }

    /// Put the next window-full of queued loop probes on the wire. In
    /// deep-signature mode the whole phase goes out at once: same-source
    /// probes serialise on their shared first channel (each waits for the
    /// one ahead to deliver or die), so probe–probe cycles cannot form and
    /// pacing would only add one patience deadline per window-full.
    fn pump_pending(&mut self, core: &mut NicCore, ctx: &mut NicCtx) {
        let window = if self.cfg.deep_signatures {
            usize::MAX
        } else {
            self.cfg.loop_probe_window.max(1)
        };
        loop {
            let run = self.run.as_mut().expect("pumping outside a run");
            if run.outstanding.len() >= window {
                break;
            }
            let Some((kind, route, tag)) = run.pending.pop_front() else {
                break;
            };
            self.send_probe(core, ctx, kind, route, tag);
        }
    }

    fn arm_batch_deadline(&mut self, core: &NicCore, ctx: &mut NicCtx) {
        let batch = self.next_batch;
        self.next_batch += 1;
        self.run.as_mut().unwrap().batch = batch;
        let node = core.node;
        // Deep-signature runs probe unknown wiring with multi-hop worms that
        // can wedge until the fabric's path-reset timer; the deadline must
        // outlast it (see `PROBE_PATIENCE`).
        let timeout = if self.cfg.deep_signatures {
            PROBE_PATIENCE
        } else {
            PROBE_TIMEOUT
        };
        ctx.sim.schedule_in(
            timeout,
            ClusterEvent::Nic(
                node,
                NicEvent::Timer {
                    token: TOKEN_MAPPER_BASE + batch,
                },
            ),
        );
    }

    fn start_hint_phase(&mut self, core: &mut NicCore, ctx: &mut NicCtx, routes: Vec<Route>) {
        {
            let run = self.run.as_mut().unwrap();
            run.phase = Phase::Hint;
            run.hint_routes = routes.clone();
        }
        for (i, route) in routes.into_iter().enumerate() {
            self.send_probe(
                core,
                ctx,
                PacketKind::ProbeHost,
                route,
                ProbeTag::HintAt { i },
            );
        }
        self.arm_batch_deadline(core, ctx);
    }

    fn start_hosts_phase(&mut self, core: &mut NicCore, ctx: &mut NicCtx, idx: usize) {
        let (route_to, back) = {
            let run = self.run.as_ref().unwrap();
            let sw = &run.switches[idx];
            let back = if idx == 0 {
                None
            } else {
                Some(sw.reverse_from.hop(0))
            };
            (sw.route_to, back)
        };
        {
            let run = self.run.as_mut().unwrap();
            run.phase = Phase::Hosts { idx };
            run.sig_scratch = vec![None; self.cfg.max_ports as usize];
        }
        if route_to.len() < MAX_HOPS {
            for p in 0..self.cfg.max_ports {
                if back == Some(p) {
                    continue; // the port we came in through leads backwards
                }
                let route = route_to.then(p);
                self.send_probe(
                    core,
                    ctx,
                    PacketKind::ProbeHost,
                    route,
                    ProbeTag::HostAt { idx, port: p },
                );
            }
        }
        self.arm_batch_deadline(core, ctx);
    }

    fn start_expand_phase(&mut self, core: &mut NicCore, ctx: &mut NicCtx, idx: usize, port: u8) {
        let (route_to, reverse) = {
            let run = self.run.as_ref().unwrap();
            let sw = &run.switches[idx];
            (sw.route_to, sw.reverse_from)
        };
        {
            let run = self.run.as_mut().unwrap();
            run.phase = Phase::Expand { idx, port };
            run.loop_hits.clear();
        }
        // route_to + [port, q] + reverse_from must fit.
        if route_to.len() + 2 + reverse.len() <= MAX_HOPS {
            let run = self.run.as_mut().unwrap();
            for q in 0..self.cfg.max_ports {
                let route = route_to.then(port).then(q).join(&reverse);
                run.pending
                    .push_back((PacketKind::ProbeLoop, route, ProbeTag::LoopQ { q }));
            }
        }
        self.pump_pending(core, ctx);
        self.arm_batch_deadline(core, ctx);
    }

    /// Signature scan of a freshly discovered switch candidate: host-probe
    /// every port. The result simultaneously (a) identifies the candidate
    /// against previously seen switches, (b) is the Hosts exploration if it
    /// turns out to be new, and (c) may find the target outright.
    fn start_signature_phase(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        parent: usize,
        port: u8,
        back: u8,
    ) {
        let candidate_route = {
            let run = self.run.as_ref().unwrap();
            run.switches[parent].route_to.then(port)
        };
        {
            let run = self.run.as_mut().unwrap();
            run.phase = Phase::Signature { parent, port, back };
            run.sig_scratch = vec![None; self.cfg.max_ports as usize];
            run.deep_scratch.clear();
        }
        if candidate_route.len() < MAX_HOPS {
            for x in 0..self.cfg.max_ports {
                let route = candidate_route.then(x);
                self.send_probe(
                    core,
                    ctx,
                    PacketKind::ProbeHost,
                    route,
                    ProbeTag::SigAt { port: x },
                );
            }
        }
        self.arm_batch_deadline(core, ctx);
    }

    /// Deep-signature scan of a host-less candidate: host probes through
    /// every `(p, q)` port pair — out port `p` of the candidate, then port
    /// `q` of whatever sits behind it. The port we arrived through is
    /// probed like any other, so the resulting matrix is a property of the
    /// switch alone and two sightings over different redundant links
    /// compare exactly equal. Aggregation-layer switches pick up the hosts
    /// two hops below them (their identity where depth 1 saw silence);
    /// switches silent at both depths fall back to loop-probe identity.
    ///
    /// The probes are paced through the `loop_probe_window` like loop
    /// probes: their routes take down-then-up turns that concurrent
    /// flights can wormhole-deadlock into total gridlock — a flooded scan
    /// reads as all-silent *and* jams every later probe until path reset.
    fn start_deep_signature_phase(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        parent: usize,
        port: u8,
        back: u8,
    ) {
        self.stats.deep_scans.hit();
        let candidate_route = {
            let run = self.run.as_ref().unwrap();
            run.switches[parent].route_to.then(port)
        };
        let mp = self.cfg.max_ports as usize;
        {
            let run = self.run.as_mut().unwrap();
            run.phase = Phase::DeepSignature { parent, port, back };
            run.deep_scratch = vec![None; mp * mp];
            if candidate_route.len() + 2 <= MAX_HOPS {
                for p in 0..self.cfg.max_ports {
                    for q in 0..self.cfg.max_ports {
                        // (back, port) retraces the parent→candidate
                        // channel the probe's own wormhole body still
                        // holds: it would self-deadlock and wedge the
                        // whole path until the ~62 ms reset. The cell is
                        // knowable anyway — it re-enters the candidate, a
                        // switch, so it reads `None` in every sighting.
                        if p == back && q == port {
                            continue;
                        }
                        let route = candidate_route.then(p).then(q);
                        run.pending.push_back((
                            PacketKind::ProbeHost,
                            route,
                            ProbeTag::DeepSigAt { p, q },
                        ));
                    }
                }
            }
        }
        self.pump_pending(core, ctx);
        self.arm_batch_deadline(core, ctx);
    }

    fn start_identity_phase(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        parent: usize,
        port: u8,
        back: u8,
    ) {
        let candidate_route = {
            let run = self.run.as_ref().unwrap();
            run.switches[parent].route_to.then(port)
        };
        let probes: Vec<(usize, Route)> = {
            let run = self.run.as_mut().unwrap();
            run.phase = Phase::Identity { parent, port, back };
            run.identity_hits.clear();
            // Loop-probe identity is only meaningful against other
            // host-less switches — a host-bearing switch would already have
            // been distinguished by its signature, and a switch whose deep
            // signature found hosts two hops out is likewise already exact.
            run.switches
                .iter()
                .enumerate()
                .filter(|(_, k)| k.signature.iter().all(|h| h.is_none()))
                .filter(|(_, k)| {
                    k.deep_signature
                        .as_ref()
                        .is_none_or(|d| d.iter().all(Option::is_none))
                })
                .filter(|(_, k)| candidate_route.len() + k.reverse_from.len() <= MAX_HOPS)
                .map(|(ki, k)| (ki, candidate_route.join(&k.reverse_from)))
                .collect()
        };
        {
            let run = self.run.as_mut().unwrap();
            for (ki, route) in probes {
                run.pending.push_back((
                    PacketKind::ProbeLoop,
                    route,
                    ProbeTag::IdentityOf { k: ki },
                ));
            }
        }
        self.pump_pending(core, ctx);
        self.arm_batch_deadline(core, ctx);
    }

    /// One of our probes was dropped by deadlock recovery (path reset).
    /// Concurrent loop probes can deadlock each other in cyclic fabrics —
    /// at testbed scale this never fires, but on large tori it is routine.
    /// A dropped probe would read as *silence*, which the mapper interprets
    /// as "nothing there"; since the fabric told us exactly which packet
    /// died, retransmit it instead (counted as an extra probe). Returns
    /// whether the packet was one of this mapper's outstanding probes.
    pub fn on_path_reset(&mut self, core: &mut NicCore, ctx: &mut NicCtx, pkt: &Packet) -> bool {
        let Some(run) = self.run.as_mut() else {
            return false;
        };
        if !run.outstanding.contains_key(&pkt.msg_id) {
            return false;
        }
        if self.cfg.deep_signatures {
            // Don't resend in place: a self-deadlocking probe would re-wedge
            // the same channel and starve every probe queued behind it, in a
            // path-reset-period duty cycle, forever. Collect the casualties
            // (kill order = injection order, so the head of the list is the
            // worm that wedged) and resend them *rotated* at the patience
            // deadline, so proven wedgers go last and their victims fly
            // first on the cleared fabric.
            let tag = run.outstanding.remove(&pkt.msg_id).unwrap();
            run.reset_victims.push((pkt.kind, pkt.route, tag));
            return true;
        }
        match pkt.kind {
            PacketKind::ProbeHost => {
                run.host_probes += 1;
                self.stats.host_probes.hit();
            }
            PacketKind::ProbeLoop => {
                run.switch_probes += 1;
                self.stats.switch_probes.hit();
            }
            _ => return false,
        }
        let target = run.target;
        let mut p = Packet::new(core.node, core.node, pkt.kind);
        p.route = pkt.route;
        p.msg_id = pkt.msg_id;
        p.payload_len = 8;
        let t = core.cpu.acquire(ctx.now(), timing::PROBE_PROC);
        core.stats.probes_tx.hit();
        ft_trace(
            core,
            ctx.now(),
            TraceKind::ProbeSent,
            target,
            0,
            0,
            pkt.msg_id,
        );
        core.transmit_unpooled_from(ctx, p, t);
        true
    }

    // -- results ------------------------------------------------------------

    /// A probe reply or a returned loop probe arrived.
    pub fn on_probe_result(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        pkt: &Packet,
    ) -> Vec<MapOutcome> {
        let Some(run) = self.run.as_mut() else {
            return self.late_probe_result(core, pkt);
        };
        let Some(tag) = run.outstanding.remove(&pkt.msg_id) else {
            return self.late_probe_result(core, pkt);
        };
        match (pkt.kind, tag) {
            (PacketKind::ProbeReply, ProbeTag::HintAt { i }) => {
                let who = pkt.src;
                if who == core.node {
                    return Vec::new();
                }
                let route = run.hint_routes[i];
                let mut outs = vec![MapOutcome::RouteFound { dst: who, route }];
                if who == run.target {
                    self.stats.hint_resolved.hit();
                    outs.extend(self.finish_run(core, ctx, Some(route)));
                }
                outs
            }
            (PacketKind::ProbeReply, ProbeTag::HostAt { idx, port }) => {
                let who = pkt.src;
                let route = run.switches[idx].route_to.then(port);
                if let Some(slot) = run.sig_scratch.get_mut(port as usize) {
                    *slot = Some(who);
                }
                if who == core.node {
                    // Found ourselves: that port is our own attachment —
                    // the base case of reverse_from (switch 0 → me).
                    run.my_port = Some(port);
                    if idx == 0 {
                        run.switches[0].reverse_from = Route::from_ports(&[port]);
                    }
                    return Vec::new();
                }
                let mut outs = vec![MapOutcome::RouteFound { dst: who, route }];
                if who == run.target {
                    outs.extend(self.finish_run(core, ctx, Some(route)));
                }
                outs
            }
            (PacketKind::ProbeReply, ProbeTag::SigAt { port }) => {
                let who = pkt.src;
                if let Some(slot) = run.sig_scratch.get_mut(port as usize) {
                    *slot = Some(who);
                }
                if who == core.node {
                    return Vec::new();
                }
                let Phase::Signature {
                    parent,
                    port: cport,
                    ..
                } = run.phase
                else {
                    return Vec::new();
                };
                let route = run.switches[parent].route_to.then(cport).then(port);
                let mut outs = vec![MapOutcome::RouteFound { dst: who, route }];
                if who == run.target {
                    outs.extend(self.finish_run(core, ctx, Some(route)));
                }
                outs
            }
            (PacketKind::ProbeReply, ProbeTag::DeepSigAt { p, q }) => {
                let who = pkt.src;
                let mp = self.cfg.max_ports as usize;
                if let Some(slot) = run.deep_scratch.get_mut(p as usize * mp + q as usize) {
                    *slot = Some(who);
                }
                if who == core.node {
                    self.refill_window(core, ctx);
                    return Vec::new();
                }
                let Phase::DeepSignature {
                    parent,
                    port: cport,
                    ..
                } = run.phase
                else {
                    self.refill_window(core, ctx);
                    return Vec::new();
                };
                let route = run.switches[parent].route_to.then(cport).then(p).then(q);
                let mut outs = vec![MapOutcome::RouteFound { dst: who, route }];
                if who == run.target {
                    outs.extend(self.finish_run(core, ctx, Some(route)));
                } else {
                    self.refill_window(core, ctx);
                }
                outs
            }
            (PacketKind::ProbeLoop, ProbeTag::LoopQ { q }) => {
                run.loop_hits.push(q);
                self.refill_window(core, ctx);
                Vec::new()
            }
            (PacketKind::ProbeLoop, ProbeTag::IdentityOf { k }) => {
                run.identity_hits.push(k);
                self.refill_window(core, ctx);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// Every in-flight probe of a paced phase has answered but more are
    /// queued: refill the window now instead of waiting out the deadline
    /// (the fresh deadline supersedes the old batch). Only silence pays
    /// the full [`PROBE_TIMEOUT`].
    fn refill_window(&mut self, core: &mut NicCore, ctx: &mut NicCtx) {
        let ready = self
            .run
            .as_ref()
            .is_some_and(|r| r.outstanding.is_empty() && !r.pending.is_empty());
        if ready {
            self.pump_pending(core, ctx);
            self.arm_batch_deadline(core, ctx);
        }
    }

    /// A reply to a probe whose run already ended: cache the discovery.
    fn late_probe_result(&mut self, core: &NicCore, pkt: &Packet) -> Vec<MapOutcome> {
        if pkt.kind != PacketKind::ProbeReply {
            return Vec::new();
        }
        let Some(route) = self.late_probes.remove(&pkt.msg_id) else {
            return Vec::new();
        };
        if pkt.src == core.node {
            return Vec::new(); // our own echo — not a route worth caching
        }
        vec![MapOutcome::RouteFound {
            dst: pkt.src,
            route,
        }]
    }

    /// A mapper timer fired (batch deadline).
    pub fn on_timer(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        token: u64,
    ) -> Vec<MapOutcome> {
        let Some(run) = self.run.as_ref() else {
            return Vec::new();
        };
        if token != TOKEN_MAPPER_BASE + run.batch {
            return Vec::new(); // stale deadline from a superseded batch
        }
        self.finish_phase(core, ctx)
    }

    fn finish_phase(&mut self, core: &mut NicCore, ctx: &mut NicCtx) -> Vec<MapOutcome> {
        let run = self.run.as_mut().unwrap();
        // Anything still outstanding has timed out; silence is the signal
        // (the scratch signature keeps `None` for unanswered ports).
        run.outstanding.clear();
        if !run.reset_victims.is_empty() {
            // Deadlock recovery killed some of this phase's probes; their
            // outcomes are still unknown. Resend them with the proven
            // wedger (first killed) moved to the back so the probes it
            // starved get a clear fabric; a route that keeps wedging is a
            // self-deadlock and is dropped after MAX_PROBE_RESETS.
            let mut victims = std::mem::take(&mut run.reset_victims);
            victims.rotate_left(1);
            let mut any = false;
            for (kind, route, tag) in victims {
                let n = run.reset_counts.entry(route).or_insert(0);
                *n += 1;
                if *n >= MAX_PROBE_RESETS {
                    continue;
                }
                run.pending.push_back((kind, route, tag));
                any = true;
            }
            if any {
                self.pump_pending(core, ctx);
                self.arm_batch_deadline(core, ctx);
                return Vec::new();
            }
        }
        let run = self.run.as_mut().unwrap();
        if !run.pending.is_empty() {
            // Paced phase with probes still queued: put the next
            // window-full on the wire under a fresh deadline before
            // concluding anything.
            self.pump_pending(core, ctx);
            self.arm_batch_deadline(core, ctx);
            return Vec::new();
        }
        let run = self.run.as_mut().unwrap();
        match run.phase {
            Phase::Hint => {
                // Every candidate stayed silent: the planner's picture is
                // stale (the failure cut all of them). Explore from scratch.
                self.start_hosts_phase(core, ctx, 0);
                Vec::new()
            }
            Phase::Hosts { idx } => {
                run.switches[idx].explored_hosts = true;
                let sig = std::mem::take(&mut run.sig_scratch);
                let back = if idx == 0 {
                    None
                } else {
                    Some(run.switches[idx].reverse_from.hop(0))
                };
                run.switches[idx].candidates = candidates_from(&sig, back);
                run.switches[idx].signature = sig;
                if idx == 0 && run.switches[0].reverse_from.is_empty() {
                    // We never found ourselves: our own link must be dead.
                    // Nothing beyond switch 0 can be explored.
                    run.switches[0].candidates.clear();
                }
                self.advance(core, ctx)
            }
            Phase::Expand { idx, port } => {
                if run.loop_hits.is_empty() {
                    // Silence: empty port (or dead link / dead switch).
                    self.advance(core, ctx)
                } else {
                    let back = *run.loop_hits.iter().min().unwrap();
                    if self.cfg.identity_checks {
                        self.start_signature_phase(core, ctx, idx, port, back);
                        Vec::new()
                    } else {
                        // Trust every discovery to be new (risks re-mapping
                        // a known switch through a redundant link).
                        let route_to = run.switches[idx].route_to.then(port);
                        let reverse_from =
                            Route::from_ports(&[back]).join(&run.switches[idx].reverse_from);
                        run.switches.push(KnownSwitch {
                            route_to,
                            reverse_from,
                            explored_hosts: false,
                            candidates: Vec::new(),
                            signature: Vec::new(),
                            deep_signature: None,
                        });
                        self.advance(core, ctx)
                    }
                }
            }
            Phase::Signature { parent, port, back } => {
                let sig = std::mem::take(&mut run.sig_scratch);
                let has_hosts = sig.iter().any(|h| h.is_some());
                let known = run
                    .switches
                    .iter()
                    .any(|k| k.explored_hosts && k.signature == sig && has_hosts);
                if known {
                    // Same host population on the same ports: a switch we
                    // have already mapped, reached over a redundant link.
                    self.advance(core, ctx)
                } else if has_hosts {
                    // Host-bearing and distinct: provably new. Its host
                    // exploration is this very scan — no extra probes.
                    let route_to = run.switches[parent].route_to.then(port);
                    let reverse_from =
                        Route::from_ports(&[back]).join(&run.switches[parent].reverse_from);
                    let candidates = candidates_from(&sig, Some(back));
                    run.switches.push(KnownSwitch {
                        route_to,
                        reverse_from,
                        explored_hosts: true,
                        candidates,
                        signature: sig,
                        deep_signature: None,
                    });
                    self.advance(core, ctx)
                } else if self.cfg.deep_signatures {
                    // No hosts at depth 1: look two hops out before giving
                    // up on host-population identity (the fat-tree
                    // core-aliasing fix — aggregation switches are told
                    // apart by the pods hanging two hops below them).
                    run.sig_scratch = sig;
                    self.start_deep_signature_phase(core, ctx, parent, port, back);
                    Vec::new()
                } else {
                    // No hosts anywhere: signatures cannot discriminate.
                    // Keep the scan and fall back to loop-probe identity
                    // against the other host-less switches.
                    run.sig_scratch = sig;
                    self.start_identity_phase(core, ctx, parent, port, back);
                    Vec::new()
                }
            }
            Phase::DeepSignature { parent, port, back } => {
                let deep = std::mem::take(&mut run.deep_scratch);
                if deep.iter().any(|h| h.is_some()) {
                    let known = run.switches.iter().any(|k| {
                        k.explored_hosts && k.deep_signature.as_deref() == Some(&deep[..])
                    });
                    if known {
                        // Same two-hop host population: a switch we already
                        // mapped, re-sighted over a redundant link — the
                        // merge the depth-1 signature would have gotten
                        // wrong for pod-serving aggregation switches.
                        run.sig_scratch.clear();
                        self.advance(core, ctx)
                    } else {
                        // Distinct at depth 2: provably new. The depth-1
                        // scan already was its host exploration (all
                        // silent), so its candidates are every quiet port.
                        let sig = std::mem::take(&mut run.sig_scratch);
                        let route_to = run.switches[parent].route_to.then(port);
                        let reverse_from =
                            Route::from_ports(&[back]).join(&run.switches[parent].reverse_from);
                        let candidates = candidates_from(&sig, Some(back));
                        run.switches.push(KnownSwitch {
                            route_to,
                            reverse_from,
                            explored_hosts: true,
                            candidates,
                            signature: sig,
                            deep_signature: Some(deep),
                        });
                        self.advance(core, ctx)
                    }
                } else {
                    // Silent at both depths (a true core): only the
                    // loop-probe identity check can tell it from the other
                    // such switches. Keep the empty matrix for the record.
                    run.deep_scratch = deep;
                    self.start_identity_phase(core, ctx, parent, port, back);
                    Vec::new()
                }
            }
            Phase::Identity { parent, port, back } => {
                if run.identity_hits.is_empty() {
                    // Genuinely new switch: chain its reverse route. The
                    // signature scan that preceded this phase serves as its
                    // host exploration (all empty).
                    let sig = std::mem::take(&mut run.sig_scratch);
                    let deep = std::mem::take(&mut run.deep_scratch);
                    let route_to = run.switches[parent].route_to.then(port);
                    let reverse_from =
                        Route::from_ports(&[back]).join(&run.switches[parent].reverse_from);
                    let candidates = candidates_from(&sig, Some(back));
                    run.switches.push(KnownSwitch {
                        route_to,
                        reverse_from,
                        explored_hosts: true,
                        candidates,
                        signature: sig,
                        deep_signature: (!deep.is_empty()).then_some(deep),
                    });
                }
                // else: a switch we already know (redundant link) — no new
                // territory.
                self.advance(core, ctx)
            }
        }
    }

    /// Pick the next piece of work in BFS order.
    fn advance(&mut self, core: &mut NicCore, ctx: &mut NicCtx) -> Vec<MapOutcome> {
        let run = self.run.as_mut().unwrap();
        if run.switches.len() > self.cfg.max_switch_sightings {
            return self.finish_run(core, ctx, None);
        }
        // 1. A switch whose ports haven't been host-probed yet?
        if let Some(idx) = run.switches.iter().position(|s| !s.explored_hosts) {
            self.start_hosts_phase(core, ctx, idx);
            return Vec::new();
        }
        // 2. A switch with candidate ports to expand?
        if let Some(idx) = run.switches.iter().position(|s| !s.candidates.is_empty()) {
            let port = run.switches[idx].candidates.remove(0);
            self.start_expand_phase(core, ctx, idx, port);
            return Vec::new();
        }
        // 3. Exhausted: the target is unreachable.
        self.finish_run(core, ctx, None)
    }

    fn finish_run(
        &mut self,
        core: &mut NicCore,
        ctx: &mut NicCtx,
        route: Option<Route>,
    ) -> Vec<MapOutcome> {
        let mut run = self.run.take().expect("finishing without a run");
        // Keep the in-flight host probes answerable: late replies still
        // carry cacheable routes. (Bounded: replaced wholesale per run.)
        self.late_probes.clear();
        for (token, tag) in run.outstanding.drain() {
            match tag {
                ProbeTag::HintAt { i } => {
                    self.late_probes.insert(token, run.hint_routes[i]);
                }
                ProbeTag::HostAt { idx, port } => {
                    self.late_probes
                        .insert(token, run.switches[idx].route_to.then(port));
                }
                ProbeTag::SigAt { port } => {
                    if let Phase::Signature {
                        parent,
                        port: cport,
                        ..
                    } = run.phase
                    {
                        let r = run.switches[parent].route_to.then(cport).then(port);
                        self.late_probes.insert(token, r);
                    }
                }
                ProbeTag::DeepSigAt { p, q } => {
                    if let Phase::DeepSignature {
                        parent,
                        port: cport,
                        ..
                    } = run.phase
                    {
                        let r = run.switches[parent].route_to.then(cport).then(p).then(q);
                        self.late_probes.insert(token, r);
                    }
                }
                _ => {}
            }
        }
        let elapsed = ctx.now().since(run.started);
        self.stats.last_host_probes = run.host_probes;
        self.stats.last_switch_probes = run.switch_probes;
        self.stats.last_time_ms = elapsed.as_millis_f64();
        self.stats.times_ms.record(elapsed.as_millis_f64());
        if route.is_some() {
            self.stats.resolved.hit();
        } else {
            self.stats.unreachable.hit();
        }
        let mut outs = vec![MapOutcome::TargetResolved {
            dst: run.target,
            route,
        }];
        // Serve the next queued request; a side-discovered route may already
        // satisfy it.
        while let Some(next) = self.waiting.pop_front() {
            if let Some(r) = core.routes.get(next) {
                outs.push(MapOutcome::TargetResolved {
                    dst: next,
                    route: Some(r),
                });
            } else {
                self.begin_run(core, ctx, next);
                break;
            }
        }
        outs
    }
}

/// Ports worth expanding after a host scan: the silent ones, minus the port
/// that leads back toward the prober.
fn candidates_from(sig: &[Option<NodeId>], back: Option<u8>) -> Vec<u8> {
    sig.iter()
        .enumerate()
        .filter(|(i, h)| h.is_none() && back != Some(*i as u8))
        .map(|(i, _)| i as u8)
        .collect()
}
