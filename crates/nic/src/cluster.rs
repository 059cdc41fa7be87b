//! The cluster world: hosts + NICs + fabric under one event loop.
//!
//! `Cluster` owns the simulation clock/queue, the fabric engine, one [`Nic`]
//! per host and one [`HostAgent`] per host, and dispatches every event to the
//! component it addresses. All cross-component interaction flows through the
//! event queue or the explicit contexts ([`NicCtx`], [`HostCtx`]) — there is
//! no shared mutable state, which is what keeps runs deterministic.

use std::collections::HashMap;

use san_fabric::engine::{Engine, EngineConfig, FabricEvent, FabricOut, PortalCrossing};
use san_fabric::route::MAX_HOPS;
use san_fabric::updown::UpDownMap;
use san_fabric::{NodeId, Packet, Route, Topology};
use san_sim::{Duration, Sim, Time};
use san_telemetry::Telemetry;

use crate::buffer::BufId;
use crate::nic::{Firmware, Nic, NicCore, NicCtx, SendDesc};

/// Events addressed to a NIC.
#[derive(Debug)]
pub enum NicEvent {
    /// A send buffer's payload reached SRAM (PIO or DMA done); the LANai
    /// still has to build the header.
    TxData {
        /// The buffer.
        buf: BufId,
    },
    /// A send buffer's data is in SRAM and its header is built.
    TxReady {
        /// The buffer.
        buf: BufId,
    },
    /// The network DMA starts reading this (already sealed) packet: inject.
    Inject {
        /// The wire copy.
        pkt: Box<Packet>,
    },
    /// The network DMA finished reading `buf`.
    TxInjected {
        /// The buffer.
        buf: BufId,
    },
    /// The LANai picked a received packet off the receive ring.
    RxProcess {
        /// The packet.
        pkt: Box<Packet>,
    },
    /// A firmware timer fired.
    Timer {
        /// Firmware-defined meaning.
        token: u64,
    },
}

/// Events addressed to a host agent.
#[derive(Debug)]
pub enum HostEvent {
    /// A scheduled wakeup.
    Wake {
        /// Agent-defined meaning.
        token: u64,
    },
    /// A message segment was deposited into host memory.
    Deliver {
        /// The packet (stamps filled in).
        pkt: Box<Packet>,
    },
    /// The NIC finished reading the send data out of host memory.
    SendDone {
        /// The message id from the descriptor.
        msg_id: u64,
    },
    /// The NIC gave up on a send: the destination stayed unreachable
    /// across the firmware's whole remap-retry budget and the packets
    /// were dropped. End-to-end recovery (re-posting once the fabric
    /// heals) is the host's decision, not the NIC's.
    SendFailed {
        /// The message id from the descriptor.
        msg_id: u64,
        /// The unreachable destination.
        dst: NodeId,
    },
}

/// The cluster-wide event type.
#[derive(Debug)]
pub enum ClusterEvent {
    /// Fabric-internal event.
    Fabric(FabricEvent),
    /// NIC event.
    Nic(NodeId, NicEvent),
    /// Host event.
    Host(NodeId, HostEvent),
    /// Never constructed ([`PortalCrossing`] is uninhabited). Kept only for
    /// `perf/src/trace.rs`, which matches on it.
    Portal(Box<PortalCrossing>),
}

impl From<FabricEvent> for ClusterEvent {
    fn from(e: FabricEvent) -> Self {
        ClusterEvent::Fabric(e)
    }
}

/// Context handed to host agents.
pub struct HostCtx<'a> {
    /// This host.
    pub node: NodeId,
    /// This host's NIC.
    pub nic: &'a mut Nic,
    /// Clock + queue.
    pub sim: &'a mut Sim<ClusterEvent>,
    /// The fabric.
    pub engine: &'a mut Engine,
}

impl HostCtx<'_> {
    /// Current time.
    #[inline]
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Schedule a wakeup for this agent.
    pub fn wake_in(&mut self, after: Duration, token: u64) {
        let node = self.node;
        self.sim
            .schedule_in(after, ClusterEvent::Host(node, HostEvent::Wake { token }));
    }

    /// Post a send descriptor to the NIC.
    pub fn post_send(&mut self, desc: SendDesc) {
        let mut ctx = NicCtx {
            sim: self.sim,
            engine: self.engine,
        };
        self.nic.post_send(&mut ctx, desc);
    }
}

/// A process (or driver state machine) running on a host.
pub trait HostAgent {
    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut HostCtx);
    /// A scheduled wakeup fired.
    fn on_wake(&mut self, ctx: &mut HostCtx, token: u64);
    /// A message segment arrived in host memory.
    fn on_message(&mut self, ctx: &mut HostCtx, pkt: Packet);
    /// A send's host buffer is reusable.
    fn on_send_done(&mut self, ctx: &mut HostCtx, msg_id: u64);
    /// A send was dropped: the NIC declared `dst` unreachable after
    /// exhausting its remap retries. Unlike `on_send_done`, failure
    /// completions are always delivered (regardless of `SendDesc::notify`)
    /// — a host that opted out of success interrupts still needs to hear
    /// about errors to own end-to-end recovery. Default: ignore, matching
    /// the paper's "pending packets are dropped" baseline.
    fn on_send_failed(&mut self, _ctx: &mut HostCtx, _msg_id: u64, _dst: NodeId) {}
}

/// A do-nothing agent for nodes that only react (e.g. pure receivers whose
/// behaviour lives in the firmware).
#[derive(Debug, Default)]
pub struct IdleHost;

impl HostAgent for IdleHost {
    fn on_start(&mut self, _ctx: &mut HostCtx) {}
    fn on_wake(&mut self, _ctx: &mut HostCtx, _token: u64) {}
    fn on_message(&mut self, _ctx: &mut HostCtx, _pkt: Packet) {}
    fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
}

/// Host-level re-post pacing after a `SendFailed`: long enough not to
/// hammer the NIC with back-to-back mapping episodes, short compared to a
/// drain grace. Doubles per re-post of the same message, up to
/// `REPOST_DELAY << 5`.
const REPOST_DELAY: Duration = Duration::from_millis(1);

/// Re-post budget per message: with the NIC's own remap-retry budget in
/// front of every attempt this outlives any outage a survivable chaos
/// campaign can schedule, while still bounding a truly partitioned stream.
const MAX_REPOSTS: u32 = 16;

/// What [`RepostBudget::failed`] did with a failed send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repost {
    /// Queued first: the caller arms the flush wake this far ahead.
    Arm(Duration),
    /// Queued behind the flush wake already armed.
    Queued,
    /// The message's budget is spent: not queued, abandoned.
    Spent,
}

/// A host's end-to-end recovery of sends the NIC fails as unreachable:
/// the transport gives up after its remap-retry budget, and outliving a
/// long outage is the host's job. Each message may be re-posted
/// `MAX_REPOSTS` times with `REPOST_DELAY` backoff, and one flush wake
/// carries every failure that arrives before it fires. Re-posts reuse the
/// original message id, so the receiver's dedup makes them idempotent.
#[derive(Debug, Default)]
pub struct RepostBudget {
    /// Re-posts already spent per (dst, msg_id).
    attempts: HashMap<(u16, u64), u32>,
    /// Failed sends waiting for the flush wake.
    queue: Vec<(NodeId, u64)>,
}

impl RepostBudget {
    /// Note that the send of `msg_id` to `dst` failed. Unless the
    /// message's budget is spent, queue it for the flush wake; when the
    /// queue was empty, the caller arms that wake after the returned delay.
    pub fn failed(&mut self, dst: NodeId, msg_id: u64) -> Repost {
        let a = self.attempts.entry((dst.0, msg_id)).or_insert(0);
        if *a >= MAX_REPOSTS {
            return Repost::Spent;
        }
        *a += 1;
        let delay = REPOST_DELAY * (1u64 << (*a - 1).min(5));
        let first = self.queue.is_empty();
        self.queue.push((dst, msg_id));
        if first {
            Repost::Arm(delay)
        } else {
            Repost::Queued
        }
    }

    /// The sends to re-post now, at the flush wake.
    pub fn take(&mut self) -> Vec<(NodeId, u64)> {
        std::mem::take(&mut self.queue)
    }
}

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fabric settings.
    pub engine: EngineConfig,
    /// Send buffers per NIC (the paper's queue-size parameter, 2–128).
    pub send_bufs: u16,
    /// RNG seed.
    pub seed: u64,
    /// Observability handle every layer registers into. The default is
    /// metrics-only; pass `Telemetry::with_trace(..)` to record events.
    pub telemetry: Telemetry,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            send_bufs: 32,
            seed: 1,
            telemetry: Telemetry::new(),
        }
    }
}

/// The assembled world.
pub struct Cluster {
    /// Clock and event queue.
    pub sim: Sim<ClusterEvent>,
    /// The fabric.
    pub engine: Engine,
    /// One NIC per host.
    pub nics: Vec<Nic>,
    /// One agent per host.
    pub hosts: Vec<Box<dyn HostAgent>>,
    /// The observability handle shared by every layer (same handle the
    /// caller put in [`ClusterConfig::telemetry`]).
    pub telemetry: Telemetry,
    /// Always empty ([`PortalCrossing`] is uninhabited). Kept only for
    /// `perf/src/trace.rs`, which pushes to it.
    pub shard_out: Vec<Box<PortalCrossing>>,
    /// What the fabric reported while handling one event; drained right
    /// after, and kept so that its storage is reused.
    outs: Vec<FabricOut>,
    started: bool,
    events_processed: u64,
}

impl Cluster {
    /// Build a cluster over `topo`. `make_fw` supplies each NIC's control
    /// program; `hosts` must have one agent per host in the topology.
    pub fn new(
        topo: Topology,
        cfg: ClusterConfig,
        mut make_fw: impl FnMut(NodeId) -> Box<dyn Firmware>,
        hosts: Vec<Box<dyn HostAgent>>,
    ) -> Self {
        let n = topo.num_hosts();
        assert_eq!(hosts.len(), n, "one host agent per host");
        let telemetry = cfg.telemetry.clone();
        let engine = Engine::with_telemetry(topo, cfg.engine.clone(), telemetry.clone());
        let nics = (0..n)
            .map(|i| {
                let id = NodeId(i as u16);
                let core = NicCore::with_telemetry(id, cfg.send_bufs, n, telemetry.clone());
                Nic::new(core, make_fw(id))
            })
            .collect();
        Self {
            sim: Sim::new(cfg.seed),
            engine,
            nics,
            hosts,
            telemetry,
            shard_out: Vec::new(),
            outs: Vec::new(),
            started: false,
            events_processed: 0,
        }
    }

    /// Install shortest-path routes between every host pair (the state of a
    /// freshly, correctly mapped network): one
    /// [`Topology::shortest_routes_from`] search per host, so O(n · E) for
    /// n hosts and E links. On fat_tree:16 (1024 hosts) that is under 0.1 s
    /// in release on a 2-core x86-64 container; `san-bench`'s `route_setup`
    /// measures it.
    ///
    /// # Panics
    /// Panics if a pair has no route within the [`MAX_HOPS`] = 16 hop
    /// budget: it is disconnected, or every path between the two hosts
    /// crosses more than 16 switches.
    pub fn install_shortest_routes(&mut self) {
        let topo = self.engine.topology();
        for (a, nic) in self.nics.iter_mut().enumerate() {
            let na = NodeId(a as u16);
            let row = topo.shortest_routes_from(na, |_| true);
            for (b, r) in row.into_iter().enumerate() {
                if a == b {
                    continue;
                }
                let nb = NodeId(b as u16);
                let r = r.unwrap_or_else(|| {
                    panic!("no route {na} -> {nb} within the {MAX_HOPS}-hop route budget")
                });
                nic.core.routes.set(nb, r);
            }
        }
    }

    /// Install routes from an external planner: `f(src, dst)` supplies the
    /// route each NIC loads for each peer (`None` = leave that pair to
    /// on-demand mapping). This is how the `topo` crate's route planner
    /// seeds a cluster with multipath-aware tables.
    pub fn install_routes(&mut self, mut f: impl FnMut(NodeId, NodeId) -> Option<Route>) {
        let n = self.nics.len();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (na, nb) = (NodeId(a as u16), NodeId(b as u16));
                if let Some(r) = f(na, nb) {
                    self.nics[a].core.routes.set(nb, r);
                }
            }
        }
    }

    /// Install UP*/DOWN* (deadlock-free) routes for every host pair — the
    /// full-map baseline. One [`UpDownMap::routes_from`] search per host
    /// after one orientation BFS, so O(n · E) like
    /// [`Cluster::install_shortest_routes`]. Pairs without a legal route
    /// within the 16-hop budget are left to on-demand mapping.
    pub fn install_updown_routes(&mut self) {
        let topo = self.engine.topology();
        let map = UpDownMap::build(topo, |_| true).expect("topology has switches");
        for (a, nic) in self.nics.iter_mut().enumerate() {
            let row = map.routes_from(topo, NodeId(a as u16), |_| true);
            for (b, r) in row.into_iter().enumerate() {
                if let Some(r) = r.filter(|_| a != b) {
                    nic.core.routes.set(NodeId(b as u16), r);
                }
            }
        }
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nics.len() {
            let mut ctx = NicCtx {
                sim: &mut self.sim,
                engine: &mut self.engine,
            };
            self.nics[i].on_start(&mut ctx);
        }
        for i in 0..self.hosts.len() {
            let mut ctx = HostCtx {
                node: NodeId(i as u16),
                nic: &mut self.nics[i],
                sim: &mut self.sim,
                engine: &mut self.engine,
            };
            self.hosts[i].on_start(&mut ctx);
        }
    }

    /// Run until the queue drains or `deadline` passes. Returns the time of
    /// the last processed event.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        self.start_if_needed();
        while let Some(next) = self.peek_time() {
            if next > deadline {
                break;
            }
            let (_, ev) = self.sim.pop().expect("peeked");
            self.events_processed += 1;
            self.dispatch(ev);
        }
        self.sim.now()
    }

    /// Run until no events remain (requires all periodic timers to be
    /// stopped, so mostly useful for unreliable-firmware tests).
    pub fn run_until_idle(&mut self) -> Time {
        self.run_until(Time::MAX)
    }

    fn peek_time(&mut self) -> Option<Time> {
        self.sim.peek_time()
    }

    fn dispatch(&mut self, ev: ClusterEvent) {
        match ev {
            ClusterEvent::Fabric(fe) => {
                let mut outs = std::mem::take(&mut self.outs);
                self.engine.handle(&mut self.sim, fe, &mut outs);
                self.process_outs(outs);
            }
            ClusterEvent::Portal(x) => match *x {},
            ClusterEvent::Nic(node, ne) => {
                let mut ctx = NicCtx {
                    sim: &mut self.sim,
                    engine: &mut self.engine,
                };
                self.nics[node.idx()].handle(&mut ctx, ne);
            }
            ClusterEvent::Host(node, he) => {
                let mut ctx = HostCtx {
                    node,
                    nic: &mut self.nics[node.idx()],
                    sim: &mut self.sim,
                    engine: &mut self.engine,
                };
                match he {
                    HostEvent::Wake { token } => self.hosts[node.idx()].on_wake(&mut ctx, token),
                    HostEvent::Deliver { pkt } => {
                        let pkt = ctx.nic.core.unbox_pkt(pkt);
                        self.hosts[node.idx()].on_message(&mut ctx, pkt)
                    }
                    HostEvent::SendDone { msg_id } => {
                        self.hosts[node.idx()].on_send_done(&mut ctx, msg_id)
                    }
                    HostEvent::SendFailed { msg_id, dst } => {
                        self.hosts[node.idx()].on_send_failed(&mut ctx, msg_id, dst)
                    }
                }
            }
        }
    }

    /// Hand every fabric output to the NIC it concerns, then keep the
    /// emptied buffer for the next fabric event.
    fn process_outs(&mut self, mut outs: Vec<FabricOut>) {
        for out in outs.drain(..) {
            match out {
                FabricOut::Delivered { node, pkt } => {
                    let mut ctx = NicCtx {
                        sim: &mut self.sim,
                        engine: &mut self.engine,
                    };
                    self.nics[node.idx()].on_delivered(&mut ctx, pkt);
                }
                FabricOut::PathReset { src, pkt } => {
                    let mut ctx = NicCtx {
                        sim: &mut self.sim,
                        engine: &mut self.engine,
                    };
                    self.nics[src.idx()].on_path_reset(&mut ctx, pkt);
                }
                FabricOut::Dropped { .. } => {
                    // Silent on real hardware; engine stats keep it.
                }
                FabricOut::ShardCross(x) => match *x {},
            }
        }
        self.outs = outs;
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("hosts", &self.hosts.len())
            .field("now", &self.sim.now())
            .field("events", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::UnreliableFirmware;
    use san_fabric::topology::chain;

    /// A chain of 17 switches is connected, but its two hosts are 17 route
    /// bytes apart: the panic names the budget, not a partition.
    #[test]
    #[should_panic(expected = "no route h0 -> h1 within the 16-hop route budget")]
    fn install_names_the_hop_budget_beyond_it() {
        let (topo, _, _) = chain(MAX_HOPS + 1);
        let hosts: Vec<Box<dyn HostAgent>> = vec![Box::new(IdleHost), Box::new(IdleHost)];
        let mut c = Cluster::new(
            topo,
            ClusterConfig::default(),
            |_| Box::new(UnreliableFirmware),
            hosts,
        );
        c.install_shortest_routes();
    }

    /// Each failure of one message arms the flush wake at a doubling delay
    /// (1 ms up to 32 ms); after its 16th re-post the message is spent.
    #[test]
    fn repost_delay_doubles_until_the_budget_is_spent() {
        let mut b = RepostBudget::default();
        let ms: Vec<u64> = (0..MAX_REPOSTS)
            .map(|_| {
                let Repost::Arm(d) = b.failed(NodeId(1), 7) else {
                    panic!("an empty queue arms the flush wake");
                };
                assert_eq!(b.take(), [(NodeId(1), 7)]);
                d.nanos() / 1_000_000
            })
            .collect();
        assert_eq!(
            ms,
            [1, 2, 4, 8, 16, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32]
        );
        assert_eq!(b.failed(NodeId(1), 7), Repost::Spent);
        assert!(b.take().is_empty(), "a spent message is not queued");
    }

    /// Failures that arrive before the flush wake ride on it: only the
    /// first of a batch arms a wake, and each (dst, msg_id) keeps its own
    /// budget.
    #[test]
    fn one_wake_per_batch_and_one_budget_per_message() {
        let mut b = RepostBudget::default();
        assert_eq!(b.failed(NodeId(1), 7), Repost::Arm(REPOST_DELAY));
        assert_eq!(b.failed(NodeId(2), 7), Repost::Queued);
        assert_eq!(b.failed(NodeId(1), 8), Repost::Queued);
        assert_eq!(b.take(), [(NodeId(1), 7), (NodeId(2), 7), (NodeId(1), 8)]);
        assert_eq!(b.failed(NodeId(1), 7), Repost::Arm(REPOST_DELAY * 2));
        assert_eq!(b.failed(NodeId(2), 7), Repost::Queued);
        assert_eq!(b.take().len(), 2);
        for _ in 2..MAX_REPOSTS {
            b.failed(NodeId(1), 7);
        }
        b.take();
        assert_eq!(b.failed(NodeId(1), 7), Repost::Spent);
        assert_eq!(b.failed(NodeId(2), 7), Repost::Arm(REPOST_DELAY * 4));
        assert_eq!(b.failed(NodeId(1), 8), Repost::Queued);
        assert_eq!(b.take(), [(NodeId(2), 7), (NodeId(1), 8)]);
    }
}
