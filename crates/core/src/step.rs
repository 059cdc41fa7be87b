//! The protocol core as a pure, side-effect-free transition function.
//!
//! Everything the go-back-N + generations + on-demand-mapping protocol
//! *decides* — sequence assignment, ACK-request placement, piggy-backing,
//! cumulative-ACK window release, go-back-N replay extent, Karn barriers,
//! remap retry budgets, generation renumbering — lives here as pure
//! functions over [`SenderState`]/[`ReceiverState`] plus a small amount of
//! model-only bookkeeping. Two drivers consume the kernel:
//!
//! * [`crate::ReliableFirmware`] — the simulator's NIC control program.
//!   It owns time, CPU costs, DMA, telemetry and the wire, and calls the
//!   kernel for every protocol decision.
//! * [`NodeModel`] — the reference [`ProtocolStep`] implementation: one
//!   NIC's *entire* protocol state as a value, stepped by abstract events
//!   with emitted [`NodeAction`]s instead of side effects. This is what
//!   the `san-mc` explicit-state model checker enumerates, and what the
//!   sim-vs-model bridge tests drive in lockstep with the firmware.
//!
//! The kernel deliberately excludes wall-clock quantities (RTT estimates,
//! backoff deadlines, busy windows): those are scheduling policy, not
//! protocol logic, and the model checker abstracts them into
//! nondeterministic event orderings.

use std::collections::VecDeque;

use san_nic::BufId;

use crate::config::FeedbackPolicy;
use crate::image_fields;
use crate::proto::{ReceiverState, RxVerdict, SenderState, MIN_CWND};

/// How many consecutive unreachable verdicts the protocol accepts before
/// it believes the mapper and drops the traffic queued toward the
/// destination. Mapping probes travel the same wormhole fabric as data:
/// under load (and especially when several NICs map at once) whole probe
/// batches can be lost to contention or probe-vs-probe deadlock, so one
/// run's worth of silence is weak evidence. The budget is sized so the
/// widening backoff (2^k timer periods) outlives a full Myrinet-scale
/// path-reset window (~62 ms) before the final verdict is accepted.
pub const MAX_MAP_ATTEMPTS: u32 = 7;

/// A pure state-machine seam: one step turns a state into its successor
/// under an event and reports the actions the step emitted, with no side
/// effects. Drivers (the simulator firmware, the model checker, the
/// bridge tests) interpret the actions against their own world.
///
/// The step is in place so a driver that explores many successors of one
/// state (the model checker) can reuse a single scratch state and action
/// buffer; a driver that needs the predecessor clones it first.
pub trait ProtocolStep {
    /// The machine's state value.
    type State;
    /// One input event.
    type Event;
    /// One emitted action.
    type Action;
    /// Advance `state` by `ev`, appending the emitted actions to `out`.
    fn step(&self, state: &mut Self::State, ev: &Self::Event, out: &mut Vec<Self::Action>);
}

// ---------------------------------------------------------------------------
// The shared decision kernel (used by both the firmware and the model).
// ---------------------------------------------------------------------------

/// The send-path assignment for one freshly admitted packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxAssign {
    /// Assigned sequence number.
    pub seq: u32,
    /// Generation it belongs to.
    pub generation: u16,
    /// Whether the packet carries an ACK request (sender-based feedback).
    pub want_ack: bool,
    /// Piggy-backed cumulative ACK toward the same peer, if one was owed.
    pub piggy: Option<(u32, u16)>,
}

/// Assign sequence number, generation, ACK-request bit and piggy-backed
/// ACK for one data packet toward `r`'s peer (the send path of §4.1.1 +
/// §4.1.2). Mutates the per-peer sender and receiver bookkeeping exactly
/// as the firmware's `on_tx_ready` does.
pub fn tx_assign(
    s: &mut SenderState,
    r: &mut ReceiverState,
    feedback: &FeedbackPolicy,
    free_fraction: f64,
    capacity: usize,
) -> TxAssign {
    let seq = s.take_seq();
    let generation = s.generation;
    // ACK-request decision (sender-based feedback, §4.1.2). The interval
    // is capped at half the pool, so a full pool always has a request
    // outstanding — no forced per-packet requests needed.
    s.since_ack_req += 1;
    let want_ack = s.since_ack_req >= feedback.interval(free_fraction, capacity);
    if want_ack {
        s.since_ack_req = 0;
    }
    // Piggy-back any owed ACK for this destination on the data packet.
    let piggy = if r.ack_owed {
        let p = (r.cumulative_ack(), r.generation);
        r.note_ack_sent();
        Some(p)
    } else {
        None
    };
    TxAssign {
        seq,
        generation,
        want_ack,
        piggy,
    }
}

/// The paper's §5.1.3 error injector clock: advance the per-NIC counter
/// and report whether this first transmission must be suppressed.
pub fn injector_fires(tx_counter: &mut u64, drop_interval: Option<u64>) -> bool {
    *tx_counter += 1;
    matches!(drop_interval, Some(n) if (*tx_counter).is_multiple_of(n))
}

/// Plan a go-back-N replay of `s`'s queue: set the Karn barrier (every
/// assigned seq becomes ambiguous for RTT sampling), apply the
/// timeout-driven backoff/window clamps, and return how many queue-head
/// packets go to the wire (the rest park in `unsent_tail`).
pub fn plan_replay(
    s: &mut SenderState,
    adaptive_rto: bool,
    window_damping: bool,
    timeout: bool,
) -> usize {
    // Karn's rule bookkeeping: every sequence number assigned so far is
    // now ambiguous for RTT sampling (the replay re-sends it).
    s.karn_barrier = s.next_seq;
    if timeout && adaptive_rto {
        s.rtt.bump_backoff();
    }
    if timeout && window_damping {
        // Multiplicative decrease: a loss halves the outstanding window.
        s.cwnd = ((s.in_flight() as u32) / 2).max(MIN_CWND);
    }
    // With damping on, replay only the head of the queue up to the
    // window; the suffix parks and flows back out as ACKs reopen it.
    let n = if window_damping {
        (s.cwnd as usize).min(s.retrans_q.len())
    } else {
        s.retrans_q.len()
    };
    s.unsent_tail = s.retrans_q.len() - n;
    n
}

/// Progress bookkeeping after a cumulative ACK freed at least one buffer:
/// the remap-retry episode ends, the parked-tail invariant is restored,
/// and a Karn-clean round trip reopens the damped window.
pub fn ack_progress(
    s: &mut SenderState,
    newest_clean: bool,
    window_damping: bool,
    pool_capacity: u32,
) {
    s.map_attempts = 0;
    s.remap_backoff_until = san_sim::Time::ZERO;
    // A cumulative ACK only ever frees transmitted packets (parked ones
    // were never on the wire), but keep the invariant explicit.
    s.unsent_tail = s.unsent_tail.min(s.retrans_q.len());
    if newest_clean && window_damping && s.cwnd != u32::MAX {
        s.cwnd = s.cwnd.saturating_mul(2).min(pool_capacity).max(MIN_CWND);
    }
}

/// Does the receiver owe a group ACK (accepted-but-unacknowledged count
/// reached the threshold) even though none was requested?
pub fn group_ack_due(r: &ReceiverState, receiver_ack_every: u32) -> bool {
    r.accepted_since_ack >= receiver_ack_every
}

/// Is a scheduled remap retry stale when it fires? Progress resumed
/// (cumulative ACKs reset the attempt count) or the route came back via
/// side discovery: the episode is over, and any descriptors parked in the
/// mapper must return to the normal send path — the PR 2 descriptor leak
/// was exactly this path forgetting them.
pub fn retry_is_stale(map_attempts: u32, has_route: bool) -> bool {
    map_attempts == 0 || has_route
}

/// What follows an unreachable mapping verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnreachableNext {
    /// Traffic is still owed and the retry budget has room: keep
    /// everything and re-run mapping after a backoff.
    Retry,
    /// Verdict confirmed across the budget (or nothing is queued): accept
    /// unreachable, drop the queue and notify the host.
    Accept,
}

/// Decide whether the `attempt`-th consecutive unreachable verdict is
/// believed (§4.2 + the PR 2 bounded-retry extension).
pub fn unreachable_next(attempt: u32, owes_traffic: bool, max_attempts: u32) -> UnreachableNext {
    if owes_traffic && attempt < max_attempts {
        UnreachableNext::Retry
    } else {
        UnreachableNext::Accept
    }
}

// ---------------------------------------------------------------------------
// The reference model: one NIC's protocol state as a value.
// ---------------------------------------------------------------------------

/// Test-only fault knobs: deliberately re-introduce fixed protocol bugs in
/// the *model* so the checker can demonstrate it finds them. Every knob
/// defaults to off; the firmware never reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultKnobs {
    /// Re-introduce the PR 2 stale-retry descriptor leak: when a scheduled
    /// remap retry fires after progress has resumed, the descriptors the
    /// mapper was holding are dropped on the floor instead of re-queued
    /// through the send path.
    pub leak_stale_retry_descs: bool,
}

/// A send descriptor in the model: destination plus a payload identity
/// (the host's message id). Payload ids are assigned in post order, which
/// is what the exactly-once/in-order invariants are phrased over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelDesc {
    /// Destination node index.
    pub dst: usize,
    /// Host-level message identity.
    pub payload: u64,
}

image_fields!(ModelDesc { dst, payload });

/// One occupied NIC send buffer in the model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelBuf {
    /// Destination the buffer is queued toward.
    pub dst: usize,
    /// Assigned sequence number.
    pub seq: u32,
    /// Generation it was (re)numbered into.
    pub generation: u16,
    /// Payload identity.
    pub payload: u64,
    /// The sticky ACK-request flag (set at assignment or as the tail of a
    /// replay; persists across retransmissions, as on the real NIC).
    pub ack_request: bool,
}

image_fields!(ModelBuf {
    dst,
    seq,
    generation,
    payload,
    ack_request,
});

/// A data packet on the model's wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ModelPacket {
    /// Sequence number.
    pub seq: u32,
    /// Generation.
    pub generation: u16,
    /// Payload identity.
    pub payload: u64,
    /// ACK requested?
    pub ack_request: bool,
    /// Piggy-backed cumulative ACK `(ack_seq, ack_gen)`, if any.
    pub piggy: Option<(u32, u16)>,
}

image_fields!(ModelPacket {
    seq,
    generation,
    payload,
    ack_request,
    piggy,
});

/// One abstract input event for a [`NodeModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEvent {
    /// The host posted a send descriptor.
    PostSend {
        /// Destination node.
        dst: usize,
        /// Message identity.
        payload: u64,
    },
    /// A data packet arrived from `src`.
    RxData {
        /// Source node.
        src: usize,
        /// The packet.
        pkt: ModelPacket,
    },
    /// An explicit cumulative ACK arrived from `src`.
    RxAck {
        /// Source node (the peer that sent the ACK).
        src: usize,
        /// Cumulative sequence acknowledged.
        ack_seq: u32,
        /// Generation the ACK refers to.
        ack_gen: u16,
    },
    /// The periodic scan found `dst`'s queue head aged past the timeout:
    /// go-back-N replay (the single-timer scan of §4.1.1, with the timing
    /// abstracted into nondeterminism).
    ScanTick {
        /// Destination whose queue replays.
        dst: usize,
    },
    /// The permanent-failure threshold elapsed with no progress toward
    /// `dst`: invalidate the route and start on-demand mapping (§4.2).
    SuspectPermFail {
        /// The stalled destination.
        dst: usize,
    },
    /// The mapping run for `dst` ended.
    MapResolved {
        /// The mapped destination.
        dst: usize,
        /// Whether a route was found (false = unreachable verdict).
        found: bool,
    },
    /// A scheduled remap retry for `dst` fired.
    RemapRetry {
        /// The destination of the retry episode.
        dst: usize,
    },
}

/// One action emitted by a [`NodeModel`] step. The driver interprets
/// these against its world (wire, host, checker bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeAction {
    /// Put a data packet on the wire toward `dst`.
    Transmit {
        /// Destination node.
        dst: usize,
        /// The packet.
        pkt: ModelPacket,
        /// True for a first transmission, false for a replay.
        first: bool,
    },
    /// The error injector suppressed a first transmission (§5.1.3): the
    /// packet sits in the retransmission queue only.
    InjectorDrop {
        /// Destination node.
        dst: usize,
        /// Suppressed sequence number.
        seq: u32,
    },
    /// An in-order packet from `src` was deposited to host memory.
    Deposit {
        /// Source node.
        src: usize,
        /// Payload identity.
        payload: u64,
        /// Its sequence number.
        seq: u32,
        /// Its generation.
        generation: u16,
    },
    /// An explicit cumulative ACK left toward `dst`.
    AckTx {
        /// Destination (the data sender being acknowledged).
        dst: usize,
        /// Cumulative sequence acknowledged.
        ack_seq: u32,
        /// Generation acknowledged.
        ack_gen: u16,
    },
    /// On-demand mapping started toward `dst` (route invalidated).
    StartMapping {
        /// The destination being mapped.
        dst: usize,
    },
    /// The host was notified that a send failed as unreachable.
    SendFailed {
        /// Destination node.
        dst: usize,
        /// Payload identity of the failed message.
        payload: u64,
    },
    /// A new generation was adopted toward `dst` after re-mapping.
    GenerationBump {
        /// Destination node.
        dst: usize,
        /// The new generation.
        generation: u16,
    },
}

/// The whole protocol state of one NIC as a value.
#[derive(Debug, Default)]
pub struct NodeState {
    /// Per-peer send-side state (indexed by node id).
    pub senders: Vec<SenderState>,
    /// Per-peer receive-side state (indexed by node id).
    pub receivers: Vec<ReceiverState>,
    /// The send-buffer pool; `None` = free slot. `SenderState::retrans_q`
    /// holds [`BufId`] indices into this vector.
    pub pool: Vec<Option<ModelBuf>>,
    /// Descriptors posted but not yet admitted to a buffer.
    pub pending: VecDeque<ModelDesc>,
    /// Per-destination descriptors parked in the mapper while its route
    /// resolves (mirrors `Mapper::held`).
    pub held: Vec<Vec<ModelDesc>>,
    /// Per-destination: a remap retry is scheduled (backoff running).
    pub retry_pending: Vec<bool>,
    /// Per-destination: is the route table entry valid?
    pub route_ok: Vec<bool>,
    /// The injector's per-NIC transmission counter.
    pub tx_counter: u64,
    /// Per-destination count of descriptors completed (acknowledged and
    /// released) — one side of the conservation invariant.
    pub completed: Vec<u64>,
    /// Per-destination count of descriptors failed (`SendFailed`).
    pub failed: Vec<u64>,
}

impl NodeState {
    /// Free buffers remaining.
    pub fn pool_free(&self) -> usize {
        self.pool.iter().filter(|b| b.is_none()).count()
    }
}

/// Field-wise, so `clone_from` keeps every buffer of the destination (the
/// model checker overwrites one scratch successor per transition). Both
/// methods name every field: a new field fails to compile until it is
/// copied here.
impl Clone for NodeState {
    fn clone(&self) -> Self {
        Self {
            senders: self.senders.clone(),
            receivers: self.receivers.clone(),
            pool: self.pool.clone(),
            pending: self.pending.clone(),
            held: self.held.clone(),
            retry_pending: self.retry_pending.clone(),
            route_ok: self.route_ok.clone(),
            tx_counter: self.tx_counter,
            completed: self.completed.clone(),
            failed: self.failed.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Self {
            senders,
            receivers,
            pool,
            pending,
            held,
            retry_pending,
            route_ok,
            tx_counter,
            completed,
            failed,
        } = self;
        senders.clone_from(&src.senders);
        receivers.clone_from(&src.receivers);
        pool.clone_from(&src.pool);
        pending.clone_from(&src.pending);
        held.clone_from(&src.held);
        retry_pending.clone_from(&src.retry_pending);
        route_ok.clone_from(&src.route_ok);
        *tx_counter = src.tx_counter;
        completed.clone_from(&src.completed);
        failed.clone_from(&src.failed);
    }
}

image_fields!(NodeState {
    senders,
    receivers,
    pool,
    pending,
    held,
    retry_pending,
    route_ok,
    tx_counter,
    completed,
    failed,
});

/// The reference pure model of one NIC running the paper's protocol —
/// the [`ProtocolStep`] implementation driven by the `san-mc` checker
/// and the sim-vs-model bridge tests.
///
/// Deliberate scope: the fixed-timer paper baseline (no adaptive RTO, no
/// window damping, no selective ablation), with mapping collapsed to its
/// *protocol-visible* transitions (route invalid / mapping / resolved /
/// retry) — probe mechanics live in [`crate::Mapper`] and are irrelevant
/// to the delivery and descriptor-conservation invariants.
#[derive(Debug, Clone)]
pub struct NodeModel {
    /// This node's id.
    pub me: usize,
    /// Cluster size.
    pub n_nodes: usize,
    /// Send-buffer pool capacity (the paper's queue-size parameter).
    pub pool_capacity: u16,
    /// ACK-request policy. Note [`FeedbackPolicy::SenderFeedback`] couples
    /// the request interval to instantaneous pool pressure, which is
    /// timing-dependent in the simulator (descriptors admit in batches);
    /// model/sim lockstep comparisons should use `EveryK`.
    pub feedback: FeedbackPolicy,
    /// Receiver-side group-ACK threshold.
    pub receiver_ack_every: u32,
    /// Error-injector interval (every Nth first transmission suppressed).
    pub drop_interval: Option<u64>,
    /// Remap retry budget (the firmware uses [`MAX_MAP_ATTEMPTS`]; tiny
    /// checker configs shrink it to keep the state space small).
    pub max_map_attempts: u32,
    /// Test-only fault knobs (all off in honest configurations).
    pub knobs: FaultKnobs,
}

impl NodeModel {
    /// A model with the firmware's defaults for a `n_nodes` cluster.
    pub fn new(me: usize, n_nodes: usize, pool_capacity: u16) -> Self {
        Self {
            me,
            n_nodes,
            pool_capacity,
            feedback: FeedbackPolicy::EveryK(2),
            receiver_ack_every: 16,
            drop_interval: None,
            max_map_attempts: MAX_MAP_ATTEMPTS,
            knobs: FaultKnobs::default(),
        }
    }

    /// The initial state, with every pair's sequence space pre-positioned
    /// at `initial_seq`/`initial_gen` (the checker's wrap configurations
    /// start just below the u32/u16 wrap points; the simulator equivalent
    /// is [`crate::ReliableFirmware::force_sender_seq`]).
    pub fn initial_state(&self, initial_seq: u32, initial_gen: u16) -> NodeState {
        let n = self.n_nodes;
        NodeState {
            senders: (0..n)
                .map(|_| SenderState {
                    next_seq: initial_seq,
                    generation: initial_gen,
                    ..SenderState::default()
                })
                .collect(),
            receivers: (0..n)
                .map(|_| ReceiverState {
                    expected: initial_seq,
                    generation: initial_gen,
                    ..ReceiverState::default()
                })
                .collect(),
            pool: vec![None; self.pool_capacity as usize],
            pending: VecDeque::new(),
            held: vec![Vec::new(); n],
            retry_pending: vec![false; n],
            route_ok: vec![true; n],
            tx_counter: 0,
            completed: vec![0; n],
            failed: vec![0; n],
        }
    }

    /// Drain pending descriptors into buffers while both a route and a
    /// free buffer exist (mirrors `Nic::pump`: the route check comes
    /// first — a missing route must not consume a buffer).
    fn pump(&self, st: &mut NodeState, out: &mut Vec<NodeAction>) {
        loop {
            let Some(front) = st.pending.front() else {
                return;
            };
            let dst = front.dst;
            if !st.route_ok[dst] {
                let desc = st.pending.pop_front().unwrap();
                self.on_no_route(st, out, desc);
                continue;
            }
            if st.pool_free() == 0 {
                return;
            }
            let desc = st.pending.pop_front().unwrap();
            self.admit(st, out, desc);
        }
    }

    /// Mirror of the firmware's `on_no_route`: park the descriptor in the
    /// mapper and start a mapping run unless one is active or a retry
    /// backoff owns the restart.
    fn on_no_route(&self, st: &mut NodeState, out: &mut Vec<NodeAction>, desc: ModelDesc) {
        let dst = desc.dst;
        st.held[dst].push(desc);
        if !st.senders[dst].mapping && !st.retry_pending[dst] {
            st.senders[dst].mapping = true;
            out.push(NodeAction::StartMapping { dst });
        }
    }

    /// Admit one descriptor into a free buffer: the `on_tx_ready` send
    /// path (sequence/generation/ACK-request/piggy assignment, injector).
    fn admit(&self, st: &mut NodeState, out: &mut Vec<NodeAction>, desc: ModelDesc) {
        let dst = desc.dst;
        let slot = st
            .pool
            .iter()
            .position(|b| b.is_none())
            .expect("pump checked pool_free");
        st.pool[slot] = Some(ModelBuf {
            dst,
            seq: 0,
            generation: 0,
            payload: desc.payload,
            ack_request: false,
        });
        // Free fraction as the firmware sees it in `on_tx_ready`: the
        // admitted buffer is already allocated.
        let capacity = self.pool_capacity as usize;
        let free = st.pool_free() as f64 / capacity as f64;
        let assign = tx_assign(
            &mut st.senders[dst],
            &mut st.receivers[dst],
            &self.feedback,
            free,
            capacity,
        );
        st.senders[dst].retrans_q.push_back(BufId(slot as u16));
        let buf = st.pool[slot].as_mut().unwrap();
        buf.seq = assign.seq;
        buf.generation = assign.generation;
        buf.ack_request = assign.want_ack;
        let pkt = ModelPacket {
            seq: assign.seq,
            generation: assign.generation,
            payload: desc.payload,
            ack_request: assign.want_ack,
            piggy: assign.piggy,
        };
        if injector_fires(&mut st.tx_counter, self.drop_interval) {
            out.push(NodeAction::InjectorDrop {
                dst,
                seq: assign.seq,
            });
        } else {
            out.push(NodeAction::Transmit {
                dst,
                pkt,
                first: true,
            });
        }
    }

    /// Process a cumulative ACK from `peer` (explicit or piggy-backed).
    fn apply_ack(
        &self,
        st: &mut NodeState,
        out: &mut Vec<NodeAction>,
        peer: usize,
        ack_seq: u32,
        ack_gen: u16,
    ) {
        let (s, pool) = (&mut st.senders[peer], &mut st.pool);
        let n = s.acked_prefix(ack_seq, ack_gen, |b| {
            let mb = pool[b.0 as usize].as_ref().expect("queued buf occupied");
            (mb.seq, mb.generation)
        });
        if n == 0 {
            return;
        }
        let newest = s.retrans_q[n - 1];
        let newest_seq = pool[newest.0 as usize].as_ref().unwrap().seq;
        let clean = s.sample_eligible(newest_seq);
        for b in s.retrans_q.drain(..n) {
            pool[b.0 as usize] = None;
        }
        st.completed[peer] += n as u64;
        ack_progress(s, clean, false, self.pool_capacity as u32);
        self.pump(st, out);
    }

    /// Go-back-N replay toward `dst` (scan-tick or post-remap path).
    fn replay(&self, st: &mut NodeState, out: &mut Vec<NodeAction>, dst: usize, timeout: bool) {
        if st.senders[dst].retrans_q.is_empty() || st.senders[dst].mapping {
            return;
        }
        let n = plan_replay(&mut st.senders[dst], false, false, timeout);
        for i in 0..n {
            let b = st.senders[dst].retrans_q[i];
            let buf = st.pool[b.0 as usize].as_mut().expect("queued buf occupied");
            if i + 1 == n {
                // The last one requests an ACK so recovery completes even
                // with no further traffic; the flag sticks on the buffer.
                buf.ack_request = true;
            }
            out.push(NodeAction::Transmit {
                dst,
                pkt: ModelPacket {
                    seq: buf.seq,
                    generation: buf.generation,
                    payload: buf.payload,
                    ack_request: buf.ack_request,
                    piggy: None,
                },
                first: false,
            });
        }
    }

    /// Receive-path handling of one data packet from `src`.
    fn rx_data(
        &self,
        st: &mut NodeState,
        out: &mut Vec<NodeAction>,
        src: usize,
        pkt: &ModelPacket,
    ) {
        if let Some((ack_seq, ack_gen)) = pkt.piggy {
            self.apply_ack(st, out, src, ack_seq, ack_gen);
        }
        let verdict = st.receivers[src].classify(pkt.seq, pkt.generation);
        match verdict {
            RxVerdict::Accept => {
                out.push(NodeAction::Deposit {
                    src,
                    payload: pkt.payload,
                    seq: pkt.seq,
                    generation: pkt.generation,
                });
                let due = group_ack_due(&st.receivers[src], self.receiver_ack_every);
                if pkt.ack_request || due {
                    let r = &mut st.receivers[src];
                    out.push(NodeAction::AckTx {
                        dst: src,
                        ack_seq: r.cumulative_ack(),
                        ack_gen: r.generation,
                    });
                    r.note_ack_sent();
                }
            }
            RxVerdict::Duplicate => {
                // Drop, but re-ACK so the sender can free its window.
                if pkt.ack_request {
                    let r = &mut st.receivers[src];
                    out.push(NodeAction::AckTx {
                        dst: src,
                        ack_seq: r.cumulative_ack(),
                        ack_gen: r.generation,
                    });
                    r.note_ack_sent();
                }
            }
            RxVerdict::OutOfOrder | RxVerdict::StaleGeneration => {
                // Dropped with no buffering and no NACK (§4.1.1 / §4.2).
            }
        }
    }

    /// The mapping run for `dst` ended (mirror of the firmware's
    /// `apply_map_outcomes` + `finish_remap`).
    fn map_resolved(&self, st: &mut NodeState, out: &mut Vec<NodeAction>, dst: usize, found: bool) {
        if !st.senders[dst].mapping {
            return;
        }
        if found {
            // New generation: renumber the queued window from zero and
            // retransmit it over the new route.
            st.route_ok[dst] = true;
            let s = &mut st.senders[dst];
            s.mapping = false;
            s.new_generation();
            let generation = s.generation;
            for i in 0..s.retrans_q.len() {
                let b = s.retrans_q[i];
                let seq = s.take_seq();
                let mb = st.pool[b.0 as usize].as_mut().expect("queued buf occupied");
                mb.seq = seq;
                mb.generation = generation;
                // Renumbered packets are fresh transmissions of the new
                // generation; the sticky request bit re-arms per replay.
                mb.ack_request = false;
            }
            s.map_attempts = 0;
            out.push(NodeAction::GenerationBump { dst, generation });
            self.replay(st, out, dst, false);
            // The descriptors the mapper held return to the send path.
            st.pending.extend(st.held[dst].drain(..));
            self.pump(st, out);
            return;
        }
        st.senders[dst].map_attempts += 1;
        let attempt = st.senders[dst].map_attempts;
        let owes = !st.senders[dst].retrans_q.is_empty() || !st.held[dst].is_empty();
        match unreachable_next(attempt, owes, self.max_map_attempts) {
            UnreachableNext::Retry => {
                // Don't believe a single silent run while traffic is still
                // queued: keep everything and try again after a backoff.
                st.senders[dst].mapping = false;
                st.retry_pending[dst] = true;
            }
            UnreachableNext::Accept => {
                // Unreachable: drop everything queued toward dst and post
                // error completions (§4.2). The retry budget restarts — a
                // future episode deserves fresh evidence.
                let s = &mut st.senders[dst];
                s.mapping = false;
                s.map_attempts = 0;
                s.unsent_tail = 0;
                for b in s.retrans_q.drain(..) {
                    let mb = st.pool[b.0 as usize].take().expect("queued buf occupied");
                    out.push(NodeAction::SendFailed {
                        dst,
                        payload: mb.payload,
                    });
                    st.failed[dst] += 1;
                }
                for d in st.held[dst].drain(..) {
                    out.push(NodeAction::SendFailed {
                        dst,
                        payload: d.payload,
                    });
                    st.failed[dst] += 1;
                }
                // Descriptors still pending toward dst are dropped too.
                let failed = &mut st.failed[dst];
                st.pending.retain(|d| {
                    if d.dst != dst {
                        return true;
                    }
                    out.push(NodeAction::SendFailed {
                        dst,
                        payload: d.payload,
                    });
                    *failed += 1;
                    false
                });
                self.pump(st, out);
            }
        }
    }

    /// A scheduled remap retry fired (mirror of `on_remap_retry`).
    fn remap_retry(&self, st: &mut NodeState, out: &mut Vec<NodeAction>, dst: usize) {
        st.retry_pending[dst] = false;
        if st.senders[dst].mapping {
            // A newer mapping run is active; its outcome owns the held
            // descriptors.
            return;
        }
        if retry_is_stale(st.senders[dst].map_attempts, st.route_ok[dst]) {
            // The episode is over, but descriptors parked in the mapper
            // must go back to the normal send path or they are lost.
            if !st.held[dst].is_empty() {
                if self.knobs.leak_stale_retry_descs {
                    // PR 2 bug, deliberately re-introduced for the checker:
                    // the parked descriptors vanish without completion.
                    st.held[dst].clear();
                } else {
                    st.pending.extend(st.held[dst].drain(..));
                    self.pump(st, out);
                }
            }
            return;
        }
        if st.senders[dst].retrans_q.is_empty() && st.held[dst].is_empty() {
            // Nothing owed toward dst anymore; forget the episode.
            st.senders[dst].map_attempts = 0;
            return;
        }
        st.route_ok[dst] = false;
        st.senders[dst].mapping = true;
        out.push(NodeAction::StartMapping { dst });
    }
}

impl ProtocolStep for NodeModel {
    type State = NodeState;
    type Event = NodeEvent;
    type Action = NodeAction;

    fn step(&self, st: &mut NodeState, ev: &NodeEvent, out: &mut Vec<NodeAction>) {
        match *ev {
            NodeEvent::PostSend { dst, payload } => {
                st.pending.push_back(ModelDesc { dst, payload });
                self.pump(st, out);
            }
            NodeEvent::RxData { src, ref pkt } => self.rx_data(st, out, src, pkt),
            NodeEvent::RxAck {
                src,
                ack_seq,
                ack_gen,
            } => self.apply_ack(st, out, src, ack_seq, ack_gen),
            NodeEvent::ScanTick { dst } => self.replay(st, out, dst, true),
            NodeEvent::SuspectPermFail { dst } => {
                let s = &st.senders[dst];
                if !s.mapping && !st.retry_pending[dst] && !s.retrans_q.is_empty() {
                    st.route_ok[dst] = false;
                    st.senders[dst].mapping = true;
                    out.push(NodeAction::StartMapping { dst });
                }
            }
            NodeEvent::MapResolved { dst, found } => self.map_resolved(st, out, dst, found),
            NodeEvent::RemapRetry { dst } => self.remap_retry(st, out, dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_model() -> NodeModel {
        NodeModel::new(0, 2, 2)
    }

    /// Step `st` in place; returns the emitted actions.
    fn step(m: &NodeModel, st: &mut NodeState, ev: NodeEvent) -> Vec<NodeAction> {
        let mut out = Vec::new();
        m.step(st, &ev, &mut out);
        out
    }

    #[test]
    fn post_assigns_and_transmits() {
        let m = two_node_model();
        let mut s1 = m.initial_state(0, 0);
        let a1 = step(&m, &mut s1, NodeEvent::PostSend { dst: 1, payload: 0 });
        assert_eq!(a1.len(), 1);
        match a1[0] {
            NodeAction::Transmit {
                dst: 1,
                pkt,
                first: true,
            } => {
                assert_eq!(pkt.seq, 0);
                assert_eq!(pkt.generation, 0);
            }
            ref other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(s1.senders[1].retrans_q.len(), 1);
        assert_eq!(s1.pool_free(), 1);
    }

    #[test]
    fn pool_exhaustion_pends_then_pumps_on_ack() {
        let m = two_node_model();
        let mut st = m.initial_state(0, 0);
        for p in 0..3u64 {
            step(&m, &mut st, NodeEvent::PostSend { dst: 1, payload: p });
        }
        assert_eq!(st.pool_free(), 0);
        assert_eq!(st.pending.len(), 1, "third post waits for a buffer");
        // Ack the first packet: the pending descriptor admits.
        let acts = step(
            &m,
            &mut st,
            NodeEvent::RxAck {
                src: 1,
                ack_seq: 0,
                ack_gen: 0,
            },
        );
        assert!(st.pending.is_empty());
        assert_eq!(st.completed[1], 1);
        assert!(acts
            .iter()
            .any(|a| matches!(a, NodeAction::Transmit { pkt, .. } if pkt.seq == 2)));
    }

    #[test]
    fn tick_replays_whole_queue_with_tail_ack_request() {
        let m = two_node_model();
        let mut st = m.initial_state(0, 0);
        for p in 0..2u64 {
            step(&m, &mut st, NodeEvent::PostSend { dst: 1, payload: p });
        }
        let acts = step(&m, &mut st, NodeEvent::ScanTick { dst: 1 });
        let replays: Vec<&NodeAction> = acts
            .iter()
            .filter(|a| matches!(a, NodeAction::Transmit { first: false, .. }))
            .collect();
        assert_eq!(replays.len(), 2);
        match replays[1] {
            NodeAction::Transmit { pkt, .. } => assert!(pkt.ack_request, "tail requests an ACK"),
            _ => unreachable!(),
        }
        assert_eq!(st.senders[1].karn_barrier, st.senders[1].next_seq);
    }

    #[test]
    fn receiver_deposits_in_order_and_acks_on_request() {
        let m = NodeModel::new(1, 2, 2);
        let mut st = m.initial_state(0, 0);
        let pkt = ModelPacket {
            seq: 0,
            generation: 0,
            payload: 7,
            ack_request: true,
            piggy: None,
        };
        let acts = step(&m, &mut st, NodeEvent::RxData { src: 0, pkt });
        assert!(matches!(acts[0], NodeAction::Deposit { payload: 7, .. }));
        assert!(matches!(acts[1], NodeAction::AckTx { ack_seq: 0, .. }));
        assert_eq!(st.receivers[0].expected, 1);
    }

    #[test]
    fn unreachable_after_budget_fails_all_owed_descriptors() {
        let mut m = two_node_model();
        m.max_map_attempts = 1;
        let mut st = m.initial_state(0, 0);
        for p in 0..2u64 {
            step(&m, &mut st, NodeEvent::PostSend { dst: 1, payload: p });
        }
        let acts = step(&m, &mut st, NodeEvent::SuspectPermFail { dst: 1 });
        assert!(matches!(acts[0], NodeAction::StartMapping { dst: 1 }));
        assert!(st.senders[1].mapping);
        // Post while mapping: descriptor parks in the mapper.
        step(&m, &mut st, NodeEvent::PostSend { dst: 1, payload: 2 });
        assert_eq!(st.held[1].len(), 1);
        let acts = step(
            &m,
            &mut st,
            NodeEvent::MapResolved {
                dst: 1,
                found: false,
            },
        );
        let failed: Vec<u64> = acts
            .iter()
            .filter_map(|a| match a {
                NodeAction::SendFailed { payload, .. } => Some(*payload),
                _ => None,
            })
            .collect();
        assert_eq!(failed, vec![0, 1, 2], "queued + held all fail exactly once");
        assert_eq!(st.failed[1], 3);
        assert_eq!(st.pool_free(), 2, "buffers released");
        assert!(!st.senders[1].mapping);
    }

    #[test]
    fn stale_retry_requeues_held_descriptors_unless_leak_knob() {
        for leak in [false, true] {
            let mut m = two_node_model();
            m.max_map_attempts = 2;
            m.knobs.leak_stale_retry_descs = leak;
            let mut st = m.initial_state(0, 0);
            step(&m, &mut st, NodeEvent::PostSend { dst: 1, payload: 0 });
            step(&m, &mut st, NodeEvent::SuspectPermFail { dst: 1 });
            // Spurious unreachable: retry scheduled, attempts = 1.
            step(
                &m,
                &mut st,
                NodeEvent::MapResolved {
                    dst: 1,
                    found: false,
                },
            );
            assert!(st.retry_pending[1]);
            // A post during the backoff parks in the mapper.
            step(&m, &mut st, NodeEvent::PostSend { dst: 1, payload: 1 });
            assert_eq!(st.held[1].len(), 1);
            // Progress resumes: route restored + attempts reset via an ACK.
            st.route_ok[1] = true;
            step(
                &m,
                &mut st,
                NodeEvent::RxAck {
                    src: 1,
                    ack_seq: 0,
                    ack_gen: 0,
                },
            );
            assert_eq!(st.senders[1].map_attempts, 0);
            // The stale retry fires.
            step(&m, &mut st, NodeEvent::RemapRetry { dst: 1 });
            let accounted = st.pending.len()
                + st.held[1].len()
                + st.senders[1].retrans_q.len()
                + st.completed[1] as usize
                + st.failed[1] as usize;
            if leak {
                assert_eq!(accounted, 1, "leak knob: one descriptor vanished");
            } else {
                assert_eq!(accounted, 2, "fixed path conserves all descriptors");
            }
        }
    }
}
