//! The checked system: N [`NodeModel`]s plus an adversarial network.
//!
//! A [`SysState`] is the cross product of every node's protocol state and
//! one bounded channel per ordered node pair. The checker enumerates
//! [`McEvent`]s — each is one atomic transition: an environment move
//! (post, deliver, drop, duplicate, link flap) or a protocol-internal
//! nondeterministic choice (scan-timer firing, permanent-failure
//! suspicion, mapping verdict, remap-retry expiry). Timing is fully
//! abstracted: any interleaving the simulator could produce under *some*
//! assignment of latencies and timer phases corresponds to a path here,
//! which is exactly what makes exhaustive search meaningful.
//!
//! Fault budgets (losses, duplications, link flaps, spurious verdicts)
//! bound the adversary and, together with the bounded channels and
//! message counts, make the reachable state space finite.

use san_ft::image::{unpack_from, unpack_with, Image};
use san_ft::step::{
    FaultKnobs, ModelPacket, NodeAction, NodeEvent, NodeModel, NodeState, ProtocolStep,
};
use san_ft::{gen_newer, image_fields, FeedbackPolicy};

/// One checked configuration: topology size, traffic matrix, protocol
/// parameters and the adversary's fault budgets.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Short name (used by the CLI and reports).
    pub name: &'static str,
    /// Number of nodes (2 or 3 for tractable spaces).
    pub n_nodes: usize,
    /// NIC send-buffer pool capacity per node.
    pub pool_capacity: u16,
    /// Bound on packets in flight per directed channel (data and ACKs
    /// each); transmissions into a full channel are dropped silently
    /// (wire backpressure — sound for safety, and the go-back-N replay
    /// regenerates them for liveness). At most [`MAX_CHAN_CAP`].
    pub chan_cap: usize,
    /// Messages to post per ordered pair (`src * n_nodes + dst`), at most
    /// [`MAX_MESSAGES_PER_PAIR`].
    pub messages: Vec<u8>,
    /// ACK-request policy for every node.
    pub feedback: FeedbackPolicy,
    /// Receiver-side group-ACK threshold.
    pub receiver_ack_every: u32,
    /// Error-injector interval (model-internal deterministic drops, on
    /// top of the adversary's budgeted ones).
    pub drop_interval: Option<u64>,
    /// Remap retry budget (tiny here to keep episodes short).
    pub max_map_attempts: u32,
    /// Every pair's sequence space starts here (wrap configs start just
    /// below `u32::MAX`).
    pub initial_seq: u32,
    /// Every pair's generation starts here.
    pub initial_gen: u16,
    /// May the adversary deliver out of FIFO order within a channel?
    pub reorder: bool,
    /// Budget: adversarial packet drops (data or ACK).
    pub max_losses: u32,
    /// Budget: adversarial packet duplications.
    pub max_dups: u32,
    /// Budget: link-down events (each clears the channel in flight).
    pub max_link_downs: u32,
    /// Budget: link-up repairs.
    pub max_link_ups: u32,
    /// Budget: permanent-failure suspicions (threshold crossings).
    pub max_permfails: u32,
    /// Budget: *spurious* unreachable mapping verdicts while the links
    /// are actually up (probe loss / probe deadlock in the real system).
    pub max_spurious: u32,
    /// Deliberate-bug knobs forwarded to every node's model.
    pub knobs: FaultKnobs,
}

impl McConfig {
    /// The canonical exhaustive config: 2 nodes, one-way traffic, tiny
    /// sequence space, loss + duplication + reordering. No mapping
    /// events, so canonicalization collapses the space exactly.
    pub fn tiny2() -> Self {
        Self {
            name: "tiny2",
            n_nodes: 2,
            pool_capacity: 2,
            chan_cap: 3,
            messages: vec![0, 3, 0, 0],
            feedback: FeedbackPolicy::EveryK(2),
            receiver_ack_every: 2,
            drop_interval: None,
            max_map_attempts: 2,
            initial_seq: 0,
            initial_gen: 0,
            reorder: true,
            max_losses: 2,
            max_dups: 1,
            max_link_downs: 0,
            max_link_ups: 0,
            max_permfails: 0,
            max_spurious: 0,
            knobs: FaultKnobs::default(),
        }
    }

    /// `tiny2` with the sequence space and generation positioned just
    /// below their wrap points: every delivery crosses `u32::MAX → 0`.
    /// Canonicalization makes this *bit-identical* in state count to
    /// `tiny2` — pinned by a test.
    pub fn wrap2() -> Self {
        Self {
            name: "wrap2",
            initial_seq: u32::MAX - 1,
            initial_gen: u16::MAX,
            ..Self::tiny2()
        }
    }

    /// 2 nodes with the full failure model: a link that can die and be
    /// repaired, permanent-failure suspicion, mapping with spurious
    /// verdicts and the remap-retry machinery.
    pub fn remap2() -> Self {
        Self {
            name: "remap2",
            n_nodes: 2,
            pool_capacity: 2,
            chan_cap: 2,
            messages: vec![0, 2, 0, 0],
            feedback: FeedbackPolicy::EveryK(2),
            receiver_ack_every: 2,
            drop_interval: None,
            max_map_attempts: 2,
            initial_seq: 0,
            initial_gen: 0,
            reorder: false,
            max_losses: 1,
            max_dups: 0,
            max_link_downs: 1,
            max_link_ups: 1,
            max_permfails: 1,
            max_spurious: 1,
            knobs: FaultKnobs::default(),
        }
    }

    /// `remap2` with the PR 2 stale-retry descriptor leak re-introduced:
    /// the checker must find a conservation counterexample.
    pub fn leak2() -> Self {
        Self {
            name: "leak2",
            knobs: FaultKnobs {
                leak_stale_retry_descs: true,
            },
            ..Self::remap2()
        }
    }

    /// 2 nodes with traffic in both directions: exercises piggy-backed
    /// ACKs and the request/group interplay under loss.
    pub fn bidir2() -> Self {
        Self {
            name: "bidir2",
            n_nodes: 2,
            pool_capacity: 2,
            chan_cap: 2,
            messages: vec![0, 2, 2, 0],
            feedback: FeedbackPolicy::EveryK(2),
            receiver_ack_every: 2,
            drop_interval: None,
            max_map_attempts: 2,
            initial_seq: 0,
            initial_gen: 0,
            reorder: false,
            max_losses: 1,
            max_dups: 1,
            max_link_downs: 0,
            max_link_ups: 0,
            max_permfails: 0,
            max_spurious: 0,
            knobs: FaultKnobs::default(),
        }
    }

    /// 3 nodes, two senders into one receiver (incast): shared receiver
    /// state across sources, one loss.
    pub fn incast3() -> Self {
        Self {
            name: "incast3",
            n_nodes: 3,
            pool_capacity: 2,
            chan_cap: 2,
            messages: vec![0, 0, 2, 0, 0, 2, 0, 0, 0],
            feedback: FeedbackPolicy::EveryK(2),
            receiver_ack_every: 2,
            drop_interval: None,
            max_map_attempts: 2,
            initial_seq: 0,
            initial_gen: 0,
            reorder: false,
            max_losses: 1,
            max_dups: 0,
            max_link_downs: 0,
            max_link_ups: 0,
            max_permfails: 0,
            max_spurious: 0,
            knobs: FaultKnobs::default(),
        }
    }

    /// Look a preset up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "tiny2" => Some(Self::tiny2()),
            "wrap2" => Some(Self::wrap2()),
            "remap2" => Some(Self::remap2()),
            "leak2" => Some(Self::leak2()),
            "bidir2" => Some(Self::bidir2()),
            "incast3" => Some(Self::incast3()),
            _ => None,
        }
    }

    /// All presets, in reporting order.
    pub fn presets() -> Vec<Self> {
        vec![
            Self::tiny2(),
            Self::wrap2(),
            Self::remap2(),
            Self::leak2(),
            Self::bidir2(),
            Self::incast3(),
        ]
    }

    /// The node model for node `me` under this config.
    pub fn node_model(&self, me: usize) -> NodeModel {
        NodeModel {
            me,
            n_nodes: self.n_nodes,
            pool_capacity: self.pool_capacity,
            feedback: self.feedback,
            receiver_ack_every: self.receiver_ack_every,
            drop_interval: self.drop_interval,
            max_map_attempts: self.max_map_attempts,
            knobs: self.knobs,
        }
    }

    /// Ordered-pair index.
    pub fn pair(&self, src: usize, dst: usize) -> usize {
        src * self.n_nodes + dst
    }

    /// Reject a config the model cannot represent: the traffic matrix
    /// must cover every ordered pair, payload ids index 16-bit delivery
    /// masks, and the encoder builds a channel's records on the stack.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_nodes < 2 {
            return Err(format!(
                "{} nodes; the model needs at least 2",
                self.n_nodes
            ));
        }
        let pairs = self.n_nodes * self.n_nodes;
        if self.messages.len() != pairs {
            return Err(format!(
                "{} message counts for {} nodes; expected one per ordered pair ({pairs})",
                self.messages.len(),
                self.n_nodes
            ));
        }
        if let Some(p) = self
            .messages
            .iter()
            .position(|&m| m > MAX_MESSAGES_PER_PAIR)
        {
            return Err(format!(
                "pair {p} posts {} messages; at most {MAX_MESSAGES_PER_PAIR} per pair",
                self.messages[p]
            ));
        }
        if self.chan_cap > MAX_CHAN_CAP {
            return Err(format!(
                "channel capacity {} exceeds the encoder's bound {MAX_CHAN_CAP}",
                self.chan_cap
            ));
        }
        Ok(())
    }
}

/// Most messages one ordered pair may post: payload ids are bits of the
/// 16-bit delivery and failure masks.
pub const MAX_MESSAGES_PER_PAIR: u8 = 12;

/// Largest `chan_cap` the encoder supports: it sorts a channel's records
/// in fixed-size stack arrays of this length.
pub const MAX_CHAN_CAP: usize = 8;

/// One directed channel: packets and ACKs in flight from one node to
/// another. `up == false` models a dead link — transmissions vanish.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Chan {
    /// Is the link alive in this direction?
    pub up: bool,
    /// Data packets in flight (bounded by `chan_cap`).
    pub data: Vec<ModelPacket>,
    /// Explicit cumulative ACKs in flight `(ack_seq, ack_gen)`.
    pub acks: Vec<(u32, u16)>,
}

/// Field-wise, so `clone_from` keeps the destination's buffers; naming
/// every field makes a new one fail to compile until it is copied here.
impl Clone for Chan {
    fn clone(&self) -> Self {
        Self {
            up: self.up,
            data: self.data.clone(),
            acks: self.acks.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Self { up, data, acks } = self;
        *up = src.up;
        data.clone_from(&src.data);
        acks.clone_from(&src.acks);
    }
}

image_fields!(Chan { up, data, acks });

/// The composite state the checker explores.
#[derive(Debug)]
pub struct SysState {
    /// Every node's protocol state.
    pub nodes: Vec<NodeState>,
    /// Directed channels, indexed by ordered pair.
    pub chans: Vec<Chan>,
    /// Messages posted so far per ordered pair.
    pub posted: Vec<u8>,
    /// Bitmask of payload ids delivered per ordered pair, cumulative
    /// across generations (feeds the liveness accounting — no invariant:
    /// cross-generation redelivery of an unACKed message is legitimate,
    /// the host dedups by msg_id).
    pub delivered_mask: Vec<u16>,
    /// Bitmask of payload ids delivered per pair *within the current
    /// deposit generation* — the exactly-once invariant's scope. Resets
    /// when the receiver adopts a newer generation.
    pub gen_delivered_mask: Vec<u16>,
    /// Bitmask of payload ids completed as `SendFailed` per ordered pair.
    pub failed_mask: Vec<u16>,
    /// Highest payload id delivered in the current deposit generation,
    /// `-1` when none (the in-order invariant's scope).
    pub last_delivered: Vec<i16>,
    /// Generation of the most recent deposit per pair (retirement check).
    pub last_dep_gen: Vec<u16>,
    /// Adversary budget *used* so far: losses, dups, downs, ups,
    /// permfails, spurious (in that order).
    pub used: [u32; 6],
}

impl SysState {
    /// The initial state under `cfg`.
    pub fn initial(cfg: &McConfig) -> Self {
        let n = cfg.n_nodes;
        let pairs = n * n;
        Self {
            nodes: (0..n)
                .map(|me| {
                    cfg.node_model(me)
                        .initial_state(cfg.initial_seq, cfg.initial_gen)
                })
                .collect(),
            chans: (0..pairs)
                .map(|_| Chan {
                    up: true,
                    data: Vec::new(),
                    acks: Vec::new(),
                })
                .collect(),
            posted: vec![0; pairs],
            delivered_mask: vec![0; pairs],
            gen_delivered_mask: vec![0; pairs],
            failed_mask: vec![0; pairs],
            last_delivered: vec![-1; pairs],
            last_dep_gen: vec![cfg.initial_gen; pairs],
            used: [0; 6],
        }
    }
}

/// Field-wise, so `clone_from` keeps every buffer of the destination: the
/// checker expands each transition into one scratch successor and only
/// allocates a fresh state for a new one. Both methods name every field:
/// a new field fails to compile until it is copied here.
impl Clone for SysState {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            chans: self.chans.clone(),
            posted: self.posted.clone(),
            delivered_mask: self.delivered_mask.clone(),
            gen_delivered_mask: self.gen_delivered_mask.clone(),
            failed_mask: self.failed_mask.clone(),
            last_delivered: self.last_delivered.clone(),
            last_dep_gen: self.last_dep_gen.clone(),
            used: self.used,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Self {
            nodes,
            chans,
            posted,
            delivered_mask,
            gen_delivered_mask,
            failed_mask,
            last_delivered,
            last_dep_gen,
            used,
        } = self;
        nodes.clone_from(&src.nodes);
        chans.clone_from(&src.chans);
        posted.clone_from(&src.posted);
        delivered_mask.clone_from(&src.delivered_mask);
        gen_delivered_mask.clone_from(&src.gen_delivered_mask);
        failed_mask.clone_from(&src.failed_mask);
        last_delivered.clone_from(&src.last_delivered);
        last_dep_gen.clone_from(&src.last_dep_gen);
        *used = src.used;
    }
}

/// The checker's frontier image of a state: every field, absolute values
/// included (see `san_ft::image`), cut into sections that the frontier
/// interns one by one. Each node is one section, each ordered channel one,
/// and the remaining fields one more: 7 sections on two nodes, 13 on
/// three.
impl SysState {
    /// Sections in the image of a state under `cfg`.
    pub(crate) fn image_sections(cfg: &McConfig) -> usize {
        let n = cfg.n_nodes;
        n + n * n + 1
    }

    /// Replace `out` with the image of `self` and `cuts` with the end of
    /// each section, in section order.
    pub(crate) fn pack_sections(&self, out: &mut Vec<u8>, cuts: &mut Vec<usize>) {
        out.clear();
        cuts.clear();
        let Self {
            nodes,
            chans,
            posted,
            delivered_mask,
            gen_delivered_mask,
            failed_mask,
            last_delivered,
            last_dep_gen,
            used,
        } = self;
        for node in nodes {
            node.pack(out);
            cuts.push(out.len());
        }
        for ch in chans {
            ch.pack(out);
            cuts.push(out.len());
        }
        posted.pack(out);
        delivered_mask.pack(out);
        gen_delivered_mask.pack(out);
        failed_mask.pack(out);
        last_delivered.pack(out);
        last_dep_gen.pack(out);
        used.pack(out);
        cuts.push(out.len());
    }

    /// Overwrite section `i` of `self` with its image `bytes`, keeping
    /// the section's buffers.
    pub(crate) fn unpack_section(&mut self, i: usize, bytes: &[u8]) {
        let Self {
            nodes,
            chans,
            posted,
            delivered_mask,
            gen_delivered_mask,
            failed_mask,
            last_delivered,
            last_dep_gen,
            used,
        } = self;
        let n = nodes.len();
        if i < n {
            unpack_from(&mut nodes[i], bytes);
        } else if i < n + chans.len() {
            unpack_from(&mut chans[i - n], bytes);
        } else {
            unpack_with(bytes, |r| {
                posted.unpack(r);
                delivered_mask.unpack(r);
                gen_delivered_mask.unpack(r);
                failed_mask.unpack(r);
                last_delivered.unpack(r);
                last_dep_gen.unpack(r);
                used.unpack(r);
            });
        }
    }
}

/// One atomic transition of the checked system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McEvent {
    /// Host at `src` posts the next message toward `dst`.
    Post {
        /// Sender.
        src: u8,
        /// Destination.
        dst: u8,
    },
    /// Deliver the data packet at `idx` of channel `src→dst` (any index:
    /// reordering).
    DeliverData {
        /// Channel source.
        src: u8,
        /// Channel destination.
        dst: u8,
        /// Position in the channel.
        idx: u8,
    },
    /// Adversary drops the data packet at `idx` (consumes loss budget).
    DropData {
        /// Channel source.
        src: u8,
        /// Channel destination.
        dst: u8,
        /// Position in the channel.
        idx: u8,
    },
    /// Adversary duplicates the data packet at `idx` (consumes dup
    /// budget; the copy joins the same channel).
    DupData {
        /// Channel source.
        src: u8,
        /// Channel destination.
        dst: u8,
        /// Position in the channel.
        idx: u8,
    },
    /// Deliver the explicit ACK at `idx` of channel `src→dst`.
    DeliverAck {
        /// Channel source (the ACK's sender).
        src: u8,
        /// Channel destination (the data sender being acked).
        dst: u8,
        /// Position in the channel.
        idx: u8,
    },
    /// Adversary drops the explicit ACK at `idx`.
    DropAck {
        /// Channel source.
        src: u8,
        /// Channel destination.
        dst: u8,
        /// Position in the channel.
        idx: u8,
    },
    /// Adversary duplicates the explicit ACK at `idx`.
    DupAck {
        /// Channel source.
        src: u8,
        /// Channel destination.
        dst: u8,
        /// Position in the channel.
        idx: u8,
    },
    /// The scan timer fires for `node`'s queue toward `dst` (go-back-N).
    Tick {
        /// The scanning node.
        node: u8,
        /// The replayed destination.
        dst: u8,
    },
    /// `node` crosses the permanent-failure threshold toward `dst` and
    /// starts mapping. With the link actually up this models a spurious
    /// suspicion (threshold too tight) — the protocol must survive both.
    PermFail {
        /// The suspecting node.
        node: u8,
        /// The suspected destination.
        dst: u8,
    },
    /// `node`'s mapping run toward `dst` resolves. `found` requires both
    /// link directions up; `!found` with links up consumes the spurious
    /// budget (probe loss), with a link down it is the genuine verdict.
    Resolve {
        /// The mapping node.
        node: u8,
        /// The mapped destination.
        dst: u8,
        /// Route found?
        found: bool,
    },
    /// `node`'s scheduled remap retry toward `dst` fires.
    RetryFire {
        /// The retrying node.
        node: u8,
        /// The retried destination.
        dst: u8,
    },
    /// The link `src→dst` dies; everything in flight on it is lost
    /// (without consuming loss budget — the down event is the fault).
    LinkDown {
        /// Channel source.
        src: u8,
        /// Channel destination.
        dst: u8,
    },
    /// The link `src→dst` is repaired.
    LinkUp {
        /// Channel source.
        src: u8,
        /// Channel destination.
        dst: u8,
    },
}

/// An invariant violation observed while applying an event or checking a
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Short invariant identifier (e.g. `exactly-once`).
    pub invariant: &'static str,
    /// Human-readable details.
    pub detail: String,
}

/// Route one node's emitted actions into the system state, checking the
/// transition-level invariants (delivery order, exactly-once, generation
/// retirement, single failure notification).
fn route_actions(
    cfg: &McConfig,
    st: &mut SysState,
    who: usize,
    actions: &[NodeAction],
    viols: &mut Vec<Violation>,
) {
    for a in actions {
        match *a {
            NodeAction::Transmit { dst, pkt, .. } => {
                let ch = &mut st.chans[cfg.pair(who, dst)];
                if ch.up && ch.data.len() < cfg.chan_cap {
                    ch.data.push(pkt);
                }
                // Link down: the wire eats it. Channel full: backpressure
                // drop (sound for safety; replays regenerate it).
            }
            NodeAction::InjectorDrop { .. } => {}
            NodeAction::Deposit {
                src,
                payload,
                generation,
                ..
            } => {
                let p = cfg.pair(src, who);
                let bit = 1u16 << (payload as u16).min(15);
                if gen_newer(generation, st.last_dep_gen[p]) {
                    // A remap retired the old generation: the per-
                    // generation delivery scope starts over (the paper
                    // allows cross-generation redelivery of unACKed
                    // messages; hosts dedup by msg_id).
                    st.gen_delivered_mask[p] = 0;
                    st.last_delivered[p] = -1;
                    st.last_dep_gen[p] = generation;
                } else if generation != st.last_dep_gen[p] {
                    viols.push(Violation {
                        invariant: "generation-retirement",
                        detail: format!(
                            "deposit from retired generation {generation} (current {}) on pair \
                             {src}->{who}",
                            st.last_dep_gen[p]
                        ),
                    });
                }
                if st.gen_delivered_mask[p] & bit != 0 {
                    viols.push(Violation {
                        invariant: "exactly-once",
                        detail: format!(
                            "payload {payload} deposited twice in generation {generation} on \
                             pair {src}->{who}",
                        ),
                    });
                }
                if (payload as i16) <= st.last_delivered[p] {
                    viols.push(Violation {
                        invariant: "in-order",
                        detail: format!(
                            "payload {payload} deposited after {} in generation {generation} on \
                             pair {src}->{who}",
                            st.last_delivered[p]
                        ),
                    });
                }
                st.delivered_mask[p] |= bit;
                st.gen_delivered_mask[p] |= bit;
                st.last_delivered[p] = st.last_delivered[p].max(payload as i16);
            }
            NodeAction::AckTx {
                dst,
                ack_seq,
                ack_gen,
            } => {
                let ch = &mut st.chans[cfg.pair(who, dst)];
                if ch.up && ch.acks.len() < cfg.chan_cap {
                    ch.acks.push((ack_seq, ack_gen));
                }
            }
            NodeAction::StartMapping { .. } | NodeAction::GenerationBump { .. } => {}
            NodeAction::SendFailed { dst, payload } => {
                let p = cfg.pair(who, dst);
                let bit = 1u16 << (payload as u16).min(15);
                if st.failed_mask[p] & bit != 0 {
                    viols.push(Violation {
                        invariant: "single-failure-notification",
                        detail: format!("payload {payload} failed twice on pair {who}->{dst}"),
                    });
                }
                st.failed_mask[p] |= bit;
            }
        }
    }
}

/// Step one node inside the system state, collecting its actions in
/// `actions` (cleared first).
fn step_node(
    cfg: &McConfig,
    st: &mut SysState,
    who: usize,
    ev: NodeEvent,
    actions: &mut Vec<NodeAction>,
    viols: &mut Vec<Violation>,
) {
    actions.clear();
    cfg.node_model(who).step(&mut st.nodes[who], &ev, actions);
    route_actions(cfg, st, who, actions, viols);
}

/// Apply one transition. Returns the successor plus any transition-level
/// invariant violations (safety is also re-checked on the whole successor
/// by [`crate::invariant::check_state`]).
pub fn apply(cfg: &McConfig, st: &SysState, ev: &McEvent) -> (SysState, Vec<Violation>) {
    let mut st = st.clone();
    let mut viols = Vec::new();
    apply_in_place(cfg, &mut st, ev, &mut Vec::new(), &mut viols);
    (st, viols)
}

/// [`apply`] without the copy: advance `st` by `ev`, appending any
/// transition-level invariant violations to `viols`. `actions` is scratch
/// for the stepped node's actions, so a caller that applies many events
/// reuses one buffer.
pub fn apply_in_place(
    cfg: &McConfig,
    st: &mut SysState,
    ev: &McEvent,
    actions: &mut Vec<NodeAction>,
    viols: &mut Vec<Violation>,
) {
    match *ev {
        McEvent::Post { src, dst } => {
            let p = cfg.pair(src as usize, dst as usize);
            let payload = st.posted[p] as u64;
            st.posted[p] += 1;
            step_node(
                cfg,
                st,
                src as usize,
                NodeEvent::PostSend {
                    dst: dst as usize,
                    payload,
                },
                actions,
                viols,
            );
        }
        McEvent::DeliverData { src, dst, idx } => {
            let pkt = st.chans[cfg.pair(src as usize, dst as usize)]
                .data
                .remove(idx as usize);
            step_node(
                cfg,
                st,
                dst as usize,
                NodeEvent::RxData {
                    src: src as usize,
                    pkt,
                },
                actions,
                viols,
            );
        }
        McEvent::DropData { src, dst, idx } => {
            st.chans[cfg.pair(src as usize, dst as usize)]
                .data
                .remove(idx as usize);
            st.used[0] += 1;
        }
        McEvent::DupData { src, dst, idx } => {
            let ch = &mut st.chans[cfg.pair(src as usize, dst as usize)];
            let pkt = ch.data[idx as usize];
            ch.data.push(pkt);
            st.used[1] += 1;
        }
        McEvent::DeliverAck { src, dst, idx } => {
            let (ack_seq, ack_gen) = st.chans[cfg.pair(src as usize, dst as usize)]
                .acks
                .remove(idx as usize);
            step_node(
                cfg,
                st,
                dst as usize,
                NodeEvent::RxAck {
                    src: src as usize,
                    ack_seq,
                    ack_gen,
                },
                actions,
                viols,
            );
        }
        McEvent::DropAck { src, dst, idx } => {
            st.chans[cfg.pair(src as usize, dst as usize)]
                .acks
                .remove(idx as usize);
            st.used[0] += 1;
        }
        McEvent::DupAck { src, dst, idx } => {
            let ch = &mut st.chans[cfg.pair(src as usize, dst as usize)];
            let ack = ch.acks[idx as usize];
            ch.acks.push(ack);
            st.used[1] += 1;
        }
        McEvent::Tick { node, dst } => {
            step_node(
                cfg,
                st,
                node as usize,
                NodeEvent::ScanTick { dst: dst as usize },
                actions,
                viols,
            );
        }
        McEvent::PermFail { node, dst } => {
            st.used[4] += 1;
            step_node(
                cfg,
                st,
                node as usize,
                NodeEvent::SuspectPermFail { dst: dst as usize },
                actions,
                viols,
            );
        }
        McEvent::Resolve { node, dst, found } => {
            let fwd = st.chans[cfg.pair(node as usize, dst as usize)].up;
            let rev = st.chans[cfg.pair(dst as usize, node as usize)].up;
            if !found && fwd && rev {
                st.used[5] += 1;
            }
            step_node(
                cfg,
                st,
                node as usize,
                NodeEvent::MapResolved {
                    dst: dst as usize,
                    found,
                },
                actions,
                viols,
            );
        }
        McEvent::RetryFire { node, dst } => {
            step_node(
                cfg,
                st,
                node as usize,
                NodeEvent::RemapRetry { dst: dst as usize },
                actions,
                viols,
            );
        }
        McEvent::LinkDown { src, dst } => {
            let ch = &mut st.chans[cfg.pair(src as usize, dst as usize)];
            ch.up = false;
            ch.data.clear();
            ch.acks.clear();
            st.used[2] += 1;
        }
        McEvent::LinkUp { src, dst } => {
            st.chans[cfg.pair(src as usize, dst as usize)].up = true;
            st.used[3] += 1;
        }
    }
}

/// Channel positions worth exploring: the head alone without reordering;
/// with it, the first occurrence of each distinct value, since delivering
/// or dropping either of two identical packets leads to identical
/// successors.
fn explored_idx<T: PartialEq>(v: &[T], reorder: bool) -> impl Iterator<Item = u8> + '_ {
    let n = if reorder { v.len() } else { v.len().min(1) };
    (0..n)
        .filter(move |&i| !v[..i].contains(&v[i]))
        .map(|i| i as u8)
}

/// Every enabled transition of `st`, in deterministic order, as a fresh
/// vector; see [`enabled_into`].
pub fn enabled(cfg: &McConfig, st: &SysState) -> Vec<McEvent> {
    let mut evs = Vec::new();
    enabled_into(cfg, st, &mut evs);
    evs
}

/// Enumerate every enabled transition of `st`, in deterministic order,
/// into `evs` (cleared first, keeping its buffer).
pub fn enabled_into(cfg: &McConfig, st: &SysState, evs: &mut Vec<McEvent>) {
    let n = cfg.n_nodes;
    evs.clear();
    let [losses, dups, downs, ups, permfails, spurious] = st.used;
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let p = cfg.pair(src, dst);
            let (s8, d8) = (src as u8, dst as u8);
            // Host posts.
            if st.posted[p] < cfg.messages[p] {
                evs.push(McEvent::Post { src: s8, dst: d8 });
            }
            // Channel moves.
            let ch = &st.chans[p];
            for idx in explored_idx(&ch.data, cfg.reorder) {
                evs.push(McEvent::DeliverData {
                    src: s8,
                    dst: d8,
                    idx,
                });
                if losses < cfg.max_losses {
                    evs.push(McEvent::DropData {
                        src: s8,
                        dst: d8,
                        idx,
                    });
                }
                if dups < cfg.max_dups && ch.data.len() < cfg.chan_cap {
                    evs.push(McEvent::DupData {
                        src: s8,
                        dst: d8,
                        idx,
                    });
                }
            }
            for idx in explored_idx(&ch.acks, cfg.reorder) {
                evs.push(McEvent::DeliverAck {
                    src: s8,
                    dst: d8,
                    idx,
                });
                if losses < cfg.max_losses {
                    evs.push(McEvent::DropAck {
                        src: s8,
                        dst: d8,
                        idx,
                    });
                }
                if dups < cfg.max_dups && ch.acks.len() < cfg.chan_cap {
                    evs.push(McEvent::DupAck {
                        src: s8,
                        dst: d8,
                        idx,
                    });
                }
            }
            // Link faults.
            if ch.up && downs < cfg.max_link_downs {
                evs.push(McEvent::LinkDown { src: s8, dst: d8 });
            }
            if !ch.up && ups < cfg.max_link_ups {
                evs.push(McEvent::LinkUp { src: s8, dst: d8 });
            }
            // Protocol-internal nondeterminism at the sender.
            let sender = &st.nodes[src].senders[dst];
            if !sender.retrans_q.is_empty() && !sender.mapping {
                evs.push(McEvent::Tick { node: s8, dst: d8 });
                if permfails < cfg.max_permfails
                    && !sender.mapping
                    && !st.nodes[src].retry_pending[dst]
                {
                    evs.push(McEvent::PermFail { node: s8, dst: d8 });
                }
            }
            if sender.mapping {
                let rev_up = st.chans[cfg.pair(dst, src)].up;
                if ch.up && rev_up {
                    evs.push(McEvent::Resolve {
                        node: s8,
                        dst: d8,
                        found: true,
                    });
                    if spurious < cfg.max_spurious {
                        evs.push(McEvent::Resolve {
                            node: s8,
                            dst: d8,
                            found: false,
                        });
                    }
                } else {
                    evs.push(McEvent::Resolve {
                        node: s8,
                        dst: d8,
                        found: false,
                    });
                }
            }
            if st.nodes[src].retry_pending[dst] {
                evs.push(McEvent::RetryFire { node: s8, dst: d8 });
            }
        }
    }
}

/// Canonical byte encoding of a state, as a fresh vector; see
/// [`encode_into`].
pub fn encode(cfg: &McConfig, st: &SysState) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    encode_into(cfg, st, &mut out, &mut Vec::new());
    out
}

/// Byte 8 of a data-packet record: the piggy-back tag. Records are 9
/// bytes with the tag 0 and [`DATA_REC`] with it 1, so any two records
/// of different lengths differ at or before the tag, and sorting them
/// zero-padded to [`DATA_REC`] orders them exactly as sorting the
/// unpadded byte strings would.
const PIGGY_TAG: usize = 8;
/// Longest data-packet record: relative seq (4), relative generation (2),
/// payload, ACK-request bit, piggy tag, and with the tag set the
/// piggy-backed ACK's relative seq (4) and generation (2).
const DATA_REC: usize = 15;
/// An ACK record: relative seq (4), relative generation (2).
const ACK_REC: usize = 6;

/// Canonical byte encoding of a state, written over `out` (which is
/// cleared first, keeping its buffer). Two states with equal encodings
/// are behaviorally equivalent:
///
/// * every sequence number of a pair is encoded relative to the pair's
///   `next_seq` and every generation relative to the pair's current
///   generation — sound because all protocol comparisons are wrapping
///   differences (shift-invariant; see `seq.rs` proptests), which is
///   also what makes `wrap2` collapse onto `tiny2` exactly;
/// * pool slot numbers are erased (queues encode buffer *contents* in
///   order, the pool contributes only its free count);
/// * with reordering enabled, channel multisets are sorted.
///
/// The key is a run of sections, and the end offset of each is pushed
/// into `cuts` (cleared first): one section per ordered pair (sender,
/// retransmission queue, receiver, channel, outcome digests), one per
/// node residue after that node's pairs, and one for the adversary
/// budget, so a state has `n(n-1) + n + 1` sections. Every field is
/// fixed-width or a length-prefixed list, so equal keys are cut at the
/// same places.
///
/// Channel records are built in stack arrays, so `cfg` must pass
/// [`McConfig::validate`].
pub fn encode_into(cfg: &McConfig, st: &SysState, out: &mut Vec<u8>, cuts: &mut Vec<usize>) {
    let n = cfg.n_nodes;
    out.clear();
    cuts.clear();
    let push32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
    let push16 = |out: &mut Vec<u8>, v: u16| out.extend_from_slice(&v.to_le_bytes());
    // Per-pair bases.
    let base_seq = |src: usize, dst: usize| st.nodes[src].senders[dst].next_seq;
    let base_gen = |src: usize, dst: usize| st.nodes[src].senders[dst].generation;
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let (bs, bg) = (base_seq(src, dst), base_gen(src, dst));
            let s = &st.nodes[src].senders[dst];
            // Sender (next_seq/generation are the bases: encode 0 implicitly).
            // karn_barrier/rtt/cwnd/unsent_tail are deliberately omitted:
            // the model is the fixed-timer baseline (no adaptive RTO, no
            // damping), where they never influence a transition.
            push32(out, s.since_ack_req);
            push32(out, s.map_attempts);
            out.push(s.mapping as u8);
            out.push(st.nodes[src].retry_pending[dst] as u8);
            out.push(st.nodes[src].route_ok[dst] as u8);
            // Queue contents in order, slot ids erased.
            out.push(s.retrans_q.len() as u8);
            for &b in &s.retrans_q {
                let mb = st.nodes[src].pool[b.0 as usize]
                    .as_ref()
                    .expect("queued buffer occupied");
                push32(out, mb.seq.wrapping_sub(bs));
                push16(out, mb.generation.wrapping_sub(bg));
                out.push(mb.payload as u8);
                out.push(mb.ack_request as u8);
            }
            // Receiver at dst for data from src (same sequence space).
            let r = &st.nodes[dst].receivers[src];
            push32(out, r.expected.wrapping_sub(bs));
            push16(out, r.generation.wrapping_sub(bg));
            out.push(r.ack_owed as u8);
            push32(out, r.accepted_since_ack);
            // Channel src→dst: data in this pair's space, ACKs in the
            // reverse pair's space.
            let ch = &st.chans[cfg.pair(src, dst)];
            let (rs, rg) = (base_seq(dst, src), base_gen(dst, src));
            out.push(ch.up as u8);
            let mut data_buf = [[0u8; DATA_REC]; MAX_CHAN_CAP];
            let data = &mut data_buf[..ch.data.len()];
            for (rec, pkt) in data.iter_mut().zip(&ch.data) {
                rec[0..4].copy_from_slice(&pkt.seq.wrapping_sub(bs).to_le_bytes());
                rec[4..6].copy_from_slice(&pkt.generation.wrapping_sub(bg).to_le_bytes());
                rec[6] = pkt.payload as u8;
                rec[7] = pkt.ack_request as u8;
                // The piggy-backed ACK acknowledges the *reverse* direction.
                if let Some((aseq, agen)) = pkt.piggy {
                    rec[PIGGY_TAG] = 1;
                    rec[9..13].copy_from_slice(&aseq.wrapping_sub(rs).to_le_bytes());
                    rec[13..15].copy_from_slice(&agen.wrapping_sub(rg).to_le_bytes());
                }
            }
            if cfg.reorder {
                data.sort_unstable();
            }
            out.push(data.len() as u8);
            for rec in data.iter() {
                let len = if rec[PIGGY_TAG] == 0 {
                    PIGGY_TAG + 1
                } else {
                    DATA_REC
                };
                out.extend_from_slice(&rec[..len]);
            }
            let mut ack_buf = [[0u8; ACK_REC]; MAX_CHAN_CAP];
            let acks = &mut ack_buf[..ch.acks.len()];
            for (rec, &(aseq, agen)) in acks.iter_mut().zip(&ch.acks) {
                rec[0..4].copy_from_slice(&aseq.wrapping_sub(rs).to_le_bytes());
                rec[4..6].copy_from_slice(&agen.wrapping_sub(rg).to_le_bytes());
            }
            if cfg.reorder {
                acks.sort_unstable();
            }
            out.push(acks.len() as u8);
            for rec in acks.iter() {
                out.extend_from_slice(rec);
            }
            // Outcome digests.
            let p = cfg.pair(src, dst);
            out.push(st.posted[p]);
            push16(out, st.delivered_mask[p]);
            push16(out, st.gen_delivered_mask[p]);
            push16(out, st.failed_mask[p]);
            push16(out, st.last_delivered[p] as u16);
            push16(out, st.last_dep_gen[p].wrapping_sub(bg));
            push32(out, st.nodes[src].completed[dst] as u32);
            push32(out, st.nodes[src].failed[dst] as u32);
            cuts.push(out.len());
        }
        // Node-level residue: pending descriptors, held descriptors, pool
        // free count, injector phase.
        let node = &st.nodes[src];
        out.push(node.pending.len() as u8);
        for d in &node.pending {
            out.push(d.dst as u8);
            out.push(d.payload as u8);
        }
        for dst in 0..n {
            out.push(node.held[dst].len() as u8);
            for d in &node.held[dst] {
                out.push(d.payload as u8);
            }
        }
        out.push(node.pool_free() as u8);
        match cfg.drop_interval {
            None => out.push(0),
            Some(k) => out.push((node.tx_counter % k) as u8),
        }
        cuts.push(out.len());
    }
    // Remaining adversary budget.
    for (i, &cap) in [
        cfg.max_losses,
        cfg.max_dups,
        cfg.max_link_downs,
        cfg.max_link_ups,
        cfg.max_permfails,
        cfg.max_spurious,
    ]
    .iter()
    .enumerate()
    {
        out.push((cap - st.used[i].min(cap)) as u8);
    }
    cuts.push(out.len());
}

impl McEvent {
    /// Render as a stable one-line form, `kind arg arg …` (parsed back by
    /// [`McEvent::from_line`]).
    pub fn to_line(self) -> String {
        match self {
            McEvent::Post { src, dst } => format!("post {src} {dst}"),
            McEvent::DeliverData { src, dst, idx } => format!("deliver-data {src} {dst} {idx}"),
            McEvent::DropData { src, dst, idx } => format!("drop-data {src} {dst} {idx}"),
            McEvent::DupData { src, dst, idx } => format!("dup-data {src} {dst} {idx}"),
            McEvent::DeliverAck { src, dst, idx } => format!("deliver-ack {src} {dst} {idx}"),
            McEvent::DropAck { src, dst, idx } => format!("drop-ack {src} {dst} {idx}"),
            McEvent::DupAck { src, dst, idx } => format!("dup-ack {src} {dst} {idx}"),
            McEvent::Tick { node, dst } => format!("tick {node} {dst}"),
            McEvent::PermFail { node, dst } => format!("permfail {node} {dst}"),
            McEvent::Resolve { node, dst, found } => {
                format!("resolve {node} {dst} {}", u8::from(found))
            }
            McEvent::RetryFire { node, dst } => format!("retry-fire {node} {dst}"),
            McEvent::LinkDown { src, dst } => format!("link-down {src} {dst}"),
            McEvent::LinkUp { src, dst } => format!("link-up {src} {dst}"),
        }
    }

    /// Parse the [`McEvent::to_line`] form.
    pub fn from_line(line: &str) -> Option<Self> {
        let mut it = line.split_whitespace();
        let kind = it.next()?;
        let mut arg = || it.next()?.parse::<u8>().ok();
        let ev = match kind {
            "post" => McEvent::Post {
                src: arg()?,
                dst: arg()?,
            },
            "deliver-data" => McEvent::DeliverData {
                src: arg()?,
                dst: arg()?,
                idx: arg()?,
            },
            "drop-data" => McEvent::DropData {
                src: arg()?,
                dst: arg()?,
                idx: arg()?,
            },
            "dup-data" => McEvent::DupData {
                src: arg()?,
                dst: arg()?,
                idx: arg()?,
            },
            "deliver-ack" => McEvent::DeliverAck {
                src: arg()?,
                dst: arg()?,
                idx: arg()?,
            },
            "drop-ack" => McEvent::DropAck {
                src: arg()?,
                dst: arg()?,
                idx: arg()?,
            },
            "dup-ack" => McEvent::DupAck {
                src: arg()?,
                dst: arg()?,
                idx: arg()?,
            },
            "tick" => McEvent::Tick {
                node: arg()?,
                dst: arg()?,
            },
            "permfail" => McEvent::PermFail {
                node: arg()?,
                dst: arg()?,
            },
            "resolve" => McEvent::Resolve {
                node: arg()?,
                dst: arg()?,
                found: arg()? != 0,
            },
            "retry-fire" => McEvent::RetryFire {
                node: arg()?,
                dst: arg()?,
            },
            "link-down" => McEvent::LinkDown {
                src: arg()?,
                dst: arg()?,
            },
            "link-up" => McEvent::LinkUp {
                src: arg()?,
                dst: arg()?,
            },
            _ => return None,
        };
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reason `validate` gives for `cfg`, which must be rejected.
    fn rejection(cfg: McConfig) -> String {
        cfg.validate().expect_err("config must be rejected")
    }

    #[test]
    fn every_preset_validates() {
        for cfg in McConfig::presets() {
            assert_eq!(cfg.validate(), Ok(()), "{}", cfg.name);
        }
    }

    #[test]
    fn validate_rejects_a_traffic_matrix_of_the_wrong_size() {
        let cfg = McConfig {
            messages: vec![0, 3, 0],
            ..McConfig::tiny2()
        };
        assert!(rejection(cfg).contains("one per ordered pair"));
        // incast3's 9-entry matrix on a 2-node config.
        let cfg = McConfig {
            n_nodes: 2,
            ..McConfig::incast3()
        };
        assert!(rejection(cfg).contains("one per ordered pair"));
    }

    #[test]
    fn validate_rejects_more_messages_than_the_payload_masks_hold() {
        let at_bound = McConfig {
            messages: vec![0, MAX_MESSAGES_PER_PAIR, 0, 0],
            ..McConfig::tiny2()
        };
        assert_eq!(at_bound.validate(), Ok(()));
        // 16 would alias payload ids through `.min(15)` and overflow the
        // quiescence check's `1u16 << i`.
        for m in [MAX_MESSAGES_PER_PAIR + 1, 16] {
            let cfg = McConfig {
                messages: vec![0, 0, m, 0],
                ..McConfig::tiny2()
            };
            assert!(rejection(cfg).contains("pair 2 posts"));
        }
    }

    #[test]
    fn validate_rejects_channels_beyond_the_encoder_bound() {
        let at_bound = McConfig {
            chan_cap: MAX_CHAN_CAP,
            ..McConfig::tiny2()
        };
        assert_eq!(at_bound.validate(), Ok(()));
        let cfg = McConfig {
            chan_cap: MAX_CHAN_CAP + 1,
            ..McConfig::tiny2()
        };
        assert!(rejection(cfg).contains("channel capacity"));
    }

    #[test]
    fn validate_rejects_fewer_than_two_nodes() {
        for n_nodes in [0, 1] {
            let cfg = McConfig {
                n_nodes,
                messages: vec![0; n_nodes * n_nodes],
                ..McConfig::tiny2()
            };
            assert!(rejection(cfg).contains("at least 2"));
        }
    }

    /// `encode_into` cuts every key into `n(n-1) + n + 1` nonempty
    /// sections, the last ending at the key's length, on 2- and 3-node
    /// configs, and writes the same bytes as `encode`.
    #[test]
    fn encode_into_cuts_every_key_into_its_sections() {
        for cfg in [McConfig::remap2(), McConfig::bidir2(), McConfig::incast3()] {
            let n = cfg.n_nodes;
            let (mut key, mut cuts) = (Vec::new(), Vec::new());
            let mut queue = std::collections::VecDeque::from([SysState::initial(&cfg)]);
            // The first 300 states breadth first, repeats included.
            for _ in 0..300 {
                let st = queue.pop_front().expect("the space has 300 states");
                encode_into(&cfg, &st, &mut key, &mut cuts);
                assert_eq!(cuts.len(), n * (n - 1) + n + 1, "{}", cfg.name);
                assert!(cuts[0] > 0, "{}: {cuts:?}", cfg.name);
                assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{cuts:?}");
                assert_eq!(cuts.last(), Some(&key.len()));
                assert_eq!(key, encode(&cfg, &st));
                queue.extend(enabled(&cfg, &st).iter().map(|ev| apply(&cfg, &st, ev).0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid model-checker config `tiny2`")]
    fn check_refuses_an_invalid_config() {
        let cfg = McConfig {
            chan_cap: MAX_CHAN_CAP + 1,
            ..McConfig::tiny2()
        };
        crate::check(
            &cfg,
            &crate::CheckOpts::default(),
            &san_telemetry::Telemetry::new(),
        );
    }
}
