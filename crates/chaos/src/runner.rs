//! Trial execution: build a cluster from a [`Trial`], run it to
//! completion (or deadline), distill an [`Observation`], and run the
//! oracle. Plus the parallel campaign runner.
//!
//! Determinism contract: a trial's outcome is a pure function of the
//! trial value. Each trial owns its *own* `Sim`, cluster, telemetry
//! handle and RNGs (seeded from the trial seed alone), so running trials
//! on 1 thread or 8 produces byte-identical verdicts; the parallel
//! runner only changes wall-clock time, never results.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use san_fabric::NodeId;
use san_ft::{MapperConfig, ReliableFirmware};
use san_nic::testkit::make_desc;
use san_nic::timing::host_send;
use san_nic::{
    Cluster, ClusterConfig, Firmware, HostAgent, HostCtx, Repost, RepostBudget, UnreliableFirmware,
};
use san_sim::fanout::map_indexed;
use san_sim::{Duration, Time};
use san_telemetry::{Telemetry, TraceKind};

use san_topo::planner_for;

use crate::campaign::{mix_seed, Campaign, TopologySpec, Trial};
use crate::oracle::{self, Delivery, NodeEnd, Observation, PairExpect, Violation};

/// Trace-ring capacity per trial: big enough that the tail of a run
/// (where end-state evidence lives) always survives.
const TRACE_CAP: usize = 8192;

/// Drain grace after the fault window: time for repairs to land, remaps
/// (including their backoff-spaced retries) to finish and retransmission
/// queues to empty.
const GRACE_MS: u64 = 2_000;

/// Polling slice for the completion check.
const SLICE_MS: u64 = 5;

/// Shared delivery log (single-threaded within one trial).
type DeliveryLog = Rc<RefCell<Vec<Delivery>>>;

/// Shared `SendFailed` log: (src, dst, msg_id) per completion, in
/// notification order.
type FailureLog = Rc<RefCell<Vec<(u16, u16, u64)>>>;

/// Traffic setup for one trial: planner-hint pairs, the fixed streams'
/// expected message total (0 in workload mode), the workload ledger driver
/// (None for fixed streams) and the host agents.
type TrafficSetup = (
    Vec<(NodeId, NodeId)>,
    u64,
    Option<san_workload::WorkloadDriver>,
    Vec<Box<dyn HostAgent>>,
);

/// End-of-trial oracle inputs: per-pair expectations, the delivery log,
/// `SendFailed` records and the expected message total.
type OracleInputs = (Vec<PairExpect>, Vec<Delivery>, Vec<(u16, u16, u64)>, u64);

/// Host agent for chaos trials: optionally streams one message sequence
/// to a destination, records everything deposited locally, and — when
/// `recover` is on — re-posts sends the NIC fails as unreachable through
/// a [`RepostBudget`]. With `recover` off the host treats `SendFailed` as
/// final, which is the paper's silent drop.
struct ChaosHost {
    me: NodeId,
    send: Option<(NodeId, u64)>,
    bytes: u32,
    log: DeliveryLog,
    reposts: RepostBudget,
    recover: bool,
    failures: FailureLog,
}

/// Wake token for the initial stream post.
const WAKE_POST: u64 = 0;
/// Wake token for re-posting failed sends.
const WAKE_REPOST: u64 = 1;

impl HostAgent for ChaosHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        if self.send.is_some() {
            ctx.wake_in(host_send(self.bytes), WAKE_POST);
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx, token: u64) {
        match token {
            WAKE_POST => {
                if let Some((dst, count)) = self.send.take() {
                    let posted = ctx.now();
                    for msg_id in 0..count {
                        ctx.post_send(make_desc(dst, self.bytes, msg_id, posted));
                    }
                }
            }
            _ => {
                let posted = ctx.now();
                for (dst, msg_id) in self.reposts.take() {
                    ctx.post_send(make_desc(dst, self.bytes, msg_id, posted));
                }
            }
        }
    }

    fn on_send_failed(&mut self, ctx: &mut HostCtx, msg_id: u64, dst: NodeId) {
        self.failures.borrow_mut().push((self.me.0, dst.0, msg_id));
        if !self.recover {
            return;
        }
        if let Repost::Arm(delay) = self.reposts.failed(dst, msg_id) {
            ctx.wake_in(delay, WAKE_REPOST);
        }
    }

    fn on_message(&mut self, ctx: &mut HostCtx, pkt: san_fabric::Packet) {
        self.log.borrow_mut().push(Delivery {
            at_ns: ctx.now().nanos(),
            src: pkt.src.0,
            dst: pkt.dst.0,
            msg_id: pkt.msg_id,
            seq: pkt.seq,
            generation: pkt.generation,
            corrupted: pkt.corrupted,
        });
    }

    fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
}

/// The result of one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialOutcome {
    /// Campaign name.
    pub campaign: String,
    /// Trial index.
    pub index: u32,
    /// Trial seed.
    pub seed: u64,
    /// Every invariant violation the oracle proved (empty = pass).
    pub violations: Vec<Violation>,
    /// Unique (src, dst, msg_id) deliveries.
    pub delivered: u64,
    /// Messages the traffic contract posted.
    pub expected: u64,
    /// Fabric path resets during the run.
    pub path_resets: u64,
    /// `SendFailed` completions surfaced to hosts (remap-budget
    /// exhaustions); nonzero proves a recovery campaign actually forced
    /// the transport to give up.
    pub send_failed: u64,
    /// Generation bumps (remaps) during the run.
    pub generation_bumps: u64,
    /// Live-reconfiguration epochs (grow/drain/shrink) the fabric went
    /// through during the run.
    pub reconfig_epochs: u64,
    /// Simulated time when the run settled or hit its deadline.
    pub finished_at_ns: u64,
}

impl TrialOutcome {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line, byte-stable verdict (used for cross-thread-count
    /// determinism comparisons).
    pub fn verdict_line(&self) -> String {
        // `epochs=` appears only when the fabric actually mutated, so
        // legacy campaign reports stay byte-identical.
        let epochs = if self.reconfig_epochs > 0 {
            format!(" epochs={}", self.reconfig_epochs)
        } else {
            String::new()
        };
        let mut line = format!(
            "{}[{:03}] seed={:#018x} delivered={}/{} resets={} bumps={} failed={}{} t={}ns {}",
            self.campaign,
            self.index,
            self.seed,
            self.delivered,
            self.expected,
            self.path_resets,
            self.generation_bumps,
            self.send_failed,
            epochs,
            self.finished_at_ns,
            if self.passed() { "PASS" } else { "FAIL" },
        );
        for v in &self.violations {
            line.push_str("\n    ");
            line.push_str(&v.to_string());
        }
        line
    }
}

/// Unique delivered message count (msg_id de-duplicated per pair —
/// cross-generation resends of a possibly-delivered message are one
/// delivery for accounting purposes). The delivery log only grows, so
/// each count folds in just the entries appended since the last one;
/// every log counted must extend the one counted before.
#[derive(Default)]
struct UniqueDelivered {
    seen: HashSet<(u16, u16, u64)>,
    folded: usize,
}

impl UniqueDelivered {
    fn count(&mut self, log: &[Delivery]) -> u64 {
        let fresh = &log[self.folded..];
        self.seen
            .extend(fresh.iter().map(|d| (d.src, d.dst, d.msg_id)));
        self.folded = log.len();
        self.seen.len() as u64
    }
}

/// Execute one trial and run the oracle over what happened.
pub fn run_trial(trial: &Trial) -> TrialOutcome {
    run_trial_traced(trial).0
}

/// [`run_trial`], additionally returning the trial's trace-ring scan
/// (for `san-chaos replay --trace` and post-mortem tooling).
pub fn run_trial_traced(trial: &Trial) -> (TrialOutcome, san_telemetry::TraceScan) {
    let built = trial.topology.build();
    let n = built.hosts.len();

    let telemetry = Telemetry::with_trace(TRACE_CAP);
    let cfg = ClusterConfig {
        send_bufs: trial.protocol.send_bufs,
        seed: trial.seed,
        telemetry: telemetry.clone(),
        ..ClusterConfig::default()
    };

    let log: DeliveryLog = Rc::new(RefCell::new(Vec::new()));
    let failures: FailureLog = Rc::new(RefCell::new(Vec::new()));

    // Traffic: either fixed streams, which stay because the golden trial
    // digests replay them, or a multi-tenant synthetic workload whose
    // posted-message ledger becomes the oracle's expectation. `pairs`
    // feeds the planner hints in both modes.
    let (pairs, expected_total, driver, hosts): TrafficSetup = match &trial.workload {
        Some(spec) => {
            // Salt 2: salt 1 already seeds the wire-fault RNG.
            let opts = san_workload::WorkloadOptions {
                seed: mix_seed(trial.seed, 2),
                telemetry: telemetry.clone(),
                record_segments: true,
                register_metrics: false,
                host_recovery: trial.protocol.host_recovery,
            };
            let (driver, hosts) =
                san_workload::build_hosts(spec, &built.hosts, &built.traffic_hosts, &opts);
            let pairs = san_workload::potential_pairs(spec, &built.traffic_hosts);
            (pairs, 0, Some(driver), hosts)
        }
        None => {
            let pairs = trial.traffic.pairs(&built);
            let expected_total = pairs.len() as u64 * trial.traffic.messages;
            let hosts: Vec<Box<dyn HostAgent>> = built
                .hosts
                .iter()
                .map(|&h| -> Box<dyn HostAgent> {
                    let send = pairs
                        .iter()
                        .find(|&&(s, _)| s == h)
                        .map(|&(_, d)| (d, trial.traffic.messages));
                    Box::new(ChaosHost {
                        me: h,
                        send,
                        bytes: trial.traffic.bytes,
                        log: log.clone(),
                        reposts: RepostBudget::default(),
                        recover: trial.protocol.host_recovery,
                        failures: failures.clone(),
                    })
                })
                .collect();
            (pairs, expected_total, None, hosts)
        }
    };

    let proto = trial.protocol;
    // Atlas fabrics get a mapper sized to the topology; the canonical
    // shapes keep the paper's testbed defaults so legacy campaigns replay
    // byte-identically.
    let mapper_cfg = match trial.topology {
        TopologySpec::Atlas(_) => MapperConfig::for_topology(&built.topo),
        _ => MapperConfig::default(),
    };
    // Planner hints: give every traffic endpoint the san-topo candidate
    // set for its peer (both directions — ACK paths fail too). After a
    // permanent failure the mapper verifies these with one host probe
    // each before paying for a blind BFS exploration. The strategy is
    // selected by topology family (`planner_for`): tori get the
    // symmetry-template planner, everything else the generic one, whose
    // routes are byte-identical to the historical free-function planner.
    let mut planner = planner_for(&trial.topology.atlas_spec());
    let hints: Vec<(NodeId, NodeId, Vec<san_fabric::Route>)> = if proto.reliable && proto.mapping {
        pairs
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .map(|(s, d)| (s, d, planner.pair_routes(&built.topo, s, d, 4, &|_| true)))
            .filter(|(_, _, c)| !c.is_empty())
            .collect()
    } else {
        Vec::new()
    };
    let mut cluster = Cluster::new(
        built.topo,
        cfg,
        move |_| -> Box<dyn Firmware> {
            if proto.reliable {
                Box::new(ReliableFirmware::new(
                    proto.protocol_config(),
                    mapper_cfg.clone(),
                    n,
                ))
            } else {
                Box::new(UnreliableFirmware)
            }
        },
        hosts,
    );
    if trial.protocol.updown_routes {
        cluster.install_updown_routes();
    } else {
        cluster.install_shortest_routes();
    }
    for (src, dst, routes) in hints {
        if let Some(fw) = cluster.nics[src.0 as usize]
            .fw
            .as_any_mut()
            .downcast_mut::<ReliableFirmware>()
        {
            fw.offer_route_hints(dst, routes);
        }
    }
    cluster
        .engine
        .set_transient_faults(trial.wire, mix_seed(trial.seed, 1));
    trial.plan.arm(&mut cluster.sim);

    // Run in slices until the traffic contract is met and the protocol has
    // drained, or until the deadline (fault window + grace). Workload
    // trials are open-loop: the contract is "the arrival window closed and
    // everything the ledger posted was delivered".
    let deadline = Time::from_millis(trial.duration_ms + GRACE_MS);
    let window = Time::from_millis(trial.workload.as_ref().map_or(0, |w| w.window_ms));
    let mut t = Time::from_millis(SLICE_MS);
    let mut seen_epoch = cluster.engine.reconfig_epoch();
    let mut unique = UniqueDelivered::default();
    let finished_at = loop {
        let now = cluster.run_until(t);
        // After a reconfiguration epoch the planner hints are stale: they
        // were computed on the old wiring and may offer draining or
        // detached links. Recompute candidates on the *current* topology
        // through the planner filter (alive and not draining) and re-offer.
        if proto.reliable && proto.mapping {
            let epoch = cluster.engine.reconfig_epoch();
            if epoch != seen_epoch {
                seen_epoch = epoch;
                let fresh: Vec<(NodeId, NodeId, Vec<san_fabric::Route>)> = pairs
                    .iter()
                    .flat_map(|&(a, b)| [(a, b), (b, a)])
                    .map(|(s, d)| {
                        let usable = cluster.engine.planner_filter();
                        let routes =
                            planner.pair_routes(cluster.engine.topology(), s, d, 4, &|l| usable(l));
                        (s, d, routes)
                    })
                    .filter(|(_, _, c)| !c.is_empty())
                    .collect();
                for (src, dst, routes) in fresh {
                    if let Some(fw) = cluster.nics[src.0 as usize]
                        .fw
                        .as_any_mut()
                        .downcast_mut::<ReliableFirmware>()
                    {
                        fw.offer_route_hints(dst, routes);
                    }
                }
            }
        }
        let complete = match &driver {
            Some(d) => now >= window && d.total_delivered() >= d.total_posted(),
            None => unique.count(&log.borrow()) >= expected_total,
        };
        let drained = !trial.protocol.reliable
            || cluster.nics.iter().all(|nic| {
                nic.fw
                    .as_any()
                    .downcast_ref::<ReliableFirmware>()
                    .is_some_and(|fw| fw.drained())
            });
        if complete && drained {
            break now;
        }
        if t >= deadline {
            break now;
        }
        t += Duration::from_millis(SLICE_MS);
    };

    // End-state.
    let nodes: Vec<NodeEnd> = cluster
        .nics
        .iter()
        .enumerate()
        .map(|(i, nic)| NodeEnd {
            node: i as u16,
            unacked: nic
                .fw
                .as_any()
                .downcast_ref::<ReliableFirmware>()
                .map_or(0, |fw| fw.unacked_total()),
            pool_in_use: nic.core.pool.in_use(),
        })
        .collect();
    let reachable = |s: NodeId, d: NodeId| {
        cluster
            .engine
            .topology()
            .shortest_route(s, d, cluster.engine.alive_filter())
            .is_some()
    };
    // Workload trials derive their expectations (and the delivery log)
    // from the shared ledger: posted counts per pair, deposited segments
    // as recorded at each receiving host.
    let (expected, deliveries, send_failed, expected_total): OracleInputs = match &driver {
        Some(d) => (
            d.pair_counts()
                .into_iter()
                .map(|(s, dst, msgs)| PairExpect {
                    src: s,
                    dst,
                    messages: msgs,
                    reachable: reachable(NodeId(s), NodeId(dst)),
                })
                .collect(),
            d.segments()
                .into_iter()
                .map(|r| Delivery {
                    at_ns: r.at_ns,
                    src: r.src,
                    dst: r.dst,
                    msg_id: r.msg_id,
                    seq: r.seq,
                    generation: r.generation,
                    corrupted: r.corrupted,
                })
                .collect(),
            d.failures(),
            d.total_posted(),
        ),
        None => (
            pairs
                .iter()
                .map(|&(s, d)| PairExpect {
                    src: s.0,
                    dst: d.0,
                    messages: trial.traffic.messages,
                    reachable: reachable(s, d),
                })
                .collect(),
            log.borrow().clone(),
            failures.borrow().clone(),
            expected_total,
        ),
    };

    let scan = telemetry.scan();
    let (resets, last_progress) = oracle::digest_trace(&scan);
    let reconfigs: Vec<u64> = scan
        .events()
        .iter()
        .filter(|ev| ev.kind == TraceKind::Reconfig)
        .map(|ev| ev.at_ns)
        .collect();
    let obs = Observation {
        deliveries,
        expected,
        nodes,
        resets,
        last_progress,
        send_failed,
        host_recovery: trial.protocol.host_recovery,
        reconfigs,
    };
    let violations = oracle::check(&obs);
    let stats = cluster.engine.stats();

    let outcome = TrialOutcome {
        campaign: trial.campaign.clone(),
        index: trial.index,
        seed: trial.seed,
        violations,
        delivered: unique.count(&obs.deliveries),
        expected: expected_total,
        path_resets: stats.path_resets,
        send_failed: obs.send_failed.len() as u64,
        generation_bumps: scan.count(TraceKind::GenerationBump) as u64,
        reconfig_epochs: cluster.engine.reconfig_epoch(),
        finished_at_ns: finished_at.nanos(),
    };
    (outcome, scan)
}

/// The result of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Campaign name.
    pub name: String,
    /// Per-trial outcomes, in trial-index order regardless of how many
    /// worker threads ran them.
    pub trials: Vec<TrialOutcome>,
}

impl CampaignOutcome {
    /// Trials that violated an invariant, in index order.
    pub fn failures(&self) -> impl Iterator<Item = &TrialOutcome> {
        self.trials.iter().filter(|t| !t.passed())
    }

    /// Byte-stable multi-line report: one verdict line per trial.
    pub fn report(&self) -> String {
        let mut s = String::new();
        for t in &self.trials {
            s.push_str(&t.verdict_line());
            s.push('\n');
        }
        s
    }
}

/// Run `trials` sampled trials of `campaign` on `jobs` worker threads.
///
/// Each trial is one independent simulation and outcomes come back in
/// trial order, so the outcome vector — and therefore the report — is
/// byte-identical for any `jobs >= 1`.
pub fn run_campaign(campaign: &Campaign, trials: u32, jobs: usize) -> CampaignOutcome {
    CampaignOutcome {
        name: campaign.name.clone(),
        trials: map_indexed(trials.max(1) as usize, jobs.clamp(1, 64), |i| {
            run_trial(&campaign.sample(i as u32))
        }),
    }
}
