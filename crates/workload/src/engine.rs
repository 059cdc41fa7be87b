//! The open-loop multi-tenant driver: spec → host agents + shared ledger.
//!
//! Every cluster host gets one [`WorkloadHost`] agent. Hosts that source
//! tenant streams schedule seeded arrival wakeups; every host posts and
//! receives through an embedded [`VmmcLib`] (its segmenter on the way
//! out; reassembly and exactly-once dedup on the way in).
//! A shared [`WorkloadDriver`] ledger accumulates offered/shed/delivered
//! accounting, per-tenant latency samples and — in oracle mode — the raw
//! per-segment delivery log the chaos invariants consume.
//!
//! Two contracts matter for oracle compatibility:
//!
//! * **Per-pair contiguous message ids.** Senders allocate `msg_id`s from
//!   a per-`(src, dst)` counter in the ledger, incremented only when a
//!   message is actually posted — shed arrivals consume nothing. The
//!   chaos completeness invariant (ids `0..posted` per pair) then holds
//!   by construction.
//! * **Open-loop with bounded backlog.** An arrival whose tenant already
//!   has `max_backlog` messages posted-but-not-`SendDone`d is shed and
//!   counted. Offered load is therefore independent of fabric state
//!   (open loop), while sender memory stays bounded past the knee.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use san_fabric::{NodeId, Packet};
use san_nic::{HostAgent, HostCtx, Repost, RepostBudget};
use san_sim::{Duration, SimRng, Time};
use san_telemetry::{Counter, HistogramHandle, Layer, Telemetry, TraceEvent, TraceKind};
use san_vmmc::{ExportId, SendMsg, VmmcLib};

use crate::dist::{ArrivalGen, DestSpec, SizeSpec, ZipfTable};
use crate::spec::WorkloadSpec;
use crate::stats::{jain_index, quantile_ns, TenantStats, WorkloadReport};

/// Wake token reserved for the re-post flush (stream tokens are the
/// host-local stream index, always < this).
const WAKE_REPOST: u64 = u64::MAX;

/// One deposited segment, as seen by a receiving host — the raw material
/// for the chaos oracle's order/dup/completeness invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRecord {
    /// Deposit time, ns.
    pub at_ns: u64,
    /// Sending host.
    pub src: u16,
    /// Receiving host.
    pub dst: u16,
    /// Message id (contiguous per pair).
    pub msg_id: u64,
    /// Transport sequence number.
    pub seq: u32,
    /// Transport route generation.
    pub generation: u16,
    /// Wire corruption marker.
    pub corrupted: bool,
}

/// What one posted message was (kept sender-side for latency accounting
/// and re-posting).
#[derive(Debug, Clone, Copy)]
struct MsgMeta {
    /// Tenant index (0-based).
    tenant: u16,
    offered_ns: u64,
    bytes: u32,
}

/// Shared accounting, one per driver (single-threaded within a trial).
#[derive(Debug)]
struct Ledger {
    /// Per-tenant-index counters.
    offered: Vec<u64>,
    offered_bytes: Vec<u64>,
    shed: Vec<u64>,
    delivered: Vec<u64>,
    delivered_bytes: Vec<u64>,
    latencies: Vec<Vec<u64>>,
    /// Next msg id — equivalently, posted count — per (src, dst).
    posted_pairs: BTreeMap<(u16, u16), u64>,
    /// In-flight message metadata, removed on completion.
    meta: HashMap<(u16, u16, u64), MsgMeta>,
    /// Raw deposited segments (oracle mode only).
    segments: Vec<SegmentRecord>,
    record_segments: bool,
    /// `SendFailed` completions: (src, dst, msg_id).
    failures: Vec<(u16, u16, u64)>,
}

impl Ledger {
    fn new(tenants: u16, record_segments: bool) -> Self {
        let n = tenants as usize;
        Self {
            offered: vec![0; n],
            offered_bytes: vec![0; n],
            shed: vec![0; n],
            delivered: vec![0; n],
            delivered_bytes: vec![0; n],
            latencies: vec![Vec::new(); n],
            posted_pairs: BTreeMap::new(),
            meta: HashMap::new(),
            segments: Vec::new(),
            record_segments,
            failures: Vec::new(),
        }
    }

    fn alloc_msg_id(&mut self, src: u16, dst: u16) -> u64 {
        let e = self.posted_pairs.entry((src, dst)).or_insert(0);
        let id = *e;
        *e += 1;
        id
    }

    /// Returns `(tenant index, latency ns)` when the message was still
    /// tracked (first completion).
    fn record_delivery(
        &mut self,
        src: u16,
        dst: u16,
        msg_id: u64,
        completed_ns: u64,
    ) -> Option<(u16, u64)> {
        let meta = self.meta.remove(&(src, dst, msg_id))?;
        let lat = completed_ns.saturating_sub(meta.offered_ns);
        let t = meta.tenant as usize;
        self.delivered[t] += 1;
        self.delivered_bytes[t] += meta.bytes as u64;
        self.latencies[t].push(lat);
        Some((meta.tenant, lat))
    }
}

/// Per-tenant telemetry cells (cheap `Rc` clones shared by all
/// hosts). Registered only when the driver asks — chaos trials skip this
/// so their registries stay lean.
#[derive(Debug, Clone)]
struct TenantMetrics {
    offered: Counter,
    shed: Counter,
    delivered: Counter,
    delivery_ns: HistogramHandle,
}

/// Destination sampler resolved for one stream.
#[derive(Debug, Clone)]
enum DestSampler {
    Fixed(NodeId),
    /// Choices exclude the stream's own host.
    Uniform(Vec<NodeId>),
    /// Global ranking (may include self — resolved at sample time by
    /// advancing one rank).
    Zipf {
        ranked: Vec<NodeId>,
        table: Rc<ZipfTable>,
    },
}

impl DestSampler {
    fn sample(&self, rng: &mut SimRng, me: NodeId) -> NodeId {
        match self {
            DestSampler::Fixed(d) => *d,
            DestSampler::Uniform(c) => c[rng.below(c.len() as u64) as usize],
            DestSampler::Zipf { ranked, table } => {
                let mut k = table.sample(rng);
                if ranked[k] == me {
                    k = (k + 1) % ranked.len();
                }
                ranked[k]
            }
        }
    }
}

/// One tenant stream sourced at a host.
#[derive(Debug)]
struct Stream {
    /// 0-based tenant index (wire tag = index + 1).
    tenant: u16,
    rng: SimRng,
    arrivals: ArrivalGen,
    dest: DestSampler,
}

/// Host agent multiplexing this host's tenant streams (sender side) and
/// reassembling arriving messages (receiver side).
struct WorkloadHost {
    me: NodeId,
    streams: Vec<Stream>,
    vmmc: VmmcLib,
    ledger: Rc<RefCell<Ledger>>,
    size: SizeSpec,
    window_end: Time,
    max_backlog: u32,
    /// Posted-but-not-`SendDone`d messages per tenant index.
    backlog: HashMap<u16, u32>,
    /// `SendDone` resolution: msg_id → FIFO of tenant indices. Ids repeat
    /// only across destinations, so a FIFO pop matches the NIC's service
    /// order closely enough for backlog accounting.
    sent_pending: BTreeMap<u64, VecDeque<u16>>,
    /// Everything this host posted, for re-posting: (dst, msg_id) →
    /// (tenant index, bytes).
    posted: HashMap<(u16, u64), (u16, u32)>,
    recover: bool,
    reposts: RepostBudget,
    telemetry: Telemetry,
    metrics: Option<Rc<Vec<TenantMetrics>>>,
}

/// Message `msg_id` of `bytes` logical bytes into `dst`'s export 0,
/// tagged with tenant index `tenant` (wire tag = index + 1), for the VMMC
/// segmenter. `notify` requests a `SendDone` on the last segment — first
/// posts use it for backlog accounting; re-posts don't (the original
/// already notified).
fn tenant_msg(dst: NodeId, msg_id: u64, bytes: u32, tenant: u16, notify: bool) -> SendMsg {
    SendMsg {
        to: VmmcLib::import(dst, ExportId(0), bytes),
        offset: 0,
        len: bytes,
        data: None,
        id: msg_id,
        tenant: tenant + 1,
        notify,
    }
}

impl HostAgent for WorkloadHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        for i in 0..self.streams.len() {
            let s = &mut self.streams[i];
            let gap = s.arrivals.next_gap_ns(&mut s.rng);
            ctx.wake_in(Duration::from_nanos(gap), i as u64);
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx, token: u64) {
        if token == WAKE_REPOST {
            for (dst, msg_id) in self.reposts.take() {
                if let Some(&(tenant, bytes)) = self.posted.get(&(dst.0, msg_id)) {
                    self.vmmc
                        .post(ctx, &tenant_msg(dst, msg_id, bytes, tenant, false));
                }
            }
            return;
        }
        let now = ctx.now();
        if now >= self.window_end {
            return; // arrival window closed: let the chain die out
        }
        let i = token as usize;
        // Draw this arrival and schedule the next one (open loop: the
        // schedule never waits on completions).
        let (tenant, dst, bytes, gap) = {
            let s = &mut self.streams[i];
            let dst = s.dest.sample(&mut s.rng, self.me);
            let bytes = self.size.sample(&mut s.rng).max(1);
            let gap = s.arrivals.next_gap_ns(&mut s.rng);
            (s.tenant, dst, bytes, gap)
        };
        ctx.wake_in(Duration::from_nanos(gap), token);

        let backlog = self.backlog.entry(tenant).or_insert(0);
        let shed = *backlog >= self.max_backlog;
        let msg_id = {
            let mut l = self.ledger.borrow_mut();
            let t = tenant as usize;
            l.offered[t] += 1;
            l.offered_bytes[t] += bytes as u64;
            if shed {
                l.shed[t] += 1;
                None
            } else {
                let id = l.alloc_msg_id(self.me.0, dst.0);
                l.meta.insert(
                    (self.me.0, dst.0, id),
                    MsgMeta {
                        tenant,
                        offered_ns: now.nanos(),
                        bytes,
                    },
                );
                Some(id)
            }
        };
        if let Some(m) = &self.metrics {
            m[tenant as usize].offered.hit();
            if shed {
                m[tenant as usize].shed.hit();
            }
        }
        let Some(msg_id) = msg_id else { return };
        *self.backlog.get_mut(&tenant).unwrap() += 1;
        self.sent_pending
            .entry(msg_id)
            .or_default()
            .push_back(tenant);
        self.posted.insert((dst.0, msg_id), (tenant, bytes));
        self.vmmc
            .post(ctx, &tenant_msg(dst, msg_id, bytes, tenant, true));
    }

    fn on_message(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        let now = ctx.now();
        {
            let mut l = self.ledger.borrow_mut();
            if l.record_segments {
                l.segments.push(SegmentRecord {
                    at_ns: now.nanos(),
                    src: pkt.src.0,
                    dst: pkt.dst.0,
                    msg_id: pkt.msg_id,
                    seq: pkt.seq,
                    generation: pkt.generation,
                    corrupted: pkt.corrupted,
                });
            }
        }
        if let Some(done) = self.vmmc.on_packet(&pkt) {
            let completed_ns = done.completed_at.nanos();
            let hit = self.ledger.borrow_mut().record_delivery(
                done.src.0,
                self.me.0,
                done.msg_id,
                completed_ns,
            );
            if let Some((tenant, lat)) = hit {
                if let Some(m) = &self.metrics {
                    let tm = &m[tenant as usize];
                    tm.delivered.hit();
                    tm.delivery_ns.record(Duration::from_nanos(lat));
                }
                self.telemetry.record(TraceEvent {
                    at_ns: completed_ns,
                    layer: Layer::Host,
                    kind: TraceKind::TenantDelivered,
                    node: self.me.0,
                    src: done.src.0,
                    dst: self.me.0,
                    generation: 0,
                    seq: 0,
                    aux: TraceEvent::pack_tenant(tenant + 1, lat),
                });
            }
        }
    }

    fn on_send_done(&mut self, _ctx: &mut HostCtx, msg_id: u64) {
        if let Some(q) = self.sent_pending.get_mut(&msg_id) {
            if let Some(tenant) = q.pop_front() {
                if let Some(b) = self.backlog.get_mut(&tenant) {
                    *b = b.saturating_sub(1);
                }
            }
            if q.is_empty() {
                self.sent_pending.remove(&msg_id);
            }
        }
    }

    fn on_send_failed(&mut self, ctx: &mut HostCtx, msg_id: u64, dst: NodeId) {
        self.ledger
            .borrow_mut()
            .failures
            .push((self.me.0, dst.0, msg_id));
        if !self.recover {
            return;
        }
        if let Repost::Arm(delay) = self.reposts.failed(dst, msg_id) {
            ctx.wake_in(delay, WAKE_REPOST);
        }
    }
}

/// Build-time options orthogonal to the [`WorkloadSpec`] itself.
#[derive(Debug, Clone)]
pub struct WorkloadOptions {
    /// Root seed: generators are forked from it per tenant, so workload
    /// draws never perturb (and are never perturbed by) cluster RNG state.
    pub seed: u64,
    /// Telemetry handle (`TenantDelivered` trace events always go here;
    /// per-tenant metric cells only with `register_metrics`).
    pub telemetry: Telemetry,
    /// Record every deposited segment for the chaos oracle. Off for pure
    /// throughput studies (the segment log is the dominant allocation).
    pub record_segments: bool,
    /// Register per-tenant counters/histograms under
    /// `workload.tenant.<id>.*`. No caller and no test sets it, so this
    /// path is dead; the field stays only because `perf/src/tenants.rs`
    /// names it.
    pub register_metrics: bool,
    /// Re-post messages the NIC fails as unreachable (host-level
    /// end-to-end recovery through a [`RepostBudget`]).
    pub host_recovery: bool,
}

impl Default for WorkloadOptions {
    fn default() -> Self {
        Self {
            seed: 1,
            telemetry: Telemetry::new(),
            record_segments: false,
            register_metrics: false,
            host_recovery: false,
        }
    }
}

/// Handle over a built workload's shared ledger: completion checks while
/// the cluster runs, report extraction afterwards.
#[derive(Debug)]
pub struct WorkloadDriver {
    ledger: Rc<RefCell<Ledger>>,
    tenants: u16,
    window_ns: u64,
}

impl WorkloadDriver {
    /// Messages actually posted so far (= Σ per-pair next msg id).
    pub fn total_posted(&self) -> u64 {
        self.ledger.borrow().posted_pairs.values().sum()
    }

    /// Messages fully delivered (exactly-once) so far.
    pub fn total_delivered(&self) -> u64 {
        self.ledger.borrow().delivered.iter().sum()
    }

    /// Posted-message count per (src, dst) pair — the completeness
    /// contract for the chaos oracle.
    pub fn pair_counts(&self) -> Vec<(u16, u16, u64)> {
        self.ledger
            .borrow()
            .posted_pairs
            .iter()
            .map(|(&(s, d), &n)| (s, d, n))
            .collect()
    }

    /// The raw deposited-segment log (empty unless
    /// [`WorkloadOptions::record_segments`]).
    pub fn segments(&self) -> Vec<SegmentRecord> {
        self.ledger.borrow().segments.clone()
    }

    /// `SendFailed` completions observed: (src, dst, msg_id).
    pub fn failures(&self) -> Vec<(u16, u16, u64)> {
        self.ledger.borrow().failures.clone()
    }

    /// Distill the end-of-run report (latency quantiles, fairness).
    pub fn report(&self) -> WorkloadReport {
        // Sort the ledger's latency vectors in place (ascending order is a
        // harmless canonicalization of completed samples) instead of cloning
        // every tenant's full vector per report.
        let mut l = self.ledger.borrow_mut();
        let mut tenants = Vec::with_capacity(self.tenants as usize);
        let mut pooled: Vec<u64> = Vec::new();
        for t in 0..self.tenants as usize {
            l.latencies[t].sort_unstable();
            let lat = &l.latencies[t];
            pooled.extend_from_slice(lat);
            tenants.push(TenantStats {
                tenant: t as u16 + 1,
                offered: l.offered[t],
                shed: l.shed[t],
                delivered: l.delivered[t],
                delivered_bytes: l.delivered_bytes[t],
                p50_ns: quantile_ns(lat, 0.5),
                p99_ns: quantile_ns(lat, 0.99),
                p999_ns: quantile_ns(lat, 0.999),
                max_ns: lat.last().copied().unwrap_or(0),
            });
        }
        pooled.sort_unstable();
        let shares: Vec<f64> = l.delivered_bytes.iter().map(|&b| b as f64).collect();
        WorkloadReport {
            offered_total: l.offered.iter().sum(),
            posted_total: l.posted_pairs.values().sum(),
            delivered_total: l.delivered.iter().sum(),
            delivered_bytes: l.delivered_bytes.iter().sum(),
            shed_total: l.shed.iter().sum(),
            p99_ns: quantile_ns(&pooled, 0.99),
            p999_ns: quantile_ns(&pooled, 0.999),
            fairness: jain_index(&shares),
            window_ns: self.window_ns,
            tenants,
        }
    }
}

/// The (src, dst) pairs a spec's destination law can produce over these
/// traffic hosts — used by the chaos runner to seed planner/mapper hints
/// before any traffic flows.
pub fn potential_pairs(spec: &WorkloadSpec, traffic: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    match spec.dest {
        DestSpec::Incast => {
            let victim = *traffic.last().expect("incast needs traffic hosts");
            for &s in &traffic[..traffic.len() - 1] {
                out.push((s, victim));
            }
        }
        _ => {
            for &s in traffic {
                for &d in traffic {
                    if s != d {
                        out.push((s, d));
                    }
                }
            }
        }
    }
    out
}

/// The incast victim for a spec over these traffic hosts (`None` for
/// non-incast laws).
pub fn incast_victim(spec: &WorkloadSpec, traffic: &[NodeId]) -> Option<NodeId> {
    match spec.dest {
        DestSpec::Incast => traffic.last().copied(),
        _ => None,
    }
}

/// Build one agent per host in `hosts`. Tenant streams are assigned
/// round-robin over `traffic` (minus the incast victim); every host can
/// receive. Panics when the destination law needs more traffic hosts than
/// provided (uniform/permutation/incast need ≥ 2).
pub fn build_hosts(
    spec: &WorkloadSpec,
    hosts: &[NodeId],
    traffic: &[NodeId],
    opts: &WorkloadOptions,
) -> (WorkloadDriver, Vec<Box<dyn HostAgent>>) {
    spec.validate()
        .unwrap_or_else(|e| panic!("invalid workload spec: {e}"));
    assert!(!traffic.is_empty(), "workload needs traffic hosts");
    assert!(
        traffic.len() >= 2 || matches!(spec.dest, DestSpec::Zipf(_)),
        "destination law {} needs at least two traffic hosts",
        spec.dest
    );

    let ledger = Rc::new(RefCell::new(Ledger::new(
        spec.tenants,
        opts.record_segments,
    )));
    let mut root = SimRng::seed_from(opts.seed);

    // Sender pool: incast excludes the victim (a tenant must never send
    // to itself; ids per pair must stay contiguous).
    let senders: Vec<NodeId> = match spec.dest {
        DestSpec::Incast => traffic[..traffic.len() - 1].to_vec(),
        _ => traffic.to_vec(),
    };
    // Permutation partners: a seeded derangement over the senders.
    let partners: Vec<NodeId> = if matches!(spec.dest, DestSpec::Permutation) {
        let mut perm = senders.clone();
        root.shuffle(&mut perm);
        for i in 0..perm.len() {
            if perm[i] == senders[i] {
                let j = (i + 1) % perm.len();
                perm.swap(i, j);
            }
        }
        perm
    } else {
        Vec::new()
    };
    let zipf = match spec.dest {
        DestSpec::Zipf(s) => Some(Rc::new(ZipfTable::new(traffic.len(), s))),
        _ => None,
    };

    // Per-tenant streams, grouped by source host.
    let mut by_host: HashMap<u16, Vec<Stream>> = HashMap::new();
    for t in 0..spec.tenants {
        let si = t as usize % senders.len();
        let src = senders[si];
        let dest = match spec.dest {
            DestSpec::Incast => DestSampler::Fixed(*traffic.last().unwrap()),
            DestSpec::Permutation => DestSampler::Fixed(partners[si]),
            DestSpec::Uniform => {
                DestSampler::Uniform(traffic.iter().copied().filter(|&h| h != src).collect())
            }
            DestSpec::Zipf(_) => DestSampler::Zipf {
                ranked: traffic.to_vec(),
                table: zipf.clone().unwrap(),
            },
        };
        by_host.entry(src.0).or_default().push(Stream {
            tenant: t,
            rng: root.fork(t as u64 + 1),
            arrivals: ArrivalGen::new(spec.arrival),
            dest,
        });
    }

    let metrics: Option<Rc<Vec<TenantMetrics>>> = opts.register_metrics.then(|| {
        Rc::new(
            (0..spec.tenants)
                .map(|t| {
                    let id = t + 1;
                    let name = |leaf: &str| format!("workload.tenant.{id}.{leaf}");
                    TenantMetrics {
                        offered: opts.telemetry.counter(&name("offered")),
                        shed: opts.telemetry.counter(&name("shed")),
                        delivered: opts.telemetry.counter(&name("delivered")),
                        delivery_ns: opts.telemetry.histogram(&name("delivery_ns")),
                    }
                })
                .collect(),
        )
    });

    let export_size = spec.size.max_bytes().max(1);
    let agents: Vec<Box<dyn HostAgent>> = hosts
        .iter()
        .map(|&h| -> Box<dyn HostAgent> {
            let mut vmmc = VmmcLib::new(h);
            vmmc.export(export_size, None);
            Box::new(WorkloadHost {
                me: h,
                streams: by_host.remove(&h.0).unwrap_or_default(),
                vmmc,
                ledger: ledger.clone(),
                size: spec.size,
                window_end: Time::from_millis(spec.window_ms),
                max_backlog: spec.max_backlog,
                backlog: HashMap::new(),
                sent_pending: BTreeMap::new(),
                posted: HashMap::new(),
                recover: opts.host_recovery,
                reposts: RepostBudget::default(),
                telemetry: opts.telemetry.clone(),
                metrics: metrics.clone(),
            })
        })
        .collect();

    (
        WorkloadDriver {
            ledger,
            tenants: spec.tenants,
            window_ns: spec.window_ms * 1_000_000,
        },
        agents,
    )
}
