//! The per-node SVM agent: drives its process coroutines, serves the pages
//! and locks homed on it, and participates in the global barrier.
//!
//! All collections iterated during protocol actions are ordered (`BTreeSet`
//! / `BTreeMap`) — HashMap iteration order would leak randomness into the
//! simulation and break reproducibility.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use san_fabric::{NodeId, Packet};
use san_nic::{HostAgent, HostCtx};
use san_proc::{Coroutine, Step};
use san_sim::Time;
use san_vmmc::{ExportId, ImportHandle, VmmcLib};

use crate::msg::SvmMsg;
use crate::runner::TimeBreakdown;

/// Shared page size (and VMMC segment size).
pub const PAGE_BYTES: u32 = 4096;
/// Per-source slot inside every node's control export.
pub const CTRL_SLOT: u32 = 64 * 1024;
/// Wake token reserved for end-to-end retry pacing (process wake tokens are
/// local indices, far below this).
const RETRY_TOKEN: u64 = 1 << 32;

/// Requests an application process can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvmReq {
    /// Ensure `page` is locally readable.
    Read(u32),
    /// Ensure `page` is locally writable and mark it dirty.
    Write(u32),
    /// Acquire a global lock.
    Acquire(u32),
    /// Release a global lock (flushes writes).
    Release(u32),
    /// Enter the global barrier.
    Barrier,
}

/// Response to any request (all requests are completion-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvmResp;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Park {
    Compute,
    Data,
    Lock,
    Barrier,
}

#[derive(Debug, Clone, PartialEq)]
enum AfterFlush {
    Release(u32),
    Barrier,
}

enum ProcState {
    Running,
    Parked { kind: Park, since: Time },
    Finished,
}

struct ProcSlot {
    co: Coroutine<SvmReq, SvmResp>,
    state: ProcState,
    buckets: TimeBreakdown,
    /// Pages this process dirtied since its last flush point. Per-process,
    /// not per-node: a flush at one process's sync point must not steal
    /// pages another local process is still writing under a lock.
    dirty: BTreeSet<u32>,
    outstanding_flush: u32,
    after_flush: Option<AfterFlush>,
    flush_notices: Vec<u32>,
    finish_time: Time,
}

#[derive(Debug, Default)]
struct LockHome {
    held: bool,
    queue: VecDeque<u32>, // global pids
    last_notices: Vec<u32>,
    last_releaser: Option<u16>, // node id
}

#[derive(Debug, Default)]
struct BarrierMgr {
    episode: u32,
    arrived: Vec<u32>,
    notices: BTreeMap<u16, BTreeSet<u32>>, // node -> dirty pages
}

/// Results shared between the agents and the runner.
#[derive(Debug, Default)]
pub struct SvmShared {
    /// Processes that have finished.
    pub finished: usize,
    /// Per-process breakdowns, keyed by global pid.
    pub breakdowns: BTreeMap<u32, TimeBreakdown>,
    /// Finish time per process.
    pub finish_times: BTreeMap<u32, Time>,
}

/// Registered `svm.node.<n>.*` cells: stall distributions per park kind
/// and completed-wait counts (Figure 9's buckets, observable live).
#[derive(Debug)]
struct SvmMetrics {
    lock_wait: san_telemetry::HistogramHandle,
    data_wait: san_telemetry::HistogramHandle,
    barrier_wait: san_telemetry::HistogramHandle,
    lock_acquires: san_telemetry::Counter,
    page_fetches: san_telemetry::Counter,
    barriers: san_telemetry::Counter,
}

impl SvmMetrics {
    fn register(tel: &san_telemetry::Telemetry, node: NodeId) -> Self {
        let m = |leaf: &str| format!("svm.node.{}.{leaf}", node.0);
        Self {
            lock_wait: tel.histogram(&m("lock_wait_ns")),
            data_wait: tel.histogram(&m("data_wait_ns")),
            barrier_wait: tel.histogram(&m("barrier_wait_ns")),
            lock_acquires: tel.counter(&m("lock_acquires")),
            page_fetches: tel.counter(&m("page_fetches")),
            barriers: tel.counter(&m("barriers")),
        }
    }
}

/// The SVM host agent for one node.
pub struct SvmNode {
    node: NodeId,
    n_nodes: usize,
    procs_per_node: usize,
    total_procs: usize,
    n_pages: u32,
    vmmc: VmmcLib,
    metrics: SvmMetrics,
    ctrl: ExportId,
    procs: Vec<ProcSlot>,
    valid: BTreeSet<u32>,
    pending_pages: BTreeMap<u32, Vec<usize>>,
    lock_homes: BTreeMap<u32, LockHome>,
    flush_tokens: BTreeMap<u32, usize>,
    next_flush_token: u32,
    barrier_mgr: BarrierMgr,
    /// This node's view of which barrier episode comes next (client side).
    bar_episode: u32,
    barrier_parked: Vec<usize>,
    shared: Rc<RefCell<SvmShared>>,
}

impl SvmNode {
    /// Build the agent for `node`, spawning one coroutine per body.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node: NodeId,
        n_nodes: usize,
        procs_per_node: usize,
        n_pages: u32,
        bodies: Vec<crate::ProcBody>,
        shared: Rc<RefCell<SvmShared>>,
        telemetry: &san_telemetry::Telemetry,
        recovery: Option<san_vmmc::RecoveryConfig>,
    ) -> Self {
        assert_eq!(bodies.len(), procs_per_node);
        let procs = bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| ProcSlot {
                co: Coroutine::spawn(format!("svm-n{}p{}", node.0, i), body),
                state: ProcState::Running,
                buckets: TimeBreakdown::default(),
                dirty: BTreeSet::new(),
                outstanding_flush: 0,
                after_flush: None,
                flush_notices: Vec::new(),
                finish_time: Time::ZERO,
            })
            .collect();
        // Pages homed on this node start valid here.
        let valid: BTreeSet<u32> = (0..n_pages)
            .filter(|p| p % n_nodes as u32 == node.0 as u32)
            .collect();
        let mut vmmc = VmmcLib::with_telemetry(node, telemetry);
        if let Some(r) = recovery {
            vmmc.enable_recovery(r);
        }
        // Tag SVM protocol traffic per node (tenant 0 is reserved for
        // untagged traffic) so fabric-level attribution can separate nodes
        // when SVM runs alongside synthetic tenant workloads.
        vmmc.set_tenant(node.0 + 1);
        Self {
            node,
            n_nodes,
            procs_per_node,
            total_procs: n_nodes * procs_per_node,
            n_pages,
            vmmc,
            metrics: SvmMetrics::register(telemetry, node),
            ctrl: ExportId(0),
            procs,
            valid,
            pending_pages: BTreeMap::new(),
            lock_homes: BTreeMap::new(),
            flush_tokens: BTreeMap::new(),
            next_flush_token: 1,
            barrier_mgr: BarrierMgr::default(),
            bar_episode: 0,
            barrier_parked: Vec::new(),
            shared,
        }
    }

    #[inline]
    fn page_home(&self, page: u32) -> NodeId {
        NodeId((page % self.n_nodes as u32) as u16)
    }

    #[inline]
    fn lock_home_node(&self, lock: u32) -> NodeId {
        NodeId((lock % self.n_nodes as u32) as u16)
    }

    #[inline]
    fn global_pid(&self, local: usize) -> u32 {
        (self.node.0 as usize * self.procs_per_node + local) as u32
    }

    #[inline]
    fn local_of(&self, pid: u32) -> Option<usize> {
        let base = self.node.0 as u32 * self.procs_per_node as u32;
        (pid >= base && pid < base + self.procs_per_node as u32).then_some((pid - base) as usize)
    }

    fn import_of(&self, dst: NodeId) -> ImportHandle {
        VmmcLib::import(dst, ExportId(0), self.n_nodes as u32 * CTRL_SLOT)
    }

    /// Send a protocol message; self-addressed messages short-circuit.
    fn send_msg(&mut self, ctx: &mut HostCtx, dst: NodeId, msg: SvmMsg) {
        if dst == self.node {
            self.handle_msg(ctx, self.node, msg);
            return;
        }
        let slot = self.node.0 as u32 * CTRL_SLOT;
        let pad = msg.bulk_bytes();
        let to = self.import_of(dst);
        self.vmmc.send_padded(ctx, to, slot, msg.encode(), pad);
    }

    // -- process driving ----------------------------------------------------

    fn park(&mut self, local: usize, kind: Park, now: Time) {
        self.procs[local].state = ProcState::Parked { kind, since: now };
    }

    fn unpark_bucket(&mut self, local: usize, now: Time) {
        if let ProcState::Parked { kind, since } = self.procs[local].state {
            let d = now.since(since);
            let b = &mut self.procs[local].buckets;
            match kind {
                Park::Compute => b.compute += d,
                Park::Data => {
                    b.data += d;
                    self.metrics.data_wait.record(d);
                    self.metrics.page_fetches.hit();
                }
                Park::Lock => {
                    b.lock += d;
                    self.metrics.lock_wait.record(d);
                    self.metrics.lock_acquires.hit();
                }
                Park::Barrier => {
                    b.barrier += d;
                    self.metrics.barrier_wait.record(d);
                    self.metrics.barriers.hit();
                }
            }
        }
        self.procs[local].state = ProcState::Running;
    }

    /// Resume `local` (delivering a completion if it was in a request) and
    /// keep driving it until it parks on something asynchronous or ends.
    fn drive(&mut self, ctx: &mut HostCtx, local: usize, resp: Option<SvmResp>) {
        let now = ctx.now();
        self.unpark_bucket(local, now);
        let mut resp = resp;
        loop {
            if self.procs[local].co.finished() {
                self.finish(ctx, local);
                return;
            }
            let step = self.procs[local].co.resume(ctx.now(), resp.take());
            match step {
                Step::Done => {
                    self.finish(ctx, local);
                    return;
                }
                Step::Compute(d) => {
                    // Compute time is credited up front; `since` is set to
                    // the wake time so the unpark bucket adds nothing more.
                    self.procs[local].buckets.compute += d;
                    self.procs[local].state = ProcState::Parked {
                        kind: Park::Compute,
                        since: ctx.now() + d,
                    };
                    ctx.wake_in(d, local as u64);
                    return;
                }
                Step::Request(q) => {
                    if self.handle_request(ctx, local, q) {
                        // Completed synchronously: respond and continue.
                        resp = Some(SvmResp);
                    } else {
                        return; // parked; a later event resumes it
                    }
                }
            }
        }
    }

    fn finish(&mut self, ctx: &mut HostCtx, local: usize) {
        if matches!(self.procs[local].state, ProcState::Finished) {
            return;
        }
        self.procs[local].state = ProcState::Finished;
        self.procs[local].finish_time = ctx.now();
        let pid = self.global_pid(local);
        let mut sh = self.shared.borrow_mut();
        sh.finished += 1;
        sh.breakdowns.insert(pid, self.procs[local].buckets);
        sh.finish_times.insert(pid, ctx.now());
    }

    /// Returns true if the request completed synchronously.
    fn handle_request(&mut self, ctx: &mut HostCtx, local: usize, q: SvmReq) -> bool {
        let now = ctx.now();
        match q {
            SvmReq::Read(p) | SvmReq::Write(p) => {
                assert!(p < self.n_pages, "page {p} out of range");
                if matches!(q, SvmReq::Write(p2) if p2 == p) {
                    self.procs[local].dirty.insert(p);
                }
                if self.valid.contains(&p) || self.page_home(p) == self.node {
                    return true;
                }
                let first = !self.pending_pages.contains_key(&p);
                self.pending_pages.entry(p).or_default().push(local);
                if first {
                    let pid = self.global_pid(local);
                    self.send_msg(ctx, self.page_home(p), SvmMsg::PageReq { page: p, pid });
                }
                self.park(local, Park::Data, now);
                false
            }
            SvmReq::Acquire(l) => {
                let home = self.lock_home_node(l);
                let pid = self.global_pid(local);
                self.park(local, Park::Lock, now);
                self.send_msg(ctx, home, SvmMsg::LockReq { lock: l, pid });
                // Even a locally-homed free lock goes through handle_msg and
                // resumes the proc from there.
                false
            }
            SvmReq::Release(l) => {
                let dirty: Vec<u32> = self.procs[local].dirty.iter().copied().collect();
                self.procs[local].dirty.clear();
                self.procs[local].after_flush = Some(AfterFlush::Release(l));
                self.procs[local].flush_notices = dirty.clone();
                self.park(local, Park::Lock, now);
                self.start_flush(ctx, local, &dirty);
                false
            }
            SvmReq::Barrier => {
                let dirty: Vec<u32> = self.procs[local].dirty.iter().copied().collect();
                self.procs[local].dirty.clear();
                self.procs[local].after_flush = Some(AfterFlush::Barrier);
                self.procs[local].flush_notices = dirty.clone();
                self.park(local, Park::Barrier, now);
                self.start_flush(ctx, local, &dirty);
                false
            }
        }
    }

    /// Flush `pages` to their homes; completion continues with the parked
    /// proc's `after_flush` action. Locally-homed pages cost nothing (the
    /// home copy *is* this copy).
    fn start_flush(&mut self, ctx: &mut HostCtx, local: usize, pages: &[u32]) {
        let remote: Vec<u32> = pages
            .iter()
            .copied()
            .filter(|&p| self.page_home(p) != self.node)
            .collect();
        self.procs[local].outstanding_flush = remote.len() as u32;
        if remote.is_empty() {
            self.flush_done(ctx, local);
            return;
        }
        for p in remote {
            let token = self.next_flush_token;
            self.next_flush_token += 1;
            self.flush_tokens.insert(token, local);
            self.send_msg(ctx, self.page_home(p), SvmMsg::Flush { page: p, token });
        }
    }

    fn flush_done(&mut self, ctx: &mut HostCtx, local: usize) {
        let after = self.procs[local]
            .after_flush
            .take()
            .expect("flush without continuation");
        let notices = std::mem::take(&mut self.procs[local].flush_notices);
        match after {
            AfterFlush::Release(l) => {
                let home = self.lock_home_node(l);
                self.send_msg(
                    ctx,
                    home,
                    SvmMsg::LockRelease {
                        lock: l,
                        dirty: notices,
                    },
                );
                // Release is asynchronous: the releaser proceeds now.
                self.drive(ctx, local, Some(SvmResp));
            }
            AfterFlush::Barrier => {
                let pid = self.global_pid(local);
                let episode = self.bar_episode;
                self.barrier_parked.push(local);
                self.send_msg(
                    ctx,
                    NodeId(0),
                    SvmMsg::BarrierArrive {
                        episode,
                        pid,
                        dirty: notices,
                    },
                );
            }
        }
    }

    // -- protocol message handling -------------------------------------------

    fn handle_msg(&mut self, ctx: &mut HostCtx, src: NodeId, msg: SvmMsg) {
        match msg {
            SvmMsg::PageReq { page, pid } => {
                debug_assert_eq!(self.page_home(page), self.node);
                self.send_msg(ctx, src, SvmMsg::PageReply { page, pid });
            }
            SvmMsg::PageReply { page, .. } => {
                self.valid.insert(page);
                if let Some(waiters) = self.pending_pages.remove(&page) {
                    for local in waiters {
                        self.drive(ctx, local, Some(SvmResp));
                    }
                }
            }
            SvmMsg::Flush { token, .. } => {
                // The deposit itself carried the data; just confirm.
                self.send_msg(ctx, src, SvmMsg::FlushAck { token });
            }
            SvmMsg::FlushAck { token } => {
                let Some(local) = self.flush_tokens.remove(&token) else {
                    return;
                };
                let p = &mut self.procs[local];
                p.outstanding_flush = p.outstanding_flush.saturating_sub(1);
                if p.outstanding_flush == 0 {
                    self.flush_done(ctx, local);
                }
            }
            SvmMsg::LockReq { lock, pid } => {
                debug_assert_eq!(self.lock_home_node(lock), self.node);
                let granted = {
                    let h = self.lock_homes.entry(lock).or_default();
                    if h.held {
                        h.queue.push_back(pid);
                        false
                    } else {
                        h.held = true;
                        true
                    }
                };
                if granted {
                    self.grant_lock(ctx, lock, pid);
                }
            }
            SvmMsg::LockGrant {
                pid, invalidate, ..
            } => {
                for p in invalidate {
                    if self.page_home(p) != self.node {
                        self.valid.remove(&p);
                    }
                }
                let local = self.local_of(pid).expect("grant routed to wrong node");
                self.drive(ctx, local, Some(SvmResp));
            }
            SvmMsg::LockRelease { lock, dirty } => {
                debug_assert_eq!(self.lock_home_node(lock), self.node);
                let next = {
                    let h = self.lock_homes.entry(lock).or_default();
                    h.last_notices = dirty;
                    h.last_releaser = Some(src.0);
                    match h.queue.pop_front() {
                        Some(pid) => {
                            // Stays held; hand over.
                            Some(pid)
                        }
                        None => {
                            h.held = false;
                            None
                        }
                    }
                };
                if let Some(pid) = next {
                    self.grant_lock(ctx, lock, pid);
                }
            }
            SvmMsg::BarrierArrive {
                episode,
                pid,
                dirty,
            } => {
                debug_assert_eq!(self.node, NodeId(0), "barrier manager is node 0");
                debug_assert_eq!(episode, self.barrier_mgr.episode, "episode skew");
                let owner_node = (pid as usize / self.procs_per_node) as u16;
                self.barrier_mgr.arrived.push(pid);
                self.barrier_mgr
                    .notices
                    .entry(owner_node)
                    .or_default()
                    .extend(dirty);
                if self.barrier_mgr.arrived.len() == self.total_procs {
                    let mgr = std::mem::take(&mut self.barrier_mgr);
                    self.barrier_mgr.episode = mgr.episode + 1;
                    // Per destination node: invalidate everything others
                    // dirtied.
                    for n in 0..self.n_nodes as u16 {
                        let inval: Vec<u32> = mgr
                            .notices
                            .iter()
                            .filter(|(&from, _)| from != n)
                            .flat_map(|(_, pages)| pages.iter().copied())
                            .collect();
                        self.send_msg(
                            ctx,
                            NodeId(n),
                            SvmMsg::BarrierRelease {
                                episode: mgr.episode,
                                invalidate: inval,
                            },
                        );
                    }
                }
            }
            SvmMsg::BarrierRelease { invalidate, .. } => {
                self.bar_episode += 1;
                for p in invalidate {
                    if self.page_home(p) != self.node {
                        self.valid.remove(&p);
                    }
                }
                let parked = std::mem::take(&mut self.barrier_parked);
                for local in parked {
                    self.drive(ctx, local, Some(SvmResp));
                }
            }
        }
    }

    /// Home-side lock grant: route the grant (with the previous holder's
    /// notices) to the requester's node.
    fn grant_lock(&mut self, ctx: &mut HostCtx, lock: u32, pid: u32) {
        let (notices, releaser) = {
            let h = self.lock_homes.entry(lock).or_default();
            (h.last_notices.clone(), h.last_releaser)
        };
        let dst = NodeId((pid as usize / self.procs_per_node) as u16);
        // Don't tell a node to invalidate its own writes.
        let invalidate = if releaser == Some(dst.0) {
            Vec::new()
        } else {
            notices
        };
        self.send_msg(
            ctx,
            dst,
            SvmMsg::LockGrant {
                lock,
                pid,
                invalidate,
            },
        );
    }
}

impl HostAgent for SvmNode {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        let size = self.n_nodes as u32 * CTRL_SLOT;
        let e = self.vmmc.export(size, None);
        debug_assert_eq!(e, self.ctrl);
        for local in 0..self.procs_per_node {
            self.drive(ctx, local, None);
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx, token: u64) {
        if token == RETRY_TOKEN {
            // End-to-end recovery pacing: re-post everything whose backoff
            // elapsed and re-arm for the next due retry.
            if let Some(next) = self.vmmc.flush_retries(ctx) {
                ctx.wake_in(next, RETRY_TOKEN);
            }
            return;
        }
        self.drive(ctx, token as usize, None);
    }

    fn on_message(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        let Some(dm) = self.vmmc.on_packet(&pkt) else {
            return;
        };
        let take = dm.len.min(CTRL_SLOT);
        let bytes: Vec<u8> = self.vmmc.read_export(dm.export, dm.offset, take).to_vec();
        let Some(msg) = SvmMsg::decode(&bytes) else {
            debug_assert!(false, "undecodable SVM message from {:?}", dm.src);
            return;
        };
        self.handle_msg(ctx, dm.src, msg);
    }

    fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}

    fn on_send_failed(&mut self, ctx: &mut HostCtx, msg_id: u64, _dst: NodeId) {
        // The NIC exhausted its remap budget and dropped the message. With
        // a recovery policy installed, schedule a backoff-paced re-post
        // (same msg_id — idempotent at the receiver); without one, this is
        // the paper's silent drop.
        if let Some(delay) = self.vmmc.on_send_failed(ctx.now(), msg_id) {
            ctx.wake_in(delay, RETRY_TOKEN);
        }
    }
}
