//! Build-and-run harness for SVM applications: assembles the cluster
//! (star topology, reliable or baseline firmware), spawns the process
//! coroutines, runs to completion, and reports the paper's execution-time
//! breakdown.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use san_fabric::engine::FabricEvent;
use san_fabric::{topology, Endpoint, NodeId};
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::{Cluster, ClusterConfig, HostAgent, UnreliableFirmware};
use san_sim::{Duration, Time};

use crate::node::{SvmNode, SvmShared};
use crate::Svm;

/// The four bars of Figure 9, per process.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Compute + handler time.
    pub compute: Duration,
    /// Data (page fetch) stall time.
    pub data: Duration,
    /// Lock stall time.
    pub lock: Duration,
    /// Barrier stall time.
    pub barrier: Duration,
}

impl TimeBreakdown {
    /// Sum of all buckets.
    pub fn total(&self) -> Duration {
        self.compute + self.data + self.lock + self.barrier
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &TimeBreakdown) {
        self.compute += other.compute;
        self.data += other.data;
        self.lock += other.lock;
        self.barrier += other.barrier;
    }
}

/// One process's program: called once with the process's [`Svm`] handle,
/// it returns the future that runs the process.
pub type ProcBody = Box<dyn FnOnce(Svm) -> Pin<Box<dyn Future<Output = ()>>>>;

/// Box an `async` process program as a [`ProcBody`].
pub fn proc_body<Fut>(body: impl FnOnce(Svm) -> Fut + 'static) -> ProcBody
where
    Fut: Future<Output = ()> + 'static,
{
    Box::new(|svm| Box::pin(body(svm)))
}

/// A host-uplink outage injected into the run: node `node`'s link to the
/// switch goes down at `down` and comes back at `up`.
#[derive(Debug, Clone, Copy)]
pub struct LinkFlap {
    /// Which node's uplink to flap.
    pub node: usize,
    /// When the link dies.
    pub down: Time,
    /// When it is repaired.
    pub up: Time,
}

/// SVM run configuration.
#[derive(Debug, Clone)]
pub struct SvmConfig {
    /// Cluster nodes (the paper: 4).
    pub nodes: usize,
    /// Processes per node (the paper: 2).
    pub procs_per_node: usize,
    /// Shared pages.
    pub pages: u32,
    /// NIC/cluster parameters (send buffers, seed, telemetry).
    pub cluster: ClusterConfig,
    /// Reliability protocol; `None` runs the no-fault-tolerance firmware.
    pub proto: Option<ProtocolConfig>,
    /// Re-post sends the NIC fails as unreachable, paced by
    /// `san_nic::RepostBudget`; off keeps the paper's silent-drop baseline.
    pub host_recovery: bool,
    /// Host-uplink outages to inject during the run.
    pub flaps: Vec<LinkFlap>,
    /// Give up after this much simulated time.
    pub deadline: Time,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            nodes: 4,
            procs_per_node: 2,
            pages: 1024,
            cluster: ClusterConfig::default(),
            proto: Some(ProtocolConfig::default()),
            host_recovery: false,
            flaps: Vec::new(),
            deadline: Time::from_secs(300),
        }
    }
}

/// What a finished run reports.
#[derive(Debug, Clone)]
pub struct SvmReport {
    /// Per-process breakdowns (indexed by global pid).
    pub breakdowns: Vec<TimeBreakdown>,
    /// Wall (virtual) time until the last process finished.
    pub wall: Duration,
    /// All processes finished before the deadline.
    pub completed: bool,
    /// Total packets retransmitted across the cluster.
    pub retransmits: u64,
    /// Packets suppressed by the error injector.
    pub injected_drops: u64,
    /// Data packets put on the wire.
    pub packets_tx: u64,
}

impl SvmReport {
    /// Bucket sums over all processes (the figure's bar heights).
    pub fn aggregate(&self) -> TimeBreakdown {
        let mut t = TimeBreakdown::default();
        for b in &self.breakdowns {
            t.add(b);
        }
        t
    }
}

/// Run `bodies` (one per process, grouped round-robin by node:
/// pid = node * procs_per_node + local) on a simulated SVM cluster.
///
/// # Panics
/// Panics if `bodies.len() != nodes * procs_per_node`.
pub fn run_svm(cfg: SvmConfig, bodies: Vec<ProcBody>) -> SvmReport {
    let total = cfg.nodes * cfg.procs_per_node;
    assert_eq!(bodies.len(), total, "one body per process");
    let (topo, _hosts) = topology::star(cfg.nodes);
    let flap_links: Vec<_> = cfg
        .flaps
        .iter()
        .map(|f| {
            let link = topo
                .link_at(Endpoint::Host(NodeId(f.node as u16)))
                .expect("flapped node has an uplink");
            (*f, link)
        })
        .collect();
    let shared = Rc::new(RefCell::new(SvmShared::default()));

    let mut bodies: Vec<Option<ProcBody>> = bodies.into_iter().map(Some).collect();
    let telemetry = cfg.cluster.telemetry.clone();
    let hosts: Vec<Box<dyn HostAgent>> = (0..cfg.nodes)
        .map(|n| {
            let node_bodies: Vec<ProcBody> = (0..cfg.procs_per_node)
                .map(|i| bodies[n * cfg.procs_per_node + i].take().unwrap())
                .collect();
            Box::new(SvmNode::new(
                NodeId(n as u16),
                cfg.nodes,
                cfg.procs_per_node,
                cfg.pages,
                node_bodies,
                shared.clone(),
                &telemetry,
                cfg.host_recovery,
            )) as Box<dyn HostAgent>
        })
        .collect();

    let proto = cfg.proto.clone();
    let nodes = cfg.nodes;
    let mut cluster = Cluster::new(
        topo,
        cfg.cluster,
        |_| match &proto {
            Some(p) => Box::new(ReliableFirmware::new(
                p.clone(),
                MapperConfig::default(),
                nodes,
            )),
            None => Box::new(UnreliableFirmware),
        },
        hosts,
    );
    cluster.install_shortest_routes();
    for (f, link) in flap_links {
        cluster
            .sim
            .schedule(f.down, FabricEvent::LinkDown { link }.into());
        cluster
            .sim
            .schedule(f.up, FabricEvent::LinkUp { link }.into());
    }

    // Run in slices until every process finished (the periodic retransmission
    // timer keeps the queue non-empty forever, so we cannot run to idle).
    let slice = Duration::from_millis(5);
    let mut t = Time::ZERO + slice;
    let completed = loop {
        cluster.run_until(t);
        if shared.borrow().finished == total {
            break true;
        }
        if t > cfg.deadline {
            break false;
        }
        if cluster.sim.is_idle() && shared.borrow().finished < total {
            // No pending events and unfinished processes: deadlock (only
            // possible with the unreliable firmware after a loss).
            break false;
        }
        t += slice;
    };

    let sh = shared.borrow();
    let wall = sh
        .finish_times
        .values()
        .copied()
        .max()
        .unwrap_or(Time::ZERO)
        .since(Time::ZERO);
    let breakdowns: Vec<TimeBreakdown> = (0..total as u32)
        .map(|pid| sh.breakdowns.get(&pid).copied().unwrap_or_default())
        .collect();
    let retransmits = cluster
        .nics
        .iter()
        .map(|n| n.core.stats.retransmits.get())
        .sum();
    let injected_drops = cluster
        .nics
        .iter()
        .map(|n| n.core.stats.injected_drops.get())
        .sum();
    let packets_tx = cluster
        .nics
        .iter()
        .map(|n| n.core.stats.packets_tx.get())
        .sum();
    SvmReport {
        breakdowns,
        wall,
        completed,
        retransmits,
        injected_drops,
        packets_tx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Two procs increment a shared counter under a lock; barrier at the end.
    #[test]
    fn lock_protected_counter_is_exact() {
        let counter = Rc::new(Cell::new(0u64));
        let total = 8;
        let bodies: Vec<ProcBody> = (0..total)
            .map(|_| {
                let c = counter.clone();
                proc_body(move |mut svm| async move {
                    for _ in 0..10 {
                        svm.acquire(0).await;
                        svm.write(0).await;
                        // Critical section: read-modify-write on real data.
                        let v = c.get();
                        svm.compute(Duration::from_micros(2)).await;
                        c.set(v + 1);
                        svm.release(0).await;
                    }
                    svm.barrier().await;
                })
            })
            .collect();
        let report = run_svm(SvmConfig::default(), bodies);
        assert!(report.completed, "all processes must finish");
        assert_eq!(counter.get(), 80, "mutual exclusion");
        let agg = report.aggregate();
        assert!(
            agg.lock > Duration::ZERO,
            "lock contention must show up in the lock bucket"
        );
        assert!(agg.compute >= Duration::from_micros(2 * 80));
    }

    /// Barrier actually synchronizes: nobody passes episode k before all
    /// arrived.
    #[test]
    fn barrier_synchronizes_epochs() {
        let phase_counts: Rc<Vec<Cell<u64>>> = Rc::new((0..5).map(|_| Cell::new(0)).collect());
        let total = 8usize;
        let bodies: Vec<ProcBody> = (0..total)
            .map(|pid| {
                let pc = phase_counts.clone();
                proc_body(move |mut svm| async move {
                    for phase in 0..5 {
                        // Unequal compute so arrival order varies.
                        svm.compute(Duration::from_micros(3 + (pid as u64 * 7) % 20))
                            .await;
                        let before = pc[phase].replace(pc[phase].get() + 1);
                        assert!(before < total as u64, "phase overshoot");
                        svm.barrier().await;
                        // After the barrier, everyone must have counted.
                        assert_eq!(
                            pc[phase].get(),
                            total as u64,
                            "crossed barrier before all arrived"
                        );
                    }
                })
            })
            .collect();
        let report = run_svm(SvmConfig::default(), bodies);
        assert!(report.completed);
        let agg = report.aggregate();
        assert!(agg.barrier > Duration::ZERO);
    }

    /// Page fetches cost Data time and only on first touch / after
    /// invalidation.
    #[test]
    fn page_fetch_accounting() {
        let bodies: Vec<ProcBody> = (0..8)
            .map(|pid| {
                proc_body(move |mut svm| async move {
                    // Pages 0,4,8,... are homed on node 0 (page % nodes).
                    if pid == 0 {
                        // Writer dirties 16 locally-homed pages: no fetches.
                        for p in 0..16 {
                            svm.write(p * 4).await;
                        }
                        svm.barrier().await;
                        svm.barrier().await;
                    } else {
                        svm.barrier().await;
                        // Everyone reads the writer's pages.
                        for p in 0..16 {
                            svm.read(p * 4).await;
                        }
                        // Re-reads are free (still valid).
                        for p in 0..16 {
                            svm.read(p * 4).await;
                        }
                        svm.barrier().await;
                    }
                })
            })
            .collect();
        let report = run_svm(SvmConfig::default(), bodies);
        assert!(report.completed);
        // Readers on nodes 1..3 must have paid data time; the writer none.
        assert_eq!(
            report.breakdowns[0].data,
            Duration::ZERO,
            "writer never fetches"
        );
        let reader_data: Duration = report.breakdowns[2..]
            .iter()
            .map(|b| b.data)
            .fold(Duration::ZERO, |a, d| a + d);
        assert!(reader_data > Duration::ZERO, "remote readers fetch pages");
    }

    /// The same program with injected errors completes with identical
    /// results, only slower — the fault-tolerance guarantee end to end.
    #[test]
    fn svm_survives_injected_errors() {
        let run = |error_rate: f64| -> (bool, u64, Duration) {
            let counter = Rc::new(Cell::new(0u64));
            let bodies: Vec<ProcBody> = (0..8)
                .map(|_| {
                    let c = counter.clone();
                    proc_body(move |mut svm| async move {
                        for i in 0..6 {
                            svm.acquire(1).await;
                            svm.write(i % 8).await;
                            let v = c.get();
                            svm.compute(Duration::from_micros(1)).await;
                            c.set(v + 1);
                            svm.release(1).await;
                            svm.barrier().await;
                        }
                    })
                })
                .collect();
            let cfg = SvmConfig {
                proto: Some(ProtocolConfig::default().with_error_rate(error_rate)),
                ..SvmConfig::default()
            };
            let report = run_svm(cfg, bodies);
            (report.completed, counter.get(), report.wall)
        };
        let (ok0, count0, wall0) = run(0.0);
        let (ok1, count1, wall1) = run(1.0 / 50.0);
        assert!(ok0 && ok1, "both runs complete");
        assert_eq!(count0, 48);
        assert_eq!(count1, 48, "errors must not change results");
        assert!(wall1 > wall0, "errors cost time: {wall1} vs {wall0}");
    }

    /// A process body that panics panics the run: the panic unwinds out of
    /// the resume that polled it, so a failed process cannot pass for an
    /// unfinished one.
    #[test]
    #[should_panic(expected = "process 3 failed after the first barrier")]
    fn panicking_body_panics_the_run() {
        let bodies: Vec<ProcBody> = (0..8)
            .map(|pid| {
                proc_body(move |mut svm| async move {
                    svm.barrier().await;
                    assert_ne!(pid, 3, "process 3 failed after the first barrier");
                    svm.barrier().await;
                })
            })
            .collect();
        run_svm(SvmConfig::default(), bodies);
    }
}

#[cfg(test)]
mod fairness_tests {
    use super::*;
    use std::cell::Cell;

    /// The home-based lock grants strictly in request-arrival order: with
    /// well-separated staggered requests, the critical-section entry order
    /// equals the request order (FIFO, no starvation or barging).
    #[test]
    fn locks_grant_in_request_order() {
        let order = Rc::new(RefCell::new(Vec::<u32>::new()));
        let total = 8u32;
        let bodies: Vec<ProcBody> = (0..total)
            .map(|pid| {
                let ord = order.clone();
                proc_body(move |mut svm| async move {
                    // Stagger arrivals by well over the grant latency.
                    svm.compute(Duration::from_micros(200 * (pid as u64 + 1)))
                        .await;
                    svm.acquire(3).await;
                    ord.borrow_mut().push(pid);
                    // Hold long enough that everyone queues behind.
                    svm.compute(Duration::from_micros(400)).await;
                    svm.release(3).await;
                })
            })
            .collect();
        let report = run_svm(SvmConfig::default(), bodies);
        assert!(report.completed);
        assert_eq!(
            *order.borrow(),
            (0..total).collect::<Vec<_>>(),
            "FIFO grant order"
        );
    }

    /// Two independent locks on different home nodes do not serialize each
    /// other: disjoint critical sections overlap in virtual time.
    #[test]
    fn independent_locks_run_concurrently() {
        let span0 = Rc::new((Cell::new(u64::MAX), Cell::new(0)));
        let span1 = Rc::new((Cell::new(u64::MAX), Cell::new(0)));
        let bodies: Vec<ProcBody> = (0..8)
            .map(|pid| {
                let (s0, s1) = (span0.clone(), span1.clone());
                proc_body(move |mut svm| async move {
                    let (lock, span) = if pid % 2 == 0 {
                        (10u32, s0)
                    } else {
                        (11u32, s1)
                    };
                    for _ in 0..5 {
                        svm.acquire(lock).await;
                        let t0 = svm.now().nanos();
                        svm.compute(Duration::from_micros(50)).await;
                        let t1 = svm.now().nanos();
                        span.0.set(span.0.get().min(t0));
                        span.1.set(span.1.get().max(t1));
                        svm.release(lock).await;
                    }
                })
            })
            .collect();
        let report = run_svm(SvmConfig::default(), bodies);
        assert!(report.completed);
        // The two lock groups each spent 4 procs × 5 × 50 µs = 1 ms of
        // critical-section time. If they serialized against each other the
        // spans would not overlap; concurrent groups must overlap heavily.
        let (a0, a1) = (span0.0.get(), span0.1.get());
        let (b0, b1) = (span1.0.get(), span1.1.get());
        let overlap = a1.min(b1).saturating_sub(a0.max(b0));
        assert!(
            overlap > 500_000,
            "independent locks must overlap ≥0.5ms: [{a0},{a1}] vs [{b0},{b1}]"
        );
    }

    /// End-to-end host recovery: an uplink outage long enough to exhaust the
    /// NIC's remap-retry budget drops SVM protocol messages with a
    /// `SendFailed` completion. Without a recovery policy the application
    /// deadlocks (the paper's silent drop); with one, the host re-posts the
    /// failed message after the repair and the run completes exactly.
    #[test]
    fn host_recovery_survives_remap_budget_exhaustion() {
        let run = |host_recovery: bool| {
            let counter = Rc::new(Cell::new(0u64));
            let bodies: Vec<ProcBody> = (0..2)
                .map(|_| {
                    let c = counter.clone();
                    proc_body(move |mut svm| async move {
                        for _ in 0..20 {
                            svm.acquire(0).await;
                            svm.write(0).await;
                            let v = c.get();
                            svm.compute(Duration::from_millis(10)).await;
                            c.set(v + 1);
                            svm.release(0).await;
                        }
                        svm.barrier().await;
                    })
                })
                .collect();
            let cfg = SvmConfig {
                nodes: 2,
                procs_per_node: 1,
                proto: Some(ProtocolConfig {
                    perm_fail_threshold: Duration::from_millis(2),
                    ..ProtocolConfig::default().with_mapping()
                }),
                host_recovery,
                // Node 1 unreachable from 2 ms to 400 ms: every sender's
                // remap-retry budget (~145 ms per cycle) exhausts
                // mid-outage, so in-flight lock traffic is dropped with a
                // SendFailed completion on both sides of the dead link.
                flaps: vec![LinkFlap {
                    node: 1,
                    down: Time::from_millis(2),
                    up: Time::from_millis(400),
                }],
                deadline: Time::from_secs(5),
                ..SvmConfig::default()
            };
            let report = run_svm(cfg, bodies);
            (report.completed, counter.get())
        };

        let (completed, _) = run(false);
        assert!(
            !completed,
            "without host recovery the dropped lock message must deadlock the run"
        );
        let (completed, count) = run(true);
        assert!(completed, "host recovery must re-post and finish the run");
        assert_eq!(count, 40, "mutual exclusion preserved across recovery");
    }
}
