//! # san-repro — *Tolerating Network Failures in System Area Networks*
//!
//! A full Rust reproduction of Tang & Bilas (ICPP 2002): firmware-level
//! retransmission for transient network failures and on-demand network
//! mapping for permanent ones, evaluated on a calibrated discrete-event
//! model of the paper's Myrinet/VMMC testbed.
//!
//! This facade re-exports every layer; see the individual crates for the
//! real documentation:
//!
//! * [`sim`] — deterministic discrete-event kernel,
//! * [`fabric`] — the SAN fabric (topology, cut-through, faults, CRC),
//! * [`nic`] — the LANai-like NIC and the cluster world,
//! * [`ft`] — **the paper's contribution**: reliable firmware + mapper,
//! * [`vmmc`] — the user-level communication layer,
//! * [`proc`] — deterministic coroutines for application code,
//! * [`svm`] — the GeNIMA-like shared virtual memory,
//! * [`apps`] — SPLASH-2-style kernels (FFT, RadixLocal, WaterNSquared),
//! * [`microbench`] — latency/bandwidth drivers and parameter sweeps,
//! * [`telemetry`] — cross-layer metrics registry, trace ring and
//!   packet-lifecycle reconstruction,
//! * [`topo`] — large-scale topology atlas, structural validators and the
//!   multipath route planner.
//!
//! ```
//! use san_repro::prelude::*;
//!
//! // Two nodes, one switch, reliable firmware, 1-in-50 injected loss.
//! let (topo, _, _) = san_repro::fabric::topology::pair_via_switch();
//! let inbox = san_repro::nic::testkit::inbox();
//! let hosts: Vec<Box<dyn HostAgent>> = vec![
//!     Box::new(StreamSender::new(NodeId(1), 512, 40)),
//!     Box::new(Collector(inbox.clone())),
//! ];
//! let proto = ProtocolConfig::default().with_error_rate(1.0 / 50.0);
//! let mut cluster = Cluster::new(
//!     topo,
//!     ClusterConfig::default(),
//!     |_| Box::new(ReliableFirmware::new(proto.clone(), MapperConfig::default(), 2)),
//!     hosts,
//! );
//! cluster.install_shortest_routes();
//! cluster.run_until(Time::from_millis(100));
//! assert_eq!(inbox.borrow().len(), 40); // exactly once, in order
//! ```

pub use san_apps as apps;
pub use san_fabric as fabric;
pub use san_ft as ft;
pub use san_microbench as microbench;
pub use san_nic as nic;
pub use san_proc as proc;
pub use san_sim as sim;
pub use san_svm as svm;
pub use san_telemetry as telemetry;
pub use san_topo as topo;
pub use san_vmmc as vmmc;

/// The names almost every user needs.
pub mod prelude {
    pub use san_fabric::{NodeId, Packet, Route, Topology};
    pub use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
    pub use san_nic::testkit::{Collector, StreamSender};
    pub use san_nic::{Cluster, ClusterConfig, HostAgent, HostCtx, SendDesc, UnreliableFirmware};
    pub use san_sim::{Duration, Time};
    pub use san_telemetry::Telemetry;
    pub use san_vmmc::VmmcLib;
}
