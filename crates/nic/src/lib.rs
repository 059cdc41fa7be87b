//! # san-nic — the LANai-like network interface controller model
//!
//! Models the Myrinet M2M-PCI64A-2 adapter of the paper's testbed (§3.1):
//! a slow control processor (LANai 7), 2 MB of SRAM shared between firmware
//! and packet buffers, and three DMA engines (host↔SRAM over PCI, SRAM↔wire
//! in each direction), plus the host-side interface (send descriptors,
//! message deposit, notifications).
//!
//! The crate separates *mechanism* from *policy*: [`nic::NicCore`] implements
//! what every Myrinet control program does (descriptor pipeline, DMA cost
//! accounting, probe replies), and the [`nic::Firmware`] trait is the hook
//! set a control program implements. The baseline [`nic::UnreliableFirmware`]
//! ships here; the paper's reliable firmware is `san_ft::ReliableFirmware`.
//!
//! [`cluster::Cluster`] assembles hosts, NICs and the fabric into one
//! deterministic event loop.

pub mod buffer;
pub mod cluster;
pub mod nic;
pub mod testkit;
pub mod timing;

pub use buffer::{BufId, SendPool};
pub use cluster::{
    Cluster, ClusterConfig, ClusterEvent, HostAgent, HostCtx, HostEvent, IdleHost, NicEvent,
    Repost, RepostBudget,
};
pub use nic::{Firmware, Nic, NicCore, NicCtx, NicStats, RouteTable, SendDesc, UnreliableFirmware};
pub use timing::vmmc_consts;
