//! # san-fabric — Myrinet-like system-area-network fabric model
//!
//! This crate models the interconnect of the paper's testbed: full-crossbar
//! switches joined by full-duplex 1.28 Gb/s links, source-routed cut-through
//! (wormhole) packet forwarding with blocking backpressure, per-packet CRC-32
//! protection, a per-source path-reset (deadlock recovery) timer, and fault
//! injection for both transient errors (packet loss and corruption on the
//! wire) and permanent failures (link and switch death).
//!
//! The model is packet-level, not flit-level: a packet acquires the directed
//! channels along its source route one hop at a time, holding everything
//! already acquired (that is what makes backpressure — and genuine deadlock —
//! possible), and releases the whole chain when its tail reaches the
//! destination. Serialization is paid once end-to-end, which is the
//! cut-through behaviour of real Myrinet.
//!
//! Layering: `san-fabric` knows nothing about NICs or protocols. It delivers
//! [`engine::FabricOut`] values (deliveries, drops, path resets) to whoever
//! drives the simulation loop — see `san_nic::Cluster`.

pub mod crc;
pub mod engine;
pub mod fault;
pub mod fingerprint;
pub mod ids;
pub mod packet;
pub mod route;
pub mod topology;
pub mod updown;

pub use engine::{DropReason, Engine, EngineConfig, FabricEvent, FabricOut};
pub use fault::{FaultPlan, PermanentFault, TransientFaults};
pub use fingerprint::{fingerprint_topology, Fnv};
pub use ids::{Endpoint, LinkId, NodeId, PortId, SwitchId};
pub use packet::{Packet, PacketFlags, PacketKind};
pub use route::Route;
pub use topology::{Topology, WireError};
