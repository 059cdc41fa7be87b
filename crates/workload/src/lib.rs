//! # san-workload — heavy-tailed multi-tenant traffic engine
//!
//! The paper evaluates fault tolerance under three SPLASH-2 kernels;
//! production fabrics stress the retransmission/remap machinery very
//! differently — thousands of concurrent tenant streams, heavy-tailed
//! message sizes, incast deposit storms into one receiver's buffer pool.
//! This crate generates that regime on top of the `san-nic` cluster:
//!
//! * [`dist`] — seeded, deterministic samplers: Poisson and two-state
//!   MMPP arrival processes, lognormal and bounded-Pareto message sizes,
//!   Zipf destination skew. All draws go through `san_sim::SimRng`, so
//!   identical seeds give byte-identical streams (proved by proptests).
//! * [`spec`] — [`WorkloadSpec`]: a plain value describing a whole
//!   multi-tenant workload (tenant count, arrival/size/destination laws,
//!   arrival window, per-tenant backlog bound), with compact string
//!   forms (`"poisson:20000"`, `"pareto:1.3:256:65536"`, `"zipf:1.2"`)
//!   usable from CLI flags and chaos-campaign JSON.
//! * [`engine`] — the open-loop driver: [`engine::build_hosts`] turns a
//!   spec into one [`san_nic::HostAgent`] per cluster host multiplexing
//!   that host's tenant streams. Arrivals are open-loop (the generator
//!   does not wait for completions) with a bounded per-tenant backlog:
//!   arrivals beyond the bound are *shed* and counted, so offered vs
//!   delivered load separates cleanly past the congestion knee. Message
//!   ids are contiguous per (src, dst) pair — exactly the contract the
//!   chaos oracle's completeness invariant checks.
//! * [`stats`] — per-tenant p50/p99/p999 delivery latency, Jain's
//!   fairness index over per-tenant delivered bytes, and the
//!   [`WorkloadReport`] the bench and chaos layers render.
//! * [`run`](mod@run) — a one-call library entry: build an atlas fabric, run a
//!   spec over it with the reliability firmware (adaptive knobs
//!   optional), return the report. `san-bench tenants` is a thin sweep
//!   around this.
//!
//! Tenant identity rides on `SendDesc::tenant` → `Packet::tenant`
//! (spare header padding, excluded from the CRC image) and surfaces as
//! `TraceKind::TenantDelivered` events plus per-tenant telemetry
//! histograms, so the trace ring alone is enough to reconstruct
//! per-tenant tail latency.

#![warn(missing_docs)]

pub mod dist;
pub mod engine;
pub mod run;
pub mod spec;
pub mod stats;

pub use dist::{ArrivalGen, ArrivalSpec, DestSpec, SizeSpec, ZipfTable};
pub use engine::{
    build_hosts, incast_victim, potential_pairs, SegmentRecord, WorkloadDriver, WorkloadOptions,
};
pub use run::{run, RunConfig};
pub use spec::{WorkloadSpec, MAX_MSG_BYTES};
pub use stats::{jain_index, quantile_ns, TenantStats, WorkloadReport};
