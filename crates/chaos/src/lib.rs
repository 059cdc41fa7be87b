//! # san-chaos — fault-campaign engine for the SAN fault-tolerance stack
//!
//! The paper's claim is qualitative — the firmware protocol "tolerates
//! transient and permanent network failures transparently" — and the
//! repository's unit tests each probe one scenario. This crate turns the
//! claim into a falsifiable, randomized test harness:
//!
//! * [`campaign`] — a JSON-parsed scenario model: a [`Campaign`] describes
//!   a *family* of runs (fault-probability spans, flap/kill/storm counts,
//!   topology, traffic shape, protocol knobs); `Campaign::sample(i)`
//!   derives a fully concrete, replayable [`Trial`] from `(seed, i)`.
//! * [`runner`] — executes trials, each in its own simulated cluster, on
//!   any number of worker threads with byte-identical results
//!   ([`run_campaign`]).
//! * [`oracle`] — the invariant checker: exactly-once in-order delivery
//!   per (src, dst, generation), no corrupted deposits, completeness once
//!   connectivity is restored, retransmission-queue drain, and bounded
//!   recovery after path resets.
//! * [`shrink`] — when a trial fails, greedily minimize its fault
//!   schedule into a small deterministic repro file that
//!   `san-chaos replay` re-executes bit-for-bit.
//!
//! Curated campaigns live in `crates/chaos/campaigns/`; the `san-chaos`
//! binary runs them (`run`), replays repros (`replay`) and lists suites
//! (`list`).

pub mod campaign;
pub mod json;
pub mod oracle;
pub mod runner;
pub mod shrink;

pub use campaign::{
    Campaign, FaultMix, Pattern, ProtoSpec, Span, TopologySpec, TrafficSpec, Trial,
};
pub use json::Json;
pub use oracle::{check, Observation, Violation, ViolationKind};
pub use runner::{run_campaign, run_trial, run_trial_traced, CampaignOutcome, TrialOutcome};
pub use shrink::{shrink, ShrinkResult};
