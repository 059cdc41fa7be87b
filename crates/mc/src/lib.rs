//! # san-mc — explicit-state model checking for the protocol core
//!
//! The simulator exercises the retransmission protocol along the paths a
//! discrete-event schedule happens to take; this crate checks *all* of
//! them, for small instances. The protocol logic itself is not
//! re-modelled — the checker drives the same pure
//! [`san_ft::ProtocolStep`] kernel (`NodeModel`) that the production
//! firmware is built from, so a theorem about the model is a theorem
//! about the shipped transition logic.
//!
//! Pieces:
//!
//! * [`model`] — the composed system (nodes × adversarial channels), its
//!   event alphabet, and the canonical state encoding that makes
//!   sequence-number position (including the `u32::MAX` wrap) invisible
//!   to the visited set;
//! * [`invariant`] — state-level safety: descriptor conservation, pool
//!   conservation (the PR 2 leak detector), queue sanity, bounded
//!   occupancy, channel caps;
//! * [`checker`] — exhaustive BFS with budgets, shortest-counterexample
//!   reconstruction, and liveness via an executable fairness schedule;
//! * [`trace`] — replayable counterexample event lists (serialize, parse,
//!   re-run against the model);
//! * [`simreplay`] — replay a counterexample's environment schedule
//!   against the real `san-nic`/`san-ft` simulator;
//! * the `san-mc` binary — `check`, `trace`, `stats` subcommands.

pub mod checker;
pub mod invariant;
pub mod model;
pub mod simreplay;
pub mod trace;
mod visited;

pub use checker::{check, recovery_converges, CheckOpts, CheckReport, Counterexample, Frontier};
pub use invariant::check_state;
pub use model::{
    apply, apply_in_place, enabled, enabled_into, encode, encode_into, Chan, McConfig, McEvent,
    SysState, Violation,
};
pub use simreplay::{replay_on_sim, SimReplay};
pub use trace::{from_lines, render, replay_model, to_lines, NotEnabled, Replay};
