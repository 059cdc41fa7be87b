//! # san-topo — topology atlas, validators and multipath route planner
//!
//! The paper evaluates on-demand mapping on a 4-switch testbed; everything
//! above toy scale needs fabrics that are *generated*, *validated* and
//! *planned over* instead of hand-wired. This crate adds that layer on top
//! of `san-fabric`:
//!
//! * [`atlas`] — parametric generators behind one [`TopoSpec`] handle:
//!   fat-tree/Clos(k), 2D/3D tori, random near-d-regular fabrics and
//!   spare-link-augmented trees, plus the canonical paper shapes (`pair`,
//!   `chain`, `star`, `testbed`) so every consumer — chaos campaigns,
//!   benches, tests — builds topologies through the same API. Specs have a
//!   stable string form (`"fat_tree:8"`, `"torus2d:8x8x2"`) usable in
//!   campaign JSON and CLI flags.
//! * [`validate`] — structural checks: host connectivity, port budgets,
//!   link-disjoint path diversity (a min-cut lower bound), survivable
//!   link/switch candidate sets for fault injection, and a one-call
//!   [`validate::check`] that also proves `UpDownMap::build` works.
//! * [`export`] — DOT and JSON dumps of a built fabric for inspection.
//! * [`planner`] — the [`planner::RoutePlanner`] strategy seam: the generic
//!   ECMP-style equal-cost + link-disjoint search, a deadlock-freedom
//!   verdict via `fabric::updown::routes_deadlock_free`, and a
//!   [`planner::RouteCache`] keyed by (topology fingerprint, alive-link
//!   fingerprint) so repeated remaps on the same degraded fabric are O(1)
//!   lookups. [`planner::planner_for`] selects the strategy by
//!   [`TopoSpec`] family.
//! * [`symmetry`] — the torus-native strategy: k diverse minimal routes
//!   per pair materialized from translational-symmetry templates in
//!   O(k·hops), with quadrant-aware disjoint alternates under dead links
//!   and a generic fallback when the wiring stops looking like a torus.
//!
//! The planner's route sets double as *mapper hints*: `san-ft`'s on-demand
//! mapper accepts them as `RouteHints` and verifies them with single host
//! probes before falling back to its BFS exploration (see
//! `Mapper::offer_hints`), which turns a multi-hundred-probe remap on
//! a 128-host fabric into a handful of probes when a planner (or cache) is
//! warm.

#![warn(missing_docs)]

pub mod atlas;
pub mod export;
pub mod planner;
pub mod symmetry;
pub mod validate;

pub use atlas::{Fabric, TopoClass, TopoSpec};
pub use planner::{
    planner_for, GenericDiversePlanner, PlanHints, PlanRequest, PlanTable, Planned, RouteCache,
    RoutePlanner,
};
pub use symmetry::TorusSymmetryPlanner;
pub use validate::Survey;
