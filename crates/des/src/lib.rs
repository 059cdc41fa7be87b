//! `san-des` — engine core for the SAN reproduction.
//!
//! This crate sits *below* `san-sim` and holds the performance-critical
//! machinery that every layer above shares:
//!
//! * [`wheel::TimingWheel`] — hierarchical timing wheel / calendar queue with
//!   an overflow tier for far-future timers. O(1) schedule and near-O(1) fire
//!   close to the horizon, with pop order *identical* to a binary heap keyed
//!   on `(time, insertion sequence)` — the determinism contract of the repo.
//!   Pending events live in one node arena linked into intrusive per-slot
//!   lists, so scheduling allocates only when the pending count peaks.
//! * `heap::HeapQueue` — a plain `BinaryHeap` scheduler, compiled only for
//!   tests as the reference the wheel's pop order is proven against.
//! * [`arena`] — slab allocator with stable `u32` indices + generation tags
//!   (in-flight packets) and a box pool for packet recycling on the NIC hot
//!   path.
//!
//! Everything here is plain `std`; determinism is the design constraint that
//! shapes each structure, and each module documents the ordering invariant it
//! preserves.

pub mod arena;
#[cfg(test)]
mod heap;
pub mod wheel;
