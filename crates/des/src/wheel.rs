//! Hierarchical timing wheel with an overflow tier.
//!
//! Four levels of 256 slots each cover the near horizon; anything beyond the
//! top span (~275 simulated seconds) waits in an overflow heap until the
//! sweep frontier reaches its epoch. Slot granularities:
//!
//! | level | granularity | span     |
//! |-------|-------------|----------|
//! | 0     | 64 ns       | 16.4 µs  |
//! | 1     | 16.4 µs     | 4.2 ms   |
//! | 2     | 4.2 ms      | 1.07 s   |
//! | 3     | 1.07 s      | 275 s    |
//!
//! # Ordering contract
//!
//! Pop order is **exactly** that of a binary heap keyed on
//! `(time, insertion sequence)` — nondecreasing time, FIFO among same-tick
//! ties. The whole repo's byte-identical reproducibility rests on this, so
//! the wheel never reorders: swept slots drain into a small `due` heap keyed
//! on `(time, seq)`, and every push below the sweep frontier goes straight
//! into that heap.
//!
//! # Invariants
//!
//! * `swept_until` is the exclusive sweep frontier, always a multiple of the
//!   level-0 granularity. Every event with `t < swept_until` is in `due`.
//! * An event stored at level `l` lies inside the frontier's current level-`l`
//!   epoch (the 256-slot span containing `swept_until`) and outside every
//!   lower level's epoch; overflow events lie outside the top epoch.
//! * Refill adopts overflow events whose epoch the frontier has entered
//!   *before* scanning the wheels, then sweeps the nearest occupied level-0
//!   slot, redistributing one higher-level slot at a time when a level-0
//!   epoch is exhausted. Scans start at the frontier's own slot (inclusive),
//!   so rolling into a new epoch can never skip events parked higher up.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

const LEVELS: usize = 4;
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS;
const BASE_SHIFT: u32 = 6;
/// Shift of the top level's epoch: times equal under `>> TOP_EPOCH_SHIFT`
/// fit somewhere in the wheels once the frontier is in that epoch.
const TOP_EPOCH_SHIFT: u32 = BASE_SHIFT + SLOT_BITS * LEVELS as u32;

#[inline]
fn shift(level: usize) -> u32 {
    BASE_SHIFT + SLOT_BITS * level as u32
}

#[inline]
fn slot_of(t: u64, level: usize) -> usize {
    ((t >> shift(level)) & (SLOTS as u64 - 1)) as usize
}

#[inline]
fn epoch_of(t: u64, level: usize) -> u64 {
    t >> (shift(level) + SLOT_BITS)
}

#[derive(Debug)]
struct Level<E> {
    slots: Vec<Vec<(u64, u64, E)>>,
    /// One bit per slot; set iff the slot is non-empty.
    occ: [u64; SLOTS / 64],
}

impl<E> Level<E> {
    fn new() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; SLOTS / 64],
        }
    }

    #[inline]
    fn put(&mut self, slot: usize, item: (u64, u64, E)) {
        self.slots[slot].push(item);
        self.occ[slot >> 6] |= 1u64 << (slot & 63);
    }

    #[inline]
    fn is_occupied(&self, slot: usize) -> bool {
        self.occ[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    /// Nearest non-empty slot at index `from` or later, if any.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        let mut bits = self.occ[w] & (!0u64 << (from & 63));
        loop {
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w == SLOTS / 64 {
                return None;
            }
            bits = self.occ[w];
        }
    }

    #[inline]
    fn take(&mut self, slot: usize) -> Vec<(u64, u64, E)> {
        self.occ[slot >> 6] &= !(1u64 << (slot & 63));
        std::mem::take(&mut self.slots[slot])
    }
}

/// A heap entry ordered by `Reverse((time, seq))`, so `BinaryHeap` pops the
/// earliest event first and ties in insertion order.
#[derive(Debug)]
pub(crate) struct Entry<E> {
    pub(crate) key: Reverse<(u64, u64)>,
    pub(crate) ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Deterministic timing-wheel scheduler of `(u64 nanos, payload)` events.
///
/// Pops in the same order as a binary heap keyed on `(time, seq)`;
/// `peek_time` takes `&mut self` because peeking may have to sweep slots
/// into the due window.
#[derive(Debug)]
pub struct TimingWheel<E> {
    levels: Vec<Level<E>>,
    overflow: BinaryHeap<Entry<E>>,
    /// Events already inside the sweep frontier, keyed `(time, seq)`.
    due: BinaryHeap<Entry<E>>,
    /// Exclusive sweep frontier; multiple of the level-0 granularity.
    swept_until: u64,
    seq: u64,
    len: usize,
}

impl<E> TimingWheel<E> {
    pub fn new() -> Self {
        Self {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BinaryHeap::new(),
            due: BinaryHeap::with_capacity(64),
            swept_until: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Insert an event at absolute time `at` (nanoseconds).
    #[inline]
    pub fn push(&mut self, at: u64, ev: E) {
        let s = self.seq;
        self.seq += 1;
        self.len += 1;
        self.place(at, s, ev);
    }

    fn place(&mut self, at: u64, s: u64, ev: E) {
        if at < self.swept_until {
            self.due.push(Entry {
                key: Reverse((at, s)),
                ev,
            });
            return;
        }
        let c = self.swept_until;
        for lvl in 0..LEVELS {
            if epoch_of(at, lvl) == epoch_of(c, lvl) {
                self.levels[lvl].put(slot_of(at, lvl), (at, s, ev));
                return;
            }
        }
        self.overflow.push(Entry {
            key: Reverse((at, s)),
            ev,
        });
    }

    /// Advance the sweep frontier until at least one event sits in `due`.
    /// Returns false iff the wheel holds no events at all.
    fn refill(&mut self) -> bool {
        debug_assert!(self.due.is_empty());
        if self.len == 0 {
            return false;
        }
        loop {
            // Adopt overflow events whose top epoch the frontier has entered.
            while let Some(e) = self.overflow.peek() {
                if e.key.0 .0 >> TOP_EPOCH_SHIFT != self.swept_until >> TOP_EPOCH_SHIFT {
                    break;
                }
                let Entry {
                    key: Reverse((t, s)),
                    ev,
                } = self.overflow.pop().unwrap();
                self.place(t, s, ev);
            }

            // Cascade any occupied higher-level slot the frontier sits in.
            // Mandatory before sweeping level 0: after rolling into a new
            // epoch, events for it may still be parked one level up while
            // fresh pushes land directly in level 0 — sweeping level 0
            // first would overtake them. (Pushes never target the
            // frontier's own slot at levels ≥ 1: a level-l slot spans
            // exactly one level-(l-1) epoch, so anything inside it places
            // lower. Occupancy here only arises at epoch entry.)
            let mut cascaded = false;
            for lvl in 1..LEVELS {
                let slot = slot_of(self.swept_until, lvl);
                if self.levels[lvl].is_occupied(slot) {
                    for (t, s, ev) in self.levels[lvl].take(slot) {
                        debug_assert!(t >= self.swept_until);
                        self.place(t, s, ev);
                    }
                    cascaded = true;
                }
            }
            if cascaded {
                continue;
            }

            // Sweep the nearest occupied level-0 slot in the current epoch.
            if let Some(slot) = self.levels[0].next_occupied(slot_of(self.swept_until, 0)) {
                for (t, s, ev) in self.levels[0].take(slot) {
                    debug_assert!(t >= self.swept_until);
                    self.due.push(Entry {
                        key: Reverse((t, s)),
                        ev,
                    });
                }
                let epoch_base = self.swept_until >> shift(1) << shift(1);
                self.swept_until = epoch_base.saturating_add(((slot as u64) + 1) << BASE_SHIFT);
                return true;
            }

            // Level-0 epoch exhausted: redistribute the nearest occupied slot
            // of the shallowest higher level. Events at level l+1 all lie
            // beyond the current level-l epoch, so shallowest-first finds the
            // globally nearest occupied region.
            let mut moved = false;
            for lvl in 1..LEVELS {
                if let Some(slot) = self.levels[lvl].next_occupied(slot_of(self.swept_until, lvl)) {
                    let epoch_base = self.swept_until >> shift(lvl + 1) << shift(lvl + 1);
                    let slot_base = epoch_base + ((slot as u64) << shift(lvl));
                    self.swept_until = self.swept_until.max(slot_base);
                    for (t, s, ev) in self.levels[lvl].take(slot) {
                        debug_assert!(t >= self.swept_until);
                        self.place(t, s, ev);
                    }
                    moved = true;
                    break;
                }
            }
            if moved {
                continue;
            }

            // Wheels empty: jump the frontier to the overflow horizon.
            if self.overflow.is_empty() {
                debug_assert_eq!(self.len, 0);
                return false;
            }
            let t_min = self.overflow.peek().unwrap().key.0 .0;
            let target = t_min >> TOP_EPOCH_SHIFT << TOP_EPOCH_SHIFT;
            debug_assert!(target > self.swept_until);
            self.swept_until = self.swept_until.max(target);
        }
    }

    /// Remove and return the earliest event (FIFO among ties).
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, E)> {
        if self.due.is_empty() && !self.refill() {
            return None;
        }
        let e = self.due.pop().unwrap();
        self.len -= 1;
        Some((e.key.0 .0, e.ev))
    }

    /// Timestamp of the next event without removing it. `&mut` because the
    /// wheel may have to sweep slots forward to find it.
    #[inline]
    pub fn peek_time(&mut self) -> Option<u64> {
        if self.due.is_empty() && !self.refill() {
            return None;
        }
        Some(self.due.peek().unwrap().key.0 .0)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapQueue;

    #[test]
    fn pops_in_time_order() {
        let mut q = TimingWheel::new();
        q.push(5, "b");
        q.push(1, "a");
        q.push(9, "c");
        assert_eq!(q.peek_time(), Some(1));
        assert_eq!(q.pop(), Some((1, "a")));
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.pop(), Some((9, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = TimingWheel::new();
        for i in 0..1000u32 {
            q.push(7, i);
        }
        for i in 0..1000u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn push_below_frontier_lands_in_due() {
        let mut q = TimingWheel::new();
        q.push(100_000, 1u32);
        assert_eq!(q.pop().unwrap().1, 1);
        // Frontier is now past 100_000; schedule "in the past" of the sweep
        // (legal as long as the simulation clock allows it).
        q.push(50_000, 2);
        q.push(150_000, 3);
        assert_eq!(q.pop(), Some((50_000, 2)));
        assert_eq!(q.pop(), Some((150_000, 3)));
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let mut q = TimingWheel::new();
        // Beyond the top span (~2^38 ns) and near u64::MAX.
        q.push(1u64 << 50, "far");
        q.push(u64::MAX, "max");
        q.push(10, "near");
        assert_eq!(q.pop(), Some((10, "near")));
        assert_eq!(q.pop(), Some((1u64 << 50, "far")));
        assert_eq!(q.pop(), Some((u64::MAX, "max")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn epoch_roll_does_not_strand_higher_levels() {
        let mut q = TimingWheel::new();
        // Event at the very end of a level-0 epoch forces the frontier to
        // roll into the next epoch whose events live at level 1.
        let epoch = 1u64 << (BASE_SHIFT + SLOT_BITS);
        q.push(epoch - 1, 0u32);
        q.push(epoch, 1);
        q.push(epoch + 1, 2);
        assert_eq!(q.pop(), Some((epoch - 1, 0)));
        assert_eq!(q.pop(), Some((epoch, 1)));
        assert_eq!(q.pop(), Some((epoch + 1, 2)));
    }

    #[test]
    fn roll_then_push_does_not_overtake_parked_events() {
        // Regression: event A parks at level 1; the frontier rolls into A's
        // epoch; a *later* event B is then pushed straight into level 0 of
        // the new epoch. Sweeping must cascade A down before touching B.
        let mut q = TimingWheel::new();
        let epoch = 1u64 << (BASE_SHIFT + SLOT_BITS);
        q.push(epoch + 1, "a"); // level 1
        q.push(epoch - 1, "first"); // level 0, last slot of epoch 0
        assert_eq!(q.pop(), Some((epoch - 1, "first"))); // frontier rolls
        q.push(epoch + 116, "b"); // level 0 of the new epoch
        assert_eq!(q.pop(), Some((epoch + 1, "a")));
        assert_eq!(q.pop(), Some((epoch + 116, "b")));
    }

    #[test]
    fn overflow_adopted_after_top_level_roll() {
        let mut q = TimingWheel::new();
        let top = 1u64 << TOP_EPOCH_SHIFT;
        // One event at the very end of the first top epoch, one just after
        // the boundary (initially overflow). The roll must adopt the
        // overflow event before sweeping anything later.
        q.push(top - 1, 0u32);
        q.push(top + 5, 1);
        q.push(top + (1 << 20), 2);
        assert_eq!(q.pop(), Some((top - 1, 0)));
        assert_eq!(q.pop(), Some((top + 5, 1)));
        assert_eq!(q.pop(), Some((top + (1 << 20), 2)));
    }

    #[test]
    fn matches_heap_on_dense_bursts() {
        let mut w = TimingWheel::new();
        let mut h = HeapQueue::new();
        let mut t = 0u64;
        for i in 0..5000u32 {
            t = t
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = (t >> 33) % 500_000;
            w.push(at, i);
            h.push(at, i);
        }
        loop {
            let (a, b) = (w.pop(), h.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn matches_heap_interleaved() {
        let mut w = TimingWheel::new();
        let mut h = HeapQueue::new();
        let mut x = 12345u64;
        let mut now = 0u64;
        for i in 0..20_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = x >> 33;
            if r.is_multiple_of(3) && !h.is_empty() {
                let (tw, ew) = w.pop().unwrap();
                let (th, eh) = h.pop().unwrap();
                assert_eq!((tw, ew), (th, eh));
                now = tw;
            } else {
                // Mix of near, same-tick, and far-future schedules.
                let delta = match r % 5 {
                    0 => 0,
                    1 => r % 64,
                    2 => r % 100_000,
                    3 => r % 50_000_000,
                    _ => 1 << 40,
                };
                let at = now + delta;
                w.push(at, i);
                h.push(at, i);
            }
            assert_eq!(w.len(), h.len());
            assert_eq!(w.peek_time(), h.peek_time());
        }
        loop {
            let (a, b) = (w.pop(), h.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::heap::HeapQueue;
    use proptest::prelude::*;

    proptest! {
        /// Wheel and heap pop identical `(time, payload)` sequences for any
        /// schedule, including same-tick ties (satellite requirement).
        #[test]
        fn wheel_equals_heap(times in proptest::collection::vec(0u64..2_000_000, 1..300)) {
            let mut w = TimingWheel::new();
            let mut h = HeapQueue::new();
            for (i, &t) in times.iter().enumerate() {
                w.push(t, i);
                h.push(t, i);
            }
            loop {
                let (a, b) = (w.pop(), h.pop());
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
        }

        /// Same equivalence under interleaved push/pop with relative delays
        /// spanning every wheel level and the overflow tier. Each op word
        /// encodes (kind, delay-mantissa, level-scale).
        #[test]
        fn wheel_equals_heap_interleaved(
            ops in proptest::collection::vec(0u64..(1 << 40), 1..200)
        ) {
            let mut w = TimingWheel::new();
            let mut h = HeapQueue::new();
            let mut now = 0u64;
            for (i, &op) in ops.iter().enumerate() {
                let kind = op & 3;
                let small = (op >> 2) & 63;
                let scale = (op >> 8) & 3;
                if kind == 3 {
                    let (a, b) = (w.pop(), h.pop());
                    prop_assert_eq!(a, b);
                    if let Some((t, _)) = a { now = t; }
                } else {
                    let delta = small << (scale * 12); // 0..2^48 range
                    w.push(now + delta, i);
                    h.push(now + delta, i);
                }
                prop_assert_eq!(w.peek_time(), h.peek_time());
            }
            loop {
                let (a, b) = (w.pop(), h.pop());
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
        }
    }
}
