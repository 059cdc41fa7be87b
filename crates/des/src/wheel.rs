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
//! A caller may take a sequence number early ([`TimingWheel::reserve_seq`])
//! and push under it later ([`TimingWheel::push_reserved`]), as long as no
//! event after it in `(time, seq)` order has popped yet. Since slots drain
//! through the `(time, seq)`-keyed `due` heap, such an event pops exactly
//! where a push made at reservation time would have: a timer whose
//! deadline is known early need not sit in the wheel until it is next due.
//!
//! # Storage
//!
//! Every pending event lives in one node arena, `Vec<Node<E>>`, whose
//! vacant nodes form a LIFO free list threaded through `next`. Each wheel
//! slot is an intrusive FIFO list of node indices (`head`/`tail` per slot,
//! beside the occupancy bitmap), and `due` and `overflow` are binary heaps
//! of `(time, seq, node)` keys. A cascade relinks indices instead of moving
//! payloads, and no slot owns a buffer that a sweep frees and the next push
//! regrows: the arena only grows when the pending count reaches a new peak,
//! so a steady-state run schedules and fires events without allocating.
//! This is the per-slot list of Varghese & Lauck's hierarchical wheels
//! (SOSP '87).
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
//! * A node is in exactly one place: a slot list, `due`, `overflow` (all
//!   with `ev: Some`), or the free list (`ev: None`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

const LEVELS: usize = 4;
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS;
const BASE_SHIFT: u32 = 6;
/// Shift of the top level's epoch: times equal under `>> TOP_EPOCH_SHIFT`
/// fit somewhere in the wheels once the frontier is in that epoch.
const TOP_EPOCH_SHIFT: u32 = BASE_SHIFT + SLOT_BITS * LEVELS as u32;
/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;

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

/// One pending event (or, with `ev: None`, a free-list entry).
#[derive(Debug)]
struct Node<E> {
    t: u64,
    seq: u64,
    /// Next node of the same slot list, or of the free list.
    next: u32,
    ev: Option<E>,
}

/// `(time, seq, node)`, ordered so that `BinaryHeap` pops the earliest
/// event first and ties in insertion order; `seq` is unique, so the node
/// index never decides.
type Key = Reverse<(u64, u64, u32)>;

#[derive(Debug)]
struct Level {
    /// First and last node of each slot's FIFO list (`NIL` when empty).
    head: [u32; SLOTS],
    tail: [u32; SLOTS],
    /// One bit per slot; set iff the slot is non-empty.
    occ: [u64; SLOTS / 64],
}

impl Level {
    fn new() -> Self {
        Self {
            head: [NIL; SLOTS],
            tail: [NIL; SLOTS],
            occ: [0; SLOTS / 64],
        }
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

    /// Detach a slot's whole list, returning its first node.
    #[inline]
    fn take(&mut self, slot: usize) -> u32 {
        self.occ[slot >> 6] &= !(1u64 << (slot & 63));
        self.tail[slot] = NIL;
        std::mem::replace(&mut self.head[slot], NIL)
    }
}

/// Deterministic timing-wheel scheduler of `(u64 nanos, payload)` events.
///
/// Pops in the same order as a binary heap keyed on `(time, seq)`;
/// `peek_time` takes `&mut self` because peeking may have to sweep slots
/// into the due window.
#[derive(Debug)]
pub struct TimingWheel<E> {
    /// Every pending event, plus the vacant nodes of the free list.
    nodes: Vec<Node<E>>,
    /// Head of the LIFO free list threaded through `Node::next`.
    free: u32,
    levels: Vec<Level>,
    overflow: BinaryHeap<Key>,
    /// Events already inside the sweep frontier.
    due: BinaryHeap<Key>,
    /// Exclusive sweep frontier; multiple of the level-0 granularity.
    swept_until: u64,
    seq: u64,
    len: usize,
}

impl<E> TimingWheel<E> {
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: NIL,
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
        let seq = self.reserve_seq();
        self.push_reserved(at, seq, ev);
    }

    /// Take the insertion sequence number the next [`TimingWheel::push`]
    /// would use, without inserting anything. An event pushed later under
    /// it with [`TimingWheel::push_reserved`] pops exactly where a push
    /// made now would have: ties at its time still break on this number.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Insert an event at absolute time `at` under a sequence number taken
    /// earlier with [`TimingWheel::reserve_seq`]. Push each reserved number
    /// at most once, and before any event that follows `(at, seq)` in pop
    /// order has popped; then the pop order is the one a push at
    /// reservation time would have produced.
    #[inline]
    pub fn push_reserved(&mut self, at: u64, seq: u64, ev: E) {
        debug_assert!(seq < self.seq, "sequence number {seq} was never reserved");
        self.len += 1;
        let node = Node {
            t: at,
            seq,
            next: NIL,
            ev: Some(ev),
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than 2^32 - 1 pending events");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.place(idx);
    }

    /// File node `idx` under the frontier: `due`, a wheel slot or overflow.
    fn place(&mut self, idx: u32) {
        let (at, s) = {
            let n = &self.nodes[idx as usize];
            (n.t, n.seq)
        };
        if at < self.swept_until {
            self.due.push(Reverse((at, s, idx)));
            return;
        }
        let c = self.swept_until;
        for lvl in 0..LEVELS {
            if epoch_of(at, lvl) == epoch_of(c, lvl) {
                let slot = slot_of(at, lvl);
                self.nodes[idx as usize].next = NIL;
                let level = &mut self.levels[lvl];
                match level.tail[slot] {
                    NIL => {
                        level.head[slot] = idx;
                        level.occ[slot >> 6] |= 1u64 << (slot & 63);
                    }
                    tail => self.nodes[tail as usize].next = idx,
                }
                level.tail[slot] = idx;
                return;
            }
        }
        self.overflow.push(Reverse((at, s, idx)));
    }

    /// Empty a higher-level slot, filing each of its nodes anew (lower
    /// down, now that the frontier has reached it).
    fn cascade(&mut self, lvl: usize, slot: usize) {
        let mut cur = self.levels[lvl].take(slot);
        while cur != NIL {
            let next = self.nodes[cur as usize].next;
            debug_assert!(self.nodes[cur as usize].t >= self.swept_until);
            self.place(cur);
            cur = next;
        }
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
            while let Some(&Reverse((t, _, idx))) = self.overflow.peek() {
                if t >> TOP_EPOCH_SHIFT != self.swept_until >> TOP_EPOCH_SHIFT {
                    break;
                }
                self.overflow.pop();
                self.place(idx);
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
                    self.cascade(lvl, slot);
                    cascaded = true;
                }
            }
            if cascaded {
                continue;
            }

            // Sweep the nearest occupied level-0 slot in the current epoch.
            if let Some(slot) = self.levels[0].next_occupied(slot_of(self.swept_until, 0)) {
                let mut cur = self.levels[0].take(slot);
                while cur != NIL {
                    let n = &self.nodes[cur as usize];
                    debug_assert!(n.t >= self.swept_until);
                    self.due.push(Reverse((n.t, n.seq, cur)));
                    cur = n.next;
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
                    self.cascade(lvl, slot);
                    moved = true;
                    break;
                }
            }
            if moved {
                continue;
            }

            // Wheels empty: jump the frontier to the overflow horizon.
            let Some(&Reverse((t_min, _, _))) = self.overflow.peek() else {
                debug_assert_eq!(self.len, 0);
                return false;
            };
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
        let Reverse((t, _, idx)) = self.due.pop().expect("refill filled due");
        let node = &mut self.nodes[idx as usize];
        let ev = node.ev.take().expect("pending node holds its event");
        node.next = self.free;
        self.free = idx;
        self.len -= 1;
        Some((t, ev))
    }

    /// Timestamp of the next event without removing it. `&mut` because the
    /// wheel may have to sweep slots forward to find it.
    #[inline]
    pub fn peek_time(&mut self) -> Option<u64> {
        if self.due.is_empty() && !self.refill() {
            return None;
        }
        Some(self.due.peek().expect("refill filled due").0 .0)
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
    fn arena_never_outgrows_the_peak_pending_count() {
        // A steady depth of 64 with delays spanning all four levels and the
        // overflow tier: freed nodes are reused, so the arena stays at the
        // peak pending count however many events pass through.
        let mut q = TimingWheel::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut now = 0u64;
        for i in 0..100_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = x >> 20;
            // One span per level (16.4 µs, 4.2 ms, 1.07 s, 275 s), then
            // beyond the top one.
            let delay = match (x >> 60) % 5 {
                0 => r % (1 << 14),
                1 => (1 << 14) + r % (1 << 22),
                2 => (1 << 22) + r % (1 << 30),
                3 => (1 << 30) + r % (1 << 38),
                _ => (1 << 38) + r % (1 << 40),
            };
            if q.len() == 64 {
                now = q.pop().unwrap().0;
            }
            q.push(now + delay, i);
        }
        assert_eq!(q.len(), 64);
        assert!(q.nodes.len() <= 64, "arena grew to {}", q.nodes.len());
    }

    #[test]
    fn reserved_seq_keeps_its_place_among_ties() {
        let mut q = TimingWheel::new();
        q.push(5, "first");
        let early = q.reserve_seq();
        q.push(5, "third");
        q.push(3, "zeroth");
        assert_eq!(q.pop(), Some((3, "zeroth")));
        // Pushed last, but under the number reserved before "third".
        q.push_reserved(5, early, "second");
        assert_eq!(q.pop(), Some((5, "first")));
        assert_eq!(q.pop(), Some((5, "second")));
        assert_eq!(q.pop(), Some((5, "third")));
        assert_eq!(q.pop(), None);
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
        #![proptest_config(ProptestConfig::with_cases(1024))]

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

        /// An event pushed under a reserved sequence number pops exactly as
        /// if it had been pushed when the number was reserved: the heap
        /// takes each such event at reservation time, the wheel only later,
        /// in any order, at any point before the heap would pop it. Each op
        /// word encodes (kind, delay-mantissa, level-scale, pick).
        #[test]
        fn reserved_push_equals_push_at_reservation(
            ops in proptest::collection::vec(0u64..(1 << 40), 1..300)
        ) {
            /// Push every deferred event the heap could pop next.
            fn release_due(
                w: &mut TimingWheel<usize>,
                deferred: &mut Vec<(u64, u64, usize)>,
                next: Option<u64>,
            ) {
                let Some(next) = next else { return };
                deferred.retain(|&(at, seq, ev)| {
                    if at <= next {
                        w.push_reserved(at, seq, ev);
                    }
                    at > next
                });
            }

            let mut w = TimingWheel::new();
            let mut h = HeapQueue::new();
            let mut deferred: Vec<(u64, u64, usize)> = Vec::new();
            let mut now = 0u64;
            for (i, &op) in ops.iter().enumerate() {
                let small = (op >> 2) & 63;
                let scale = (op >> 8) & 3;
                let at = now + (small << (scale * 12));
                match op & 3 {
                    0 => {
                        w.push(at, i);
                        h.push(at, i);
                    }
                    1 => {
                        deferred.push((at, w.reserve_seq(), i));
                        h.push(at, i);
                    }
                    2 if !deferred.is_empty() => {
                        let pick = (op >> 10) as usize % deferred.len();
                        let (at, seq, ev) = deferred.swap_remove(pick);
                        w.push_reserved(at, seq, ev);
                    }
                    _ => {
                        release_due(&mut w, &mut deferred, h.peek_time());
                        prop_assert_eq!(w.peek_time(), h.peek_time());
                        let (a, b) = (w.pop(), h.pop());
                        prop_assert_eq!(a, b);
                        if let Some((t, _)) = a { now = t; }
                    }
                }
            }
            loop {
                release_due(&mut w, &mut deferred, h.peek_time());
                let (a, b) = (w.pop(), h.pop());
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
            prop_assert!(deferred.is_empty());
        }
    }
}
