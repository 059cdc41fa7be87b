//! Reference binary-heap scheduler keyed on `(time, sequence)`.
//!
//! This is the implementation the timing wheel must match pop for pop: the
//! sequence number makes simultaneous events fire in insertion order, which
//! is what makes whole-system runs reproducible. It is compiled only for
//! tests, as the oracle of the wheel-vs-heap unit tests and proptests in
//! [`crate::wheel`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A heap entry ordered by `Reverse((time, seq))`, so `BinaryHeap` pops the
/// earliest event first and ties in insertion order.
#[derive(Debug)]
struct Entry<E> {
    key: Reverse<(u64, u64)>,
    ev: E,
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

/// Deterministic priority queue of `(u64 nanos, payload)` events.
#[derive(Debug)]
pub(crate) struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> HeapQueue<E> {
    pub(crate) fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Insert an event at absolute time `at` (nanoseconds).
    pub(crate) fn push(&mut self, at: u64, ev: E) {
        let s = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            key: Reverse((at, s)),
            ev,
        });
    }

    /// Remove and return the earliest event (FIFO among ties).
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|e| (e.key.0 .0, e.ev))
    }

    /// Timestamp of the next event without removing it.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.key.0 .0)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = HeapQueue::new();
        q.push(5, "b");
        q.push(1, "a");
        q.push(9, "c");
        assert_eq!(q.peek_time(), Some(1));
        assert_eq!(q.pop(), Some((1, "a")));
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.pop(), Some((9, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = HeapQueue::new();
        for i in 0..1000u32 {
            q.push(7, i);
        }
        for i in 0..1000u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }
}
