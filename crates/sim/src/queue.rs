//! The pending-event set, keyed on `(time, sequence)`.
//!
//! The sequence number makes simultaneous events pop in insertion order,
//! which is what makes whole-system runs reproducible: without it, the
//! scheduler's internal layout (and therefore pop order of ties) would
//! depend on incidental history.
//!
//! The backend is [`san_des::wheel::TimingWheel`], a hierarchical timing
//! wheel with O(1) schedule and near-O(1) fire close to the horizon. Its
//! pop order is proven identical to a `(time, seq)` binary heap by the
//! `san-des` property tests.

use san_des::wheel::TimingWheel;

use crate::time::Time;

/// Deterministic priority queue of timestamped events.
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimingWheel<E>,
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        Self {
            wheel: TimingWheel::new(),
        }
    }

    /// Insert an event at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: Time, ev: E) {
        self.wheel.push(at.nanos(), ev);
    }

    /// Remove and return the earliest event (FIFO among ties).
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.wheel.pop().map(|(t, ev)| (Time::from_nanos(t), ev))
    }

    /// Timestamp of the next event without removing it. Takes `&mut self`
    /// because the wheel may sweep slots forward to find it.
    #[inline]
    pub fn peek_time(&mut self) -> Option<Time> {
        self.wheel.peek_time().map(Time::from_nanos)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(5), "b");
        q.push(Time::from_nanos(1), "a");
        q.push(Time::from_nanos(9), "c");
        assert_eq!(q.peek_time(), Some(Time::from_nanos(1)));
        assert_eq!(q.pop(), Some((Time::from_nanos(1), "a")));
        assert_eq!(q.pop(), Some((Time::from_nanos(5), "b")));
        assert_eq!(q.pop(), Some((Time::from_nanos(9), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(7);
        for i in 0..1000u32 {
            q.push(t, i);
        }
        for i in 0..1000u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(10), 1u32);
        q.push(Time::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Time::from_nanos(15), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping must yield every pushed event exactly once, in
        /// nondecreasing time, with ties in insertion order, for any input
        /// schedule.
        #[test]
        fn pop_order_is_total(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Time::from_nanos(t), i);
            }
            let mut last: Option<(Time, usize)> = None;
            let mut popped = 0;
            while let Some((t, i)) = q.pop() {
                prop_assert_eq!(t, Time::from_nanos(times[i]));
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li, "tie broke out of insertion order");
                    }
                }
                last = Some((t, i));
                popped += 1;
            }
            prop_assert_eq!(popped, times.len());
        }
    }
}
