//! Busy-until modelling of serially shared hardware units.
//!
//! The NIC control processor, the three DMA engines and the PCI bus are all
//! units that execute one operation at a time. Rather than simulating their
//! internal pipelines we track, per unit, the instant it next becomes free;
//! an operation requested at `t` with cost `c` then *starts* at
//! `max(t, free)` and *completes* at `start + c`. This is exact for FIFO
//! units and is the standard queueing shortcut for DES models of this class.

use crate::time::{Duration, Time};

/// A serially shared unit with FIFO service order; a new one is idle.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    free_at: Time,
}

impl Resource {
    /// Reserve the unit at `now` for `cost`; returns the completion instant.
    ///
    /// The reservation starts when the unit is free, so completion is
    /// `max(now, free) + cost`.
    #[inline]
    pub fn acquire(&mut self, now: Time, cost: Duration) -> Time {
        self.acquire_window(now, cost).1
    }

    /// Like [`Resource::acquire`], but also returns the instant the
    /// operation *starts* (when the unit became free). Needed when a side
    /// effect must coincide with operation start — e.g. a packet enters the
    /// wire when the network DMA begins reading it, not when it finishes.
    #[inline]
    pub fn acquire_window(&mut self, now: Time, cost: Duration) -> (Time, Time) {
        let start = now.max(self.free_at);
        self.free_at = start + cost;
        (start, self.free_at)
    }

    /// Instant at which the unit next becomes idle.
    #[inline]
    pub fn free_at(&self) -> Time {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_when_idle_starts_immediately() {
        let mut r = Resource::default();
        let done = r.acquire(Time::from_nanos(100), Duration::from_nanos(50));
        assert_eq!(done, Time::from_nanos(150));
        assert_eq!(r.free_at(), Time::from_nanos(150));
    }

    #[test]
    fn acquire_when_busy_queues() {
        let mut r = Resource::default();
        r.acquire(Time::from_nanos(0), Duration::from_nanos(100));
        let done = r.acquire(Time::from_nanos(10), Duration::from_nanos(30));
        assert_eq!(
            done,
            Time::from_nanos(130),
            "second op must wait for the first"
        );
    }
}
