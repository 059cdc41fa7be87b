//! # san-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the `san-ft` reproduction of *"Tolerating
//! Network Failures in System Area Networks"* (Tang & Bilas, ICPP 2002). The
//! paper evaluates firmware-level fault tolerance on real Myrinet hardware;
//! our reproduction replaces the hardware with a calibrated discrete-event
//! simulation, and this crate provides the simulation kernel:
//!
//! * [`Time`] / [`Duration`] — virtual nanosecond clock arithmetic,
//! * [`Sim`] — clock + pending-event set + seeded RNG bundle with a driver
//!   loop; the pending events live in a [`san_des::wheel::TimingWheel`],
//!   a total-order, deterministically tie-broken timing wheel,
//! * [`Resource`] — busy-until modelling for serially shared hardware units
//!   (NIC processor, DMA engines, PCI bus),
//! * [`stats`] — streaming sample summaries (count, mean, min, max,
//!   standard deviation),
//! * [`fanout::map_indexed`] — the one thread fan-out, across independent
//!   simulations.
//!
//! Determinism is a hard requirement: two runs with the same seed and
//! configuration must produce bit-identical results, because the paper's
//! parameter sweeps (Figures 5–9) compare dozens of configurations and any
//! run-to-run jitter would drown the effects being measured. The wheel breaks
//! ties on `(time, insertion sequence)` and the RNG, [`SimRng`], is an
//! explicitly seeded xoshiro256++ stream defined in this crate.

pub mod fanout;
pub mod histogram;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

use san_des::wheel::TimingWheel;

pub use histogram::Histogram;
pub use resource::Resource;
pub use rng::SimRng;
pub use stats::Summary;
pub use time::{Duration, Time, MICROS, MILLIS, NANOS, SECS};

/// A simulation: virtual clock, pending event queue and seeded RNG.
///
/// `Sim` is deliberately minimal — it does not know what an event *means*.
/// Higher layers (the fabric, the NIC, the host agents) define an event enum
/// `E` and drive the loop themselves, dispatching each popped event to the
/// component it addresses. See `san_nic::Cluster` for the canonical driver.
#[derive(Debug)]
pub struct Sim<E> {
    now: Time,
    wheel: TimingWheel<E>,
    rng: SimRng,
}

impl<E> Sim<E> {
    /// Create a simulation starting at time zero with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            now: Time::ZERO,
            wheel: TimingWheel::new(),
            rng: SimRng::seed_from(seed),
        }
    }

    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `ev` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — causality violations are always bugs.
    #[inline]
    pub fn schedule(&mut self, at: Time, ev: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.wheel.push(at.nanos(), ev);
    }

    /// Schedule `ev` to fire `after` from now.
    #[inline]
    pub fn schedule_in(&mut self, after: Duration, ev: E) {
        let at = self.now + after;
        self.wheel.push(at.nanos(), ev);
    }

    /// Reserve the sequence number the next `schedule` would take, for an
    /// event whose deadline is known now but that is scheduled later with
    /// [`Sim::schedule_reserved`].
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        self.wheel.reserve_seq()
    }

    /// Schedule `ev` at absolute time `at` under a sequence number from
    /// [`Sim::reserve_seq`]. It pops exactly where it would have had it been
    /// scheduled when the number was reserved, provided it is scheduled
    /// before any event that follows it in `(time, seq)` order has popped.
    /// Each reserved number is scheduled at most once.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    #[inline]
    pub fn schedule_reserved(&mut self, at: Time, seq: u64, ev: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.wheel.push_reserved(at.nanos(), seq, ev);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let (t, ev) = self.wheel.pop()?;
        let t = Time::from_nanos(t);
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        Some((t, ev))
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// Timestamp of the next pending event, if any. Takes `&mut self`
    /// because the timing wheel may sweep slots forward to find it.
    #[inline]
    pub fn peek_time(&mut self) -> Option<Time> {
        self.wheel.peek_time().map(Time::from_nanos)
    }

    /// True when no events remain.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Deterministic simulation RNG.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_pop_in_order() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule(Time::from_nanos(30), 3);
        sim.schedule(Time::from_nanos(10), 1);
        sim.schedule(Time::from_nanos(20), 2);
        assert_eq!(sim.pop(), Some((Time::from_nanos(10), 1)));
        assert_eq!(sim.pop(), Some((Time::from_nanos(20), 2)));
        assert_eq!(sim.now(), Time::from_nanos(20));
        assert_eq!(sim.pop(), Some((Time::from_nanos(30), 3)));
        assert_eq!(sim.pop(), None);
        assert!(sim.is_idle());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim: Sim<u32> = Sim::new(1);
        for i in 0..100 {
            sim.schedule(Time::from_nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(sim.pop().unwrap().1, i);
        }
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule(Time::from_nanos(10), 0);
        sim.pop();
        sim.schedule(Time::from_nanos(5), 1);
    }

    #[test]
    fn reserved_schedule_pops_in_reservation_order() {
        let mut sim: Sim<u32> = Sim::new(1);
        let seq = sim.reserve_seq();
        sim.schedule(Time::from_nanos(5), 2);
        sim.schedule(Time::from_nanos(1), 0);
        assert_eq!(sim.pop(), Some((Time::from_nanos(1), 0)));
        sim.schedule_reserved(Time::from_nanos(5), seq, 1);
        assert_eq!(sim.pop(), Some((Time::from_nanos(5), 1)));
        assert_eq!(sim.pop(), Some((Time::from_nanos(5), 2)));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule(Time::from_nanos(100), 0);
        sim.pop();
        sim.schedule_in(Duration::from_nanos(50), 1);
        assert_eq!(sim.pop(), Some((Time::from_nanos(150), 1)));
    }
}
