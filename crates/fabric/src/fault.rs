//! Fault models.
//!
//! The paper distinguishes transient failures (packet corruption and loss,
//! §3.3) from permanent ones (link/switch death, §4.2). Three injection
//! mechanisms exist in this reproduction:
//!
//! 1. **Send-side deterministic drop** — the paper's own mechanism (§5.1.3):
//!    at predefined packet counts the sending NIC puts the next packet in the
//!    retransmission queue *without* transmitting it. That one lives in the
//!    NIC firmware (`san_ft::ReliableFirmware`), not here, because that is
//!    where the paper put it.
//! 2. **Wire-level transient faults** ([`TransientFaults`]) — Bernoulli loss
//!    and corruption per packet, drawn by the fabric engine at injection.
//!    Used by robustness tests to check that the protocol's guarantees do not
//!    depend on the *location* of the loss.
//! 3. **Permanent faults** ([`FaultPlan`]) — scheduled link/switch deaths and
//!    repairs, compiled into fabric events at simulation start.

use san_sim::{Sim, SimRng, Time};

use crate::engine::FabricEvent;
use crate::ids::{Endpoint, LinkId, SwitchId};

/// Per-packet wire-fault model.
///
/// The independent (Bernoulli) mode is the paper's; the **bursty** mode is
/// the extension the paper explicitly leaves untested (§5.1.3: "we do not
/// experiment with bursty errors, since high, uniform error rates are a more
/// stressful test") — a Gilbert–Elliott two-state channel that alternates
/// between a good state (no faults) and a bad state where every packet is
/// lost/corrupted with the given probabilities.
#[derive(Debug, Clone, Copy)]
pub struct TransientFaults {
    /// Probability a packet silently vanishes on the wire (in the bad state
    /// when `burst` is set, else independently per packet).
    pub loss_prob: f64,
    /// Probability a packet is delivered with a failing CRC (ditto).
    pub corrupt_prob: f64,
    /// Optional Gilbert–Elliott burst structure.
    pub burst: Option<BurstModel>,
}

/// Gilbert–Elliott channel parameters (per-packet state transitions).
#[derive(Debug, Clone, Copy)]
pub struct BurstModel {
    /// Probability of entering the bad state on each packet while good.
    pub p_enter: f64,
    /// Probability of leaving the bad state on each packet while bad.
    pub p_leave: f64,
}

impl BurstModel {
    /// Long-run fraction of packets spent in the bad state.
    pub fn bad_fraction(&self) -> f64 {
        self.p_enter / (self.p_enter + self.p_leave)
    }
    /// Mean burst length in packets.
    pub fn mean_burst_len(&self) -> f64 {
        1.0 / self.p_leave
    }
    /// Advance the channel by one packet from state `bad` (true = bad),
    /// returning the new state. This is the per-packet transition the
    /// fabric engine applies at injection; it lives here so statistical
    /// tests exercise the production chain, not a re-derivation.
    pub fn step(&self, bad: bool, rng: &mut SimRng) -> bool {
        if bad {
            !rng.chance(self.p_leave)
        } else {
            rng.chance(self.p_enter)
        }
    }
}

impl TransientFaults {
    /// No wire faults.
    pub fn none() -> Self {
        Self {
            loss_prob: 0.0,
            corrupt_prob: 0.0,
            burst: None,
        }
    }
    /// Independent loss only.
    pub fn loss(p: f64) -> Self {
        Self {
            loss_prob: p,
            corrupt_prob: 0.0,
            burst: None,
        }
    }
    /// Independent corruption only.
    pub fn corruption(p: f64) -> Self {
        Self {
            loss_prob: 0.0,
            corrupt_prob: p,
            burst: None,
        }
    }
    /// Bursty loss with the same *average* rate as independent loss of
    /// `avg_rate`, in bursts of `mean_len` packets: while the channel is
    /// bad, every packet is lost.
    pub fn bursty_loss(avg_rate: f64, mean_len: f64) -> Self {
        assert!(avg_rate > 0.0 && avg_rate < 1.0 && mean_len >= 1.0);
        let p_leave = 1.0 / mean_len;
        // bad_fraction = p_enter / (p_enter + p_leave) = avg_rate
        let p_enter = avg_rate * p_leave / (1.0 - avg_rate);
        Self {
            loss_prob: 1.0,
            corrupt_prob: 0.0,
            burst: Some(BurstModel { p_enter, p_leave }),
        }
    }
    /// True when no fault can ever fire.
    pub fn is_none(&self) -> bool {
        self.loss_prob == 0.0 && self.corrupt_prob == 0.0
    }
}

/// One scheduled permanent-fault action.
#[derive(Debug, Clone, Copy)]
pub enum PermanentFault {
    /// Link dies at the given time.
    LinkDown {
        /// When.
        at_nanos: u64,
        /// Which link.
        link: u32,
    },
    /// Link is repaired / connected at the given time.
    LinkUp {
        /// When.
        at_nanos: u64,
        /// Which link.
        link: u32,
    },
    /// Whole switch dies at the given time.
    SwitchDown {
        /// When.
        at_nanos: u64,
        /// Which switch.
        switch: u16,
    },
    /// Reconfiguration: a new link is wired between two free ports
    /// (`GrowFabric`).
    GrowLink {
        /// When.
        at_nanos: u64,
        /// One side.
        a: Endpoint,
        /// The other side.
        b: Endpoint,
    },
    /// Reconfiguration: a link's planned removal is announced — planners
    /// stop offering it while in-flight traffic completes.
    DrainLink {
        /// When.
        at_nanos: u64,
        /// Which link.
        link: u32,
    },
    /// Reconfiguration: a link detaches from the fabric (`ShrinkFabric`;
    /// paired with an earlier [`PermanentFault::DrainLink`] when planned).
    RemoveLink {
        /// When.
        at_nanos: u64,
        /// Which link.
        link: u32,
    },
    /// Reconfiguration: a whole switch is de-racked, all links detaching
    /// (`ShrinkFabric`; unplanned when no drain preceded it).
    RemoveSwitch {
        /// When.
        at_nanos: u64,
        /// Which switch.
        switch: u16,
    },
}

impl PermanentFault {
    /// When the fault fires.
    pub fn at(&self) -> Time {
        match *self {
            PermanentFault::LinkDown { at_nanos, .. }
            | PermanentFault::LinkUp { at_nanos, .. }
            | PermanentFault::SwitchDown { at_nanos, .. }
            | PermanentFault::GrowLink { at_nanos, .. }
            | PermanentFault::DrainLink { at_nanos, .. }
            | PermanentFault::RemoveLink { at_nanos, .. }
            | PermanentFault::RemoveSwitch { at_nanos, .. } => Time::from_nanos(at_nanos),
        }
    }

    /// Total tie-break key for same-instant actions: deaths apply before
    /// repairs (so a down+up pair at the same tick leaves the component
    /// alive — the repair is the later intent), removals apply with the
    /// deaths (drain strictly before detach), and grows apply last (a
    /// detach+grow pair at the same tick is a re-cable whose new wiring is
    /// the later intent). The remaining fields make the ordering canonical
    /// regardless of listing order.
    fn rank(&self) -> (u8, u8, u32) {
        match *self {
            PermanentFault::LinkDown { link, .. } => (0, 0, link),
            PermanentFault::SwitchDown { switch, .. } => (0, 1, switch as u32),
            PermanentFault::DrainLink { link, .. } => (0, 2, link),
            PermanentFault::RemoveLink { link, .. } => (0, 3, link),
            PermanentFault::RemoveSwitch { switch, .. } => (0, 4, switch as u32),
            PermanentFault::LinkUp { link, .. } => (1, 0, link),
            PermanentFault::GrowLink { .. } => (2, 0, 0),
        }
    }

    /// The fabric event this fault compiles to.
    pub fn event(&self) -> FabricEvent {
        match *self {
            PermanentFault::LinkDown { link, .. } => FabricEvent::LinkDown { link: LinkId(link) },
            PermanentFault::LinkUp { link, .. } => FabricEvent::LinkUp { link: LinkId(link) },
            PermanentFault::SwitchDown { switch, .. } => FabricEvent::SwitchDown {
                switch: SwitchId(switch),
            },
            PermanentFault::GrowLink { a, b, .. } => FabricEvent::GrowLink { a, b },
            PermanentFault::DrainLink { link, .. } => FabricEvent::DrainLink { link: LinkId(link) },
            PermanentFault::RemoveLink { link, .. } => {
                FabricEvent::RemoveLink { link: LinkId(link) }
            }
            PermanentFault::RemoveSwitch { switch, .. } => FabricEvent::RemoveSwitch {
                switch: SwitchId(switch),
            },
        }
    }
}

/// A schedule of permanent faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The scheduled actions (any order; scheduling sorts by time).
    pub actions: Vec<PermanentFault>,
}

impl FaultPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Kill `link` at `at`.
    pub fn link_down(mut self, at: Time, link: LinkId) -> Self {
        self.actions.push(PermanentFault::LinkDown {
            at_nanos: at.nanos(),
            link: link.0,
        });
        self
    }

    /// Bring `link` up at `at` (reconfiguration: a node re-connected
    /// elsewhere is modelled as old-link down + new-link up).
    pub fn link_up(mut self, at: Time, link: LinkId) -> Self {
        self.actions.push(PermanentFault::LinkUp {
            at_nanos: at.nanos(),
            link: link.0,
        });
        self
    }

    /// Kill `switch` at `at`.
    pub fn switch_down(mut self, at: Time, s: SwitchId) -> Self {
        self.actions.push(PermanentFault::SwitchDown {
            at_nanos: at.nanos(),
            switch: s.0,
        });
        self
    }

    /// Wire a new link between two free ports at `at` (`GrowFabric`).
    pub fn grow_link(mut self, at: Time, a: Endpoint, b: Endpoint) -> Self {
        self.actions.push(PermanentFault::GrowLink {
            at_nanos: at.nanos(),
            a,
            b,
        });
        self
    }

    /// Announce `link`'s planned removal at `at`: planners stop offering it
    /// while in-flight traffic completes.
    pub fn drain_link(mut self, at: Time, link: LinkId) -> Self {
        self.actions.push(PermanentFault::DrainLink {
            at_nanos: at.nanos(),
            link: link.0,
        });
        self
    }

    /// Detach `link` from the fabric at `at` (`ShrinkFabric`).
    pub fn remove_link(mut self, at: Time, link: LinkId) -> Self {
        self.actions.push(PermanentFault::RemoveLink {
            at_nanos: at.nanos(),
            link: link.0,
        });
        self
    }

    /// De-rack `switch` at `at`, detaching all of its links
    /// (`ShrinkFabric`; unplanned when no drain preceded it).
    pub fn remove_switch(mut self, at: Time, s: SwitchId) -> Self {
        self.actions.push(PermanentFault::RemoveSwitch {
            at_nanos: at.nanos(),
            switch: s.0,
        });
        self
    }

    /// Schedule every action into the simulation.
    ///
    /// Same-instant events apply in the order scheduled (the event queue
    /// breaks time ties by insertion order), so actions are sorted by
    /// (time, death-before-repair) first: a repair listed *before* a death
    /// at the same tick would otherwise win by Vec position and leave the
    /// link dead.
    pub fn arm<E: From<FabricEvent>>(&self, sim: &mut Sim<E>) {
        let mut actions = self.actions.clone();
        actions.sort_by_key(|a| (a.at(), a.rank()));
        for a in &actions {
            sim.schedule(a.at(), a.event().into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(TransientFaults::none().is_none());
        assert!(!TransientFaults::loss(0.1).is_none());
        assert_eq!(TransientFaults::corruption(0.2).corrupt_prob, 0.2);
    }

    #[test]
    fn same_tick_repair_and_death_apply_death_first() {
        // A repair listed *before* a death at the same instant: the armed
        // schedule must still apply death → repair, leaving the link alive.
        let t = Time::from_millis(3);
        let plan = FaultPlan::new()
            .link_up(t, LinkId(5))
            .link_down(t, LinkId(5));
        let mut sim: Sim<FabricEvent> = Sim::new(0);
        plan.arm(&mut sim);
        let (t0, first) = sim.pop().unwrap();
        let (t1, second) = sim.pop().unwrap();
        assert_eq!((t0, t1), (t, t));
        assert!(
            matches!(first, FabricEvent::LinkDown { link } if link == LinkId(5)),
            "death must be scheduled first"
        );
        assert!(matches!(second, FabricEvent::LinkUp { link } if link == LinkId(5)));
    }

    #[test]
    fn same_tick_ordering_is_deterministic_under_permutation() {
        // Both listing orders compile to the identical schedule.
        let t = Time::from_millis(1);
        let a = FaultPlan::new()
            .link_down(t, LinkId(2))
            .link_up(t, LinkId(2))
            .switch_down(t, SwitchId(0));
        let b = FaultPlan::new()
            .link_up(t, LinkId(2))
            .switch_down(t, SwitchId(0))
            .link_down(t, LinkId(2));
        let drain = |plan: &FaultPlan| {
            let mut sim: Sim<FabricEvent> = Sim::new(0);
            plan.arm(&mut sim);
            let mut out = Vec::new();
            while let Some((at, ev)) = sim.pop() {
                out.push(format!("{at:?}/{ev:?}"));
            }
            out
        };
        assert_eq!(drain(&a), drain(&b));
        // Deaths (in listed order) precede the repair.
        assert!(drain(&a)[0].contains("LinkDown"));
        assert!(drain(&a)[1].contains("SwitchDown"));
        assert!(drain(&a)[2].contains("LinkUp"));
    }

    #[test]
    fn plan_compiles_to_events() {
        let plan = FaultPlan::new()
            .link_down(Time::from_millis(5), LinkId(3))
            .link_up(Time::from_millis(7), LinkId(4))
            .switch_down(Time::from_millis(9), SwitchId(1));
        assert_eq!(plan.actions.len(), 3);
        assert_eq!(plan.actions[0].at(), Time::from_millis(5));
        let mut sim: Sim<FabricEvent> = Sim::new(0);
        plan.arm(&mut sim);
        assert_eq!(sim.pending(), 3);
        let (t, ev) = sim.pop().unwrap();
        assert_eq!(t, Time::from_millis(5));
        assert!(matches!(ev, FabricEvent::LinkDown { link } if link == LinkId(3)));
    }
}

#[cfg(test)]
mod burst_tests {
    use super::*;

    /// Run the chain for `n` packets and return (empirical bad fraction,
    /// empirical mean burst length over completed bursts).
    fn empirical_moments(b: BurstModel, seed: u64, n: usize) -> (f64, f64) {
        let mut rng = SimRng::seed_from(seed);
        let mut bad = false;
        let mut bad_packets = 0usize;
        let mut bursts = 0usize;
        for _ in 0..n {
            let was_bad = bad;
            bad = b.step(bad, &mut rng);
            if bad {
                bad_packets += 1;
                if !was_bad {
                    bursts += 1;
                }
            }
        }
        let frac = bad_packets as f64 / n as f64;
        let mean_len = if bursts == 0 {
            0.0
        } else {
            bad_packets as f64 / bursts as f64
        };
        (frac, mean_len)
    }

    #[test]
    fn degenerate_never_enter_stays_good() {
        // p_enter = 0: the channel never leaves the good state.
        let b = BurstModel {
            p_enter: 0.0,
            p_leave: 0.5,
        };
        assert_eq!(b.bad_fraction(), 0.0);
        let (frac, _) = empirical_moments(b, 17, 10_000);
        assert_eq!(frac, 0.0, "p_enter=0 must never produce a bad packet");
    }

    #[test]
    fn degenerate_instant_leave_gives_unit_bursts() {
        // p_leave = 1: every burst is exactly one packet long.
        let b = BurstModel {
            p_enter: 0.3,
            p_leave: 1.0,
        };
        assert_eq!(b.mean_burst_len(), 1.0);
        let mut rng = SimRng::seed_from(23);
        let mut bad = false;
        let mut prev_bad = false;
        let mut saw_bad = false;
        for _ in 0..10_000 {
            bad = b.step(bad, &mut rng);
            assert!(
                !(bad && prev_bad),
                "p_leave=1 forbids two consecutive bad packets"
            );
            saw_bad |= bad;
            prev_bad = bad;
        }
        assert!(saw_bad, "p_enter=0.3 must enter the bad state sometimes");
    }

    #[test]
    fn burst_parameters_have_the_right_moments() {
        let f = TransientFaults::bursty_loss(0.01, 10.0);
        let b = f.burst.unwrap();
        assert!(
            (b.bad_fraction() - 0.01).abs() < 1e-12,
            "average rate preserved"
        );
        assert!((b.mean_burst_len() - 10.0).abs() < 1e-12);
        assert_eq!(f.loss_prob, 1.0, "inside a burst every packet dies");
    }

    #[test]
    #[should_panic]
    fn bursty_loss_rejects_bad_rates() {
        let _ = TransientFaults::bursty_loss(1.5, 10.0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// The analytic moments — `bad_fraction()` and
            /// `mean_burst_len()` — must match the empirical frequencies of
            /// the sampled Gilbert–Elliott chain within statistical
            /// tolerance, for arbitrary parameters and seeds.
            #[test]
            fn analytic_moments_match_sampled_chain(
                p_enter in 0.02f64..0.25,
                p_leave in 0.25f64..0.95,
                seed in 0u64..10_000,
            ) {
                let b = BurstModel { p_enter, p_leave };
                let n = 120_000;
                let (frac, mean_len) = empirical_moments(b, seed, n);
                let want_frac = b.bad_fraction();
                let want_len = b.mean_burst_len();
                // Bursty chains mix slowly, so allow a generous (but still
                // regression-catching) 20% relative band.
                prop_assert!(
                    (frac - want_frac).abs() / want_frac < 0.20,
                    "bad fraction: empirical {frac:.4} vs analytic {want_frac:.4}"
                );
                prop_assert!(
                    (mean_len - want_len).abs() / want_len < 0.20,
                    "burst length: empirical {mean_len:.3} vs analytic {want_len:.3}"
                );
            }

            /// Degenerate corners sampled across seeds: p_enter=0 never
            /// goes bad; p_leave=1 caps every burst at one packet.
            #[test]
            fn degenerate_corners_behave(seed in 0u64..10_000) {
                let never = BurstModel { p_enter: 0.0, p_leave: 0.7 };
                let (frac, _) = empirical_moments(never, seed, 5_000);
                prop_assert_eq!(frac, 0.0);

                let unit = BurstModel { p_enter: 0.4, p_leave: 1.0 };
                let (_, mean_len) = empirical_moments(unit, seed, 20_000);
                prop_assert!(
                    (mean_len - 1.0).abs() < 1e-12,
                    "every burst must be exactly 1 packet, got {mean_len}"
                );
            }
        }
    }
}
