//! What the cluster workloads share: one driver for plain and traced runs,
//! and the counters a finished cluster reports.

use san_fabric::NodeId;
use san_ft::ReliableFirmware;
use san_nic::{Cluster, Firmware};
use san_sim::Time;

use crate::pass::{add, per, raise, Layers};
use crate::trace::{Layer, TracedLoop};

/// Drives a cluster either through `Cluster::run_until` or through the
/// benchmark's traced copy of it.
#[derive(Debug)]
pub struct Driver {
    traced: Option<TracedLoop>,
}

impl Driver {
    /// A plain driver, or a traced one.
    pub fn new(traced: bool) -> Self {
        Self {
            traced: traced.then(TracedLoop::default),
        }
    }

    /// Firmware for the cluster under this driver (wrapped when traced).
    pub fn firmware(&self, fw: Box<dyn Firmware>) -> Box<dyn Firmware> {
        match &self.traced {
            Some(t) => t.wrap(fw),
            None => fw,
        }
    }

    /// Run `c` until `deadline`; returns the time of the last event.
    pub fn run_until(&mut self, c: &mut Cluster, deadline: Time) -> Time {
        match &mut self.traced {
            Some(t) => t.run_until(c, deadline),
            None => c.run_until(deadline),
        }
    }

    /// Events processed so far.
    pub fn events(&self, c: &Cluster) -> u64 {
        match &self.traced {
            Some(t) => t.events,
            None => c.events_processed(),
        }
    }

    /// Simulated outcome of a finished run, for the digest: fabric
    /// statistics, summed NIC/protocol counters, events and end time.
    pub fn outcome(&self, c: &Cluster, end: Time) -> Vec<u64> {
        let s = c.engine.stats();
        let mut words = vec![
            s.injected,
            s.delivered,
            s.path_resets,
            s.bytes_delivered,
            self.events(c),
            end.nanos(),
        ];
        words.extend(s.dropped);
        let mut nic = [0u64; 10];
        for n in &c.nics {
            let st = &n.core.stats;
            let v = [
                st.packets_tx.get(),
                st.retransmits.get(),
                st.injected_drops.get(),
                st.packets_rx.get(),
                st.data_accepted.get(),
                st.ooo_drops.get(),
                st.dup_drops.get(),
                st.acks_tx.get(),
                st.timer_fires.get(),
                st.rx_overflow.get(),
            ];
            for (acc, x) in nic.iter_mut().zip(v) {
                *acc += x;
            }
        }
        words.extend(nic);
        words
    }

    /// Add a finished run's counters (and, when traced, its span times)
    /// to `m`. Call [`finish`] once all units are in.
    pub fn absorb(&self, c: &Cluster, m: &mut Layers) {
        let s = c.engine.stats();
        add(m, "des.events", self.events(c) as f64);
        add(m, "fabric.delivered", s.delivered as f64);
        add(m, "fabric.dropped", s.dropped_total() as f64);
        add(m, "fabric.path_resets", s.path_resets as f64);
        // Index 4 is `DropReason::WireLoss`.
        add(m, "fabric.wire_loss", s.dropped[4] as f64);
        for n in &c.nics {
            let st = &n.core.stats;
            for (name, v) in [
                ("nic.packets_tx", st.packets_tx.get()),
                ("nic.packets_rx", st.packets_rx.get()),
                ("nic.rx_overflow", st.rx_overflow.get()),
                ("nic.blocked_no_buffer", st.blocked_no_buffer.get()),
                ("ft.retransmits", st.retransmits.get()),
                ("ft.acks_tx", st.acks_tx.get()),
                ("ft.timer_fires", st.timer_fires.get()),
                ("ft.dup_drops", st.dup_drops.get()),
                ("ft.ooo_drops", st.ooo_drops.get()),
                ("ft.injected_drops", st.injected_drops.get()),
                ("ft.map_probes", st.probes_tx.get()),
                ("ft.data_accepted", st.data_accepted.get()),
                ("ft.stale_drops", st.stale_gen_drops.get()),
            ] {
                add(m, name, v as f64);
            }
            if let Some(fw) = n.fw.as_any().downcast_ref::<ReliableFirmware>() {
                let bumps: u64 = (0..c.nics.len())
                    .map(|d| fw.sender(NodeId(d as u16)).generation as u64)
                    .sum();
                add(m, "ft.generation_bumps", bumps as f64);
            }
        }
        if let Some(t) = &self.traced {
            let sp = t.spans.borrow();
            for (layer, self_ms, calls) in [
                (Layer::Des, "des.self_ms", "des.calls"),
                (Layer::Fabric, "fabric.self_ms", "fabric.calls"),
                (Layer::Nic, "nic.self_ms", "nic.calls"),
                (Layer::Ft, "ft.self_ms", "ft.calls"),
                (Layer::Host, "host.self_ms", "host.calls"),
            ] {
                add(m, self_ms, sp.self_ms(layer));
                add(m, calls, sp.calls(layer) as f64);
            }
            add(m, "spans.covered_ms", sp.total_self_ms());
            add(m, "spans.timing_ms", sp.timing_ms());
            add(m, "spans.loop_ms", t.loop_s * 1e3);
            raise(m, "des.pending_max", t.pending_max as f64);
            raise(m, "fabric.in_flight_max", t.in_flight_max as f64);
        }
    }
}

/// Derived per-call costs and protocol ratios, from the summed counters.
pub fn finish(m: &mut Layers) {
    let derived = [
        (
            "des.ns_per_event",
            1e6 * per(m, "des.self_ms", "des.events"),
        ),
        (
            "fabric.ns_per_call",
            1e6 * per(m, "fabric.self_ms", "fabric.calls"),
        ),
        ("nic.ns_per_call", 1e6 * per(m, "nic.self_ms", "nic.calls")),
        ("ft.ns_per_call", 1e6 * per(m, "ft.self_ms", "ft.calls")),
        (
            "host.ns_per_call",
            1e6 * per(m, "host.self_ms", "host.calls"),
        ),
        ("ft.retx_ratio", per(m, "ft.retransmits", "nic.packets_tx")),
    ];
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let accepted = get("ft.data_accepted");
    let arrived = accepted + get("ft.ooo_drops") + get("ft.dup_drops") + get("ft.stale_drops");
    let lost = get("fabric.wire_loss") + get("ft.injected_drops");
    let accept_ratio = crate::stats::ratio(accepted, arrived);
    let retx_per_drop = crate::stats::ratio(get("ft.retransmits"), lost);
    m.extend(derived);
    m.insert("ft.accept_ratio", accept_ratio);
    m.insert("ft.retx_per_drop", retx_per_drop);
}
