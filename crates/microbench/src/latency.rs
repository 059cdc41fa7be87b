//! One-way latency with the Figure 3 stage breakdown.
//!
//! A single small message is traced through its stage stamps; means over
//! `reps` repetitions are reported in microseconds. The five stages are the
//! paper's: host send (user call → descriptor at the NIC), NIC send
//! (descriptor → wire), wire, NIC receive (tail arrival → deposited in host
//! memory), host receive (deposit → process sees it).

use san_fabric::{NodeId, Packet};
use san_nic::testkit::{inbox, make_desc, Collector};
use san_nic::timing::host_send;
use san_nic::{ClusterConfig, HostAgent, HostCtx};
use san_sim::{Duration, Time};

use crate::{pair_cluster, FwKind};

/// Per-stage means in microseconds.
#[derive(Debug, Clone, Default)]
pub struct LatencyBreakdown {
    /// User call → descriptor visible to the NIC.
    pub host_send_us: f64,
    /// Descriptor → first byte on the wire.
    pub nic_send_us: f64,
    /// On the wire (head injection → tail arrival).
    pub wire_us: f64,
    /// Tail arrival → deposited into host memory.
    pub nic_recv_us: f64,
    /// Deposit → receiving process has seen it.
    pub host_recv_us: f64,
}

impl LatencyBreakdown {
    /// End-to-end one-way latency.
    pub fn total_us(&self) -> f64 {
        self.host_send_us + self.nic_send_us + self.wire_us + self.nic_recv_us + self.host_recv_us
    }
}

struct OneShotSender {
    peer: NodeId,
    bytes: u32,
    reps: u32,
    sent: u32,
    gap: Duration,
}

impl HostAgent for OneShotSender {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        ctx.wake_in(host_send(self.bytes), 0);
    }
    fn on_wake(&mut self, ctx: &mut HostCtx, _token: u64) {
        if self.sent >= self.reps {
            return;
        }
        let cost = host_send(self.bytes);
        // `posted_at` marks the user call, one host-send cost before now.
        let user_start = ctx.now() - cost;
        ctx.post_send(make_desc(
            self.peer,
            self.bytes,
            self.sent as u64,
            user_start,
        ));
        self.sent += 1;
        if self.sent < self.reps {
            // Space repetitions out so they never pipeline.
            ctx.wake_in(self.gap + cost, 0);
        }
    }
    fn on_message(&mut self, _ctx: &mut HostCtx, _pkt: Packet) {}
    fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
}

/// Measure the one-way latency of `bytes`-sized messages under `fw`.
pub fn one_way_latency(fw: &FwKind, bytes: u32, reps: u32, cfg: ClusterConfig) -> LatencyBreakdown {
    let inbox = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(OneShotSender {
            peer: NodeId(1),
            bytes,
            reps,
            sent: 0,
            gap: Duration::from_micros(100),
        }),
        Box::new(Collector(inbox.clone())),
    ];
    let mut cluster = pair_cluster(fw, cfg, hosts);
    // Generously long deadline; latency runs are tiny.
    cluster.run_until(Time::from_millis(200 + reps as u64));
    let inbox = inbox.borrow();
    assert_eq!(inbox.len() as u32, reps, "all probes must arrive");
    let mut b = LatencyBreakdown::default();
    for pkt in inbox.iter() {
        let s = &pkt.stamps;
        b.host_send_us += s.nic_tx_start.since(s.host_post).as_micros_f64();
        b.nic_send_us += s.injected.since(s.nic_tx_start).as_micros_f64();
        b.wire_us += s.delivered.since(s.injected).as_micros_f64();
        b.nic_recv_us += s.deposited.since(s.delivered).as_micros_f64();
        b.host_recv_us += s.host_seen.since(s.deposited).as_micros_f64();
    }
    let n = reps as f64;
    b.host_send_us /= n;
    b.nic_send_us /= n;
    b.wire_us /= n;
    b.nic_recv_us /= n;
    b.host_recv_us /= n;
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_ft::ProtocolConfig;

    #[test]
    fn figure3_shape() {
        let cfg = ClusterConfig::default();
        let no_ft = one_way_latency(&FwKind::NoFt, 4, 10, cfg.clone());
        let ft = one_way_latency(&FwKind::Ft(ProtocolConfig::default()), 4, 10, cfg);
        // ~8 µs vs ~10 µs (Figure 3).
        assert!(
            (7.0..9.0).contains(&no_ft.total_us()),
            "no-FT: {:.2}",
            no_ft.total_us()
        );
        assert!(
            (9.0..11.0).contains(&ft.total_us()),
            "FT: {:.2}",
            ft.total_us()
        );
        // The overhead splits roughly evenly between send and receive sides.
        let send_over = ft.nic_send_us - no_ft.nic_send_us;
        let recv_over = ft.nic_recv_us - no_ft.nic_recv_us;
        assert!(
            (0.5..1.6).contains(&send_over),
            "send-side ≈1 µs, got {send_over:.2}"
        );
        assert!(
            (0.5..1.6).contains(&recv_over),
            "recv-side ≈1 µs, got {recv_over:.2}"
        );
        // Host stages are unaffected by the firmware.
        assert!((ft.host_send_us - no_ft.host_send_us).abs() < 0.05);
        assert!((ft.host_recv_us - no_ft.host_recv_us).abs() < 0.05);
    }

    #[test]
    fn latency_overhead_bounded_up_to_64b() {
        for bytes in [4u32, 16, 64] {
            let no_ft = one_way_latency(&FwKind::NoFt, bytes, 5, ClusterConfig::default());
            let ft = one_way_latency(
                &FwKind::Ft(ProtocolConfig::default()),
                bytes,
                5,
                ClusterConfig::default(),
            );
            let over = ft.total_us() - no_ft.total_us();
            assert!(
                (0.0..=2.1).contains(&over),
                "{bytes}B overhead {over:.2} µs"
            );
        }
    }
}
