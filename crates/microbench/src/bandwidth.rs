//! Ping-pong and unidirectional bandwidth (Figure 4 right, Figures 5–8).

use san_fabric::NodeId;
use san_nic::{ClusterConfig, HostAgent};
use san_sim::{Duration, Time};

use crate::agents::{state, Echoer, Pinger, Sink, UniSource};
use crate::{pair_cluster, FwKind};

/// One bandwidth measurement.
#[derive(Debug, Clone)]
pub struct BwPoint {
    /// Message size in bytes.
    pub bytes: u32,
    /// Measured bandwidth in MB/s.
    pub mbps: f64,
    /// Packets retransmitted during the run.
    pub retransmits: u64,
    /// Packets suppressed by the error injector.
    pub injected_drops: u64,
    /// Retransmission-timer events processed (single-timer scans plus
    /// per-packet expiries in that ablation).
    pub timer_fires: u64,
    /// The run completed before its deadline.
    pub completed: bool,
}

fn run_until_done(
    cluster: &mut san_nic::Cluster,
    st: &crate::agents::StateRef,
    deadline: Time,
) -> bool {
    let slice = Duration::from_millis(10);
    let mut t = Time::ZERO + slice;
    loop {
        cluster.run_until(t);
        if st.borrow().done {
            return true;
        }
        if t > deadline || (cluster.sim.is_idle() && !st.borrow().done) {
            return false;
        }
        t += slice;
    }
}

/// Ping-pong bandwidth: `rounds` full message exchanges of `bytes` each
/// way; bandwidth counts the payload crossing the wire in both directions.
pub fn pingpong_bandwidth(
    fw: &FwKind,
    bytes: u32,
    rounds: u32,
    cfg: ClusterConfig,
    deadline: Time,
) -> BwPoint {
    let st = state();
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(Pinger::new(NodeId(1), bytes, rounds, st.clone())),
        Box::new(Echoer::new(NodeId(1), NodeId(0))),
    ];
    let mut cluster = pair_cluster(fw, cfg, hosts);
    let completed = run_until_done(&mut cluster, &st, deadline);
    let stb = st.borrow();
    let (mbps, _) = rate_of(&stb.samples, bytes as u64 * 2);
    BwPoint {
        bytes,
        mbps,
        retransmits: cluster
            .nics
            .iter()
            .map(|n| n.core.stats.retransmits.get())
            .sum(),
        injected_drops: cluster
            .nics
            .iter()
            .map(|n| n.core.stats.injected_drops.get())
            .sum(),
        timer_fires: cluster
            .nics
            .iter()
            .map(|n| n.core.stats.timer_fires.get())
            .sum(),
        completed,
    }
}

/// Unidirectional bandwidth: stream `count` messages of `bytes` each;
/// bandwidth is measured at the sink from first send to last completion.
pub fn unidirectional_bandwidth(
    fw: &FwKind,
    bytes: u32,
    count: u64,
    cfg: ClusterConfig,
    deadline: Time,
) -> BwPoint {
    let st = state();
    let hosts: Vec<Box<dyn HostAgent>> = vec![
        Box::new(UniSource::new(NodeId(1), bytes, count)),
        Box::new(Sink::new(NodeId(1), count, st.clone())),
    ];
    let mut cluster = pair_cluster(fw, cfg, hosts);
    let completed = run_until_done(&mut cluster, &st, deadline);
    let stb = st.borrow();
    let secs = stb
        .last_completed
        .map_or(0.0, |last| last.since(Time::ZERO).as_secs_f64());
    let mbps = if secs > 0.0 {
        stb.bytes as f64 / secs / 1e6
    } else {
        0.0
    };
    BwPoint {
        bytes,
        mbps,
        retransmits: cluster
            .nics
            .iter()
            .map(|n| n.core.stats.retransmits.get())
            .sum(),
        injected_drops: cluster
            .nics
            .iter()
            .map(|n| n.core.stats.injected_drops.get())
            .sum(),
        timer_fires: cluster
            .nics
            .iter()
            .map(|n| n.core.stats.timer_fires.get())
            .sum(),
        completed,
    }
}

/// Bandwidth from per-round samples: total payload moved per round divided
/// by mean round time.
fn rate_of(samples: &[(Time, Time)], bytes_per_round: u64) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let total: f64 = samples.iter().map(|(s, e)| e.since(*s).as_secs_f64()).sum();
    let mean = total / samples.len() as f64;
    (bytes_per_round as f64 / mean / 1e6, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_ft::ProtocolConfig;

    const DL: Time = Time(10_000_000_000); // 10 s

    #[test]
    fn unidirectional_plateau_and_ft_overhead() {
        let cfg = ClusterConfig::default();
        let no_ft = unidirectional_bandwidth(&FwKind::NoFt, 65536, 64, cfg.clone(), DL);
        assert!(no_ft.completed);
        assert!(
            (105.0..122.0).contains(&no_ft.mbps),
            "no-FT 64K unidirectional ≈ 118 MB/s, got {:.1}",
            no_ft.mbps
        );
        let ft =
            unidirectional_bandwidth(&FwKind::Ft(ProtocolConfig::default()), 65536, 64, cfg, DL);
        assert!(ft.completed);
        let loss = (no_ft.mbps - ft.mbps) / no_ft.mbps;
        assert!(
            loss < 0.04,
            "FT overhead <4%: {:.1} vs {:.1}",
            ft.mbps,
            no_ft.mbps
        );
    }

    #[test]
    fn pingpong_tracks_unidirectional_for_large_messages() {
        let cfg = ClusterConfig::default();
        let pp = pingpong_bandwidth(&FwKind::NoFt, 262144, 8, cfg, DL);
        assert!(pp.completed);
        assert!(
            (100.0..122.0).contains(&pp.mbps),
            "256K ping-pong near the PCI plateau, got {:.1}",
            pp.mbps
        );
    }

    #[test]
    fn small_messages_are_latency_bound() {
        let pp = pingpong_bandwidth(&FwKind::NoFt, 4, 20, ClusterConfig::default(), DL);
        assert!(pp.completed);
        assert!(
            pp.mbps < 2.0,
            "4-byte ping-pong is latency-bound: {:.3}",
            pp.mbps
        );
    }

    #[test]
    fn errors_cost_bandwidth_but_not_correctness() {
        let proto = ProtocolConfig::default().with_error_rate(1e-2);
        let pt =
            unidirectional_bandwidth(&FwKind::Ft(proto), 16384, 128, ClusterConfig::default(), DL);
        assert!(pt.completed, "run must finish despite 1e-2 errors");
        assert!(pt.injected_drops > 0);
        assert!(pt.retransmits > 0);
        let clean = unidirectional_bandwidth(
            &FwKind::Ft(ProtocolConfig::default()),
            16384,
            128,
            ClusterConfig::default(),
            DL,
        );
        assert!(pt.mbps < clean.mbps, "{} !< {}", pt.mbps, clean.mbps);
    }
}
