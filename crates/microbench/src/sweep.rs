//! Parameter-grid driver for Figures 5–8: every (timer, queue size, error
//! rate, message size) combination is an independent deterministic
//! simulation, so the grid fans out across threads with
//! [`san_sim::fanout::map_indexed`].

use san_ft::ProtocolConfig;
use san_nic::ClusterConfig;
use san_sim::fanout::map_indexed;
use san_sim::{Duration, Time};

use crate::bandwidth::{pingpong_bandwidth, unidirectional_bandwidth, BwPoint};
use crate::FwKind;

/// One grid cell to run.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Retransmission timer, or `None` for the no-FT baseline.
    pub timer: Option<Duration>,
    /// NIC send-queue size.
    pub queue: u16,
    /// Error rate (0.0 = none).
    pub error_rate: f64,
    /// Message size.
    pub bytes: u32,
    /// True = bidirectional (ping-pong), false = unidirectional.
    pub bidirectional: bool,
}

/// Work volume and limits for a sweep.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Total payload bytes per measurement (split into messages).
    pub volume: u64,
    /// Per-cell simulated-time budget.
    pub deadline: Time,
    /// Worker threads.
    pub workers: usize,
}

impl Default for GridSpec {
    fn default() -> Self {
        // 20 s of virtual time is ~40× the error-free duration of the
        // largest default cell; pathological cells (1 s timers with errors)
        // report what they managed rather than running forever.
        Self {
            volume: 4 << 20,
            deadline: Time::from_secs(20),
            workers: 8,
        }
    }
}

/// A completed cell.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// The cell.
    pub point: GridPoint,
    /// The measurement.
    pub bw: BwPoint,
}

fn run_cell(p: &GridPoint, spec: &GridSpec) -> BwPoint {
    let fw = match p.timer {
        None => FwKind::NoFt,
        Some(t) => FwKind::Ft(
            ProtocolConfig::default()
                .with_timeout(t)
                .with_error_rate(p.error_rate),
        ),
    };
    let cfg = ClusterConfig {
        send_bufs: p.queue,
        ..Default::default()
    };
    let mut msgs = (spec.volume / p.bytes.max(1) as u64).clamp(4, 4096);
    if p.error_rate > 0.0 {
        // The paper sizes runs so at least ~10 packets are dropped at the
        // lowest rate (§5.1.4); without this, low-rate cells measure nothing.
        let pkts_per_msg = (p.bytes.div_ceil(4096)).max(1) as u64;
        let min_msgs = (12.0 / p.error_rate) as u64 / pkts_per_msg;
        msgs = msgs.max(min_msgs).min(200_000);
    }
    // Give big (low-error-rate) cells enough virtual time to finish even at
    // heavily degraded bandwidth; truly pathological cells still cut off and
    // report what they measured.
    let floor_bytes_per_sec = 500_000u64;
    let needed = Time::from_secs(((msgs * p.bytes as u64) / floor_bytes_per_sec).clamp(1, 600));
    let deadline = spec.deadline.max(needed);
    if p.bidirectional {
        pingpong_bandwidth(&fw, p.bytes, (msgs / 2).max(2) as u32, cfg, deadline)
    } else {
        unidirectional_bandwidth(&fw, p.bytes, msgs, cfg, deadline)
    }
}

/// Run every cell, fanning out over `spec.workers` threads (one worker
/// runs them on the calling thread). Results come back in input order
/// regardless of completion order.
pub fn run_grid(points: Vec<GridPoint>, spec: GridSpec) -> Vec<GridResult> {
    map_indexed(points.len(), spec.workers, |i| {
        let point = points[i].clone();
        let bw = run_cell(&point, &spec);
        GridResult { point, bw }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_runs_in_order_and_parallel_matches_serial() {
        let points: Vec<GridPoint> = [None, Some(Duration::from_millis(1))]
            .into_iter()
            .flat_map(|timer| {
                [4096u32, 65536].into_iter().map(move |bytes| GridPoint {
                    timer,
                    queue: 32,
                    error_rate: 0.0,
                    bytes,
                    bidirectional: false,
                })
            })
            .collect();
        let spec = GridSpec {
            volume: 1 << 20,
            deadline: Time::from_secs(10),
            workers: 4,
        };
        let par = run_grid(points.clone(), spec.clone());
        let ser = run_grid(points, GridSpec { workers: 1, ..spec });
        assert_eq!(par.len(), 4);
        for (a, b) in par.iter().zip(ser.iter()) {
            assert!(a.bw.completed && b.bw.completed);
            // Determinism: identical results regardless of thread count.
            assert_eq!(
                a.bw.mbps.to_bits(),
                b.bw.mbps.to_bits(),
                "parallelism changed a result"
            );
        }
    }
}
