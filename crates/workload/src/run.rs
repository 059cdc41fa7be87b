//! One-call workload runs over atlas fabrics.
//!
//! [`run`] builds a fabric from a [`TopoSpec`], instantiates the
//! reliability firmware on every NIC (adaptive RTT/damping knobs
//! optional), drives a [`WorkloadSpec`] over it and returns the
//! [`WorkloadReport`]. `san-bench tenants` and the smoke gate are thin
//! sweeps around this; the chaos runner skips it and uses
//! [`crate::engine::build_hosts`] directly so its fault plans and oracle
//! stay in charge.

use san_fabric::TransientFaults;
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::{Cluster, ClusterConfig, Firmware};
use san_sim::{Duration, Time};
use san_telemetry::Telemetry;
use san_topo::TopoSpec;

use crate::engine::{build_hosts, WorkloadOptions};
use crate::spec::WorkloadSpec;
use crate::stats::WorkloadReport;

/// Polling slice for the completion check.
const SLICE_MS: u64 = 5;

/// A complete single-run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload to offer.
    pub spec: WorkloadSpec,
    /// The fabric to offer it over.
    pub topo: TopoSpec,
    /// Root seed (cluster RNG; the workload generators fork from it
    /// independently so arrival streams don't shift with fabric noise).
    pub seed: u64,
    /// Enable the adaptive response bundle (RTT-driven retransmission +
    /// window damping) on every NIC.
    pub adaptive: bool,
    /// Independent per-packet wire loss probability.
    pub loss: f64,
    /// Independent per-packet wire corruption probability.
    pub corrupt: f64,
    /// Host-level re-posting of `SendFailed` messages.
    pub host_recovery: bool,
    /// Drain grace after the arrival window closes, ms.
    pub grace_ms: u64,
    /// Telemetry sink (trace ring + metrics).
    pub telemetry: Telemetry,
    /// Register per-tenant metric cells. No caller and no test sets it, so
    /// the per-tenant metric path is dead; the field stays only because
    /// `perf/src/tenants.rs` names it.
    pub register_metrics: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            spec: WorkloadSpec::default(),
            topo: TopoSpec::Star(8),
            seed: 1,
            adaptive: false,
            loss: 0.0,
            corrupt: 0.0,
            host_recovery: false,
            grace_ms: 200,
            telemetry: Telemetry::new(),
            register_metrics: false,
        }
    }
}

/// Derive an independent stream seed: splitmix64 over seed ⊕ salt·φ.
/// The chaos crate's `mix_seed` also adds `0x6A09_E667_F3BC_C909` to the
/// salted term, so the two give different seeds, and they must stay
/// different: tenants_lossy's `sim_digest` and `perf/src/tenants.rs`'
/// copy of this function both use this version.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `cfg` to completion (arrival window + drain, bounded by the grace
/// deadline) and report.
pub fn run(cfg: &RunConfig) -> WorkloadReport {
    let built = cfg.topo.build();
    let n = built.hosts.len();

    let opts = WorkloadOptions {
        seed: mix_seed(cfg.seed, 2),
        telemetry: cfg.telemetry.clone(),
        record_segments: false,
        register_metrics: cfg.register_metrics,
        host_recovery: cfg.host_recovery,
    };
    let (driver, agents) = build_hosts(&cfg.spec, &built.hosts, &built.hosts, &opts);

    let cluster_cfg = ClusterConfig {
        seed: cfg.seed,
        telemetry: cfg.telemetry.clone(),
        ..ClusterConfig::default()
    };
    let mut proto = ProtocolConfig::default();
    if cfg.adaptive {
        proto = proto.with_adaptive_rto().with_window_damping();
    }
    let mut cluster = Cluster::new(
        built.topo,
        cluster_cfg,
        move |_| -> Box<dyn Firmware> {
            Box::new(ReliableFirmware::new(
                proto.clone(),
                MapperConfig::default(),
                n,
            ))
        },
        agents,
    );
    if cfg.topo.needs_updown() {
        cluster.install_updown_routes();
    } else {
        cluster.install_shortest_routes();
    }
    if cfg.loss > 0.0 || cfg.corrupt > 0.0 {
        cluster.engine.set_transient_faults(
            TransientFaults {
                loss_prob: cfg.loss,
                corrupt_prob: cfg.corrupt,
                burst: None,
            },
            mix_seed(cfg.seed, 1),
        );
    }

    // Run until the arrival window has closed, everything posted has been
    // delivered and the transport has drained — or the grace deadline.
    let window = Time::from_millis(cfg.spec.window_ms);
    let deadline = Time::from_millis(cfg.spec.window_ms + cfg.grace_ms);
    let mut t = Time::from_millis(SLICE_MS.min(cfg.spec.window_ms));
    loop {
        let now = cluster.run_until(t);
        if now >= window {
            let complete = driver.total_delivered() >= driver.total_posted();
            let drained = cluster.nics.iter().all(|nic| {
                nic.fw
                    .as_any()
                    .downcast_ref::<ReliableFirmware>()
                    .is_some_and(|fw| fw.drained())
            });
            if complete && drained {
                break;
            }
        }
        if t >= deadline {
            break;
        }
        t += Duration::from_millis(SLICE_MS);
    }

    driver.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ArrivalSpec, DestSpec, SizeSpec};

    fn small_cfg() -> RunConfig {
        RunConfig {
            spec: WorkloadSpec {
                tenants: 4,
                arrival: ArrivalSpec::Poisson { rate: 5_000.0 },
                size: SizeSpec::Fixed(2_048),
                dest: DestSpec::Uniform,
                window_ms: 2,
                max_backlog: 4,
            },
            topo: TopoSpec::Star(4),
            seed: 7,
            ..RunConfig::default()
        }
    }

    #[test]
    fn clean_fabric_delivers_everything_posted() {
        let r = run(&small_cfg());
        assert!(r.offered_total > 0, "arrivals must fire");
        assert!(r.delivered_total > 0, "deliveries must land");
        assert_eq!(
            r.delivered_total, r.posted_total,
            "clean fabric with drain grace completes every posted message"
        );
        assert!(r.p99_ns > 0);
        assert!(r.fairness > 0.5, "uniform tenants should be roughly fair");
    }

    #[test]
    fn identical_seeds_identical_reports() {
        let a = run(&small_cfg());
        let b = run(&small_cfg());
        assert_eq!(a, b, "a run is a pure function of its config");
    }

    #[test]
    fn incast_concentrates_on_victim() {
        let mut cfg = small_cfg();
        cfg.spec.dest = DestSpec::Incast;
        let r = run(&cfg);
        assert!(r.delivered_total > 0);
        assert_eq!(r.delivered_total, r.posted_total);
    }

    #[test]
    fn lossy_fabric_still_completes_via_retransmission() {
        let mut cfg = small_cfg();
        cfg.loss = 1e-3;
        cfg.grace_ms = 500;
        let r = run(&cfg);
        assert!(r.delivered_total > 0);
        assert_eq!(
            r.delivered_total, r.posted_total,
            "reliability layer must absorb 0.1% loss"
        );
    }
}
