//! `tenants_lossy`: the protocol-heavy workload.
//!
//! fat_tree:8 (128 hosts) carries 256 open-loop Poisson tenants at
//! 2000 msg/s each, lognormal sizes (4 KiB median, σ = 1, 64 KiB cap) to
//! uniform destinations, for a 20 ms window with a backlog bound of 4, over
//! 2e-3 wire loss with the adaptive RTO, window damping and host-level
//! recovery on. It sits just below the congestion knee, so latency measured
//! from each arrival's due time stays meaningful, and its retransmission
//! timers and Poisson wake-ups sit far ahead of the clock — the timing wheel
//! sees a different mix than in `perm1024`.
//!
//! Set-up and run are [`san_workload::run()`] split in two, so the set-up can
//! be timed on its own and the run can go through the traced loop; a test
//! pins the split copy to the library function's report.

use san_fabric::TransientFaults;
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::{Cluster, ClusterConfig, Firmware};
use san_sim::{Duration, Time};
use san_telemetry::Telemetry;
use san_topo::{TopoClass, TopoSpec};
use san_workload::{
    build_hosts, ArrivalSpec, DestSpec, RunConfig, SizeSpec, WorkloadDriver, WorkloadOptions,
    WorkloadReport, WorkloadSpec,
};

use crate::cluster::{finish, Driver};
use crate::pass::{timed, Params, Pass};
use crate::stats::{median, ratio, Digest};

/// Completion-check slice, as in `san_workload::run`.
const SLICE_MS: u64 = 5;

/// The run configuration for one unit (seed).
pub fn config(tiny: bool, seed: u64) -> RunConfig {
    let (tenants, window_ms, topo) = if tiny {
        (16, 2, "fat_tree:4")
    } else {
        (256, 20, "fat_tree:8")
    };
    RunConfig {
        spec: WorkloadSpec {
            tenants,
            arrival: ArrivalSpec::Poisson { rate: 2_000.0 },
            size: SizeSpec::Lognormal {
                median: 4_096,
                sigma: 1.0,
                cap: 65_536,
            },
            dest: DestSpec::Uniform,
            window_ms,
            max_backlog: 4,
        },
        topo: TopoSpec::parse(topo).expect("atlas spec"),
        seed,
        adaptive: true,
        loss: 2e-3,
        corrupt: 0.0,
        host_recovery: true,
        grace_ms: 500,
        telemetry: Telemetry::new(),
        register_metrics: false,
    }
}

/// The unit seeds of one pass: 16 consecutive seeds per workload seed, so
/// the default seed 1 runs unit seeds 1..=16.
fn unit_seeds(p: &Params) -> Vec<u64> {
    let n: u64 = if p.tiny { 2 } else { 16 };
    let base = p.seed.wrapping_sub(1).wrapping_mul(n).wrapping_add(1);
    (0..n).map(|k| base.wrapping_add(k)).collect()
}

/// `san_workload::run`'s stream-seed derivation.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The set-up half of `san_workload::run`: fabric, agents, cluster,
/// routes, wire faults.
fn build(cfg: &RunConfig, driver: &Driver) -> (Cluster, WorkloadDriver) {
    let built = cfg.topo.build();
    let n = built.hosts.len();
    let opts = WorkloadOptions {
        seed: mix_seed(cfg.seed, 2),
        telemetry: cfg.telemetry.clone(),
        record_segments: false,
        register_metrics: cfg.register_metrics,
        host_recovery: cfg.host_recovery,
    };
    let (ledger, agents) = build_hosts(&cfg.spec, &built.hosts, &built.hosts, &opts);
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
        |_| -> Box<dyn Firmware> {
            driver.firmware(Box::new(ReliableFirmware::new(
                proto.clone(),
                MapperConfig::default(),
                n,
            )))
        },
        agents,
    );
    match cfg.topo.class() {
        TopoClass::Torus2D | TopoClass::Torus3D | TopoClass::Regular => {
            cluster.install_updown_routes()
        }
        _ => cluster.install_shortest_routes(),
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
    (cluster, ledger)
}

/// The run half of `san_workload::run`: slices until the window has closed,
/// everything posted is delivered and the transport has drained, or the
/// grace deadline. Returns the time of the last event.
fn drive(c: &mut Cluster, ledger: &WorkloadDriver, cfg: &RunConfig, driver: &mut Driver) -> Time {
    let window = Time::from_millis(cfg.spec.window_ms);
    let deadline = Time::from_millis(cfg.spec.window_ms + cfg.grace_ms);
    let mut t = Time::from_millis(SLICE_MS.min(cfg.spec.window_ms));
    loop {
        let now = driver.run_until(c, t);
        if now >= window {
            let complete = ledger.total_delivered() >= ledger.total_posted();
            let drained = c.nics.iter().all(|nic| {
                nic.fw
                    .as_any()
                    .downcast_ref::<ReliableFirmware>()
                    .is_some_and(|fw| fw.drained())
            });
            if complete && drained {
                return now;
            }
        }
        if t >= deadline {
            return now;
        }
        t += Duration::from_millis(SLICE_MS);
    }
}

/// Build and run one unit plainly; the report `san_workload::run` gives.
pub fn run_plain(cfg: &RunConfig) -> WorkloadReport {
    let mut driver = Driver::new(false);
    let (mut c, ledger) = build(cfg, &driver);
    drive(&mut c, &ledger, cfg, &mut driver);
    ledger.report()
}

/// One pass: 16 seeds (2 on fat_tree:4 when tiny).
pub fn pass(p: &Params, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let (_, wall) = timed(|| {
        let mut d = Digest::default();
        let (mut goodput, mut p99, mut p999) = (Vec::new(), Vec::new(), Vec::new());
        let (mut shed, mut offered) = (0u64, 0u64);
        for seed in unit_seeds(p) {
            let cfg = config(p.tiny, seed);
            let mut driver = Driver::new(traced);
            let ((mut c, ledger), setup) = timed(|| build(&cfg, &driver));
            let (end, run) = timed(|| drive(&mut c, &ledger, &cfg, &mut driver));
            pass.setup_s.push(setup);
            pass.unit_s.push(run);
            pass.attempted += 1;

            let r = ledger.report();
            if r.delivered_total != r.posted_total || r.posted_total == 0 {
                pass.fail(format!(
                    "tenants_lossy seed {seed}: delivered {}/{} posted",
                    r.delivered_total, r.posted_total
                ));
            }
            d.u64s(&[
                seed,
                r.offered_total,
                r.posted_total,
                r.delivered_total,
                r.delivered_bytes,
                r.shed_total,
                r.p99_ns,
                r.p999_ns,
                r.fairness.to_bits(),
            ]);
            d.u64s(&driver.outcome(&c, end));
            goodput.push(r.delivered_mb_per_s());
            p99.push(r.p99_ns as f64 / 1e3);
            p999.push(r.p999_ns as f64 / 1e3);
            shed += r.shed_total;
            offered += r.offered_total;
            driver.absorb(&c, &mut pass.layers);
        }
        pass.digest = d;
        pass.layers.insert("sim.goodput_mb_s", median(&goodput));
        pass.layers.insert("sim.p99_us", median(&p99));
        pass.layers.insert("sim.p999_us", median(&p999));
        pass.layers
            .insert("sim.shed_ratio", ratio(shed as f64, offered as f64));
    });
    pass.wall_s = wall;
    finish(&mut pass.layers);
    pass
}
