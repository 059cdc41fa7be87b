//! Figure 9: FFT, RadixLocal and WaterNSquared execution-time breakdowns,
//! grouped by error rate, each group with the four parameter configurations
//! r100µs-q2, r100µs-q32, r1ms-q2, r1ms-q32.
//!
//! The paper lengthens each run so that at least ten packets are dropped at
//! the lowest rate (§5.1.4); this harness does the same by scaling the
//! iteration count and reporting per-base-iteration bucket times. Each
//! configuration's error-free packet count is calibrated once, and every
//! row of an application's table, error-free rows included, runs at the
//! one multiplicity the most demanding (rate, configuration) pair needs.
//! So every row spreads the run's one-off cold start over the same number
//! of base runs, and bars compare across rates. Quick mode uses rates
//! {0, 1e-3, 1e-2} — the scaled-down problems would need hours to see
//! 1e-4; `--full` uses the paper's {0, 1e-4, 1e-3}.

use san_apps::{run_fft, run_radix, run_water, FftConfig, RadixConfig, WaterConfig};
use san_bench::{parse_mode, tsv, RunMode};
use san_ft::ProtocolConfig;
use san_nic::ClusterConfig;
use san_sim::Duration;
use san_svm::{SvmConfig, SvmReport, TimeBreakdown};

fn svm_cfg(timer: Duration, queue: u16, err: f64) -> SvmConfig {
    SvmConfig {
        cluster: ClusterConfig {
            send_bufs: queue,
            ..Default::default()
        },
        proto: Some(
            ProtocolConfig::default()
                .with_timeout(timer)
                .with_error_rate(err),
        ),
        ..SvmConfig::default()
    }
}

/// Run `app` with `mult`× the base iterations; returns the report, validity
/// and the multiplier used.
fn run_app(app: &str, mode: RunMode, svm: SvmConfig, mult: u32) -> (SvmReport, bool) {
    match app {
        "FFT" => {
            let mut cfg = if mode == RunMode::Full {
                FftConfig {
                    points_log2: 16,
                    ..FftConfig::small()
                }
            } else {
                FftConfig::small()
            };
            cfg.iterations *= mult;
            cfg.svm = svm;
            let r = run_fft(cfg);
            (r.report, r.valid)
        }
        "RadixLocal" => {
            let mut cfg = if mode == RunMode::Full {
                RadixConfig {
                    keys: 128 * 1024,
                    ..RadixConfig::small()
                }
            } else {
                RadixConfig::small()
            };
            cfg.iterations *= mult;
            cfg.svm = svm;
            let r = run_radix(cfg);
            (r.report, r.valid)
        }
        "WaterNSquared" => {
            let mut cfg = if mode == RunMode::Full {
                WaterConfig {
                    molecules: 512,
                    ..WaterConfig::small()
                }
            } else {
                WaterConfig::small()
            };
            cfg.steps *= mult;
            cfg.svm = svm;
            let r = run_water(cfg);
            (r.report, r.valid)
        }
        _ => unreachable!(),
    }
}

fn scale(bd: &TimeBreakdown, mult: u32) -> TimeBreakdown {
    TimeBreakdown {
        compute: bd.compute / mult as u64,
        data: bd.data / mult as u64,
        lock: bd.lock / mult as u64,
        barrier: bd.barrier / mult as u64,
    }
}

fn main() {
    let mode = parse_mode();
    let errors: [f64; 3] = if mode == RunMode::Full {
        [0.0, 1e-4, 1e-3]
    } else {
        [0.0, 1e-3, 1e-2]
    };
    let params: [(&str, Duration, u16); 4] = [
        ("r100us-q2", Duration::from_micros(100), 2),
        ("r100us-q32", Duration::from_micros(100), 32),
        ("r1ms-q2", Duration::from_millis(1), 2),
        ("r1ms-q32", Duration::from_millis(1), 32),
    ];

    for app in ["FFT", "RadixLocal", "WaterNSquared"] {
        println!("Figure 9: {app} execution-time breakdown (ms per base run, summed over procs)");
        println!();
        println!(
            "{:<8} {:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6} {:>6}",
            "err", "config", "compute", "data", "lock", "barrier", "wall", "mult", "ok"
        );
        // Calibrate each configuration's error-free packet volume once; the
        // table's multiplicity is the largest any (rate, config) needs to
        // drop about a dozen packets.
        let packets: Vec<u64> = params
            .iter()
            .map(|(_, timer, queue)| {
                let (report, _) = run_app(app, mode, svm_cfg(*timer, *queue, 0.0), 1);
                report.packets_tx.max(1)
            })
            .collect();
        let mult = errors
            .iter()
            .filter(|&&err| err > 0.0)
            .flat_map(|&err| {
                packets
                    .iter()
                    .map(move |&pkts| (((12.0 / err) as u64).div_ceil(pkts) as u32).clamp(1, 40))
            })
            .max()
            .unwrap_or(1);
        for &err in &errors {
            for (label, timer, queue) in &params {
                let (report, valid) = run_app(app, mode, svm_cfg(*timer, *queue, err), mult);
                let bd = scale(&report.aggregate(), mult);
                let wall = report.wall / mult as u64;
                println!(
                    "{:<8} {:<12} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>6} {:>6}",
                    if err == 0.0 {
                        "0".into()
                    } else {
                        format!("{err:.0e}")
                    },
                    label,
                    bd.compute.as_millis_f64(),
                    bd.data.as_millis_f64(),
                    bd.lock.as_millis_f64(),
                    bd.barrier.as_millis_f64(),
                    wall.as_millis_f64(),
                    mult,
                    valid
                );
                tsv(&[
                    app.into(),
                    format!("{err:.0e}"),
                    label.to_string(),
                    format!("{:.3}", bd.compute.as_millis_f64()),
                    format!("{:.3}", bd.data.as_millis_f64()),
                    format!("{:.3}", bd.lock.as_millis_f64()),
                    format!("{:.3}", bd.barrier.as_millis_f64()),
                    format!("{:.3}", wall.as_millis_f64()),
                    mult.to_string(),
                    valid.to_string(),
                ]);
            }
            println!();
        }
    }
    println!("Paper: Water nearly flat everywhere; FFT/Radix flat up to 1e-4, degrading");
    println!(">20% at 1e-3; parameter choice shifts results up to ~19% within a rate.");

    if let Some(dir) = san_bench::telemetry_dir() {
        // Instrumented run: a small error-free FFT under the best
        // parameters — the export shows the svm.node.* wait histograms and
        // vmmc.node.* message counters on top of the fabric/NIC families.
        let tel = san_telemetry::Telemetry::with_trace(1 << 16);
        let mut svm = svm_cfg(Duration::from_millis(1), 32, 0.0);
        svm.cluster.telemetry = tel.clone();
        run_app("FFT", RunMode::Quick, svm, 1);
        san_bench::emit_telemetry(&dir, "fig9", &tel);
    }
}
