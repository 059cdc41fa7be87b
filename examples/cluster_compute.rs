//! Cluster computing: run the three SPLASH-2-style kernels on the simulated
//! 4-node × 2-processor SVM cluster — once error-free and once with a 1e-2
//! injected error rate — and print the Figure 9 execution-time breakdowns
//! side by side. (These small runs send under 1,000 data packets per NIC,
//! so the paper's 1e-3 would inject no error at all.)
//!
//! Run with: `cargo run --release --example cluster_compute`

use san_apps::{run_fft, run_radix, run_water, AppRun, FftConfig, RadixConfig, WaterConfig};
use san_ft::ProtocolConfig;
use san_svm::SvmConfig;

fn breakdown(label: &str, run: &AppRun) {
    let bd = run.report.aggregate();
    println!(
        "  {label:<12} compute {:>8.2}ms  data {:>7.2}ms  lock {:>7.2}ms  barrier {:>7.2}ms  wall {:>7.2}ms  valid={}  drops={}",
        bd.compute.as_millis_f64(),
        bd.data.as_millis_f64(),
        bd.lock.as_millis_f64(),
        bd.barrier.as_millis_f64(),
        run.report.wall.as_millis_f64(),
        run.valid,
        run.report.injected_drops,
    );
}

fn svm_with(err: f64) -> SvmConfig {
    SvmConfig {
        proto: Some(ProtocolConfig::default().with_error_rate(err)),
        ..SvmConfig::default()
    }
}

fn main() {
    for (label, err) in [("error-free", 0.0), ("err 1e-2", 1e-2)] {
        println!("--- {label} ---");
        let fft = run_fft(FftConfig {
            svm: svm_with(err),
            ..FftConfig::small()
        });
        breakdown("FFT", &fft);
        assert!(fft.valid, "FFT output must match the sequential reference");

        let radix = run_radix(RadixConfig {
            svm: svm_with(err),
            ..RadixConfig::small()
        });
        breakdown("RadixLocal", &radix);
        assert!(radix.valid, "radix output must be sorted");

        let water = run_water(WaterConfig {
            svm: svm_with(err),
            ..WaterConfig::small()
        });
        breakdown("Water", &water);
        assert!(water.valid, "water must match the reference trajectory");
        if err > 0.0 {
            for run in [&fft, &radix, &water] {
                assert!(
                    run.report.injected_drops > 0,
                    "the error half must inject errors"
                );
            }
        }
        println!();
    }
    println!("Injected network errors slowed the runs but changed no result —");
    println!("the reliability firmware is transparent to the applications.");
}
