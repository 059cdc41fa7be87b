//! Regression pins for the Figure 9 applications: FFT, RadixLocal and
//! WaterNSquared at their `small()` sizes on the 4 × 2 SVM cluster,
//! error-free and at a 1e-2 injected error rate.
//!
//! Every pinned value comes out of the discrete-event clock and the NIC
//! counters, not the wall clock, so exact equality is safe. A change to
//! the SVM protocol, the process executor or the network stack that moves
//! any simulated event moves these values; re-measure with
//! `cargo run --release --example cluster_compute` and update the pins.

use san_apps::{run_fft, run_radix, run_water, AppRun, FftConfig, RadixConfig, WaterConfig};
use san_ft::ProtocolConfig;
use san_svm::SvmConfig;

fn svm(error_rate: f64) -> SvmConfig {
    SvmConfig {
        proto: Some(ProtocolConfig::default().with_error_rate(error_rate)),
        ..SvmConfig::default()
    }
}

/// `want` is (simulated wall ns, injected drops, retransmits, packets tx).
fn check(label: &str, run: AppRun, want: (u64, u64, u64, u64)) {
    assert!(
        run.valid,
        "{label}: output must match the sequential reference"
    );
    let r = &run.report;
    let got = (
        r.wall.nanos(),
        r.injected_drops,
        r.retransmits,
        r.packets_tx,
    );
    assert_eq!(
        got, want,
        "{label}: (wall ns, injected drops, retransmits, packets tx)"
    );
}

#[test]
fn fft_small_is_pinned() {
    let run = |err| {
        run_fft(FftConfig {
            svm: svm(err),
            ..FftConfig::small()
        })
    };
    check("FFT error-free", run(0.0), (6_330_050, 0, 3, 630));
    check("FFT at 1e-2", run(1e-2), (8_115_850, 4, 13, 626));
}

#[test]
fn radix_small_is_pinned() {
    let run = |err| {
        run_radix(RadixConfig {
            svm: svm(err),
            ..RadixConfig::small()
        })
    };
    check("RadixLocal error-free", run(0.0), (17_738_210, 0, 5, 2_025));
    check(
        "RadixLocal at 1e-2",
        run(1e-2),
        (28_211_395, 18, 213, 2_007),
    );
}

#[test]
fn water_small_is_pinned() {
    let run = |err| {
        run_water(WaterConfig {
            svm: svm(err),
            ..WaterConfig::small()
        })
    };
    check("Water error-free", run(0.0), (9_933_938, 0, 6, 801));
    check("Water at 1e-2", run(1e-2), (17_206_592, 6, 53, 786));
}
