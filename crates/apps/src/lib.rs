//! # san-apps — SPLASH-2-style application kernels on simulated SVM
//!
//! The paper's application experiments (§5.1.4, Table 2, Figure 9) run three
//! programs from the SPLASH-2 suite, as restructured by Jiang et al. \[19\],
//! on 4 nodes × 2 processors over the GeNIMA SVM:
//!
//! * **FFT** — six-step 1-D FFT (√n×√n matrix, transpose / row-FFT+twiddle /
//!   transpose / row-FFT / transpose). Single-writer, bandwidth-bound
//!   all-to-all transposes.
//! * **RadixLocal** — LSD radix sort with the locality-improved permutation
//!   of \[19\]: ranks make each processor's writes per digit contiguous.
//!   Fine-grained, latency-sensitive histogram/permutation communication.
//! * **WaterNSquared** — O(n²) molecular dynamics; tiny
//!   communication-to-computation ratio but heavy lock synchronization
//!   (force-merge locks per partition + a global energy lock).
//!
//! Each kernel computes on **real data** (the algorithms are real; outputs
//! are validated against sequential references) while declaring its shared
//! accesses to the SVM layer, which turns them into page fetches, flushes,
//! lock and barrier traffic through the full simulated network stack.
//!
//! Problem sizes are configurable; the paper's sizes (1 M points, 4 M keys,
//! 4096 molecules) are `*Config::paper()`, and scaled-down versions run in
//! seconds for tests.

pub mod common;
pub mod fft;
pub mod radix;
pub mod water;

pub use common::{flops, AppRun};
pub use fft::{run_fft, FftConfig};
pub use radix::{run_radix, RadixConfig};
pub use water::{run_water, WaterConfig};
