//! Six-step FFT (SPLASH-2 style).
//!
//! The n-point data set is a √n×√n row-major matrix of complex doubles.
//! One iteration performs: transpose → row FFTs → twiddle multiply →
//! transpose → row FFTs → transpose. Rows are block-partitioned over the
//! processes; the transposes are the all-to-all, bandwidth-bound phases the
//! paper's intro calls out ("high communication, bandwidth limited").
//!
//! The kernel computes a real FFT on real data; the parallel result is
//! bit-identical to the sequential reference (same operations in the same
//! per-element order), which the tests assert.

use std::cell::RefCell;
use std::rc::Rc;

use san_svm::{page_of, proc_body, run_svm, ProcBody, Svm, SvmConfig};

use crate::common::{flops, AppRun, InputRng};

/// Complex number as a pair (re, im).
pub type C = (f64, f64);

const BYTES_PER_ELEM: usize = 16;

/// FFT experiment configuration.
#[derive(Debug, Clone)]
pub struct FftConfig {
    /// log2 of the point count (must be even; the matrix is 2^(k/2) square).
    pub points_log2: u32,
    /// Whole-transform iterations (the paper runs 18 to lengthen the run).
    pub iterations: u32,
    /// SVM/cluster configuration.
    pub svm: SvmConfig,
    /// Input seed.
    pub seed: u64,
}

impl FftConfig {
    /// A small configuration for tests: 4096 points, 1 iteration.
    pub fn small() -> Self {
        Self {
            points_log2: 12,
            iterations: 1,
            svm: SvmConfig::default(),
            seed: 42,
        }
    }

    /// The paper's problem size: 1 M points, 18 iterations (Table 2).
    pub fn paper() -> Self {
        Self {
            points_log2: 20,
            iterations: 18,
            svm: SvmConfig::default(),
            seed: 42,
        }
    }

    /// Matrix dimension m = √n.
    pub fn m(&self) -> usize {
        assert!(
            self.points_log2.is_multiple_of(2),
            "six-step FFT needs an even log2 size"
        );
        1usize << (self.points_log2 / 2)
    }

    /// Total points.
    pub fn n(&self) -> usize {
        1usize << self.points_log2
    }

    /// Pages needed for the two matrices.
    pub fn pages_needed(&self) -> u32 {
        (2 * self.n() * BYTES_PER_ELEM).div_ceil(4096) as u32 + 2
    }
}

/// In-place iterative radix-2 FFT of a row (size must be a power of two).
/// ~5·m·log2(m) flops.
pub fn fft_row(row: &mut [C]) {
    let m = row.len();
    assert!(m.is_power_of_two());
    // Bit reversal.
    let bits = m.trailing_zeros();
    for i in 0..m {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            row.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= m {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < m {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ar, ai) = row[i + k];
                let (br, bi) = row[i + k + len / 2];
                let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                row[i + k] = (ar + tr, ai + ti);
                row[i + k + len / 2] = (ar - tr, ai - ti);
                let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                cr = ncr;
                ci = nci;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Sequential six-step FFT reference (identical operation order to the
/// parallel kernel).
pub fn fft_reference(data: &mut [C], iterations: u32) {
    let n = data.len();
    let m = (n as f64).sqrt() as usize;
    assert_eq!(m * m, n);
    let mut src = data.to_vec();
    let mut dst = vec![(0.0, 0.0); n];
    for _ in 0..iterations {
        transpose(&src, &mut dst, m);
        for r in 0..m {
            fft_row(&mut dst[r * m..(r + 1) * m]);
            twiddle_row(&mut dst[r * m..(r + 1) * m], r, m);
        }
        transpose(&dst, &mut src, m);
        for r in 0..m {
            fft_row(&mut src[r * m..(r + 1) * m]);
        }
        transpose(&src, &mut dst, m);
        std::mem::swap(&mut src, &mut dst);
    }
    data.copy_from_slice(&src);
}

fn transpose(src: &[C], dst: &mut [C], m: usize) {
    for r in 0..m {
        for c in 0..m {
            dst[c * m + r] = src[r * m + c];
        }
    }
}

fn twiddle_row(row: &mut [C], r: usize, m: usize) {
    let n = (m * m) as f64;
    for (c, v) in row.iter_mut().enumerate() {
        let ang = -2.0 * std::f64::consts::PI * (r * c) as f64 / n;
        let (wr, wi) = (ang.cos(), ang.sin());
        *v = (v.0 * wr - v.1 * wi, v.0 * wi + v.1 * wr);
    }
}

/// Generate the deterministic input.
pub fn fft_input(cfg: &FftConfig) -> Vec<C> {
    let mut rng = InputRng::new(cfg.seed);
    (0..cfg.n())
        .map(|_| (rng.next_f64() - 0.5, rng.next_f64() - 0.5))
        .collect()
}

struct FftShared {
    a: RefCell<Vec<C>>, // matrix A
    b: RefCell<Vec<C>>, // matrix B (transpose target)
}

/// Declare SVM reads for the source block columns and writes for the
/// destination rows of a blocked transpose, then perform it on real data.
#[allow(clippy::too_many_arguments)]
async fn transpose_phase(
    svm: &mut Svm,
    shared: &FftShared,
    from_a: bool,
    m: usize,
    procs: usize,
    p: usize,
    a_base: u32,
    b_base: u32,
) {
    let chunk = m / procs;
    let (src_base, dst_base) = if from_a {
        (a_base, b_base)
    } else {
        (b_base, a_base)
    };
    // Writes: my rows of dst, a contiguous page range.
    let first = page_of(dst_base, p * chunk * m, BYTES_PER_ELEM);
    let last = page_of(
        dst_base,
        ((p + 1) * chunk * m - 1).max(p * chunk * m),
        BYTES_PER_ELEM,
    );
    svm.write_range(first, last).await;
    // Reads: for every peer q, the block (rows q·chunk.., my column range).
    for q in 0..procs {
        for r in q * chunk..(q + 1) * chunk {
            let lo = page_of(src_base, r * m + p * chunk, BYTES_PER_ELEM);
            let hi = page_of(src_base, r * m + (p + 1) * chunk - 1, BYTES_PER_ELEM);
            svm.read_range(lo, hi).await;
        }
    }
    // Real data movement: dst[c][r] = src[r][c] for my destination rows
    // (destination row index = source column index in my column range).
    {
        let (src, mut dst) = if from_a {
            (shared.a.borrow(), shared.b.borrow_mut())
        } else {
            (shared.b.borrow(), shared.a.borrow_mut())
        };
        for c in p * chunk..(p + 1) * chunk {
            for r in 0..m {
                dst[c * m + r] = src[r * m + c];
            }
        }
    }
    // ~2 ops per element moved (load + store).
    svm.compute(flops((2 * chunk * m) as u64)).await;
}

/// Run the parallel FFT; returns the run plus validation verdict.
pub fn run_fft(cfg: FftConfig) -> AppRun {
    let m = cfg.m();
    let n = cfg.n();
    let procs = cfg.svm.nodes * cfg.svm.procs_per_node;
    assert!(
        m.is_multiple_of(procs),
        "m={m} must divide by {procs} processes"
    );
    let input = fft_input(&cfg);
    let shared = Rc::new(FftShared {
        a: RefCell::new(input.clone()),
        b: RefCell::new(vec![(0.0, 0.0); n]),
    });
    let a_base = 0u32;
    let b_base = (n * BYTES_PER_ELEM).div_ceil(4096) as u32;
    let mut svm_cfg = cfg.svm.clone();
    svm_cfg.pages = svm_cfg.pages.max(cfg.pages_needed());

    let bodies: Vec<ProcBody> = (0..procs)
        .map(|p| {
            let sh = shared.clone();
            let cfg = cfg.clone();
            proc_body(move |mut svm| async move {
                let chunk = m / procs;
                let row_fft_flops = (5 * m as u64 * m.trailing_zeros() as u64
                    + 6 * m as u64/* twiddle */)
                    * chunk as u64;
                for _ in 0..cfg.iterations {
                    // Step 1: transpose A -> B.
                    transpose_phase(&mut svm, &sh, true, m, procs, p, a_base, b_base).await;
                    svm.barrier().await;
                    // Step 2+3: FFT my rows of B, then twiddle.
                    {
                        let lo = page_of(b_base, p * chunk * m, BYTES_PER_ELEM);
                        let hi = page_of(b_base, (p + 1) * chunk * m - 1, BYTES_PER_ELEM);
                        svm.write_range(lo, hi).await;
                        let mut b = sh.b.borrow_mut();
                        for r in p * chunk..(p + 1) * chunk {
                            fft_row(&mut b[r * m..(r + 1) * m]);
                            twiddle_row(&mut b[r * m..(r + 1) * m], r, m);
                        }
                    }
                    svm.compute(flops(row_fft_flops)).await;
                    svm.barrier().await;
                    // Step 4: transpose B -> A.
                    transpose_phase(&mut svm, &sh, false, m, procs, p, a_base, b_base).await;
                    svm.barrier().await;
                    // Step 5: FFT my rows of A.
                    {
                        let lo = page_of(a_base, p * chunk * m, BYTES_PER_ELEM);
                        let hi = page_of(a_base, (p + 1) * chunk * m - 1, BYTES_PER_ELEM);
                        svm.write_range(lo, hi).await;
                        let mut a = sh.a.borrow_mut();
                        for r in p * chunk..(p + 1) * chunk {
                            fft_row(&mut a[r * m..(r + 1) * m]);
                        }
                    }
                    svm.compute(flops(row_fft_flops)).await;
                    svm.barrier().await;
                    // Step 6: transpose A -> B, then adopt B as the data.
                    transpose_phase(&mut svm, &sh, true, m, procs, p, a_base, b_base).await;
                    svm.barrier().await;
                    // One process swaps the matrices (pointer swap on the
                    // shared heap; pages logically swap identity too, which
                    // the next iteration's declarations capture).
                    if p == 0 {
                        sh.a.swap(&sh.b);
                    }
                    svm.barrier().await;
                }
            })
        })
        .collect();

    let report = run_svm(svm_cfg, bodies);
    // Validate against the sequential reference (exact match: identical
    // operation order).
    let mut reference = input;
    fft_reference(&mut reference, cfg.iterations);
    let result = shared.a.borrow();
    let valid = report.completed
        && result.len() == reference.len()
        && result.iter().zip(reference.iter()).all(|(x, y)| x == y);
    AppRun { report, valid }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_sim::Duration;

    #[test]
    fn fft_row_matches_dft() {
        let mut rng = InputRng::new(1);
        let m = 64;
        let row: Vec<C> = (0..m)
            .map(|_| (rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        let mut out = row.clone();
        fft_row(&mut out);
        // Direct DFT.
        for (k, got) in out.iter().enumerate() {
            let mut acc = (0.0f64, 0.0f64);
            for (j, &(re, im)) in row.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (j * k) as f64 / m as f64;
                let (c, s) = (ang.cos(), ang.sin());
                acc.0 += re * c - im * s;
                acc.1 += re * s + im * c;
            }
            assert!(
                (acc.0 - got.0).abs() < 1e-9 && (acc.1 - got.1).abs() < 1e-9,
                "bin {k}"
            );
        }
    }

    #[test]
    fn six_step_reference_matches_direct_fft() {
        // The six-step algorithm computes a (permuted-free) full FFT: check
        // against a single flat FFT of the whole signal.
        let n = 256usize;
        let mut rng = InputRng::new(5);
        let data: Vec<C> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();
        let mut six = data.clone();
        fft_reference(&mut six, 1);
        let mut flat = data;
        fft_row(&mut flat);
        for (a, b) in six.iter().zip(flat.iter()) {
            assert!((a.0 - b.0).abs() < 1e-8 && (a.1 - b.1).abs() < 1e-8);
        }
    }

    #[test]
    fn parallel_fft_validates_and_communicates() {
        let run = run_fft(FftConfig::small());
        assert!(run.report.completed, "FFT must finish");
        assert!(
            run.valid,
            "parallel result must equal the sequential reference"
        );
        let agg = run.report.aggregate();
        assert!(agg.data > Duration::ZERO, "transposes must move pages");
        assert!(agg.barrier > Duration::ZERO);
        assert!(agg.compute > Duration::ZERO);
        assert!(run.report.packets_tx > 0);
    }
}
