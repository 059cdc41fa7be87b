//! RadixLocal — LSD radix sort with locality-improved permutation.
//!
//! Per digit pass: (1) each process histograms its contiguous key block,
//! (2) histograms are published to shared pages and a barrier makes them
//! globally visible, (3) every process reads *all* histograms and computes
//! its own write offsets (the fine-grained, latency-sensitive exchange the
//! paper's intro describes), (4) keys are permuted into the destination
//! array — the [19] restructuring makes each process's writes per digit a
//! contiguous run, which is what "RadixLocal" improves over original Radix.
//!
//! Sorting is stable per pass, so the multi-pass LSD sort is exact; the
//! result is validated against `slice::sort`.

use std::cell::RefCell;
use std::rc::Rc;

use san_svm::{page_of, proc_body, run_svm, ProcBody, Svm, SvmConfig};

use crate::common::{flops, AppRun, InputRng};

const BYTES_PER_KEY: usize = 4;

/// Radix sort configuration.
#[derive(Debug, Clone)]
pub struct RadixConfig {
    /// Number of keys.
    pub keys: usize,
    /// Digit width in bits (SPLASH default radix 1024 = 10 bits).
    pub digit_bits: u32,
    /// Whole-sort iterations (the paper runs 5 to lengthen the run).
    pub iterations: u32,
    /// SVM/cluster configuration.
    pub svm: SvmConfig,
    /// Input seed.
    pub seed: u64,
}

impl RadixConfig {
    /// Small test configuration.
    pub fn small() -> Self {
        Self {
            keys: 16 * 1024,
            digit_bits: 8,
            iterations: 1,
            svm: SvmConfig::default(),
            seed: 42,
        }
    }

    /// The paper's problem size: 4 M keys, 5 iterations (Table 2).
    pub fn paper() -> Self {
        Self {
            keys: 4 * 1024 * 1024,
            digit_bits: 10,
            iterations: 5,
            svm: SvmConfig::default(),
            seed: 42,
        }
    }

    /// Buckets per digit.
    pub fn radix(&self) -> usize {
        1usize << self.digit_bits
    }

    /// Number of LSD passes for 32-bit keys.
    pub fn passes(&self) -> u32 {
        32u32.div_ceil(self.digit_bits)
    }

    /// Shared pages: two key arrays + the histogram area.
    pub fn pages_needed(&self, procs: usize) -> u32 {
        let keys_pages = (self.keys * BYTES_PER_KEY).div_ceil(4096) as u32;
        let hist_pages = (procs * self.radix() * BYTES_PER_KEY).div_ceil(4096) as u32;
        2 * keys_pages + hist_pages + 2
    }
}

struct RadixShared {
    src: RefCell<Vec<u32>>,
    dst: RefCell<Vec<u32>>,
    hist: RefCell<Vec<u32>>, // procs × radix
}

/// Deterministic input keys.
pub fn radix_input(cfg: &RadixConfig) -> Vec<u32> {
    let mut rng = InputRng::new(cfg.seed);
    (0..cfg.keys).map(|_| rng.next_u32()).collect()
}

/// Declare writes for a set of (possibly scattered) destination positions:
/// one SVM write per distinct page touched.
async fn declare_write_pages(svm: &mut Svm, base: u32, positions: &[usize], bytes_per_elem: usize) {
    let mut pages: Vec<u32> = positions
        .iter()
        .map(|&i| page_of(base, i, bytes_per_elem))
        .collect();
    pages.sort_unstable();
    pages.dedup();
    for p in pages {
        svm.write(p).await;
    }
}

/// Run the parallel radix sort.
pub fn run_radix(cfg: RadixConfig) -> AppRun {
    let procs = cfg.svm.nodes * cfg.svm.procs_per_node;
    let n = cfg.keys;
    assert!(
        n.is_multiple_of(procs),
        "keys must divide evenly over processes"
    );
    let radix = cfg.radix();
    let chunk = n / procs;
    let input = radix_input(&cfg);
    let shared = Rc::new(RadixShared {
        src: RefCell::new(input.clone()),
        dst: RefCell::new(vec![0; n]),
        hist: RefCell::new(vec![0; procs * radix]),
    });
    let src_base = 0u32;
    let dst_base = (n * BYTES_PER_KEY).div_ceil(4096) as u32;
    let hist_base = 2 * dst_base;
    let mut svm_cfg = cfg.svm.clone();
    svm_cfg.pages = svm_cfg.pages.max(cfg.pages_needed(procs));

    let bodies: Vec<ProcBody> = (0..procs)
        .map(|p| {
            let sh = shared.clone();
            let cfg = cfg.clone();
            proc_body(move |mut svm| async move {
                for _ in 0..cfg.iterations {
                    for pass in 0..cfg.passes() {
                        let shift = pass * cfg.digit_bits;
                        let mask = (radix - 1) as u32;
                        // (1) Local histogram of my key block.
                        let local_hist: Vec<u32> = {
                            let lo = page_of(src_base, p * chunk, BYTES_PER_KEY);
                            let hi = page_of(src_base, (p + 1) * chunk - 1, BYTES_PER_KEY);
                            svm.read_range(lo, hi).await;
                            let src = sh.src.borrow();
                            let mut h = vec![0u32; radix];
                            for &k in &src[p * chunk..(p + 1) * chunk] {
                                h[((k >> shift) & mask) as usize] += 1;
                            }
                            h
                        };
                        svm.compute(flops(chunk as u64 * 2)).await;
                        // (2) Publish my histogram.
                        {
                            let lo = page_of(hist_base, p * radix, BYTES_PER_KEY);
                            let hi = page_of(hist_base, (p + 1) * radix - 1, BYTES_PER_KEY);
                            svm.write_range(lo, hi).await;
                            let mut hist = sh.hist.borrow_mut();
                            hist[p * radix..(p + 1) * radix].copy_from_slice(&local_hist);
                        }
                        svm.barrier().await;
                        // (3) Read everyone's histograms; compute my offsets.
                        let offsets: Vec<usize> = {
                            let lo = page_of(hist_base, 0, BYTES_PER_KEY);
                            let hi = page_of(hist_base, procs * radix - 1, BYTES_PER_KEY);
                            svm.read_range(lo, hi).await;
                            let hist = sh.hist.borrow();
                            // offset[d] = all keys with digit < d, plus keys
                            // with digit d on processes before me.
                            let mut off = vec![0usize; radix];
                            let mut running = 0usize;
                            for d in 0..radix {
                                for q in 0..procs {
                                    if q == p {
                                        off[d] = running;
                                    }
                                    running += hist[q * radix + d] as usize;
                                }
                            }
                            off
                        };
                        svm.compute(flops((radix * procs) as u64)).await;
                        // (4) Permute my keys into dst (stable: scan in
                        // order, each digit's run is contiguous — the
                        // locality improvement of [19]).
                        {
                            let src_lo = page_of(src_base, p * chunk, BYTES_PER_KEY);
                            let src_hi = page_of(src_base, (p + 1) * chunk - 1, BYTES_PER_KEY);
                            svm.read_range(src_lo, src_hi).await;
                            // Compute destination positions first so page
                            // declarations cover exactly what is touched.
                            let (positions, keys): (Vec<usize>, Vec<u32>) = {
                                let src = sh.src.borrow();
                                let mut off = offsets.clone();
                                let mut pos = Vec::with_capacity(chunk);
                                let mut ks = Vec::with_capacity(chunk);
                                for &k in &src[p * chunk..(p + 1) * chunk] {
                                    let d = ((k >> shift) & mask) as usize;
                                    pos.push(off[d]);
                                    off[d] += 1;
                                    ks.push(k);
                                }
                                (pos, ks)
                            };
                            declare_write_pages(&mut svm, dst_base, &positions, BYTES_PER_KEY)
                                .await;
                            let mut dst = sh.dst.borrow_mut();
                            for (&at, &k) in positions.iter().zip(keys.iter()) {
                                dst[at] = k;
                            }
                        }
                        svm.compute(flops(chunk as u64 * 3)).await;
                        svm.barrier().await;
                        // Swap src/dst (one process does the real swap).
                        if p == 0 {
                            sh.src.swap(&sh.dst);
                        }
                        svm.barrier().await;
                    }
                }
            })
        })
        .collect();

    let report = run_svm(svm_cfg, bodies);
    let mut reference = input;
    reference.sort_unstable();
    let result = shared.src.borrow();
    let valid = report.completed && *result == reference;
    AppRun { report, valid }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_sim::Duration;

    #[test]
    fn parallel_radix_sorts_correctly() {
        let run = run_radix(RadixConfig::small());
        assert!(run.report.completed, "radix must finish");
        assert!(run.valid, "parallel sort must match std sort");
        let agg = run.report.aggregate();
        assert!(agg.data > Duration::ZERO, "histogram/permutation traffic");
        assert!(agg.barrier > Duration::ZERO);
    }

    #[test]
    fn passes_cover_key_width() {
        let mut cfg = RadixConfig::small();
        cfg.digit_bits = 8;
        assert_eq!(cfg.passes(), 4);
        cfg.digit_bits = 10;
        assert_eq!(cfg.passes(), 4);
        cfg.digit_bits = 16;
        assert_eq!(cfg.passes(), 2);
    }

    #[test]
    fn input_is_deterministic() {
        let a = radix_input(&RadixConfig::small());
        let b = radix_input(&RadixConfig::small());
        assert_eq!(a, b);
    }
}
