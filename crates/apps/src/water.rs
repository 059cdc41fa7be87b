//! WaterNSquared — O(n²) molecular dynamics with heavy lock traffic.
//!
//! Each timestep: every process computes pair forces for its molecule block
//! against all later molecules (real Lennard-Jones-style math on real
//! coordinates), accumulates them into a private buffer, then merges the
//! buffer into the shared force array one partition at a time **under that
//! partition's lock** — the SPLASH-2 water pattern that gives the paper its
//! "uses lock synchronization heavily" workload. A global lock guards the
//! potential-energy sum. Integration is local, bracketed by barriers.
//!
//! Communication-to-computation ratio is tiny (O(n) data vs O(n²) flops),
//! which is why the paper finds Water insensitive to the network parameters.
//!
//! Parallel force merging changes floating-point accumulation *order*, so
//! validation against the sequential reference uses a tight relative
//! tolerance rather than bit equality.

use std::cell::RefCell;
use std::rc::Rc;

use san_svm::{page_of, proc_body, run_svm, ProcBody, SvmConfig};

use crate::common::{flops, AppRun, InputRng};

const BYTES_PER_VEC3: usize = 24;

/// Water simulation configuration.
#[derive(Debug, Clone)]
pub struct WaterConfig {
    /// Molecule count.
    pub molecules: usize,
    /// Timesteps (the paper runs 15).
    pub steps: u32,
    /// SVM/cluster configuration.
    pub svm: SvmConfig,
    /// Input seed.
    pub seed: u64,
}

impl WaterConfig {
    /// Small test configuration.
    pub fn small() -> Self {
        Self {
            molecules: 256,
            steps: 2,
            svm: SvmConfig::default(),
            seed: 42,
        }
    }

    /// The paper's problem size: 4096 molecules, 15 steps (Table 2).
    pub fn paper() -> Self {
        Self {
            molecules: 4096,
            steps: 15,
            svm: SvmConfig::default(),
            seed: 42,
        }
    }

    /// Pages for positions + forces.
    pub fn pages_needed(&self) -> u32 {
        (2 * self.molecules * BYTES_PER_VEC3).div_ceil(4096) as u32 + 2
    }
}

type V3 = [f64; 3];

struct WaterShared {
    pos: RefCell<Vec<V3>>,
    vel: RefCell<Vec<V3>>,
    force: RefCell<Vec<V3>>,
    energy: RefCell<f64>,
}

/// Deterministic initial state: positions in a unit box, small velocities.
pub fn water_input(cfg: &WaterConfig) -> (Vec<V3>, Vec<V3>) {
    let mut rng = InputRng::new(cfg.seed);
    let pos = (0..cfg.molecules)
        .map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64()])
        .collect();
    let vel = (0..cfg.molecules)
        .map(|_| {
            [
                (rng.next_f64() - 0.5) * 1e-3,
                (rng.next_f64() - 0.5) * 1e-3,
                (rng.next_f64() - 0.5) * 1e-3,
            ]
        })
        .collect();
    (pos, vel)
}

/// Softened inverse-square pair force (≈30 flops/pair) with its potential.
#[inline]
fn pair_force(pi: V3, pj: V3) -> (V3, f64) {
    let d = [pj[0] - pi[0], pj[1] - pi[1], pj[2] - pi[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 1e-4;
    let inv = 1.0 / r2;
    let inv_r = inv.sqrt();
    // Attractive at long range, repulsive at short range.
    let mag = inv * inv_r * (1.0 - 0.01 * inv);
    ([d[0] * mag, d[1] * mag, d[2] * mag], -inv_r)
}

const DT: f64 = 1e-4;

/// Sequential reference.
pub fn water_reference(cfg: &WaterConfig) -> (Vec<V3>, f64) {
    let (mut pos, mut vel) = water_input(cfg);
    let n = cfg.molecules;
    let mut total_energy = 0.0;
    for _ in 0..cfg.steps {
        let mut force = vec![[0.0; 3]; n];
        let mut pe = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                let (f, e) = pair_force(pos[i], pos[j]);
                for k in 0..3 {
                    force[i][k] += f[k];
                    force[j][k] -= f[k];
                }
                pe += e;
            }
        }
        total_energy += pe;
        for i in 0..n {
            for k in 0..3 {
                vel[i][k] += force[i][k] * DT;
                pos[i][k] += vel[i][k] * DT;
            }
        }
    }
    (pos, total_energy)
}

/// Run the parallel water simulation.
pub fn run_water(cfg: WaterConfig) -> AppRun {
    let procs = cfg.svm.nodes * cfg.svm.procs_per_node;
    let n = cfg.molecules;
    assert!(n.is_multiple_of(procs));
    let chunk = n / procs;
    let (pos0, vel0) = water_input(&cfg);
    let shared = Rc::new(WaterShared {
        pos: RefCell::new(pos0),
        vel: RefCell::new(vel0),
        force: RefCell::new(vec![[0.0; 3]; n]),
        energy: RefCell::new(0.0),
    });
    let pos_base = 0u32;
    let force_base = (n * BYTES_PER_VEC3).div_ceil(4096) as u32;
    let mut svm_cfg = cfg.svm.clone();
    svm_cfg.pages = svm_cfg.pages.max(cfg.pages_needed());
    const ENERGY_LOCK: u32 = 1000;

    let bodies: Vec<ProcBody> = (0..procs)
        .map(|p| {
            let sh = shared.clone();
            let cfg = cfg.clone();
            proc_body(move |mut svm| async move {
                let my_lo = p * chunk;
                let my_hi = (p + 1) * chunk;
                for _step in 0..cfg.steps {
                    // Zero my partition of the shared force array.
                    {
                        let lo = page_of(force_base, my_lo, BYTES_PER_VEC3);
                        let hi = page_of(force_base, my_hi - 1, BYTES_PER_VEC3);
                        svm.write_range(lo, hi).await;
                        let mut f = sh.force.borrow_mut();
                        for v in &mut f[my_lo..my_hi] {
                            *v = [0.0; 3];
                        }
                    }
                    svm.barrier().await;
                    // Read all positions (everyone computes against all).
                    {
                        let lo = page_of(pos_base, 0, BYTES_PER_VEC3);
                        let hi = page_of(pos_base, n - 1, BYTES_PER_VEC3);
                        svm.read_range(lo, hi).await;
                    }
                    // Pair forces into a private buffer (real math).
                    let (local_force, local_pe, pairs) = {
                        let pos = sh.pos.borrow();
                        let mut lf = vec![[0.0f64; 3]; n];
                        let mut pe = 0.0;
                        let mut pairs = 0u64;
                        for i in my_lo..my_hi {
                            for j in i + 1..n {
                                let (f, e) = pair_force(pos[i], pos[j]);
                                for k in 0..3 {
                                    lf[i][k] += f[k];
                                    lf[j][k] -= f[k];
                                }
                                pe += e;
                                pairs += 1;
                            }
                        }
                        (lf, pe, pairs)
                    };
                    svm.compute(flops(pairs * 30)).await;
                    // Merge into the shared array, one partition lock at a
                    // time (starting from my own to stagger contention).
                    for q0 in 0..procs {
                        let q = (p + q0) % procs;
                        svm.acquire(q as u32).await;
                        let qlo = q * chunk;
                        let qhi = (q + 1) * chunk;
                        let touched = local_force[qlo..qhi]
                            .iter()
                            .any(|f| f.iter().any(|&x| x != 0.0));
                        if touched {
                            let lo = page_of(force_base, qlo, BYTES_PER_VEC3);
                            let hi = page_of(force_base, qhi - 1, BYTES_PER_VEC3);
                            svm.write_range(lo, hi).await;
                            {
                                // NOTE: end borrows before SVM calls (await_holding_refcell_ref).
                                let mut f = sh.force.borrow_mut();
                                for i in qlo..qhi {
                                    for k in 0..3 {
                                        f[i][k] += local_force[i][k];
                                    }
                                }
                            }
                            svm.compute(flops((qhi - qlo) as u64 * 3)).await;
                        }
                        svm.release(q as u32).await;
                    }
                    // Global potential-energy accumulation.
                    svm.acquire(ENERGY_LOCK).await;
                    *sh.energy.borrow_mut() += local_pe;
                    svm.compute(flops(2)).await;
                    svm.release(ENERGY_LOCK).await;
                    svm.barrier().await;
                    // Integrate my molecules.
                    {
                        let flo = page_of(force_base, my_lo, BYTES_PER_VEC3);
                        let fhi = page_of(force_base, my_hi - 1, BYTES_PER_VEC3);
                        svm.read_range(flo, fhi).await;
                        let plo = page_of(pos_base, my_lo, BYTES_PER_VEC3);
                        let phi = page_of(pos_base, my_hi - 1, BYTES_PER_VEC3);
                        svm.write_range(plo, phi).await;
                        let f = sh.force.borrow();
                        let mut vel = sh.vel.borrow_mut();
                        let mut pos = sh.pos.borrow_mut();
                        for i in my_lo..my_hi {
                            for k in 0..3 {
                                vel[i][k] += f[i][k] * DT;
                                pos[i][k] += vel[i][k] * DT;
                            }
                        }
                    }
                    svm.compute(flops(chunk as u64 * 12)).await;
                    svm.barrier().await;
                }
            })
        })
        .collect();

    let report = run_svm(svm_cfg, bodies);
    let (ref_pos, ref_energy) = water_reference(&cfg);
    let pos = shared.pos.borrow();
    let energy = *shared.energy.borrow();
    let close = |a: f64, b: f64| {
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() / scale < 1e-9
    };
    let valid = report.completed
        && close(energy, ref_energy)
        && pos
            .iter()
            .zip(ref_pos.iter())
            .all(|(a, b)| (0..3).all(|k| close(a[k], b[k])));
    AppRun { report, valid }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_sim::Duration;

    #[test]
    fn forces_are_antisymmetric() {
        let (f, _) = pair_force([0.0, 0.0, 0.0], [0.5, 0.2, 0.1]);
        let (g, _) = pair_force([0.5, 0.2, 0.1], [0.0, 0.0, 0.0]);
        for k in 0..3 {
            assert!((f[k] + g[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_water_validates_with_heavy_locking() {
        let run = run_water(WaterConfig::small());
        assert!(run.report.completed, "water must finish");
        assert!(run.valid, "parallel result must match the reference");
        let agg = run.report.aggregate();
        assert!(agg.lock > Duration::ZERO, "lock traffic expected");
    }

    #[test]
    fn compute_dominates_at_scale() {
        // The tiny-communication-to-computation ratio only shows at larger
        // molecule counts (communication is O(n), compute O(n²)).
        let mut cfg = WaterConfig::small();
        cfg.molecules = 1024;
        cfg.steps = 1;
        let run = run_water(cfg);
        assert!(run.report.completed && run.valid);
        let agg = run.report.aggregate();
        assert!(
            agg.compute > agg.data + agg.lock,
            "compute must dominate at n=1024: {agg:?}"
        );
    }

    #[test]
    fn reference_is_deterministic() {
        let (a, ea) = water_reference(&WaterConfig::small());
        let (b, eb) = water_reference(&WaterConfig::small());
        assert_eq!(a, b);
        assert_eq!(ea, eb);
    }
}
