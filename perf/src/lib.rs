//! # san-perf — the repository benchmark
//!
//! Five workloads, each stressing different layers, measured end to end
//! with tracing off and layer by layer in a separate traced run:
//!
//! | workload | layers it stresses |
//! |---|---|
//! | `perm1024` | scheduler, fabric, NIC (protocol bypassed) |
//! | `tenants_lossy` | reliability protocol, host agents, timers |
//! | `chaos_faults` | mapper, reconfiguration, trace ring, oracle |
//! | `mc_verify` | model checker and protocol kernel |
//! | `fig6_sweep` | per-packet NIC + firmware path |
//!
//! Every pass checks its outputs and folds its simulated outcomes into a
//! digest; passes of the same seed must agree, and a traced pass must agree
//! with an untraced one. [`bench::bench`] runs passes for a time budget and
//! reports the metrics of [`metrics`]; [`compare`] judges two sets of runs.

pub mod bench;
mod chaos;
mod cluster;
pub mod compare;
mod fig6;
mod mc;
pub mod metrics;
mod pass;
mod perm;
mod stats;
pub mod tenants;
mod trace;

pub use pass::{Params, Pass};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1024-host shift permutation, no-FT firmware.
    Perm1024,
    /// 256 lossy open-loop tenants on the reliable firmware.
    TenantsLossy,
    /// 1000 trials of five fault campaigns.
    ChaosFaults,
    /// Three exhaustive model checks.
    McVerify,
    /// 36 cells of the Figure 6 grid.
    Fig6Sweep,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::Perm1024,
        Workload::TenantsLossy,
        Workload::ChaosFaults,
        Workload::McVerify,
        Workload::Fig6Sweep,
    ];

    /// Name as printed and as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Perm1024 => "perm1024",
            Workload::TenantsLossy => "tenants_lossy",
            Workload::ChaosFaults => "chaos_faults",
            Workload::McVerify => "mc_verify",
            Workload::Fig6Sweep => "fig6_sweep",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run one pass, traced or not.
    pub fn pass(self, p: &Params, traced: bool) -> Pass {
        match self {
            Workload::Perm1024 => perm::pass(p, traced),
            Workload::TenantsLossy => tenants::pass(p, traced),
            Workload::ChaosFaults => chaos::pass(p, traced),
            Workload::McVerify => mc::pass(p, traced),
            Workload::Fig6Sweep => fig6::pass(p, traced),
        }
    }
}
