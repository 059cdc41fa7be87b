//! # san-bench — regeneration harness for the paper's tables and figures
//!
//! One binary per experiment (run with
//! `cargo run -p san-bench --release --bin <id>`):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table 1 — the parameter space actually swept |
//! | `table2` | Table 2 — application problem sizes |
//! | `fig3`   | Figure 3 — 4-byte latency breakdown, FT vs no-FT |
//! | `fig4`   | Figure 4 — small-message latency + bandwidth curves |
//! | `fig5`   | Figure 5 — retransmission-interval sweep, no errors |
//! | `fig6`   | Figure 6 — interval sweep with injected errors |
//! | `fig7`   | Figure 7 — send-queue-size sweep, no errors |
//! | `fig8`   | Figure 8 — queue-size sweep with injected errors |
//! | `fig9`   | Figure 9 — application execution-time breakdowns |
//! | `table3` | Table 3 — on-demand mapping probes and time vs hops |
//! | `ablate` | design-choice ablations (DESIGN.md §5) |
//! | `adaptive` | Figure 6 rerun with the RTT-driven threshold + damping on |
//! | `scale_map` | Table 3 beyond 4 hops — on-demand (planner-hinted) vs full-map reconfiguration on 128-host atlas fabrics (`--smoke` = small-fabric CI gate) |
//! | `tenants` | multi-tenant congestion-knee study — tenant count × wire loss × adaptive response on a 128-host fat-tree, per-tenant tail latency + Jain fairness, emits `BENCH_workload.json` (`--smoke` = 2-tenant incast CI gate) |
//! | `reconfig` | live-reconfiguration policy study — full static remap vs on-demand mapping vs incremental DBR-style patching across a drain→detach→re-grow cycle under traffic, emits `BENCH_reconfig.json` (`--smoke` = small-fabric CI gate) |
//! | `route_setup` | set-up cost of a mapped cluster — `Cluster::new` plus a full shortest-path or UP*/DOWN* route table — on atlas fabrics up to 1024 hosts |
//! | `topo` | cross-topology routing study — fat-tree vs torus2d/3d vs near-regular at 128 hosts: `RoutePlanner` strategy steps + diversity, hint survival under faults, one-link remap under a stream, san-workload throughput, emits `BENCH_topo.json` (`--smoke` = strategy-equivalence + torus-floor + cold-start CI gate) |
//!
//! Every binary accepts `--quick` (reduced volume; the default) or `--full`
//! (paper-scale volumes — minutes of CPU). Output is aligned text plus
//! machine-readable TSV lines prefixed with `#tsv`.
//!
//! Every binary also accepts `--telemetry <dir>`: after the sweep it re-runs
//! one representative configuration with the trace recorder on and dumps the
//! full export set (`<id>.metrics.json`, `.metrics.csv`, `.trace.csv`,
//! `.summary.txt`) under `<dir>`.
//!
//! The studies that keep a `BENCH_*.json` artifact (`engine`, `tenants`,
//! `topo`, `reconfig`) write it through [`write_bench`], which puts the
//! same provenance header on every file; `--json <path>` redirects it.

use std::path::{Path, PathBuf};

use san_ft::{MapStats, ReliableFirmware};
use san_microbench::{unidirectional_bandwidth, BwPoint, FwKind};
use san_nic::{Cluster, ClusterConfig};
use san_sim::{Duration, Time};
use san_telemetry::json::Json;
use san_telemetry::Telemetry;

/// Parse the common CLI flags.
pub fn parse_mode() -> RunMode {
    let full = std::env::args().any(|a| a == "--full");
    if full {
        RunMode::Full
    } else {
        RunMode::Quick
    }
}

/// Volume selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Reduced volumes: seconds of wall clock.
    Quick,
    /// Paper-scale volumes: minutes.
    Full,
}

impl RunMode {
    /// Per-measurement payload volume.
    pub fn volume(self) -> u64 {
        match self {
            RunMode::Quick => 2 << 20,
            RunMode::Full => 32 << 20,
        }
    }
}

/// The Figure 4/5/6/7/8 message-size series.
pub fn size_series(mode: RunMode) -> Vec<u32> {
    match mode {
        RunMode::Quick => vec![4, 64, 1024, 4096, 16384, 65536, 262144],
        RunMode::Full => {
            vec![4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20]
        }
    }
}

/// Pretty-print a duration in µs with 2 decimals.
pub fn us(d: Duration) -> String {
    format!("{:.2}", d.as_micros_f64())
}

/// Emit one TSV record (machine-readable mirror of the human tables).
pub fn tsv(fields: &[String]) {
    println!("#tsv\t{}", fields.join("\t"));
}

/// Parse `--telemetry <dir>` from argv. A bare `--telemetry` with no
/// following path defaults to `results/telemetry`.
pub fn telemetry_dir() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--telemetry" {
            let dir = match args.next() {
                Some(d) if !d.starts_with("--") => d,
                _ => "results/telemetry".into(),
            };
            return Some(PathBuf::from(dir));
        }
    }
    None
}

/// Re-run one representative configuration with the trace recorder on —
/// a unidirectional stream of `count` messages of `bytes` each over a
/// send queue of `queue` descriptors — then write the export set under
/// `dir` as `<name>.*`. Returns the telemetry handle (for further
/// inspection, e.g. fig5's false-retransmission timelines) and the
/// measured point.
pub fn instrumented_stream(
    dir: &Path,
    name: &str,
    fw: &FwKind,
    bytes: u32,
    count: u64,
    queue: u16,
) -> (Telemetry, BwPoint) {
    let tel = Telemetry::with_trace(1 << 16);
    let cfg = ClusterConfig {
        telemetry: tel.clone(),
        send_bufs: queue,
        ..Default::default()
    };
    let point = unidirectional_bandwidth(fw, bytes, count, cfg, Time(30_000_000_000));
    emit_telemetry(dir, name, &tel);
    (tel, point)
}

/// Write the export set for `tel` under `dir` and say what was written.
pub fn emit_telemetry(dir: &Path, name: &str, tel: &Telemetry) {
    match san_telemetry::export::write_dir(dir, name, tel) {
        Ok(paths) => {
            println!();
            println!(
                "telemetry: instrumented run ({} events captured) exported to",
                tel.events().len()
            );
            for p in paths {
                println!("  {}", p.display());
            }
        }
        Err(e) => eprintln!("telemetry: export to {} failed: {e}", dir.display()),
    }
}

/// The on-demand mapper's statistics at `node`, whose firmware must be a
/// [`ReliableFirmware`].
pub fn mapper_stats(cluster: &Cluster, node: usize) -> &MapStats {
    cluster.nics[node]
        .fw
        .as_any()
        .downcast_ref::<ReliableFirmware>()
        .expect("reliable firmware")
        .mapper_stats()
}

/// The path given by `--json <path>`, if any.
pub fn json_arg() -> Option<String> {
    let mut args = std::env::args().skip_while(|a| a != "--json");
    args.next()?;
    args.next()
}

/// Write the `BENCH_*.json` artifact of the `bench` binary to `path`: the
/// provenance header `bench`, `command`, `commit`, `nproc`, `profile`,
/// then `body`'s fields in order.
pub fn write_bench(path: &str, bench: &str, body: Vec<(&str, Json)>) {
    let mut command = format!("cargo run --release -q -p san-bench --bin {bench}");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        command = format!("{command} -- {}", args.join(" "));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut fields = vec![
        ("bench", bench.into()),
        ("command", command.into()),
        ("commit", commit().into()),
        ("nproc", (nproc as u64).into()),
        ("profile", profile.into()),
    ];
    fields.extend(body);
    let text = Json::obj(fields).pretty() + "\n";
    std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// `git describe --always --dirty` of the checkout this crate was built
/// from, or `"unknown"` when git or the checkout is unavailable.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
