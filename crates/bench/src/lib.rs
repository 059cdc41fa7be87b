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
//!
//! The mapping studies (`table3`, `ablate`, `scale_map`, `topo`,
//! `reconfig`) build the paper's mapped-stream scenario through
//! [`StreamRun`]; [`cold_start`] and [`remap_under_stream`] are the two
//! runs that `scale_map` and `topo` share.

use std::path::{Path, PathBuf};

use san_fabric::engine::FabricEvent;
use san_fabric::updown::UpDownMap;
use san_fabric::{NodeId, Route, Topology};
use san_ft::{MapStats, MapperConfig, ProtocolConfig, ReliableFirmware};
use san_microbench::{unidirectional_bandwidth, BwPoint, FwKind};
use san_nic::testkit::{inbox, Collector, Inbox, StreamSender};
use san_nic::{Cluster, ClusterConfig, HostAgent, IdleHost};
use san_sim::{Duration, Time};
use san_telemetry::json::Json;
use san_telemetry::Telemetry;
use san_topo::TopoSpec;

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

/// One reliable stream: `count` messages of `bytes` each from `src` to
/// `dst`.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Messages posted, all at once.
    pub count: u64,
    /// Bytes per message.
    pub bytes: u32,
}

/// A route table a [`StreamRun`] can install before it starts. Without
/// one, the first send to every peer must map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routes {
    /// Shortest routes between every host pair.
    Shortest,
    /// UP*/DOWN* routes between every host pair.
    UpDown,
}

impl Routes {
    /// The table a mapped `spec` fabric installs
    /// ([`TopoSpec::needs_updown`]).
    pub fn for_spec(spec: &TopoSpec) -> Routes {
        if spec.needs_updown() {
            Routes::UpDown
        } else {
            Routes::Shortest
        }
    }

    /// The route this table holds from `src` to `dst` on the healthy
    /// `topo`.
    pub fn route(self, topo: &Topology, src: NodeId, dst: NodeId) -> Route {
        let route = match self {
            Routes::Shortest => topo.shortest_route(src, dst, |_| true),
            Routes::UpDown => UpDownMap::build(topo, |_| true)
                .expect("switched fabric")
                .route(topo, src, dst, |_| true),
        };
        route.expect("pair routable")
    }
}

/// The paper's mapping scenario (§4.2, Table 3): one reliable [`Stream`]
/// over a cluster whose every NIC runs [`ReliableFirmware`]. Callers
/// install routes, offer planner hints and schedule fabric events, in the
/// order they want them, then [`StreamRun::run`] it. Events that tie on
/// time pop in the order they were scheduled.
pub struct StreamRun {
    /// The simulated cluster.
    pub cluster: Cluster,
    inbox: Inbox,
}

impl StreamRun {
    /// Build `topo` with the stream's sender at `src`, a collector at `dst`
    /// and idle hosts everywhere else. Every NIC runs
    /// `ReliableFirmware::new(proto, mapper, n)` under `tel`. No route is
    /// installed yet.
    pub fn new(
        topo: Topology,
        stream: Stream,
        proto: ProtocolConfig,
        mapper: MapperConfig,
        tel: &Telemetry,
    ) -> Self {
        let n = topo.num_hosts();
        let inbox = inbox();
        let hosts: Vec<Box<dyn HostAgent>> = (0..n)
            .map(|h| -> Box<dyn HostAgent> {
                if h == stream.src.idx() {
                    Box::new(StreamSender::new(stream.dst, stream.bytes, stream.count))
                } else if h == stream.dst.idx() {
                    Box::new(Collector(inbox.clone()))
                } else {
                    Box::new(IdleHost)
                }
            })
            .collect();
        let cfg = ClusterConfig {
            telemetry: tel.clone(),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::new(
            topo,
            cfg,
            move |_| Box::new(ReliableFirmware::new(proto.clone(), mapper.clone(), n)),
            hosts,
        );
        Self { cluster, inbox }
    }

    /// Install `routes` between every host pair.
    pub fn install(&mut self, routes: Routes) {
        match routes {
            Routes::Shortest => self.cluster.install_shortest_routes(),
            Routes::UpDown => self.cluster.install_updown_routes(),
        }
    }

    /// Offer planner candidate `routes` for `dst` to the mapper at `at`.
    pub fn offer_hints(&mut self, at: NodeId, dst: NodeId, routes: Vec<Route>) {
        self.cluster.nics[at.idx()]
            .fw
            .as_any_mut()
            .downcast_mut::<ReliableFirmware>()
            .expect("reliable firmware")
            .offer_route_hints(dst, routes);
    }

    /// Schedule a fabric event at `at`.
    pub fn schedule(&mut self, at: Time, ev: FabricEvent) {
        self.cluster.sim.schedule(at, ev.into());
    }

    /// Run in `slice` steps until `stop` holds after a step, or a step
    /// ends at or past `deadline`. `stop` sees the run and the time of the
    /// last event processed, which is also what this returns.
    pub fn run(
        &mut self,
        slice: Duration,
        deadline: Time,
        mut stop: impl FnMut(&mut StreamRun, Time) -> bool,
    ) -> Time {
        let mut t = Time::ZERO + slice;
        loop {
            let now = self.cluster.run_until(t);
            if stop(self, now) || t >= deadline {
                return now;
            }
            t += slice;
        }
    }

    /// Messages deposited at the destination so far, duplicates included.
    pub fn delivered(&self) -> usize {
        self.inbox.borrow().len()
    }

    /// When the last deposited message reached its host, if any did.
    pub fn last_arrival(&self) -> Option<Time> {
        self.inbox.borrow().iter().map(|p| p.stamps.host_seen).max()
    }

    /// The on-demand mapper's statistics at `node`.
    pub fn map_stats(&self, node: NodeId) -> &MapStats {
        self.cluster.nics[node.idx()]
            .fw
            .as_any()
            .downcast_ref::<ReliableFirmware>()
            .expect("reliable firmware")
            .mapper_stats()
    }
}

/// What a [`cold_start`] found.
#[derive(Debug, Clone, Copy)]
pub struct ColdStart {
    /// Mapping runs that found the target.
    pub resolved: u64,
    /// Mapping runs that gave the target up as unreachable.
    pub unreachable: u64,
    /// Host and switch probes sent.
    pub probes: u64,
}

/// A cold start at fabric scale, the regime of Table 3's chain: no routes
/// and no hints, so the first send from `src` to `dst` must map. `deep`
/// turns on two-hop host signatures, which tell apart the host-less
/// aggregation switches of a fat tree instead of merging them through a
/// shared core. Deep exploration is paced by patience deadlines that
/// outlast the ~62 ms path-reset timer, so it may take up to 30 s of
/// simulated time; 2 s otherwise. Stops at the mapper's first verdict.
pub fn cold_start(topo: &Topology, src: NodeId, dst: NodeId, deep: bool) -> ColdStart {
    let mut mapper = MapperConfig::for_topology(topo);
    mapper.deep_signatures = deep;
    let stream = Stream {
        src,
        dst,
        count: 1,
        bytes: 64,
    };
    let proto = ProtocolConfig::default().with_mapping();
    let mut run = StreamRun::new(topo.clone(), stream, proto, mapper, &Telemetry::new());
    let deadline = Time::from_secs(if deep { 30 } else { 2 });
    run.run(Duration::from_millis(5), deadline, |run, _| {
        let st = run.map_stats(src);
        st.resolved.get() + st.unreachable.get() >= 1
    });
    let st = run.map_stats(src);
    ColdStart {
        resolved: st.resolved.get(),
        unreachable: st.unreachable.get(),
        probes: st.host_probes.get() + st.switch_probes.get(),
    }
}

/// What a [`remap_under_stream`] run delivered and what its two ends'
/// mappers did.
pub struct Remap {
    /// Messages deposited, duplicates at the reset included.
    pub delivered: usize,
    /// The sender's mapper statistics.
    pub src: MapStats,
    /// The receiver's mapper statistics.
    pub dst: MapStats,
}

impl Remap {
    /// Host probes sent by both ends.
    pub fn host_probes(&self) -> u64 {
        self.src.host_probes.get() + self.dst.host_probes.get()
    }

    /// Switch probes sent by both ends.
    pub fn switch_probes(&self) -> u64 {
        self.src.switch_probes.get() + self.dst.switch_probes.get()
    }

    /// The longer of the two ends' last mapping runs, in ms.
    pub fn remap_ms(&self) -> f64 {
        self.src.last_time_ms.max(self.dst.last_time_ms)
    }
}

/// A reliable stream that loses part of its route (§4.2): `stream` runs
/// over `routes` with each `(at, dst, candidates)` offered first, and every
/// `faults` event strikes at 2 ms. A 10 ms permanent-failure verdict
/// sends the affected end to on-demand mapping. Runs in 5 ms slices
/// until the stream is delivered or 400 ms have passed.
pub fn remap_under_stream(
    topo: &Topology,
    stream: Stream,
    routes: Routes,
    hints: &[(NodeId, NodeId, Vec<Route>)],
    faults: &[FabricEvent],
    tel: &Telemetry,
) -> Remap {
    let proto = ProtocolConfig {
        perm_fail_threshold: Duration::from_millis(10),
        ..ProtocolConfig::default().with_mapping()
    };
    let mapper = MapperConfig::for_topology(topo);
    let mut run = StreamRun::new(topo.clone(), stream, proto, mapper, tel);
    run.install(routes);
    for (at, dst, h) in hints {
        run.offer_hints(*at, *dst, h.clone());
    }
    for &ev in faults {
        run.schedule(Time::from_millis(2), ev);
    }
    let count = stream.count as usize;
    run.run(
        Duration::from_millis(5),
        Time::from_millis(400),
        |run, _| run.delivered() >= count,
    );
    Remap {
        delivered: run.delivered(),
        src: run.map_stats(stream.src).clone(),
        dst: run.map_stats(stream.dst).clone(),
    }
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
