//! `engine`: throughput study of the simulation engine core itself —
//! wall-clock events/sec and simulated-ns per wall-ms of the timing-wheel
//! scheduler + arena fabric, swept over atlas fabrics from 16 to 1024
//! hosts.
//!
//! Traffic is a fixed shift permutation (host `i` streams to host
//! `i + n/2 mod n`) with routes installed only for the pairs that talk:
//! one stopped-early search per talking host, and a NIC table holding one
//! route instead of the n − 1 that `Cluster::install_shortest_routes`
//! installs (itself one search per host, O(n · E) overall), so the
//! measurement is the engine, not the setup.
//!
//! The default run writes `BENCH_engine.json` (`--json <path>` overrides):
//! per-fabric rows and the largest host count each family finishes inside
//! the 60 s wall budget, under a header naming the command, the core count
//! and the build profile. `--one <spec>` measures one fabric and prints its
//! row. `--smoke` is the CI gate: the 16-host fat tree must clear an
//! events/sec floor and reproduce its pinned outcome (events, simulated
//! time, deliveries), so an engine edit that changes the simulation trips
//! it even when throughput holds.

use std::time::Instant;

use san_fabric::updown::UpDownMap;
use san_fabric::{NodeId, Route, Topology};
use san_nic::testkit::StreamSender;
use san_nic::{Cluster, ClusterConfig, HostAgent, UnreliableFirmware};
use san_sim::{Duration, Time};
use san_topo::TopoSpec;

/// Messages per host per trial.
const MESSAGES: u64 = 100;
/// Payload bytes per message.
const BYTES: u32 = 2048;
/// Wall budget per measurement (the "max hosts in 60 s" criterion).
const WALL_BUDGET_SECS: f64 = 60.0;
/// Sim-time slice per driver iteration.
const SLICE: Duration = Duration::from_millis(1);
/// Give-up horizon: a permutation of MESSAGES×2 KiB streams finishes in
/// single-digit sim-milliseconds; 2 s of sim time means something is wrong.
const MAX_SLICES: u64 = 2_000;

/// One measurement row.
struct Row {
    fabric: String,
    hosts: usize,
    delivered: u64,
    expected: u64,
    drops: [u64; 6],
    resets: u64,
    events: u64,
    sim_ns: u64,
    wall_ms: f64,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ms / 1e3)
    }
    fn sim_ns_per_wall_ms(&self) -> f64 {
        self.sim_ns as f64 / self.wall_ms
    }
}

/// The shift permutation: everyone sends, everyone receives, every stream
/// crosses the "middle" of the host id space.
fn perm(n: usize, i: usize) -> usize {
    (i + n / 2) % n
}

/// Precomputed routes for exactly the permutation pairs. Cyclic fabrics
/// (torus) get UP*/DOWN*-legal routes — the whole permutation streams at
/// once, and greedy shortest routes on a cyclic fabric wormhole-deadlock
/// by design; the study measures engine throughput, not deadlock recovery.
fn perm_routes(topo: &Topology, n: usize) -> Vec<Option<Route>> {
    let updown = UpDownMap::build(topo, |_| true);
    (0..n)
        .map(|i| {
            let (a, b) = (NodeId(i as u16), NodeId(perm(n, i) as u16));
            match &updown {
                Some(m) => m.route(topo, a, b, |_| true),
                None => topo.shortest_route(a, b, |_| true),
            }
        })
        .collect()
}

/// Build the world, stream the permutation to completion, measure.
fn run_one(spec: &TopoSpec) -> Row {
    let fabric = spec.build();
    let n = fabric.hosts.len();
    let routes = perm_routes(&fabric.topo, n);
    let expected = n as u64 * MESSAGES;

    // Myrinet allows 62.5 ms – 4 s for the send-path reset timer; the
    // throughput study uses the top of that range so a 100-deep
    // simultaneous burst queueing at one trunk reads as backpressure, not
    // deadlock — the routes are deadlock-free, every wait resolves.
    let mut cfg = ClusterConfig::default();
    cfg.engine.path_reset_timeout = Duration::from_millis(4_000);

    let t0 = Instant::now();
    let hosts: Vec<Box<dyn HostAgent>> = (0..n)
        .map(|i| -> Box<dyn HostAgent> {
            Box::new(StreamSender::new(
                NodeId(perm(n, i) as u16),
                BYTES,
                MESSAGES,
            ))
        })
        .collect();
    let mut c = Cluster::new(fabric.topo, cfg, |_| Box::new(UnreliableFirmware), hosts);
    c.install_routes(|a, b| {
        if perm(n, a.idx()) == b.idx() {
            routes[a.idx()]
        } else {
            None
        }
    });

    let mut deadline = Time::ZERO;
    let mut slices = 0u64;
    loop {
        deadline += SLICE;
        c.run_until(deadline);
        slices += 1;
        if c.engine.stats().delivered >= expected || slices >= MAX_SLICES {
            break;
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = c.engine.stats();
    Row {
        fabric: spec.format(),
        hosts: n,
        delivered: stats.delivered,
        expected,
        drops: stats.dropped,
        resets: stats.path_resets,
        events: c.events_processed(),
        sim_ns: deadline.nanos(),
        wall_ms,
    }
}

fn print_row(r: &Row) {
    println!(
        "{:<18} hosts={:<5} delivered={}/{} drops={:?} resets={} events={} \
         wall={:.1}ms  {:.2}M events/s  {:.0} sim-ns/wall-ms",
        r.fabric,
        r.hosts,
        r.delivered,
        r.expected,
        r.drops,
        r.resets,
        r.events,
        r.wall_ms,
        r.events_per_sec() / 1e6,
        r.sim_ns_per_wall_ms(),
    );
}

fn write_json(path: &str, command: &str, rows: &[Row], max_hosts: &[(String, usize)]) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut s = String::from("{\n  \"bench\": \"engine\",\n");
    s.push_str(&format!("  \"command\": \"{command}\",\n"));
    s.push_str(&format!("  \"nproc\": {nproc},\n"));
    s.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    s.push_str(&format!(
        "  \"traffic\": \"shift permutation, {MESSAGES} x {BYTES}B per host\",\n"
    ));
    s.push_str("  \"max_hosts_in_60s\": {");
    for (i, (family, hosts)) in max_hosts.iter().enumerate() {
        s.push_str(&format!(
            "{}\"{family}\": {hosts}",
            if i > 0 { ", " } else { "" }
        ));
    }
    s.push_str("},\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"fabric\": \"{}\", \"hosts\": {}, \"delivered\": {}, \"expected\": {}, \
             \"events\": {}, \"sim_ns\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \
             \"sim_ns_per_wall_ms\": {:.0}}}{}\n",
            r.fabric,
            r.hosts,
            r.delivered,
            r.expected,
            r.events,
            r.sim_ns,
            r.wall_ms,
            r.events_per_sec(),
            r.sim_ns_per_wall_ms(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// Ascending size series per family; the sweep stops at the first size
/// that blows the wall budget.
fn family_series() -> Vec<(&'static str, Vec<TopoSpec>)> {
    vec![
        (
            "fat_tree",
            vec![
                TopoSpec::FatTree { k: 4 },
                TopoSpec::FatTree { k: 8 },
                TopoSpec::FatTree { k: 12 },
                TopoSpec::FatTree { k: 16 },
            ],
        ),
        (
            "torus2d",
            vec![
                TopoSpec::Torus2D {
                    rows: 4,
                    cols: 4,
                    hosts: 1,
                },
                TopoSpec::Torus2D {
                    rows: 8,
                    cols: 8,
                    hosts: 2,
                },
                TopoSpec::Torus2D {
                    rows: 12,
                    cols: 12,
                    hosts: 3,
                },
                TopoSpec::Torus2D {
                    rows: 16,
                    cols: 16,
                    hosts: 4,
                },
            ],
        ),
    ]
}

/// fat_tree:4's serial outcome (BENCH_engine.json's first row): the
/// smoke gate trips on any engine edit that changes the simulation, which
/// the events/sec floor alone cannot see.
const SMOKE_EVENTS: u64 = 20_320;
const SMOKE_SIM_NS: u64 = 3_000_000;

fn smoke() {
    let r = run_one(&TopoSpec::FatTree { k: 4 });
    print_row(&r);
    assert_eq!(
        (r.delivered, r.expected),
        (1600, 1600),
        "smoke: the run must deliver the whole permutation"
    );
    assert_eq!(
        (r.events, r.sim_ns),
        (SMOKE_EVENTS, SMOKE_SIM_NS),
        "smoke: events and simulated time must match the pinned fat_tree:4 outcome"
    );
    let floor = 50_000.0;
    assert!(
        r.events_per_sec() > floor,
        "smoke: {:.0} events/sec is below the {floor} floor",
        r.events_per_sec()
    );
    println!("engine smoke: OK");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    // Debug/inspection mode: one fabric's measurement, no JSON.
    if let Some(i) = args.iter().position(|a| a == "--one") {
        let spec = TopoSpec::parse(&args[i + 1]).expect("bad spec");
        print_row(&run_one(&spec));
        return;
    }
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_engine.json".into());

    let mut command = String::from("cargo run --release -q -p san-bench --bin engine");
    if args.len() > 1 {
        command.push_str(" --");
        for a in &args[1..] {
            command.push(' ');
            command.push_str(a);
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut max_hosts: Vec<(String, usize)> = Vec::new();
    for (family, series) in family_series() {
        let mut best = 0usize;
        for spec in series {
            let row = run_one(&spec);
            print_row(&row);
            let within = row.wall_ms <= WALL_BUDGET_SECS * 1e3;
            let complete = row.delivered == row.expected;
            if within && complete {
                best = row.hosts;
            }
            rows.push(row);
            if !within {
                break; // bigger sizes only get slower
            }
        }
        max_hosts.push((family.into(), best));
    }
    write_json(&json_path, &command, &rows, &max_hosts);
}
