//! `engine`: throughput study of the simulation engine core itself —
//! wall-clock events/sec and simulated-ns per wall-ms of the timing-wheel
//! scheduler + arena fabric, swept over atlas fabrics from 16 to 1024
//! hosts, plus a shards=1 vs shards=8 comparison of the conservative
//! parallel engine at the largest size.
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
//! the 60 s wall budget. `--smoke` is the CI gate: a 16-host fabric must
//! clear an events/sec floor, and a shards=2 run must be self-deterministic
//! and delivery-identical to shards=1.

use std::time::Instant;

use san_fabric::updown::UpDownMap;
use san_fabric::{NodeId, Route, Topology};
use san_nic::testkit::StreamSender;
use san_nic::{ClusterConfig, HostAgent, ShardedCluster, UnreliableFirmware};
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
    shards: usize,
    delivered: u64,
    expected: u64,
    drops: [u64; 6],
    resets: u64,
    events: u64,
    crossings: u64,
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
/// crosses the "middle" of the host id space (and so, on most shapes, a
/// shard boundary).
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
fn run_one(spec: &TopoSpec, shards: usize) -> Row {
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
    let mut sc = ShardedCluster::new(
        fabric.topo,
        cfg,
        shards,
        |_| Box::new(UnreliableFirmware),
        |i| -> Box<dyn HostAgent> {
            Box::new(StreamSender::new(
                NodeId(perm(n, i.idx()) as u16),
                BYTES,
                MESSAGES,
            ))
        },
    );
    sc.install_routes(|a, b| {
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
        sc.run_until(deadline);
        slices += 1;
        if sc.engine_stats().delivered >= expected || slices >= MAX_SLICES {
            break;
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = sc.engine_stats();
    Row {
        fabric: spec.format(),
        hosts: n,
        shards: sc.num_shards(),
        delivered: stats.delivered,
        expected,
        drops: stats.dropped,
        resets: stats.path_resets,
        events: sc.events_processed(),
        crossings: sc.crossings(),
        sim_ns: deadline.nanos(),
        wall_ms,
    }
}

fn print_row(r: &Row) {
    println!(
        "{:<18} hosts={:<5} shards={} delivered={}/{} drops={:?} resets={} events={} crossings={} \
         wall={:.1}ms  {:.2}M events/s  {:.0} sim-ns/wall-ms",
        r.fabric,
        r.hosts,
        r.shards,
        r.delivered,
        r.expected,
        r.drops,
        r.resets,
        r.events,
        r.crossings,
        r.wall_ms,
        r.events_per_sec() / 1e6,
        r.sim_ns_per_wall_ms(),
    );
}

fn write_json(path: &str, rows: &[Row], max_hosts: &[(String, usize)]) {
    let mut s = String::from("{\n  \"bench\": \"engine\",\n");
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
            "    {{\"fabric\": \"{}\", \"hosts\": {}, \"shards\": {}, \"delivered\": {}, \
             \"expected\": {}, \"events\": {}, \"crossings\": {}, \"sim_ns\": {}, \
             \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \"sim_ns_per_wall_ms\": {:.0}}}{}\n",
            r.fabric,
            r.hosts,
            r.shards,
            r.delivered,
            r.expected,
            r.events,
            r.crossings,
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

fn smoke() {
    let spec = TopoSpec::FatTree { k: 4 };
    let serial = run_one(&spec, 1);
    print_row(&serial);
    assert_eq!(
        serial.delivered, serial.expected,
        "smoke: serial run must deliver the whole permutation"
    );
    let floor = 50_000.0;
    assert!(
        serial.events_per_sec() > floor,
        "smoke: {:.0} events/sec is below the {floor} floor",
        serial.events_per_sec()
    );
    let a = run_one(&spec, 2);
    let b = run_one(&spec, 2);
    print_row(&a);
    assert!(a.crossings > 0, "smoke: permutation must cross shards");
    assert_eq!(
        (a.delivered, a.crossings),
        (b.delivered, b.crossings),
        "smoke: shards=2 must be self-deterministic"
    );
    assert_eq!(
        a.delivered, serial.delivered,
        "smoke: shards=2 delivery must match shards=1"
    );
    println!("engine smoke: OK");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    // Debug/inspection mode: one (spec, shards) measurement, no JSON.
    if let Some(i) = args.iter().position(|a| a == "--one") {
        let spec = TopoSpec::parse(&args[i + 1]).expect("bad spec");
        let shards: usize = args[i + 2].parse().expect("bad shard count");
        print_row(&run_one(&spec, shards));
        return;
    }
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_engine.json".into());

    let mut rows: Vec<Row> = Vec::new();
    let mut max_hosts: Vec<(String, usize)> = Vec::new();
    let mut largest: Option<TopoSpec> = None;
    for (family, series) in family_series() {
        let mut best = 0usize;
        for spec in series {
            let row = run_one(&spec, 1);
            print_row(&row);
            let within = row.wall_ms <= WALL_BUDGET_SECS * 1e3;
            let complete = row.delivered == row.expected;
            if within && complete {
                best = row.hosts;
                if family == "fat_tree" {
                    largest = Some(spec);
                }
            }
            rows.push(row);
            if !within {
                break; // bigger sizes only get slower
            }
        }
        max_hosts.push((family.into(), best));
    }

    // Parallel engine: shards=8 vs the serial rows above, at the largest
    // fat-tree that fit the budget.
    if let Some(spec) = largest {
        let row = run_one(&spec, 8);
        print_row(&row);
        rows.push(row);
    }
    write_json(&json_path, &rows, &max_hosts);
}
