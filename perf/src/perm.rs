//! `perm1024`: the engine-core workload.
//!
//! A fat_tree:16 (1024 hosts) runs a shift permutation — host `i` streams
//! 100 × 2 KiB to host `i + 512` — over UP*/DOWN* routes installed only for
//! the pairs that talk, under the no-FT baseline firmware with a 4 s
//! path-reset timer. It is the 1024-host row of `BENCH_engine.json`. The
//! reliability protocol is bypassed, so a protocol change should not move
//! it; scheduler, fabric and NIC changes should.

use san_fabric::updown::UpDownMap;
use san_fabric::{NodeId, Route, Topology};
use san_nic::testkit::StreamSender;
use san_nic::{Cluster, ClusterConfig, HostAgent, UnreliableFirmware};
use san_sim::{Duration, Time};
use san_topo::TopoSpec;

use crate::cluster::{finish, Driver};
use crate::pass::{timed, Params, Pass};
use crate::stats::{ratio, Digest};

/// Messages per host.
const MESSAGES: u64 = 100;
/// Payload bytes per message.
const BYTES: u32 = 2048;
/// Sim-time slice between completion checks.
const SLICE: Duration = Duration::from_millis(1);
/// A clean permutation finishes in single-digit sim-milliseconds; 2 s of
/// sim time means something is wrong.
const MAX_SLICES: u64 = 2_000;

fn partner(n: usize, i: usize) -> usize {
    (i + n / 2) % n
}

/// UP*/DOWN*-legal routes for exactly the permutation pairs.
fn perm_routes(topo: &Topology, n: usize) -> Vec<Option<Route>> {
    let updown = UpDownMap::build(topo, |_| true).expect("fat tree has switches");
    (0..n)
        .map(|i| {
            let (a, b) = (NodeId(i as u16), NodeId(partner(n, i) as u16));
            updown.route(topo, a, b, |_| true)
        })
        .collect()
}

/// Fabric, routes, cluster and agents for one trial.
fn build(spec: &TopoSpec, seed: u64, driver: &Driver) -> Cluster {
    let fabric = spec.build();
    let n = fabric.hosts.len();
    let routes = perm_routes(&fabric.topo, n);
    let mut cfg = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    // The top of Myrinet's 62.5 ms – 4 s range: a 100-deep burst queueing
    // at one trunk is backpressure, not deadlock, on these routes.
    cfg.engine.path_reset_timeout = Duration::from_millis(4_000);
    let hosts: Vec<Box<dyn HostAgent>> = (0..n)
        .map(|i| -> Box<dyn HostAgent> {
            Box::new(StreamSender::new(
                NodeId(partner(n, i) as u16),
                BYTES,
                MESSAGES,
            ))
        })
        .collect();
    let mut c = Cluster::new(
        fabric.topo,
        cfg,
        |_| driver.firmware(Box::new(UnreliableFirmware)),
        hosts,
    );
    c.install_routes(|a, b| {
        if partner(n, a.idx()) == b.idx() {
            routes[a.idx()]
        } else {
            None
        }
    });
    c
}

/// Run slices until the whole permutation is delivered; returns the time
/// of the last event.
fn drive(c: &mut Cluster, driver: &mut Driver, expected: u64) -> Time {
    let mut deadline = Time::ZERO;
    let mut end = Time::ZERO;
    for _ in 0..MAX_SLICES {
        deadline += SLICE;
        end = driver.run_until(c, deadline);
        if c.engine.stats().delivered >= expected {
            break;
        }
    }
    end
}

/// One pass: 10 identical trials (2 on fat_tree:4 when tiny).
pub fn pass(p: &Params, traced: bool) -> Pass {
    let (spec, trials) = if p.tiny {
        (TopoSpec::FatTree { k: 4 }, 2)
    } else {
        (TopoSpec::FatTree { k: 16 }, 10)
    };
    let mut pass = Pass::default();
    let (_, wall) = timed(|| {
        let mut first: Option<Digest> = None;
        let mut goodput = 0.0;
        for trial in 0..trials {
            let mut driver = Driver::new(traced);
            let (mut c, setup) = timed(|| build(&spec, p.seed, &driver));
            let expected = c.nics.len() as u64 * MESSAGES;
            let (end, run) = timed(|| drive(&mut c, &mut driver, expected));
            pass.setup_s.push(setup);
            pass.unit_s.push(run);
            pass.attempted += 1;

            let s = c.engine.stats();
            if s.delivered != expected || s.dropped_total() != 0 || s.path_resets != 0 {
                pass.fail(format!(
                    "perm1024 trial {trial}: delivered {}/{expected}, {} drops, {} resets",
                    s.delivered,
                    s.dropped_total(),
                    s.path_resets
                ));
            }
            let mut d = Digest::default();
            d.u64s(&driver.outcome(&c, end));
            match first {
                None => first = Some(d),
                Some(f) if f != d => pass.fail(format!(
                    "perm1024 trial {trial}: digest {d} differs from trial 0's {f}"
                )),
                Some(_) => {}
            }
            goodput = ratio(s.bytes_delivered as f64 / 1e6, end.nanos() as f64 / 1e9);
            driver.absorb(&c, &mut pass.layers);
        }
        pass.digest = first.unwrap_or_default();
        pass.layers.insert("sim.goodput_mb_s", goodput);
    });
    pass.wall_s = wall;
    finish(&mut pass.layers);
    pass
}
