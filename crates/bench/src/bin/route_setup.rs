//! `route_setup`: wall time to bring up a "freshly, correctly mapped"
//! cluster — `Cluster::new`, then a full route table from
//! `install_shortest_routes` or `install_updown_routes` — on atlas fabrics.
//! This is the set-up every simulation that starts from a mapped fabric
//! pays before its first event.
//!
//! ```text
//! route_setup [SPEC ...]      default: fat_tree:8 fat_tree:16 torus2d:8x8x2
//! ```
//!
//! Each figure is the best of as many repeats as fit in about one second
//! (at least one), in milliseconds. Output is one aligned row per fabric
//! plus a `#tsv` line.

use std::time::Instant;

use san_bench::tsv;
use san_nic::{Cluster, ClusterConfig, HostAgent, IdleHost, UnreliableFirmware};
use san_topo::TopoSpec;

/// Repeat `f` on fresh input from `setup` until about a second of `f` has
/// run; return the best time in milliseconds. Building the input and
/// dropping it and `f`'s result are not timed.
fn best_ms<T, R>(mut setup: impl FnMut() -> T, mut f: impl FnMut(&mut T) -> R) -> f64 {
    let (mut best, mut spent) = (f64::INFINITY, 0.0);
    while spent < 1.0 {
        let mut input = setup();
        let t0 = Instant::now();
        let out = f(&mut input);
        let secs = t0.elapsed().as_secs_f64();
        drop((out, input));
        best = best.min(secs);
        spent += secs;
    }
    best * 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let specs: Vec<&str> = if args.is_empty() {
        vec!["fat_tree:8", "fat_tree:16", "torus2d:8x8x2"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    println!(
        "{:<16} {:>6} {:>14} {:>14} {:>14}",
        "fabric", "hosts", "new.ms", "shortest.ms", "updown.ms"
    );
    for spec in specs {
        let topo = TopoSpec::parse(spec)
            .unwrap_or_else(|e| panic!("{spec}: {e}"))
            .build()
            .topo;
        let n = topo.num_hosts();
        let cluster = || {
            let hosts = (0..n)
                .map(|_| Box::new(IdleHost) as Box<dyn HostAgent>)
                .collect();
            Cluster::new(
                topo.clone(),
                ClusterConfig::default(),
                |_| Box::new(UnreliableFirmware),
                hosts,
            )
        };
        let new_ms = best_ms(|| (), |_| cluster());
        let shortest_ms = best_ms(cluster, |c| c.install_shortest_routes());
        let updown_ms = best_ms(cluster, |c| c.install_updown_routes());
        println!("{spec:<16} {n:>6} {new_ms:>14.3} {shortest_ms:>14.3} {updown_ms:>14.3}");
        tsv(&[
            "route_setup".into(),
            spec.into(),
            n.to_string(),
            format!("{new_ms:.3}"),
            format!("{shortest_ms:.3}"),
            format!("{updown_ms:.3}"),
        ]);
    }
}
