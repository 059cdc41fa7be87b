//! `tenants`: the multi-tenant congestion-knee study. Sweeps tenant
//! count × wire loss × adaptive response (RTT-driven retransmission +
//! window damping on/off) on a 128-host fat-tree(8), offering the same
//! open-loop heavy-tailed workload at every point and reporting delivered
//! goodput, shed ratio, pooled p99/p999 delivery latency and Jain's
//! fairness over per-tenant delivered bytes.
//!
//! The *knee* of a series is the first tenant count whose delivery ratio
//! (delivered / offered messages) falls below 0.9 — past it the fabric
//! sheds offered load faster than it absorbs it (congestion collapse in
//! the open-loop sense). The interesting comparison is the knee with the
//! adaptive bundle off vs on at the same loss rate.
//!
//! Output: aligned text, `#tsv` lines, and a machine-readable
//! `BENCH_workload.json` (path override: `--json <path>`). `--smoke` runs
//! a seconds-scale CI gate instead: a tiny 2-tenant incast on a star
//! fabric with hard assertions on nonzero, complete delivery.

use san_bench::{json_arg, tsv, write_bench};
use san_telemetry::json::Json;
use san_topo::TopoSpec;
use san_workload::{run, ArrivalSpec, DestSpec, RunConfig, SizeSpec, WorkloadReport, WorkloadSpec};

/// One sweep point's identity + report.
struct Point {
    tenants: u16,
    loss: f64,
    adaptive: bool,
    report: WorkloadReport,
}

fn base_spec(tenants: u16) -> WorkloadSpec {
    WorkloadSpec {
        tenants,
        arrival: ArrivalSpec::Poisson { rate: 2_000.0 },
        size: SizeSpec::Lognormal {
            median: 4_096,
            sigma: 1.0,
            cap: 65_536,
        },
        dest: DestSpec::Uniform,
        window_ms: 5,
        max_backlog: 4,
    }
}

fn sweep_point(tenants: u16, loss: f64, adaptive: bool) -> Point {
    let cfg = RunConfig {
        spec: base_spec(tenants),
        topo: TopoSpec::parse("fat_tree:8").expect("atlas spec"),
        seed: 0xBEEF_0001,
        adaptive,
        loss,
        corrupt: 0.0,
        host_recovery: true,
        grace_ms: 500,
        ..RunConfig::default()
    };
    Point {
        tenants,
        loss,
        adaptive,
        report: run(&cfg),
    }
}

/// First tenant count in the series whose delivery ratio drops below 0.9
/// (the congestion-collapse knee); `None` when the series never collapses.
fn knee(points: &[&Point]) -> Option<u16> {
    points
        .iter()
        .find(|p| p.report.delivery_ratio() < 0.9)
        .map(|p| p.tenants)
}

fn smoke() {
    let cfg = RunConfig {
        spec: WorkloadSpec {
            tenants: 2,
            arrival: ArrivalSpec::Poisson { rate: 5_000.0 },
            size: SizeSpec::Fixed(2_048),
            dest: DestSpec::Incast,
            window_ms: 2,
            max_backlog: 4,
        },
        topo: TopoSpec::Star(4),
        seed: 11,
        grace_ms: 200,
        ..RunConfig::default()
    };
    let r = run(&cfg);
    println!("workload smoke: {}", r.summary_line());
    assert!(r.offered_total > 0, "smoke: no arrivals fired");
    assert!(r.delivered_total > 0, "smoke: nothing delivered");
    assert_eq!(
        r.delivered_total, r.posted_total,
        "smoke: posted messages must all complete on a clean fabric"
    );
    assert!(r.p99_ns > 0, "smoke: latency accounting empty");
    let again = run(&cfg);
    assert_eq!(r, again, "smoke: run must be deterministic");
    println!("workload smoke: OK");
}

/// `BENCH_workload.json`'s body: the study's fixed inputs, the knees per
/// loss rate and every sweep point.
fn bench_body(
    points: &[Point],
    knees: &[(f64, Option<u16>, Option<u16>)],
) -> Vec<(&'static str, Json)> {
    let knee_json = |k: &Option<u16>| k.map_or(Json::Null, |v| u64::from(v).into());
    let knees = knees
        .iter()
        .map(|(loss, off, on)| {
            Json::obj(vec![
                ("loss", (*loss).into()),
                ("knee_tenants_fixed", knee_json(off)),
                ("knee_tenants_adaptive", knee_json(on)),
            ])
        })
        .collect();
    let points = points
        .iter()
        .map(|p| {
            let r = &p.report;
            Json::obj(vec![
                ("tenants", u64::from(p.tenants).into()),
                ("loss", p.loss.into()),
                ("adaptive", p.adaptive.into()),
                ("offered_msgs", r.offered_total.into()),
                ("posted_msgs", r.posted_total.into()),
                ("delivered_msgs", r.delivered_total.into()),
                ("shed_msgs", r.shed_total.into()),
                ("delivery_ratio", r.delivery_ratio().into()),
                ("delivered_mb_per_s", r.delivered_mb_per_s().into()),
                ("p99_ns", r.p99_ns.into()),
                ("p999_ns", r.p999_ns.into()),
                ("fairness", r.fairness.into()),
            ])
        })
        .collect();
    vec![
        ("fabric", "fat_tree:8".into()),
        (
            "workload",
            "poisson:2000 x lognormal:4096:1.0:65536 x uniform, window 5 ms, backlog 4".into(),
        ),
        ("knees", Json::Arr(knees)),
        ("points", Json::Arr(points)),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let tenant_series: &[u16] = &[64, 128, 256, 384, 512, 640, 768, 896, 1024];
    let losses: &[f64] = &[0.0, 2e-3];

    println!("multi-tenant knee study — fat_tree:8 (128 hosts), poisson:2000/tenant, lognormal sizes, 5 ms window\n");
    println!(
        "{:>7} {:>8} {:>9} {:>9} {:>9} {:>7} {:>8} {:>12} {:>12} {:>9}",
        "tenants",
        "loss",
        "adaptive",
        "offered",
        "delivered",
        "shed",
        "ratio",
        "p99(us)",
        "p999(us)",
        "fairness"
    );

    let mut points: Vec<Point> = Vec::new();
    for &loss in losses {
        for adaptive in [false, true] {
            for &tenants in tenant_series {
                let p = sweep_point(tenants, loss, adaptive);
                let r = &p.report;
                println!(
                    "{:>7} {:>8} {:>9} {:>9} {:>9} {:>7} {:>8.4} {:>12.1} {:>12.1} {:>9.4}",
                    p.tenants,
                    format!("{:.0e}", p.loss),
                    if p.adaptive { "on" } else { "off" },
                    r.offered_total,
                    r.delivered_total,
                    r.shed_total,
                    r.delivery_ratio(),
                    r.p99_ns as f64 / 1e3,
                    r.p999_ns as f64 / 1e3,
                    r.fairness,
                );
                tsv(&[
                    "tenants".into(),
                    p.tenants.to_string(),
                    format!("{loss}"),
                    (p.adaptive as u8).to_string(),
                    r.offered_total.to_string(),
                    r.delivered_total.to_string(),
                    r.shed_total.to_string(),
                    format!("{:.4}", r.delivery_ratio()),
                    r.p99_ns.to_string(),
                    r.p999_ns.to_string(),
                    format!("{:.4}", r.fairness),
                ]);
                points.push(p);
            }
        }
    }

    let mut knees: Vec<(f64, Option<u16>, Option<u16>)> = Vec::new();
    println!("\ncongestion-collapse knees (first tenant count with delivery ratio < 0.9):");
    for &loss in losses {
        let series = |adaptive: bool| -> Vec<&Point> {
            points
                .iter()
                .filter(|p| p.loss == loss && p.adaptive == adaptive)
                .collect()
        };
        let k_off = knee(&series(false));
        let k_on = knee(&series(true));
        let show = |k: Option<u16>| k.map_or("none".to_string(), |v| v.to_string());
        println!(
            "  loss={:>7}: fixed-timer knee at {:>5} tenants, adaptive knee at {:>5} tenants",
            format!("{loss:.0e}"),
            show(k_off),
            show(k_on),
        );
        knees.push((loss, k_off, k_on));
    }

    let path = json_arg().unwrap_or_else(|| "BENCH_workload.json".into());
    write_bench(&path, "tenants", bench_body(&points, &knees));
}
