//! Route-cache determinism: the hit path must return exactly what a
//! fresh recompute would — byte-identical routes, not just plausible
//! ones — across independent cache instances, insertion orders and
//! degraded alive-sets. This is what lets chaos trials and benches trust
//! a cached plan as a stand-in for a full replan.

use san_fabric::LinkId;
use san_topo::atlas::TopoSpec;
use san_topo::{GenericDiversePlanner, PlanRequest, RouteCache, RoutePlanner};

fn specs() -> Vec<TopoSpec> {
    vec![
        TopoSpec::FatTree { k: 4 },
        TopoSpec::Torus2D {
            rows: 4,
            cols: 4,
            hosts: 2,
        },
        TopoSpec::Regular {
            switches: 12,
            degree: 4,
            hosts: 2,
            seed: 42,
        },
    ]
}

#[test]
fn cached_plan_is_byte_identical_to_fresh_recompute() {
    for spec in specs() {
        let f = spec.build();
        let dead = [f.topo.links().next().unwrap().0];

        // Warm one cache, then read the same key back through the hit
        // path; plan the identical inputs in a second, independent cache
        // and directly without any cache at all.
        let mut warm = RouteCache::new(4);
        let _ = warm.plan(&f.topo, &f.hosts, &dead);
        let hit = warm.plan(&f.topo, &f.hosts, &dead);
        assert_eq!(
            warm.hits.get(),
            1,
            "{}: second read must hit",
            spec.format()
        );

        let mut fresh = RouteCache::new(4);
        let recomputed = fresh.plan(&f.topo, &f.hosts, &dead);
        let direct = GenericDiversePlanner::new()
            .plan(&PlanRequest {
                topo: &f.topo,
                hosts: &f.hosts,
                k: 4,
                alive: &|l: LinkId| !dead.contains(&l),
                hints: None,
            })
            .table;

        assert_eq!(
            hit.fingerprint(),
            recomputed.fingerprint(),
            "{}: cache hit differs from an independent cache's recompute",
            spec.format()
        );
        assert_eq!(
            hit.fingerprint(),
            direct.fingerprint(),
            "{}: cache hit differs from an uncached plan",
            spec.format()
        );
        // Fingerprints hash every route byte, but make the claim literal
        // for a sample pair too: same candidate set, same order.
        let (a, b) = (f.hosts[0], f.hosts[f.hosts.len() - 1]);
        assert_eq!(hit.routes(a, b), direct.routes(a, b));
    }
}

#[test]
fn insertion_order_does_not_change_plans() {
    let f = TopoSpec::FatTree { k: 4 }.build();
    let dead_a = [f.topo.links().next().unwrap().0];
    let dead_b: [_; 0] = [];

    // Cache 1 sees (A, B); cache 2 sees (B, A). Both must serve the same
    // tables for the same keys.
    let mut one = RouteCache::new(4);
    let a1 = one.plan(&f.topo, &f.hosts, &dead_a);
    let b1 = one.plan(&f.topo, &f.hosts, &dead_b);
    let mut two = RouteCache::new(4);
    let b2 = two.plan(&f.topo, &f.hosts, &dead_b);
    let a2 = two.plan(&f.topo, &f.hosts, &dead_a);

    assert_eq!(a1.fingerprint(), a2.fingerprint());
    assert_eq!(b1.fingerprint(), b2.fingerprint());
    assert_ne!(
        a1.fingerprint(),
        b1.fingerprint(),
        "degraded and healthy plans must differ on a fabric with a used link down"
    );
}
