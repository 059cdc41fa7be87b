//! Property tests over the whole atlas parameter grid: every generator,
//! for every parameter combination it accepts, must yield a fabric that
//! passes full structural validation — all hosts wired and mutually
//! connected, no over-subscribed switch port budgets, and a working
//! UP*/DOWN* full map (`UpDownMap::build` succeeds and routes every
//! sampled pair). `validate::check` is exactly that bundle, so each case
//! below is "build an arbitrary spec, then `check` it". Each case also
//! checks that the one-search-per-source route rows equal the per-pair
//! searches, with every link alive and with one seeded dead link.

use proptest::prelude::*;
use san_fabric::fingerprint_topology;
use san_fabric::updown::UpDownMap;
use san_fabric::{LinkId, NodeId, Topology};
use san_sim::SimRng;
use san_topo::atlas::TopoSpec;
use san_topo::validate;

/// For each sampled source and every destination, row entry `b` of both
/// disciplines' one-search rows must equal the per-pair route to `b`
/// (`None` on both sides when `b` is unreachable).
fn rows_match_pairs(
    topo: &Topology,
    sources: &[NodeId],
    alive: impl Fn(LinkId) -> bool + Copy,
    label: &str,
) -> Result<(), TestCaseError> {
    let map = UpDownMap::build(topo, alive).expect("atlas fabrics have switches");
    for &a in sources {
        let shortest = topo.shortest_routes_from(a, alive);
        let updown = map.routes_from(topo, a, alive);
        for b in (0..topo.num_hosts()).map(|b| NodeId(b as u16)) {
            prop_assert_eq!(
                shortest[b.idx()],
                topo.shortest_route(a, b, alive),
                "{}: shortest {} -> {}",
                label,
                a,
                b
            );
            prop_assert_eq!(
                updown[b.idx()],
                map.route(topo, a, b, alive),
                "{}: UP*/DOWN* {} -> {}",
                label,
                a,
                b
            );
        }
    }
    Ok(())
}

/// Build the (seed-resolved) spec, run the full validator bundle, then
/// check the route rows against the per-pair searches.
fn assert_valid(spec: TopoSpec, seed: u64) -> Result<(), TestCaseError> {
    let resolved = spec.resolved(seed);
    let fab = resolved.build();
    match validate::check(&fab) {
        Ok(survey) => {
            prop_assert!(
                survey.hosts >= 2,
                "{}: atlas fabric with {} hosts cannot carry traffic",
                resolved.format(),
                survey.hosts
            );
            prop_assert!(
                survey.diameter_hops >= 1,
                "{}: zero-hop diameter over distinct hosts",
                resolved.format()
            );
        }
        Err(e) => {
            prop_assert!(false, "{}: {e}", resolved.format());
        }
    }
    let topo = &fab.topo;
    let sources = validate::sample_hosts(&fab.hosts, 8);
    let label = resolved.format();
    rows_match_pairs(topo, &sources, |_| true, &label)?;
    let mut rng = SimRng::seed_from(fingerprint_topology(topo) ^ seed);
    let dead = LinkId(rng.below(topo.num_links() as u64) as u32);
    rows_match_pairs(
        topo,
        &sources,
        |l| l != dead,
        &format!("{label} without link {}", dead.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fat trees of every even arity the generator accepts.
    #[test]
    fn fat_trees_validate(k in prop_oneof![Just(2u8), Just(4), Just(6), Just(8), Just(10)]) {
        assert_valid(TopoSpec::FatTree { k }, 0)?;
    }

    /// 2D tori, including degenerate 1×N rings and asymmetric grids.
    #[test]
    fn tori_2d_validate(
        rows in 1u16..9,
        cols in 2u16..9,
        hosts in 1u8..4,
    ) {
        assert_valid(TopoSpec::Torus2D { rows, cols, hosts }, 0)?;
    }

    /// 3D tori across small extents.
    #[test]
    fn tori_3d_validate(
        x in 2u16..5,
        y in 2u16..5,
        z in 1u16..4,
        hosts in 1u8..3,
    ) {
        assert_valid(TopoSpec::Torus3D { x, y, z, hosts }, 0)?;
    }

    /// Random regular graphs: any switch count, degree and wiring seed.
    /// Seed 0 means "draw fresh", so the resolved spec must still build a
    /// connected, in-budget fabric for whatever wiring comes out.
    #[test]
    fn regular_graphs_validate(
        switches in 3u16..33,
        degree in 2u8..7,
        hosts in 1u8..4,
        seed in any::<u64>(),
    ) {
        assert_valid(TopoSpec::Regular { switches, degree, hosts, seed }, seed | 1)?;
    }

    /// Spare-link trees: every fanout/depth/spare combination stays
    /// connected and inside the port budget even when the spare ring
    /// wants more leaf pairs than exist.
    #[test]
    fn spare_trees_validate(
        fanout in 2u8..5,
        depth in 1u8..4,
        hosts in 1u8..4,
        spares in 0u16..9,
    ) {
        assert_valid(TopoSpec::SpareTree { fanout, depth, hosts, spares }, 0)?;
    }

    /// The small curated shapes (paper testbed, chains, stars) across
    /// their parameter ranges.
    #[test]
    fn curated_shapes_validate(
        k in 1u16..9,
        n in 2u16..17,
        h in 1u16..5,
    ) {
        assert_valid(TopoSpec::Pair, 0)?;
        assert_valid(TopoSpec::Chain(k), 0)?;
        assert_valid(TopoSpec::Star(n), 0)?;
        assert_valid(TopoSpec::Testbed(h), 0)?;
    }
}
