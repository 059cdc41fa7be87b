//! Property tests for live reconfiguration over the atlas grid:
//! generate a fabric, mutate its wiring (detach survivable links, grow
//! links across free ports, de-rack survivable switches), and after every
//! mutation the structural validators must stay green — all hosts still
//! mutually connected, no over-subscribed port budgets — and the wiring
//! fingerprint must be *exactly* as sensitive as the changed links: a
//! mutation changes it, and the reverse mutation (re-wiring the same
//! endpoints in reverse removal order, which the LIFO id allocator maps
//! back onto the same link ids) restores the old fingerprint bit-for-bit.
//!
//! The survivable link and switch sets, found by one linear search, must
//! equal their definition, one connectivity search per candidate with the
//! candidate dead: on every atlas family, after every mutation step, and
//! on damaged wirings whose hosts fall apart.

use proptest::prelude::*;
use san_fabric::{fingerprint_topology, Endpoint, LinkId, PortId, SwitchId, Topology};
use san_sim::SimRng;
use san_topo::atlas::TopoSpec;
use san_topo::validate;

/// The shapes under mutation: one of each redundant atlas family (a
/// non-redundant chain would make every detach a partition, which is the
/// survivable-candidate filter's job to exclude, not this test's).
fn grid() -> impl Strategy<Value = TopoSpec> {
    prop_oneof![
        Just(TopoSpec::FatTree { k: 4 }),
        Just(TopoSpec::Torus2D {
            rows: 3,
            cols: 4,
            hosts: 1
        }),
        Just(TopoSpec::Torus2D {
            rows: 4,
            cols: 4,
            hosts: 2
        }),
        Just(TopoSpec::Testbed(2)),
        Just(TopoSpec::SpareTree {
            fanout: 3,
            depth: 2,
            hosts: 2,
            spares: 1
        }),
    ]
}

/// Atlas families in [`family`].
const FAMILIES: u64 = 9;

/// Family `which` of the atlas at a size drawn from `rng` that a
/// per-candidate search handles quickly; the random family gets a drawn
/// wiring seed.
fn family(which: u64, rng: &mut SimRng) -> TopoSpec {
    let mut draw = |lo: u64, hi: u64| lo + rng.below(hi - lo);
    match which {
        0 => TopoSpec::Pair,
        1 => TopoSpec::Chain(draw(1, 5) as u16),
        2 => TopoSpec::Star(draw(2, 17) as u16),
        3 => TopoSpec::Testbed(draw(1, 4) as u16),
        4 => TopoSpec::FatTree {
            k: 2 * draw(1, 3) as u8,
        },
        5 => TopoSpec::Torus2D {
            rows: draw(1, 5) as u16,
            cols: draw(1, 5) as u16,
            hosts: draw(0, 3) as u8,
        },
        6 => TopoSpec::Torus3D {
            x: draw(1, 4) as u16,
            y: draw(1, 4) as u16,
            z: draw(1, 3) as u16,
            hosts: draw(0, 2) as u8,
        },
        7 => TopoSpec::Regular {
            switches: draw(2, 12) as u16,
            degree: draw(2, 5) as u8,
            hosts: draw(0, 3) as u8,
            seed: draw(1, u64::MAX),
        },
        _ => TopoSpec::SpareTree {
            fanout: draw(1, 4) as u8,
            depth: draw(1, 3) as u8,
            hosts: draw(1, 3) as u8,
            spares: draw(0, 6) as u16,
        },
    }
}

/// Survivable links by definition: fabric links whose death alone leaves
/// all hosts connected.
fn reference_links(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|(_, l)| l.a.host().is_none() && l.b.host().is_none())
        .map(|(id, _)| id)
        .filter(|&id| validate::hosts_connected(topo, |l| l != id))
        .collect()
}

/// Survivable switches by definition: host-less switches whose death
/// alone (every link touching them dead) leaves all hosts connected.
fn reference_switches(topo: &Topology) -> Vec<SwitchId> {
    (0..topo.num_switches())
        .map(|i| SwitchId(i as u16))
        .filter(|&s| topo.neighbors(s).all(|(_, _, far)| far.host().is_none()))
        .filter(|&s| {
            validate::hosts_connected(topo, |l| {
                let link = topo.link(l);
                let touches = |ep: Endpoint| ep.switch().is_some_and(|(sw, _)| sw == s);
                !(touches(link.a) || touches(link.b))
            })
        })
        .collect()
}

fn assert_survivors_match_definition(topo: &Topology, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        validate::survivable_links(topo),
        reference_links(topo),
        "{}: survivable links",
        ctx
    );
    prop_assert_eq!(
        validate::survivable_switches(topo),
        reference_switches(topo),
        "{}: survivable switches",
        ctx
    );
    Ok(())
}

/// Structural health after a mutation: every host pair still connected,
/// no port wired twice, and the survivable sets as defined.
fn assert_structurally_green(topo: &Topology, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        validate::hosts_connected(topo, |_| true),
        "{ctx}: hosts disconnected"
    );
    prop_assert!(
        validate::port_budget_ok(topo).is_ok(),
        "{ctx}: port budget violated"
    );
    assert_survivors_match_definition(topo, ctx)
}

/// One step of unconstrained damage or growth: detach any wired link
/// (host links too), de-rack any switch, or wire two free switch ports
/// chosen at random, which may sit on one switch (a self-loop link) or
/// on two switches already wired (a parallel link).
fn step_any(topo: &mut Topology, rng: &mut SimRng) {
    match rng.below(3) {
        0 => {
            let wired: Vec<LinkId> = topo.links().map(|(id, _)| id).collect();
            if !wired.is_empty() {
                topo.disconnect(wired[rng.below(wired.len() as u64) as usize]);
            }
        }
        1 => {
            if topo.num_switches() > 0 {
                let s = rng.below(topo.num_switches() as u64) as u16;
                topo.remove_switch(SwitchId(s));
            }
        }
        _ => {
            let free: Vec<Endpoint> = (0..topo.num_switches())
                .flat_map(|i| {
                    let s = SwitchId(i as u16);
                    (0..topo.switch_ports(s)).map(move |p| Endpoint::Switch(s, PortId(p)))
                })
                .filter(|&ep| topo.link_at(ep).is_none())
                .collect();
            if free.len() >= 2 {
                let a = free[rng.below(free.len() as u64) as usize];
                let b = free[rng.below(free.len() as u64) as usize];
                if a != b {
                    topo.connect(a, b);
                }
            }
        }
    }
}

/// Detach a random survivable link, prove fingerprint sensitivity and
/// reverse-mutation restoration, and leave it detached on a coin flip.
fn step_link(topo: &mut Topology, rng: &mut SimRng) -> Result<(), TestCaseError> {
    let survivable = validate::survivable_links(topo);
    if survivable.is_empty() {
        return Ok(());
    }
    let victim = survivable[rng.below(survivable.len() as u64) as usize];
    let fp0 = fingerprint_topology(topo);
    let wire = topo.disconnect(victim);
    prop_assert_ne!(
        fp0,
        fingerprint_topology(topo),
        "detaching {:?} must change the fingerprint",
        victim
    );
    assert_structurally_green(topo, "after detach")?;
    // Reverse mutation: same endpoints, LIFO id reuse, old fingerprint.
    let again = topo.try_connect(wire.a, wire.b).expect("ports were freed");
    prop_assert_eq!(again, victim, "LIFO allocator must reuse the id");
    prop_assert_eq!(fp0, fingerprint_topology(topo), "reverse mutation");
    if rng.chance(0.5) {
        topo.disconnect(victim);
        assert_structurally_green(topo, "after re-detach")?;
    }
    Ok(())
}

/// Grow a link between two free switch ports, prove sensitivity and
/// reverse restoration, and keep it on a coin flip.
fn step_grow(topo: &mut Topology, rng: &mut SimRng) -> Result<(), TestCaseError> {
    let free: Vec<Endpoint> = (0..topo.num_switches())
        .filter_map(|i| {
            let s = san_fabric::SwitchId(i as u16);
            topo.free_port(s).map(|p| Endpoint::Switch(s, PortId(p)))
        })
        .collect();
    if free.len() < 2 {
        return Ok(());
    }
    let a = free[rng.below(free.len() as u64) as usize];
    let b = free[rng.below(free.len() as u64) as usize];
    if a == b {
        return Ok(());
    }
    let fp0 = fingerprint_topology(topo);
    let id = topo.try_connect(a, b).expect("both ports are free");
    prop_assert_ne!(fp0, fingerprint_topology(topo), "grow changes the fp");
    assert_structurally_green(topo, "after grow")?;
    let fp1 = fingerprint_topology(topo);
    let wire = topo.disconnect(id);
    prop_assert_eq!(fp0, fingerprint_topology(topo), "reverse of grow");
    if rng.chance(0.5) {
        let again = topo.try_connect(wire.a, wire.b).expect("still free");
        prop_assert_eq!(again, id);
        prop_assert_eq!(fp1, fingerprint_topology(topo), "re-grow is exact");
    }
    Ok(())
}

/// De-rack a random survivable switch, prove the whole-switch reverse
/// mutation (re-wiring in reverse removal order) restores the fingerprint,
/// and leave it de-racked on a coin flip.
fn step_switch(topo: &mut Topology, rng: &mut SimRng) -> Result<(), TestCaseError> {
    let survivable = validate::survivable_switches(topo);
    if survivable.is_empty() {
        return Ok(());
    }
    let victim = survivable[rng.below(survivable.len() as u64) as usize];
    let fp0 = fingerprint_topology(topo);
    let removed = topo.remove_switch(victim);
    if removed.is_empty() {
        return Ok(()); // already bare (e.g. de-racked earlier)
    }
    prop_assert_ne!(fp0, fingerprint_topology(topo), "de-rack changes fp");
    assert_structurally_green(topo, "after de-rack")?;
    // Reverse removal order re-pops the LIFO free list onto the same ids.
    for (id, wire) in removed.iter().rev() {
        let again = topo.try_connect(wire.a, wire.b).expect("ports freed");
        prop_assert_eq!(again, *id, "reverse order must restore ids");
    }
    prop_assert_eq!(fp0, fingerprint_topology(topo), "whole-switch reverse");
    if rng.chance(0.5) {
        topo.remove_switch(victim);
        assert_structurally_green(topo, "after re-de-rack")?;
    }
    Ok(())
}

/// Parallel links, a self-loop link, a host wired straight to a host, a
/// bare switch and a fabric with no hosts, on hand-made wirings.
#[test]
fn survivable_sets_handle_odd_wirings() {
    // h0 - s0 = s1 - h1, where s0 and s1 share two parallel links, s1
    // loops a link back to itself, s2 hangs off s0 alone and s3 is bare.
    let mut t = Topology::new();
    let (h0, h1) = (t.add_host(), t.add_host());
    let s: Vec<SwitchId> = (0..4).map(|_| t.add_switch(6)).collect();
    let sw = |i: usize, p: u8| Endpoint::Switch(s[i], PortId(p));
    t.connect(Endpoint::Host(h0), sw(0, 0));
    t.connect(Endpoint::Host(h1), sw(1, 0));
    let parallel = [t.connect(sw(0, 1), sw(1, 1)), t.connect(sw(0, 2), sw(1, 2))];
    let self_loop = t.connect(sw(1, 3), sw(1, 4));
    let spur = t.connect(sw(0, 3), sw(2, 0));
    assert_eq!(
        validate::survivable_links(&t),
        [parallel[0], parallel[1], self_loop, spur]
    );
    assert_eq!(validate::survivable_switches(&t), [s[2], s[3]]);
    assert_eq!(validate::survivable_links(&t), reference_links(&t));
    assert_eq!(validate::survivable_switches(&t), reference_switches(&t));
    // With one of the parallel pair gone the other is a bridge.
    t.disconnect(parallel[0]);
    assert_eq!(validate::survivable_links(&t), [self_loop, spur]);
    assert_eq!(validate::survivable_links(&t), reference_links(&t));

    // Two hosts wired to each other and nothing else: no fabric link, and
    // every (bare) switch is survivable.
    let mut t = Topology::new();
    let (a, b) = (t.add_host(), t.add_host());
    t.add_switch(2);
    t.connect(Endpoint::Host(a), Endpoint::Host(b));
    assert!(validate::survivable_links(&t).is_empty());
    assert_eq!(validate::survivable_switches(&t), [SwitchId(0)]);
    assert_eq!(validate::survivable_switches(&t), reference_switches(&t));

    // No hosts at all: nothing to cut apart.
    let mut t = Topology::new();
    let (x, y) = (t.add_switch(2), t.add_switch(2));
    let only = t.connect(
        Endpoint::Switch(x, PortId(0)),
        Endpoint::Switch(y, PortId(0)),
    );
    assert_eq!(validate::survivable_links(&t), [only]);
    assert_eq!(validate::survivable_switches(&t), [x, y]);

    // An unwired host: nothing is survivable.
    let mut t = Topology::new();
    t.add_host();
    let h = t.add_host();
    let sw0 = t.add_switch(2);
    t.connect(Endpoint::Host(h), Endpoint::Switch(sw0, PortId(0)));
    assert!(validate::survivable_links(&t).is_empty());
    assert!(validate::survivable_switches(&t).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generate → mutate → revalidate: random mutation walks keep every
    /// structural validator green, and each mutation's fingerprint delta
    /// is exactly its changed links (proved by reverse restoration).
    #[test]
    fn mutation_walks_stay_valid_and_fp_exact(
        spec in grid(),
        seed in any::<u64>(),
        steps in 1usize..6,
    ) {
        let fab = spec.resolved(seed | 1).build();
        let mut topo = fab.topo;
        let mut rng = SimRng::seed_from(seed ^ 0x5ECF_A8B1);
        assert_structurally_green(&topo, "seed fabric")?;
        for _ in 0..steps {
            match rng.below(3) {
                0 => step_link(&mut topo, &mut rng)?,
                1 => step_grow(&mut topo, &mut rng)?,
                _ => step_switch(&mut topo, &mut rng)?,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every family, then unconstrained damage and growth: the linear
    /// search finds exactly the survivable links and switches the
    /// definition does, also once bridges, bare switches, parallel and
    /// self-loop links appear and the hosts fall apart.
    #[test]
    fn survivable_sets_match_their_definition(seed in any::<u64>(), steps in 0usize..10) {
        let mut rng = SimRng::seed_from(seed ^ 0x5AFE_C075);
        for which in 0..FAMILIES {
            let spec = family(which, &mut rng);
            let mut topo = spec.build().topo;
            let ctx = spec.format();
            assert_survivors_match_definition(&topo, &ctx)?;
            for step in 0..steps {
                step_any(&mut topo, &mut rng);
                assert_survivors_match_definition(&topo, &format!("{ctx} after step {step}"))?;
            }
        }
    }
}
