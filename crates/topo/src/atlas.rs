//! The topology atlas: every shape the workspace runs on, behind one
//! parametric handle with a stable string form.
//!
//! Generators only use the public `Topology` wiring API, so a generated
//! fabric is indistinguishable from a hand-wired one. All generators are
//! deterministic: the same spec (including the seed for the random family)
//! always produces byte-identical wiring, which is what lets a chaos
//! trial be replayed from its spec string alone.

use san_fabric::topology::{self, Topology};
use std::collections::VecDeque;

use san_fabric::route::MAX_HOPS;
use san_fabric::{LinkId, NodeId, SwitchId};
use san_sim::SimRng;

/// The family a spec belongs to — the label telemetry and benches group by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoClass {
    /// Two hosts through one switch.
    Pair,
    /// Hosts at the ends of a switch chain.
    Chain,
    /// Hosts on a single switch.
    Star,
    /// The paper's Figure 2 redundant testbed.
    Testbed,
    /// Fat-tree / folded Clos.
    FatTree,
    /// 2D wrap-around mesh.
    Torus2D,
    /// 3D wrap-around mesh.
    Torus3D,
    /// Random near-d-regular fabric over a connectivity ring.
    Regular,
    /// Complete f-ary tree with spare leaf-to-leaf links.
    SpareTree,
}

impl TopoClass {
    /// Stable lowercase name (telemetry metric component, TSV column).
    pub fn name(self) -> &'static str {
        match self {
            TopoClass::Pair => "pair",
            TopoClass::Chain => "chain",
            TopoClass::Star => "star",
            TopoClass::Testbed => "testbed",
            TopoClass::FatTree => "fat_tree",
            TopoClass::Torus2D => "torus2d",
            TopoClass::Torus3D => "torus3d",
            TopoClass::Regular => "regular",
            TopoClass::SpareTree => "spare_tree",
        }
    }
}

/// A parametric topology description. Parameters are clamped to sane
/// ranges at build time, so every spec that parses also builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// Two hosts, one switch (`"pair"`).
    Pair,
    /// Two hosts at the ends of a k-switch chain (`"chain:K"`).
    Chain(u16),
    /// n hosts on one 16-port switch (`"star:N"`).
    Star(u16),
    /// The Figure 2 testbed with h hosts per switch (`"testbed:H"`).
    Testbed(u16),
    /// Fat-tree of even arity k (`"fat_tree:K"`): k pods of k/2 edge and
    /// k/2 aggregation switches plus (k/2)² cores; k/2 hosts per edge
    /// switch → k³/4 hosts on k-port switches. `fat_tree:8` = 128 hosts,
    /// 80 switches.
    FatTree {
        /// Arity (ports per switch); clamped to even 2..=16.
        k: u8,
    },
    /// rows×cols wrap-around mesh with h hosts per switch
    /// (`"torus2d:RxCxH"`). `torus2d:8x8x2` = 128 hosts, 64 switches.
    Torus2D {
        /// Grid rows.
        rows: u16,
        /// Grid columns.
        cols: u16,
        /// Hosts per switch.
        hosts: u8,
    },
    /// x×y×z wrap-around mesh with h hosts per switch
    /// (`"torus3d:XxYxZxH"`).
    Torus3D {
        /// Extent in x.
        x: u16,
        /// Extent in y.
        y: u16,
        /// Extent in z.
        z: u16,
        /// Hosts per switch.
        hosts: u8,
    },
    /// n switches on a connectivity ring plus seeded random matchings up
    /// to degree d, h hosts per switch (`"regular:NxDxH:SEED"`). Seed 0 in
    /// a chaos campaign means "draw a fresh wiring per trial".
    Regular {
        /// Switch count.
        switches: u16,
        /// Target switch-to-switch degree (the ring contributes 2).
        degree: u8,
        /// Hosts per switch.
        hosts: u8,
        /// Wiring seed.
        seed: u64,
    },
    /// Complete f-ary switch tree of the given depth, h hosts per leaf,
    /// plus s spare leaf-to-leaf ring links that make leaf uplinks
    /// redundant (`"spare_tree:FxDxH:S"`).
    SpareTree {
        /// Fanout per interior switch.
        fanout: u8,
        /// Tree depth (levels below the root).
        depth: u8,
        /// Hosts per leaf switch.
        hosts: u8,
        /// Spare leaf-ring links.
        spares: u16,
    },
}

/// A built topology plus the identity the generator knows about it.
pub struct Fabric {
    /// The spec that produced this fabric (after clamping).
    pub spec: TopoSpec,
    /// The wiring.
    pub topo: Topology,
    /// All hosts, in id order.
    pub hosts: Vec<NodeId>,
    /// All switches, in id order.
    pub switches: Vec<SwitchId>,
    /// Links the generator wired for redundancy rather than reachability
    /// (testbed redundant links, spare-tree ring links). Empty for shapes
    /// whose redundancy is intrinsic (torus, fat-tree).
    pub spare_links: Vec<LinkId>,
}

impl Fabric {
    /// The family label.
    pub fn class(&self) -> TopoClass {
        self.spec.class()
    }

    /// Order-independent FNV-1a fingerprint of the wiring: host count,
    /// per-switch port counts and every link's endpoints. Two fabrics with
    /// the same fingerprint route identically.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_topology(&self.topo)
    }

    /// Largest port count of any switch — what an on-demand mapper must
    /// set `max_ports` to so no port goes unprobed.
    pub fn max_ports(&self) -> u8 {
        self.switches
            .iter()
            .map(|&s| self.topo.switch_ports(s))
            .max()
            .unwrap_or(0)
    }
}

use san_fabric::fingerprint_topology;

impl TopoSpec {
    /// The family label.
    pub fn class(&self) -> TopoClass {
        match self {
            TopoSpec::Pair => TopoClass::Pair,
            TopoSpec::Chain(_) => TopoClass::Chain,
            TopoSpec::Star(_) => TopoClass::Star,
            TopoSpec::Testbed(_) => TopoClass::Testbed,
            TopoSpec::FatTree { .. } => TopoClass::FatTree,
            TopoSpec::Torus2D { .. } => TopoClass::Torus2D,
            TopoSpec::Torus3D { .. } => TopoClass::Torus3D,
            TopoSpec::Regular { .. } => TopoClass::Regular,
            TopoSpec::SpareTree { .. } => TopoClass::SpareTree,
        }
    }

    /// The stable string form, `parse`'s inverse.
    pub fn format(&self) -> String {
        match *self {
            TopoSpec::Pair => "pair".into(),
            TopoSpec::Chain(k) => format!("chain:{k}"),
            TopoSpec::Star(n) => format!("star:{n}"),
            TopoSpec::Testbed(h) => format!("testbed:{h}"),
            TopoSpec::FatTree { k } => format!("fat_tree:{k}"),
            TopoSpec::Torus2D { rows, cols, hosts } => format!("torus2d:{rows}x{cols}x{hosts}"),
            TopoSpec::Torus3D { x, y, z, hosts } => format!("torus3d:{x}x{y}x{z}x{hosts}"),
            TopoSpec::Regular {
                switches,
                degree,
                hosts,
                seed,
            } => format!("regular:{switches}x{degree}x{hosts}:{seed}"),
            TopoSpec::SpareTree {
                fanout,
                depth,
                hosts,
                spares,
            } => format!("spare_tree:{fanout}x{depth}x{hosts}:{spares}"),
        }
    }

    /// Parse the string form: `pair`, `chain:K`, `star:N`, `testbed:H`,
    /// `fat_tree:K`, `torus2d:RxCxH`, `torus3d:XxYxZxH`,
    /// `regular:NxDxH[:SEED]`, `spare_tree:FxDxH[:S]`. An argument too
    /// large for its field is an error, and so is a torus whose clamped
    /// size needs more host or switch ids than 16 bits can number.
    pub fn parse(s: &str) -> Result<TopoSpec, String> {
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        let arg = |i: usize, what: &str| -> Result<&str, String> {
            args.get(i)
                .copied()
                .ok_or(format!("{kind} needs argument {what}"))
        };
        let num = |txt: &str, what: &str| -> Result<u64, String> {
            txt.parse::<u64>()
                .map_err(|_| format!("bad {what} '{txt}'"))
        };
        let dims = |txt: &str, n: usize| -> Result<Vec<u64>, String> {
            let xs: Result<Vec<u64>, String> =
                txt.split('x').map(|p| num(p, "dimension")).collect();
            let xs = xs?;
            if xs.len() != n {
                return Err(format!(
                    "{kind} wants {n} 'x'-separated numbers, got '{txt}'"
                ));
            }
            Ok(xs)
        };
        let u16_of = |v: u64, what: &str| -> Result<u16, String> {
            u16::try_from(v).map_err(|_| format!("{kind}: {what} {v} is larger than {}", u16::MAX))
        };
        let u8_of = |v: u64, what: &str| -> Result<u8, String> {
            u8::try_from(v).map_err(|_| format!("{kind}: {what} {v} is larger than {}", u8::MAX))
        };
        let num16 = |txt: &str, what: &str| u16_of(num(txt, what)?, what);
        let spec = match kind {
            "pair" => TopoSpec::Pair,
            "chain" => TopoSpec::Chain(num16(arg(0, "K")?, "chain length")?),
            "star" => TopoSpec::Star(num16(arg(0, "N")?, "star size")?),
            "testbed" => TopoSpec::Testbed(num16(arg(0, "H")?, "hosts per switch")?),
            "fat_tree" => TopoSpec::FatTree {
                k: u8_of(num(arg(0, "K")?, "arity")?, "arity")?,
            },
            "torus2d" => {
                let d = dims(arg(0, "RxCxH")?, 3)?;
                TopoSpec::Torus2D {
                    rows: u16_of(d[0], "rows")?,
                    cols: u16_of(d[1], "cols")?,
                    hosts: u8_of(d[2], "hosts per switch")?,
                }
            }
            "torus3d" => {
                let d = dims(arg(0, "XxYxZxH")?, 4)?;
                TopoSpec::Torus3D {
                    x: u16_of(d[0], "x extent")?,
                    y: u16_of(d[1], "y extent")?,
                    z: u16_of(d[2], "z extent")?,
                    hosts: u8_of(d[3], "hosts per switch")?,
                }
            }
            "regular" => {
                let d = dims(arg(0, "NxDxH")?, 3)?;
                let seed = match args.get(1) {
                    Some(s) => num(s, "seed")?,
                    None => 1,
                };
                TopoSpec::Regular {
                    switches: u16_of(d[0], "switch count")?,
                    degree: u8_of(d[1], "degree")?,
                    hosts: u8_of(d[2], "hosts per switch")?,
                    seed,
                }
            }
            "spare_tree" => {
                let d = dims(arg(0, "FxDxH")?, 3)?;
                let spares = match args.get(1) {
                    Some(s) => num16(s, "spares")?,
                    None => u16::MAX, // full leaf ring
                };
                TopoSpec::SpareTree {
                    fanout: u8_of(d[0], "fanout")?,
                    depth: u8_of(d[1], "depth")?,
                    hosts: u8_of(d[2], "hosts per switch")?,
                    spares,
                }
            }
            _ => return Err(format!("unknown topology '{s}'")),
        };
        // Only the tori can outgrow 16-bit ids once clamped: the other
        // generators clamp to at most a few thousand switches and hosts
        // (a chain's u16 length is at most 65,535 switches). No id value
        // is reserved, so 16 bits number 65,536 hosts and 65,536 switches.
        let torus = match spec {
            TopoSpec::Torus2D { rows, cols, hosts } => {
                Some((torus_extent(rows) * torus_extent(cols), hosts))
            }
            TopoSpec::Torus3D { x, y, z, hosts } => {
                Some((torus_extent(x) * torus_extent(y) * torus_extent(z), hosts))
            }
            _ => None,
        };
        if let Some((switches, hosts_per)) = torus {
            let hosts = switches * torus_hosts_per(hosts_per) as usize;
            for (n, what) in [(switches, "switch"), (hosts, "host")] {
                if n > 1 << 16 {
                    return Err(format!(
                        "{s} needs {n} {what} ids; 16-bit ids number at most {}",
                        1 << 16
                    ));
                }
            }
        }
        Ok(spec)
    }

    /// For the random family, a seed of 0 means "decided elsewhere" (chaos
    /// campaigns substitute the trial seed). This pins it.
    pub fn resolved(self, seed: u64) -> TopoSpec {
        match self {
            TopoSpec::Regular {
                switches,
                degree,
                hosts,
                seed: 0,
            } => TopoSpec::Regular {
                switches,
                degree,
                hosts,
                seed,
            },
            other => other,
        }
    }

    /// Build the fabric. Parameters are clamped (never panics); the
    /// clamped spec is recorded in the result.
    pub fn build(&self) -> Fabric {
        match *self {
            TopoSpec::Pair => {
                let (topo, a, b) = topology::pair_via_switch();
                finish(TopoSpec::Pair, topo, vec![a, b], Vec::new())
            }
            TopoSpec::Chain(k) => {
                let k = k.max(1);
                let (topo, a, b) = topology::chain(k as usize);
                finish(TopoSpec::Chain(k), topo, vec![a, b], Vec::new())
            }
            TopoSpec::Star(n) => {
                let n = n.clamp(2, 16);
                let (topo, hosts) = topology::star(n as usize);
                finish(TopoSpec::Star(n), topo, hosts, Vec::new())
            }
            TopoSpec::Testbed(h) => {
                let h = h.clamp(1, 6);
                let tb = topology::paper_mapping_testbed(h as usize);
                finish(TopoSpec::Testbed(h), tb.topo, tb.hosts, tb.redundant_links)
            }
            TopoSpec::FatTree { k } => fat_tree(k),
            TopoSpec::Torus2D { rows, cols, hosts } => {
                torus(&[rows, cols], hosts, |d, h| TopoSpec::Torus2D {
                    rows: d[0],
                    cols: d[1],
                    hosts: h,
                })
            }
            TopoSpec::Torus3D { x, y, z, hosts } => {
                torus(&[x, y, z], hosts, |d, h| TopoSpec::Torus3D {
                    x: d[0],
                    y: d[1],
                    z: d[2],
                    hosts: h,
                })
            }
            TopoSpec::Regular {
                switches,
                degree,
                hosts,
                seed,
            } => regular(switches, degree, hosts, seed),
            TopoSpec::SpareTree {
                fanout,
                depth,
                hosts,
                spares,
            } => spare_tree(fanout, depth, hosts, spares),
        }
    }
}

/// Collect hosts/switches id lists and assemble the result.
fn finish(spec: TopoSpec, topo: Topology, hosts: Vec<NodeId>, spare_links: Vec<LinkId>) -> Fabric {
    let switches = (0..topo.num_switches())
        .map(|i| SwitchId(i as u16))
        .collect();
    Fabric {
        spec,
        topo,
        hosts,
        switches,
        spare_links,
    }
}

/// Wire two switches over their lowest free ports.
fn wire(t: &mut Topology, a: SwitchId, b: SwitchId) -> LinkId {
    let pa = t.free_port(a).expect("switch out of ports");
    let pb = t.free_port(b).expect("switch out of ports");
    t.connect_switches(a, pa, b, pb)
}

/// Wire a host to a switch's lowest free port.
fn wire_host(t: &mut Topology, h: NodeId, s: SwitchId) -> LinkId {
    let p = t.free_port(s).expect("switch out of ports");
    t.connect_host(h, s, p)
}

/// Fat-tree / folded Clos of arity k: the canonical large-fabric stress
/// case (every host pair has k/2 link-disjoint minimal paths across pods).
fn fat_tree(k: u8) -> Fabric {
    let k = (k.clamp(2, 16) & !1).max(2); // even, 2..=16
    let half = (k / 2) as usize;
    let pods = k as usize;
    let mut t = Topology::new();
    // Switch ids: per pod, edges then aggs; cores last.
    let mut edges = Vec::new();
    let mut aggs = Vec::new();
    for _ in 0..pods {
        edges.push((0..half).map(|_| t.add_switch(k)).collect::<Vec<_>>());
        aggs.push((0..half).map(|_| t.add_switch(k)).collect::<Vec<_>>());
    }
    let cores: Vec<SwitchId> = (0..half * half).map(|_| t.add_switch(k)).collect();
    let mut hosts = Vec::new();
    for p in 0..pods {
        for &e in &edges[p] {
            // Hosts first so they occupy the low ports of each edge switch.
            for _ in 0..half {
                let h = t.add_host();
                wire_host(&mut t, h, e);
                hosts.push(h);
            }
            for &a in &aggs[p] {
                wire(&mut t, e, a);
            }
        }
        // Aggregation j of every pod reaches core group j.
        for (j, &a) in aggs[p].iter().enumerate() {
            for i in 0..half {
                wire(&mut t, a, cores[j * half + i]);
            }
        }
    }
    finish(TopoSpec::FatTree { k }, t, hosts, Vec::new())
}

/// A torus extent as the generator builds it: 1..=64 switches.
fn torus_extent(d: u16) -> usize {
    d.clamp(1, 64) as usize
}

/// Hosts per torus switch as the generator builds it: 1..=8.
fn torus_hosts_per(h: u8) -> u8 {
    h.clamp(1, 8)
}

/// Wrap-around mesh over arbitrary dimension extents.
fn torus(dims: &[u16], hosts_per: u8, respec: fn([u16; 3], u8) -> TopoSpec) -> Fabric {
    let dims: Vec<usize> = dims.iter().map(|&d| torus_extent(d)).collect();
    let hosts_per = torus_hosts_per(hosts_per);
    let n: usize = dims.iter().product();
    let ports = (2 * dims.len() + hosts_per as usize).min(255) as u8;
    let mut t = Topology::new();
    let switches: Vec<SwitchId> = (0..n).map(|_| t.add_switch(ports)).collect();
    // Index helpers: coordinate of flat index i along dim d.
    let stride = |d: usize| -> usize { dims[..d].iter().product() };
    for i in 0..n {
        for (d, &extent) in dims.iter().enumerate() {
            if extent < 2 {
                continue;
            }
            let coord = (i / stride(d)) % extent;
            // Connect to the +1 neighbor; for extent 2 that wrap link would
            // duplicate the 0→1 link, so only coord 0 wires it.
            if extent == 2 && coord != 0 {
                continue;
            }
            let next = (coord + 1) % extent;
            let j = i - coord * stride(d) + next * stride(d);
            wire(&mut t, switches[i], switches[j]);
        }
    }
    let mut hosts = Vec::new();
    for &s in &switches {
        for _ in 0..hosts_per {
            let h = t.add_host();
            wire_host(&mut t, h, s);
            hosts.push(h);
        }
    }
    let mut d3 = [1u16; 3];
    for (i, &d) in dims.iter().enumerate().take(3) {
        d3[i] = d as u16;
    }
    finish(respec(d3, hosts_per), t, hosts, Vec::new())
}

/// Random near-d-regular fabric: a connectivity ring (degree 2) plus
/// seeded random matchings until every switch reaches degree d or the
/// retry budget runs out. Connected by construction; the exact degree is
/// best-effort (hence "near"-regular), which the validators tolerate.
///
/// Two extra ports per switch are reserved for depth-bounding chords:
/// source routes carry at most [`MAX_HOPS`] port bytes, and a sparse
/// wiring (a degree-2 spec is a bare ring) can push the UP*/DOWN* tree
/// deeper than any in-budget route can climb. After the matchings, any
/// switch deeper than `(MAX_HOPS - 2) / 2` levels from the root gets a
/// chord from the shallowest switch with a reserve port free, so every
/// host pair keeps a legal route within the budget.
fn regular(switches: u16, degree: u8, hosts_per: u8, seed: u64) -> Fabric {
    let n = switches.clamp(3, 256) as usize;
    let hosts_per = hosts_per.clamp(1, 8);
    let degree = degree.clamp(2, 12) as usize;
    let ports = (degree + hosts_per as usize + 2).min(255) as u8;
    let mut t = Topology::new();
    let sw: Vec<SwitchId> = (0..n).map(|_| t.add_switch(ports)).collect();
    let mut deg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let j = (i + 1) % n;
        wire(&mut t, sw[i], sw[j]);
        deg[i] += 1;
        deg[j] += 1;
        adj[i].push(j);
        adj[j].push(i);
    }
    let mut rng = SimRng::seed_from(seed ^ 0x7061_6e64_6f6d); // family salt
    let mut order: Vec<usize> = (0..n).collect();
    for _pass in 0..degree.saturating_sub(2) * 2 {
        rng.shuffle(&mut order);
        for pair in order.chunks(2) {
            let [i, j] = [pair[0], *pair.get(1).unwrap_or(&pair[0])];
            if i == j || deg[i] >= degree || deg[j] >= degree || adj[i].contains(&j) {
                continue;
            }
            wire(&mut t, sw[i], sw[j]);
            deg[i] += 1;
            deg[j] += 1;
            adj[i].push(j);
            adj[j].push(i);
        }
    }
    // Depth-bounding repair. The UP*/DOWN* root is the lowest-id switch;
    // the worst legal route climbs to the root and back down, traversing
    // depth(src) + depth(dst) + 1 switches, so every switch must sit
    // within (MAX_HOPS - 2) / 2 levels. Each chord pins the current
    // deepest switch to depth(u) + 1 where u is the shallowest switch
    // with a reserve port left; fixed switches become shallow donors
    // themselves, so the repair front grows as it advances.
    let max_depth = (MAX_HOPS - 2) / 2;
    let mut chords = vec![0usize; n];
    for _ in 0..n {
        let mut depth = vec![usize::MAX; n];
        depth[0] = 0;
        let mut q = VecDeque::from([0usize]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if depth[v] == usize::MAX {
                    depth[v] = depth[u] + 1;
                    q.push_back(v);
                }
            }
        }
        let Some(deep) = (0..n)
            .filter(|&i| depth[i] > max_depth)
            .max_by_key(|&i| depth[i])
        else {
            break;
        };
        let Some(shallow) = (0..n)
            .filter(|&i| {
                depth[i] < max_depth && chords[i] < 2 && i != deep && !adj[i].contains(&deep)
            })
            .min_by_key(|&i| depth[i])
        else {
            break;
        };
        wire(&mut t, sw[shallow], sw[deep]);
        chords[shallow] += 1;
        chords[deep] += 1;
        adj[shallow].push(deep);
        adj[deep].push(shallow);
    }
    let mut hosts = Vec::new();
    for &s in &sw {
        for _ in 0..hosts_per {
            let h = t.add_host();
            wire_host(&mut t, h, s);
            hosts.push(h);
        }
    }
    let spec = TopoSpec::Regular {
        switches: n as u16,
        degree: degree as u8,
        hosts: hosts_per,
        seed,
    };
    finish(spec, t, hosts, Vec::new())
}

/// Complete f-ary switch tree with hosts on the leaves and a spare ring
/// over the leaves. With a full ring (spares >= leaf count), no single
/// leaf uplink is a cut edge — the tree analogue of the paper's redundant
/// testbed, at scale.
fn spare_tree(fanout: u8, depth: u8, hosts_per: u8, spares: u16) -> Fabric {
    let f = fanout.clamp(2, 8) as usize;
    let d = depth.clamp(1, 4) as usize;
    let hosts_per = hosts_per.clamp(1, 8);
    let n_leaves = f.pow(d as u32);
    let spares = (spares as usize).min(if n_leaves > 2 { n_leaves } else { 1 });
    let mut t = Topology::new();
    // Level by level; each switch gets enough ports for parent + children
    // (interior) or parent + hosts + 2 ring links (leaf).
    let mut levels: Vec<Vec<SwitchId>> = Vec::new();
    for lvl in 0..=d {
        let count = f.pow(lvl as u32);
        let ports = if lvl == d {
            1 + hosts_per as usize + 2
        } else if lvl == 0 {
            f
        } else {
            1 + f
        };
        levels.push((0..count).map(|_| t.add_switch(ports as u8)).collect());
    }
    for lvl in 1..=d {
        for (i, &s) in levels[lvl].iter().enumerate() {
            wire(&mut t, levels[lvl - 1][i / f], s);
        }
    }
    let mut hosts = Vec::new();
    for &leaf in &levels[d] {
        for _ in 0..hosts_per {
            let h = t.add_host();
            wire_host(&mut t, h, leaf);
            hosts.push(h);
        }
    }
    let mut spare_links = Vec::new();
    for j in 0..spares {
        let a = levels[d][j];
        let b = levels[d][(j + 1) % n_leaves];
        if a != b {
            spare_links.push(wire(&mut t, a, b));
        }
    }
    let spec = TopoSpec::SpareTree {
        fanout: f as u8,
        depth: d as u8,
        hosts: hosts_per,
        spares: spares as u16,
    };
    finish(spec, t, hosts, spare_links)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_strings_round_trip() {
        for s in [
            "pair",
            "chain:3",
            "star:8",
            "testbed:2",
            "fat_tree:8",
            "torus2d:8x8x2",
            "torus3d:4x4x4x1",
            "regular:24x4x2:7",
            "spare_tree:4x2x2:16",
        ] {
            let spec = TopoSpec::parse(s).unwrap();
            assert_eq!(spec.format(), s, "format must invert parse");
            assert_eq!(TopoSpec::parse(&spec.format()).unwrap(), spec);
        }
        assert!(TopoSpec::parse("hypercube:4").is_err());
        assert!(TopoSpec::parse("torus2d:8x8").is_err());
    }

    #[test]
    fn specs_beyond_16_bit_ids_are_errors() {
        for (s, why) in [
            ("torus3d:41x41x41x1", "needs 68921 switch ids"),
            ("torus3d:24x24x24x8", "needs 110592 host ids"),
            ("chain:65537", "chain length 65537 is larger than 65535"),
            ("torus2d:65536x8x2", "rows 65536 is larger than 65535"),
            ("fat_tree:256", "arity 256 is larger than 255"),
        ] {
            let err = TopoSpec::parse(s).expect_err(s);
            assert!(err.contains(why), "{s}: {err}");
        }
        // The largest values that fit still parse, and the generators
        // clamp them as before.
        assert_eq!(
            TopoSpec::parse("chain:65535").unwrap(),
            TopoSpec::Chain(u16::MAX)
        );
        assert!(
            TopoSpec::parse("torus3d:64x64x16x1").is_ok(),
            "65536 switch ids"
        );
        assert!(
            TopoSpec::parse("torus3d:64x64x2x8").is_ok(),
            "65536 host ids"
        );
        let f = TopoSpec::parse("torus2d:65535x8x2").unwrap().build();
        assert_eq!(f.switches.len(), 64 * 8, "rows clamp to 64");
    }

    #[test]
    fn fat_tree_shape() {
        let f = TopoSpec::FatTree { k: 8 }.build();
        assert_eq!(f.hosts.len(), 128, "k^3/4 hosts");
        assert_eq!(f.switches.len(), 80, "k pods * k + (k/2)^2 cores");
        assert_eq!(f.max_ports(), 8);
        // 128 host links + 128 edge-agg + 128 agg-core.
        assert_eq!(f.topo.num_links(), 384);
    }

    #[test]
    fn torus_shape() {
        let f = TopoSpec::Torus2D {
            rows: 8,
            cols: 8,
            hosts: 2,
        }
        .build();
        assert_eq!(f.hosts.len(), 128);
        assert_eq!(f.switches.len(), 64);
        // 2 torus links per switch (each of the 64 switches owns its +row
        // and +col link) + 128 host links.
        assert_eq!(f.topo.num_links(), 128 + 128);
        let f3 = TopoSpec::Torus3D {
            x: 4,
            y: 4,
            z: 4,
            hosts: 1,
        }
        .build();
        assert_eq!(f3.hosts.len(), 64);
        assert_eq!(f3.topo.num_links(), 3 * 64 + 64);
    }

    #[test]
    fn extent_two_torus_has_no_duplicate_links() {
        let f = TopoSpec::Torus2D {
            rows: 2,
            cols: 2,
            hosts: 1,
        }
        .build();
        // 4 switches in a cycle (4 links), one host each.
        assert_eq!(f.topo.num_links(), 4 + 4);
    }

    #[test]
    fn regular_is_deterministic_per_seed() {
        let a = TopoSpec::Regular {
            switches: 24,
            degree: 4,
            hosts: 2,
            seed: 9,
        }
        .build();
        let b = TopoSpec::Regular {
            switches: 24,
            degree: 4,
            hosts: 2,
            seed: 9,
        }
        .build();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = TopoSpec::Regular {
            switches: 24,
            degree: 4,
            hosts: 2,
            seed: 10,
        }
        .build();
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed changes wiring");
    }

    #[test]
    fn seed_zero_resolves_late() {
        let spec = TopoSpec::parse("regular:16x3x1:0").unwrap();
        assert_eq!(
            spec.resolved(42),
            TopoSpec::Regular {
                switches: 16,
                degree: 3,
                hosts: 1,
                seed: 42
            }
        );
        // A pinned seed is left alone.
        assert_eq!(spec.resolved(42).resolved(43), spec.resolved(42));
    }

    #[test]
    fn spare_tree_records_spares() {
        let f = TopoSpec::SpareTree {
            fanout: 4,
            depth: 2,
            hosts: 2,
            spares: u16::MAX,
        }
        .build();
        assert_eq!(f.hosts.len(), 32, "16 leaves * 2 hosts");
        assert_eq!(f.spare_links.len(), 16, "full leaf ring");
    }

    #[test]
    fn canonical_shapes_delegate() {
        let f = TopoSpec::Testbed(2).build();
        assert_eq!(f.hosts.len(), 8);
        assert_eq!(f.spare_links.len(), 6, "the testbed's redundant links");
        let p = TopoSpec::Pair.build();
        assert_eq!((p.hosts.len(), p.switches.len()), (2, 1));
    }
}
