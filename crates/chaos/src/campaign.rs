//! The scenario model: a JSON-parsed [`Campaign`] describing a randomized
//! fault mix, and the generator that samples concrete seeded [`Trial`]s
//! from it.
//!
//! A campaign says *what kinds* of faults may occur and over which ranges
//! (loss probability spans, flap counts, kill candidates); a trial is one
//! fully concrete draw — exact probabilities, exact fault schedule, exact
//! seed — that re-runs byte-identically forever. The derivation is pure:
//! `trial = campaign.sample(index)` depends only on `(campaign.seed,
//! index)`, never on thread timing, so the parallel runner can hand out
//! indices in any order.

use san_fabric::{
    Endpoint, FaultPlan, LinkId, NodeId, PortId, SwitchId, Topology, TransientFaults,
};
use san_ft::ProtocolConfig;
use san_sim::{Duration, SimRng, Time};
use san_telemetry::json::Json;
use san_topo::{validate, TopoSpec as AtlasSpec};
use san_workload::{ArrivalSpec, DestSpec, SizeSpec, WorkloadSpec};

/// SplitMix64-style combiner: derive a trial seed from (campaign seed,
/// trial index). Consecutive indices give statistically independent seeds.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        ^ index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x6A09_E667_F3BC_C909);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An inclusive sampling range `[lo, hi]`; `lo == hi` pins the value and
/// `[0, 0]` disables the feature it parameterizes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Span {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Span {
    /// The disabled span `[0, 0]`.
    pub const ZERO: Span = Span { lo: 0.0, hi: 0.0 };

    /// A pinned value.
    pub fn at(v: f64) -> Span {
        Span { lo: v, hi: v }
    }

    /// True when the span can only produce zero.
    pub fn is_zero(&self) -> bool {
        self.hi <= 0.0
    }

    /// Uniform draw in `[lo, hi]`.
    pub fn sample_f(&self, rng: &mut SimRng) -> f64 {
        if self.hi <= self.lo {
            return self.lo;
        }
        // Map a uniform [0,1) draw into the span; SimRng has no direct
        // f64-range draw, so go through a 53-bit integer.
        let u = rng.below(1 << 53) as f64 / (1u64 << 53) as f64;
        self.lo + u * (self.hi - self.lo)
    }

    /// Uniform integer draw (rounded).
    pub fn sample_u(&self, rng: &mut SimRng) -> u64 {
        self.sample_f(rng).round().max(0.0) as u64
    }

    fn to_json(self) -> Json {
        Json::Arr(vec![Json::from(self.lo), Json::from(self.hi)])
    }

    fn from_json(v: &Json) -> Result<Span, String> {
        let xs = v.as_arr().ok_or("span must be [lo, hi]")?;
        if xs.len() != 2 {
            return Err("span must have exactly two elements".into());
        }
        let lo = xs[0].as_f64().ok_or("span lo must be a number")?;
        let hi = xs[1].as_f64().ok_or("span hi must be a number")?;
        if lo > hi || lo < 0.0 {
            return Err(format!("bad span [{lo}, {hi}]"));
        }
        Ok(Span { lo, hi })
    }
}

/// Which topology a trial runs on. The canonical shapes keep their legacy
/// names (and curated fault-candidate sets); `Atlas` opens the whole
/// `san-topo` generator family (`fat_tree:k`, `torus2d:RxCxH`,
/// `regular:NxDxH:SEED`, `spare_tree:FxDxH:S`, …) with candidate sets
/// derived by structural analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// Two hosts, one switch.
    Pair,
    /// Two hosts at the ends of a k-switch chain.
    Chain(u16),
    /// n hosts on one 16-port switch.
    Star(u16),
    /// The Figure 2 mapping testbed with `hosts_per_switch` hosts per
    /// switch (redundant fabric: no single link is a point of failure).
    Testbed(u16),
    /// Any `san-topo` atlas shape, by its spec. Flappable/killable
    /// candidates come from [`validate::survivable_links`] /
    /// [`validate::survivable_switches`]; traffic runs between up to 8
    /// evenly spaced hosts.
    Atlas(AtlasSpec),
}

/// A topology instantiated for one trial, with the fault-injection
/// candidate sets that keep sampled schedules *survivable*: flapping any
/// `flappable` link or killing any single `killable` switch leaves every
/// traffic pair connected once repairs are applied.
pub struct BuiltTopo {
    /// The wiring.
    pub topo: Topology,
    /// All hosts.
    pub hosts: Vec<NodeId>,
    /// Hosts that send/receive traffic.
    pub traffic_hosts: Vec<NodeId>,
    /// Links safe to flap (down + scheduled repair).
    pub flappable: Vec<LinkId>,
    /// Switches safe to kill permanently (needs the redundant testbed).
    pub killable: Vec<SwitchId>,
}

impl TopologySpec {
    /// The atlas spec this resolves to — all wiring construction is
    /// delegated to `san-topo`, so a chaos trial and a `scale_map` bench
    /// run on byte-identical fabrics for the same spec string.
    pub fn atlas_spec(&self) -> AtlasSpec {
        match *self {
            TopologySpec::Pair => AtlasSpec::Pair,
            TopologySpec::Chain(k) => AtlasSpec::Chain(k),
            TopologySpec::Star(n) => AtlasSpec::Star(n),
            TopologySpec::Testbed(h) => AtlasSpec::Testbed(h),
            TopologySpec::Atlas(s) => s,
        }
    }

    /// Resolve deferred parameters (e.g. `regular:…:0`'s sample-time seed)
    /// against a trial seed. Canonical shapes are unchanged.
    pub fn resolved(&self, seed: u64) -> TopologySpec {
        match *self {
            TopologySpec::Atlas(s) => TopologySpec::Atlas(s.resolved(seed)),
            other => other,
        }
    }

    /// Instantiate the wiring and candidate sets.
    pub fn build(&self) -> BuiltTopo {
        let fab = self.atlas_spec().build();
        match *self {
            TopologySpec::Pair | TopologySpec::Chain(_) | TopologySpec::Star(_) => {
                // Every link is flappable: flaps come with a scheduled
                // repair, so even a single-path fabric recovers.
                let flappable = fab.topo.links().map(|(id, _)| id).collect();
                BuiltTopo {
                    traffic_hosts: fab.hosts.clone(),
                    hosts: fab.hosts,
                    flappable,
                    topo: fab.topo,
                    killable: Vec::new(),
                }
            }
            TopologySpec::Testbed(_) => {
                // hosts[i] hangs off switches[i % 4]; switches 2 and 3 are
                // the leaves, wired to *both* cores, so leaf-host traffic
                // survives any one core death and any one redundant-link
                // flap. The atlas reports the redundant links as spares.
                let traffic_hosts = fab
                    .hosts
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % 4 >= 2)
                    .map(|(_, h)| h)
                    .collect();
                BuiltTopo {
                    traffic_hosts,
                    hosts: fab.hosts,
                    flappable: fab.spare_links,
                    killable: vec![fab.switches[0], fab.switches[1]],
                    topo: fab.topo,
                }
            }
            TopologySpec::Atlas(_) => {
                // Structural analysis replaces curated sets: links and
                // host-less switches whose single death keeps all hosts
                // connected. A fabric with no redundancy falls back to
                // flapping any link (repairs make that survivable too).
                let mut flappable = validate::survivable_links(&fab.topo);
                if flappable.is_empty() {
                    flappable = fab.topo.links().map(|(id, _)| id).collect();
                }
                let killable = validate::survivable_switches(&fab.topo);
                let traffic_hosts = validate::sample_hosts(&fab.hosts, 8);
                BuiltTopo {
                    traffic_hosts,
                    hosts: fab.hosts,
                    flappable,
                    killable,
                    topo: fab.topo,
                }
            }
        }
    }

    fn to_json(self) -> Json {
        match self {
            TopologySpec::Pair => "pair".into(),
            TopologySpec::Chain(k) => format!("chain:{k}").into(),
            TopologySpec::Star(n) => format!("star:{n}").into(),
            TopologySpec::Testbed(h) => format!("testbed:{h}").into(),
            TopologySpec::Atlas(s) => s.format().into(),
        }
    }

    fn from_json(v: &Json) -> Result<TopologySpec, String> {
        let s = v.as_str().ok_or("topology must be a string")?;
        let (kind, arg) = match s.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (s, None),
        };
        let arg_u16 = |what: &str| -> Result<u16, String> {
            arg.ok_or(format!("{what} needs an argument, e.g. \"{what}:3\""))?
                .parse::<u16>()
                .map_err(|_| format!("bad {what} argument"))
        };
        match kind {
            "pair" => Ok(TopologySpec::Pair),
            "chain" => Ok(TopologySpec::Chain(arg_u16("chain")?)),
            "star" => Ok(TopologySpec::Star(arg_u16("star")?)),
            "testbed" => Ok(TopologySpec::Testbed(arg_u16("testbed")?)),
            // Everything else is an atlas spec string (fat_tree:8, …).
            _ => AtlasSpec::parse(s).map(TopologySpec::Atlas),
        }
    }
}

/// How traffic flows between the topology's traffic hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// First traffic host streams to the second.
    OneToOne,
    /// Every traffic host streams to its successor (wraps around).
    Ring,
    /// Every traffic host but the last streams to the last.
    Incast,
}

impl Pattern {
    fn name(self) -> &'static str {
        match self {
            Pattern::OneToOne => "one_to_one",
            Pattern::Ring => "ring",
            Pattern::Incast => "incast",
        }
    }

    fn from_name(s: &str) -> Result<Pattern, String> {
        match s {
            "one_to_one" => Ok(Pattern::OneToOne),
            "ring" => Ok(Pattern::Ring),
            "incast" => Ok(Pattern::Incast),
            _ => Err(format!("unknown traffic pattern '{s}'")),
        }
    }
}

/// Traffic shape: who sends how much to whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficSpec {
    /// Flow pattern over the traffic hosts.
    pub pattern: Pattern,
    /// Messages per (src, dst) stream.
    pub messages: u64,
    /// Payload bytes per message.
    pub bytes: u32,
}

impl TrafficSpec {
    /// The concrete (src, dst) streams for a built topology.
    pub fn pairs(&self, built: &BuiltTopo) -> Vec<(NodeId, NodeId)> {
        let th = &built.traffic_hosts;
        assert!(th.len() >= 2, "traffic needs at least two hosts");
        match self.pattern {
            Pattern::OneToOne => vec![(th[0], th[1])],
            Pattern::Ring => (0..th.len())
                .map(|i| (th[i], th[(i + 1) % th.len()]))
                .collect(),
            Pattern::Incast => {
                let sink = *th.last().unwrap();
                th[..th.len() - 1].iter().map(|&s| (s, sink)).collect()
            }
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("pattern", self.pattern.name().into()),
            ("messages", Json::Int(self.messages)),
            ("bytes", Json::Int(self.bytes as u64)),
        ])
    }

    fn from_json(v: &Json) -> Result<TrafficSpec, String> {
        Ok(TrafficSpec {
            pattern: Pattern::from_name(
                v.get("pattern")
                    .and_then(Json::as_str)
                    .ok_or("traffic.pattern missing")?,
            )?,
            messages: v
                .get("messages")
                .and_then(Json::as_u64)
                .ok_or("traffic.messages missing")?
                .max(1),
            bytes: v
                .get("bytes")
                .and_then(Json::as_u64)
                .ok_or("traffic.bytes missing")?
                .clamp(1, 4096) as u32,
        })
    }
}

/// Protocol configuration knobs a campaign controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoSpec {
    /// Run the reliability firmware; `false` is the intentionally
    /// unprotected baseline that loses data under faults.
    pub reliable: bool,
    /// Enable on-demand mapping (permanent-failure recovery).
    pub mapping: bool,
    /// Retransmission timer, microseconds.
    pub retx_timeout_us: u64,
    /// Permanent-failure threshold, milliseconds.
    pub perm_fail_ms: u64,
    /// Send buffers per NIC.
    pub send_bufs: u16,
    /// Per-destination adaptive retransmission threshold (SRTT + 4·RTTVAR
    /// with Karn's rule) instead of the fixed timer.
    pub adaptive_rto: bool,
    /// Retransmit-storm damping (AIMD clamp on the replayed window).
    pub damping: bool,
    /// Host-level end-to-end recovery: re-post messages the NIC fails as
    /// unreachable, with bounded exponential backoff. Off models a host
    /// that treats `SendFailed` as final (the paper's silent drop).
    pub host_recovery: bool,
    /// Install UP*/DOWN* routes instead of shortest routes. Required for
    /// campaigns on cyclic atlas fabrics (tori): minimal routes there form
    /// channel cycles, and wormhole data traffic would deadlock on its own
    /// without any injected fault.
    pub updown_routes: bool,
}

impl Default for ProtoSpec {
    fn default() -> Self {
        Self {
            reliable: true,
            mapping: false,
            retx_timeout_us: 1_000,
            perm_fail_ms: 50,
            send_bufs: 32,
            adaptive_rto: false,
            damping: false,
            host_recovery: true,
            updown_routes: false,
        }
    }
}

impl ProtoSpec {
    /// Compile to the firmware's configuration.
    pub fn protocol_config(&self) -> ProtocolConfig {
        ProtocolConfig {
            retx_timeout: Duration::from_micros(self.retx_timeout_us),
            perm_fail_threshold: Duration::from_millis(self.perm_fail_ms),
            enable_mapping: self.mapping,
            adaptive_rto: self.adaptive_rto,
            window_damping: self.damping,
            ..ProtocolConfig::default()
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("reliable", self.reliable.into()),
            ("mapping", self.mapping.into()),
            ("retx_timeout_us", Json::Int(self.retx_timeout_us)),
            ("perm_fail_ms", Json::Int(self.perm_fail_ms)),
            ("send_bufs", Json::Int(self.send_bufs as u64)),
            ("adaptive_rto", self.adaptive_rto.into()),
            ("damping", self.damping.into()),
            ("host_recovery", self.host_recovery.into()),
            ("updown_routes", self.updown_routes.into()),
        ])
    }

    fn from_json(v: &Json) -> Result<ProtoSpec, String> {
        let d = ProtoSpec::default();
        Ok(ProtoSpec {
            reliable: v
                .get("reliable")
                .and_then(Json::as_bool)
                .unwrap_or(d.reliable),
            mapping: v
                .get("mapping")
                .and_then(Json::as_bool)
                .unwrap_or(d.mapping),
            retx_timeout_us: v
                .get("retx_timeout_us")
                .and_then(Json::as_u64)
                .unwrap_or(d.retx_timeout_us)
                .max(10),
            perm_fail_ms: v
                .get("perm_fail_ms")
                .and_then(Json::as_u64)
                .unwrap_or(d.perm_fail_ms)
                .max(1),
            send_bufs: v
                .get("send_bufs")
                .and_then(Json::as_u64)
                .unwrap_or(d.send_bufs as u64)
                .clamp(2, 128) as u16,
            adaptive_rto: v
                .get("adaptive_rto")
                .and_then(Json::as_bool)
                .unwrap_or(d.adaptive_rto),
            damping: v
                .get("damping")
                .and_then(Json::as_bool)
                .unwrap_or(d.damping),
            host_recovery: v
                .get("host_recovery")
                .and_then(Json::as_bool)
                .unwrap_or(d.host_recovery),
            updown_routes: v
                .get("updown_routes")
                .and_then(Json::as_bool)
                .unwrap_or(d.updown_routes),
        })
    }
}

/// The randomized fault mix: every field is a sampling span; `[0, 0]`
/// disables that fault class. Classes compose freely (multi-fault
/// overlap is the point).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultMix {
    /// Wire loss probability.
    pub loss: Span,
    /// Wire corruption probability.
    pub corrupt: Span,
    /// Gilbert–Elliott *average* loss rate; when sampled > 0 the trial
    /// uses bursty loss (every packet in a burst dies) instead of
    /// independent loss.
    pub burst_rate: Span,
    /// Mean burst length in packets (only with `burst_rate`).
    pub burst_len: Span,
    /// Number of link flaps (down + scheduled repair).
    pub flaps: Span,
    /// Flap downtime, microseconds.
    pub flap_down_us: Span,
    /// Number of permanent switch kills (requires `killable` candidates,
    /// i.e. the testbed topology).
    pub kills: Span,
    /// Path-reincarnation storm: sequential down/up cycles over the
    /// redundant links, each forcing a remap + generation bump.
    pub storm_cycles: Span,
    /// Storm cycle period, microseconds (downtime is half the period).
    pub storm_period_us: Span,
    /// Live re-cable cycles (`GrowFabric`/`ShrinkFabric`): drain a
    /// survivable link, detach it, and re-grow the same endpoints — each
    /// cycle is three reconfiguration epochs under traffic.
    pub recables: Span,
    /// Drain notice before a planned detach, microseconds (also paces the
    /// re-grow and the gap between cycles).
    pub shrink_drain_us: Span,
    /// Unplanned switch removals: a survivable host-less switch is
    /// de-racked with no drain notice — in-flight packets on its links
    /// die and only the recovery machinery can save the streams.
    pub unplanned_removals: Span,
}

impl FaultMix {
    fn to_json(self) -> Json {
        let mut kv: Vec<(&str, Json)> = Vec::new();
        let mut field = |name: &'static str, s: Span| {
            if !s.is_zero() {
                kv.push((name, s.to_json()));
            }
        };
        field("loss", self.loss);
        field("corrupt", self.corrupt);
        field("burst_rate", self.burst_rate);
        field("burst_len", self.burst_len);
        field("flaps", self.flaps);
        field("flap_down_us", self.flap_down_us);
        field("kills", self.kills);
        field("storm_cycles", self.storm_cycles);
        field("storm_period_us", self.storm_period_us);
        field("recables", self.recables);
        field("shrink_drain_us", self.shrink_drain_us);
        field("unplanned_removals", self.unplanned_removals);
        Json::obj(kv)
    }

    fn from_json(v: &Json) -> Result<FaultMix, String> {
        let span = |key: &str| -> Result<Span, String> {
            match v.get(key) {
                None => Ok(Span::ZERO),
                Some(s) => Span::from_json(s).map_err(|e| format!("faults.{key}: {e}")),
            }
        };
        Ok(FaultMix {
            loss: span("loss")?,
            corrupt: span("corrupt")?,
            burst_rate: span("burst_rate")?,
            burst_len: span("burst_len")?,
            flaps: span("flaps")?,
            flap_down_us: span("flap_down_us")?,
            kills: span("kills")?,
            storm_cycles: span("storm_cycles")?,
            storm_period_us: span("storm_period_us")?,
            recables: span("recables")?,
            shrink_drain_us: span("shrink_drain_us")?,
            unplanned_removals: span("unplanned_removals")?,
        })
    }
}

/// Serialize a [`WorkloadSpec`] into campaign JSON. The distribution
/// fields use their compact string forms (`"poisson:20000"`,
/// `"pareto:1.3:256:65536"`, `"zipf:1.2"`) — the same spellings
/// `san-bench tenants` takes on the command line.
fn workload_to_json(w: &WorkloadSpec) -> Json {
    Json::obj(vec![
        ("tenants", Json::Int(w.tenants as u64)),
        ("arrival", w.arrival.to_string().as_str().into()),
        ("size", w.size.to_string().as_str().into()),
        ("dest", w.dest.to_string().as_str().into()),
        ("window_ms", Json::Int(w.window_ms)),
        ("max_backlog", Json::Int(w.max_backlog as u64)),
    ])
}

/// Deserialize a [`WorkloadSpec`] (defaults for absent fields).
fn workload_from_json(v: &Json) -> Result<WorkloadSpec, String> {
    let d = WorkloadSpec::default();
    let dist = |key: &str| -> Option<&str> { v.get(key).and_then(Json::as_str) };
    let w = WorkloadSpec {
        tenants: v
            .get("tenants")
            .and_then(Json::as_u64)
            .unwrap_or(d.tenants as u64)
            .clamp(1, u16::MAX as u64) as u16,
        arrival: match dist("arrival") {
            Some(s) => ArrivalSpec::parse(s).map_err(|e| format!("workload.arrival: {e}"))?,
            None => d.arrival,
        },
        size: match dist("size") {
            Some(s) => SizeSpec::parse(s).map_err(|e| format!("workload.size: {e}"))?,
            None => d.size,
        },
        dest: match dist("dest") {
            Some(s) => DestSpec::parse(s).map_err(|e| format!("workload.dest: {e}"))?,
            None => d.dest,
        },
        window_ms: v
            .get("window_ms")
            .and_then(Json::as_u64)
            .unwrap_or(d.window_ms)
            .max(1),
        max_backlog: v
            .get("max_backlog")
            .and_then(Json::as_u64)
            .unwrap_or(d.max_backlog as u64)
            .clamp(1, 1024) as u32,
    };
    w.validate()?;
    Ok(w)
}

/// A campaign: the randomized scenario family the runner samples trials
/// from.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Campaign name (used in repro filenames).
    pub name: String,
    /// Human description.
    pub description: String,
    /// Master seed; trial `i` derives its seed from `(seed, i)`.
    pub seed: u64,
    /// Default trial count (`--trials` overrides).
    pub trials: u32,
    /// Topology family.
    pub topology: TopologySpec,
    /// Traffic shape.
    pub traffic: TrafficSpec,
    /// Protocol knobs.
    pub protocol: ProtoSpec,
    /// Randomized fault mix.
    pub faults: FaultMix,
    /// Fault-active window, milliseconds (traffic may finish later; the
    /// runner grants a drain grace period after this window).
    pub duration_ms: u64,
    /// Multi-tenant synthetic workload replacing the fixed-stream
    /// [`TrafficSpec`] when present: the runner drives `san-workload`
    /// host agents instead of chaos streams, and the oracle's per-pair
    /// expectations come from the workload's posted-message ledger.
    /// Absent means legacy traffic — zero extra RNG draws, so existing
    /// campaigns replay byte-identically.
    pub workload: Option<WorkloadSpec>,
}

impl Campaign {
    /// Sample trial `index`: a pure function of `(self.seed, index)`.
    pub fn sample(&self, index: u32) -> Trial {
        let seed = mix_seed(self.seed, index as u64);
        let mut rng = SimRng::seed_from(seed);
        // Resolve deferred atlas parameters (sample-time seeds) so the
        // recorded trial re-builds the exact same wiring from its repro
        // file alone.
        let topology = self.topology.resolved(seed);
        let built = topology.build();
        let window_ns = self.duration_ms.max(2) * 1_000_000;

        // Incast workloads bias link flaps onto the victim's rack: a flap
        // on a random far-away link rarely perturbs an N→1 storm, so the
        // campaign would mostly test nothing. Restrict candidates to the
        // survivable links incident to the victim's ToR switch when any
        // exist (a subset of a survivable set is still survivable).
        let flappable: Vec<LinkId> = match self
            .workload
            .as_ref()
            .and_then(|w| san_workload::incast_victim(w, &built.traffic_hosts))
            .and_then(|v| built.topo.switch_of_host(v))
        {
            Some((tor, _)) => {
                let on_tor = |ep: Endpoint| ep.switch().is_some_and(|(s, _)| s == tor);
                let near: Vec<LinkId> = built
                    .flappable
                    .iter()
                    .copied()
                    .filter(|&l| {
                        let link = built.topo.link(l);
                        on_tor(link.a) || on_tor(link.b)
                    })
                    .collect();
                if near.is_empty() {
                    built.flappable.clone()
                } else {
                    near
                }
            }
            None => built.flappable.clone(),
        };

        // Wire-level transient faults.
        let burst_rate = self.faults.burst_rate.sample_f(&mut rng);
        let wire = if burst_rate >= 1e-4 {
            let mean_len = self.faults.burst_len.sample_f(&mut rng).max(1.0);
            let mut w = TransientFaults::bursty_loss(burst_rate.min(0.4), mean_len);
            w.corrupt_prob = self.faults.corrupt.sample_f(&mut rng);
            w
        } else {
            TransientFaults {
                loss_prob: self.faults.loss.sample_f(&mut rng),
                corrupt_prob: self.faults.corrupt.sample_f(&mut rng),
                burst: None,
            }
        };

        // Scheduled permanent faults.
        let mut plan = FaultPlan::new();
        let n_flaps = self.faults.flaps.sample_u(&mut rng);
        for _ in 0..n_flaps {
            if flappable.is_empty() {
                break;
            }
            let link = flappable[rng.below(flappable.len() as u64) as usize];
            let at = Time::from_nanos(rng.range(1_000_000, window_ns));
            let down_us = self.faults.flap_down_us.sample_u(&mut rng).max(20);
            plan = plan
                .link_down(at, link)
                .link_up(at + Duration::from_micros(down_us), link);
        }
        let n_kills = self
            .faults
            .kills
            .sample_u(&mut rng)
            .min(built.killable.len() as u64);
        if n_kills > 0 {
            // Kill at most one switch: the candidate sets guarantee any
            // *single* kill is survivable, not combinations.
            let victim = built.killable[rng.below(built.killable.len() as u64) as usize];
            let at = Time::from_nanos(rng.range(1_000_000, (window_ns / 2).max(2_000_000)));
            plan = plan.switch_down(at, victim);
        }
        let cycles = self.faults.storm_cycles.sample_u(&mut rng);
        if cycles > 0 && !flappable.is_empty() {
            // Sequential, non-overlapping cycles: at most one redundant
            // link is ever down, so a route always exists and every remap
            // can succeed (reincarnation, not partition).
            let period_us = self.faults.storm_period_us.sample_u(&mut rng).max(200);
            let mut t = Time::from_millis(1);
            for _ in 0..cycles {
                if t.nanos() + period_us * 1_000 > window_ns {
                    break;
                }
                let link = flappable[rng.below(flappable.len() as u64) as usize];
                plan = plan
                    .link_down(t, link)
                    .link_up(t + Duration::from_micros(period_us / 2), link);
                t += Duration::from_micros(period_us);
            }
        }
        // Live reconfiguration. Drawn after every legacy fault class so
        // campaigns without these spans replay byte-identically. Re-cable
        // cycles are sequential and non-overlapping (like storms): drain a
        // survivable link, detach it one drain period later, and re-grow
        // the same endpoints after another — the LIFO id allocator then
        // hands the regrown link its old id, so a later cycle may pick it
        // again.
        let recables = self.faults.recables.sample_u(&mut rng);
        if recables > 0 && !flappable.is_empty() {
            let drain_us = self.faults.shrink_drain_us.sample_u(&mut rng).max(50);
            let mut t = Time::from_millis(2);
            for _ in 0..recables {
                if t.nanos() + 3 * drain_us * 1_000 > window_ns {
                    break;
                }
                let link = flappable[rng.below(flappable.len() as u64) as usize];
                let wire = built.topo.link(link);
                let detach = t + Duration::from_micros(drain_us);
                plan = plan
                    .drain_link(t, link)
                    .remove_link(detach, link)
                    .grow_link(detach + Duration::from_micros(drain_us), wire.a, wire.b);
                t += Duration::from_micros(3 * drain_us);
            }
        }
        let removals = self
            .faults
            .unplanned_removals
            .sample_u(&mut rng)
            .min(built.killable.len() as u64);
        if removals > 0 {
            // De-rack at most one switch: the candidate sets guarantee any
            // *single* removal is survivable, not combinations.
            let victim = built.killable[rng.below(built.killable.len() as u64) as usize];
            let at = Time::from_nanos(rng.range(1_000_000, (window_ns / 2).max(2_000_000)));
            plan = plan.remove_switch(at, victim);
        }

        Trial {
            campaign: self.name.clone(),
            index,
            seed,
            topology,
            traffic: self.traffic,
            protocol: self.protocol,
            wire,
            plan,
            duration_ms: self.duration_ms,
            workload: self.workload.clone(),
        }
    }

    /// Serialize.
    pub fn to_json(&self) -> Json {
        let mut kv = vec![
            ("name", self.name.as_str().into()),
            ("description", self.description.as_str().into()),
            ("seed", Json::Int(self.seed)),
            ("trials", Json::Int(self.trials as u64)),
            ("topology", self.topology.to_json()),
            ("traffic", self.traffic.to_json()),
            ("protocol", self.protocol.to_json()),
            ("faults", self.faults.to_json()),
            ("duration_ms", Json::Int(self.duration_ms)),
        ];
        if let Some(w) = &self.workload {
            kv.push(("workload", workload_to_json(w)));
        }
        Json::obj(kv)
    }

    /// Deserialize (defaults for optional fields).
    pub fn from_json(v: &Json) -> Result<Campaign, String> {
        Ok(Campaign {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("campaign.name missing")?
                .to_string(),
            description: v
                .get("description")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("campaign.seed missing")?,
            trials: v
                .get("trials")
                .and_then(Json::as_u64)
                .ok_or("campaign.trials missing")?
                .clamp(1, 100_000) as u32,
            topology: TopologySpec::from_json(
                v.get("topology").ok_or("campaign.topology missing")?,
            )?,
            traffic: TrafficSpec::from_json(v.get("traffic").ok_or("campaign.traffic missing")?)?,
            protocol: match v.get("protocol") {
                Some(p) => ProtoSpec::from_json(p)?,
                None => ProtoSpec::default(),
            },
            faults: match v.get("faults") {
                Some(f) => FaultMix::from_json(f)?,
                None => FaultMix::default(),
            },
            duration_ms: v
                .get("duration_ms")
                .and_then(Json::as_u64)
                .ok_or("campaign.duration_ms missing")?
                .clamp(2, 60_000),
            workload: match v.get("workload") {
                Some(w) => Some(workload_from_json(w)?),
                None => None,
            },
        })
    }

    /// Parse from JSON text.
    pub fn parse(text: &str) -> Result<Campaign, String> {
        Campaign::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
}

/// One fully concrete, deterministic experiment. Everything the runner
/// needs is in here; a trial serialized to JSON is a repro file.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Campaign this was sampled from.
    pub campaign: String,
    /// Index within the campaign.
    pub index: u32,
    /// Derived seed (cluster + wire-fault RNG).
    pub seed: u64,
    /// Topology.
    pub topology: TopologySpec,
    /// Traffic.
    pub traffic: TrafficSpec,
    /// Protocol knobs.
    pub protocol: ProtoSpec,
    /// Concrete wire-fault probabilities.
    pub wire: TransientFaults,
    /// Concrete permanent-fault schedule.
    pub plan: FaultPlan,
    /// Fault-active window, milliseconds.
    pub duration_ms: u64,
    /// Multi-tenant workload (replaces `traffic` when present; see
    /// [`Campaign::workload`]).
    pub workload: Option<WorkloadSpec>,
}

/// Compact endpoint spelling for repro files: `"host:3"` or
/// `"switch:2:5"` (switch id, then port).
fn endpoint_to_json(ep: Endpoint) -> Json {
    match ep {
        Endpoint::Host(n) => format!("host:{}", n.0).into(),
        Endpoint::Switch(s, p) => format!("switch:{}:{}", s.0, p.0).into(),
    }
}

fn endpoint_from_json(v: &Json) -> Result<Endpoint, String> {
    let s = v.as_str().ok_or("endpoint must be a string")?;
    let mut parts = s.split(':');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("host"), Some(n), None) => {
            let n = n.parse::<u16>().map_err(|_| format!("bad host id '{s}'"))?;
            Ok(Endpoint::Host(NodeId(n)))
        }
        (Some("switch"), Some(sw), Some(p)) => {
            let sw = sw
                .parse::<u16>()
                .map_err(|_| format!("bad switch id '{s}'"))?;
            let p = p.parse::<u8>().map_err(|_| format!("bad port '{s}'"))?;
            Ok(Endpoint::Switch(SwitchId(sw), PortId(p)))
        }
        _ => Err(format!("endpoint must be host:N or switch:S:P, got '{s}'")),
    }
}

impl Trial {
    /// Serialize (this is the repro-file format).
    pub fn to_json(&self) -> Json {
        let wire = {
            let mut kv = vec![
                ("loss_prob", Json::from(self.wire.loss_prob)),
                ("corrupt_prob", Json::from(self.wire.corrupt_prob)),
            ];
            if let Some(b) = self.wire.burst {
                kv.push((
                    "burst",
                    Json::Arr(vec![Json::from(b.p_enter), Json::from(b.p_leave)]),
                ));
            }
            Json::obj(kv)
        };
        let plan = Json::Arr(
            self.plan
                .actions
                .iter()
                .map(|a| match *a {
                    san_fabric::PermanentFault::LinkDown { at_nanos, link } => Json::obj(vec![
                        ("kind", "link_down".into()),
                        ("at_ns", Json::Int(at_nanos)),
                        ("link", Json::Int(link as u64)),
                    ]),
                    san_fabric::PermanentFault::LinkUp { at_nanos, link } => Json::obj(vec![
                        ("kind", "link_up".into()),
                        ("at_ns", Json::Int(at_nanos)),
                        ("link", Json::Int(link as u64)),
                    ]),
                    san_fabric::PermanentFault::SwitchDown { at_nanos, switch } => Json::obj(vec![
                        ("kind", "switch_down".into()),
                        ("at_ns", Json::Int(at_nanos)),
                        ("switch", Json::Int(switch as u64)),
                    ]),
                    san_fabric::PermanentFault::GrowLink { at_nanos, a, b } => Json::obj(vec![
                        ("kind", "grow_link".into()),
                        ("at_ns", Json::Int(at_nanos)),
                        ("a", endpoint_to_json(a)),
                        ("b", endpoint_to_json(b)),
                    ]),
                    san_fabric::PermanentFault::DrainLink { at_nanos, link } => Json::obj(vec![
                        ("kind", "drain_link".into()),
                        ("at_ns", Json::Int(at_nanos)),
                        ("link", Json::Int(link as u64)),
                    ]),
                    san_fabric::PermanentFault::RemoveLink { at_nanos, link } => Json::obj(vec![
                        ("kind", "remove_link".into()),
                        ("at_ns", Json::Int(at_nanos)),
                        ("link", Json::Int(link as u64)),
                    ]),
                    san_fabric::PermanentFault::RemoveSwitch { at_nanos, switch } => {
                        Json::obj(vec![
                            ("kind", "remove_switch".into()),
                            ("at_ns", Json::Int(at_nanos)),
                            ("switch", Json::Int(switch as u64)),
                        ])
                    }
                })
                .collect(),
        );
        let mut kv = vec![
            ("campaign", self.campaign.as_str().into()),
            ("index", Json::Int(self.index as u64)),
            ("seed", Json::Int(self.seed)),
            ("topology", self.topology.to_json()),
            ("traffic", self.traffic.to_json()),
            ("protocol", self.protocol.to_json()),
            ("wire", wire),
            ("plan", plan),
            ("duration_ms", Json::Int(self.duration_ms)),
        ];
        if let Some(w) = &self.workload {
            kv.push(("workload", workload_to_json(w)));
        }
        Json::obj(kv)
    }

    /// Deserialize a repro file.
    pub fn from_json(v: &Json) -> Result<Trial, String> {
        let wire_v = v.get("wire").ok_or("trial.wire missing")?;
        let mut wire = TransientFaults {
            loss_prob: wire_v
                .get("loss_prob")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            corrupt_prob: wire_v
                .get("corrupt_prob")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            burst: None,
        };
        if let Some(b) = wire_v.get("burst").and_then(Json::as_arr) {
            if b.len() != 2 {
                return Err("wire.burst must be [p_enter, p_leave]".into());
            }
            wire.burst = Some(san_fabric::fault::BurstModel {
                p_enter: b[0].as_f64().ok_or("bad burst p_enter")?,
                p_leave: b[1].as_f64().ok_or("bad burst p_leave")?,
            });
        }
        let topology_v = v.get("topology").ok_or("trial.topology missing")?;
        let topology = TopologySpec::from_json(topology_v)?;
        let fabric = topology_v.as_str().unwrap_or_default();
        // A repro file comes from outside the program: every id a plan
        // action names must fit its type and exist in the trial's fabric
        // before anything runs.
        let topo = topology.build().topo;
        let mut plan = FaultPlan::new();
        for (i, a) in v
            .get("plan")
            .and_then(Json::as_arr)
            .ok_or("trial.plan missing")?
            .iter()
            .enumerate()
        {
            let kind = a.get("kind").and_then(Json::as_str).unwrap_or("");
            let what = format!("plan[{i}] {kind}");
            let id = |key: &str| -> Result<u64, String> {
                a.get(key)
                    .and_then(Json::as_u64)
                    .ok_or(format!("{what}: `{key}` missing"))
            };
            let link = || -> Result<LinkId, String> {
                let n = id("link")?;
                match u32::try_from(n).map(LinkId) {
                    Ok(l) if topo.try_link(l).is_some() => Ok(l),
                    _ => Err(format!("{what}: link {n} is not in topology {fabric}")),
                }
            };
            let switch = || -> Result<SwitchId, String> {
                let n = id("switch")?;
                match u16::try_from(n).map(SwitchId) {
                    Ok(s) if s.idx() < topo.num_switches() => Ok(s),
                    _ => Err(format!("{what}: switch {n} is not in topology {fabric}")),
                }
            };
            let endpoint = |key: &str| -> Result<Endpoint, String> {
                let raw = a.get(key).ok_or(format!("{what}: `{key}` missing"))?;
                match endpoint_from_json(raw) {
                    Ok(ep) if topo.endpoint_in_range(ep) => Ok(ep),
                    Ok(_) => Err(format!(
                        "{what}: endpoint {} is not in topology {fabric}",
                        raw.as_str().unwrap_or_default()
                    )),
                    Err(e) => Err(format!("{what}: {e}")),
                }
            };
            let at = Time::from_nanos(id("at_ns")?);
            plan = match kind {
                "link_down" => plan.link_down(at, link()?),
                "link_up" => plan.link_up(at, link()?),
                "switch_down" => plan.switch_down(at, switch()?),
                "grow_link" => plan.grow_link(at, endpoint("a")?, endpoint("b")?),
                "drain_link" => plan.drain_link(at, link()?),
                "remove_link" => plan.remove_link(at, link()?),
                "remove_switch" => plan.remove_switch(at, switch()?),
                _ => {
                    return Err(format!(
                        "{what}: kind must be link_down/link_up/switch_down/\
                         grow_link/drain_link/remove_link/remove_switch"
                    ))
                }
            };
        }
        Ok(Trial {
            campaign: v
                .get("campaign")
                .and_then(Json::as_str)
                .unwrap_or("adhoc")
                .to_string(),
            index: u32::try_from(v.get("index").and_then(Json::as_u64).unwrap_or(0))
                .map_err(|_| "trial.index does not fit a u32")?,
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("trial.seed missing")?,
            topology,
            traffic: TrafficSpec::from_json(v.get("traffic").ok_or("trial.traffic missing")?)?,
            protocol: match v.get("protocol") {
                Some(p) => ProtoSpec::from_json(p)?,
                None => ProtoSpec::default(),
            },
            wire,
            plan,
            duration_ms: v
                .get("duration_ms")
                .and_then(Json::as_u64)
                .ok_or("trial.duration_ms missing")?
                .clamp(2, 60_000),
            workload: match v.get("workload") {
                Some(w) => Some(workload_from_json(w)?),
                None => None,
            },
        })
    }

    /// Parse from JSON text.
    pub fn parse(text: &str) -> Result<Trial, String> {
        Trial::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }

    /// Repro-file text form.
    pub fn to_text(&self) -> String {
        let mut s = self.to_json().pretty();
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_campaign() -> Campaign {
        Campaign {
            name: "demo".into(),
            description: "test campaign".into(),
            seed: 0xC0FFEE,
            trials: 4,
            topology: TopologySpec::Star(4),
            traffic: TrafficSpec {
                pattern: Pattern::Ring,
                messages: 10,
                bytes: 512,
            },
            protocol: ProtoSpec::default(),
            faults: FaultMix {
                loss: Span { lo: 0.0, hi: 0.02 },
                corrupt: Span { lo: 0.0, hi: 0.01 },
                flaps: Span { lo: 0.0, hi: 2.0 },
                flap_down_us: Span {
                    lo: 100.0,
                    hi: 2000.0,
                },
                ..FaultMix::default()
            },
            duration_ms: 50,
            workload: None,
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let c = demo_campaign();
        let a = c.sample(3).to_text();
        let b = c.sample(3).to_text();
        assert_eq!(a, b);
        let other = c.sample(4).to_text();
        assert_ne!(a, other, "different indices draw different trials");
    }

    #[test]
    fn campaign_round_trips_through_json() {
        let c = demo_campaign();
        let back = Campaign::parse(&c.to_json().pretty()).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn oversized_atlas_topology_fails_to_parse() {
        let mut c = demo_campaign().to_json();
        let Json::Obj(kv) = &mut c else {
            unreachable!("a campaign serializes to an object")
        };
        for (k, v) in kv.iter_mut() {
            if k == "topology" {
                *v = "torus3d:41x41x41x1".into();
            }
        }
        let err = Campaign::parse(&c.pretty()).expect_err("68921 switches overflow 16-bit ids");
        assert!(err.contains("needs 68921 switch ids"), "{err}");
    }

    #[test]
    fn trial_round_trips_through_json() {
        let c = demo_campaign();
        let t = c.sample(1);
        let back = Trial::parse(&t.to_text()).unwrap();
        // Equality via the canonical text form (f64 fields).
        assert_eq!(t.to_text(), back.to_text());
    }

    /// `t`'s repro JSON with field `key` replaced by `value`.
    fn with_field(t: &Trial, key: &str, value: Json) -> Json {
        let Json::Obj(mut kv) = t.to_json() else {
            unreachable!("a trial serializes to an object")
        };
        for (k, v) in &mut kv {
            if k == key {
                *v = value.clone();
            }
        }
        Json::Obj(kv)
    }

    fn action(kind: &str, key: &str, id: Json) -> Json {
        Json::obj(vec![
            ("kind", kind.into()),
            ("at_ns", Json::Int(1_000_000)),
            (key, id),
        ])
    }

    /// A repro file is input from outside the program: a plan action whose
    /// id overflows its type or is missing from the trial's fabric is
    /// refused before anything runs, and the error names the action.
    #[test]
    fn repro_plan_ids_must_exist_in_the_trial_fabric() {
        let t = demo_campaign().sample(1);
        let parse = |actions| Trial::from_json(&with_field(&t, "plan", Json::Arr(actions)));
        let links = TopologySpec::Star(4).build().topo.num_links() as u64;
        assert!(parse(vec![action("link_down", "link", Json::Int(links - 1))]).is_ok());
        for (a, err) in [
            (
                action("link_down", "link", Json::Int(links)),
                format!("plan[1] link_down: link {links} is not in topology star:4"),
            ),
            (
                action("drain_link", "link", Json::Int(1 << 32)),
                "plan[1] drain_link: link 4294967296 is not in topology star:4".into(),
            ),
            (
                action("switch_down", "switch", Json::Int(1)),
                "plan[1] switch_down: switch 1 is not in topology star:4".into(),
            ),
            (
                action("remove_switch", "switch", Json::Int(1 << 16)),
                "plan[1] remove_switch: switch 65536 is not in topology star:4".into(),
            ),
            (
                Json::obj(vec![
                    ("kind", "grow_link".into()),
                    ("at_ns", Json::Int(1_000_000)),
                    ("a", "host:0".into()),
                    ("b", "switch:0:200".into()),
                ]),
                "plan[1] grow_link: endpoint switch:0:200 is not in topology star:4".into(),
            ),
        ] {
            let ok = action("link_up", "link", Json::Int(0));
            assert_eq!(parse(vec![ok, a]).err(), Some(err));
        }
    }

    /// A repro's duration is clamped like a campaign's, and an index too
    /// large for a trial index is refused rather than truncated.
    #[test]
    fn repro_duration_and_index_are_bounded() {
        let t = demo_campaign().sample(1);
        let back = Trial::from_json(&with_field(&t, "duration_ms", Json::Int(u64::MAX))).unwrap();
        assert_eq!(back.duration_ms, 60_000);
        let err = Trial::from_json(&with_field(&t, "index", Json::Int(1 << 32))).err();
        assert_eq!(err.as_deref(), Some("trial.index does not fit a u32"));
    }

    #[test]
    fn traffic_pairs_cover_patterns() {
        let built = TopologySpec::Star(4).build();
        let ring = TrafficSpec {
            pattern: Pattern::Ring,
            messages: 1,
            bytes: 64,
        };
        assert_eq!(ring.pairs(&built).len(), 4);
        let incast = TrafficSpec {
            pattern: Pattern::Incast,
            ..ring
        };
        let pairs = incast.pairs(&built);
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|&(_, d)| d == built.traffic_hosts[3]));
    }

    #[test]
    fn testbed_candidates_are_survivable() {
        let built = TopologySpec::Testbed(2).build();
        assert_eq!(built.traffic_hosts.len(), 4, "leaf hosts only");
        assert_eq!(built.killable.len(), 2, "the two core switches");
        assert_eq!(built.flappable.len(), 6, "the redundant links");
        // Killing either core leaves every leaf pair connected.
        for &victim in &built.killable {
            for &a in &built.traffic_hosts {
                for &b in &built.traffic_hosts {
                    if a != b {
                        let route = built.topo.shortest_route(a, b, |l| {
                            let link = built.topo.link(l);
                            let dead = |ep: san_fabric::Endpoint| {
                                ep.switch().is_some_and(|(s, _)| s == victim)
                            };
                            !(dead(link.a) || dead(link.b))
                        });
                        assert!(
                            route.is_some(),
                            "{a} -> {b} must survive killing {victim:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn workload_campaign_round_trips_through_json() {
        let c = Campaign {
            workload: Some(WorkloadSpec {
                tenants: 12,
                arrival: ArrivalSpec::Poisson { rate: 4_000.0 },
                size: SizeSpec::Lognormal {
                    median: 2_048,
                    sigma: 0.7,
                    cap: 16_384,
                },
                dest: DestSpec::Incast,
                window_ms: 5,
                max_backlog: 4,
            }),
            ..demo_campaign()
        };
        let back = Campaign::parse(&c.to_json().pretty()).unwrap();
        assert_eq!(c, back);
        let t = c.sample(2);
        let t_back = Trial::parse(&t.to_text()).unwrap();
        assert_eq!(t.to_text(), t_back.to_text());
        assert_eq!(t_back.workload, c.workload);
    }

    #[test]
    fn legacy_campaign_json_has_no_workload_key() {
        // Campaigns without a workload must serialize exactly as before
        // this field existed (repro files stay byte-stable).
        let c = demo_campaign();
        assert!(!c.to_json().pretty().contains("workload"));
        assert!(!c.sample(0).to_text().contains("workload"));
    }

    #[test]
    fn incast_workload_biases_flaps_onto_victim_tor() {
        let topology = TopologySpec::Atlas(AtlasSpec::parse("fat_tree:4").unwrap());
        let c = Campaign {
            topology,
            workload: Some(WorkloadSpec {
                dest: DestSpec::Incast,
                ..WorkloadSpec::default()
            }),
            faults: FaultMix {
                flaps: Span::at(2.0),
                flap_down_us: Span {
                    lo: 500.0,
                    hi: 5_000.0,
                },
                ..FaultMix::default()
            },
            ..demo_campaign()
        };
        let built = topology.build();
        let victim =
            san_workload::incast_victim(c.workload.as_ref().unwrap(), &built.traffic_hosts)
                .unwrap();
        let (tor, _) = built.topo.switch_of_host(victim).unwrap();
        for i in 0..8 {
            let t = c.sample(i);
            assert!(!t.plan.actions.is_empty(), "flaps must be scheduled");
            for a in &t.plan.actions {
                let link = match *a {
                    san_fabric::PermanentFault::LinkDown { link, .. }
                    | san_fabric::PermanentFault::LinkUp { link, .. } => LinkId(link),
                    _ => panic!("only link flaps expected"),
                };
                let l = built.topo.link(link);
                let on_tor = |ep: Endpoint| ep.switch().is_some_and(|(s, _)| s == tor);
                assert!(
                    on_tor(l.a) || on_tor(l.b),
                    "flap {link:?} not incident to the victim's ToR {tor:?}"
                );
            }
        }
    }

    #[test]
    fn recable_cycles_sample_and_round_trip() {
        use san_fabric::PermanentFault as PF;
        let c = Campaign {
            topology: TopologySpec::Atlas(AtlasSpec::parse("fat_tree:4").unwrap()),
            faults: FaultMix {
                recables: Span::at(2.0),
                shrink_drain_us: Span {
                    lo: 200.0,
                    hi: 800.0,
                },
                ..FaultMix::default()
            },
            duration_ms: 30,
            ..demo_campaign()
        };
        let t = c.sample(0);
        // Each cycle is a drain → remove → grow triplet over one link.
        assert_eq!(t.plan.actions.len(), 6, "2 recables = 6 actions");
        let built = t.topology.build();
        for w in t.plan.actions.chunks(3) {
            let (PF::DrainLink { link: dl, .. }, PF::RemoveLink { link: rl, .. }) = (w[0], w[1])
            else {
                panic!("cycle must start drain → remove, got {w:?}");
            };
            assert_eq!(dl, rl, "drain and remove target the same link");
            let PF::GrowLink { a, b, .. } = w[2] else {
                panic!("cycle must end with a grow, got {:?}", w[2]);
            };
            let wire = built.topo.link(LinkId(rl));
            assert_eq!((a, b), (wire.a, wire.b), "grow re-wires the same endpoints");
        }
        // The repro file round-trips the new action kinds byte-exactly.
        let back = Trial::parse(&t.to_text()).unwrap();
        assert_eq!(t.to_text(), back.to_text());
        // And zeroed reconfig spans leave campaign JSON untouched.
        assert!(!demo_campaign().to_json().pretty().contains("recables"));
    }

    #[test]
    fn unplanned_removal_samples_a_killable_switch() {
        let c = Campaign {
            topology: TopologySpec::Atlas(AtlasSpec::parse("fat_tree:4").unwrap()),
            faults: FaultMix {
                unplanned_removals: Span::at(1.0),
                ..FaultMix::default()
            },
            ..demo_campaign()
        };
        let built = c.topology.build();
        assert!(
            !built.killable.is_empty(),
            "fat_tree:4 has survivable cores"
        );
        let t = c.sample(1);
        assert_eq!(t.plan.actions.len(), 1);
        let san_fabric::PermanentFault::RemoveSwitch { switch, .. } = t.plan.actions[0] else {
            panic!("expected a switch removal, got {:?}", t.plan.actions[0]);
        };
        assert!(built.killable.contains(&SwitchId(switch)));
        let back = Trial::parse(&t.to_text()).unwrap();
        assert_eq!(t.to_text(), back.to_text());
    }

    #[test]
    fn sampled_plan_stays_inside_window() {
        let c = Campaign {
            faults: FaultMix {
                flaps: Span::at(3.0),
                flap_down_us: Span {
                    lo: 50.0,
                    hi: 500.0,
                },
                ..FaultMix::default()
            },
            ..demo_campaign()
        };
        for i in 0..16 {
            let t = c.sample(i);
            for a in &t.plan.actions {
                // Deaths land inside the fault window; repairs may trail
                // by at most the downtime.
                assert!(a.at().nanos() <= c.duration_ms * 1_000_000 + 500 * 1_000);
            }
        }
    }
}
