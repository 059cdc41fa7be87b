//! The metric registry: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` at the repository root lists the same names;
//! a test keeps the two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, wasted work).
    Lower,
    /// Larger is better (throughput, useful-work ratios).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// End-to-end metrics, measured with tracing off. Host time only: the
/// simulated outcomes are checked through the digest instead. A run repeats
/// the same pass; each unit's time is its best over the passes (other
/// processes only ever slow a unit down), and the percentiles are taken
/// across units.
pub const END_TO_END: &[MetricDef] = &[
    // Median across set-ups (fabric build, routes, cluster and agents;
    // campaign sampling; config or grid construction).
    e2e("setup_s", "s", 0.25),
    // One pass over the workload's units, set-ups included: what a user
    // waits for a campaign, sweep or model check.
    e2e("wall_s", "s", 0.20),
    // Median host time per unit (trial, seed, config, cell), set-up
    // excluded.
    e2e("unit_ms_p50", "ms", 0.20),
    // VmHWM of the benchmark process.
    e2e("peak_rss_mb", "MB", 0.10),
];

/// Per-layer metrics, printed by a traced run. Times are self times from
/// outside-in spans (scaled from the sampled events); counts are totals for
/// one pass. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    lo("des.self_ms", "ms"),
    lo("des.calls", "count"),
    lo("des.ns_per_event", "ns"),
    lo("des.events", "count"),
    hi("des.events_per_s", "1/s"),
    lo("des.pending_max", "count"),
    lo("fabric.self_ms", "ms"),
    lo("fabric.calls", "count"),
    lo("fabric.ns_per_call", "ns"),
    hi("fabric.delivered", "count"),
    lo("fabric.dropped", "count"),
    lo("fabric.path_resets", "count"),
    lo("fabric.in_flight_max", "count"),
    lo("nic.self_ms", "ms"),
    lo("nic.calls", "count"),
    lo("nic.ns_per_call", "ns"),
    lo("nic.packets_tx", "count"),
    lo("nic.packets_rx", "count"),
    lo("nic.rx_overflow", "count"),
    lo("nic.blocked_no_buffer", "count"),
    lo("ft.self_ms", "ms"),
    lo("ft.calls", "count"),
    lo("ft.ns_per_call", "ns"),
    lo("ft.retransmits", "count"),
    lo("ft.retx_ratio", "ratio"),
    hi("ft.accept_ratio", "ratio"),
    lo("ft.acks_tx", "count"),
    lo("ft.timer_fires", "count"),
    lo("ft.dup_drops", "count"),
    lo("ft.ooo_drops", "count"),
    lo("ft.injected_drops", "count"),
    lo("ft.retx_per_drop", "ratio"),
    lo("ft.generation_bumps", "count"),
    lo("ft.map_probes", "count"),
    lo("host.self_ms", "ms"),
    lo("host.calls", "count"),
    lo("host.ns_per_call", "ns"),
    lo("topo.plan_ms", "ms"),
    lo("topo.plan_steps", "count"),
    lo("chaos.sample_ms", "ms"),
    lo("chaos.trial_ms", "ms"),
    lo("chaos.oracle_digest_ms", "ms"),
    lo("chaos.send_failed", "count"),
    hi("chaos.reconfig_epochs", "count"),
    hi("telemetry.trace_events", "count"),
    lo("telemetry.truncated_trials", "count"),
    lo("telemetry.truncated_events", "count"),
    lo("mc.states", "count"),
    lo("mc.transitions", "count"),
    lo("mc.dedup_hits", "count"),
    hi("mc.new_state_ratio", "ratio"),
    hi("mc.states_per_s", "1/s"),
    lo("mc.max_depth", "count"),
    lo("mc.frontier_peak", "count"),
    lo("mc.kernel_ms", "ms"),
    lo("mc.invariant_ms", "ms"),
    lo("mc.encode_ms", "ms"),
    lo("mc.search_ms", "ms"),
    lo("fig6.cell_ms_4B", "ms"),
    lo("fig6.cell_ms_1KiB", "ms"),
    lo("fig6.cell_ms_16KiB", "ms"),
    hi("sim.goodput_mb_s", "MB/s"),
    lo("sim.p99_us", "us"),
    lo("sim.p999_us", "us"),
    lo("sim.shed_ratio", "ratio"),
    lo("bench.traced_overhead", "ratio"),
    lo("bench.unattributed_ms", "ms"),
];

/// Look a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
