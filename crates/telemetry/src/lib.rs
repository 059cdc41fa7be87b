//! # san-telemetry — cross-layer observability for the SAN reproduction
//!
//! The paper's evaluation (Figs 3–9, Tables 1–3) is entirely about where
//! time and packets go: NIC occupancy, ACK lag, retransmission storms,
//! probe counts. This crate gives every layer of the reproduction one
//! shared lens on those questions:
//!
//! * a **metrics registry** ([`Telemetry::counter`] & friends) —
//!   hierarchically named counters, gauges, histograms and summaries
//!   (`fabric.link.3.busy_ns`, `ft.node.2.retransmits`,
//!   `svm.node.0.lock_wait_ns`). The per-layer stats structs
//!   (`EngineStats`, `NicStats`, `VmmcStats`...) are thin views over
//!   registered cells, so existing accessors keep working while the
//!   benches enumerate everything uniformly;
//! * a **structured trace ring** ([`Telemetry::record`]) — a bounded,
//!   zero-alloc-on-hot-path recorder of packet/protocol events with
//!   virtual-ns timestamps, filterable by layer and node. A disabled
//!   recorder is one enum branch (see `benches/telemetry.rs` in
//!   `san-bench` for the overhead proof);
//! * a **packet-lifecycle reconstructor** ([`lifecycle::reconstruct`]) —
//!   joins trace events by `(src, dst, generation, seq)` into per-packet
//!   timelines, e.g. proving a Figure 5 retransmission was spurious
//!   because delivery preceded the timer;
//! * **exporters** ([`export`]) — JSON and CSV dumps plus a compact text
//!   summary; every `san-bench` binary takes `--telemetry <dir>`;
//! * **the workspace's one JSON module** ([`json`]) — the value model,
//!   parser and byte-stable printer behind every JSON file the repository
//!   reads or writes: telemetry exports, `BENCH_*.json` artifacts, chaos
//!   campaigns and repros, and the benchmark's saved runs.
//!
//! A [`Telemetry`] handle is cheap to clone (it is an `Arc`) and is
//! threaded through cluster construction via `ClusterConfig::telemetry`;
//! the handle the caller keeps observes everything the simulation
//! recorded.

pub mod export;
pub mod json;
pub mod lifecycle;
pub mod metrics;
pub mod trace;

use std::sync::Arc;

pub use metrics::{
    Counter, Gauge, HistogramHandle, MetricKind, MetricValue, RegistryError, Snapshot,
    SnapshotEntry, SummaryHandle,
};
pub use trace::{Layer, TraceEvent, TraceFilter, TraceKind, TraceScan};

use trace::{Recorder, Ring};

/// Per-simulation observability handle: metrics registry + trace recorder.
///
/// Cloning is cheap and shares state. The default handle has the recorder
/// disabled; metrics always work.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    registry: metrics::Registry,
    recorder: Recorder,
}

impl Default for Inner {
    fn default() -> Self {
        Self {
            registry: metrics::Registry::default(),
            recorder: Recorder::Off,
        }
    }
}

impl Telemetry {
    /// Metrics-only handle; the trace recorder is disabled (one branch).
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle with tracing enabled: a pre-allocated ring of `capacity`
    /// events that overwrites the oldest when full.
    pub fn with_trace(capacity: usize) -> Self {
        Self::with_trace_filter(capacity, TraceFilter::all())
    }

    /// Tracing with a record-time filter (layer bitmask and/or node).
    pub fn with_trace_filter(capacity: usize, filter: TraceFilter) -> Self {
        Self {
            inner: Arc::new(Inner {
                registry: metrics::Registry::default(),
                recorder: Recorder::On(Ring::new(capacity, filter)),
            }),
        }
    }

    // ---- registry ----------------------------------------------------

    /// Get or create the counter registered under `name`.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different kind; use
    /// [`Telemetry::try_counter`] to handle collisions.
    pub fn counter(&self, name: &str) -> Counter {
        self.try_counter(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Get or create a counter, reporting kind collisions.
    pub fn try_counter(&self, name: &str) -> Result<Counter, RegistryError> {
        self.inner.registry.counter(name)
    }

    /// Get or create the gauge registered under `name`.
    ///
    /// # Panics
    /// Panics on a kind collision; see [`Telemetry::try_gauge`].
    pub fn gauge(&self, name: &str) -> Gauge {
        self.try_gauge(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Get or create a gauge, reporting kind collisions.
    pub fn try_gauge(&self, name: &str) -> Result<Gauge, RegistryError> {
        self.inner.registry.gauge(name)
    }

    /// Get or create the duration histogram registered under `name`.
    ///
    /// # Panics
    /// Panics on a kind collision; see [`Telemetry::try_histogram`].
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.try_histogram(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Get or create a histogram, reporting kind collisions.
    pub fn try_histogram(&self, name: &str) -> Result<HistogramHandle, RegistryError> {
        self.inner.registry.histogram(name)
    }

    /// Get or create the scalar summary registered under `name`.
    ///
    /// # Panics
    /// Panics on a kind collision; see [`Telemetry::try_summary`].
    pub fn summary(&self, name: &str) -> SummaryHandle {
        self.try_summary(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Get or create a summary, reporting kind collisions.
    pub fn try_summary(&self, name: &str) -> Result<SummaryHandle, RegistryError> {
        self.inner.registry.summary(name)
    }

    /// Stable, lexicographically ordered reading of every metric.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.registry.snapshot()
    }

    // ---- trace -------------------------------------------------------

    /// Is the trace recorder on?
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        matches!(self.inner.recorder, Recorder::On(_))
    }

    /// Record one event. With the recorder disabled this is a single
    /// enum-discriminant branch — safe to call on any hot path.
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        self.inner.recorder.record(ev);
    }

    /// Record a batch of events in order, claiming the ring head once for
    /// the whole batch. Byte-identical trace output to recording each event
    /// individually; cheaper when a dispatch emits several events.
    #[inline]
    pub fn record_batch(&self, evs: &[TraceEvent]) {
        self.inner.recorder.record_batch(evs);
    }

    /// The recorded events, oldest first. Empty when disabled.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner.recorder {
            Recorder::Off => Vec::new(),
            Recorder::On(ring) => ring.events(),
        }
    }

    /// How many events the ring has overwritten (0 = the trace is complete).
    pub fn overwritten_events(&self) -> u64 {
        match &self.inner.recorder {
            Recorder::Off => 0,
            Recorder::On(ring) => ring.overwritten(),
        }
    }

    /// Drain the ring into a [`TraceScan`] for post-hoc queries (by kind,
    /// stream, or time window). Carries the overwrite count so consumers
    /// can tell whether the history is complete.
    pub fn scan(&self) -> TraceScan {
        TraceScan::new(self.events(), self.overwritten_events())
    }

    /// Drop all recorded events (e.g. after a warmup phase).
    pub fn clear_events(&self) {
        if let Recorder::On(ring) = &self.inner.recorder {
            ring.clear();
        }
    }

    /// Compact end-of-run text summary (see [`export::text_summary`]).
    pub fn summary_text(&self) -> String {
        export::text_summary(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, kind: TraceKind, node: u16, seq: u32) -> TraceEvent {
        TraceEvent {
            at_ns,
            layer: Layer::Ft,
            kind,
            node,
            src: 0,
            dst: 1,
            generation: 0,
            seq,
            aux: 0,
        }
    }

    #[test]
    fn same_name_same_kind_shares_one_cell() {
        let tel = Telemetry::new();
        let a = tel.counter("ft.node.0.retransmits");
        let b = tel.counter("ft.node.0.retransmits");
        a.hit();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn kind_collision_is_an_error() {
        let tel = Telemetry::new();
        let _c = tel.counter("x.y");
        let err = tel.try_gauge("x.y").unwrap_err();
        match &err {
            RegistryError::KindMismatch {
                name,
                registered,
                requested,
            } => {
                assert_eq!(name, "x.y");
                assert_eq!(*registered, MetricKind::Counter);
                assert_eq!(*requested, MetricKind::Gauge);
            }
        }
        assert!(err.to_string().contains("x.y"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_panics_on_infallible_api() {
        let tel = Telemetry::new();
        let _c = tel.counter("x.y");
        let _g = tel.gauge("x.y");
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let tel = Telemetry::new();
        // Register in non-lexicographic order.
        tel.counter("zeta").hit();
        tel.gauge("alpha").set(-4);
        tel.counter("fabric.link.10.busy_ns");
        tel.counter("fabric.link.2.busy_ns");
        let names: Vec<String> = tel
            .snapshot()
            .entries
            .iter()
            .map(|e| e.name.clone())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        // Stable across repeated snapshots.
        let again: Vec<String> = tel
            .snapshot()
            .entries
            .iter()
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(names, again);
    }

    #[test]
    fn batch_recording_is_byte_identical_to_singles() {
        let singles = Telemetry::with_trace(8);
        let batched = Telemetry::with_trace(8);
        let evs: Vec<TraceEvent> = (0..11u64)
            .map(|i| ev(i * 3, TraceKind::PacketInjected, (i % 4) as u16, i as u32))
            .collect();
        for e in &evs {
            singles.record(*e);
        }
        // Flush in uneven chunks, including past the wrap point.
        batched.record_batch(&evs[0..5]);
        batched.record_batch(&evs[5..5]);
        batched.record_batch(&evs[5..6]);
        batched.record_batch(&evs[6..11]);
        let a: Vec<String> = singles.events().iter().map(|e| e.to_line()).collect();
        let b: Vec<String> = batched.events().iter().map(|e| e.to_line()).collect();
        assert_eq!(a, b);
        assert_eq!(singles.overwritten_events(), batched.overwritten_events());
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let tel = Telemetry::new();
        assert!(!tel.tracing_enabled());
        tel.record(ev(5, TraceKind::PacketInjected, 0, 1));
        assert!(tel.events().is_empty());
        assert_eq!(tel.overwritten_events(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let tel = Telemetry::with_trace(4);
        for i in 0..6u64 {
            tel.record(ev(i, TraceKind::PacketInjected, 0, i as u32));
        }
        let evs = tel.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].at_ns, 2, "oldest two must have been overwritten");
        assert_eq!(evs[3].at_ns, 5);
        assert_eq!(tel.overwritten_events(), 2);
        tel.clear_events();
        assert!(tel.events().is_empty());
        assert_eq!(tel.overwritten_events(), 0);
    }

    #[test]
    fn filters_select_layer_and_node() {
        let filter = TraceFilter::layers(&[Layer::Ft]).at_node(1);
        let tel = Telemetry::with_trace_filter(64, filter);
        tel.record(ev(1, TraceKind::Retransmit, 1, 0)); // kept
        tel.record(ev(2, TraceKind::Retransmit, 0, 0)); // wrong node
        let mut fab = ev(3, TraceKind::PacketInjected, 1, 0);
        fab.layer = Layer::Fabric; // wrong layer
        tel.record(fab);
        let evs = tel.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at_ns, 1);
    }

    #[test]
    fn lifecycle_joins_and_flags_false_retransmit() {
        let tel = Telemetry::with_trace(64);
        // seq 7: injected, delivered, then retransmitted after delivery.
        let mut e1 = ev(100, TraceKind::PacketInjected, 0, 7);
        e1.layer = Layer::Fabric;
        let mut e2 = ev(250, TraceKind::PacketDelivered, 1, 7);
        e2.layer = Layer::Fabric;
        let e3 = ev(400, TraceKind::Retransmit, 0, 7);
        // seq 8: genuine loss — retransmit before any delivery.
        let e4 = ev(500, TraceKind::Retransmit, 0, 8);
        let mut e5 = ev(600, TraceKind::PacketDelivered, 1, 8);
        e5.layer = Layer::Fabric;
        for e in [e1, e2, e3, e4, e5] {
            tel.record(e);
        }
        let timelines = lifecycle::reconstruct(&tel.events());
        assert_eq!(timelines.len(), 2);
        let spurious = lifecycle::false_retransmits(&tel.events());
        assert_eq!(spurious.len(), 1);
        assert_eq!(spurious[0].key.seq, 7);
        assert!(spurious[0].has_false_retransmit());
        assert!(!timelines[1].has_false_retransmit());
        let text = spurious[0].render();
        assert!(text.contains("delivered"));
        assert!(text.contains("retransmit"));
    }

    #[test]
    fn json_export_contains_families_and_is_balanced() {
        let tel = Telemetry::with_trace(16);
        tel.counter("fabric.injected").add(10);
        tel.counter("ft.node.0.retransmits").hit();
        tel.counter("nic.node.0.packets_tx").add(9);
        tel.histogram("svm.node.0.lock_wait_ns")
            .record(san_sim::Duration::from_micros(3));
        tel.summary("ft.node.0.map.times_ms").record(0.25);
        tel.gauge("nic.node.0.credits").set(-3);
        let text = export::to_json(&tel).pretty();
        let json = json::Json::parse(&text).expect("the export parses as JSON");
        let metric = |name: &str| json.get("metrics").and_then(|m| m.get(name)).unwrap();
        let field = |name: &str, key: &str| metric(name).get(key).unwrap().clone();
        let kind = |name: &str| field(name, "kind").as_str().unwrap().to_string();
        assert_eq!(kind("fabric.injected"), "counter");
        assert_eq!(field("fabric.injected", "value").as_u64(), Some(10));
        assert_eq!(field("ft.node.0.retransmits", "value").as_u64(), Some(1));
        assert_eq!(field("nic.node.0.packets_tx", "value").as_u64(), Some(9));
        assert_eq!(kind("nic.node.0.credits"), "gauge");
        assert_eq!(field("nic.node.0.credits", "value").as_f64(), Some(-3.0));
        assert_eq!(kind("svm.node.0.lock_wait_ns"), "histogram");
        assert_eq!(field("svm.node.0.lock_wait_ns", "count").as_u64(), Some(1));
        assert_eq!(kind("ft.node.0.map.times_ms"), "summary");
        assert_eq!(field("ft.node.0.map.times_ms", "mean").as_f64(), Some(0.25));
        let trace = json.get("trace").unwrap();
        assert_eq!(trace.get("enabled").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(trace.get("recorded").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn csv_and_summary_render() {
        let tel = Telemetry::with_trace(16);
        tel.counter("fabric.injected").add(2);
        tel.record(ev(42, TraceKind::PacketInjected, 0, 1));
        let csv = export::trace_to_csv(&tel);
        assert!(csv.lines().count() == 2);
        assert!(csv.contains("42,ft,injected,0,0,1,0,1,0"));
        let mcsv = export::metrics_to_csv(&tel.snapshot());
        assert!(mcsv.contains("fabric.injected,counter,2"));
        let summary = tel.summary_text();
        assert!(summary.contains("injected=2"));
        assert!(summary.contains("1 events recorded"));
    }
}
