//! The metrics registry: hierarchically named counters, gauges,
//! histograms and summaries.
//!
//! Names are dot-separated paths (`fabric.link.3.busy_ns`,
//! `ft.node.2.retransmits`, `svm.node.0.lock_wait_ns`). Registration is
//! get-or-create: asking twice for the same name and kind returns handles
//! to the *same* underlying cell, which is how the per-layer stats structs
//! (`NicStats`, `MapStats`, `VmmcStats`) stay thin views over registered
//! metrics. They stay because the hot paths bump a typed field instead of
//! looking a name up, and tests, examples and `perf/` read those fields.
//! Asking for an existing name with a *different* kind is a collision and
//! fails.
//!
//! Handles are `Rc`-shared `Cell`s (counters/gauges) or `RefCell`s
//! (histograms/summaries): a simulation and everything that reads its
//! metrics run on one thread, so the handles are neither `Send` nor
//! `Sync`. Snapshots iterate a `BTreeMap`, so ordering is lexicographic
//! and stable across runs.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use san_sim::{Duration, Histogram, Summary};

/// A monotonically increasing, shareable event counter
/// (`hit`/`add`/`get`/`reset`, `Display`).
///
/// It is `Rc`-shared: clones observe the same value, which lets a
/// layer's private stats struct and the registry share one cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Fresh unregistered counter at zero.
    pub fn new() -> Self {
        Self::default()
    }
    /// Increment by one.
    #[inline]
    pub fn hit(&self) {
        self.add(1);
    }
    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }
    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
    /// Reset to zero (between measurement phases of one run).
    #[inline]
    pub fn reset(&self) {
        self.0.set(0);
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// A signed level indicator (queue depth, window occupancy), shareable.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    /// Fresh unregistered gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }
    /// Pin to an absolute level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }
    /// Move up by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.set(self.0.get().wrapping_add(n));
    }
    /// Move down by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.set(self.0.get().wrapping_sub(n));
    }
    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.get()
    }
}

impl fmt::Display for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// A shareable handle to a nanosecond-duration histogram.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Rc<RefCell<Histogram>>);

impl HistogramHandle {
    /// Fresh unregistered histogram.
    pub fn new() -> Self {
        Self::default()
    }
    /// Record one duration sample.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.0.borrow_mut().record(d);
    }
    /// Copy out the current distribution.
    pub fn snapshot(&self) -> Histogram {
        self.0.borrow().clone()
    }
}

/// A shareable handle to a streaming scalar summary.
#[derive(Debug, Clone, Default)]
pub struct SummaryHandle(Rc<RefCell<Summary>>);

impl SummaryHandle {
    /// Fresh unregistered summary.
    pub fn new() -> Self {
        Self::default()
    }
    /// Record one sample.
    #[inline]
    pub fn record(&self, x: f64) {
        self.0.borrow_mut().record(x);
    }
    /// Copy out the current summary.
    pub fn snapshot(&self) -> Summary {
        *self.0.borrow()
    }
}

/// The kind of metric registered under a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Signed level.
    Gauge,
    /// Duration distribution.
    Histogram,
    /// Scalar stream summary.
    Summary,
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Summary => "summary",
        };
        f.write_str(s)
    }
}

/// Registration failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The name exists with a different kind.
    KindMismatch {
        /// The contested metric name.
        name: String,
        /// What the name is already registered as.
        registered: MetricKind,
        /// What the caller asked for.
        requested: MetricKind,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::KindMismatch { name, registered, requested } => write!(
                f,
                "metric `{name}` is already registered as a {registered}, cannot re-register as a {requested}"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
    Summary(SummaryHandle),
}

impl Metric {
    fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
            Metric::Summary(_) => MetricKind::Summary,
        }
    }
}

/// Name → metric map behind the `Telemetry` handle.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    metrics: RefCell<BTreeMap<String, Metric>>,
}

macro_rules! get_or_create {
    ($fn_name:ident, $variant:ident, $handle:ty, $kind:expr) => {
        pub(crate) fn $fn_name(&self, name: &str) -> Result<$handle, RegistryError> {
            let mut map = self.metrics.borrow_mut();
            match map.get(name) {
                Some(Metric::$variant(h)) => Ok(h.clone()),
                Some(other) => Err(RegistryError::KindMismatch {
                    name: name.to_string(),
                    registered: other.kind(),
                    requested: $kind,
                }),
                None => {
                    let h = <$handle>::new();
                    map.insert(name.to_string(), Metric::$variant(h.clone()));
                    Ok(h)
                }
            }
        }
    };
}

impl Registry {
    get_or_create!(counter, Counter, Counter, MetricKind::Counter);
    get_or_create!(gauge, Gauge, Gauge, MetricKind::Gauge);
    get_or_create!(histogram, Histogram, HistogramHandle, MetricKind::Histogram);
    get_or_create!(summary, Summary, SummaryHandle, MetricKind::Summary);

    pub(crate) fn snapshot(&self) -> Snapshot {
        let map = self.metrics.borrow();
        let entries = map
            .iter()
            .map(|(name, m)| SnapshotEntry {
                name: name.clone(),
                value: MetricValue::read(m),
            })
            .collect();
        Snapshot { entries }
    }
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram digest: count, mean and tail quantiles in nanoseconds.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Mean sample, ns.
        mean_ns: u64,
        /// Median, ns.
        p50_ns: u64,
        /// 99th percentile, ns.
        p99_ns: u64,
        /// Largest sample, ns.
        max_ns: u64,
    },
    /// Summary digest.
    Summary {
        /// Number of samples.
        count: u64,
        /// Sample mean.
        mean: f64,
        /// Smallest sample.
        min: f64,
        /// Largest sample.
        max: f64,
    },
}

impl MetricValue {
    fn read(m: &Metric) -> Self {
        match m {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => {
                let h = h.snapshot();
                MetricValue::Histogram {
                    count: h.count(),
                    mean_ns: h.mean().nanos(),
                    p50_ns: h.quantile(0.5).nanos(),
                    p99_ns: h.quantile(0.99).nanos(),
                    max_ns: h.max().nanos(),
                }
            }
            Metric::Summary(s) => {
                let s = s.snapshot();
                MetricValue::Summary {
                    count: s.count(),
                    mean: s.mean(),
                    min: s.min(),
                    max: s.max(),
                }
            }
        }
    }
}

/// One named reading in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// Dot-separated metric path.
    pub name: String,
    /// Reading at snapshot time.
    pub value: MetricValue,
}

/// A stable, lexicographically ordered reading of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Entries sorted by name.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Look up a counter value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| match e.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
    }

    /// Sum counter values over all names with the given prefix.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .filter_map(|e| match e.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// True when any entry name starts with `prefix` (a metric family
    /// like `fabric.` or `ft.` is present).
    pub fn has_family(&self, prefix: &str) -> bool {
        self.entries.iter().any(|e| e.name.starts_with(prefix))
    }
}
