//! Exporters: JSON and CSV dumps plus a compact end-of-run text summary.
//!
//! The JSON export is a [`Json`] value, so it is valid JSON by
//! construction; the CSV and text formats are small and fixed.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::metrics::{MetricValue, Snapshot};
use crate::Telemetry;

/// The full registry snapshot plus trace accounting as one JSON object.
/// Metric keys appear in snapshot (lexicographic) order.
pub fn to_json(tel: &Telemetry) -> Json {
    let metrics = tel
        .snapshot()
        .entries
        .into_iter()
        .map(|e| {
            let value = match e.value {
                MetricValue::Counter(c) => {
                    Json::obj(vec![("kind", "counter".into()), ("value", c.into())])
                }
                MetricValue::Gauge(g) => {
                    // Json's integers are unsigned; a negative level prints as -n.
                    let level = u64::try_from(g).map_or(Json::Num(g as f64), Json::Int);
                    Json::obj(vec![("kind", "gauge".into()), ("value", level)])
                }
                MetricValue::Histogram {
                    count,
                    mean_ns,
                    p50_ns,
                    p99_ns,
                    max_ns,
                } => Json::obj(vec![
                    ("kind", "histogram".into()),
                    ("count", count.into()),
                    ("mean_ns", mean_ns.into()),
                    ("p50_ns", p50_ns.into()),
                    ("p99_ns", p99_ns.into()),
                    ("max_ns", max_ns.into()),
                ]),
                MetricValue::Summary {
                    count,
                    mean,
                    min,
                    max,
                } => Json::obj(vec![
                    ("kind", "summary".into()),
                    ("count", count.into()),
                    ("mean", Json::Num(mean)),
                    ("min", Json::Num(min)),
                    ("max", Json::Num(max)),
                ]),
            };
            (e.name, value)
        })
        .collect();
    Json::obj(vec![
        ("metrics", Json::Obj(metrics)),
        (
            "trace",
            Json::obj(vec![
                ("enabled", tel.tracing_enabled().into()),
                ("recorded", (tel.events().len() as u64).into()),
                ("overwritten", tel.overwritten_events().into()),
            ]),
        ),
    ])
}

/// Render the metric snapshot as CSV (`name,kind,value,...`).
pub fn metrics_to_csv(snap: &Snapshot) -> String {
    let mut out = String::from("name,kind,value,count,mean,min,max\n");
    for e in &snap.entries {
        match &e.value {
            MetricValue::Counter(c) => {
                let _ = writeln!(out, "{},counter,{c},,,,", e.name);
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "{},gauge,{g},,,,", e.name);
            }
            MetricValue::Histogram {
                count,
                mean_ns,
                p50_ns,
                p99_ns,
                max_ns,
            } => {
                let _ = writeln!(
                    out,
                    "{},histogram,,{count},{mean_ns},{p50_ns},{max_ns} (p99={p99_ns})",
                    e.name
                );
            }
            MetricValue::Summary {
                count,
                mean,
                min,
                max,
            } => {
                let _ = writeln!(out, "{},summary,,{count},{mean},{min},{max}", e.name);
            }
        }
    }
    out
}

/// Render the recorded trace as CSV, one event per line in ring order.
pub fn trace_to_csv(tel: &Telemetry) -> String {
    let mut out = String::from("at_ns,layer,kind,node,src,dst,generation,seq,aux\n");
    for ev in tel.events() {
        out.push_str(&ev.to_line());
        out.push('\n');
    }
    out
}

fn sum_leaf(snap: &Snapshot, family: &str, leaf: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.name.starts_with(family) && e.name.ends_with(leaf))
        .filter_map(|e| match e.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .sum()
}

/// Compact human-readable end-of-run summary: per-family packet and
/// protocol accounting plus trace-ring occupancy.
pub fn text_summary(tel: &Telemetry) -> String {
    let snap = tel.snapshot();
    let mut out = String::from("telemetry summary\n");
    let _ = writeln!(
        out,
        "  fabric: injected={} delivered={} dropped={} path_resets={} bytes={}",
        snap.counter("fabric.injected").unwrap_or(0),
        snap.counter("fabric.delivered").unwrap_or(0),
        sum_leaf(&snap, "fabric.dropped.", ""),
        snap.counter("fabric.path_resets").unwrap_or(0),
        snap.counter("fabric.bytes_delivered").unwrap_or(0),
    );
    let _ = writeln!(
        out,
        "  nic:    descs_posted={} packets_tx={} packets_rx={} crc_drops={} blocked={}",
        sum_leaf(&snap, "nic.node.", ".descs_posted"),
        sum_leaf(&snap, "nic.node.", ".packets_tx"),
        sum_leaf(&snap, "nic.node.", ".packets_rx"),
        sum_leaf(&snap, "nic.node.", ".crc_drops"),
        sum_leaf(&snap, "nic.node.", ".blocked_no_buffer"),
    );
    let _ = writeln!(
        out,
        "  ft:     retransmits={} acks_tx={} acks_rx={} timer_fires={} injected_drops={} probes={}",
        sum_leaf(&snap, "ft.node.", ".retransmits"),
        sum_leaf(&snap, "ft.node.", ".acks_tx"),
        sum_leaf(&snap, "ft.node.", ".acks_rx"),
        sum_leaf(&snap, "ft.node.", ".timer_fires"),
        sum_leaf(&snap, "ft.node.", ".injected_drops"),
        sum_leaf(&snap, "ft.node.", ".probes_tx"),
    );
    let vmmc = sum_leaf(&snap, "vmmc.node.", ".msgs_sent");
    if vmmc > 0 {
        let _ = writeln!(
            out,
            "  vmmc:   msgs_sent={vmmc} msgs_received={} protection_drops={} dup_msgs={}",
            sum_leaf(&snap, "vmmc.node.", ".msgs_received"),
            sum_leaf(&snap, "vmmc.node.", ".protection_drops"),
            sum_leaf(&snap, "vmmc.node.", ".dup_msgs"),
        );
    }
    if snap.has_family("svm.") {
        let _ = writeln!(
            out,
            "  svm:    lock_acquires={} page_fetches={} barriers={}",
            sum_leaf(&snap, "svm.node.", ".lock_acquires"),
            sum_leaf(&snap, "svm.node.", ".page_fetches"),
            sum_leaf(&snap, "svm.node.", ".barriers"),
        );
    }
    if tel.tracing_enabled() {
        let _ = writeln!(
            out,
            "  trace:  {} events recorded ({} overwritten)",
            tel.events().len(),
            tel.overwritten_events()
        );
    } else {
        out.push_str("  trace:  recorder disabled\n");
    }
    out
}

/// Write the standard export set (`<name>.metrics.json`,
/// `<name>.metrics.csv`, `<name>.trace.csv`, `<name>.summary.txt`) into
/// `dir`, creating it if needed. Returns the paths written.
pub fn write_dir(dir: &Path, name: &str, tel: &Telemetry) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let snap = tel.snapshot();
    let jobs: [(&str, String); 4] = [
        ("metrics.json", to_json(tel).pretty()),
        ("metrics.csv", metrics_to_csv(&snap)),
        ("trace.csv", trace_to_csv(tel)),
        ("summary.txt", text_summary(tel)),
    ];
    let mut written = Vec::with_capacity(jobs.len());
    for (suffix, content) in jobs {
        let path = dir.join(format!("{name}.{suffix}"));
        fs::write(&path, content)?;
        written.push(path);
    }
    Ok(written)
}
