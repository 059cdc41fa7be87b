//! Exporters: JSON and CSV dumps plus a compact end-of-run text summary.
//!
//! The JSON/CSV emitters are hand-rolled (the workspace builds offline with
//! no serialization framework); the formats are small and fixed, and every
//! value is emitted through the helpers here so the output stays valid
//! JSON/CSV by construction.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::metrics::{MetricValue, Snapshot};
use crate::Telemetry;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn metric_value_json(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter(c) => format!("{{\"kind\":\"counter\",\"value\":{c}}}"),
        MetricValue::Gauge(g) => format!("{{\"kind\":\"gauge\",\"value\":{g}}}"),
        MetricValue::Histogram { count, mean_ns, p50_ns, p99_ns, max_ns } => format!(
            "{{\"kind\":\"histogram\",\"count\":{count},\"mean_ns\":{mean_ns},\"p50_ns\":{p50_ns},\"p99_ns\":{p99_ns},\"max_ns\":{max_ns}}}"
        ),
        MetricValue::Summary { count, mean, min, max } => format!(
            "{{\"kind\":\"summary\",\"count\":{count},\"mean\":{},\"min\":{},\"max\":{}}}",
            json_f64(*mean),
            json_f64(*min),
            json_f64(*max)
        ),
    }
}

/// Render the full registry snapshot plus trace accounting as one JSON
/// object. Keys appear in snapshot (lexicographic) order.
pub fn to_json(tel: &Telemetry) -> String {
    let snap = tel.snapshot();
    let mut out = String::from("{\n  \"metrics\": {\n");
    for (i, e) in snap.entries.iter().enumerate() {
        let comma = if i + 1 == snap.entries.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    \"{}\": {}{comma}",
            json_escape(&e.name),
            metric_value_json(&e.value)
        );
    }
    let events = tel.events();
    let _ = writeln!(
        out,
        "  }},\n  \"trace\": {{\"enabled\": {}, \"recorded\": {}, \"overwritten\": {}}}\n}}",
        tel.tracing_enabled(),
        events.len(),
        tel.overwritten_events()
    );
    out
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
        ("metrics.json", to_json(tel)),
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
