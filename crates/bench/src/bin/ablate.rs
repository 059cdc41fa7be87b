//! Ablations of the paper's design choices (DESIGN.md §5), one section
//! each; the section's name leads its `#tsv` lines:
//!
//! 1. `timers`: single periodic timer vs per-packet timers (AM-II),
//! 2. `selective`: go-back-N vs selective retransmission + receiver
//!    buffering,
//! 3. `feedback`: sender-based feedback vs fixed ACK-every-K,
//! 4. `level`: reliable delivery vs reliable reception,
//! 5. `burst`: bursty vs uniform errors,
//! 6. `mapping`: on-demand partial mapping vs mapping the whole network.

use san_bench::{parse_mode, tsv, Stream, StreamRun};
use san_fabric::{topology, NodeId, Topology};
use san_ft::{FeedbackPolicy, MapperConfig, ProtocolConfig};
use san_microbench::{unidirectional_bandwidth, FwKind};
use san_nic::ClusterConfig;
use san_sim::{Duration, Time};
use san_telemetry::Telemetry;

fn main() {
    let mode = parse_mode();
    let volume = mode.volume();
    let msgs = volume / 4096;
    // Error cells need enough packets for the injector to fire repeatedly.
    let msgs_for = |err: f64| -> u64 {
        if err > 0.0 {
            msgs.max((12.0 / err) as u64).min(30_000)
        } else {
            msgs
        }
    };
    let deadline = Time::from_secs(240);

    // ---- 1. Timer architecture --------------------------------------------
    println!("Ablation 1: single periodic timer (paper) vs per-packet timers (AM-II)");
    println!();
    println!(
        "{:<26} {:>10} {:>10} {:>14} {:>12}",
        "config", "err", "MB/s", "timer fires", "retransmits"
    );
    for &err in &[0.0f64, 1e-3] {
        for &per_pkt in &[false, true] {
            let mut p = ProtocolConfig::default().with_error_rate(err);
            p.per_packet_timers = per_pkt;
            let bw = unidirectional_bandwidth(
                &FwKind::Ft(p),
                4096,
                msgs_for(err),
                ClusterConfig::default(),
                deadline,
            );
            let label = if per_pkt {
                "per-packet timers"
            } else {
                "single timer (paper)"
            };
            println!(
                "{label:<26} {:>10} {:>10.1} {:>14} {:>12}",
                format!("{err:.0e}"),
                bw.mbps,
                bw.timer_fires,
                bw.retransmits
            );
            tsv(&[
                "timers".into(),
                label.into(),
                format!("{err:.0e}"),
                format!("{:.2}", bw.mbps),
                bw.retransmits.to_string(),
            ]);
        }
    }
    println!();

    // ---- 2. Go-back-N vs selective ----------------------------------------
    println!("Ablation 2: go-back-N (paper) vs selective retransmission + rx buffering");
    println!();
    println!(
        "{:<26} {:>10} {:>10} {:>12}",
        "config", "err", "MB/s", "retransmits"
    );
    for &err in &[1e-3f64, 1e-2] {
        for &selective in &[false, true] {
            let mut p = ProtocolConfig::default().with_error_rate(err);
            p.selective_retransmission = selective;
            let bw = unidirectional_bandwidth(
                &FwKind::Ft(p),
                4096,
                msgs_for(err),
                ClusterConfig {
                    send_bufs: 128,
                    ..Default::default()
                },
                deadline,
            );
            let label = if selective {
                "selective + rx-buffer"
            } else {
                "go-back-N (paper)"
            };
            println!(
                "{label:<26} {:>10} {:>10.1} {:>12}",
                format!("{err:.0e}"),
                bw.mbps,
                bw.retransmits
            );
            tsv(&[
                "selective".into(),
                label.into(),
                format!("{err:.0e}"),
                format!("{:.2}", bw.mbps),
                bw.retransmits.to_string(),
            ]);
        }
    }
    println!();

    // ---- 3. ACK-request policy --------------------------------------------
    println!("Ablation 3: sender-based feedback (paper) vs fixed ACK-every-K");
    println!();
    println!("{:<26} {:>10} {:>10}", "config", "err", "MB/s");
    for &err in &[0.0f64, 1e-2] {
        let feedbacks: Vec<(String, FeedbackPolicy)> = vec![
            (
                "sender feedback (paper)".into(),
                FeedbackPolicy::SenderFeedback,
            ),
            ("every-1".into(), FeedbackPolicy::EveryK(1)),
            ("every-8".into(), FeedbackPolicy::EveryK(8)),
            ("every-32".into(), FeedbackPolicy::EveryK(32)),
        ];
        for (label, fb) in feedbacks {
            let mut p = ProtocolConfig::default().with_error_rate(err);
            p.feedback = fb;
            let bw = unidirectional_bandwidth(
                &FwKind::Ft(p),
                4096,
                msgs_for(err),
                ClusterConfig::default(),
                deadline,
            );
            println!("{label:<26} {:>10} {:>10.1}", format!("{err:.0e}"), bw.mbps);
            tsv(&[
                "feedback".into(),
                label,
                format!("{err:.0e}"),
                format!("{:.2}", bw.mbps),
            ]);
        }
    }
    println!();

    // ---- 3b. Reliability level (VI spec) -----------------------------------
    println!("Ablation 3b: reliable delivery (paper) vs reliable reception (VI's strongest)");
    println!();
    println!("{:<30} {:>10} {:>10}", "config", "err", "MB/s");
    for &err in &[0.0f64, 1e-3] {
        for &reception in &[false, true] {
            let mut p = ProtocolConfig::default().with_error_rate(err);
            p.reliable_reception = reception;
            let bw = unidirectional_bandwidth(
                &FwKind::Ft(p),
                4096,
                msgs_for(err),
                ClusterConfig {
                    send_bufs: 8,
                    ..Default::default()
                },
                deadline,
            );
            let label = if reception {
                "reliable reception"
            } else {
                "reliable delivery (paper)"
            };
            println!("{label:<30} {:>10} {:>10.1}", format!("{err:.0e}"), bw.mbps);
            tsv(&[
                "level".into(),
                label.into(),
                format!("{err:.0e}"),
                format!("{:.2}", bw.mbps),
            ]);
        }
    }
    println!();

    // ---- 5. Bursty vs uniform errors (the paper's untested case) -----------
    println!("Ablation 5: uniform vs bursty wire loss at the same average rate");
    println!();
    println!("{:<30} {:>10} {:>12}", "config", "MB/s", "retransmits");
    for &(label, bursty) in &[("uniform 1% loss", false), ("bursty 1% loss (len 8)", true)] {
        use san_fabric::TransientFaults;
        let fw = FwKind::Ft(ProtocolConfig::default());
        let cfg = ClusterConfig::default();
        // Run via the bandwidth driver, then overlay wire faults by
        // rebuilding manually: the driver owns the cluster, so use the
        // lower-level pieces directly.
        let bw = {
            use san_microbench::agents::{state, Sink, UniSource};
            use san_nic::HostAgent;
            let stt = state();
            let hosts: Vec<Box<dyn HostAgent>> = vec![
                Box::new(UniSource::new(san_fabric::NodeId(1), 4096, msgs)),
                Box::new(Sink::new(san_fabric::NodeId(1), msgs, stt.clone())),
            ];
            let mut cluster = san_microbench::pair_cluster(&fw, cfg, hosts);
            let faults = if bursty {
                TransientFaults::bursty_loss(0.01, 8.0)
            } else {
                TransientFaults::loss(0.01)
            };
            cluster.engine.set_transient_faults(faults, 7);
            let slice = Duration::from_millis(10);
            let mut t = Time::ZERO + slice;
            while !stt.borrow().done && t < deadline {
                cluster.run_until(t);
                t += slice;
            }
            let done = stt.borrow().done;
            let last = stt.borrow().received.iter().map(|d| d.completed_at).max();
            let mbps = match (done, last) {
                (true, Some(last)) => {
                    (msgs * 4096) as f64 / last.since(Time::ZERO).as_secs_f64() / 1e6
                }
                _ => 0.0,
            };
            (
                mbps,
                cluster
                    .nics
                    .iter()
                    .map(|n| n.core.stats.retransmits.get())
                    .sum::<u64>(),
            )
        };
        println!("{label:<30} {:>10.1} {:>12}", bw.0, bw.1);
        tsv(&[
            "burst".into(),
            label.into(),
            format!("{:.2}", bw.0),
            bw.1.to_string(),
        ]);
    }
    println!();

    // ---- 4. On-demand vs whole-network mapping -----------------------------
    println!("Ablation 4: on-demand partial mapping vs mapping the whole network");
    println!();
    let tb = topology::paper_mapping_testbed(4); // 16 hosts, 4 switches
    let n = tb.hosts.len();
    // (a) Map just one nearby destination (on-demand early exit): the
    // same-switch neighbour.
    let near = first_send_maps(tb.topo.clone(), tb.hosts[4], 5, |run| run.delivered() > 0);
    // (b) Map an absent destination: a phantom host id beyond every wired
    // host. The mapper explores everything before giving up, which is the
    // cost a full-map scheme pays up front.
    let mut topo = tb.topo.clone();
    let _ = topo.add_host(); // the phantom exists but is wired nowhere
    let full = first_send_maps(topo, NodeId(n as u16), 10, |run| {
        run.map_stats(NodeId(0)).unreachable.get() > 0
    });
    println!(
        "{:<30} {:>12} {:>14} {:>12}",
        "scheme", "host probes", "switch probes", "time (ms)"
    );
    println!(
        "{:<30} {:>12} {:>14} {:>12.3}",
        "on-demand, nearby target", near.0, near.1, near.2
    );
    println!(
        "{:<30} {:>12} {:>14} {:>12.3}",
        "whole network (full map)", full.0, full.1, full.2
    );
    tsv(&[
        "mapping".into(),
        "on-demand".into(),
        near.0.to_string(),
        near.1.to_string(),
        format!("{:.3}", near.2),
    ]);
    tsv(&[
        "mapping".into(),
        "full".into(),
        full.0.to_string(),
        full.1.to_string(),
        format!("{:.3}", full.2),
    ]);

    if let Some(dir) = san_bench::telemetry_dir() {
        // Representative point: per-packet timers at 1e-2 errors — the
        // timer_fired events in the trace dwarf the single-timer scheme's.
        let proto = ProtocolConfig::default().with_error_rate(1e-2);
        san_bench::instrumented_stream(&dir, "ablate", &FwKind::Ft(proto), 4096, 128, 32);
    }
}

/// Send one 64-byte message from host 0 to `dst` over `topo` with no
/// routes installed, so the first send maps, until `done` holds or
/// `deadline_s` pass. Returns the last mapping run's host probes, switch
/// probes and time (ms).
fn first_send_maps(
    topo: Topology,
    dst: NodeId,
    deadline_s: u64,
    done: impl Fn(&StreamRun) -> bool,
) -> (u64, u64, f64) {
    let src = NodeId(0);
    let stream = Stream {
        src,
        dst,
        count: 1,
        bytes: 64,
    };
    let proto = ProtocolConfig::default().with_mapping();
    let mut run = StreamRun::new(
        topo,
        stream,
        proto,
        MapperConfig::default(),
        &Telemetry::new(),
    );
    let deadline = Time::from_secs(deadline_s);
    run.run(Duration::from_millis(5), deadline, |run, _| done(run));
    let st = run.map_stats(src);
    (st.last_host_probes, st.last_switch_probes, st.last_time_ms)
}
