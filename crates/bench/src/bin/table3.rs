//! Table 3: dynamic (on-demand) mapping performance — probe counts and
//! mapping time as a function of the hop distance to the destination.
//!
//! Part A sweeps hop counts 1–4 with a switch chain: the first packet to an
//! unmapped destination triggers a cold-start mapping run. Part B runs the
//! paper's reconfiguration scenario on the Figure 2 testbed: a live route
//! dies permanently mid-stream and the sender re-maps on demand over the
//! redundant fabric.

use san_bench::{mapper_stats, tsv};
use san_fabric::engine::FabricEvent;
use san_fabric::topology;
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::testkit::{inbox, Collector, StreamSender};
use san_nic::{Cluster, ClusterConfig, HostAgent};
use san_sim::{Duration, Time};

fn main() {
    println!("Table 3 (A): cold-start on-demand mapping vs hop count (switch chain)");
    println!();
    println!(
        "{:<8} {:>12} {:>14} {:>10} {:>16}",
        "# Hops", "Host probes", "Switch probes", "Total", "Mapping time"
    );
    for hops in 1..=4usize {
        let (topo, a, b) = topology::chain(hops);
        let ib = inbox();
        let hosts: Vec<Box<dyn HostAgent>> = vec![
            Box::new(StreamSender::new(b, 64, 1)),
            Box::new(Collector(ib.clone())),
        ];
        let _ = a;
        let proto = ProtocolConfig::default().with_mapping();
        let mut cluster = Cluster::new(
            topo,
            ClusterConfig::default(),
            |_| {
                Box::new(ReliableFirmware::new(
                    proto.clone(),
                    MapperConfig::default(),
                    2,
                ))
            },
            hosts,
        );
        // No routes installed: the first send must map.
        let mut t = Time::from_millis(5);
        while ib.borrow().is_empty() && t < Time::from_secs(5) {
            cluster.run_until(t);
            t += Duration::from_millis(5);
        }
        assert_eq!(
            ib.borrow().len(),
            1,
            "hop {hops}: message must arrive after mapping"
        );
        let st = mapper_stats(&cluster, 0);
        println!(
            "{hops:<8} {:>12} {:>14} {:>10} {:>13.3} ms",
            st.last_host_probes,
            st.last_switch_probes,
            st.last_host_probes + st.last_switch_probes,
            st.last_time_ms
        );
        tsv(&[
            "chain".into(),
            hops.to_string(),
            st.last_host_probes.to_string(),
            st.last_switch_probes.to_string(),
            format!("{:.3}", st.last_time_ms),
        ]);
    }
    println!();
    println!("Paper (Myrinet testbed): 28/0 @1 hop ... 113/73 @4 hops, 3.1–83.6 ms;");
    println!("probe counts grow linearly with the explored network, as here.");
    println!();

    // -- Part B: permanent failure + redundant-fabric remap -----------------
    println!("Table 3 (B): re-mapping after a permanent failure (Figure 2 testbed)");
    println!();
    let tb = topology::paper_mapping_testbed(2);
    let n_hosts = tb.hosts.len();
    let (src, dst) = (tb.hosts[0], tb.hosts[1]); // on core0 and core1
    let ib = inbox();
    let mut hosts: Vec<Box<dyn HostAgent>> = Vec::new();
    for h in 0..n_hosts {
        if h == src.idx() {
            hosts.push(Box::new(StreamSender::new(dst, 2048, 400)));
        } else if h == dst.idx() {
            hosts.push(Box::new(Collector(ib.clone())));
        } else {
            hosts.push(Box::new(san_nic::IdleHost));
        }
    }
    let proto = ProtocolConfig {
        perm_fail_threshold: Duration::from_millis(10),
        ..ProtocolConfig::default().with_mapping()
    };
    // With --telemetry, trace the failover run itself: the export shows the
    // probe storm, the generation bump and the ft.node.*.map.* counters.
    let tel_dir = san_bench::telemetry_dir();
    let tel = match &tel_dir {
        Some(_) => san_telemetry::Telemetry::with_trace(1 << 16),
        None => san_telemetry::Telemetry::new(),
    };
    let mut cluster = Cluster::new(
        tb.topo,
        ClusterConfig {
            telemetry: tel.clone(),
            ..Default::default()
        },
        |_| {
            Box::new(ReliableFirmware::new(
                proto.clone(),
                MapperConfig::default(),
                n_hosts,
            ))
        },
        hosts,
    );
    cluster.install_shortest_routes();
    // Kill both direct core-to-core links mid-stream: the sender must
    // discover the detour through a leaf switch.
    let kill_at = Time::from_millis(2);
    cluster.sim.schedule(
        kill_at,
        FabricEvent::LinkDown {
            link: tb.redundant_links[0],
        }
        .into(),
    );
    cluster.sim.schedule(
        kill_at,
        FabricEvent::LinkDown {
            link: tb.redundant_links[1],
        }
        .into(),
    );
    let mut t = Time::from_millis(5);
    while ib.borrow().len() < 400 && t < Time::from_secs(10) {
        cluster.run_until(t);
        t += Duration::from_millis(5);
    }
    let delivered = ib.borrow().len();
    let st = mapper_stats(&cluster, src.idx());
    let last_arrival = ib
        .borrow()
        .iter()
        .map(|p| p.stamps.host_seen)
        .max()
        .unwrap();
    println!("messages delivered        {delivered} / 400 (duplicates possible at the reset)");
    println!("mapping runs              {}", st.runs);
    println!("host probes               {}", st.last_host_probes);
    println!("switch probes             {}", st.last_switch_probes);
    println!("re-mapping time           {:.3} ms", st.last_time_ms);
    println!(
        "stream outage             ~{:.1} ms (failure at 2 ms, last arrival {:.1} ms)",
        st.last_time_ms + proto.perm_fail_threshold.as_millis_f64(),
        last_arrival.as_millis_f64()
    );
    tsv(&[
        "failover".into(),
        st.runs.get().to_string(),
        st.last_host_probes.to_string(),
        st.last_switch_probes.to_string(),
        format!("{:.3}", st.last_time_ms),
    ]);
    assert!(delivered >= 400, "failover must complete the stream");

    if let Some(dir) = tel_dir {
        san_bench::emit_telemetry(&dir, "table3", &tel);
    }
}
