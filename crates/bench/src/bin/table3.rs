//! Table 3: dynamic (on-demand) mapping performance — probe counts and
//! mapping time as a function of the hop distance to the destination.
//!
//! Part A sweeps hop counts 1–4 with a switch chain: the first packet to an
//! unmapped destination triggers a cold-start mapping run. Part B runs the
//! paper's reconfiguration scenario on the Figure 2 testbed: a live route
//! dies permanently mid-stream and the sender re-maps on demand over the
//! redundant fabric.

use san_bench::{tsv, Routes, Stream, StreamRun};
use san_fabric::engine::FabricEvent;
use san_fabric::topology;
use san_ft::{MapperConfig, ProtocolConfig};
use san_sim::{Duration, Time};
use san_telemetry::Telemetry;

fn main() {
    println!("Table 3 (A): cold-start on-demand mapping vs hop count (switch chain)");
    println!();
    println!(
        "{:<8} {:>12} {:>14} {:>10} {:>16}",
        "# Hops", "Host probes", "Switch probes", "Total", "Mapping time"
    );
    let slice = Duration::from_millis(5);
    for hops in 1..=4usize {
        let (topo, a, b) = topology::chain(hops);
        let stream = Stream {
            src: a,
            dst: b,
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
        // No routes installed: the first send must map.
        run.run(slice, Time::from_secs(5), |run, _| run.delivered() > 0);
        assert_eq!(
            run.delivered(),
            1,
            "hop {hops}: message must arrive after mapping"
        );
        let st = run.map_stats(a);
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
    let stream = Stream {
        src: tb.hosts[0], // on core0
        dst: tb.hosts[1], // on core1
        count: 400,
        bytes: 2048,
    };
    let proto = ProtocolConfig {
        perm_fail_threshold: Duration::from_millis(10),
        ..ProtocolConfig::default().with_mapping()
    };
    // With --telemetry, trace the failover run itself: the export shows the
    // probe storm, the generation bump and the ft.node.*.map.* counters.
    let tel_dir = san_bench::telemetry_dir();
    let tel = match &tel_dir {
        Some(_) => Telemetry::with_trace(1 << 16),
        None => Telemetry::new(),
    };
    let perm_fail = proto.perm_fail_threshold;
    let mut run = StreamRun::new(tb.topo, stream, proto, MapperConfig::default(), &tel);
    run.install(Routes::Shortest);
    // Kill both direct core-to-core links mid-stream: the sender must
    // discover the detour through a leaf switch.
    let kill_at = Time::from_millis(2);
    for &link in &tb.redundant_links[..2] {
        run.schedule(kill_at, FabricEvent::LinkDown { link });
    }
    run.run(slice, Time::from_secs(10), |run, _| run.delivered() >= 400);
    let delivered = run.delivered();
    let st = run.map_stats(stream.src);
    let last_arrival = run.last_arrival().unwrap();
    println!("messages delivered        {delivered} / 400 (duplicates possible at the reset)");
    println!("mapping runs              {}", st.runs);
    println!("host probes               {}", st.last_host_probes);
    println!("switch probes             {}", st.last_switch_probes);
    println!("re-mapping time           {:.3} ms", st.last_time_ms);
    println!(
        "stream outage             ~{:.1} ms (failure at 2 ms, last arrival {:.1} ms)",
        st.last_time_ms + perm_fail.as_millis_f64(),
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
