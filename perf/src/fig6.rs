//! `fig6_sweep`: 36 cells of the paper's Figure 6 grid.
//!
//! Uni- and bidirectional bandwidth × error rate 1e-2/1e-3/1e-4 ×
//! retransmission timer 100 µs/1 ms × 4 B/1 KiB/16 KiB messages, queue 32,
//! 2 MiB volume, on the two-node, one-switch fabric, through
//! `san_microbench::run_grid` with one worker. At 4 B the per-packet NIC
//! and firmware path dominates; this is what users wait on to regenerate
//! the paper's figures.

use san_microbench::{run_grid, GridPoint, GridSpec};
use san_sim::Duration;

use crate::pass::{add, timed, timed_setup, Params, Pass};
use crate::stats::{geomean, median, Digest};

/// Message sizes and the per-layer metric each one's median cell time
/// lands in.
const SIZES: [(u32, &str); 3] = [
    (4, "fig6.cell_ms_4B"),
    (1024, "fig6.cell_ms_1KiB"),
    (16384, "fig6.cell_ms_16KiB"),
];

fn grid(tiny: bool) -> Vec<GridPoint> {
    let cell = |bidirectional, error_rate, timer, bytes| GridPoint {
        timer: Some(timer),
        queue: 32,
        error_rate,
        bytes,
        bidirectional,
    };
    if tiny {
        return vec![
            cell(false, 1e-2, Duration::from_millis(1), 1024),
            cell(true, 1e-2, Duration::from_millis(1), 16384),
        ];
    }
    let mut points = Vec::with_capacity(36);
    for bidi in [true, false] {
        for err in [1e-2, 1e-3, 1e-4] {
            for timer in [Duration::from_micros(100), Duration::from_millis(1)] {
                for (bytes, _) in SIZES {
                    points.push(cell(bidi, err, timer, bytes));
                }
            }
        }
    }
    points
}

/// One pass over the grid (2 cells at 64 KiB when tiny). Traced and
/// untraced passes are the same: the cells run inside `run_grid`, out of
/// reach of spans, and the per-layer values are cell times by size.
pub fn pass(p: &Params, _traced: bool) -> Pass {
    let volume = if p.tiny { 64 << 10 } else { 2 << 20 };
    let mut pass = Pass::default();
    let (_, wall) = timed(|| {
        let (points, setup) = timed_setup(|| grid(p.tiny));
        pass.setup_s.push(setup);
        let mut d = Digest::default();
        let mut mbps = Vec::new();
        let mut by_size: Vec<Vec<f64>> = vec![Vec::new(); SIZES.len()];
        for point in points {
            let spec = GridSpec {
                volume,
                workers: 1,
                ..GridSpec::default()
            };
            let (mut cell, run) = timed(|| run_grid(vec![point.clone()], spec));
            // `run_grid`'s scope returns once the worker's closure has,
            // before the thread has released its malloc arena; the next
            // cell's worker would then sometimes get a fresh arena and
            // inflate peak RSS by half. Let the exit finish first.
            std::thread::sleep(std::time::Duration::from_millis(2));
            let bw = cell.pop().expect("one cell in, one out").bw;
            pass.unit_s.push(run);
            pass.attempted += 1;
            if !bw.completed {
                pass.fail(format!("fig6_sweep cell {point:?}: incomplete"));
            }
            d.u64s(&[
                bw.bytes as u64,
                bw.mbps.to_bits(),
                bw.retransmits,
                bw.injected_drops,
                bw.timer_fires,
                bw.completed as u64,
            ]);
            mbps.push(bw.mbps);
            if let Some(i) = SIZES.iter().position(|&(b, _)| b == point.bytes) {
                by_size[i].push(run * 1e3);
            }
            let m = &mut pass.layers;
            add(m, "ft.retransmits", bw.retransmits as f64);
            add(m, "ft.injected_drops", bw.injected_drops as f64);
            add(m, "ft.timer_fires", bw.timer_fires as f64);
        }
        pass.digest = d;
        let m = &mut pass.layers;
        for ((_, name), times) in SIZES.iter().zip(&by_size) {
            m.insert(name, median(times));
        }
        let retx_per_drop = crate::stats::ratio(m["ft.retransmits"], m["ft.injected_drops"]);
        m.insert("ft.retx_per_drop", retx_per_drop);
        m.insert("sim.goodput_mb_s", geomean(&mbps));
    });
    pass.wall_s = wall;
    pass
}
