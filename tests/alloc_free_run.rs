//! The steady-state run phase allocates (almost) nothing.
//!
//! A fat_tree:4 (16 hosts) shift permutation streams 2000 × 2 KiB per host
//! with a 4 s path-reset timer over `install_shortest_routes`. Every event
//! of the simulator's hot path — a timing-wheel push or pop, a wormhole
//! hop, a delivery, an ACK — reuses storage it already owns, so once the
//! first 2 ms of simulated time have warmed the queues, pools and arenas,
//! the next 18 ms must not reach the allocator:
//!
//! - with the no-FT firmware, at most 16 allocations in total;
//! - with the reliable firmware (adaptive RTO, window damping, 1e-2 wire
//!   loss), fewer than one allocation per 500 events. A go-back-N replay
//!   may still collect its buffer list; per-packet work may not.
//!
//! Before the timing wheel kept its pending events in one node arena, the
//! fabric kept flight state inline and the delivery box was pooled, the
//! same windows counted 65,318 allocations in 105,968 events (no-FT) and
//! 119,733 in 125,913 events (reliable); after, 2 and 133. Since the
//! fabric queues path-reset checks itself instead of arming one timer per
//! flight, the windows count 3 and 134: the check queue's ring buffer
//! grows once more inside the window, where the wheel's arena used to.
//! All measured with this test under `cargo test` on x86-64 Linux.
//!
//! Allocations are counted per thread, so the other tests of a parallel
//! `cargo test` run cannot disturb the count; this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use san_fabric::{NodeId, TransientFaults};
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::testkit::StreamSender;
use san_nic::{Cluster, ClusterConfig, Firmware, HostAgent, UnreliableFirmware};
use san_sim::{Duration, Time};
use san_topo::TopoSpec;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations and events between 2 ms and 20 ms of simulated time.
fn steady_state(make_fw: impl Fn(usize) -> Box<dyn Firmware>, wire_loss: f64) -> (u64, u64) {
    let fabric = TopoSpec::parse("fat_tree:4").expect("valid spec").build();
    let n = fabric.hosts.len();
    let mut cfg = ClusterConfig::default();
    cfg.engine.path_reset_timeout = Duration::from_secs(4);
    let hosts: Vec<Box<dyn HostAgent>> = (0..n)
        .map(|i| -> Box<dyn HostAgent> {
            Box::new(StreamSender::new(
                NodeId(((i + n / 2) % n) as u16),
                2048,
                2000,
            ))
        })
        .collect();
    let mut c = Cluster::new(fabric.topo, cfg, |_| make_fw(n), hosts);
    c.install_shortest_routes();
    if wire_loss > 0.0 {
        c.engine
            .set_transient_faults(TransientFaults::loss(wire_loss), 7);
    }
    c.run_until(Time::from_millis(2));
    let (a0, e0) = (allocations(), c.events_processed());
    c.run_until(Time::from_millis(20));
    (allocations() - a0, c.events_processed() - e0)
}

#[test]
fn steady_state_run_phase_does_not_allocate() {
    let (allocs, events) = steady_state(|_| Box::new(UnreliableFirmware), 0.0);
    println!("no-ft: {allocs} allocations in {events} events");
    assert!(events > 50_000, "the window must be busy: {events} events");
    assert!(
        allocs <= 16,
        "no-FT run phase: {allocs} allocations in {events} events"
    );

    let proto = ProtocolConfig::default()
        .with_adaptive_rto()
        .with_window_damping();
    let (allocs, events) = steady_state(
        |n| {
            Box::new(ReliableFirmware::new(
                proto.clone(),
                MapperConfig::default(),
                n,
            ))
        },
        1e-2,
    );
    println!("reliable: {allocs} allocations in {events} events");
    assert!(events > 50_000, "the window must be busy: {events} events");
    assert!(
        allocs * 500 < events,
        "reliable run phase: {allocs} allocations in {events} events"
    );
}
