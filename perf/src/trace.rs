//! Outside-in tracing: spans opened by the benchmark around its calls into
//! each layer's public functions, and a copy of `Cluster::run_until` that
//! opens them.
//!
//! A span's self time is its duration minus its children's. Timing every
//! event roughly doubles a trial's wall time, so the loop samples: one event
//! in [`SAMPLE_EVERY`], drawn from a fixed-seed generator, is timed with
//! every span inside it and counted with weight `SAMPLE_EVERY`; the others
//! only count calls. The sampled self times therefore estimate the whole
//! run's, and [`TracedLoop::loop_s`] is the wall time they must cover.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use san_fabric::engine::FabricOut;
use san_fabric::Packet;
use san_nic::{
    BufId, Cluster, ClusterEvent, Firmware, HostCtx, HostEvent, NicCore, NicCtx, NicEvent, SendDesc,
};
use san_sim::Time;

/// One event in this many is timed.
pub const SAMPLE_EVERY: u64 = 8;

/// The layers spans are attributed to, named after the crates they time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `san-des` through `Sim::peek_time` / `Sim::pop`.
    Des,
    /// `san-fabric`: `Engine::handle`, packet injection.
    Fabric,
    /// `san-nic`: NIC event dispatch, receive, path-reset handling.
    Nic,
    /// `san-ft` (or the baseline firmware): every `Firmware` hook.
    Ft,
    /// Host agents (`san-workload`, stream senders), including
    /// `HostCtx::post_send` admission.
    Host,
    /// `san-mc`: `enabled` + `apply`, i.e. the `ProtocolStep` kernel.
    McKernel,
    /// `san-mc`: `check_state`.
    McInvariant,
    /// `san-mc`: canonical state `encode`.
    McEncode,
    /// The model checker's search machinery: frontier, visited set,
    /// state drops.
    McSearch,
}

const LAYERS: usize = 9;

#[derive(Debug)]
struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    children: u64,
}

/// Span accumulator for one traced pass.
#[derive(Debug, Default)]
pub struct Spans {
    /// Weight of the current event: 0 when it is not sampled.
    weight: u64,
    stack: Vec<Frame>,
    self_ns: [u64; LAYERS],
    calls: [u64; LAYERS],
    /// Timing cost a span records inside its own interval.
    inside_ns: u64,
    /// Timing cost a child span adds to its parent outside the child's
    /// interval.
    outside_ns: u64,
    /// Wall time the sampled spans spent reading the clock (unweighted:
    /// this is time the traced run really took).
    timing_ns: u64,
    /// Cost of one count-only span (an unsampled event's bookkeeping).
    count_ns: f64,
    /// Count-only spans opened.
    counted: u64,
}

/// Shared handle: the loop and the firmware decorators record into one.
pub type SpanRef = Rc<RefCell<Spans>>;

/// A span handle whose own costs are measured: the clock reads are taken
/// out of every sampled self time (alone they would inflate a sampled event
/// by a third), and both they and the counting on unsampled events are
/// reported as tracing overhead.
pub fn calibrated() -> SpanRef {
    // The best of several short batches: other processes only ever add
    // time, and an inflated estimate would hide real work.
    const BATCHES: usize = 16;
    const N: u64 = 2_000;
    let (mut outside_ns, mut inside_ns, mut count_ns) = (u64::MAX, u64::MAX, f64::INFINITY);
    for _ in 0..BATCHES {
        let s = SpanRef::default();
        s.borrow_mut().begin_event(1);
        s.borrow_mut().enter(Layer::Des);
        for _ in 0..N {
            span(&s, Layer::Host, || ());
        }
        s.borrow_mut().exit();
        s.borrow_mut().begin_event(0);
        let t0 = Instant::now();
        for _ in 0..N {
            span(&s, Layer::Host, || ());
        }
        count_ns = count_ns.min(t0.elapsed().as_nanos() as f64 / N as f64);
        let b = s.borrow();
        outside_ns = outside_ns.min(b.self_ns[Layer::Des as usize] / N);
        inside_ns = inside_ns.min(b.self_ns[Layer::Host as usize] / N);
    }
    Rc::new(RefCell::new(Spans {
        inside_ns,
        outside_ns,
        count_ns,
        ..Spans::default()
    }))
}

impl Spans {
    /// Start a new event: timed with `weight` (≥ 1), or counted only (0).
    pub fn begin_event(&mut self, weight: u64) {
        debug_assert!(self.stack.is_empty(), "event started inside a span");
        self.weight = weight;
    }

    /// Open a span.
    pub fn enter(&mut self, layer: Layer) {
        self.calls[layer as usize] += 1;
        if self.weight > 0 {
            self.stack.push(Frame {
                layer,
                start: Instant::now(),
                child_ns: 0,
                children: 0,
            });
        } else {
            self.counted += 1;
        }
    }

    /// Close the innermost span.
    pub fn exit(&mut self) {
        if self.weight == 0 {
            return;
        }
        let f = self.stack.pop().expect("exit without enter");
        let ns = f.start.elapsed().as_nanos() as u64;
        let timing = f.children * self.outside_ns + self.inside_ns;
        self.timing_ns += timing;
        self.self_ns[f.layer as usize] += ns.saturating_sub(f.child_ns + timing) * self.weight;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
            parent.children += 1;
        }
    }

    /// Close the innermost span without counting it (the call it opened
    /// for did not happen).
    pub fn abandon(&mut self, layer: Layer) {
        self.calls[layer as usize] -= 1;
        if self.weight > 0 {
            self.stack.pop();
        } else {
            self.counted -= 1;
        }
    }

    /// Estimated self time of `layer`, ms.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }

    /// Calls into `layer` (all events, sampled or not).
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Sum of every layer's estimated self time, ms.
    pub fn total_self_ms(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e6
    }

    /// Wall time spent tracing, ms — clock reads of sampled spans and the
    /// bookkeeping of counted ones: traced wall time that no layer would
    /// spend in an untraced run.
    pub fn timing_ms(&self) -> f64 {
        (self.timing_ns as f64 + self.counted as f64 * self.count_ns) / 1e6
    }
}

/// Run `f` inside a `layer` span.
pub fn span<R>(spans: &SpanRef, layer: Layer, f: impl FnOnce() -> R) -> R {
    spans.borrow_mut().enter(layer);
    let r = f();
    spans.borrow_mut().exit();
    r
}

/// Fixed-seed event sampler (xorshift64*), independent of every simulation
/// RNG so that tracing cannot perturb a run.
#[derive(Debug)]
pub struct Sampler(u64);

impl Default for Sampler {
    fn default() -> Self {
        Sampler(0x9E37_79B9_7F4A_7C15)
    }
}

impl Sampler {
    /// Weight for the next event: [`SAMPLE_EVERY`] or 0.
    pub fn next_weight(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let r = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        if r.is_multiple_of(SAMPLE_EVERY) {
            SAMPLE_EVERY
        } else {
            0
        }
    }
}

/// Timing decorator for a NIC control program. `as_any` delegates, so
/// harness downcasts to the concrete firmware keep working.
struct TracedFirmware {
    inner: Box<dyn Firmware>,
    spans: SpanRef,
}

impl Firmware for TracedFirmware {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_start(&mut self, core: &mut NicCore, ctx: &mut NicCtx) {
        span(&self.spans, Layer::Ft, || self.inner.on_start(core, ctx))
    }
    fn on_tx_ready(&mut self, core: &mut NicCore, ctx: &mut NicCtx, buf: BufId) {
        span(&self.spans, Layer::Ft, || {
            self.inner.on_tx_ready(core, ctx, buf)
        })
    }
    fn on_tx_injected(&mut self, core: &mut NicCore, ctx: &mut NicCtx, buf: BufId) {
        span(&self.spans, Layer::Ft, || {
            self.inner.on_tx_injected(core, ctx, buf)
        })
    }
    fn on_rx(&mut self, core: &mut NicCore, ctx: &mut NicCtx, pkt: Packet) {
        span(&self.spans, Layer::Ft, || self.inner.on_rx(core, ctx, pkt))
    }
    fn on_timer(&mut self, core: &mut NicCore, ctx: &mut NicCtx, token: u64) {
        span(&self.spans, Layer::Ft, || {
            self.inner.on_timer(core, ctx, token)
        })
    }
    fn on_path_reset(&mut self, core: &mut NicCore, ctx: &mut NicCtx, pkt: Packet) {
        span(&self.spans, Layer::Ft, || {
            self.inner.on_path_reset(core, ctx, pkt)
        })
    }
    fn on_no_route(&mut self, core: &mut NicCore, ctx: &mut NicCtx, desc: SendDesc) {
        span(&self.spans, Layer::Ft, || {
            self.inner.on_no_route(core, ctx, desc)
        })
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// The traced event loop for one cluster.
#[derive(Debug)]
pub struct TracedLoop {
    /// Where spans land.
    pub spans: SpanRef,
    sampler: Sampler,
    started: bool,
    /// Events processed.
    pub events: u64,
    /// Largest event-queue length seen after a pop.
    pub pending_max: usize,
    /// Largest number of flights inside the fabric seen after a pop.
    pub in_flight_max: usize,
    /// Wall time spent inside [`TracedLoop::run_until`], s.
    pub loop_s: f64,
}

impl Default for TracedLoop {
    /// A loop with calibrated spans and zeroed counters.
    fn default() -> Self {
        Self {
            spans: calibrated(),
            sampler: Sampler::default(),
            started: false,
            events: 0,
            pending_max: 0,
            in_flight_max: 0,
            loop_s: 0.0,
        }
    }
}

impl TracedLoop {
    /// Wrap a control program so its hooks open `ft` spans.
    pub fn wrap(&self, fw: Box<dyn Firmware>) -> Box<dyn Firmware> {
        Box::new(TracedFirmware {
            inner: fw,
            spans: self.spans.clone(),
        })
    }

    fn enter(&self, layer: Layer) {
        self.spans.borrow_mut().enter(layer);
    }

    fn exit(&self) {
        self.spans.borrow_mut().exit();
    }

    /// `Cluster::run_until`, with spans: run until the queue drains or
    /// `deadline` passes; returns the time of the last processed event.
    /// The cluster must be driven only through this loop.
    pub fn run_until(&mut self, c: &mut Cluster, deadline: Time) -> Time {
        let t0 = Instant::now();
        if !self.started {
            self.started = true;
            self.start(c);
        }
        let mut outs: Vec<FabricOut> = Vec::new();
        loop {
            let w = self.sampler.next_weight();
            self.spans.borrow_mut().begin_event(w);
            self.enter(Layer::Des);
            match c.sim.peek_time() {
                Some(next) if next <= deadline => {}
                _ => {
                    self.spans.borrow_mut().abandon(Layer::Des);
                    break;
                }
            }
            let (_, ev) = c.sim.pop().expect("peeked");
            self.exit();
            self.events += 1;
            self.pending_max = self.pending_max.max(c.sim.pending());
            self.in_flight_max = self.in_flight_max.max(c.engine.in_flight());
            self.dispatch(c, ev, &mut outs);
        }
        self.loop_s += t0.elapsed().as_secs_f64();
        c.sim.now()
    }

    /// Every component's start hook, timed in full (weight 1).
    fn start(&mut self, c: &mut Cluster) {
        self.spans.borrow_mut().begin_event(1);
        for i in 0..c.nics.len() {
            let mut ctx = NicCtx {
                sim: &mut c.sim,
                engine: &mut c.engine,
            };
            self.enter(Layer::Nic);
            c.nics[i].on_start(&mut ctx);
            self.exit();
        }
        for i in 0..c.hosts.len() {
            let mut ctx = HostCtx {
                node: san_fabric::NodeId(i as u16),
                nic: &mut c.nics[i],
                sim: &mut c.sim,
                engine: &mut c.engine,
            };
            self.enter(Layer::Host);
            c.hosts[i].on_start(&mut ctx);
            self.exit();
        }
    }

    fn dispatch(&mut self, c: &mut Cluster, ev: ClusterEvent, outs: &mut Vec<FabricOut>) {
        match ev {
            ClusterEvent::Fabric(fe) => {
                outs.clear();
                self.enter(Layer::Fabric);
                c.engine.handle(&mut c.sim, fe, outs);
                self.exit();
                let drained: Vec<FabricOut> = std::mem::take(outs);
                self.process_outs(c, drained);
            }
            ClusterEvent::Portal(x) => {
                outs.clear();
                self.enter(Layer::Fabric);
                c.engine.inject_crossing(&mut c.sim, *x, outs);
                self.exit();
                let drained: Vec<FabricOut> = std::mem::take(outs);
                self.process_outs(c, drained);
            }
            ClusterEvent::Nic(node, ne) => {
                // An Inject event is the NIC handing a sealed packet to
                // `Engine::inject`; its cost is the fabric's.
                let layer = match ne {
                    NicEvent::Inject { .. } => Layer::Fabric,
                    _ => Layer::Nic,
                };
                let mut ctx = NicCtx {
                    sim: &mut c.sim,
                    engine: &mut c.engine,
                };
                self.enter(layer);
                c.nics[node.idx()].handle(&mut ctx, ne);
                self.exit();
            }
            ClusterEvent::Host(node, he) => {
                let mut ctx = HostCtx {
                    node,
                    nic: &mut c.nics[node.idx()],
                    sim: &mut c.sim,
                    engine: &mut c.engine,
                };
                let host = &mut c.hosts[node.idx()];
                self.enter(Layer::Host);
                match he {
                    HostEvent::Wake { token } => host.on_wake(&mut ctx, token),
                    HostEvent::Deliver { pkt } => host.on_message(&mut ctx, *pkt),
                    HostEvent::SendDone { msg_id } => host.on_send_done(&mut ctx, msg_id),
                    HostEvent::SendFailed { msg_id, dst } => {
                        host.on_send_failed(&mut ctx, msg_id, dst)
                    }
                }
                self.exit();
            }
        }
    }

    fn process_outs(&mut self, c: &mut Cluster, outs: Vec<FabricOut>) {
        for out in outs {
            match out {
                FabricOut::Delivered { node, pkt } => {
                    let mut ctx = NicCtx {
                        sim: &mut c.sim,
                        engine: &mut c.engine,
                    };
                    self.enter(Layer::Nic);
                    c.nics[node.idx()].on_delivered(&mut ctx, pkt);
                    self.exit();
                }
                FabricOut::PathReset { src, pkt } => {
                    let mut ctx = NicCtx {
                        sim: &mut c.sim,
                        engine: &mut c.engine,
                    };
                    self.enter(Layer::Nic);
                    c.nics[src.idx()].on_path_reset(&mut ctx, pkt);
                    self.exit();
                }
                FabricOut::Dropped { .. } => {}
                FabricOut::ShardCross(x) => c.shard_out.push(x),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_scales_by_weight() {
        let mut s = Spans::default();
        s.begin_event(SAMPLE_EVERY);
        s.enter(Layer::Nic);
        s.enter(Layer::Ft);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit();
        s.exit();
        assert_eq!((s.calls(Layer::Nic), s.calls(Layer::Ft)), (1, 1));
        assert!(s.self_ms(Layer::Ft) >= 2.0 * SAMPLE_EVERY as f64);
        assert!(s.self_ms(Layer::Nic) < s.self_ms(Layer::Ft) / 10.0);
        s.begin_event(0);
        s.enter(Layer::Nic);
        s.exit();
        assert_eq!(s.calls(Layer::Nic), 2, "unsampled events still count");
    }

    #[test]
    fn sampler_hits_about_one_event_in_eight() {
        let mut s = Sampler::default();
        let hits = (0..80_000).filter(|_| s.next_weight() > 0).count();
        assert!((9_000..11_000).contains(&hits), "{hits} hits");
    }
}
