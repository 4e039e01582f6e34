//! The event loop: nodes, ports, timers, and deterministic dispatch.

use crate::faults::{Gate, Interposer};
use crate::link::{Link, LinkState};
use crate::rng::SimRng;
use crate::time::{Bandwidth, SimTime};
use crate::wheel::{Entry, TimerWheel};
use crate::Node;
use lumina_packet::buf::{self, CounterSnapshot};
use lumina_packet::{frame::line_occupancy_of, Frame};
use lumina_telemetry::trace::hops as trace_hops;
use lumina_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

/// Identifies a node within an [`Engine`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct NodeId(pub usize);

/// Identifies a port on a node.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct PortId(pub usize);

#[derive(Debug)]
enum EventKind {
    FrameArrive { port: PortId, frame: Frame },
    Timer { token: u64 },
    /// A timer whose handler does nothing but re-arm itself: dispatched
    /// through [`Node::on_tick`], with the node left in place and no
    /// [`Effects`] filled.
    Tick { token: u64 },
}

/// The payload filed in the timer wheel; ordering — `(time, seq)` with
/// `seq` the monotonic push counter — lives in the wheel's [`Entry`].
struct EventBody {
    node: NodeId,
    kind: EventKind,
}

/// Counters the engine accumulates during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Frames delivered to nodes.
    pub frames_delivered: u64,
    /// Frame bytes delivered (wire bytes, excluding line overhead).
    pub frame_bytes_delivered: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Total events processed.
    pub events: u64,
}

/// Packet-plane allocation/copy accounting for one run: the per-run delta
/// of `lumina_packet::buf`'s thread-local counters, baselined when the
/// engine is constructed.
///
/// Kept **out** of the golden `report_json` telemetry section on purpose;
/// it is surfaced
/// through `TestResults`-style carriers and the `telemetry` CLI
/// subcommand; `bytes_copied + bytes_shared` is the copy bill of the old
/// owned-`Vec<u8>`-per-hop design.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameStats {
    /// Distinct frame buffers created.
    pub frames_allocated: u64,
    /// Bytes backing those buffers.
    pub bytes_allocated: u64,
    /// Bytes physically memcpy'd (serialization payloads, copy-on-write
    /// mutations, trimmed captures).
    pub bytes_copied: u64,
    /// Frame hand-offs that shared the buffer instead of copying.
    pub frames_shared: u64,
    /// Bytes passed or scanned in place where the old design copied.
    pub bytes_shared: u64,
    /// High-water mark of distinct buffers alive at once.
    pub peak_live_frames: u64,
}

impl FrameStats {
    fn delta(base: &CounterSnapshot) -> FrameStats {
        let now = buf::counters();
        FrameStats {
            frames_allocated: now.frames_allocated - base.frames_allocated,
            bytes_allocated: now.bytes_allocated - base.bytes_allocated,
            bytes_copied: now.bytes_copied - base.bytes_copied,
            frames_shared: now.frames_shared - base.frames_shared,
            bytes_shared: now.bytes_shared - base.bytes_shared,
            peak_live_frames: now.peak_live_frames.saturating_sub(base.live_frames),
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// The event queue drained: the network went quiescent.
    Quiescent {
        /// Time of the last processed event.
        end: SimTime,
    },
    /// The configured time horizon was reached with events still pending.
    HorizonReached {
        /// The horizon.
        end: SimTime,
    },
    /// The event-count safety limit tripped (likely a livelock bug).
    EventLimit {
        /// Time at which the limit tripped.
        end: SimTime,
    },
}

impl RunOutcome {
    /// Final simulation time regardless of the outcome variant.
    pub fn end_time(self) -> SimTime {
        match self {
            RunOutcome::Quiescent { end }
            | RunOutcome::HorizonReached { end }
            | RunOutcome::EventLimit { end } => end,
        }
    }

    /// True if the network quiesced.
    pub fn is_quiescent(self) -> bool {
        matches!(self, RunOutcome::Quiescent { .. })
    }
}

/// The discrete-event engine.
pub struct Engine {
    now: SimTime,
    seq: u64,
    queue: TimerWheel<EventBody>,
    /// Next event, pre-popped so the run loop can peek at its time for
    /// the horizon check without disturbing the wheel.
    next: Option<Entry<EventBody>>,
    nodes: Vec<Option<Box<dyn Node>>>,
    /// Egress state of every connected port, `links[node][port]`; one
    /// (possibly empty) row per node.
    links: Vec<Vec<Option<LinkState>>>,
    rng: SimRng,
    stats: EngineStats,
    /// Packet-plane counter baseline taken at construction; per-run
    /// [`FrameStats`] are deltas against it.
    frame_baseline: CounterSnapshot,
    telemetry: Telemetry,
    queue_hwm: usize,
    /// Safety valve against livelocked simulations.
    pub event_limit: u64,
    /// The seam faults and chaos act through; arms nothing by default.
    interposer: Interposer,
    /// The one `Effects` every dispatch fills and `apply` drains; empty
    /// between events, its buffers kept.
    effects: Effects,
    /// `(time, seq)` of every event popped, in order.
    #[cfg(test)]
    popped: Vec<(u64, u64)>,
}

impl Engine {
    /// Create an engine with the given RNG seed.
    pub fn new(seed: u64) -> Engine {
        buf::reset_peak();
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: TimerWheel::new(),
            next: None,
            nodes: Vec::new(),
            links: Vec::new(),
            rng: SimRng::seed_from_u64(seed),
            stats: EngineStats::default(),
            frame_baseline: buf::counters(),
            telemetry: Telemetry::disabled(),
            queue_hwm: 0,
            event_limit: 500_000_000,
            interposer: Interposer::default(),
            effects: Effects::default(),
            #[cfg(test)]
            popped: Vec::new(),
        }
    }

    /// Attach the interposer faults and chaos act through. Its RNG streams
    /// are its own, so attaching one never perturbs the engine's.
    pub fn set_interposer(&mut self, interposer: Interposer) {
        self.interposer = interposer;
    }

    /// The attached interposer; it carries the fault and chaos counters.
    pub fn interposer(&self) -> &Interposer {
        &self.interposer
    }

    /// Attach a telemetry sink. Nodes reach it through
    /// [`NodeCtx::telemetry`]; the engine itself reports its stats and
    /// queue high-water mark into it at the end of each run. The default
    /// sink is disabled, making every recording call a cheap no-op.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry sink (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Packet-plane allocation/copy counters accumulated on this thread
    /// since the engine was constructed.
    pub fn frame_stats(&self) -> FrameStats {
        FrameStats::delta(&self.frame_baseline)
    }

    /// Most events the queue has held at once.
    pub fn queue_depth_hwm(&self) -> u64 {
        self.queue_hwm as u64
    }

    /// Borrow the engine's root RNG (e.g. to fork node-local streams
    /// during setup).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        self.links.push(Vec::new());
        id
    }

    /// Connect `a:pa` and `b:pb` with a full-duplex link.
    pub fn connect(
        &mut self,
        a: NodeId,
        pa: PortId,
        b: NodeId,
        pb: PortId,
        bandwidth: Bandwidth,
        propagation: SimTime,
    ) {
        let fwd = Link {
            to_node: b,
            to_port: pb,
            bandwidth,
            propagation,
        };
        let rev = Link {
            to_node: a,
            to_port: pa,
            bandwidth,
            propagation,
        };
        for (node, port, link) in [(a, pa, fwd), (b, pb, rev)] {
            let ports = &mut self.links[node.0];
            if port.0 >= ports.len() {
                ports.resize(port.0 + 1, None);
            }
            let dup = ports[port.0].replace(LinkState::new(link));
            assert!(dup.is_none(), "port already connected: {node:?}:{port:?}");
        }
    }

    /// Inspect a link's egress state (for diagnostics and tests).
    pub fn link_state(&self, node: NodeId, port: PortId) -> Option<&LinkState> {
        self.links.get(node.0)?.get(port.0)?.as_ref()
    }

    fn push(&mut self, time: SimTime, node: NodeId, kind: EventKind) {
        let entry = self.entry(time, node, kind);
        self.queue.push(entry);
        self.queue_hwm = self.queue_hwm.max(self.queue.len());
    }

    /// The next event's queue entry, under the next `seq`.
    fn entry(&mut self, time: SimTime, node: NodeId, kind: EventKind) -> Entry<EventBody> {
        // A stashed peek (e.g. left by a horizon break) must compete with
        // the new event — return it to the wheel first.
        if let Some(stashed) = self.next.take() {
            self.queue.push(stashed);
        }
        let seq = self.seq;
        self.seq += 1;
        Entry {
            time: time.as_nanos(),
            seq,
            value: EventBody { node, kind },
        }
    }

    /// The next event by `(time, seq)`, pre-popped from the wheel so its
    /// time can be inspected for the horizon check.
    fn peek_next(&mut self) -> Option<&Entry<EventBody>> {
        if self.next.is_none() {
            self.next = self.queue.pop();
        }
        self.next.as_ref()
    }

    /// Schedule an initial timer for `node` at absolute time `at` — used
    /// during setup to kick applications off.
    pub fn schedule_timer(&mut self, node: NodeId, at: SimTime, token: u64) {
        self.push(at, node, EventKind::Timer { token });
    }

    /// Inject a frame arriving at `node:port` at absolute time `at` — used
    /// by tests to drive single nodes without a peer.
    pub fn inject_frame(&mut self, node: NodeId, port: PortId, at: SimTime, frame: Frame) {
        self.push(at, node, EventKind::FrameArrive { port, frame });
    }

    /// Run until the queue drains, `horizon` passes, or the event limit
    /// trips. Afterwards every node's [`Node::on_finish`] hook runs once.
    pub fn run(&mut self, horizon: Option<SimTime>) -> RunOutcome {
        let outcome = loop {
            if self.stats.events >= self.event_limit {
                break RunOutcome::EventLimit { end: self.now };
            }
            let Some(ev) = self.peek_next() else {
                break RunOutcome::Quiescent { end: self.now };
            };
            let ev_time = SimTime::from_nanos(ev.time);
            if let Some(h) = horizon {
                if ev_time > h {
                    self.now = h;
                    break RunOutcome::HorizonReached { end: h };
                }
            }
            let ev = self.next.take().expect("peeked event is stashed");
            #[cfg(test)]
            self.popped.push((ev.time, ev.seq));
            debug_assert!(ev_time >= self.now, "time went backwards");
            self.now = ev_time;
            self.stats.events += 1;
            let is_frame = matches!(ev.value.kind, EventKind::FrameArrive { .. });
            match self
                .interposer
                .gate(&self.telemetry, ev.value.node, is_frame, ev_time)
            {
                Gate::Run => match ev.value.kind {
                    EventKind::Tick { token } => self.tick(ev.value.node, token),
                    _ => self.dispatch(ev.value),
                },
                Gate::Discard => {}
                Gate::Defer(until) => self.push(until, ev.value.node, ev.value.kind),
            }
        };
        // Final flush pass.
        for i in 0..self.nodes.len() {
            let mut node = self.nodes[i].take().expect("node missing in finish");
            let mut effects = Effects::default();
            {
                let mut ctx = NodeCtx {
                    id: NodeId(i),
                    now: self.now,
                    rng: &mut self.rng,
                    effects: &mut effects,
                    telemetry: &self.telemetry,
                };
                node.on_finish(&mut ctx);
            }
            self.nodes[i] = Some(node);
            // Effects at finish are discarded by design: the run is over.
        }
        outcome
    }

    /// Fire a tick and re-file it where its node says, with the next `seq`
    /// — where `apply` would have filed the one timer its handler armed —
    /// in the queue's FIFO lane for its period.
    fn tick(&mut self, node: NodeId, token: u64) {
        self.stats.timers_fired += 1;
        let idx = node.0;
        let n = self.nodes[idx]
            .as_mut()
            .unwrap_or_else(|| panic!("node {idx} missing (re-entrant dispatch?)"));
        if let Some(at) = n.on_tick(token, self.now) {
            debug_assert!(at >= self.now, "tick re-armed in the past");
            let period = at.saturating_since(self.now).as_nanos();
            let entry = self.entry(at, node, EventKind::Tick { token });
            self.queue.push_lane(period, entry);
            self.queue_hwm = self.queue_hwm.max(self.queue.len());
        }
    }

    fn dispatch(&mut self, ev: EventBody) {
        let idx = ev.node.0;
        let mut node = self.nodes[idx]
            .take()
            .unwrap_or_else(|| panic!("node {idx} missing (re-entrant dispatch?)"));
        let mut effects = std::mem::take(&mut self.effects);
        {
            let mut ctx = NodeCtx {
                id: ev.node,
                now: self.now,
                rng: &mut self.rng,
                effects: &mut effects,
                telemetry: &self.telemetry,
            };
            match ev.kind {
                EventKind::FrameArrive { port, frame } => {
                    self.stats.frames_delivered += 1;
                    self.stats.frame_bytes_delivered += frame.len() as u64;
                    self.telemetry.record_hop(
                        frame.trace_id(),
                        trace_hops::LINK_INGRESS,
                        ev.node.0 as u32,
                        self.now.as_nanos(),
                    );
                    node.on_frame(port, frame, &mut ctx);
                }
                EventKind::Timer { token } => {
                    self.stats.timers_fired += 1;
                    node.on_timer(token, &mut ctx);
                }
                EventKind::Tick { .. } => unreachable!("ticks are dispatched by `tick`"),
            }
        }
        self.nodes[idx] = Some(node);
        self.apply(ev.node, &mut effects);
        self.effects = effects;
    }

    fn apply(&mut self, from: NodeId, effects: &mut Effects) {
        let now = self.now;
        for (port, frame, depart_delay) in effects.sends.drain(..) {
            // The interposer may destroy the send or ask for a second copy;
            // the last copy is the frame itself, moved and never cloned.
            let copies = self.interposer.copies(&self.telemetry, from, port, now);
            let dup = (copies > 1).then(|| frame.clone());
            for mut f in dup.into_iter().chain((copies > 0).then_some(frame)) {
                let (ip, tel) = (&mut self.interposer, &self.telemetry);
                let handoff = ip.handoff(tel, from, port, now, now + depart_delay);
                let Some(Some(link)) = self.links[from.0].get_mut(port.0) else {
                    panic!("node {from:?} sent on unconnected port {port:?}");
                };
                let hop = trace_hops::LINK_EGRESS;
                tel.record_hop(f.trace_id(), hop, from.0 as u32, handoff.as_nanos());
                // A duplicate serializes behind the original; a copy the
                // interposer destroys next has still burned its slot.
                let arrive = link.transmit(handoff, line_occupancy_of(f.len()));
                let (to_node, to_port) = (link.link.to_node, link.link.to_port);
                if let Some(at) = ip.fate(tel, from, port, handoff, arrive, &mut f) {
                    let kind = EventKind::FrameArrive {
                        port: to_port,
                        frame: f,
                    };
                    self.push(at, to_node, kind);
                }
            }
        }
        for (at, token, tick) in effects.timers.drain(..) {
            let kind = if tick {
                EventKind::Tick { token }
            } else {
                EventKind::Timer { token }
            };
            self.push(at, from, kind);
        }
    }

    /// Take a node back out of the engine (after a run) for inspection;
    /// `None` if `id` was never added or is already out.
    pub fn take_node(&mut self, id: NodeId) -> Option<Box<dyn Node>> {
        self.nodes.get_mut(id.0)?.take()
    }

    /// [`Self::take_node`] for a caller that knows the node is there.
    /// Panics if it is not.
    pub fn remove_node(&mut self, id: NodeId) -> Box<dyn Node> {
        self.take_node(id).expect("node already removed")
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[derive(Default)]
struct Effects {
    sends: Vec<(PortId, Frame, SimTime)>,
    /// Timers and ticks (`true`) in one buffer, so ties keep the order
    /// they were armed in.
    timers: Vec<(SimTime, u64, bool)>,
}

/// The context handed to a node during dispatch. All interaction with the
/// world — sending frames, arming timers, drawing randomness — goes through
/// this.
pub struct NodeCtx<'a> {
    id: NodeId,
    now: SimTime,
    rng: &'a mut SimRng,
    effects: &'a mut Effects,
    telemetry: &'a Telemetry,
}

impl NodeCtx<'_> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The engine's telemetry sink (disabled unless the embedder
    /// attached one via [`Engine::set_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        self.telemetry
    }

    /// This node's id as the plain integer telemetry uses.
    pub fn telemetry_node(&self) -> u32 {
        self.id.0 as u32
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Hand a frame to the egress side of `port` now. The frame is moved,
    /// not copied — senders keeping a reference clone the handle (an
    /// `Arc` bump), never the bytes.
    pub fn send(&mut self, port: PortId, frame: Frame) {
        self.effects.sends.push((port, frame, SimTime::ZERO));
    }

    /// Hand a frame to the egress side of `port` after an internal
    /// processing delay (e.g. the switch pipeline's ~0.4 µs).
    pub fn send_after(&mut self, port: PortId, frame: Frame, delay: SimTime) {
        self.effects.sends.push((port, frame, delay));
    }

    /// Arm a timer `delay` from now; `token` comes back in
    /// [`Node::on_timer`].
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.effects.timers.push((self.now + delay, token, false));
    }

    /// Arm a timer at an absolute time.
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        debug_assert!(at >= self.now);
        self.effects.timers.push((at, token, false));
    }

    /// Arm a tick at an absolute time: a timer whose `token` comes back in
    /// [`Node::on_tick`], which re-arms it by returning the next firing
    /// time. It counts, ties and freezes as a timer does.
    pub fn set_tick_at(&mut self, at: SimTime, token: u64) {
        debug_assert!(at >= self.now);
        self.effects.timers.push((at, token, true));
    }

    /// The engine's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Window;
    use lumina_packet::builder::DataPacketBuilder;
    use lumina_packet::opcode::Opcode;

    /// Echoes every arriving frame back out the same port after a delay.
    struct Echo {
        delay: SimTime,
        received: Vec<(SimTime, usize)>,
    }

    impl Node for Echo {
        fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut NodeCtx<'_>) {
            self.received.push((ctx.now(), frame.len()));
            ctx.send_after(port, frame, self.delay);
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut NodeCtx<'_>) {}
        fn name(&self) -> &str {
            "echo"
        }
    }

    /// Sends `count` frames at t=0 and records arrival times of echoes.
    struct Blaster {
        count: usize,
        frame: Frame,
        echoes: Vec<SimTime>,
    }

    impl Node for Blaster {
        fn on_frame(&mut self, _port: PortId, _frame: Frame, ctx: &mut NodeCtx<'_>) {
            self.echoes.push(ctx.now());
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut NodeCtx<'_>) {
            for _ in 0..self.count {
                ctx.send(PortId(0), self.frame.clone());
            }
        }
        fn name(&self) -> &str {
            "blaster"
        }
    }

    fn test_frame() -> Frame {
        DataPacketBuilder::new()
            .opcode(Opcode::SendOnly)
            .payload_len(1000)
            .build()
            .emit()
    }

    #[test]
    fn ping_pong_timing() {
        let mut eng = Engine::new(1);
        let frame = test_frame();
        let flen = frame.len();
        let blaster = eng.add_node(Box::new(Blaster {
            count: 1,
            frame,
            echoes: vec![],
        }));
        let echo = eng.add_node(Box::new(Echo {
            delay: SimTime::from_nanos(100),
            received: vec![],
        }));
        eng.connect(
            blaster,
            PortId(0),
            echo,
            PortId(0),
            Bandwidth::gbps(100),
            SimTime::from_nanos(500),
        );
        eng.schedule_timer(blaster, SimTime::ZERO, 0);
        let outcome = eng.run(None);
        assert!(outcome.is_quiescent());

        let ser = Bandwidth::gbps(100)
            .serialization_time(lumina_packet::frame::line_occupancy_of(flen));
        let one_way = ser + SimTime::from_nanos(500);
        let expect = one_way + SimTime::from_nanos(100) + one_way;

        assert_eq!(eng.stats().frames_delivered, 2);
        assert_eq!(outcome.end_time(), expect);
    }

    #[test]
    fn serialization_paces_burst() {
        let mut eng = Engine::new(1);
        let frame = test_frame();
        let blaster = eng.add_node(Box::new(Blaster {
            count: 10,
            frame: frame.clone(),
            echoes: vec![],
        }));
        let echo = eng.add_node(Box::new(Echo {
            delay: SimTime::ZERO,
            received: vec![],
        }));
        eng.connect(
            blaster,
            PortId(0),
            echo,
            PortId(0),
            Bandwidth::gbps(10),
            SimTime::from_nanos(1000),
        );
        eng.schedule_timer(blaster, SimTime::ZERO, 0);
        eng.run(None);
        // Echo must have received 10 frames spaced by one serialization
        // time each.
        let ser = Bandwidth::gbps(10)
            .serialization_time(lumina_packet::frame::line_occupancy_of(frame.len()));
        assert_eq!(eng.stats().frames_delivered, 20);
        let _ = ser;
    }

    #[test]
    fn horizon_stops_run() {
        let mut eng = Engine::new(1);
        struct Ticker;
        impl Node for Ticker {
            fn on_frame(&mut self, _: PortId, _: Frame, _: &mut NodeCtx<'_>) {}
            fn on_timer(&mut self, t: u64, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(SimTime::from_micros(1), t + 1);
            }
        }
        let n = eng.add_node(Box::new(Ticker));
        eng.schedule_timer(n, SimTime::ZERO, 0);
        let outcome = eng.run(Some(SimTime::from_millis(1)));
        assert!(matches!(outcome, RunOutcome::HorizonReached { .. }));
        assert_eq!(outcome.end_time(), SimTime::from_millis(1));
        // ~1000 timer fires in 1ms at 1us cadence.
        assert!((995..=1001).contains(&eng.stats().timers_fired));
    }

    #[test]
    fn event_limit_trips() {
        let mut eng = Engine::new(1);
        struct Spinner;
        impl Node for Spinner {
            fn on_frame(&mut self, _: PortId, _: Frame, _: &mut NodeCtx<'_>) {}
            fn on_timer(&mut self, t: u64, ctx: &mut NodeCtx<'_>) {
                // Zero-delay self-timer: a livelock.
                ctx.set_timer(SimTime::ZERO, t);
            }
        }
        let n = eng.add_node(Box::new(Spinner));
        eng.schedule_timer(n, SimTime::ZERO, 0);
        eng.event_limit = 10_000;
        let outcome = eng.run(None);
        assert!(matches!(outcome, RunOutcome::EventLimit { .. }));
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once() -> (EngineStats, SimTime) {
            let mut eng = Engine::new(42);
            let frame = test_frame();
            let blaster = eng.add_node(Box::new(Blaster {
                count: 50,
                frame,
                echoes: vec![],
            }));
            let echo = eng.add_node(Box::new(Echo {
                delay: SimTime::from_nanos(37),
                received: vec![],
            }));
            eng.connect(
                blaster,
                PortId(0),
                echo,
                PortId(0),
                Bandwidth::gbps(40),
                SimTime::from_nanos(750),
            );
            eng.schedule_timer(blaster, SimTime::ZERO, 0);
            let o = eng.run(None);
            (*eng.stats(), o.end_time())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn same_timestamp_events_dispatch_in_schedule_order() {
        // FIFO among ties is what keeps pop order — and every golden
        // report — byte-identical across queue implementations.
        struct Recorder {
            tokens: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
        }
        impl Node for Recorder {
            fn on_frame(&mut self, _: PortId, _: Frame, _: &mut NodeCtx<'_>) {}
            fn on_timer(&mut self, t: u64, _: &mut NodeCtx<'_>) {
                self.tokens.borrow_mut().push(t);
            }
        }
        let mut eng = Engine::new(7);
        let tokens = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let n = eng.add_node(Box::new(Recorder {
            tokens: tokens.clone(),
        }));
        let t = SimTime::from_micros(3);
        for token in 0..64u64 {
            eng.schedule_timer(n, t, token);
        }
        // A later-scheduled earlier event must still come first.
        eng.schedule_timer(n, SimTime::from_nanos(1), 999);
        eng.run(None);
        let got = tokens.borrow().clone();
        let mut want = vec![999u64];
        want.extend(0..64);
        assert_eq!(got, want);
    }

    #[test]
    fn frame_stats_track_shares_and_copies() {
        // Serialize before the engine takes its counter baseline, so the
        // delta shows pure frame-plane traffic.
        let frame = test_frame();
        let mut eng = Engine::new(9);
        let blaster = eng.add_node(Box::new(Blaster {
            count: 20,
            frame,
            echoes: vec![],
        }));
        let echo = eng.add_node(Box::new(Echo {
            delay: SimTime::ZERO,
            received: vec![],
        }));
        eng.connect(
            blaster,
            PortId(0),
            echo,
            PortId(0),
            Bandwidth::gbps(100),
            SimTime::from_nanos(100),
        );
        eng.schedule_timer(blaster, SimTime::ZERO, 0);
        eng.run(None);
        let fs = eng.frame_stats();
        // The blaster clones one frame 20 times; the echo bounces the
        // handles back without any new allocation or copy.
        assert!(fs.frames_shared >= 20, "{fs:?}");
        assert!(fs.bytes_shared >= 20 * 1000, "{fs:?}");
        assert_eq!(fs.bytes_copied, 0, "no mutation, no copies: {fs:?}");
        // The one buffer predates the baseline and no new buffer is ever
        // allocated — the peak *delta* is therefore zero.
        assert_eq!(fs.frames_allocated, 0, "{fs:?}");
        assert_eq!(fs.peak_live_frames, 0, "{fs:?}");
    }

    #[test]
    fn marked_link_drops_and_duplicates_deterministically() {
        use crate::faults::MirrorFaults;
        let run = || {
            let mut eng = Engine::new(5);
            let blaster = eng.add_node(Box::new(Blaster {
                count: 200,
                frame: test_frame(),
                echoes: vec![],
            }));
            let sink = eng.add_node(Box::new(Echo {
                delay: SimTime::ZERO,
                received: vec![],
            }));
            eng.connect(
                blaster,
                PortId(0),
                sink,
                PortId(0),
                Bandwidth::gbps(100),
                SimTime::from_nanos(100),
            );
            let mut ip = Interposer::default();
            let mirror = MirrorFaults {
                loss_prob: 0.25,
                dup_prob: 0.1,
            };
            ip.arm_faults(9, mirror);
            ip.mark_mirror_link(blaster, PortId(0));
            // Return path is unmarked: echoes flow back untouched.
            eng.set_interposer(ip);
            eng.schedule_timer(blaster, SimTime::ZERO, 0);
            eng.run(None);
            let stats = eng.interposer().fault_stats().expect("faults armed");
            (*eng.stats(), stats)
        };
        let (eng_stats, faults) = run();
        assert!(faults.mirror_copies_dropped > 0, "{faults:?}");
        assert!(faults.mirror_copies_duplicated > 0, "{faults:?}");
        // Dropped copies never arrive; duplicates arrive twice; every
        // survivor is echoed back across the unmarked reverse link.
        let delivered_forward =
            200 - faults.mirror_copies_dropped + faults.mirror_copies_duplicated;
        assert_eq!(eng_stats.frames_delivered, delivered_forward * 2);
        assert_eq!(run(), (eng_stats, faults), "fault schedule must replay");
    }

    #[test]
    fn frozen_node_loses_frames_and_defers_timers() {
        use crate::faults::MirrorFaults;
        // A ticker timer armed inside the freeze window must fire at the
        // thaw instant, not during the outage.
        struct Once {
            fired_at: std::rc::Rc<std::cell::RefCell<Vec<SimTime>>>,
        }
        impl Node for Once {
            fn on_frame(&mut self, _: PortId, _: Frame, _: &mut NodeCtx<'_>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut NodeCtx<'_>) {
                self.fired_at.borrow_mut().push(ctx.now());
            }
        }
        let mut eng = Engine::new(1);
        let fired = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let n = eng.add_node(Box::new(Once {
            fired_at: fired.clone(),
        }));
        let mut ip = Interposer::default();
        ip.arm_faults(1, MirrorFaults::default());
        let outage = Window {
            from: SimTime::from_micros(10),
            until: SimTime::from_micros(50),
        };
        ip.add_freeze(n, outage);
        eng.set_interposer(ip);
        eng.schedule_timer(n, SimTime::from_micros(5), 0); // before: fires
        eng.schedule_timer(n, SimTime::from_micros(20), 1); // inside: deferred
        eng.inject_frame(n, PortId(0), SimTime::from_micros(30), test_frame()); // lost
        eng.run(None);
        assert_eq!(
            *fired.borrow(),
            vec![SimTime::from_micros(5), SimTime::from_micros(50)]
        );
        let stats = eng.interposer().fault_stats().unwrap();
        assert_eq!(stats.timers_deferred, 1);
        assert_eq!(stats.frames_dropped_frozen, 1);
        assert_eq!(eng.stats().frames_delivered, 0);
    }

    /// Chains of periodic tokens that re-arm through ticks (`ticks`) or
    /// through plain timers. A start timer `START + k` arms chain `k` and,
    /// at the same instant and after it, a companion timer `COMPANION + k`
    /// — as a CNP arms a QP's alpha tick, then its rate timer. Chain `k`
    /// fires `20 + 7k` times, the companion 25 ns later than the chain's
    /// period while the chain lives — so a timer filed after a tick can be
    /// due with it; both record what they saw.
    struct Rearm {
        ticks: bool,
        periods: Periods,
        left: Vec<u32>,
        seen: Vec<(SimTime, u64)>,
    }

    /// How many distinct periods the chains re-arm with, and whether each
    /// chain moves to a new one when fewer than ten fires are left.
    #[derive(Debug, Clone, Copy)]
    struct Periods {
        distinct: u64,
        shift: bool,
    }

    const START: u64 = 1_000;
    const COMPANION: u64 = 2_000;

    impl Rearm {
        /// Chain `k`'s period now. Periods are 25 ns apart, so chains tie
        /// with each other and with companions.
        fn period(&self, k: u64) -> SimTime {
            let Periods { distinct, shift } = self.periods;
            let late = shift && self.left[k as usize] < 10;
            SimTime::from_nanos(50 + 25 * (k % distinct + if late { distinct } else { 0 }))
        }

        /// Chain `k` fired at `now`: when it fires next, if it does.
        fn chain(&mut self, k: u64, now: SimTime) -> Option<SimTime> {
            self.seen.push((now, k));
            self.left[k as usize] -= 1;
            (self.left[k as usize] > 0).then(|| now + self.period(k))
        }
    }

    impl Node for Rearm {
        fn on_frame(&mut self, _: PortId, _: Frame, _: &mut NodeCtx<'_>) {}
        fn on_timer(&mut self, t: u64, ctx: &mut NodeCtx<'_>) {
            let now = ctx.now();
            match t {
                START.. if t < COMPANION => {
                    let k = t - START;
                    self.seen.push((now, t));
                    let at = now + self.period(k);
                    if self.ticks {
                        ctx.set_tick_at(at, k);
                    } else {
                        ctx.set_timer_at(at, k);
                    }
                    ctx.set_timer_at(at, COMPANION + k);
                }
                COMPANION.. => {
                    let k = t - COMPANION;
                    self.seen.push((now, t));
                    if self.left[k as usize] > 0 {
                        ctx.set_timer(self.period(k) + SimTime::from_nanos(25), t);
                    }
                }
                k => {
                    assert!(!self.ticks, "a tick came back through on_timer");
                    if let Some(at) = self.chain(k, now) {
                        ctx.set_timer_at(at, k);
                    }
                }
            }
        }
        fn on_tick(&mut self, k: u64, now: SimTime) -> Option<SimTime> {
            assert!(self.ticks, "a timer came back through on_tick");
            self.chain(k, now)
        }
    }

    /// Everything a run shows of its event order and its counts.
    type Observed = (
        Vec<(u64, u64)>,
        Vec<(SimTime, u64)>,
        EngineStats,
        u64,
        RunOutcome,
        u64,
    );

    fn rearm_run(
        ticks: bool,
        periods: Periods,
        freeze: Option<(u64, u64)>,
        horizon: Option<u64>,
        limit: Option<u64>,
    ) -> Observed {
        use crate::faults::MirrorFaults;
        const CHAINS: u64 = 6;
        let mut eng = Engine::new(3);
        let node = eng.add_node(Box::new(Rearm {
            ticks,
            periods,
            left: (0..CHAINS as u32).map(|k| 20 + 7 * k).collect(),
            seen: Vec::new(),
        }));
        if let Some((from, until)) = freeze {
            let mut ip = Interposer::default();
            ip.arm_faults(1, MirrorFaults::default());
            let outage = Window {
                from: SimTime::from_nanos(from),
                until: SimTime::from_nanos(until),
            };
            ip.add_freeze(node, outage);
            eng.set_interposer(ip);
        }
        for k in 0..CHAINS {
            // Two chains start together, the rest staggered.
            eng.schedule_timer(node, SimTime::from_nanos(10 * (k / 2)), START + k);
        }
        if let Some(limit) = limit {
            eng.event_limit = limit;
        }
        let outcome = eng.run(horizon.map(SimTime::from_nanos));
        let deferred = eng.interposer().fault_stats().map_or(0, |s| s.timers_deferred);
        let (stats, hwm, popped) = (*eng.stats(), eng.queue_depth_hwm(), eng.popped.clone());
        let any: Box<dyn std::any::Any> = eng.remove_node(node);
        let seen = any.downcast::<Rearm>().expect("a Rearm node").seen;
        (popped, seen, stats, hwm, outcome, deferred)
    }

    /// A node that re-arms through ticks — re-filed in the queue's FIFO
    /// lanes — sees exactly what the same node sees re-arming through
    /// timers in the wheel: the same `(time, seq)` pops, the same counts and
    /// queue depth, the same outcome. With two, three or six periods (more
    /// than the queue has lanes), periods that change mid-run, a freeze
    /// window deferring ticks, a horizon cut and an event-limit cut.
    #[test]
    fn ticks_replay_the_timer_path() {
        let periods = |distinct, shift| Periods { distinct, shift };
        let cases = [
            (periods(3, false), None, None, None),
            (periods(3, false), Some((400, 1_300)), None, None),
            (periods(3, false), None, Some(900), None),
            (periods(3, false), None, None, Some(150)),
            (periods(3, false), Some((200, 700)), Some(2_500), Some(100)),
            (periods(2, false), None, None, None),
            (periods(6, false), None, None, None),
            (periods(1, true), None, None, None),
            (periods(3, true), None, None, None),
            (periods(2, true), Some((600, 1_900)), None, None),
        ];
        for (periods, freeze, horizon, limit) in cases {
            let case =
                format!("{periods:?}, freeze {freeze:?}, horizon {horizon:?}, limit {limit:?}");
            let via_ticks = rearm_run(true, periods, freeze, horizon, limit);
            let via_timers = rearm_run(false, periods, freeze, horizon, limit);
            assert_eq!(via_ticks, via_timers, "{case}");
            let (popped, seen, stats, _, outcome, deferred) = via_ticks;
            assert_eq!(popped.len() as u64, stats.events, "{case}");
            assert!(stats.events >= 100, "{case}: {stats:?}");
            assert_eq!(stats.timers_fired, seen.len() as u64, "{case}");
            assert_eq!(freeze.is_some(), deferred > 0, "{case}: {deferred} deferred");
            if let Some((_, thaw)) = freeze {
                let thawed = |&(at, k): &(SimTime, u64)| at.as_nanos() == thaw && k < START;
                assert!(seen.iter().any(thawed), "{case}: no tick fired at the thaw");
            }
            match (horizon, limit) {
                (_, Some(_)) => assert!(matches!(outcome, RunOutcome::EventLimit { .. }), "{case}"),
                (Some(_), None) => assert!(matches!(outcome, RunOutcome::HorizonReached { .. }), "{case}"),
                (None, None) => assert!(outcome.is_quiescent(), "{case}"),
            }
        }
    }

    #[test]
    fn chaos_flap_drops_in_flight_frames_and_replays() {
        use crate::faults::LinkChaos;
        let run = || {
            let mut eng = Engine::new(5);
            let blaster = eng.add_node(Box::new(Blaster {
                count: 50,
                frame: test_frame(),
                echoes: vec![],
            }));
            let sink = eng.add_node(Box::new(Echo {
                delay: SimTime::ZERO,
                received: vec![],
            }));
            eng.connect(
                blaster,
                PortId(0),
                sink,
                PortId(0),
                Bandwidth::gbps(10),
                SimTime::from_nanos(500),
            );
            let mut ip = Interposer::default();
            ip.arm_chaos(9);
            let flaps = LinkChaos {
                flaps: vec![Window {
                    from: SimTime::from_micros(1),
                    until: SimTime::from_micros(3),
                }],
                ..LinkChaos::default()
            };
            ip.set_chaos(blaster, PortId(0), flaps);
            eng.set_interposer(ip);
            eng.schedule_timer(blaster, SimTime::ZERO, 0);
            eng.run(None);
            let stats = eng.interposer().chaos_stats().expect("chaos armed");
            (*eng.stats(), stats)
        };
        let (eng_stats, chaos) = run();
        assert!(chaos.flap_drops > 0, "{chaos:?}");
        // Dropped frames never arrive, and survivors echo back over the
        // uncovered reverse link.
        let survivors = 50 - chaos.flap_drops;
        assert_eq!(eng_stats.frames_delivered, survivors * 2);
        assert_eq!(run(), (eng_stats, chaos), "chaos schedule must replay");
    }

    #[test]
    fn chaos_pause_delays_without_loss() {
        use crate::faults::LinkChaos;
        let mut eng = Engine::new(5);
        let blaster = eng.add_node(Box::new(Blaster {
            count: 5,
            frame: test_frame(),
            echoes: vec![],
        }));
        let sink = eng.add_node(Box::new(Echo {
            delay: SimTime::ZERO,
            received: vec![],
        }));
        eng.connect(
            blaster,
            PortId(0),
            sink,
            PortId(0),
            Bandwidth::gbps(100),
            SimTime::from_nanos(100),
        );
        let mut ip = Interposer::default();
        ip.arm_chaos(1);
        let pauses = LinkChaos {
            pauses: vec![Window {
                from: SimTime::ZERO,
                until: SimTime::from_micros(50),
            }],
            ..LinkChaos::default()
        };
        ip.set_chaos(blaster, PortId(0), pauses);
        eng.set_interposer(ip);
        eng.schedule_timer(blaster, SimTime::ZERO, 0);
        let outcome = eng.run(None);
        assert!(outcome.is_quiescent());
        let chaos = eng.interposer().chaos_stats().unwrap();
        assert_eq!(chaos.paused_frames, 5);
        assert_eq!(chaos.data_drops(), 0, "pause must not drop: {chaos:?}");
        // All five frames arrive (and echo back), but only after the pause.
        assert_eq!(eng.stats().frames_delivered, 10);
        assert!(outcome.end_time() >= SimTime::from_micros(50));
    }

    #[test]
    fn chaos_free_plane_leaves_runs_byte_identical() {
        use crate::faults::MirrorFaults;
        let run = |attach: Option<Interposer>| {
            let mut eng = Engine::new(42);
            let blaster = eng.add_node(Box::new(Blaster {
                count: 50,
                frame: test_frame(),
                echoes: vec![],
            }));
            let echo = eng.add_node(Box::new(Echo {
                delay: SimTime::from_nanos(37),
                received: vec![],
            }));
            eng.connect(
                blaster,
                PortId(0),
                echo,
                PortId(0),
                Bandwidth::gbps(40),
                SimTime::from_nanos(750),
            );
            if let Some(interposer) = attach {
                eng.set_interposer(interposer);
            }
            eng.schedule_timer(blaster, SimTime::ZERO, 0);
            let o = eng.run(None);
            (*eng.stats(), o.end_time())
        };
        // Faults and chaos armed with nothing marked, covered or frozen:
        // every event and every transmit bypasses them without a draw.
        let mirror = MirrorFaults {
            loss_prob: 0.5,
            dup_prob: 0.5,
        };
        let pristine = run(None);
        for (f, c) in [(false, true), (true, false), (true, true)] {
            let mut armed = Interposer::default();
            if f {
                armed.arm_faults(7, mirror);
            }
            if c {
                armed.arm_chaos(7);
            }
            assert_eq!(pristine, run(Some(armed)), "faults={f} chaos={c}");
        }
    }

    #[test]
    #[should_panic(expected = "unconnected port")]
    fn send_on_unconnected_port_panics() {
        let mut eng = Engine::new(1);
        let blaster = eng.add_node(Box::new(Blaster {
            count: 1,
            frame: test_frame(),
            echoes: vec![],
        }));
        eng.schedule_timer(blaster, SimTime::ZERO, 0);
        eng.run(None);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut eng = Engine::new(1);
        let a = eng.add_node(Box::new(Echo {
            delay: SimTime::ZERO,
            received: vec![],
        }));
        let b = eng.add_node(Box::new(Echo {
            delay: SimTime::ZERO,
            received: vec![],
        }));
        let bw = Bandwidth::gbps(1);
        eng.connect(a, PortId(0), b, PortId(0), bw, SimTime::ZERO);
        eng.connect(a, PortId(0), b, PortId(1), bw, SimTime::ZERO);
    }
}
