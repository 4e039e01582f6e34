//! Deterministic discrete-event network simulation engine.
//!
//! This crate is the substrate that replaces Lumina's physical testbed: two
//! traffic-generation hosts, a Tofino switch, and a pool of traffic dumpers
//! become [`Node`] implementations wired together by [`Link`]s with
//! bandwidth, propagation delay and serialization queuing.
//!
//! Design choices (following the smoltcp school of network code):
//!
//! * **Deterministic.** A single event queue ordered by `(time, seq)`;
//!   ties broken by insertion order; all randomness comes from one seeded
//!   PRNG. Running the same configuration twice produces byte-identical
//!   traces — exactly the reproducibility Lumina demands of its tests.
//! * **Synchronous.** No async runtime: simulation is CPU-bound
//!   deterministic work, the case the Tokio guide itself excludes.
//! * **Bytes on the wire, shared not copied.** Nodes exchange serialized
//!   frames ([`lumina_packet::Frame`]): every component sees real packet
//!   bytes the way the hardware pipeline does, but the buffer is
//!   immutable and reference-counted — hops, mirrors and capture rings
//!   pass the same allocation, and in-flight mutation (ECN marking,
//!   corruption) is explicit copy-on-write via `Frame::make_mut`.
//! * **Calendar-queue scheduling.** The event queue is a hierarchical
//!   timer wheel ([`wheel::TimerWheel`]) keyed on [`SimTime`] with a
//!   monotonic sequence tie-break, so pop order is identical to the
//!   comparison-heap it replaced — byte for byte, golden for golden.

pub mod engine;
pub mod faults;
pub mod link;
pub mod pcap;
pub mod rng;
pub mod testutil;
pub mod time;
pub mod wheel;

pub use engine::{Engine, EngineStats, FrameStats, NodeCtx, NodeId, PortId, RunOutcome};
pub use faults::{BurstRegime, ChaosStats, FaultStats, Gate, Interposer, LinkChaos, MirrorFaults};
pub use link::Link;
pub use rng::SimRng;
pub use time::{Bandwidth, SimTime, Window};

// Re-export the frame handle nodes exchange, so node implementations can
// name it without depending on lumina-packet directly.
pub use lumina_packet::Frame;

// Re-export the telemetry layer so embedders (orchestrator, node models)
// reach the sink types through the same crate that hands them a `NodeCtx`.
pub use lumina_telemetry as telemetry;
pub use lumina_telemetry::Telemetry;

/// A simulated device attached to the network.
///
/// Implementations receive frames and timer callbacks and react by emitting
/// frames and arming timers through the [`NodeCtx`] passed in.
/// `Node: Any` enables recovering the concrete type after a run via dyn
/// upcasting: `let any: Box<dyn Any> = engine.remove_node(id);` then
/// `any.downcast::<HostNode>()` — how the orchestrator reads counters and
/// captures back out of the finished simulation.
pub trait Node: std::any::Any {

    /// A frame has fully arrived on `port` (last bit received). The node
    /// receives the shared handle by value; keeping it (e.g. in a capture
    /// ring) is a clone of the handle, never of the bytes.
    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut NodeCtx<'_>);

    /// A timer armed via [`NodeCtx::set_timer`] has fired.
    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>);

    /// A tick armed via [`NodeCtx::set_tick_at`] has fired at `now`.
    /// Returns when the same token fires next, or `None` to stop. A tick
    /// can do nothing else — no frames, no other timers, no RNG — which is
    /// what lets the engine skip the [`NodeCtx`] round trip. A node that
    /// arms ticks overrides this; the default stops every tick.
    fn on_tick(&mut self, _token: u64, _now: SimTime) -> Option<SimTime> {
        None
    }

    /// Called once when the engine finishes, at the final simulation time.
    /// Nodes can flush buffered state (e.g. the dumper writing its trace).
    fn on_finish(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "node"
    }
}
