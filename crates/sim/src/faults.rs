//! Deterministic infrastructure fault injection, and the one seam through
//! which it reaches the event loop.
//!
//! Lumina's §3.5 integrity check exists because the *testbed itself* can
//! fail — mirror copies are dropped when dumpers overload, capture hosts
//! stall, links flap, bits rot on the way to disk. This module injects
//! those failures on purpose, so the degraded-trace pipeline can be
//! exercised instead of merely survived. Two planes decide and one
//! [`Interposer`] carries their decisions out; the [`Engine`] owns links,
//! time and the wheel and knows neither plane by name.
//!
//! # The seam: four instants
//!
//! Their order fixes the planes' RNG draws, the journal and the links'
//! busy time, so it is part of the replay contract:
//!
//! 1. [`gate`](Interposer::gate) — per event, before dispatch (freezes);
//! 2. [`copies`](Interposer::copies) — once per send (mirror loss → dup);
//! 3. [`handoff`](Interposer::handoff) — per copy, *before* the link
//!    serializes it (pauses);
//! 4. [`fate`](Interposer::fate) — per copy, *after* it (flaps, bursts): a
//!    destroyed frame has still burned its serialization slot, and a
//!    duplicate serializes behind the original like a link-layer replay.
//!
//! The planes own their seeded draws, their counters ([`FaultStats`],
//! [`ChaosStats`], read through [`Engine::interposer`]), their `"fault"` /
//! `"chaos"` journal lines and the copy-on-write byte flip; the engine owns
//! the links and reports on them (the `link.ingress` / `link.egress` hops).
//! The planes' own `fate` / `frozen_until` / `pause_until` are the pure
//! decisions and the interposer is their effect side; the default one holds
//! no plane and every call returns at once.
//!
//! # The fault plane
//!
//! * **Marked links** (the switch→dumper mirror paths) may drop or
//!   duplicate a frame per transmit, per [`MirrorFaults`] probabilities.
//! * **Frozen nodes** (mid-run freeze/restart windows) lose arriving
//!   frames and have their timers deferred to the thaw instant.
//!
//! All randomness comes from the plane's own [`SimRng`], seeded
//! independently of the engine's — a run with a fault plane attached
//! consumes *zero* draws from the engine stream on unmarked links, so the
//! simulated workload itself is byte-identical with and without faults;
//! only the infrastructure behavior changes. Same seed, same fault
//! schedule, bit for bit.
//!
//! Dumper-local faults (core stalls, capture bit-rot) live with the dumper
//! model in `lumina-dumper`; this module only owns what the engine must
//! arbitrate.
//!
//! # The data-path chaos plane
//!
//! The [`FaultPlane`] deliberately leaves the host↔switch data links
//! pristine: the paper's testbed trusts its DUT links. Real fabrics do
//! not — links flap, loss arrives in sustained bursts, and PFC pause
//! storms stall serialization for milliseconds. The [`ChaosPlane`] injects
//! those *data-path* regimes, per directed link:
//!
//! * **Flap windows** take a link down for `[from, until)`: every frame
//!   whose handoff *or* arrival falls inside the window is dropped —
//!   including frames already in flight when the link went down.
//! * **Pause windows** (PFC-style) stall a link's serialization: frames
//!   handed to the link during the window depart at the window's end, in
//!   order, without a single drop.
//! * **Burst regimes** apply sustained seeded loss / corruption / reorder
//!   probabilities inside their window, drawn from the plane's own RNG.
//!
//! Like the fault plane, the chaos plane owns an RNG seeded independently
//! of the engine's ([`ChaosPlane::new`] folds in its own salt), and
//! [`ChaosPlane::covers_link`] is checked before any draw — a run without
//! a chaos plane, or with one that covers no link a frame crosses, makes
//! *zero* chaos draws and replays byte-identically. Flap and pause
//! decisions are pure window lookups and never touch the RNG at all.
//!
//! [`Engine`]: crate::Engine
//! [`Engine::interposer`]: crate::Engine::interposer

// A panic here forfeits a verdict or a whole campaign.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::engine::{NodeId, PortId};
use crate::rng::SimRng;
use crate::time::SimTime;
use lumina_packet::Frame;
use lumina_telemetry::{tev, MetricSet, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Salt folded into the fault seed so a plane seeded with the campaign
/// seed still draws a stream unrelated to the engine's.
const FAULT_SEED_SALT: u64 = 0xfa17_ab1e_0bad_cafe;

/// Salt for the chaos plane's RNG: distinct from both the engine stream
/// and the fault plane's, so mirror faults and data-path chaos can share
/// one campaign seed without entangling their schedules.
const CHAOS_SEED_SALT: u64 = 0xc7a0_5bad_5eed_f00d;

/// Loss/duplication probabilities applied per transmit on marked links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MirrorFaults {
    /// Probability a mirror copy is silently dropped in flight.
    pub loss_prob: f64,
    /// Probability a mirror copy is delivered twice (serialized back to
    /// back on the link, like a flapping port replaying its FIFO).
    pub dup_prob: f64,
}

/// A mid-run node outage: events in `[from, until)` are intercepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FreezeWindow {
    /// The frozen node.
    pub node: NodeId,
    /// First frozen instant (inclusive).
    pub from: SimTime,
    /// Thaw instant (exclusive) — deferred timers fire here.
    pub until: SimTime,
}

/// What the plane decided for one transmit on a marked link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitFate {
    /// Deliver normally.
    Deliver,
    /// Drop the frame silently.
    Drop,
    /// Deliver the frame twice.
    Duplicate,
}

/// Counters the plane accumulates during a run. Recorded into telemetry
/// (kind `faults`) only when a plane is attached, so fault-free runs keep
/// their snapshots — and golden reports — unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Mirror copies dropped on marked links.
    pub mirror_copies_dropped: u64,
    /// Mirror copies delivered twice on marked links.
    pub mirror_copies_duplicated: u64,
    /// Frames lost because their destination node was frozen.
    pub frames_dropped_frozen: u64,
    /// Timers deferred to a freeze window's thaw instant.
    pub timers_deferred: u64,
}

impl MetricSet for FaultStats {
    fn metric_kind(&self) -> &'static str {
        "faults"
    }

    fn snapshot(&self) -> serde_json::Value {
        // Infallible for a struct of plain integers; Null beats a panic
        // inside a degraded run's teardown if that ever changes.
        serde_json::to_value(self).unwrap_or(serde_json::Value::Null)
    }
}

/// The seeded fault injector. Build one, mark the mirror links and freeze
/// windows, then attach it inside an [`Interposer`].
#[derive(Debug, Clone)]
pub struct FaultPlane {
    rng: SimRng,
    mirror: MirrorFaults,
    /// Egress `(node, port)` keys subject to [`MirrorFaults`].
    marked_links: HashSet<(NodeId, PortId)>,
    freezes: Vec<FreezeWindow>,
    /// Run counters (engine-owned faults only; dumper-local fault counts
    /// live in the dumper's capture state).
    pub stats: FaultStats,
}

impl FaultPlane {
    /// Create a plane with its own RNG stream derived from `seed`.
    pub fn new(seed: u64, mirror: MirrorFaults) -> FaultPlane {
        FaultPlane {
            rng: SimRng::seed_from_u64(seed ^ FAULT_SEED_SALT),
            mirror,
            marked_links: HashSet::new(),
            freezes: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Fork a child RNG for a node-local fault injector (e.g. one per
    /// dumper) without perturbing the plane's own stream ordering across
    /// node counts: the child is derived from the plane seed, not drawn
    /// from the plane stream.
    pub fn node_rng(seed: u64, salt: u64) -> SimRng {
        SimRng::seed_from_u64(seed ^ FAULT_SEED_SALT).fork(salt)
    }

    /// Subject `from:port` egress to the mirror loss/dup probabilities.
    pub fn mark_mirror_link(&mut self, from: NodeId, port: PortId) {
        self.marked_links.insert((from, port));
    }

    /// Add a freeze window. Zero-length windows are ignored.
    pub fn add_freeze(&mut self, w: FreezeWindow) {
        if w.until > w.from {
            self.freezes.push(w);
        }
    }

    /// True when a transmit on this link must consult the plane. Split
    /// from [`fate`](Self::fate) so unmarked links never touch the RNG.
    pub fn covers_link(&self, from: NodeId, port: PortId) -> bool {
        self.marked_links.contains(&(from, port))
    }

    /// Decide one transmit on a marked link. Draws loss first and, only
    /// when the frame survives, duplication — at most two draws per
    /// transmit, in a fixed order, so the schedule replays exactly.
    pub fn fate(&mut self, from: NodeId, port: PortId) -> TransmitFate {
        debug_assert!(self.covers_link(from, port));
        if self.mirror.loss_prob > 0.0 && self.rng.chance(self.mirror.loss_prob) {
            self.stats.mirror_copies_dropped += 1;
            return TransmitFate::Drop;
        }
        if self.mirror.dup_prob > 0.0 && self.rng.chance(self.mirror.dup_prob) {
            self.stats.mirror_copies_duplicated += 1;
            return TransmitFate::Duplicate;
        }
        TransmitFate::Deliver
    }

    /// If `node` is frozen at `at`, the thaw instant of the covering
    /// window (the latest, when windows overlap).
    pub fn frozen_until(&self, node: NodeId, at: SimTime) -> Option<SimTime> {
        self.freezes
            .iter()
            .filter(|w| w.node == node && at >= w.from && at < w.until)
            .map(|w| w.until)
            .max()
    }
}

/// A half-open `[from, until)` time window on a chaos-covered link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosWindow {
    /// First affected instant (inclusive).
    pub from: SimTime,
    /// End of the regime (exclusive).
    pub until: SimTime,
}

impl ChaosWindow {
    /// True when `at` falls inside the window.
    pub fn contains(&self, at: SimTime) -> bool {
        at >= self.from && at < self.until
    }
}

/// A sustained random-impairment regime on a link: seeded loss, payload
/// corruption and reorder-by-delay, active inside its window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstRegime {
    /// When the regime applies.
    pub window: ChaosWindow,
    /// Probability a frame in the window is dropped.
    pub loss_prob: f64,
    /// Probability a surviving frame has a tail byte flipped (the
    /// receiver's ICRC check catches it, like line damage).
    pub corrupt_prob: f64,
    /// Probability a surviving frame is delayed past later traffic.
    pub reorder_prob: f64,
    /// Extra in-flight delay applied to reordered frames.
    pub reorder_delay: SimTime,
}

/// The chaos schedule of one directed link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkChaos {
    /// Down/up windows: frames handed off or arriving inside one are lost.
    pub flaps: Vec<ChaosWindow>,
    /// PFC-style pause windows: serialization stalls, nothing drops.
    pub pauses: Vec<ChaosWindow>,
    /// Sustained loss/corruption/reorder regimes.
    pub bursts: Vec<BurstRegime>,
}

impl LinkChaos {
    /// True when this schedule can never touch a frame.
    pub fn is_noop(&self) -> bool {
        self.flaps.is_empty()
            && self.pauses.is_empty()
            && self.bursts.iter().all(|b| {
                b.loss_prob <= 0.0 && b.corrupt_prob <= 0.0 && b.reorder_prob <= 0.0
            })
    }
}

/// What the chaos plane decided for one transmit on a covered link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFate {
    /// Deliver normally.
    Deliver,
    /// Lost to a link-down window (deterministic, no RNG draw).
    FlapDrop,
    /// Lost to a burst regime's loss draw.
    BurstDrop,
    /// Delivered with one byte flipped at `offset` (xor `mask`).
    Corrupt {
        /// Byte offset into the frame, chosen near the tail so the flip
        /// lands in payload/ICRC territory, not the routing headers.
        offset: usize,
        /// Bit flipped at that offset.
        mask: u8,
    },
    /// Delivered late: arrival shifted by the contained delay.
    Delay(SimTime),
}

/// Counters the chaos plane accumulates during a run. Recorded into
/// telemetry (kind `chaos`) only when a plane is attached, so chaos-free
/// runs keep their snapshots — and golden reports — unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosStats {
    /// Frames lost to link-down windows (handoff or arrival inside one).
    pub flap_drops: u64,
    /// Frames lost to burst-regime loss draws.
    pub burst_drops: u64,
    /// Frames delivered with a flipped byte.
    pub corruptions: u64,
    /// Frames delivered late by a reorder draw.
    pub reorders: u64,
    /// Frames whose handoff was stalled by a pause window.
    pub paused_frames: u64,
    /// Total nanoseconds of pause-induced handoff delay.
    pub pause_delay_ns: u64,
}

impl ChaosStats {
    /// Frames the data path lost outright (flap + burst), the external
    /// evidence the conformance oracle uses to justify retransmissions it
    /// cannot attribute to the mirror record.
    pub fn data_drops(&self) -> u64 {
        self.flap_drops + self.burst_drops
    }
}

impl MetricSet for ChaosStats {
    fn metric_kind(&self) -> &'static str {
        "chaos"
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).unwrap_or(serde_json::Value::Null)
    }
}

/// The seeded data-path chaos injector. Build one, attach per-link
/// schedules, then attach it inside an [`Interposer`].
#[derive(Debug, Clone)]
pub struct ChaosPlane {
    rng: SimRng,
    links: HashMap<(NodeId, PortId), LinkChaos>,
    /// Run counters.
    pub stats: ChaosStats,
}

impl ChaosPlane {
    /// Create a plane with its own RNG stream derived from `seed`.
    pub fn new(seed: u64) -> ChaosPlane {
        ChaosPlane {
            rng: SimRng::seed_from_u64(seed ^ CHAOS_SEED_SALT),
            links: HashMap::new(),
            stats: ChaosStats::default(),
        }
    }

    /// Subject `from:port` egress to a chaos schedule. No-op schedules
    /// are not registered, so they cannot even cover a link.
    pub fn set_link(&mut self, from: NodeId, port: PortId, chaos: LinkChaos) {
        if !chaos.is_noop() {
            self.links.insert((from, port), chaos);
        }
    }

    /// True when a transmit on this link must consult the plane. Split
    /// from [`fate`](Self::fate) so uncovered links never touch the RNG.
    pub fn covers_link(&self, from: NodeId, port: PortId) -> bool {
        self.links.contains_key(&(from, port))
    }

    /// If a pause window covers the handoff instant `at`, the instant the
    /// link resumes (the latest end among covering windows). Pure window
    /// lookup — no RNG. Updates the pause counters.
    pub fn pause_until(&mut self, from: NodeId, port: PortId, at: SimTime) -> Option<SimTime> {
        let resume = self
            .links
            .get(&(from, port))?
            .pauses
            .iter()
            .filter(|w| w.contains(at))
            .map(|w| w.until)
            .max()?;
        self.stats.paused_frames += 1;
        self.stats.pause_delay_ns += resume.saturating_since(at).as_nanos();
        Some(resume)
    }

    /// Decide one transmit on a covered link. Flap windows are checked
    /// first (deterministic — a down link needs no dice), then the burst
    /// regime covering the handoff draws loss, corruption and reorder in
    /// a fixed order, each only when its probability is positive — so the
    /// schedule replays exactly for a given seed.
    pub fn fate(
        &mut self,
        from: NodeId,
        port: PortId,
        handoff: SimTime,
        arrival: SimTime,
        frame_len: usize,
    ) -> ChaosFate {
        let Some(lc) = self.links.get(&(from, port)) else {
            return ChaosFate::Deliver;
        };
        if lc
            .flaps
            .iter()
            .any(|w| w.contains(handoff) || w.contains(arrival))
        {
            self.stats.flap_drops += 1;
            return ChaosFate::FlapDrop;
        }
        let Some(burst) = lc.bursts.iter().find(|b| b.window.contains(handoff)).copied()
        else {
            return ChaosFate::Deliver;
        };
        if burst.loss_prob > 0.0 && self.rng.chance(burst.loss_prob) {
            self.stats.burst_drops += 1;
            return ChaosFate::BurstDrop;
        }
        if burst.corrupt_prob > 0.0 && self.rng.chance(burst.corrupt_prob) {
            // Flip a bit in the frame's tail 32 bytes: payload/ICRC
            // territory on any minimum-size RoCE frame, never the L2/L3
            // headers (a header flip would be a routing fault, not line
            // damage the ICRC is meant to catch).
            let tail = frame_len.clamp(1, 32) as u64;
            let offset = frame_len.saturating_sub(1 + self.rng.below(tail) as usize);
            let mask = 1u8 << self.rng.below(8);
            self.stats.corruptions += 1;
            return ChaosFate::Corrupt { offset, mask };
        }
        if burst.reorder_prob > 0.0 && self.rng.chance(burst.reorder_prob) {
            self.stats.reorders += 1;
            return ChaosFate::Delay(burst.reorder_delay);
        }
        ChaosFate::Deliver
    }
}

/// What [`Interposer::gate`] decided for one event about to be dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Dispatch it.
    Run,
    /// Drop it undelivered.
    Discard,
    /// File it again at the contained instant, under a fresh `seq`.
    Defer(SimTime),
}

/// The effect side of both planes — counters, journal lines, the in-place
/// corruption — at the four instants the module docs list. An interposer
/// whose planes cover nothing is invisible to a run.
#[derive(Debug, Clone, Default)]
pub struct Interposer {
    /// The infrastructure fault plane, if armed.
    pub faults: Option<FaultPlane>,
    /// The data-path chaos plane, if armed.
    pub chaos: Option<ChaosPlane>,
    /// Whether the chaos plane covers the link of the send in progress:
    /// looked up once by `copies`, read per copy by `handoff` and `fate`.
    chaos_covered: bool,
}

impl Interposer {
    /// An interposer armed with the given planes.
    pub fn new(faults: Option<FaultPlane>, chaos: Option<ChaosPlane>) -> Interposer {
        Interposer {
            faults,
            chaos,
            chaos_covered: false,
        }
    }

    /// A frozen node loses arriving frames outright (the NIC is down); its
    /// timers survive the outage and fire at the thaw instant.
    pub fn gate(&mut self, tel: &Telemetry, node: NodeId, is_frame: bool, now: SimTime) -> Gate {
        let Some(plane) = self.faults.as_mut() else {
            return Gate::Run;
        };
        let Some(until) = plane.frozen_until(node, now) else {
            return Gate::Run;
        };
        let (t, n) = (now.as_nanos(), node.0 as u32);
        if is_frame {
            plane.stats.frames_dropped_frozen += 1;
            tev!(tel, t, n, "fault", "freeze.drop");
            return Gate::Discard;
        }
        plane.stats.timers_deferred += 1;
        tev!(tel, t, n, "fault", "freeze.defer", until = until.as_nanos());
        Gate::Defer(until)
    }

    /// How many copies of a frame sent at `now` enter the link. Marked
    /// links (mirror paths) take the fault plane's one loss→dup draw; every
    /// other link bypasses it without touching its RNG.
    pub fn copies(&mut self, tel: &Telemetry, from: NodeId, port: PortId, now: SimTime) -> usize {
        let chaos = self.chaos.as_ref();
        self.chaos_covered = chaos.is_some_and(|p| p.covers_link(from, port));
        let Some(plane) = self.faults.as_mut().filter(|p| p.covers_link(from, port)) else {
            return 1;
        };
        let (copies, kind) = match plane.fate(from, port) {
            TransmitFate::Deliver => return 1,
            TransmitFate::Drop => (0, "mirror.drop"),
            TransmitFate::Duplicate => (2, "mirror.dup"),
        };
        tev!(tel, now.as_nanos(), from.0 as u32, "fault", kind);
        copies
    }

    /// The instant a copy due at `at` is really handed to the link: a
    /// PFC-style pause stalls it to the window's end, then the frame
    /// serializes normally — stalled, never dropped.
    pub fn handoff(
        &mut self,
        tel: &Telemetry,
        from: NodeId,
        port: PortId,
        now: SimTime,
        at: SimTime,
    ) -> SimTime {
        let covering = self.chaos.as_mut().filter(|_| self.chaos_covered);
        let Some(resume) = covering.and_then(|p| p.pause_until(from, port, at)) else {
            return at;
        };
        let (t, n) = (now.as_nanos(), from.0 as u32);
        tev!(tel, t, n, "chaos", "pause", until = resume.as_nanos());
        resume
    }

    /// The arrival instant of a serialized copy, or `None` when it died on
    /// the wire (the link was down at handoff or arrival, or a burst ate
    /// it). A corrupted copy has one tail byte flipped in place,
    /// copy-on-write; a reordered one arrives late.
    pub fn fate(
        &mut self,
        tel: &Telemetry,
        from: NodeId,
        port: PortId,
        handoff: SimTime,
        arrive: SimTime,
        frame: &mut Frame,
    ) -> Option<SimTime> {
        let covering = self.chaos.as_mut().filter(|_| self.chaos_covered);
        let Some(plane) = covering else {
            return Some(arrive);
        };
        let (t, n) = (handoff.as_nanos(), from.0 as u32);
        let lost = |kind: &'static str| {
            tev!(tel, t, n, "chaos", kind);
            None
        };
        match plane.fate(from, port, handoff, arrive, frame.len()) {
            ChaosFate::Deliver => Some(arrive),
            ChaosFate::FlapDrop => lost("flap.drop"),
            ChaosFate::BurstDrop => lost("burst.drop"),
            ChaosFate::Corrupt { offset, mask } => {
                tev!(tel, t, n, "chaos", "corrupt", offset = offset as u64);
                if let Some(b) = frame.make_mut().get_mut(offset) {
                    *b ^= mask;
                }
                Some(arrive)
            }
            ChaosFate::Delay(extra) => {
                tev!(tel, t, n, "chaos", "delay", extra = extra.as_nanos());
                Some(arrive + extra)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(loss: f64, dup: f64) -> FaultPlane {
        let mut p = FaultPlane::new(
            7,
            MirrorFaults {
                loss_prob: loss,
                dup_prob: dup,
            },
        );
        p.mark_mirror_link(NodeId(2), PortId(3));
        p
    }

    #[test]
    fn fates_replay_bit_for_bit() {
        let run = || {
            let mut p = plane(0.3, 0.2);
            (0..256)
                .map(|_| p.fate(NodeId(2), PortId(3)))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains(&TransmitFate::Drop));
        assert!(a.contains(&TransmitFate::Duplicate));
        assert!(a.contains(&TransmitFate::Deliver));
    }

    #[test]
    fn zero_probabilities_never_draw() {
        // With both probabilities zero the RNG is untouched, so two planes
        // diverge only once a positive probability forces a draw.
        let mut p = plane(0.0, 0.0);
        for _ in 0..64 {
            assert_eq!(p.fate(NodeId(2), PortId(3)), TransmitFate::Deliver);
        }
        assert_eq!(p.stats, FaultStats::default());
    }

    #[test]
    fn unmarked_links_are_not_covered() {
        let p = plane(1.0, 0.0);
        assert!(p.covers_link(NodeId(2), PortId(3)));
        assert!(!p.covers_link(NodeId(2), PortId(4)));
        assert!(!p.covers_link(NodeId(1), PortId(3)));
    }

    #[test]
    fn freeze_window_edges() {
        let mut p = plane(0.0, 0.0);
        p.add_freeze(FreezeWindow {
            node: NodeId(5),
            from: SimTime::from_micros(10),
            until: SimTime::from_micros(20),
        });
        // Zero-length windows vanish.
        p.add_freeze(FreezeWindow {
            node: NodeId(5),
            from: SimTime::from_micros(30),
            until: SimTime::from_micros(30),
        });
        let t = |us| SimTime::from_micros(us);
        assert_eq!(p.frozen_until(NodeId(5), t(9)), None);
        assert_eq!(p.frozen_until(NodeId(5), t(10)), Some(t(20)));
        assert_eq!(p.frozen_until(NodeId(5), t(19)), Some(t(20)));
        assert_eq!(p.frozen_until(NodeId(5), t(20)), None, "thaw is exclusive");
        assert_eq!(p.frozen_until(NodeId(5), t(30)), None);
        assert_eq!(p.frozen_until(NodeId(4), t(15)), None, "other nodes run");
    }

    #[test]
    fn overlapping_freezes_thaw_at_the_latest() {
        let mut p = plane(0.0, 0.0);
        let t = |us| SimTime::from_micros(us);
        p.add_freeze(FreezeWindow { node: NodeId(1), from: t(0), until: t(10) });
        p.add_freeze(FreezeWindow { node: NodeId(1), from: t(5), until: t(30) });
        assert_eq!(p.frozen_until(NodeId(1), t(7)), Some(t(30)));
    }

    fn window(from_us: u64, until_us: u64) -> ChaosWindow {
        ChaosWindow {
            from: SimTime::from_micros(from_us),
            until: SimTime::from_micros(until_us),
        }
    }

    #[test]
    fn flap_drops_are_deterministic_and_rng_free() {
        let mut p = ChaosPlane::new(3);
        p.set_link(
            NodeId(0),
            PortId(0),
            LinkChaos {
                flaps: vec![window(10, 20)],
                ..LinkChaos::default()
            },
        );
        let t = |us| SimTime::from_micros(us);
        // Handoff inside the window, arrival inside the window, and both
        // outside — two planes with different seeds agree exactly because
        // flap decisions never draw.
        let mut q = ChaosPlane::new(999);
        q.set_link(
            NodeId(0),
            PortId(0),
            LinkChaos {
                flaps: vec![window(10, 20)],
                ..LinkChaos::default()
            },
        );
        for (h, a) in [(12, 13), (5, 15), (5, 6), (20, 21)] {
            let fp = p.fate(NodeId(0), PortId(0), t(h), t(a), 100);
            let fq = q.fate(NodeId(0), PortId(0), t(h), t(a), 100);
            assert_eq!(fp, fq);
        }
        assert_eq!(p.stats.flap_drops, 2, "{:?}", p.stats);
    }

    #[test]
    fn pause_stalls_without_dropping() {
        let mut p = ChaosPlane::new(3);
        p.set_link(
            NodeId(1),
            PortId(0),
            LinkChaos {
                pauses: vec![window(100, 150)],
                ..LinkChaos::default()
            },
        );
        let t = |us| SimTime::from_micros(us);
        assert_eq!(p.pause_until(NodeId(1), PortId(0), t(120)), Some(t(150)));
        assert_eq!(p.pause_until(NodeId(1), PortId(0), t(150)), None);
        assert_eq!(p.pause_until(NodeId(1), PortId(0), t(99)), None);
        assert_eq!(p.pause_until(NodeId(2), PortId(0), t(120)), None);
        assert_eq!(p.stats.paused_frames, 1);
        assert_eq!(p.stats.pause_delay_ns, 30_000);
        // A paused frame is never a dropped frame.
        assert_eq!(p.stats.data_drops(), 0);
    }

    #[test]
    fn burst_regime_replays_bit_for_bit_and_zero_probs_never_draw() {
        let chaos = |loss, corrupt, reorder| LinkChaos {
            bursts: vec![BurstRegime {
                window: window(0, 1000),
                loss_prob: loss,
                corrupt_prob: corrupt,
                reorder_prob: reorder,
                reorder_delay: SimTime::from_micros(5),
            }],
            ..LinkChaos::default()
        };
        let run = || {
            let mut p = ChaosPlane::new(11);
            p.set_link(NodeId(0), PortId(0), chaos(0.3, 0.2, 0.2));
            (0..256)
                .map(|i| {
                    p.fate(
                        NodeId(0),
                        PortId(0),
                        SimTime::from_micros(i),
                        SimTime::from_micros(i + 1),
                        128,
                    )
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains(&ChaosFate::BurstDrop));
        assert!(a.iter().any(|f| matches!(f, ChaosFate::Corrupt { .. })));
        assert!(a
            .iter()
            .any(|f| matches!(f, ChaosFate::Delay(d) if *d == SimTime::from_micros(5))));
        // All-zero probabilities leave the RNG untouched entirely — and a
        // fully no-op schedule never even covers the link.
        let mut p = ChaosPlane::new(11);
        p.set_link(NodeId(0), PortId(0), chaos(0.0, 0.0, 0.0));
        assert!(!p.covers_link(NodeId(0), PortId(0)));
    }

    #[test]
    fn corruption_offsets_stay_in_the_frame_tail() {
        let mut p = ChaosPlane::new(17);
        p.set_link(
            NodeId(0),
            PortId(0),
            LinkChaos {
                bursts: vec![BurstRegime {
                    window: window(0, 1000),
                    loss_prob: 0.0,
                    corrupt_prob: 1.0,
                    reorder_prob: 0.0,
                    reorder_delay: SimTime::ZERO,
                }],
                ..LinkChaos::default()
            },
        );
        for len in [1usize, 2, 31, 32, 64, 1500] {
            for _ in 0..32 {
                let f = p.fate(
                    NodeId(0),
                    PortId(0),
                    SimTime::from_micros(1),
                    SimTime::from_micros(2),
                    len,
                );
                let ChaosFate::Corrupt { offset, mask } = f else {
                    panic!("expected corruption, got {f:?}");
                };
                assert!(offset < len, "offset {offset} out of frame len {len}");
                assert!(offset + 32 >= len, "offset {offset} not in tail of {len}");
                assert_eq!(mask.count_ones(), 1);
            }
        }
    }

    #[test]
    fn chaos_stats_snapshot_round_trips() {
        let s = ChaosStats {
            flap_drops: 2,
            burst_drops: 3,
            corruptions: 1,
            reorders: 4,
            paused_frames: 5,
            pause_delay_ns: 6,
        };
        let v = s.snapshot();
        assert_eq!(v["flap_drops"], serde_json::Value::from(2u64));
        assert_eq!(s.metric_kind(), "chaos");
        assert_eq!(s.data_drops(), 5);
    }

    #[test]
    fn fault_stats_snapshot_round_trips() {
        let s = FaultStats {
            mirror_copies_dropped: 3,
            mirror_copies_duplicated: 1,
            frames_dropped_frozen: 2,
            timers_deferred: 4,
        };
        let v = s.snapshot();
        assert_eq!(v["mirror_copies_dropped"], serde_json::Value::from(3u64));
        assert_eq!(s.metric_kind(), "faults");
    }
}
