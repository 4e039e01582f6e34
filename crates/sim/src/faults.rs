//! Deterministic infrastructure faults and data-path chaos, and the one
//! seam through which both reach the event loop.
//!
//! Lumina's §3.5 integrity check exists because the *testbed itself* can
//! fail — mirror copies are dropped when dumpers overload, capture hosts
//! stall, links flap, bits rot on the way to disk. This module injects
//! those failures on purpose, so the degraded-trace pipeline can be
//! exercised instead of merely survived. One [`Interposer`] decides and
//! acts; the [`Engine`] owns links, time and the wheel and consults it at
//! four instants.
//!
//! # The seam: four instants
//!
//! Their order fixes the RNG draws, the journal and the links' busy time,
//! so it is part of the replay contract:
//!
//! 1. [`gate`](Interposer::gate) — per event, before dispatch (freezes);
//! 2. [`copies`](Interposer::copies) — once per send (mirror loss → dup);
//! 3. [`handoff`](Interposer::handoff) — per copy, *before* the link
//!    serializes it (pauses);
//! 4. [`fate`](Interposer::fate) — per copy, *after* it (flaps, bursts): a
//!    destroyed frame has still burned its serialization slot, and a
//!    duplicate serializes behind the original like a link-layer replay.
//!
//! The interposer owns the seeded draws, the counters ([`FaultStats`],
//! [`ChaosStats`], read through [`Engine::interposer`]), the `"fault"` /
//! `"chaos"` journal lines and the copy-on-write byte flip; the engine owns
//! the links and reports on them (the `link.ingress` / `link.egress` hops).
//! The default interposer arms nothing, and every call returns at once.
//!
//! # Infrastructure faults (`faults:`)
//!
//! * **Mirror links** (the switch→dumper paths) may drop or duplicate a
//!   frame per transmit, per [`MirrorFaults`] probabilities.
//! * **Frozen nodes** (mid-run freeze/restart windows) lose arriving
//!   frames and have their timers deferred to the thaw instant.
//!
//! Dumper-local faults (core stalls, capture bit-rot) live with the dumper
//! model in `lumina-dumper`, each dumper drawing from a stream forked by
//! [`node_rng`]; this module only owns what the engine must arbitrate.
//!
//! # Data-path chaos (`chaos:`)
//!
//! Mirror faults leave the host↔switch data links pristine: the paper's
//! testbed trusts its DUT links. Real fabrics do not — links flap, loss
//! arrives in sustained bursts, and PFC pause storms stall serialization
//! for milliseconds. A [`LinkChaos`] schedule injects those regimes on one
//! directed link:
//!
//! * **Flap windows** take a link down: every frame whose handoff *or*
//!   arrival falls inside the window is dropped — including frames
//!   already in flight when the link went down.
//! * **Pause windows** (PFC-style) stall a link's serialization: frames
//!   handed to the link during the window depart at the window's end, in
//!   order, without a single drop.
//! * **Burst regimes** apply sustained seeded loss / corruption / reorder
//!   probabilities inside their window.
//!
//! # Replay
//!
//! Faults and chaos each draw from their own [`SimRng`], seeded apart from
//! the engine's and from each other (two salts), so they can share one
//! campaign seed without entangling their schedules, and the simulated
//! workload draws the same with and without them. A link neither covers
//! makes *zero* draws; freeze, flap and pause decisions are window lookups
//! that never draw. Same seed, same schedule, bit for bit.
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
use crate::time::{SimTime, Window};
use lumina_packet::Frame;
use lumina_telemetry::{tev, Telemetry};
use serde::{Deserialize, Serialize};

/// Salt folded into the fault seed so a stream seeded with the campaign
/// seed is still unrelated to the engine's.
const FAULT_SEED_SALT: u64 = 0xfa17_ab1e_0bad_cafe;

/// Salt for the chaos stream: distinct from both the engine stream and
/// the fault stream, so mirror faults and data-path chaos can share one
/// campaign seed without entangling their schedules.
const CHAOS_SEED_SALT: u64 = 0xc7a0_5bad_5eed_f00d;

/// The stream of a node-local fault injector (one per dumper): forked off
/// the fault seed by `salt`, not drawn from the interposer's stream, so it
/// does not depend on how many nodes fork one.
pub fn node_rng(seed: u64, salt: u64) -> SimRng {
    SimRng::seed_from_u64(seed ^ FAULT_SEED_SALT).fork(salt)
}

/// Loss/duplication probabilities applied per transmit on mirror links.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MirrorFaults {
    /// Probability a mirror copy is silently dropped in flight.
    pub loss_prob: f64,
    /// Probability a mirror copy is delivered twice (serialized back to
    /// back on the link, like a flapping port replaying its FIFO).
    pub dup_prob: f64,
}

/// A sustained random-impairment regime on a link: seeded loss, payload
/// corruption and reorder-by-delay, active inside its window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstRegime {
    /// When the regime applies.
    pub window: Window,
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
    pub flaps: Vec<Window>,
    /// PFC-style pause windows: serialization stalls, nothing drops.
    pub pauses: Vec<Window>,
    /// Sustained loss/corruption/reorder regimes.
    pub bursts: Vec<BurstRegime>,
}

/// Counters of the infrastructure faults. Reported (kind `faults`) only
/// when faults are armed, so fault-free runs keep their golden reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Mirror copies dropped on mirror links.
    pub mirror_copies_dropped: u64,
    /// Mirror copies delivered twice on mirror links.
    pub mirror_copies_duplicated: u64,
    /// Frames lost because their destination node was frozen.
    pub frames_dropped_frozen: u64,
    /// Timers deferred to a freeze window's thaw instant.
    pub timers_deferred: u64,
}

/// Counters of the data-path chaos. Reported (kind `chaos`) only when
/// chaos is armed, so chaos-free runs keep their golden reports.
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

/// What one directed link suffers; the default, nothing.
#[derive(Debug, Clone, Default)]
struct LinkFaults {
    /// Mirror loss/dup per transmit.
    mirror: bool,
    /// Flaps, pauses and bursts.
    chaos: Option<LinkChaos>,
}

/// Per-link entries stored `[node][port]`, as the engine stores its links:
/// a lookup on every send is two bounds checks, not a hash.
#[derive(Debug, Clone, Default)]
struct LinkMap(Vec<Vec<LinkFaults>>);

impl LinkMap {
    fn get(&self, from: NodeId, port: PortId) -> Option<&LinkFaults> {
        self.0.get(from.0)?.get(port.0)
    }

    fn chaos(&self, from: NodeId, port: PortId) -> Option<&LinkChaos> {
        self.get(from, port)?.chaos.as_ref()
    }

    fn edit(&mut self, from: NodeId, port: PortId, edit: impl FnOnce(&mut LinkFaults)) {
        if self.0.len() <= from.0 {
            self.0.resize_with(from.0 + 1, Vec::new);
        }
        let Some(ports) = self.0.get_mut(from.0) else {
            return;
        };
        if ports.len() <= port.0 {
            ports.resize_with(port.0 + 1, LinkFaults::default);
        }
        if let Some(link) = ports.get_mut(port.0) {
            edit(link);
        }
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

/// The adversary: decides and acts — draws, counters, journal lines, the
/// in-place corruption — at the four instants the module docs list. Arm
/// faults and chaos, then mark what they cover; an interposer that covers
/// nothing is invisible to a run.
#[derive(Debug, Clone)]
pub struct Interposer {
    links: LinkMap,
    /// Node outages: events for the node inside the window are intercepted.
    freezes: Vec<(NodeId, Window)>,
    mirror: MirrorFaults,
    fault_rng: SimRng,
    chaos_rng: SimRng,
    /// `Some` once faults are armed. Only an armed side marks links or
    /// freezes nodes, so the instants that count find their side `Some`.
    fault_stats: Option<FaultStats>,
    /// `Some` once chaos is armed.
    chaos_stats: Option<ChaosStats>,
    /// Whether the send in progress crosses a chaos link: looked up once
    /// by `copies`, read per copy by `handoff` and `fate`.
    chaos_covered: bool,
}

impl Default for Interposer {
    fn default() -> Interposer {
        Interposer {
            links: LinkMap::default(),
            freezes: Vec::new(),
            mirror: MirrorFaults::default(),
            fault_rng: SimRng::seed_from_u64(FAULT_SEED_SALT),
            chaos_rng: SimRng::seed_from_u64(CHAOS_SEED_SALT),
            fault_stats: None,
            chaos_stats: None,
            chaos_covered: false,
        }
    }
}

impl Interposer {
    /// Arm infrastructure faults: their stream is seeded off `seed`, their
    /// counters start and are reported.
    pub fn arm_faults(&mut self, seed: u64, mirror: MirrorFaults) {
        self.fault_rng = SimRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
        self.mirror = mirror;
        self.fault_stats = Some(FaultStats::default());
    }

    /// Arm data-path chaos, its stream seeded off `seed` under its own salt.
    pub fn arm_chaos(&mut self, seed: u64) {
        self.chaos_rng = SimRng::seed_from_u64(seed ^ CHAOS_SEED_SALT);
        self.chaos_stats = Some(ChaosStats::default());
    }

    /// The fault counters, if faults are armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault_stats
    }

    /// The chaos counters, if chaos is armed.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos_stats
    }

    /// Subject `from:port` egress to the mirror loss/dup probabilities.
    pub fn mark_mirror_link(&mut self, from: NodeId, port: PortId) {
        debug_assert!(self.fault_stats.is_some(), "faults are not armed");
        self.links.edit(from, port, |l| l.mirror = true);
    }

    /// Freeze `node` over `window` (an empty window freezes nothing).
    pub fn add_freeze(&mut self, node: NodeId, window: Window) {
        debug_assert!(self.fault_stats.is_some(), "faults are not armed");
        self.freezes.push((node, window));
    }

    /// Subject `from:port` egress to a chaos schedule.
    pub fn set_chaos(&mut self, from: NodeId, port: PortId, chaos: LinkChaos) {
        debug_assert!(self.chaos_stats.is_some(), "chaos is not armed");
        self.links.edit(from, port, |l| l.chaos = Some(chaos));
    }

    /// A frozen node loses arriving frames outright (the NIC is down); its
    /// timers survive the outage and fire at the thaw instant (the latest,
    /// when windows overlap).
    pub fn gate(&mut self, tel: &Telemetry, node: NodeId, is_frame: bool, now: SimTime) -> Gate {
        let thaw = self
            .freezes
            .iter()
            .filter(|(n, w)| *n == node && w.contains(now))
            .map(|(_, w)| w.until)
            .max();
        let Some(until) = thaw else {
            return Gate::Run;
        };
        let (t, n) = (now.as_nanos(), node.0 as u32);
        let stats = self.fault_stats.get_or_insert_default();
        if is_frame {
            stats.frames_dropped_frozen += 1;
            tev!(tel, t, n, "fault", "freeze.drop");
            return Gate::Discard;
        }
        stats.timers_deferred += 1;
        tev!(tel, t, n, "fault", "freeze.defer", until = until.as_nanos());
        Gate::Defer(until)
    }

    /// How many copies of a frame sent at `now` enter the link. A mirror
    /// link takes one loss draw and, only when the frame survives, one dup
    /// draw; every other link bypasses the fault stream without a draw.
    pub fn copies(&mut self, tel: &Telemetry, from: NodeId, port: PortId, now: SimTime) -> usize {
        let Some(link) = self.links.get(from, port) else {
            self.chaos_covered = false;
            return 1;
        };
        self.chaos_covered = link.chaos.is_some();
        if !link.mirror {
            return 1;
        }
        let (t, n) = (now.as_nanos(), from.0 as u32);
        let MirrorFaults { loss_prob, dup_prob } = self.mirror;
        let stats = self.fault_stats.get_or_insert_default();
        if loss_prob > 0.0 && self.fault_rng.chance(loss_prob) {
            stats.mirror_copies_dropped += 1;
            tev!(tel, t, n, "fault", "mirror.drop");
            return 0;
        }
        if dup_prob > 0.0 && self.fault_rng.chance(dup_prob) {
            stats.mirror_copies_duplicated += 1;
            tev!(tel, t, n, "fault", "mirror.dup");
            return 2;
        }
        1
    }

    /// The instant a copy due at `at` is really handed to the link: a
    /// PFC-style pause stalls it to the window's end (the latest, when
    /// windows overlap), then the frame serializes normally — stalled,
    /// never dropped.
    pub fn handoff(
        &mut self,
        tel: &Telemetry,
        from: NodeId,
        port: PortId,
        now: SimTime,
        at: SimTime,
    ) -> SimTime {
        if !self.chaos_covered {
            return at;
        }
        let pauses = self.links.chaos(from, port).map_or(&[][..], |c| &c.pauses);
        let Some(resume) = pauses.iter().filter(|w| w.contains(at)).map(|w| w.until).max() else {
            return at;
        };
        let stats = self.chaos_stats.get_or_insert_default();
        stats.paused_frames += 1;
        let delay_ns = resume.saturating_since(at).as_nanos();
        stats.pause_delay_ns = stats.pause_delay_ns.saturating_add(delay_ns);
        let (t, n) = (now.as_nanos(), from.0 as u32);
        tev!(tel, t, n, "chaos", "pause", until = resume.as_nanos());
        resume
    }

    /// The arrival instant of a serialized copy, or `None` when it died on
    /// the wire. Flap windows are checked first (a down link needs no
    /// dice); then the burst covering the handoff draws loss, corruption
    /// (with its offset and mask) and reorder, in that order and each only
    /// when its probability is positive. A corrupted copy has one tail
    /// byte flipped in place, copy-on-write; a reordered one arrives late.
    pub fn fate(
        &mut self,
        tel: &Telemetry,
        from: NodeId,
        port: PortId,
        handoff: SimTime,
        arrive: SimTime,
        frame: &mut Frame,
    ) -> Option<SimTime> {
        if !self.chaos_covered {
            return Some(arrive);
        }
        let Some(lc) = self.links.chaos(from, port) else {
            return Some(arrive);
        };
        let (t, n) = (handoff.as_nanos(), from.0 as u32);
        let stats = self.chaos_stats.get_or_insert_default();
        if lc.flaps.iter().any(|w| w.contains(handoff) || w.contains(arrive)) {
            stats.flap_drops += 1;
            tev!(tel, t, n, "chaos", "flap.drop");
            return None;
        }
        let Some(burst) = lc.bursts.iter().find(|b| b.window.contains(handoff)) else {
            return Some(arrive);
        };
        let rng = &mut self.chaos_rng;
        if burst.loss_prob > 0.0 && rng.chance(burst.loss_prob) {
            stats.burst_drops += 1;
            tev!(tel, t, n, "chaos", "burst.drop");
            return None;
        }
        if burst.corrupt_prob > 0.0 && rng.chance(burst.corrupt_prob) {
            // Flip a bit in the frame's tail 32 bytes: payload/ICRC
            // territory on any minimum-size RoCE frame, never the L2/L3
            // headers (a header flip would be a routing fault, not line
            // damage the ICRC is meant to catch).
            let tail = frame.len().clamp(1, 32) as u64;
            let offset = frame.len().saturating_sub(1 + rng.below(tail) as usize);
            let mask = 1u8 << rng.below(8);
            stats.corruptions += 1;
            tev!(tel, t, n, "chaos", "corrupt", offset = offset as u64);
            if let Some(b) = frame.make_mut().get_mut(offset) {
                *b ^= mask;
            }
            return Some(arrive);
        }
        if burst.reorder_prob > 0.0 && rng.chance(burst.reorder_prob) {
            stats.reorders += 1;
            let extra = burst.reorder_delay;
            tev!(tel, t, n, "chaos", "delay", extra = extra.as_nanos());
            return Some(arrive + extra);
        }
        Some(arrive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn window(from_us: u64, until_us: u64) -> Window {
        Window {
            from: t(from_us),
            until: t(until_us),
        }
    }

    /// Faults armed with these mirror probabilities on node 2's port 3.
    fn faults(loss: f64, dup: f64) -> Interposer {
        let mut ip = Interposer::default();
        let mirror = MirrorFaults {
            loss_prob: loss,
            dup_prob: dup,
        };
        ip.arm_faults(7, mirror);
        ip.mark_mirror_link(NodeId(2), PortId(3));
        ip
    }

    /// Chaos armed with `schedule` on node 0's port 0.
    fn chaos(seed: u64, schedule: LinkChaos) -> Interposer {
        let mut ip = Interposer::default();
        ip.arm_chaos(seed);
        ip.set_chaos(NodeId(0), PortId(0), schedule);
        ip
    }

    /// One send of `frame` on node 0's port 0, handed off at `handoff` and
    /// due at `arrive`, as the engine asks about it: its arrival, if any.
    fn send(ip: &mut Interposer, handoff: u64, arrive: u64, frame: &mut Frame) -> Option<SimTime> {
        let tel = Telemetry::disabled();
        let (from, port) = (NodeId(0), PortId(0));
        assert_eq!(ip.copies(&tel, from, port, t(handoff)), 1);
        ip.fate(&tel, from, port, t(handoff), t(arrive), frame)
    }

    fn burst(loss: f64, corrupt: f64, reorder: f64) -> LinkChaos {
        LinkChaos {
            bursts: vec![BurstRegime {
                window: window(0, 1000),
                loss_prob: loss,
                corrupt_prob: corrupt,
                reorder_prob: reorder,
                reorder_delay: t(5),
            }],
            ..LinkChaos::default()
        }
    }

    /// The next draw of a stream, to tell whether two streams are at the
    /// same place.
    fn next(rng: &mut SimRng) -> u64 {
        rng.below(1 << 40)
    }

    #[test]
    fn fates_replay_bit_for_bit() {
        let tel = Telemetry::disabled();
        let run = || {
            let mut ip = faults(0.3, 0.2);
            (0..256)
                .map(|_| ip.copies(&tel, NodeId(2), PortId(3), SimTime::ZERO))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        for copies in [0, 1, 2] {
            assert!(a.contains(&copies), "{copies} copies never decided");
        }
    }

    #[test]
    fn zero_probabilities_never_draw() {
        let tel = Telemetry::disabled();
        let mut ip = faults(0.0, 0.0);
        for _ in 0..64 {
            assert_eq!(ip.copies(&tel, NodeId(2), PortId(3), SimTime::ZERO), 1);
        }
        assert_eq!(ip.fault_stats, Some(FaultStats::default()));
        assert_eq!(next(&mut ip.fault_rng), next(&mut faults(0.0, 0.0).fault_rng));
    }

    #[test]
    fn unmarked_links_are_not_covered() {
        let tel = Telemetry::disabled();
        let mut ip = faults(1.0, 0.0);
        assert_eq!(ip.copies(&tel, NodeId(2), PortId(4), SimTime::ZERO), 1);
        assert_eq!(ip.copies(&tel, NodeId(1), PortId(3), SimTime::ZERO), 1);
        assert_eq!(ip.copies(&tel, NodeId(9), PortId(0), SimTime::ZERO), 1);
        assert_eq!(next(&mut ip.clone().fault_rng), next(&mut faults(1.0, 0.0).fault_rng));
        assert_eq!(ip.copies(&tel, NodeId(2), PortId(3), SimTime::ZERO), 0);
        assert_eq!(ip.fault_stats.map(|s| s.mirror_copies_dropped), Some(1));
    }

    #[test]
    fn freeze_window_edges() {
        let tel = Telemetry::disabled();
        let mut ip = faults(0.0, 0.0);
        ip.add_freeze(NodeId(5), window(10, 20));
        // Zero-length windows vanish.
        ip.add_freeze(NodeId(5), window(30, 30));
        let mut gate = |node, us| ip.gate(&tel, NodeId(node), false, t(us));
        assert_eq!(gate(5, 9), Gate::Run);
        assert_eq!(gate(5, 10), Gate::Defer(t(20)));
        assert_eq!(gate(5, 19), Gate::Defer(t(20)));
        assert_eq!(gate(5, 20), Gate::Run, "thaw is exclusive");
        assert_eq!(gate(5, 30), Gate::Run);
        assert_eq!(gate(4, 15), Gate::Run, "other nodes run");
        assert_eq!(ip.gate(&tel, NodeId(5), true, t(15)), Gate::Discard);
        let stats = ip.fault_stats.unwrap();
        assert_eq!((stats.timers_deferred, stats.frames_dropped_frozen), (2, 1));
    }

    #[test]
    fn overlapping_freezes_thaw_at_the_latest() {
        let mut ip = faults(0.0, 0.0);
        ip.add_freeze(NodeId(1), window(0, 10));
        ip.add_freeze(NodeId(1), window(5, 30));
        let gate = ip.gate(&Telemetry::disabled(), NodeId(1), false, t(7));
        assert_eq!(gate, Gate::Defer(t(30)));
    }

    #[test]
    fn flap_drops_are_deterministic_and_rng_free() {
        let flaps = LinkChaos {
            flaps: vec![window(10, 20)],
            ..LinkChaos::default()
        };
        // Handoff inside the window, arrival inside the window, and both
        // outside — two interposers with different seeds agree exactly
        // because flap decisions never draw.
        let (mut p, mut q) = (chaos(3, flaps.clone()), chaos(999, flaps.clone()));
        let mut frame = Frame::from_vec(vec![0; 100]);
        for (h, a) in [(12, 13), (5, 15), (5, 6), (20, 21)] {
            assert_eq!(send(&mut p, h, a, &mut frame), send(&mut q, h, a, &mut frame));
        }
        assert_eq!(p.chaos_stats.unwrap().flap_drops, 2, "{:?}", p.chaos_stats);
        assert_eq!(next(&mut p.chaos_rng), next(&mut chaos(3, flaps).chaos_rng));
    }

    #[test]
    fn pause_stalls_without_dropping() {
        let tel = Telemetry::disabled();
        let handoff = |ip: &mut Interposer, node, at| {
            let (from, port, at) = (NodeId(node), PortId(0), SimTime::from_nanos(at));
            assert_eq!(ip.copies(&tel, from, port, at), 1);
            ip.handoff(&tel, from, port, at, at).as_nanos()
        };
        let mut ip = Interposer::default();
        ip.arm_chaos(3);
        let pauses = LinkChaos {
            pauses: vec![window(100, 150)],
            ..LinkChaos::default()
        };
        ip.set_chaos(NodeId(1), PortId(0), pauses);
        assert_eq!(handoff(&mut ip, 1, 120_000), 150_000);
        assert_eq!(handoff(&mut ip, 1, 150_000), 150_000);
        assert_eq!(handoff(&mut ip, 1, 99_000), 99_000);
        assert_eq!(handoff(&mut ip, 2, 120_000), 120_000);
        let stats = ip.chaos_stats.unwrap();
        assert_eq!(stats.paused_frames, 1);
        assert_eq!(stats.pause_delay_ns, 30_000);
        // A paused frame is never a dropped frame.
        assert_eq!(stats.data_drops(), 0);
        // Two frames held by a window near the top of the clock each wait
        // more than half of it: the total saturates instead of wrapping.
        let long = Window {
            from: SimTime::ZERO,
            until: SimTime::from_nanos(u64::MAX - 1),
        };
        let mut ip = Interposer::default();
        ip.arm_chaos(3);
        let pauses = LinkChaos {
            pauses: vec![long],
            ..LinkChaos::default()
        };
        ip.set_chaos(NodeId(1), PortId(0), pauses);
        for at in [0, 1] {
            handoff(&mut ip, 1, at);
        }
        let stats = ip.chaos_stats.unwrap();
        assert_eq!((stats.paused_frames, stats.pause_delay_ns), (2, u64::MAX));
    }

    #[test]
    fn burst_regime_replays_bit_for_bit_and_zero_probs_never_draw() {
        let run = || {
            let mut ip = chaos(11, burst(0.3, 0.2, 0.2));
            (0..256)
                .map(|i| {
                    let mut frame = Frame::from_vec(vec![0; 128]);
                    let at = send(&mut ip, i, i + 1, &mut frame);
                    (i, at, frame.to_vec())
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|(_, at, _)| at.is_none()), "no burst drop");
        let flipped = |f: &Vec<u8>| f.iter().any(|&b| b != 0);
        assert!(a.iter().any(|(_, _, f)| flipped(f)), "no corruption");
        let late = |&(i, at, _): &(u64, Option<SimTime>, Vec<u8>)| at == Some(t(i + 1 + 5));
        assert!(a.iter().any(late), "no reorder delay");
        // All-zero probabilities leave the stream untouched entirely.
        let mut ip = chaos(11, burst(0.0, 0.0, 0.0));
        let mut frame = Frame::from_vec(vec![0; 128]);
        for i in 0..64 {
            assert_eq!(send(&mut ip, i, i + 1, &mut frame), Some(t(i + 1)));
        }
        assert_eq!(ip.chaos_stats, Some(ChaosStats::default()));
        let fresh = &mut chaos(11, burst(0.0, 0.0, 0.0)).chaos_rng;
        assert_eq!(next(&mut ip.chaos_rng), next(fresh));
    }

    #[test]
    fn corruption_offsets_stay_in_the_frame_tail() {
        let mut ip = chaos(17, burst(0.0, 1.0, 0.0));
        for len in [1usize, 2, 31, 32, 64, 1500] {
            for _ in 0..32 {
                let mut frame = Frame::from_vec(vec![0; len]);
                assert_eq!(send(&mut ip, 1, 2, &mut frame), Some(t(2)));
                let flipped: Vec<usize> = (0..len).filter(|&i| frame[i] != 0).collect();
                let [offset] = flipped[..] else {
                    panic!("expected one flipped byte in {len}, got {flipped:?}");
                };
                assert!(offset + 32 >= len, "offset {offset} not in tail of {len}");
                assert_eq!(frame[offset].count_ones(), 1);
            }
        }
    }

    #[test]
    fn chaos_data_drops_are_flaps_plus_bursts() {
        let s = ChaosStats {
            flap_drops: 2,
            burst_drops: 3,
            corruptions: 1,
            ..ChaosStats::default()
        };
        assert_eq!(s.data_drops(), 5);
    }
}
