//! RNIC misbehavior plane: seeded, deterministic spec violations.
//!
//! Lumina's headline results (Table 2) are real RNICs *violating* the
//! RoCEv2/RC specification. The behavioral models in this crate are
//! well-behaved by construction, which leaves the conformance analyzers
//! untestable against the very misbehavior they exist to catch. A
//! [`QuirkPlane`] attached to an [`Rnic`] makes the model
//! emit spec-violating traffic on demand:
//!
//! * **wrong ACK PSN** — acknowledge a PSN the peer never transmitted;
//! * **dropped / coalesced ACKs** — swallow an ACK outright, or skip it
//!   so a later cumulative ACK covers the gap;
//! * **suppressed / spurious CNPs** — eat a CNP the limiter approved, or
//!   emit one with no CE mark behind it;
//! * **ghost retransmits** — re-emit an already-sent data packet with no
//!   loss, NACK or timeout asking for it;
//! * **stale MSN** — report an MSN from two messages ago in an AETH;
//! * **Go-back-N off-by-one** — NACK one PSN beyond the expected one;
//! * **ICRC miscompute** — corrupt the ICRC trailer of outgoing frames.
//!
//! The plane carries its *own* RNG, derived from the quirk seed XOR
//! [`QUIRK_SEED_SALT`] and forked per node — exactly the discipline the
//! infrastructure fault plane uses — so the engine and workload schedule
//! never shift: a run with every quirk probability at zero is
//! byte-identical to a run with no plane attached, because a zero-knob
//! section never installs one.

use crate::Rnic;
use lumina_packet::Frame;
use lumina_sim::SimRng;
use lumina_telemetry::MetricSet;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// XOR'd into the quirk seed before any fork, so a config sharing one
/// `seed` value between `network:` and `quirks:` still gives the plane a
/// stream unrelated to the engine's.
pub const QUIRK_SEED_SALT: u64 = 0x0bad_cab1_e0dd_b175;

/// How far beyond the honest PSN a wrong-ACK-PSN quirk acknowledges.
/// Four packets is beyond anything in flight at the instant the ACK is
/// generated (the honest ACK acknowledges the *last received* packet),
/// so the conformance oracle sees an ACK for unsent PSN space.
pub const WRONG_ACK_SKEW: u64 = 4;

/// Per-kind firing probabilities, all `0.0..=1.0`. Plain data so the
/// config crate can map its `quirks:` section here without a dependency
/// cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuirkKnobs {
    /// Outgoing ACK acknowledges `WRONG_ACK_SKEW` packets too many.
    pub wrong_ack_psn: f64,
    /// Outgoing ACK is silently swallowed.
    pub ack_drop: f64,
    /// Outgoing ACK is skipped so the next one covers it (never two in a
    /// row per QP, so forward progress survives).
    pub ack_coalesce: f64,
    /// A CNP the notification-point limiter approved is eaten.
    pub cnp_suppress: f64,
    /// A CNP is emitted for a data packet carrying no CE mark.
    pub cnp_spurious: f64,
    /// After emitting a data packet, the previous one is re-emitted.
    pub ghost_retransmit: f64,
    /// An AETH reports the MSN from two messages ago.
    pub stale_msn: f64,
    /// A Go-back-N NACK asks for one PSN beyond the expected one.
    pub gbn_off_by_one: f64,
    /// The ICRC trailer of an outgoing data frame is corrupted.
    pub icrc_corrupt: f64,
}

impl QuirkKnobs {
    /// True when at least one knob can ever fire.
    pub fn any(&self) -> bool {
        [
            self.wrong_ack_psn,
            self.ack_drop,
            self.ack_coalesce,
            self.cnp_suppress,
            self.cnp_spurious,
            self.ghost_retransmit,
            self.stale_msn,
            self.gbn_off_by_one,
            self.icrc_corrupt,
        ]
        .iter()
        .any(|&p| p > 0.0)
    }
}

/// How many quirks of each kind actually fired on one device.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuirkStats {
    pub wrong_ack_psn: u64,
    pub acks_dropped: u64,
    pub acks_coalesced: u64,
    pub cnps_suppressed: u64,
    pub cnps_spurious: u64,
    pub ghost_retransmits: u64,
    pub stale_msn: u64,
    pub nacks_off_by_one: u64,
    pub icrc_corrupted: u64,
}

impl QuirkStats {
    /// Fold another device's counts into this one.
    pub fn merge(&mut self, other: &QuirkStats) {
        self.wrong_ack_psn += other.wrong_ack_psn;
        self.acks_dropped += other.acks_dropped;
        self.acks_coalesced += other.acks_coalesced;
        self.cnps_suppressed += other.cnps_suppressed;
        self.cnps_spurious += other.cnps_spurious;
        self.ghost_retransmits += other.ghost_retransmits;
        self.stale_msn += other.stale_msn;
        self.nacks_off_by_one += other.nacks_off_by_one;
        self.icrc_corrupted += other.icrc_corrupted;
    }

    /// Total quirks fired, any kind.
    pub fn total(&self) -> u64 {
        self.wrong_ack_psn
            + self.acks_dropped
            + self.acks_coalesced
            + self.cnps_suppressed
            + self.cnps_spurious
            + self.ghost_retransmits
            + self.stale_msn
            + self.nacks_off_by_one
            + self.icrc_corrupted
    }
}

impl MetricSet for QuirkStats {
    fn metric_kind(&self) -> &'static str {
        "quirks"
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("QuirkStats serializes")
    }
}

/// Fate of one outgoing ACK, decided by [`QuirkPlane::ack_fate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckFate {
    /// Emit normally (possibly still PSN-skewed or MSN-staled).
    Deliver,
    /// Swallow it; the requester recovers via timeout.
    Drop,
    /// Skip it; the next ACK covers it cumulatively.
    Coalesce,
}

/// The misbehavior plane one device consults at its emission points.
#[derive(Debug)]
pub struct QuirkPlane {
    knobs: QuirkKnobs,
    rng: SimRng,
    stats: QuirkStats,
    /// QPs whose previous ACK was coalesced (never coalesce twice in a
    /// row, so the peer always makes progress eventually).
    coalesce_armed: BTreeMap<u32, bool>,
    /// Last data frame emitted per QP, for ghost retransmission. One
    /// frame per QP, shared-buffer clones: memory stays bounded by the
    /// QP count.
    last_data: BTreeMap<u32, Frame>,
}

impl QuirkPlane {
    /// Build a plane from knobs and a pre-forked RNG (see [`node_rng`]).
    ///
    /// [`node_rng`]: QuirkPlane::node_rng
    pub fn new(knobs: QuirkKnobs, rng: SimRng) -> QuirkPlane {
        QuirkPlane {
            knobs,
            rng,
            stats: QuirkStats::default(),
            coalesce_armed: BTreeMap::new(),
            last_data: BTreeMap::new(),
        }
    }

    /// The per-node quirk RNG: seed XOR [`QUIRK_SEED_SALT`], forked by a
    /// per-node salt. Mirrors `FaultPlane::node_rng` so every optional
    /// plane follows the same never-touch-the-engine-RNG discipline.
    pub fn node_rng(seed: u64, salt: u64) -> SimRng {
        SimRng::seed_from_u64(seed ^ QUIRK_SEED_SALT).fork(salt)
    }

    /// Counts of quirks fired so far.
    pub fn stats(&self) -> &QuirkStats {
        &self.stats
    }

    /// Decide what happens to an outgoing ACK of `qpn`.
    pub fn ack_fate(&mut self, qpn: u32) -> AckFate {
        if self.rng.chance(self.knobs.ack_drop) {
            self.stats.acks_dropped += 1;
            return AckFate::Drop;
        }
        let armed = self.coalesce_armed.entry(qpn).or_insert(false);
        if !*armed && self.rng.chance(self.knobs.ack_coalesce) {
            *armed = true;
            self.stats.acks_coalesced += 1;
            return AckFate::Coalesce;
        }
        *armed = false;
        AckFate::Deliver
    }

    /// Linear-PSN skew to add to an outgoing ACK (0 = honest).
    pub fn ack_psn_skew(&mut self) -> u64 {
        if self.rng.chance(self.knobs.wrong_ack_psn) {
            self.stats.wrong_ack_psn += 1;
            WRONG_ACK_SKEW
        } else {
            0
        }
    }

    /// The MSN to report in an AETH, possibly two messages stale.
    pub fn msn_override(&mut self, msn: u32) -> u32 {
        if self.rng.chance(self.knobs.stale_msn) {
            self.stats.stale_msn += 1;
            msn.wrapping_sub(2) & 0xff_ffff
        } else {
            msn
        }
    }

    /// True when a limiter-approved CNP should be eaten.
    pub fn suppress_cnp(&mut self) -> bool {
        let fire = self.rng.chance(self.knobs.cnp_suppress);
        if fire {
            self.stats.cnps_suppressed += 1;
        }
        fire
    }

    /// True when an unsolicited CNP should be emitted for a CE-less
    /// data packet.
    pub fn spurious_cnp(&mut self) -> bool {
        let fire = self.rng.chance(self.knobs.cnp_spurious);
        if fire {
            self.stats.cnps_spurious += 1;
        }
        fire
    }

    /// Linear-PSN skew to add to an outgoing Go-back-N NACK.
    pub fn nack_skew(&mut self) -> u64 {
        if self.rng.chance(self.knobs.gbn_off_by_one) {
            self.stats.nacks_off_by_one += 1;
            1
        } else {
            0
        }
    }

    /// Corrupt the ICRC trailer (last four bytes) of an outgoing frame.
    /// Returns true when the frame was mangled.
    pub fn maybe_corrupt_icrc(&mut self, frame: &mut Frame) -> bool {
        if !self.rng.chance(self.knobs.icrc_corrupt) {
            return false;
        }
        let buf = frame.make_mut();
        let n = buf.len();
        if n < 4 {
            return false;
        }
        buf[n - 1] ^= 0x5a;
        self.stats.icrc_corrupted += 1;
        true
    }

    /// Remember `cur` as the latest data frame of `qpn`; occasionally
    /// hand back the *previous* one for re-emission (a ghost
    /// retransmit: a duplicate no loss, NACK or timeout asked for).
    pub fn ghost_frame(&mut self, qpn: u32, cur: &Frame) -> Option<Frame> {
        let prev = if self.rng.chance(self.knobs.ghost_retransmit) {
            self.last_data.get(&qpn).cloned()
        } else {
            None
        };
        self.last_data.insert(qpn, cur.clone());
        if prev.is_some() {
            self.stats.ghost_retransmits += 1;
        }
        prev
    }
}

impl Rnic {
    /// Counts of quirks fired, when a plane is attached.
    pub fn quirk_stats(&self) -> Option<&QuirkStats> {
        self.quirks.as_ref().map(QuirkPlane::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_rng_is_decoupled_from_the_engine_stream() {
        // Same numeric seed, different salt-domains: the quirk stream
        // must not replay the engine stream.
        let mut engine = SimRng::seed_from_u64(1);
        let mut quirk = QuirkPlane::node_rng(1, 1);
        let e: Vec<u64> = (0..8).map(|_| engine.below(1 << 30)).collect();
        let q: Vec<u64> = (0..8).map(|_| quirk.below(1 << 30)).collect();
        assert_ne!(e, q);
    }

    #[test]
    fn node_rng_replays_per_seed_and_salt() {
        let a: Vec<u64> = {
            let mut r = QuirkPlane::node_rng(7, 2);
            (0..8).map(|_| r.below(1000)).collect()
        };
        let b: Vec<u64> = {
            let mut r = QuirkPlane::node_rng(7, 2);
            (0..8).map(|_| r.below(1000)).collect()
        };
        let c: Vec<u64> = {
            let mut r = QuirkPlane::node_rng(7, 3);
            (0..8).map(|_| r.below(1000)).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn coalesce_never_fires_twice_in_a_row_per_qp() {
        let knobs = QuirkKnobs {
            ack_coalesce: 1.0,
            ..QuirkKnobs::default()
        };
        let mut plane = QuirkPlane::new(knobs, QuirkPlane::node_rng(3, 1));
        let fates: Vec<AckFate> = (0..6).map(|_| plane.ack_fate(42)).collect();
        for w in fates.windows(2) {
            assert!(
                !(w[0] == AckFate::Coalesce && w[1] == AckFate::Coalesce),
                "back-to-back coalesce would deadlock the requester"
            );
        }
        assert!(fates.contains(&AckFate::Coalesce));
        assert_eq!(plane.stats().acks_coalesced, 3);
    }

    #[test]
    fn zero_knobs_never_fire() {
        let mut plane = QuirkPlane::new(QuirkKnobs::default(), QuirkPlane::node_rng(1, 1));
        for _ in 0..64 {
            assert_eq!(plane.ack_fate(1), AckFate::Deliver);
            assert_eq!(plane.ack_psn_skew(), 0);
            assert_eq!(plane.msn_override(5), 5);
            assert!(!plane.suppress_cnp());
            assert!(!plane.spurious_cnp());
            assert_eq!(plane.nack_skew(), 0);
        }
        assert_eq!(plane.stats().total(), 0);
        assert!(!QuirkKnobs::default().any());
    }

    #[test]
    fn icrc_corruption_flips_the_trailer_only() {
        let knobs = QuirkKnobs {
            icrc_corrupt: 1.0,
            ..QuirkKnobs::default()
        };
        let mut plane = QuirkPlane::new(knobs, QuirkPlane::node_rng(1, 1));
        let mut frame = Frame::from_vec(vec![0u8; 64]);
        assert!(plane.maybe_corrupt_icrc(&mut frame));
        let bytes = frame.as_slice();
        assert_eq!(bytes[63], 0x5a);
        assert!(bytes[..63].iter().all(|&b| b == 0));
        assert_eq!(plane.stats().icrc_corrupted, 1);
    }

    #[test]
    fn ghost_returns_the_previous_frame() {
        let knobs = QuirkKnobs {
            ghost_retransmit: 1.0,
            ..QuirkKnobs::default()
        };
        let mut plane = QuirkPlane::new(knobs, QuirkPlane::node_rng(1, 1));
        let f1 = Frame::from_vec(vec![1u8; 8]);
        let f2 = Frame::from_vec(vec![2u8; 8]);
        assert!(plane.ghost_frame(9, &f1).is_none(), "nothing to ghost yet");
        let ghost = plane.ghost_frame(9, &f2).expect("previous frame replayed");
        assert_eq!(ghost.as_slice(), f1.as_slice());
        assert_eq!(plane.stats().ghost_retransmits, 1);
    }
}
