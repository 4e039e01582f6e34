//! RNIC misbehavior plane: seeded, deterministic spec violations.
//!
//! Lumina's headline results (Table 2) are real RNICs *violating* the
//! RoCEv2/RC specification. The behavioral models in this crate are
//! well-behaved by construction, which leaves the conformance analyzers
//! untestable against the very misbehavior they exist to catch. A
//! [`QuirkPlane`] attached to an [`Rnic`] makes the model emit the
//! spec-violating traffic each [`Quirk`] describes, on demand.
//!
//! A quirk's row in one table names its `quirks:` config key and its
//! [`QuirkStats`] key. The config section, its validation, the fuzzer's
//! mutator and shrinker and the report all walk that table, so adding a
//! quirk takes a variant, a table row and a hook on [`QuirkPlane`] that
//! fires it.
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
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

/// XOR'd into the quirk seed before any fork, so a config sharing one
/// `seed` value between `network:` and `quirks:` still gives the plane a
/// stream unrelated to the engine's.
pub const QUIRK_SEED_SALT: u64 = 0x0bad_cab1_e0dd_b175;

/// How far beyond the honest PSN a wrong-ACK-PSN quirk acknowledges.
/// Four packets is beyond anything in flight at the instant the ACK is
/// generated (the honest ACK acknowledges the *last received* packet),
/// so the conformance oracle sees an ACK for unsent PSN space.
pub const WRONG_ACK_SKEW: u64 = 4;

/// One DUT misbehavior. The declaration order is the index order of
/// [`QuirkKnobs`] and [`QuirkStats`], of the config keys and of the
/// fuzzer's draws, so a new quirk goes last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quirk {
    /// Wrong ACK PSN: an outgoing ACK acknowledges [`WRONG_ACK_SKEW`]
    /// packets the peer never transmitted.
    WrongAckPsn,
    /// Dropped ACK: an outgoing ACK is silently swallowed.
    AckDrop,
    /// Coalesced ACK: an outgoing ACK is skipped so a later cumulative ACK
    /// covers the gap (never two in a row per QP, so progress survives).
    AckCoalesce,
    /// Suppressed CNP: a CNP the notification-point limiter approved is
    /// eaten.
    CnpSuppress,
    /// Spurious CNP: a CNP is emitted for a data packet with no CE mark.
    CnpSpurious,
    /// Ghost retransmit: after a data packet, the previous one is
    /// re-emitted with no loss, NACK or timeout asking for it.
    GhostRetransmit,
    /// Stale MSN: an AETH reports the MSN from two messages ago.
    StaleMsn,
    /// Go-back-N off-by-one: a NACK asks for one PSN beyond the expected
    /// one.
    GbnOffByOne,
    /// ICRC miscompute: the ICRC trailer of an outgoing data frame is
    /// corrupted.
    IcrcCorrupt,
}

/// Each quirk's `quirks:` config key and [`QuirkStats`] key, indexed by
/// [`Quirk`]: the one place a quirk is named.
const QUIRK_KEYS: [(&str, &str); Quirk::COUNT] = [
    ("wrong-ack-psn-prob", "wrong_ack_psn"),
    ("ack-drop-prob", "acks_dropped"),
    ("ack-coalesce-prob", "acks_coalesced"),
    ("cnp-suppress-prob", "cnps_suppressed"),
    ("cnp-spurious-prob", "cnps_spurious"),
    ("ghost-retransmit-prob", "ghost_retransmits"),
    ("stale-msn-prob", "stale_msn"),
    ("gbn-off-by-one-prob", "nacks_off_by_one"),
    ("icrc-corrupt-prob", "icrc_corrupted"),
];

impl Quirk {
    /// How many quirks there are.
    pub const COUNT: usize = 9;

    /// Every quirk, in index order.
    pub const ALL: [Quirk; Quirk::COUNT] = [
        Quirk::WrongAckPsn,
        Quirk::AckDrop,
        Quirk::AckCoalesce,
        Quirk::CnpSuppress,
        Quirk::CnpSpurious,
        Quirk::GhostRetransmit,
        Quirk::StaleMsn,
        Quirk::GbnOffByOne,
        Quirk::IcrcCorrupt,
    ];

    /// Its firing-probability key in a `quirks:` config section.
    pub fn config_key(self) -> &'static str {
        QUIRK_KEYS[self as usize].0
    }

    /// Its key in a serialized [`QuirkStats`].
    pub fn stats_key(self) -> &'static str {
        QUIRK_KEYS[self as usize].1
    }
}

/// One value per [`Quirk`], indexed by it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerQuirk<T>([T; Quirk::COUNT]);

/// Per-quirk firing probabilities, all `0.0..=1.0`. Plain data so the
/// config crate can map its `quirks:` section here without a dependency
/// cycle.
pub type QuirkKnobs = PerQuirk<f64>;

/// How many quirks of each kind actually fired on one device.
pub type QuirkStats = PerQuirk<u64>;

impl<T> PerQuirk<T> {
    /// These values with `q`'s set to `v`.
    pub fn with(mut self, q: Quirk, v: T) -> Self {
        self[q] = v;
        self
    }
}

impl<T> Index<Quirk> for PerQuirk<T> {
    type Output = T;
    fn index(&self, q: Quirk) -> &T {
        &self.0[q as usize]
    }
}

impl<T> IndexMut<Quirk> for PerQuirk<T> {
    fn index_mut(&mut self, q: Quirk) -> &mut T {
        &mut self.0[q as usize]
    }
}

impl QuirkKnobs {
    /// True when at least one knob can ever fire.
    pub fn any(&self) -> bool {
        self.0.iter().any(|&p| p > 0.0)
    }
}

impl QuirkStats {
    /// Fold another device's counts into this one.
    pub fn merge(&mut self, other: &QuirkStats) {
        for (n, m) in self.0.iter_mut().zip(other.0) {
            *n += m;
        }
    }

    /// Total quirks fired, any kind.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// One key per quirk, [`Quirk::stats_key`], in index order.
impl Serialize for QuirkStats {
    fn serialize(&self) -> Value {
        Value::Object(
            Quirk::ALL
                .into_iter()
                .map(|q| (q.stats_key().to_string(), self[q].serialize()))
                .collect(),
        )
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
    /// per-node salt. Mirrors `lumina_sim::faults::node_rng` so every optional
    /// plane follows the same never-touch-the-engine-RNG discipline.
    pub fn node_rng(seed: u64, salt: u64) -> SimRng {
        SimRng::seed_from_u64(seed ^ QUIRK_SEED_SALT).fork(salt)
    }

    /// Counts of quirks fired so far.
    pub fn stats(&self) -> &QuirkStats {
        &self.stats
    }

    /// Draw `q`'s chance; count it when it fires.
    fn roll(&mut self, q: Quirk) -> bool {
        let fire = self.rng.chance(self.knobs[q]);
        self.stats[q] += u64::from(fire);
        fire
    }

    /// Decide what happens to an outgoing ACK of `qpn`.
    pub fn ack_fate(&mut self, qpn: u32) -> AckFate {
        if self.roll(Quirk::AckDrop) {
            return AckFate::Drop;
        }
        let armed = self.coalesce_armed.get(&qpn).copied().unwrap_or(false);
        let coalesce = !armed && self.roll(Quirk::AckCoalesce);
        self.coalesce_armed.insert(qpn, coalesce);
        if coalesce {
            AckFate::Coalesce
        } else {
            AckFate::Deliver
        }
    }

    /// Linear-PSN skew to add to an outgoing ACK (0 = honest).
    pub fn ack_psn_skew(&mut self) -> u64 {
        if self.roll(Quirk::WrongAckPsn) {
            WRONG_ACK_SKEW
        } else {
            0
        }
    }

    /// The MSN to report in an AETH, possibly two messages stale.
    pub fn msn_override(&mut self, msn: u32) -> u32 {
        if self.roll(Quirk::StaleMsn) {
            msn.wrapping_sub(2) & 0xff_ffff
        } else {
            msn
        }
    }

    /// True when a limiter-approved CNP should be eaten.
    pub fn suppress_cnp(&mut self) -> bool {
        self.roll(Quirk::CnpSuppress)
    }

    /// True when an unsolicited CNP should be emitted for a CE-less
    /// data packet.
    pub fn spurious_cnp(&mut self) -> bool {
        self.roll(Quirk::CnpSpurious)
    }

    /// Linear-PSN skew to add to an outgoing Go-back-N NACK.
    pub fn nack_skew(&mut self) -> u64 {
        u64::from(self.roll(Quirk::GbnOffByOne))
    }

    /// Corrupt the ICRC trailer (last four bytes) of an outgoing frame.
    /// Returns true when the frame was mangled; only then is it counted.
    pub fn maybe_corrupt_icrc(&mut self, frame: &mut Frame) -> bool {
        if !self.rng.chance(self.knobs[Quirk::IcrcCorrupt]) {
            return false;
        }
        let buf = frame.make_mut();
        let n = buf.len();
        if n < 4 {
            return false;
        }
        buf[n - 1] ^= 0x5a;
        self.stats[Quirk::IcrcCorrupt] += 1;
        true
    }

    /// Remember `cur` as the latest data frame of `qpn`; occasionally
    /// hand back the *previous* one for re-emission (a ghost
    /// retransmit: a duplicate no loss, NACK or timeout asked for).
    /// Counted only when there was a previous frame to hand back.
    pub fn ghost_frame(&mut self, qpn: u32, cur: &Frame) -> Option<Frame> {
        let prev = if self.rng.chance(self.knobs[Quirk::GhostRetransmit]) {
            self.last_data.get(&qpn).cloned()
        } else {
            None
        };
        self.last_data.insert(qpn, cur.clone());
        if prev.is_some() {
            self.stats[Quirk::GhostRetransmit] += 1;
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
        let knobs = QuirkKnobs::default().with(Quirk::AckCoalesce, 1.0);
        let mut plane = QuirkPlane::new(knobs, QuirkPlane::node_rng(3, 1));
        let fates: Vec<AckFate> = (0..6).map(|_| plane.ack_fate(42)).collect();
        for w in fates.windows(2) {
            assert!(
                !(w[0] == AckFate::Coalesce && w[1] == AckFate::Coalesce),
                "back-to-back coalesce would deadlock the requester"
            );
        }
        assert!(fates.contains(&AckFate::Coalesce));
        assert_eq!(plane.stats()[Quirk::AckCoalesce], 3);
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
        let knobs = QuirkKnobs::default().with(Quirk::IcrcCorrupt, 1.0);
        let mut plane = QuirkPlane::new(knobs, QuirkPlane::node_rng(1, 1));
        let mut frame = Frame::from_vec(vec![0u8; 64]);
        assert!(plane.maybe_corrupt_icrc(&mut frame));
        let bytes = frame.as_slice();
        assert_eq!(bytes[63], 0x5a);
        assert!(bytes[..63].iter().all(|&b| b == 0));
        assert_eq!(plane.stats()[Quirk::IcrcCorrupt], 1);
    }

    #[test]
    fn ghost_returns_the_previous_frame() {
        let knobs = QuirkKnobs::default().with(Quirk::GhostRetransmit, 1.0);
        let mut plane = QuirkPlane::new(knobs, QuirkPlane::node_rng(1, 1));
        let f1 = Frame::from_vec(vec![1u8; 8]);
        let f2 = Frame::from_vec(vec![2u8; 8]);
        assert!(plane.ghost_frame(9, &f1).is_none(), "nothing to ghost yet");
        let ghost = plane.ghost_frame(9, &f2).expect("previous frame replayed");
        assert_eq!(ghost.as_slice(), f1.as_slice());
        assert_eq!(plane.stats()[Quirk::GhostRetransmit], 1);
    }

    #[test]
    fn all_lists_the_quirks_in_index_order() {
        // The fuzzer's `rng.index` draws and the shrinker's clearing order
        // walk this list: its order is part of every campaign's bytes.
        let keys: Vec<&str> = Quirk::ALL.iter().map(|q| q.config_key()).collect();
        assert_eq!(
            keys,
            [
                "wrong-ack-psn-prob",
                "ack-drop-prob",
                "ack-coalesce-prob",
                "cnp-suppress-prob",
                "cnp-spurious-prob",
                "ghost-retransmit-prob",
                "stale-msn-prob",
                "gbn-off-by-one-prob",
                "icrc-corrupt-prob",
            ]
        );
        for (i, q) in Quirk::ALL.into_iter().enumerate() {
            assert_eq!(q as usize, i, "{q:?}");
        }
    }

    #[test]
    fn the_table_names_are_distinct() {
        let mut names: Vec<&str> = Quirk::ALL
            .iter()
            .flat_map(|q| [q.config_key(), q.stats_key()])
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 2 * Quirk::COUNT, "{names:?}");
    }

    #[test]
    fn stats_serialize_one_key_per_quirk_in_order() {
        let mut plane = QuirkPlane::new(
            QuirkKnobs::default().with(Quirk::StaleMsn, 1.0),
            QuirkPlane::node_rng(1, 1),
        );
        plane.msn_override(9);
        let mut stats = *plane.stats();
        stats.merge(plane.stats());
        assert_eq!(stats.total(), 2);
        assert_eq!(
            serde_json::to_string(&stats).unwrap(),
            "{\"wrong_ack_psn\":0,\"acks_dropped\":0,\"acks_coalesced\":0,\
             \"cnps_suppressed\":0,\"cnps_spurious\":0,\"ghost_retransmits\":0,\
             \"stale_msn\":2,\"nacks_off_by_one\":0,\"icrc_corrupted\":0}"
        );
    }
}
