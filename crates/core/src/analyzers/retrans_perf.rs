//! Retransmission performance analyzer (§4, Figure 5): break each
//! loss-recovery into the NACK *generation* phase (receiver: out-of-order
//! packet in → NACK out) and the NACK *reaction* phase (sender: NACK in →
//! retransmission out), both measured at the switch.
//!
//! As the paper notes, switch-side timestamps embed roughly half an RTT
//! into each phase; callers can pre-measure the base RTT and pass it for
//! subtraction.
//!
//! The breakdowns are a view of the RC replay ([`super::conformance`]),
//! which hands the view each connection's data packets and NACKs as it
//! streams: `run` reads them off stage 5's replay and `ingest` off its
//! discovery-mode one.

use super::conformance::{self, ConformanceOpts};
use crate::translate::ConnMeta;
use lumina_dumper::Trace;
use lumina_packet::bth::psn_distance;
use lumina_sim::SimTime;
use lumina_switch::events::EventType;
use serde::{Deserialize, Serialize};

/// How the loss was recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetransKind {
    /// Fast retransmission triggered by a NACK / re-issued read request.
    Fast,
    /// Timeout retransmission (tail loss: nothing arrived out of order).
    Timeout,
}

/// One recovered loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetransBreakdown {
    /// Connection the loss belongs to.
    pub conn_index: u32,
    /// Wire PSN of the dropped packet.
    pub dropped_psn: u32,
    /// Recovery mechanism.
    pub kind: RetransKind,
    /// Drop-event time at the switch.
    pub t_drop: SimTime,
    /// First subsequent data packet (the out-of-order trigger), if any.
    pub t_ooo: Option<SimTime>,
    /// NACK (or re-issued read request) time, if fast recovery.
    pub t_nack: Option<SimTime>,
    /// Retransmitted packet time.
    pub t_retx: SimTime,
    /// Measured NACK generation latency (`t_nack − t_ooo`).
    pub nack_gen: Option<SimTime>,
    /// Measured NACK reaction latency (`t_retx − t_nack`).
    pub nack_react: Option<SimTime>,
}

impl RetransBreakdown {
    /// Total recovery latency: drop to retransmission.
    pub fn total(&self) -> SimTime {
        self.t_retx.saturating_since(self.t_drop)
    }

    /// Generation latency with half the given base RTT subtracted (the
    /// correction §4 describes).
    pub fn nack_gen_corrected(&self, base_rtt: SimTime) -> Option<SimTime> {
        self.nack_gen
            .map(|g| g.saturating_since(SimTime::from_nanos(base_rtt.as_nanos() / 2)))
    }

    /// Reaction latency with half the given base RTT subtracted.
    pub fn nack_react_corrected(&self, base_rtt: SimTime) -> Option<SimTime> {
        self.nack_react
            .map(|r| r.saturating_since(SimTime::from_nanos(base_rtt.as_nanos() / 2)))
    }
}

/// Analyze every injected drop in the trace: the breakdowns of a replay of
/// its own (the oracle's options do not change what the view sees). A
/// run's report takes them from the replay that grades it instead.
pub fn analyze(trace: &Trace, conns: &[ConnMeta]) -> Vec<RetransBreakdown> {
    conformance::replay(trace, conns, &ConformanceOpts::default())
        .1
        .retransmissions
}

/// One dropped data packet and what the stream has shown since.
#[derive(Default)]
struct Loss {
    psn: u32,
    t_drop: SimTime,
    t_ooo: Option<SimTime>,
    t_nack: Option<SimTime>,
    t_retx: Option<SimTime>,
}

/// The retransmission view of one connection's replay: the RC replay
/// hands it the connection's data packets and the NACKs (or re-issued read
/// requests) that flow against them. A loss stays open to the end of the
/// stream, because its trigger and its NACK may come after its
/// retransmission.
#[derive(Default)]
pub(super) struct RetransView {
    losses: Vec<Loss>,
    /// Positions in `losses` still waiting for a data packet: the trigger
    /// or the retransmission.
    want_data: Vec<usize>,
    /// Positions in `losses` still waiting for their NACK.
    want_nack: Vec<usize>,
    /// Losses recorded at most (discovery mode); `None` records every one.
    pub(super) cap: Option<usize>,
}

impl RetransView {
    /// A data packet of the connection: the out-of-order trigger of every
    /// earlier loss below it unless it was dropped too, the
    /// retransmission of an earlier loss of its PSN, and a loss of its own
    /// when it was dropped.
    pub(super) fn data(&mut self, psn: u32, event: EventType, t: SimTime) {
        let losses = &mut self.losses;
        self.want_data.retain(|&at| {
            let Some(loss) = losses.get_mut(at) else {
                return false;
            };
            if loss.t_ooo.is_none() && event != EventType::Drop && psn_distance(loss.psn, psn) > 0 {
                loss.t_ooo = Some(t);
            }
            if loss.t_retx.is_none() && loss.psn == psn {
                loss.t_retx = Some(t);
            }
            loss.t_ooo.is_none() || loss.t_retx.is_none()
        });
        let recorded = self.losses.len();
        if event == EventType::Drop && self.cap.is_none_or(|cap| recorded < cap) {
            self.want_data.push(recorded);
            self.want_nack.push(recorded);
            self.losses.push(Loss {
                psn,
                t_drop: t,
                ..Loss::default()
            });
        }
    }

    /// A sequence-error NACK (write/send) or a read request (read) naming
    /// `psn`: the NACK of every earlier loss of that PSN.
    pub(super) fn nack(&mut self, psn: u32, t: SimTime) {
        let losses = &mut self.losses;
        self.want_nack.retain(|&at| match losses.get_mut(at) {
            Some(loss) if loss.psn == psn => {
                loss.t_nack = Some(t);
                false
            }
            Some(_) => true,
            None => false,
        });
    }

    /// The breakdown of every retransmitted loss, in stream order; a loss
    /// never retransmitted (retry exhaustion) has none.
    pub(super) fn finish(self, conn_index: u32, out: &mut Vec<RetransBreakdown>) {
        out.extend(self.losses.into_iter().filter_map(|loss| {
            let t_retx = loss.t_retx?;
            let (kind, nack_gen, nack_react) = match (loss.t_nack, loss.t_ooo) {
                (Some(tn), Some(to)) if tn <= t_retx => (
                    RetransKind::Fast,
                    Some(tn.saturating_since(to)),
                    Some(t_retx.saturating_since(tn)),
                ),
                _ => (RetransKind::Timeout, None, None),
            };
            Some(RetransBreakdown {
                conn_index,
                dropped_psn: loss.psn,
                kind,
                t_drop: loss.t_drop,
                t_ooo: loss.t_ooo,
                t_nack: loss.t_nack,
                t_retx,
                nack_gen,
                nack_react,
            })
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestConfig;
    use crate::orchestrator::run_test;

    fn run(nic: &str, verb: &str, drop_psn: u32) -> (Vec<RetransBreakdown>, SimTime) {
        let yaml = format!(
            r#"
requester: {{ nic-type: {nic} }}
responder: {{ nic-type: {nic} }}
traffic:
  num-connections: 1
  rdma-verb: {verb}
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 102400
  data-pkt-events:
    - {{qpn: 1, psn: {drop_psn}, type: drop, iter: 1}}
"#
        );
        let cfg = TestConfig::from_yaml(&yaml).unwrap();
        let res = run_test(&cfg).unwrap();
        assert!(res.integrity.passed(), "{:?}", res.integrity);
        assert!(res.traffic_completed());
        let rtt = SimTime::from_nanos(2 * (2 * cfg.network.propagation_delay_ns + 380));
        (analyze(res.trace.as_ref().unwrap(), &res.conns), rtt)
    }

    #[test]
    fn write_drop_breakdown_cx5() {
        let (b, _rtt) = run("cx5", "write", 50);
        assert_eq!(b.len(), 1);
        let r = &b[0];
        assert_eq!(r.kind, RetransKind::Fast);
        // Generation ≈ profile's ~2 µs plus ~half RTT; well under 10 µs.
        let gen = r.nack_gen.unwrap();
        assert!(gen >= SimTime::from_nanos(1_500), "gen {gen}");
        assert!(gen < SimTime::from_micros(10), "gen {gen}");
        let react = r.nack_react.unwrap();
        assert!(react < SimTime::from_micros(12), "react {react}");
        assert!(r.total() >= gen);
    }

    #[test]
    fn write_drop_breakdown_cx4_much_slower_react() {
        let (b, _) = run("cx4", "write", 50);
        let react_cx4 = b[0].nack_react.unwrap();
        let (b5, _) = run("cx5", "write", 50);
        let react_cx5 = b5[0].nack_react.unwrap();
        // Figure 9a: CX4 Lx reacts in the hundreds of µs, CX5 in single
        // digits.
        assert!(react_cx4 >= SimTime::from_micros(100), "{react_cx4}");
        assert!(react_cx4.as_nanos() > 10 * react_cx5.as_nanos());
    }

    #[test]
    fn read_drop_breakdown_e810_slow_generation() {
        let (b, _) = run("e810", "read", 50);
        assert_eq!(b.len(), 1);
        let gen = b[0].nack_gen.unwrap();
        // Figure 8b: ~83 ms.
        assert!(gen >= SimTime::from_millis(80), "gen {gen}");
        assert!(gen <= SimTime::from_millis(90), "gen {gen}");
    }

    #[test]
    fn tail_drop_classified_as_timeout() {
        // Last packet of the only message: no OOO trigger exists.
        let (b, _) = run("cx5", "write", 100);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].kind, RetransKind::Timeout);
        assert!(b[0].nack_gen.is_none());
        // Timeout at code 14 ≈ 67 ms.
        assert!(b[0].total() >= SimTime::from_millis(60));
    }

    #[test]
    fn half_rtt_correction_reduces_measurement() {
        let (b, rtt) = run("cx5", "write", 50);
        let raw = b[0].nack_gen.unwrap();
        let corrected = b[0].nack_gen_corrected(rtt).unwrap();
        assert!(corrected < raw);
    }
}
