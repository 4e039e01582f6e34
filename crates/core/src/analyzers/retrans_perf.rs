//! Retransmission performance analyzer (§4, Figure 5): break each
//! loss-recovery into the NACK *generation* phase (receiver: out-of-order
//! packet in → NACK out) and the NACK *reaction* phase (sender: NACK in →
//! retransmission out), both measured at the switch.
//!
//! As the paper notes, switch-side timestamps embed roughly half an RTT
//! into each phase; callers can pre-measure the base RTT and pass it for
//! subtraction.

use super::ConnIndex;
use crate::translate::ConnMeta;
use lumina_dumper::{Trace, TraceEntry};
use lumina_packet::bth::psn_distance;
use lumina_packet::opcode::Opcode;
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

/// Analyze every injected drop in the trace.
pub fn analyze(trace: &Trace, conns: &[ConnMeta]) -> Vec<RetransBreakdown> {
    analyze_routed(&ConnIndex::build(trace, conns), conns)
}

/// [`analyze`] over a trace already split by connection (`index` was built
/// from `conns`).
pub(crate) fn analyze_routed(index: &ConnIndex<'_>, conns: &[ConnMeta]) -> Vec<RetransBreakdown> {
    let mut out = Vec::new();
    for (conn, meta) in conns.iter().enumerate() {
        analyze_conn(index.of_conn(conn), meta, &mut out);
    }
    out
}

/// `entries` holds, in trace order, at least every entry of the connection
/// (either direction); whatever else it holds is told apart here.
fn analyze_conn(entries: &[&TraceEntry], meta: &ConnMeta, out: &mut Vec<RetransBreakdown>) {
    let key = meta.data_conn_key();
    let is_read = meta.verb.data_from_responder();

    let is_data = |f: &lumina_packet::RoceFrame| {
        f.ipv4.src == key.src_ip
            && f.ipv4.dst == key.dst_ip
            && f.bth.dest_qp == key.dst_qpn
            && f.bth.opcode.is_data()
            && (is_read == f.bth.opcode.is_read_response())
    };

    // Drop events on this connection's data packets, each with what
    // followed it.
    let drops = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.event == EventType::Drop && is_data(&e.frame));

    for (di, dropped) in drops {
        let after = entries.get(di + 1..).unwrap_or_default();
        let psn = dropped.frame.bth.psn;
        // The out-of-order trigger: the next delivered data packet with a
        // higher PSN.
        let t_ooo = after
            .iter()
            .find(|e| {
                is_data(&e.frame)
                    && e.event != EventType::Drop
                    && psn_distance(psn, e.frame.bth.psn) > 0
            })
            .map(|e| e.timestamp);
        // The NACK: write/send → seq-err NACK with the dropped PSN;
        // read → re-issued read request with the dropped PSN.
        let reverse_qpn = meta.reverse_qpn();
        let t_nack = after.iter().find_map(|e| {
            let f = &e.frame;
            let reverse = f.ipv4.src == key.dst_ip
                && f.ipv4.dst == key.src_ip
                && f.bth.dest_qp == reverse_qpn;
            if !reverse {
                return None;
            }
            let hit = if is_read {
                f.bth.opcode == Opcode::RdmaReadRequest && f.bth.psn == psn
            } else {
                f.bth.opcode == Opcode::Acknowledge
                    && f.ext
                        .aeth
                        .map(|a| a.syndrome.is_seq_err_nak())
                        .unwrap_or(false)
                    && f.bth.psn == psn
            };
            hit.then_some(e.timestamp)
        });
        // The retransmission: the same PSN reappearing on the data path.
        let Some(retx) = after
            .iter()
            .find(|e| is_data(&e.frame) && e.frame.bth.psn == psn)
        else {
            continue; // never retransmitted (retry exhaustion)
        };
        let t_retx = retx.timestamp;
        let (kind, nack_gen, nack_react) = match (t_nack, t_ooo) {
            (Some(tn), Some(to)) if tn <= t_retx => (
                RetransKind::Fast,
                Some(tn.saturating_since(to)),
                Some(t_retx.saturating_since(tn)),
            ),
            _ => (RetransKind::Timeout, None, None),
        };
        out.push(RetransBreakdown {
            conn_index: meta.index,
            dropped_psn: psn,
            kind,
            t_drop: dropped.timestamp,
            t_ooo,
            t_nack,
            t_retx,
            nack_gen,
            nack_react,
        });
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
