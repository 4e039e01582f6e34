//! Go-back-N retransmission-logic analyzer (§4, "Retransmission logic").
//!
//! The Go-back-N specification is represented as a state machine executed
//! over the reconstructed trace: the analyzer replays what the *receiver*
//! of data packets saw (a packet mirrored with a `drop` or `corrupt` event
//! never reached it) and validates that
//!
//! * a sequence-error NACK is generated exactly when an out-of-order
//!   packet arrives, carries the receiver's expected PSN, and is not
//!   repeated within one out-of-sequence episode;
//! * after a NACK, the sender resumes transmission exactly at the NACKed
//!   PSN (Go-back-N, not selective repeat);
//! * positive ACK PSNs never regress.
//!
//! For Read traffic the "NACK" is the re-issued read request (§6.1) and
//! the same rules apply to its PSN.

use super::ConnIndex;
use crate::translate::ConnMeta;
use lumina_dumper::{Trace, TraceEntry};
use lumina_packet::bth::psn_distance;
use lumina_packet::opcode::Opcode;
use lumina_switch::events::EventType;
use serde::{Deserialize, Serialize};

/// Per-connection compliance report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ConnGbnReport {
    /// 1-based connection index.
    pub index: u32,
    /// The connection carried injected delay/reorder events. The mirror
    /// trace records ingress order, so the receiver's true arrival order
    /// is unknowable from the trace — FSM checks are skipped (both here
    /// and on the real Lumina, which mirrors before the displacement).
    pub displaced: bool,
    /// Specification violations found (empty = compliant).
    pub violations: Vec<String>,
    /// Sequence-error NACKs (or re-issued read requests) observed.
    pub nacks: u32,
    /// Out-of-sequence episodes the receiver experienced.
    pub ooo_episodes: u32,
    /// Positive ACKs observed.
    pub acks: u32,
    /// Data packets delivered in order.
    pub in_order: u64,
}

/// Whole-trace report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GbnReport {
    /// One report per connection.
    pub per_conn: Vec<ConnGbnReport>,
}

impl GbnReport {
    /// True when no connection violated the specification.
    pub fn compliant(&self) -> bool {
        self.per_conn.iter().all(|c| c.violations.is_empty())
    }

    /// All violations, flattened.
    pub fn violations(&self) -> Vec<String> {
        self.per_conn
            .iter()
            .flat_map(|c| c.violations.iter().cloned())
            .collect()
    }
}

/// Run the FSM over a trace.
pub fn analyze(trace: &Trace, conns: &[ConnMeta]) -> GbnReport {
    analyze_routed(&ConnIndex::build(trace, conns), conns)
}

/// [`analyze`] over a trace already split by connection (`index` was built
/// from `conns`).
pub(crate) fn analyze_routed(index: &ConnIndex<'_>, conns: &[ConnMeta]) -> GbnReport {
    let mut report = GbnReport::default();
    for (conn, meta) in conns.iter().enumerate() {
        report
            .per_conn
            .push(analyze_conn(index.of_conn(conn), meta));
    }
    report
}

/// `entries` holds, in trace order, at least every entry of the connection
/// (either direction); whatever else it holds is told apart here.
fn analyze_conn(entries: &[&TraceEntry], meta: &ConnMeta) -> ConnGbnReport {
    let mut rep = ConnGbnReport {
        index: meta.index,
        ..Default::default()
    };
    let data_key = meta.data_conn_key();
    let reverse_qpn = meta.reverse_qpn();
    let is_read = meta.verb.data_from_responder();

    // Receiver simulation state.
    let mut expected: u32 = meta.data_psn(1);
    let mut in_episode = false;
    let mut nack_sent_in_episode = false;
    let mut last_delivered_psn: Option<u32> = None;
    // Sender-side check state.
    let mut last_nack_psn: Option<u32> = None;
    let mut max_data_psn_seen: Option<u32> = None;
    let mut last_ack_psn: Option<u32> = None;

    for e in entries {
        let f = &e.frame;
        let on_data_key = f.ipv4.src == data_key.src_ip
            && f.ipv4.dst == data_key.dst_ip
            && f.bth.dest_qp == data_key.dst_qpn;
        // Displacement events make ingress order diverge from arrival
        // order; the FSM cannot be replayed from the trace (§7-extension
        // events), and what it replayed up to here is void.
        if on_data_key && matches!(e.event, EventType::Delay | EventType::Reorder) {
            return ConnGbnReport {
                index: meta.index,
                displaced: true,
                ..Default::default()
            };
        }
        let is_data_of_conn = on_data_key
            && f.bth.opcode.is_data()
            && if is_read {
                f.bth.opcode.is_read_response()
            } else {
                !f.bth.opcode.is_read_response()
            };
        // Control packets of interest flow opposite to the data, toward
        // the data sender's QPN.
        let is_reverse_of_conn = f.ipv4.src == data_key.dst_ip
            && f.ipv4.dst == data_key.src_ip
            && f.bth.dest_qp == reverse_qpn;

        if is_data_of_conn {
            // Go-back-N resumption check: a retransmission round must
            // start exactly at the NACKed PSN.
            if let Some(maxp) = max_data_psn_seen {
                if psn_distance(maxp, f.bth.psn) <= 0 {
                    // New round (mirrors the injector's ITER rule).
                    if let Some(nack_psn) = last_nack_psn.take() {
                        if f.bth.psn != nack_psn {
                            rep.violations.push(format!(
                                "conn {}: retransmission round started at PSN {} but the NACK asked for {}",
                                meta.index, f.bth.psn, nack_psn
                            ));
                        }
                    }
                }
            }
            if max_data_psn_seen.is_none_or(|m| psn_distance(m, f.bth.psn) > 0) {
                max_data_psn_seen = Some(f.bth.psn);
            }

            // Receiver view: dropped/corrupted packets never arrive.
            let delivered = !matches!(e.event, EventType::Drop | EventType::Corrupt);
            if delivered {
                // New-round arrival (PSN not larger than the previous
                // delivered one) ends the current OOO episode: a dropped
                // retransmission legitimately draws a fresh NACK.
                if let Some(last) = last_delivered_psn {
                    if psn_distance(last, f.bth.psn) <= 0 {
                        in_episode = false;
                        nack_sent_in_episode = false;
                    }
                }
                last_delivered_psn = Some(f.bth.psn);
                let d = psn_distance(expected, f.bth.psn);
                if d == 0 {
                    expected = lumina_packet::bth::psn_add(expected, 1);
                    rep.in_order += 1;
                    in_episode = false;
                    nack_sent_in_episode = false;
                } else if d > 0 && !in_episode {
                    in_episode = true;
                    rep.ooo_episodes += 1;
                }
                // d < 0: duplicate, no state change.
            }
        } else if is_reverse_of_conn {
            if !is_read && f.bth.opcode == Opcode::Acknowledge {
                if let Some(aeth) = f.ext.aeth {
                    if aeth.syndrome.is_seq_err_nak() {
                        rep.nacks += 1;
                        if !in_episode {
                            rep.violations.push(format!(
                                "conn {}: NACK (PSN {}) without an out-of-sequence episode",
                                meta.index, f.bth.psn
                            ));
                        } else if nack_sent_in_episode {
                            rep.violations.push(format!(
                                "conn {}: second NACK (PSN {}) within one episode",
                                meta.index, f.bth.psn
                            ));
                        }
                        if f.bth.psn != expected {
                            rep.violations.push(format!(
                                "conn {}: NACK carries PSN {} but the receiver expected {}",
                                meta.index, f.bth.psn, expected
                            ));
                        }
                        nack_sent_in_episode = true;
                        last_nack_psn = Some(f.bth.psn);
                    } else if aeth.syndrome.is_nak() {
                        // Other NAK codes are out of scope.
                    } else {
                        rep.acks += 1;
                        if let Some(prev) = last_ack_psn {
                            if psn_distance(prev, f.bth.psn) < 0 {
                                rep.violations.push(format!(
                                    "conn {}: ACK PSN regressed from {} to {}",
                                    meta.index, prev, f.bth.psn
                                ));
                            }
                        }
                        last_ack_psn = Some(f.bth.psn);
                    }
                }
            } else if is_read && f.bth.opcode == Opcode::RdmaReadRequest {
                // A re-issued read request inside an episode acts as the
                // NACK; the first request of each message is not.
                let d = psn_distance(expected, f.bth.psn);
                if in_episode {
                    rep.nacks += 1;
                    if nack_sent_in_episode {
                        rep.violations.push(format!(
                            "conn {}: second re-issued read request within one episode",
                            meta.index
                        ));
                    }
                    if d != 0 {
                        rep.violations.push(format!(
                            "conn {}: re-issued read request PSN {} but expected {}",
                            meta.index, f.bth.psn, expected
                        ));
                    }
                    nack_sent_in_episode = true;
                    last_nack_psn = Some(f.bth.psn);
                }
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestConfig;
    use crate::orchestrator::run_test;

    fn base_cfg(events: &str) -> TestConfig {
        TestConfig::from_yaml(&format!(
            r#"
requester: {{ nic-type: cx5 }}
responder: {{ nic-type: cx5 }}
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 10240
  data-pkt-events:
{events}
"#
        ))
        .unwrap()
    }

    #[test]
    fn clean_run_is_compliant() {
        let cfg = base_cfg("    []");
        let res = run_test(&cfg).unwrap();
        let rep = analyze(res.trace.as_ref().unwrap(), &res.conns);
        assert!(rep.compliant(), "{:?}", rep.violations());
        assert_eq!(rep.per_conn[0].nacks, 0);
        assert_eq!(rep.per_conn[0].ooo_episodes, 0);
        assert!(rep.per_conn[0].in_order >= 30);
        assert!(rep.per_conn[0].acks >= 3);
    }

    #[test]
    fn single_drop_is_compliant_with_one_nack() {
        let cfg = base_cfg("    - {qpn: 1, psn: 5, type: drop, iter: 1}");
        let res = run_test(&cfg).unwrap();
        let rep = analyze(res.trace.as_ref().unwrap(), &res.conns);
        assert!(rep.compliant(), "{:?}", rep.violations());
        assert_eq!(rep.per_conn[0].nacks, 1);
        assert_eq!(rep.per_conn[0].ooo_episodes, 1);
    }

    #[test]
    fn double_drop_two_episodes() {
        let cfg = base_cfg(
            "    - {qpn: 1, psn: 5, type: drop, iter: 1}\n    - {qpn: 1, psn: 5, type: drop, iter: 2}",
        );
        let res = run_test(&cfg).unwrap();
        assert!(res.traffic_completed());
        let rep = analyze(res.trace.as_ref().unwrap(), &res.conns);
        assert!(rep.compliant(), "{:?}", rep.violations());
        assert_eq!(rep.per_conn[0].nacks, 2);
        assert_eq!(rep.per_conn[0].ooo_episodes, 2);
    }

    #[test]
    fn read_traffic_compliant() {
        let yaml = r#"
requester: { nic-type: cx6 }
responder: { nic-type: cx6 }
traffic:
  num-connections: 1
  rdma-verb: read
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 4, type: drop, iter: 1}
"#;
        let cfg = TestConfig::from_yaml(yaml).unwrap();
        let res = run_test(&cfg).unwrap();
        assert!(res.traffic_completed());
        let rep = analyze(res.trace.as_ref().unwrap(), &res.conns);
        assert!(rep.compliant(), "{:?}", rep.violations());
        assert_eq!(rep.per_conn[0].nacks, 1, "one re-issued read request");
    }
}
