//! Counter analyzer (§4, "Hardware network stack counter"): cross-check
//! the counters the NICs report against ground truth derived from the
//! packet trace. This is how Lumina exposed the E810's stuck `cnpSent` and
//! the CX4 Lx's frozen `implied_nak_seq_err` (§6.2.4).
//!
//! The ground truth is a view of stage 5's RC replay: the replay counts a
//! [`CounterTally`] on its one pass over the trace, and this module compares
//! it with the counters. It walks no trace of its own.

use crate::orchestrator::TestResults;
use lumina_rnic::counters::Counters;
use serde::{Deserialize, Serialize};

/// One counter inconsistency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterFinding {
    /// Which host: "requester" or "responder".
    pub host: String,
    /// Canonical counter name.
    pub counter: String,
    /// Value derived from the packet trace.
    pub expected_from_trace: u64,
    /// Value the NIC reported.
    pub reported: u64,
    /// Explanation.
    pub detail: String,
}

/// What the RC replay counts on the wire for this analyzer, displaced
/// connections included (`ReplayViews::counter`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterTally {
    /// CNPs from a requester IP (an IP of both roles counts here).
    pub cnps_from_requester: u64,
    /// CNPs from a responder IP.
    pub cnps_from_responder: u64,
    /// Read requests that ask again for PSNs already requested, from the
    /// first missing response (§6.1): the replay's `read.reissued`.
    pub reread_requests: u64,
    /// Corrupt events on frames toward a responder IP.
    pub corrupt_toward_responder: u64,
}

/// Cross-check all verifiable counters. Empty = consistent, and empty on a
/// run without a trace (which stage 5 did not replay).
pub fn analyze(results: &TestResults) -> Vec<CounterFinding> {
    results.replayed.as_ref().map_or_else(Vec::new, |views| {
        check(
            &views.counter,
            &results.requester_counters,
            &results.responder_counters,
        )
    })
}

/// The findings of `tally` against the two NICs' counters.
pub(super) fn check(
    tally: &CounterTally,
    requester: &Counters,
    responder: &Counters,
) -> Vec<CounterFinding> {
    let mut findings = Vec::new();

    // CNPs sent: the NP side's counter must match the CNPs on the wire.
    for (host, counters, on_wire) in [
        ("requester", requester, tally.cnps_from_requester),
        ("responder", responder, tally.cnps_from_responder),
    ] {
        let reported = counters.np_cnp_sent;
        if reported != on_wire {
            findings.push(CounterFinding {
                host: host.into(),
                counter: "np_cnp_sent".into(),
                expected_from_trace: on_wire,
                reported,
                detail: format!(
                    "{on_wire} CNPs observed on the wire from the {host}, counter reads {reported}"
                ),
            });
        }
    }

    // Implied NAKs: every re-issued read request not explained by a
    // timeout implies the requester detected out-of-order read responses.
    // Timeout-driven re-reads also re-issue, so the trace-derived count is
    // an upper bound only when timeouts fired; when no timeouts fired the
    // counter must match exactly.
    let rereads = tally.reread_requests;
    if requester.local_ack_timeout_err == 0 && requester.implied_nak_seq_err != rereads {
        findings.push(CounterFinding {
            host: "requester".into(),
            counter: "implied_nak_seq_err".into(),
            expected_from_trace: rereads,
            reported: requester.implied_nak_seq_err,
            detail: format!(
                "{rereads} re-issued read requests on the wire (no timeouts fired), counter reads {}",
                requester.implied_nak_seq_err
            ),
        });
    }

    // ICRC errors: every corrupt event toward the responder must be
    // counted there.
    if responder.rx_icrc_errors != tally.corrupt_toward_responder {
        findings.push(CounterFinding {
            host: "responder".into(),
            counter: "rx_icrc_errors".into(),
            expected_from_trace: tally.corrupt_toward_responder,
            reported: responder.rx_icrc_errors,
            detail: "corrupted packets vs ICRC error counter mismatch".into(),
        });
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestConfig;
    use crate::orchestrator::run_test;

    #[test]
    fn healthy_nic_counters_consistent() {
        let yaml = r#"
requester: { nic-type: cx5, dcqcn-rp-enable: true }
responder: { nic-type: cx5, dcqcn-np-enable: true }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 20480
  data-pkt-events:
    - {qpn: 1, psn: 3, type: ecn, iter: 1, every: 5}
"#;
        let res = run_test(&TestConfig::from_yaml(yaml).unwrap()).unwrap();
        let findings = analyze(&res);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(res.responder_counters.np_cnp_sent >= 1);
    }

    #[test]
    fn e810_cnp_sent_bug_flagged() {
        // §6.2.4: inject ECN toward an E810 notification point; the wire
        // shows CNPs, the counter stays flat.
        let yaml = r#"
requester: { nic-type: e810, dcqcn-rp-enable: true }
responder: { nic-type: e810, dcqcn-np-enable: true }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 20480
  data-pkt-events:
    - {qpn: 1, psn: 1, type: ecn, iter: 1, every: 2}
"#;
        let res = run_test(&TestConfig::from_yaml(yaml).unwrap()).unwrap();
        let findings = analyze(&res);
        let f = findings
            .iter()
            .find(|f| f.counter == "np_cnp_sent" && f.host == "responder")
            .expect("cnpSent bug must be flagged");
        assert_eq!(f.reported, 0);
        assert!(f.expected_from_trace >= 1);
    }

    #[test]
    fn cx4_implied_nak_bug_flagged() {
        // §6.2.4: drop read responses toward a CX4 Lx requester; re-reads
        // happen, the counter does not move.
        let yaml = r#"
requester: { nic-type: cx4 }
responder: { nic-type: cx4 }
traffic:
  num-connections: 1
  rdma-verb: read
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 4, type: drop, iter: 1}
"#;
        let res = run_test(&TestConfig::from_yaml(yaml).unwrap()).unwrap();
        let findings = analyze(&res);
        let f = findings
            .iter()
            .find(|f| f.counter == "implied_nak_seq_err")
            .expect("implied_nak freeze must be flagged");
        assert_eq!(f.reported, 0);
        assert_eq!(f.expected_from_trace, 1);
    }

    #[test]
    fn cx5_implied_nak_counter_ok() {
        let yaml = r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 1
  rdma-verb: read
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 4, type: drop, iter: 1}
"#;
        let res = run_test(&TestConfig::from_yaml(yaml).unwrap()).unwrap();
        let findings = analyze(&res);
        assert!(
            findings.iter().all(|f| f.counter != "implied_nak_seq_err"),
            "{findings:?}"
        );
    }

    #[test]
    fn corrupt_events_counted_as_icrc_errors() {
        let yaml = r#"
requester: { nic-type: cx6 }
responder: { nic-type: cx6 }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 3, type: corrupt, iter: 1}
"#;
        let res = run_test(&TestConfig::from_yaml(yaml).unwrap()).unwrap();
        assert!(res.traffic_completed());
        assert_eq!(res.responder_counters.rx_icrc_errors, 1);
        assert!(analyze(&res).is_empty());
    }
}
