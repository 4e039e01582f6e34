//! Go-back-N retransmission-logic analyzer (§4, "Retransmission logic"),
//! a view of the conformance oracle's replay.
//!
//! The Go-back-N specification is one state machine executed over the
//! reconstructed trace: the RC replay of [`super::conformance`], which keeps
//! the receiver's expected PSN, the last PSN it accepted, the sender frontier
//! and the NACK-PSN comparison, and hands each packet to this view. The view
//! replays what the *receiver* of data packets saw (a `drop` or `corrupt`
//! packet never reached it) and validates that
//!
//! * a sequence-error NACK is generated exactly when an out-of-order
//!   packet arrives, carries the receiver's expected PSN, and is not
//!   repeated within one out-of-sequence episode;
//! * after a NACK, the sender resumes transmission exactly at the NACKed
//!   PSN (Go-back-N, not selective repeat);
//! * positive ACK PSNs never regress.
//!
//! For Read traffic the "NACK" is the re-issued read request (§6.1). DESIGN.md
//! §7 lists where these rules and the oracle's classes agree and differ.

use super::conformance::{self, ConformanceOpts};
use crate::translate::ConnMeta;
use lumina_dumper::Trace;
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

/// Run the FSM over a trace: a replay of its own, read through this view
/// (the oracle's options do not change what the view sees). A run's report
/// takes the view from the replay that grades it instead.
pub fn analyze(trace: &Trace, conns: &[ConnMeta]) -> GbnReport {
    conformance::replay(trace, conns, &ConformanceOpts::default())
        .1
        .gbn
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
