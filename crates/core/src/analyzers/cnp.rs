//! CNP analyzer (§4, "Congestion notification"): validate CNP generation
//! against the ECN marks on the wire and measure CNP spacing, the signal
//! behind the §6.3 findings (the E810's hidden ~50 µs interval and the
//! per-IP / per-QP / per-port rate-limiting modes).
//!
//! A run's CNP and CE totals are tallies of its RC replay
//! ([`super::ReplayViews`]), which `run` and `ingest` report; this walk is
//! the experiments' per-flow interval tool.

use lumina_dumper::Trace;
use lumina_packet::opcode::Opcode;
use lumina_sim::SimTime;
use lumina_switch::events::EventType;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// CNP timing for one (source IP, destination IP, destination QPN) flow.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CnpFlowStats {
    /// Emission times at the switch.
    pub times: Vec<SimTime>,
}

/// Smallest gap between consecutive instants of an ascending series.
fn min_gap(times: &[SimTime]) -> Option<SimTime> {
    times
        .iter()
        .zip(times.iter().skip(1))
        .map(|(earlier, later)| later.saturating_since(*earlier))
        .min()
}

/// Whole-trace CNP report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CnpReport {
    /// Per-flow stats, keyed by (src ip, dst ip, dst qpn) of the CNP.
    pub flows: BTreeMap<(Ipv4Addr, Ipv4Addr, u32), CnpFlowStats>,
    /// Total CNPs in the trace.
    pub total_cnps: usize,
    /// Data packets that were CE-marked by the injector.
    pub total_ce_marked: usize,
}

impl CnpReport {
    /// Minimum interval across *all* CNPs leaving one NIC (merging every
    /// flow): small under per-QP/per-IP limiting, large under per-port.
    pub fn min_interval_global(&self) -> Option<SimTime> {
        let mut ts: Vec<SimTime> = self
            .flows
            .values()
            .flat_map(|s| s.times.iter().copied())
            .collect();
        ts.sort();
        min_gap(&ts)
    }
}

/// Scan the trace.
pub fn analyze(trace: &Trace) -> CnpReport {
    let mut report = CnpReport::default();
    for e in trace.iter() {
        if e.frame.bth.opcode == Opcode::Cnp {
            report.total_cnps += 1;
            report
                .flows
                .entry((e.frame.ipv4.src, e.frame.ipv4.dst, e.frame.bth.dest_qp))
                .or_default()
                .times
                .push(e.timestamp);
        }
        if e.event == EventType::Ecn {
            report.total_ce_marked += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestConfig;
    use crate::orchestrator::run_test;

    fn run_ecn_all(nic: &str, min_cnps_us: u64, conns: u32) -> CnpReport {
        let yaml = format!(
            r#"
requester:
  nic-type: {nic}
  dcqcn-rp-enable: true
responder:
  nic-type: {nic}
  dcqcn-np-enable: true
  min-time-between-cnps-us: {min_cnps_us}
traffic:
  num-connections: {conns}
  rdma-verb: write
  num-msgs-per-qp: 20
  mtu: 1024
  message-size: 51200
  multi-gid: true
  tx-depth: 2
  data-pkt-events:
    - {{qpn: 1, psn: 1, type: ecn, iter: 1, every: 1}}
"#
        );
        let cfg = TestConfig::from_yaml(&yaml).unwrap();
        let res = run_test(&cfg).unwrap();
        assert!(res.integrity.passed());
        analyze(res.trace.as_ref().unwrap())
    }

    #[test]
    fn cnps_generated_for_ce_marks() {
        let rep = run_ecn_all("cx5", 4, 1);
        assert!(rep.total_ce_marked >= 100, "{}", rep.total_ce_marked);
        assert!(rep.total_cnps >= 2, "{}", rep.total_cnps);
        // CNP coalescing: far fewer CNPs than CE marks.
        assert!(rep.total_cnps < rep.total_ce_marked);
    }

    #[test]
    fn nvidia_interval_respects_configuration() {
        let rep = run_ecn_all("cx5", 4, 1);
        let min = rep.min_interval_global().unwrap();
        assert!(
            min >= SimTime::from_micros(4),
            "CX5 configured 4 µs but measured {min}"
        );
        assert!(min < SimTime::from_micros(40), "implausibly sparse: {min}");
    }

    #[test]
    fn e810_hidden_floor_visible_in_trace() {
        // Configured to zero, the E810 still spaces CNPs ~50 µs apart.
        let rep = run_ecn_all("e810", 0, 1);
        let min = rep.min_interval_global().unwrap();
        assert!(
            min >= SimTime::from_micros(50),
            "E810 hidden floor violated: {min}"
        );
    }
}
