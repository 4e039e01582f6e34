//! End-to-end orchestrator tests: Table-1 result collection, determinism,
//! and integrity across verbs and NIC models.

use lumina_core::config::TestConfig;
use lumina_core::orchestrator::run_test;

fn cfg(nic: &str, verb: &str, events: &str) -> TestConfig {
    TestConfig::from_yaml(&format!(
        r#"
requester: {{ nic-type: {nic} }}
responder: {{ nic-type: {nic} }}
traffic:
  num-connections: 2
  rdma-verb: {verb}
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 10240
  data-pkt-events:{events}
"#
    ))
    .unwrap()
}

#[test]
fn clean_runs_complete_for_all_nics_and_verbs() {
    for nic in ["cx4", "cx5", "cx6", "e810"] {
        for verb in ["write", "read", "send"] {
            let res = run_test(&cfg(nic, verb, " []")).unwrap();
            assert!(res.traffic_completed(), "{nic}/{verb}");
            assert!(res.integrity.passed(), "{nic}/{verb}: {:?}", res.integrity);
            assert!(res.outcome.is_quiescent(), "{nic}/{verb}");
            // 2 QPs × 3 msgs × 10 KB.
            let bytes: u64 = res
                .requester_metrics
                .flows
                .values()
                .map(|f| f.bytes)
                .sum();
            assert_eq!(bytes, 2 * 3 * 10_240, "{nic}/{verb}");
            assert_eq!(res.requester_counters.retransmitted_packets, 0);
        }
    }
}

#[test]
fn table1_results_all_collected() {
    // Table 1: dumped packets, network stack counters, traffic generator
    // log, switch counters.
    let res = run_test(&cfg(
        "cx5",
        "write",
        "\n    - {qpn: 1, psn: 5, type: drop, iter: 1}",
    ))
    .unwrap();
    // Dumped packets.
    let trace = res.trace.as_ref().expect("trace present");
    assert!(trace.len() > 60);
    // NIC counters, vendor naming.
    let (req, rsp) = (res.vendor_counters(false).unwrap(), res.vendor_counters(true).unwrap());
    assert!(req.contains_key("packet_seq_err"));
    assert!(rsp.contains_key("out_of_sequence"));
    assert_eq!(rsp["out_of_sequence"], 5);
    // Generator log.
    assert_eq!(res.requester_metrics.flows.len(), 2);
    assert!(res.requester_metrics.avg_mct().is_some());
    // Switch counters, per port.
    assert!(res.switch_counters.roce_rx_total > 0);
    assert_eq!(res.switch_counters.injected_drops, 1);
    assert!(!res.switch_counters.ports.is_empty());
    let mirrored_ports: u64 = res
        .switch_counters
        .ports
        .values()
        .map(|p| p.mirrored)
        .sum();
    assert_eq!(mirrored_ports, res.switch_counters.mirrored_total);
    // JSON report round-trips.
    let report = res.report_json().unwrap();
    assert_eq!(report["integrity_passed"], true);
    assert_eq!(report["events_fired"], 1);
}

#[test]
fn same_seed_reproduces_identical_traces() {
    let run = || {
        let res = run_test(&cfg(
            "cx6",
            "read",
            "\n    - {qpn: 2, psn: 4, type: drop, iter: 1}",
        ))
        .unwrap();
        res.trace
            .unwrap()
            .iter()
            .map(|e| (e.seq, e.timestamp.as_nanos(), e.frame.bth.psn, e.frame.bth.opcode.value()))
            .collect::<Vec<_>>()
    };
    let a = run();
    assert!(!a.is_empty());
    assert_eq!(a, run());
}

#[test]
fn different_seeds_randomize_qpns_and_psns() {
    let mut c1 = cfg("cx5", "write", " []");
    let mut c2 = cfg("cx5", "write", " []");
    c1.network.seed = 1;
    c2.network.seed = 2;
    let r1 = run_test(&c1).unwrap();
    let r2 = run_test(&c2).unwrap();
    // QPNs and IPSNs are generated at runtime from the seed (§3.2).
    assert_ne!(
        (r1.conns[0].requester.qpn, r1.conns[0].requester.ipsn),
        (r2.conns[0].requester.qpn, r2.conns[0].requester.ipsn)
    );
    // Both still pass integrity and complete.
    assert!(r1.integrity.passed() && r2.integrity.passed());
}

#[test]
fn heterogeneous_nics_work() {
    let yaml = r#"
requester: { nic-type: cx5 }
responder: { nic-type: e810 }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 4096
"#;
    let res = run_test(&TestConfig::from_yaml(yaml).unwrap()).unwrap();
    assert!(res.traffic_completed());
    // Vendor views differ per side.
    assert!(res.vendor_counters(false).unwrap().contains_key("np_cnp_sent"));
    assert!(res.vendor_counters(true).unwrap().contains_key("cnpSent"));
}

#[test]
fn invalid_config_rejected_with_reasons() {
    let mut c = cfg("cx5", "write", " []");
    c.traffic.rdma_verb = "teleport".into();
    let err = match run_test(&c) {
        Err(e) => e,
        Ok(_) => panic!("invalid config must be rejected"),
    };
    assert!(err.to_string().contains("rdma-verb"), "{err}");
}

#[test]
fn mtu_variants_complete() {
    for mtu in [256u32, 512, 1024, 4096] {
        let mut c = cfg("cx5", "write", " []");
        c.traffic.mtu = mtu;
        let res = run_test(&c).unwrap();
        assert!(res.traffic_completed(), "mtu {mtu}");
        assert!(res.integrity.passed(), "mtu {mtu}");
    }
}

#[test]
fn barrier_sync_rounds_complete_in_lockstep() {
    let yaml = r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 4
  rdma-verb: write
  num-msgs-per-qp: 5
  mtu: 1024
  message-size: 10240
  barrier-sync: true
"#;
    let res = run_test(&TestConfig::from_yaml(yaml).unwrap()).unwrap();
    assert!(res.traffic_completed());
    for f in res.requester_metrics.flows.values() {
        assert_eq!(f.completed, 5);
    }
}

#[test]
fn unfired_events_reported() {
    // An event aimed at a retransmission that never happens stays unfired.
    let res = run_test(&cfg(
        "cx5",
        "write",
        "\n    - {qpn: 1, psn: 5, type: drop, iter: 9}",
    ))
    .unwrap();
    assert_eq!(res.events_fired, 0);
    assert_eq!(res.events_unfired, 1);
    assert_eq!(res.requester_counters.retransmitted_packets, 0);
}

#[test]
fn telemetry_journal_identical_across_same_seed_runs() {
    // A drop event exercises the eventful journal paths: switch drop,
    // timeout/NACK, Go-back-N rollback, retransmission.
    let run = || {
        run_test(&cfg(
            "cx5",
            "write",
            "\n    - {qpn: 1, psn: 5, type: drop, iter: 1}",
        ))
        .unwrap()
    };
    let a = run();
    let b = run();
    assert!(a.telemetry.journal_len() > 0, "journal must not be empty");
    if let Some((n, la, lb)) = lumina_sim::testutil::journal_diff(&a.telemetry, &b.telemetry) {
        panic!("telemetry journals diverge at line {n}:\n  a: {la}\n  b: {lb}");
    }
    // The report, its telemetry section included, must also be byte-stable.
    assert_eq!(
        serde_json::to_string(&a.report_json().unwrap()).unwrap(),
        serde_json::to_string(&b.report_json().unwrap()).unwrap()
    );
}

#[test]
fn telemetry_journal_records_drop_and_recovery_events() {
    let res = run_test(&cfg(
        "cx5",
        "write",
        "\n    - {qpn: 1, psn: 5, type: drop, iter: 1}",
    ))
    .unwrap();
    let kinds: Vec<&str> = res.telemetry.journal().map(|e| e.kind()).collect();
    // A dropped middle packet recovers through the NACK path.
    for expected in ["mirror.emit", "drop", "gbn.rollback", "retransmit", "flow.done"] {
        assert!(
            kinds.contains(&expected),
            "journal missing {expected:?}; kinds present: {kinds:?}"
        );
    }

    // Dropping the final data packet (1-based psn 30 of 3 × 10-packet
    // messages) leaves nothing to NACK against, so recovery must come from
    // the retransmission timeout instead.
    let res_to = run_test(&cfg(
        "cx5",
        "write",
        "\n    - {qpn: 1, psn: 30, type: drop, iter: 1}",
    ))
    .unwrap();
    let to_kinds: Vec<&str> = res_to.telemetry.journal().map(|e| e.kind()).collect();
    for expected in ["drop", "timeout", "gbn.rollback", "retransmit"] {
        assert!(
            to_kinds.contains(&expected),
            "timeout journal missing {expected:?}; kinds present: {to_kinds:?}"
        );
    }
    // Every simulation node has its counters in the telemetry section.
    let snap = res.telemetry_json().unwrap();
    let nodes = snap.get("nodes").and_then(|n| n.as_object()).unwrap();
    assert!(nodes.len() >= 4, "req, rsp, switch and dumper expected");
    let global = snap.get("global").and_then(|g| g.as_object()).unwrap();
    assert!(global.get("engine").is_some(), "engine stats recorded globally");
}
