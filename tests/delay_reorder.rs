//! Tests for the §7 future-work injection events: quantitative delay and
//! deterministic packet reordering.

use lumina_core::analyzers::gbn_fsm;
use lumina_core::config::TestConfig;
use lumina_core::orchestrator::run_test;
use lumina_sim::telemetry::trace::Hop;
use lumina_switch::events::EventType;

fn run(events: &str) -> lumina_core::orchestrator::TestResults {
    let yaml = format!(
        r#"
requester: {{ nic-type: cx5 }}
responder: {{ nic-type: cx5 }}
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 10240
  data-pkt-events:{events}
"#
    );
    run_test(&TestConfig::from_yaml(&yaml).unwrap()).unwrap()
}

#[test]
fn delay_event_holds_packet_without_loss() {
    // Delay packet 5 by 100 µs: it arrives far out of order, triggering
    // the same NACK machinery as a loss — but the NIC must still complete
    // and the delayed original must surface as a duplicate.
    let res = run("\n    - {qpn: 1, psn: 5, type: delay, iter: 1, delay-us: 100}");
    assert!(res.traffic_completed());
    assert!(res.integrity.passed());
    assert_eq!(res.events_fired, 1);
    // The responder saw out-of-order arrivals (packets 6.. overtook 5).
    assert!(res.responder_counters.out_of_sequence >= 1);
    // The held packet eventually arrived: counted as a duplicate after
    // the retransmission filled the gap.
    assert!(res.responder_counters.duplicate_request >= 1);
    // The mirror copy is stamped with the delay event type.
    let trace = res.trace.as_ref().unwrap();
    assert_eq!(
        trace.iter().filter(|e| e.event == EventType::Delay).count(),
        1
    );
}

#[test]
fn delay_on_last_packet_is_loss_free() {
    // Delaying the final packet cannot reorder anything: the message just
    // completes later, with no recovery machinery involved.
    let res = run("\n    - {qpn: 1, psn: 10, type: delay, iter: 1, delay-us: 50}");
    assert!(res.traffic_completed());
    assert_eq!(res.requester_counters.retransmitted_packets, 0);
    assert_eq!(res.responder_counters.out_of_sequence, 0);
    // The delay is visible in the MCT.
    let f = res.requester_metrics.flows.values().next().unwrap();
    assert!(f.mcts[0] >= lumina_sim::SimTime::from_micros(50));
}

#[test]
fn reorder_event_swaps_adjacent_packets() {
    // Hold packet 3 behind one later packet: the wire shows 1 2 4 3 5 …
    let res = run("\n    - {qpn: 1, psn: 3, type: reorder, iter: 1, reorder-by: 1}");
    assert!(res.traffic_completed());
    assert!(res.integrity.passed());
    // Exactly one out-of-sequence episode at the responder (packet 4
    // arrived while 3 was expected), then 3 fills the gap.
    assert!(res.responder_counters.out_of_sequence >= 1);
    // The mirror trace records ingress order, so the FSM analyzer cannot
    // replay the receiver's view — it must mark the connection displaced
    // rather than report false violations.
    let rep = gbn_fsm::analyze(res.trace.as_ref().unwrap(), &res.conns);
    assert!(rep.per_conn[0].displaced);
    assert!(rep.compliant(), "{:?}", rep.violations());
    assert_eq!(
        res.trace
            .as_ref()
            .unwrap()
            .iter()
            .filter(|e| e.event == EventType::Reorder)
            .count(),
        1
    );
}

#[test]
fn reorder_at_stream_end_flushes_via_safety_timer() {
    // Reorder the LAST packet: no later packet ever passes, so only the
    // switch's safety flush (1 ms) can release it. The transfer must still
    // complete without retry exhaustion.
    let res = run("\n    - {qpn: 1, psn: 10, type: reorder, iter: 1, reorder-by: 3}");
    assert!(res.traffic_completed());
    let f = res.requester_metrics.flows.values().next().unwrap();
    assert_eq!(f.completed, 1);
    // The flush released the packet roughly 1 ms in; recovery (flush or
    // timeout) must have happened well before the 67 ms timeout budget
    // exhausted.
    assert!(f.mcts[0] < lumina_sim::SimTime::from_millis(200));
}

#[test]
fn delay_and_reorder_validate() {
    let bad_delay = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
  data-pkt-events:
    - {qpn: 1, psn: 1, type: delay, iter: 1}
"#;
    let cfg = TestConfig::from_yaml(bad_delay).unwrap();
    assert!(
        cfg.problems().iter().any(|p| p.contains("delay-us")),
        "{:?}",
        cfg.problems()
    );

    let bad_reorder = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
  data-pkt-events:
    - {qpn: 1, psn: 1, type: reorder, iter: 1, reorder-by: 0}
"#;
    let cfg = TestConfig::from_yaml(bad_reorder).unwrap();
    assert!(cfg.problems().iter().any(|p| p.contains("reorder-by")));
}

#[test]
fn a_released_reorder_hold_leaves_no_timer_for_a_later_hold() {
    // Packet 3 is held behind one later packet and released by packet 4;
    // its 1 ms safety flush stays armed. Packet 8 is then held for 2 ms in
    // the same switch slot: the stale flush must not release it at 1 ms.
    let yaml = r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 20480
  data-pkt-events:
    - {qpn: 1, psn: 3, type: reorder, iter: 1, reorder-by: 1}
    - {qpn: 1, psn: 8, type: delay, iter: 1, delay-us: 2000}
trace:
  capacity: 65536
"#;
    let res = run_test(&TestConfig::from_yaml(yaml).unwrap()).unwrap();
    assert!(res.traffic_completed());
    let switch_hops = |hop: Hop| -> Vec<(u64, u64)> {
        let log = res.telemetry.hops();
        log.filter(|(_, h, r)| *h == hop && r.node == 2)
            .map(|(id, _, r)| (id, r.t))
            .collect()
    };
    let [(delayed, held_at)] = switch_hops(Hop::Delay)[..] else {
        panic!("one delay hop expected");
    };
    let of_delayed = |hop: Hop| -> Vec<u64> {
        switch_hops(hop)
            .into_iter()
            .filter_map(|(id, t)| (id == delayed).then_some(t))
            .collect()
    };
    // Held at 2.213 µs and released 2 ms later. Its mirror copy leaves the
    // switch one pipeline latency (380 ns) after the hold, and the packet
    // one pipeline latency after its release: the delay pays it once.
    assert_eq!(held_at, 2_213);
    let released = held_at + 2_000_000;
    assert_eq!(of_delayed(Hop::SwitchForward), [released]);
    assert_eq!(of_delayed(Hop::LinkEgress), [held_at + 380, released + 380]);
}
