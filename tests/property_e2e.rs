//! Property-based tests over the whole stack: for randomized traffic
//! shapes and deterministic event injections, the testbed must complete
//! the traffic, keep the trace intact, and stay Go-back-N compliant — and
//! observing a run (journal, flight recorder) must not change it.

use lumina_core::analyzers::gbn_fsm;
use lumina_core::config::TestConfig;
use lumina_core::config::TraceSection;
use lumina_core::orchestrator::{run_test, TestResults};
use proptest::prelude::*;

#[allow(clippy::too_many_arguments)]
fn build_cfg(
    nic: &str,
    verb: &str,
    conns: u32,
    msgs: u32,
    msg_size: u32,
    mtu: u32,
    events: &[(u32, u32, &str, u32)],
    seed: u64,
) -> TestConfig {
    let ev: String = events
        .iter()
        .map(|(q, p, ty, it)| format!("\n    - {{qpn: {q}, psn: {p}, type: {ty}, iter: {it}}}"))
        .collect();
    TestConfig::from_yaml(&format!(
        r#"
requester: {{ nic-type: {nic} }}
responder: {{ nic-type: {nic} }}
traffic:
  num-connections: {conns}
  rdma-verb: {verb}
  num-msgs-per-qp: {msgs}
  mtu: {mtu}
  message-size: {msg_size}
  data-pkt-events:{ev}
network:
  seed: {seed}
  horizon-ms: 60000
"#,
        ev = if ev.is_empty() { " []".to_string() } else { ev },
    ))
    .unwrap()
}

/// The report with the sections observation owns taken out: the journal /
/// metric snapshot and the flight recorder's dissection.
fn report_outside_observation(res: &TestResults) -> String {
    let mut report = res.report_json().unwrap();
    let sections = report.as_object_mut().expect("the report is an object");
    sections.remove("telemetry");
    sections.remove("trace");
    serde_json::to_string(&report).unwrap()
}

/// Two hosts back to back with a lossy, reordering forward link, run to
/// quiescence under `tel`; everything the run decided, rendered.
fn back_to_back_outcome(
    tel: Option<lumina_sim::Telemetry>,
    verb: lumina_rnic::Verb,
    conns: u32,
    msgs: u32,
    msg_size: u32,
    seed: u64,
) -> String {
    use lumina_gen::{metrics::metrics_handle, FlowPlan, HostNode, Role};
    use lumina_packet::MacAddr;
    use lumina_rnic::qp::{QpConfig, QpEndpoint};
    use lumina_rnic::{ets::EtsConfig, profile::DeviceProfile, Rnic};
    use lumina_sim::faults::{BurstRegime, ChaosPlane, ChaosWindow, Interposer, LinkChaos};
    use lumina_sim::{Bandwidth, Engine, NodeId, PortId, SimTime};
    use std::net::Ipv4Addr;

    let mut eng = Engine::new(seed);
    let (req_id, rsp_id) = (NodeId(0), NodeId(1));
    let rnic = |mac: u32, node: NodeId| {
        let b = Rnic::builder(DeviceProfile::cx6_dx(), EtsConfig::single_queue(), MacAddr::local(mac));
        match &tel {
            Some(tel) => b.telemetry(tel.clone(), node.0 as u32).build(),
            None => b.build(),
        }
    };
    let (mut req_rnic, mut rsp_rnic) = (rnic(1, req_id), rnic(2, rsp_id));
    if let Some(tel) = &tel {
        eng.set_telemetry(tel.clone());
    }
    for i in 0..conns {
        let req = QpEndpoint { ip: Ipv4Addr::new(10, 0, 0, 1), qpn: 0x100 + i, ipsn: 100 + i };
        let rsp = QpEndpoint { ip: Ipv4Addr::new(10, 0, 0, 2), qpn: 0x200 + i, ipsn: 200 + i };
        let cfg = |local, remote, remote_mac| QpConfig {
            local,
            remote,
            remote_mac: MacAddr::local(remote_mac),
            mtu: 1024,
            timeout_code: 10,
            retry_cnt: 7,
            adaptive_retrans: false,
            traffic_class: 0,
            dcqcn_rp: false,
            dcqcn_np: false,
            min_time_between_cnps: SimTime::from_micros(4),
            udp_src_port: 49152 + i as u16,
        };
        req_rnic.create_qp(cfg(req, rsp, 2));
        rsp_rnic.create_qp(cfg(rsp, req, 1));
        for wr in 0..msgs {
            rsp_rnic.post_recv(rsp.qpn, u64::from(wr), msg_size);
        }
    }
    let plans = (0..conns)
        .map(|i| FlowPlan { qpn: 0x100 + i, verbs: vec![verb], num_msgs: msgs, msg_size, tx_depth: 2 })
        .collect();
    let (m_req, m_rsp) = (metrics_handle(), metrics_handle());
    let requester = Role::Requester { plans, barrier_sync: false };
    assert_eq!(eng.add_node(Box::new(HostNode::new(req_rnic, requester, m_req.clone(), "requester"))), req_id);
    assert_eq!(eng.add_node(Box::new(HostNode::new(rsp_rnic, Role::Responder, m_rsp.clone(), "responder"))), rsp_id);
    eng.connect(req_id, PortId(0), rsp_id, PortId(0), Bandwidth::gbps(100), SimTime::from_micros(1));
    let mut chaos = ChaosPlane::new(seed);
    let burst = BurstRegime {
        window: ChaosWindow { from: SimTime::ZERO, until: SimTime::from_micros(40) },
        loss_prob: 0.05,
        corrupt_prob: 0.02,
        reorder_prob: 0.05,
        reorder_delay: SimTime::from_micros(3),
    };
    chaos.set_link(req_id, PortId(0), LinkChaos { bursts: vec![burst], ..LinkChaos::default() });
    eng.set_interposer(Interposer::new(None, Some(chaos)));
    eng.schedule_timer(req_id, SimTime::ZERO, HostNode::start_token());
    let outcome = eng.run(Some(SimTime::from_secs(5)));

    let counters = [req_id, rsp_id].map(|id| {
        let host: Box<dyn std::any::Any> = eng.take_node(id).expect("host is still in the engine");
        host.downcast::<HostNode>().expect("host node").rnic.counters.clone()
    });
    let metrics = [m_req, m_rsp].map(|m| serde_json::to_string(&*m.borrow()).unwrap());
    let chaos_stats = eng.interposer().chaos.as_ref().map(|p| p.stats);
    format!("{outcome:?}\n{:?}\n{chaos_stats:?}\n{counters:?}\n{metrics:?}", eng.stats())
}

fn arb_nic() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["cx4", "cx5", "cx6", "e810"])
}

fn arb_verb() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["write", "read", "send"])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    #[test]
    fn clean_traffic_always_completes_with_intact_trace(
        nic in arb_nic(),
        verb in arb_verb(),
        conns in 1u32..5,
        msgs in 1u32..4,
        msg_size in prop::sample::select(vec![1u32, 777, 1024, 4096, 20_000]),
        seed in 0u64..1000,
    ) {
        let cfg = build_cfg(nic, verb, conns, msgs, msg_size, 1024, &[], seed);
        let res = run_test(&cfg).unwrap();
        prop_assert!(res.traffic_completed(), "{nic}/{verb}");
        prop_assert!(res.integrity.passed(), "{nic}/{verb}: {:?}", res.integrity);
        prop_assert_eq!(res.requester_counters.retransmitted_packets, 0);
        let bytes: u64 = res.requester_metrics.flows.values().map(|f| f.bytes).sum();
        prop_assert_eq!(bytes, conns as u64 * msgs as u64 * msg_size as u64);
        // The trace is Go-back-N compliant (trivially, but the analyzer
        // must not produce false positives on clean traffic).
        let rep = gbn_fsm::analyze(res.trace.as_ref().unwrap(), &res.conns);
        prop_assert!(rep.compliant(), "{:?}", rep.violations());
    }

    #[test]
    fn single_drop_always_recovers_and_stays_compliant(
        nic in prop::sample::select(vec!["cx5", "cx6"]),
        verb in arb_verb(),
        drop_pkt in 1u32..30,
        seed in 0u64..1000,
    ) {
        // One 30-packet message; drop any one packet.
        let cfg = build_cfg(
            nic, verb, 1, 1, 30 * 1024, 1024,
            &[(1, drop_pkt, "drop", 1)], seed,
        );
        let res = run_test(&cfg).unwrap();
        prop_assert!(res.traffic_completed(), "{nic}/{verb}/pkt{drop_pkt}");
        prop_assert!(res.integrity.passed());
        prop_assert_eq!(res.events_fired, 1);
        prop_assert!(res.requester_counters.retransmitted_packets >= 1);
        let rep = gbn_fsm::analyze(res.trace.as_ref().unwrap(), &res.conns);
        prop_assert!(rep.compliant(), "{nic}/{verb}/pkt{drop_pkt}: {:?}", rep.violations());
    }

    #[test]
    fn double_drop_same_packet_recovers(
        verb in prop::sample::select(vec!["write", "read"]),
        drop_pkt in 2u32..9,
        seed in 0u64..1000,
    ) {
        // Drop a packet and its retransmission — the Listing 2 pattern.
        let cfg = build_cfg(
            "cx5", verb, 1, 1, 10 * 1024, 1024,
            &[(1, drop_pkt, "drop", 1), (1, drop_pkt, "drop", 2)], seed,
        );
        let res = run_test(&cfg).unwrap();
        prop_assert!(res.traffic_completed());
        prop_assert_eq!(res.events_fired, 2);
        let rep = gbn_fsm::analyze(res.trace.as_ref().unwrap(), &res.conns);
        prop_assert!(rep.compliant(), "{:?}", rep.violations());
    }

    #[test]
    fn corrupt_detected_and_recovered(
        pkt in 1u32..10,
        seed in 0u64..1000,
    ) {
        let cfg = build_cfg(
            "cx6", "write", 1, 1, 10 * 1024, 1024,
            &[(1, pkt, "corrupt", 1)], seed,
        );
        let res = run_test(&cfg).unwrap();
        prop_assert!(res.traffic_completed());
        prop_assert_eq!(res.responder_counters.rx_icrc_errors, 1);
        prop_assert!(res.requester_counters.retransmitted_packets >= 1);
    }

    #[test]
    fn ecn_marks_never_break_traffic(
        nic in arb_nic(),
        pkt in 1u32..20,
        seed in 0u64..1000,
    ) {
        let cfg = {
            let mut c = build_cfg(
                nic, "write", 1, 2, 10 * 1024, 1024,
                &[(1, pkt, "ecn", 1)], seed,
            );
            c.requester.dcqcn_rp_enable = true;
            c.responder.dcqcn_np_enable = true;
            c
        };
        let res = run_test(&cfg).unwrap();
        prop_assert!(res.traffic_completed());
        prop_assert_eq!(res.responder_counters.np_ecn_marked_roce_packets, 1);
        // An ECN mark must never cause loss or retransmission.
        prop_assert_eq!(res.requester_counters.retransmitted_packets, 0);
        prop_assert!(res.integrity.passed());
    }

    /// Turning the flight recorder on — at any ring size, so with and
    /// without eviction — changes no report byte outside the sections
    /// that exist to show what was observed.
    #[test]
    fn tracing_changes_no_report_byte_outside_its_own_sections(
        nic in arb_nic(),
        verb in arb_verb(),
        conns in 1u32..5,
        msgs in 1u32..4,
        msg_pkts in 1u32..12,
        event in prop::sample::select(vec!["drop", "ecn", "corrupt"]),
        pkt in 0u32..64,
        capacity in prop::sample::select(vec![64usize, 4096, 262_144]),
        seed in 0u64..1000,
    ) {
        let psn = 1 + pkt % (msgs * msg_pkts);
        let mut cfg = build_cfg(
            nic, verb, conns, msgs, msg_pkts * 1024, 1024,
            &[(1, psn, event, 1)], seed,
        );
        cfg.requester.dcqcn_rp_enable = true;
        cfg.responder.dcqcn_np_enable = true;
        let plain = run_test(&cfg).unwrap();
        cfg.trace = Some(TraceSection { capacity, ..TraceSection::default() });
        let traced = run_test(&cfg).unwrap();
        prop_assert!(traced.telemetry.is_tracing() && !plain.telemetry.is_tracing());
        prop_assert_eq!(report_outside_observation(&plain), report_outside_observation(&traced));
        prop_assert_eq!(plain.engine_stats, traced.engine_stats);
        prop_assert_eq!(plain.frame_stats, traced.frame_stats);
        prop_assert_eq!(plain.telemetry.journal_jsonl(), traced.telemetry.journal_jsonl());
    }

    /// Below the orchestrator, where the sink itself can be left out: a
    /// lossy two-host run decides the same things with no telemetry, with
    /// the journal and metric registry, and with the flight recorder too.
    #[test]
    fn the_telemetry_sink_changes_nothing_a_run_decides(
        verb in prop::sample::select(vec![
            lumina_rnic::Verb::Write, lumina_rnic::Verb::Read, lumina_rnic::Verb::Send,
        ]),
        conns in 1u32..6,
        msgs in 1u32..5,
        msg_size in prop::sample::select(vec![1u32, 777, 4096, 20_000]),
        seed in 0u64..1000,
    ) {
        let run = |tel| back_to_back_outcome(tel, verb, conns, msgs, msg_size, seed);
        let dark = run(None);
        prop_assert_eq!(&dark, &run(Some(lumina_sim::Telemetry::enabled())));
        let tracing = lumina_sim::Telemetry::enabled();
        tracing.enable_tracing(256, lumina_packet::buf::next_trace_id());
        prop_assert_eq!(&dark, &run(Some(tracing)));
    }
}
