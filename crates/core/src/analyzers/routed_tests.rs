//! The routed analyzers against the walk they replaced. Under
//! [`RouteMode::FullWalk`] every connection owns every packet, which is what
//! `gbn_fsm`, `retrans_perf` and the conformance oracle read before there
//! were routes: each asked every connection about every packet. Their
//! reports must serialize to the same bytes either way — on every preset in
//! `configs/`, on random traces built to collide (connections sharing an IP
//! pair, one QPN on both hosts, one key with two owners, a displaced
//! connection, packets nobody owns), in known-connections mode and in
//! discovery mode, where the routes change as QPNs are learnt.

use super::conformance::{ConformanceOpts, ConformanceStream};
use super::{gbn_fsm, retrans_perf, ConnIndex, RouteMode, Routes};
use crate::config::TestConfig;
use crate::orchestrator::run_test;
use crate::translate::ConnMeta;
use lumina_dumper::{Trace, TraceEntry};
use lumina_packet::aeth::{Aeth, AethSyndrome, NakCode};
use lumina_packet::builder::{cnp_frame, DataPacketBuilder};
use lumina_packet::opcode::Opcode;
use lumina_packet::reth::Reth;
use lumina_packet::RoceFrame;
use lumina_rnic::qp::QpEndpoint;
use lumina_rnic::Verb;
use lumina_sim::SimTime;
use lumina_switch::events::EventType;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn json<T: serde::Serialize>(report: &T) -> String {
    serde_json::to_string(report).unwrap()
}

/// `[gbn_fsm, retrans_perf, conformance with the roster, conformance in
/// discovery]` over `trace`, serialized, with the routes in `mode`.
fn reports(
    mode: RouteMode,
    trace: &Trace,
    conns: &[ConnMeta],
    opts: &ConformanceOpts,
) -> [String; 4] {
    let index = ConnIndex::routed(&Routes::in_mode(mode, conns), trace, conns.len());
    let mut known = ConformanceStream::new(conns, opts).with_routes(Routes::in_mode(mode, conns));
    known.observe_trace(trace);
    let mut discovered =
        ConformanceStream::discovering(opts).with_routes(Routes::in_mode(mode, &[]));
    discovered.observe_trace(trace);
    [
        json(&gbn_fsm::analyze_routed(&index, conns)),
        json(&retrans_perf::analyze_routed(&index, conns)),
        json(&known.finish()),
        json(&discovered.finish()),
    ]
}

#[test]
fn every_preset_reports_the_same_routed_and_walked() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let mut traced = 0;
    for entry in std::fs::read_dir(dir).expect("configs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("yaml") {
            continue;
        }
        let name = path.display();
        let cfg = TestConfig::from_yaml(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let res = run_test(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let Some(trace) = &res.trace else { continue };
        traced += 1;
        let opts = ConformanceOpts::from_results(&res);
        let routed = reports(RouteMode::Routed, trace, &res.conns, &opts);
        let walked = reports(RouteMode::FullWalk, trace, &res.conns, &opts);
        assert_eq!(routed, walked, "{name}");
        // What the public entry points build for themselves is the routed form.
        assert_eq!(
            json(&gbn_fsm::analyze(trace, &res.conns)),
            routed[0],
            "{name}"
        );
        assert_eq!(
            json(&retrans_perf::analyze(trace, &res.conns)),
            routed[1],
            "{name}"
        );
        assert_eq!(
            json(&super::conformance::analyze(trace, &res.conns, &opts)),
            routed[2],
            "{name}"
        );
    }
    assert!(traced >= 8, "corpus shrank: {traced}");
}

const REQ_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RSP_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Five connections on one IP pair. 1 (write) and 5 (send) aim at the same
/// responder QPN, so that key has two owners; 2 is a read; 3 uses one QPN on
/// both hosts; 4 runs the other way round, its requester on the responder
/// host with connection 1's requester QPN.
fn colliding_conns() -> Vec<ConnMeta> {
    let conn = |index, verb, (req_ip, req_qpn), (rsp_ip, rsp_qpn), ipsn| ConnMeta {
        index,
        requester: QpEndpoint {
            ip: req_ip,
            qpn: req_qpn,
            ipsn,
        },
        responder: QpEndpoint {
            ip: rsp_ip,
            qpn: rsp_qpn,
            ipsn: 9000,
        },
        verb,
    };
    vec![
        conn(1, Verb::Write, (REQ_IP, 0x11), (RSP_IP, 0x22), 0),
        conn(2, Verb::Read, (REQ_IP, 0x33), (RSP_IP, 0x44), 4),
        conn(3, Verb::Send, (REQ_IP, 0x55), (RSP_IP, 0x55), 8),
        conn(4, Verb::Write, (RSP_IP, 0x11), (REQ_IP, 0x77), 2),
        conn(5, Verb::Send, (REQ_IP, 0x66), (RSP_IP, 0x22), 6),
    ]
}

/// One frame of the given flavor as a capture decodes it (headers only).
fn frame(flavor: u8, psn: u32) -> RoceFrame {
    let fwd = || {
        DataPacketBuilder::new()
            .src_ip(REQ_IP)
            .dst_ip(RSP_IP)
            .psn(psn)
    };
    let back = || {
        DataPacketBuilder::new()
            .src_ip(RSP_IP)
            .dst_ip(REQ_IP)
            .psn(psn)
    };
    let ack = |credit| Aeth {
        syndrome: AethSyndrome::Ack { credit },
        msn: psn,
    };
    let nak = Aeth {
        syndrome: AethSyndrome::Nak(NakCode::PsnSequenceError),
        msn: psn,
    };
    let reth = Reth {
        vaddr: 0x1000,
        rkey: 7,
        dma_len: 4096,
    };
    let built = match flavor % 16 {
        // Connections 1 and 5 both: data toward (RSP_IP, 0x22).
        0 => fwd()
            .opcode(Opcode::RdmaWriteMiddle)
            .dest_qp(0x22)
            .payload_len(64)
            .build(),
        1 => fwd()
            .opcode(Opcode::RdmaWriteLast)
            .dest_qp(0x22)
            .ack_req(true)
            .payload_len(64)
            .build(),
        2 => fwd()
            .opcode(Opcode::SendMiddle)
            .dest_qp(0x22)
            .payload_len(64)
            .build(),
        // Connection 1's ACKs and NACKs — and, by key, connection 4's data.
        3 => back()
            .opcode(Opcode::Acknowledge)
            .dest_qp(0x11)
            .aeth(ack(31))
            .build(),
        4 => back()
            .opcode(Opcode::Acknowledge)
            .dest_qp(0x11)
            .aeth(nak)
            .build(),
        5 => back()
            .opcode(Opcode::RdmaWriteMiddle)
            .dest_qp(0x11)
            .payload_len(64)
            .build(),
        // Connection 2: read requests, re-requests and responses.
        6 => fwd()
            .opcode(Opcode::RdmaReadRequest)
            .dest_qp(0x44)
            .reth(reth)
            .build(),
        7 => back()
            .opcode(Opcode::RdmaReadResponseMiddle)
            .dest_qp(0x33)
            .payload_len(64)
            .build(),
        8 => back()
            .opcode(Opcode::RdmaReadResponseLast)
            .dest_qp(0x33)
            .aeth(ack(31))
            .payload_len(64)
            .build(),
        // Connection 3: one QPN, both directions.
        9 => fwd()
            .opcode(Opcode::SendOnly)
            .dest_qp(0x55)
            .ack_req(true)
            .payload_len(64)
            .build(),
        10 => back()
            .opcode(Opcode::Acknowledge)
            .dest_qp(0x55)
            .aeth(ack(31))
            .build(),
        // Connection 4's ACKs, and connection 5's.
        11 => fwd()
            .opcode(Opcode::Acknowledge)
            .dest_qp(0x77)
            .aeth(ack(31))
            .build(),
        12 => back()
            .opcode(Opcode::Acknowledge)
            .dest_qp(0x66)
            .aeth(ack(31))
            .build(),
        13 => cnp_frame(RSP_IP, REQ_IP, 0x11),
        // Nobody's: a known pair with an unknown QPN, and a foreign pair.
        14 => fwd()
            .opcode(Opcode::RdmaWriteOnly)
            .dest_qp(0x99)
            .payload_len(64)
            .build(),
        _ => DataPacketBuilder::new()
            .src_ip(Ipv4Addr::new(172, 16, 9, 9))
            .dst_ip(RSP_IP)
            .opcode(Opcode::RdmaWriteOnly)
            .dest_qp(0x22)
            .psn(psn)
            .payload_len(64)
            .build(),
    };
    let wire = built.emit();
    RoceFrame::parse_headers(&wire[..wire.len().min(lumina_dumper::TRIM_LEN)]).unwrap()
}

fn trace_of(packets: &[(u8, u32, u8)]) -> Trace {
    let entries = packets
        .iter()
        .enumerate()
        .map(|(i, &(flavor, psn, event))| TraceEntry {
            seq: i as u64,
            timestamp: SimTime::from_nanos(i as u64 * 700),
            // Mostly untouched; a drop, a mark, a corruption, and — rarely,
            // so that some cases leave every connection replayable — the
            // reorder that displaces whoever owns the packet.
            event: match event {
                0..=2 => EventType::Drop,
                3 => EventType::Ecn,
                4 => EventType::Corrupt,
                5 => EventType::Reorder,
                _ => EventType::None,
            },
            frame: frame(flavor, psn),
            orig_len: 122,
        })
        .collect();
    Trace { entries }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        ..ProptestConfig::default()
    })]

    #[test]
    fn colliding_connections_report_the_same_routed_and_walked(
        len in 0usize..160,
        flavors in prop::collection::vec(0u8..16, 160..161),
        psns in prop::collection::vec(0u32..12, 160..161),
        events in prop::collection::vec(0u8..48, 160..161),
        np in any::<bool>(),
    ) {
        let packets: Vec<(u8, u32, u8)> = (0..len).map(|i| (flavors[i], psns[i], events[i])).collect();
        let trace = trace_of(&packets);
        let conns = colliding_conns();
        let opts = ConformanceOpts {
            np_enabled_requester: np,
            np_enabled_responder: np,
            mtu: 1024,
            ..ConformanceOpts::default()
        };
        prop_assert_eq!(
            reports(RouteMode::Routed, &trace, &conns, &opts),
            reports(RouteMode::FullWalk, &trace, &conns, &opts)
        );
    }
}

/// The comparison has teeth: a discovered write connection learns its
/// requester QPN from its first ACK, and if that bind did not route the
/// connection again, every later ACK would reach no tracker.
#[test]
fn a_bind_that_does_not_reroute_is_caught() {
    let cfg = TestConfig::from_yaml(
        r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 10240
"#,
    )
    .unwrap();
    let res = run_test(&cfg).unwrap();
    let trace = res.trace.as_ref().unwrap();
    let opts = ConformanceOpts::from_results(&res);
    let walked = reports(RouteMode::FullWalk, trace, &res.conns, &opts);
    assert_eq!(reports(RouteMode::Routed, trace, &res.conns, &opts), walked);
    let forgetful = reports(RouteMode::NoRebind, trace, &res.conns, &opts);
    assert_eq!(forgetful[..3], walked[..3], "only discovery binds");
    assert_ne!(forgetful[3], walked[3]);
}
