//! The routed RC replay against the walk it replaced. Under
//! [`RouteMode::FullWalk`] every connection owns every packet, which is what
//! the replay (the conformance oracle and its views) and the old
//! `retrans_perf` scan read before there were routes: each asked every
//! connection about every packet. The reports must serialize to the same
//! bytes either way — on every preset in `configs/`, on random traces built
//! to collide (connections sharing an IP pair, one QPN on both hosts, one
//! key with two owners, a displaced connection, packets nobody owns), in
//! known-connections mode and in discovery mode, where the routes change as
//! QPNs are learnt.
//!
//! The same inputs pin the three public replays, `gbn_fsm::analyze`,
//! `conformance::analyze` and `retrans_perf::analyze`, to FNV-64 constants,
//! and check the one rule the oracle and its Go-back-N view share: a
//! sequence-error NACK names the receiver's expected PSN.
//!
//! The counter analyzer and the recovery oracle read views of the replay
//! too. Their own walks over the trace are kept here as references
//! ([`walked_counter`], [`walked_recovery`]), and their findings and
//! reports must serialize to the same bytes as the views' on every preset
//! at seeds 1–3, under four overlays that damage only the capture, on
//! `chaos_demo` and one soak schedule per preset, and on the colliding
//! traces.

use super::conformance::{ConformanceOpts, ConformanceReport, ConformanceStream, ViolationClass};
use super::counter::{self, CounterFinding};
use super::recovery::{
    self, FlowAccount, LivenessViolation, QpEndState, RecoveryOpts, RecoveryReport, TtrHistogram,
    WindowRecovery, AMPLIFICATION_SLACK, DEFAULT_AMPLIFICATION_LIMIT,
};
use super::{gbn_fsm, retrans_perf, GbnReport, RetransBreakdown, RouteMode, Routes};
use crate::config::{FaultsSection, StallSpec, TestConfig};
use crate::fuzz::mutate::{EventMutator, Mutator};
use crate::orchestrator::{run_test, TestResults};
use crate::translate::ConnMeta;
use lumina_dumper::{Trace, TraceEntry};
use lumina_packet::aeth::{Aeth, AethSyndrome, NakCode};
use lumina_packet::builder::{cnp_frame, DataPacketBuilder};
use lumina_packet::opcode::Opcode;
use lumina_packet::reth::Reth;
use lumina_packet::{RoceFrame, RoceHeaders};
use lumina_rnic::counters::Counters;
use lumina_rnic::qp::QpEndpoint;
use lumina_rnic::Verb;
use lumina_sim::{SimRng, SimTime, Window};
use lumina_switch::events::EventType;
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::LazyLock;

fn json<T: serde::Serialize>(report: &T) -> String {
    serde_json::to_string(report).unwrap()
}

/// Every preset in `configs/`, in path order.
fn presets() -> Vec<(PathBuf, TestConfig)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("configs/ exists")
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("yaml"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let cfg = TestConfig::from_yaml(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, cfg)
        })
        .collect()
}

/// `[gbn_fsm, retrans_perf, conformance with the roster, conformance and
/// retrans_perf in discovery]` over `trace`, serialized, with the routes in
/// `mode` (the first three from one replay, the last from another).
fn reports(
    mode: RouteMode,
    trace: &Trace,
    conns: &[ConnMeta],
    opts: &ConformanceOpts,
) -> [String; 4] {
    let mut known = ConformanceStream::new(conns, opts).with_routes(Routes::in_mode(mode, conns));
    known.observe_trace(trace);
    let mut discovered =
        ConformanceStream::discovering(opts).with_routes(Routes::in_mode(mode, &[]));
    discovered.observe_trace(trace);
    let (conformance, views) = known.finish_views();
    let (found, found_views) = discovered.finish_views();
    [
        json(&views.gbn),
        json(&views.retransmissions),
        json(&conformance),
        json(&found) + &json(&found_views.retransmissions),
    ]
}

/// Presets whose debug-build runs take 0.5–2.5 s each: their extra
/// inputs are seed 1's.
const HEAVY: [&str; 3] = ["fig10_ets_bug", "fig11_noisy_neighbor", "interop_migreq"];

#[test]
fn every_preset_reports_the_same_routed_and_walked() {
    let mut traced = 0;
    let mut compared = 0;
    for (i, (path, cfg)) in presets().into_iter().enumerate() {
        let name = path.display();
        let res = run_test(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        compared += usize::from(assert_views_match_walks(&res, &format!("{name}")));
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

        // More inputs for the counter and recovery views: seeds 1–3, bare
        // and under each capture-only overlay, and one soak schedule
        // (`chaos_demo` declares its own chaos, so the soak skips it).
        let heavy = HEAVY.iter().any(|h| path.ends_with(format!("{h}.yaml")));
        let mut inputs = Vec::new();
        for seed in if heavy { 1..=1 } else { 1..=3 } {
            for overlay in capture_overlays() {
                if seed == cfg.network.seed && overlay.is_none() {
                    continue;
                }
                let mut cfg = cfg.clone();
                cfg.network.seed = seed;
                cfg.faults = overlay;
                inputs.push((format!("{name} seed {seed} {:?}", cfg.faults), cfg));
            }
        }
        if cfg.chaos.as_ref().is_none_or(|c| c.is_noop()) {
            let chaos_seed = 0x50ac + i as u64;
            let mut rng = SimRng::seed_from_u64(chaos_seed);
            let mut cfg = cfg.clone();
            let horizon_us = cfg.network.horizon_ms.saturating_mul(1_000);
            cfg.chaos = Some(crate::soak::gen_schedule(&mut rng, horizon_us, chaos_seed));
            inputs.push((format!("{name} soak schedule"), cfg));
        }
        for (name, cfg) in inputs {
            let res = run_test(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
            compared += usize::from(assert_views_match_walks(&res, &name));
        }
    }
    assert!(traced >= 8, "corpus shrank: {traced}");
    assert!(compared >= 100, "corpus shrank: {compared}");
}

/// The four overlays that damage only the capture, never the traffic, and
/// none: 5 % mirror loss, 5 % mirror duplication, 1 % capture bit-rot and
/// dumper 0 stalled ×50 for the first 500 µs, each seeded 7.
fn capture_overlays() -> [Option<FaultsSection>; 5] {
    let seeded = FaultsSection {
        seed: Some(7),
        ..FaultsSection::default()
    };
    [
        None,
        Some(FaultsSection {
            mirror_loss_prob: 0.05,
            ..seeded.clone()
        }),
        Some(FaultsSection {
            mirror_dup_prob: 0.05,
            ..seeded.clone()
        }),
        Some(FaultsSection {
            capture_bit_rot_prob: 0.01,
            ..seeded.clone()
        }),
        Some(FaultsSection {
            dumper_stalls: vec![StallSpec {
                index: Some(0),
                at_us: 0,
                duration_us: 500,
                slowdown: 50,
            }],
            ..seeded
        }),
    ]
}

/// Stage 5's counter findings and recovery verdict against the walks they
/// replaced, on a finished run; false when the run kept no trace. The
/// recovery view is stage 5's on a chaos run, and a replay armed here on
/// any other, graded over the chaos windows and two windows inside the
/// trace's span.
fn assert_views_match_walks(res: &TestResults, name: &str) -> bool {
    let Some(trace) = &res.trace else {
        assert!(counter::analyze(res).is_empty(), "{name}");
        return false;
    };
    let walked = walked_counter(
        trace,
        &res.conns,
        res.cfg.traffic.mtu,
        &res.requester_counters,
        &res.responder_counters,
    );
    assert_eq!(json(&counter::analyze(res)), json(&walked), "{name}");

    let chaos = res.cfg.chaos.as_ref().filter(|c| !c.is_noop());
    let staged = res.replayed.as_ref().and_then(|r| r.recovery.clone());
    assert_eq!(staged.is_some(), chaos.is_some(), "{name}: armed iff chaos");
    let view = staged.or_else(|| {
        let opts = ConformanceOpts {
            recovery: true,
            ..ConformanceOpts::from_results(res)
        };
        super::conformance::replay(trace, &res.conns, &opts)
            .1
            .recovery
    });
    let mut windows = chaos.map(|c| c.windows()).unwrap_or_default();
    if let (Some(first), Some(last)) = (trace.entries.first(), trace.entries.last()) {
        let at = |eighths: u64| {
            let span = last.timestamp.saturating_since(first.timestamp).as_nanos();
            SimTime::from_nanos(first.timestamp.as_nanos() + span * eighths / 8)
        };
        windows.push(Window {
            from: at(2),
            until: at(3),
        });
        windows.push(Window {
            from: at(5),
            until: at(7),
        });
    }
    let opts = RecoveryOpts {
        windows,
        destroyed: res
            .chaos_stats
            .as_ref()
            .map_or(0, |cs| cs.data_drops() + cs.corruptions),
    };
    assert_eq!(
        json(&recovery::analyze(view.as_ref(), &[], &[], &opts)),
        json(&walked_recovery(Some(trace), &[], &[], &opts)),
        "{name}"
    );
    true
}

/// The counter analyzer's walk before its ground truth became the replay's
/// [`counter::CounterTally`], verbatim but for its inputs: what it read of
/// `TestResults` is passed in, so that synthetic traces can be fed.
fn walked_counter(
    trace: &Trace,
    conns: &[ConnMeta],
    mtu: u32,
    requester_counters: &Counters,
    responder_counters: &Counters,
) -> Vec<CounterFinding> {
    let mut findings = Vec::new();

    // Ground truth from the trace.
    let req_ips: Vec<_> = conns.iter().map(|c| c.requester.ip).collect();
    let rsp_ips: Vec<_> = conns.iter().map(|c| c.responder.ip).collect();
    let mut cnps_from_requester = 0u64;
    let mut cnps_from_responder = 0u64;
    let mut reread_requests = 0u64;
    // Fresh read requests advance a per-connection frontier; a request
    // whose PSN range overlaps already-requested PSN space is a re-read
    // (it asks again from the first missing response, §6.1).
    let mut read_frontier: HashMap<(Ipv4Addr, u32), u32> = HashMap::new();
    let mtu = mtu.max(1);
    let mut corrupt_toward_responder = 0u64;
    for e in trace.iter() {
        let f = &e.frame;
        match f.bth.opcode {
            Opcode::Cnp => {
                if req_ips.contains(&f.ipv4.src) {
                    cnps_from_requester += 1;
                } else if rsp_ips.contains(&f.ipv4.src) {
                    cnps_from_responder += 1;
                }
            }
            Opcode::RdmaReadRequest => {
                let npkts = f
                    .ext
                    .reth
                    .map(|r| r.dma_len.div_ceil(mtu).max(1))
                    .unwrap_or(1);
                let end = lumina_packet::bth::psn_add(f.bth.psn, npkts);
                let key = (f.ipv4.src, f.bth.dest_qp);
                match read_frontier.get_mut(&key) {
                    None => {
                        read_frontier.insert(key, end);
                    }
                    Some(frontier) => {
                        if lumina_packet::bth::psn_distance(*frontier, f.bth.psn) < 0 {
                            reread_requests += 1;
                        }
                        if lumina_packet::bth::psn_distance(*frontier, end) > 0 {
                            *frontier = end;
                        }
                    }
                }
            }
            _ => {}
        }
        if e.event == EventType::Corrupt && rsp_ips.contains(&f.ipv4.dst) {
            corrupt_toward_responder += 1;
        }
    }

    // CNPs sent: the NP side's counter must match the CNPs on the wire.
    let check_cnp = |host: &str, reported: u64, on_wire: u64, out: &mut Vec<CounterFinding>| {
        if reported != on_wire {
            out.push(CounterFinding {
                host: host.into(),
                counter: "np_cnp_sent".into(),
                expected_from_trace: on_wire,
                reported,
                detail: format!(
                    "{on_wire} CNPs observed on the wire from the {host}, counter reads {reported}"
                ),
            });
        }
    };
    check_cnp(
        "requester",
        requester_counters.np_cnp_sent,
        cnps_from_requester,
        &mut findings,
    );
    check_cnp(
        "responder",
        responder_counters.np_cnp_sent,
        cnps_from_responder,
        &mut findings,
    );

    // Implied NAKs: every re-issued read request not explained by a
    // timeout implies the requester detected out-of-order read responses.
    // Timeout-driven re-reads also re-issue, so the trace-derived count is
    // an upper bound only when timeouts fired; when no timeouts fired the
    // counter must match exactly.
    if requester_counters.local_ack_timeout_err == 0
        && requester_counters.implied_nak_seq_err != reread_requests
    {
        findings.push(CounterFinding {
            host: "requester".into(),
            counter: "implied_nak_seq_err".into(),
            expected_from_trace: reread_requests,
            reported: requester_counters.implied_nak_seq_err,
            detail: format!(
                "{reread_requests} re-issued read requests on the wire (no timeouts fired), counter reads {}",
                requester_counters.implied_nak_seq_err
            ),
        });
    }

    // ICRC errors: every corrupt event toward the responder must be
    // counted there.
    if responder_counters.rx_icrc_errors != corrupt_toward_responder {
        findings.push(CounterFinding {
            host: "responder".into(),
            counter: "rx_icrc_errors".into(),
            expected_from_trace: corrupt_toward_responder,
            reported: responder_counters.rx_icrc_errors,
            detail: "corrupted packets vs ICRC error counter mismatch".into(),
        });
    }

    findings
}

/// The recovery oracle before its wire evidence became the replay's
/// [`recovery::RecoveryView`], verbatim.
fn walked_recovery(
    trace: Option<&Trace>,
    flows: &[FlowAccount],
    qps: &[QpEndState],
    opts: &RecoveryOpts,
) -> RecoveryReport {
    // ---- Wire walk: data packets, retransmits, forward progress ----
    // A retransmit is a (dest QP, PSN) pair re-observed on the wire;
    // forward progress is a PSN ahead of the QP's previous high-water mark
    // in 24-bit PSN space, so a QP crossing `0xFFFFFF → 0` still progresses.
    let mut seen: HashMap<(u32, u32), ()> = HashMap::new();
    let mut high: HashMap<u32, u32> = HashMap::new();
    let mut data_events: Vec<(SimTime, u32)> = Vec::new(); // (time, wire len)
    let mut retrans_events: Vec<SimTime> = Vec::new();
    let mut progress_events: Vec<SimTime> = Vec::new();
    if let Some(trace) = trace {
        for e in trace.iter() {
            if !e.frame.bth.opcode.is_data() {
                continue;
            }
            let qp = e.frame.bth.dest_qp;
            let psn = e.frame.bth.psn;
            data_events.push((e.timestamp, e.orig_len));
            if seen.insert((qp, psn), ()).is_some() {
                retrans_events.push(e.timestamp);
            }
            match high.get(&qp) {
                Some(&h) if lumina_packet::bth::psn_distance(h, psn) <= 0 => {}
                _ => {
                    high.insert(qp, psn);
                    progress_events.push(e.timestamp);
                }
            }
        }
    }

    // ---- Per-window accounting ----
    // A retransmit is attributed to the most recent window that had
    // started when it hit the wire: recovery traffic follows the fault
    // that caused it, it does not precede it.
    let total_bytes: u64 = data_events.iter().map(|&(_, len)| len as u64).sum();
    let span_ns = match (data_events.first(), data_events.last()) {
        (Some(&(a, _)), Some(&(b, _))) if b > a => b.as_nanos() - a.as_nanos(),
        _ => 0,
    };
    let mean_rate = if span_ns > 0 {
        total_bytes as f64 / span_ns as f64
    } else {
        0.0
    };
    let mut windows: Vec<WindowRecovery> = Vec::new();
    let mut ttr_histogram = TtrHistogram::default();
    for (i, w) in opts.windows.iter().enumerate() {
        let next_start = opts.windows.get(i + 1).map(|n| n.from);
        let in_window = |t: SimTime| w.contains(t);
        let attributed = |t: SimTime| t >= w.from && next_start.is_none_or(|n| t < n);
        let data_packets = data_events.iter().filter(|&&(t, _)| in_window(t)).count() as u64;
        let window_bytes: u64 = data_events
            .iter()
            .filter(|&&(t, _)| in_window(t))
            .map(|&(_, len)| len as u64)
            .sum();
        let retransmits = retrans_events.iter().filter(|&&t| attributed(t)).count() as u64;
        let time_to_recovery_us = progress_events
            .iter()
            .find(|&&t| t >= w.until)
            .map(|t| t.saturating_since(w.until).as_nanos() / 1_000);
        match time_to_recovery_us {
            Some(us) => ttr_histogram.record(us),
            None => ttr_histogram.unrecovered += 1,
        }
        let duration_ns = w.until.saturating_since(w.from).as_nanos();
        let goodput_ratio = if mean_rate > 0.0 && duration_ns > 0 {
            (window_bytes as f64 / duration_ns as f64) / mean_rate
        } else {
            0.0
        };
        windows.push(WindowRecovery {
            from_us: w.from.as_nanos() / 1_000,
            until_us: w.until.as_nanos() / 1_000,
            data_packets,
            retransmits,
            time_to_recovery_us,
            goodput_ratio,
        });
    }

    // ---- Invariants ----
    let mut violations = Vec::new();
    for f in flows {
        if f.completed.saturating_add(f.failed) < f.planned {
            violations.push(LivenessViolation::Unaccounted {
                qpn: f.qpn,
                planned: f.planned,
                completed: f.completed,
                failed: f.failed,
            });
        }
    }
    for qp in qps {
        if qp.unacked && !qp.timer_armed && !qp.errored {
            violations.push(LivenessViolation::StuckQp {
                qpn: qp.qpn,
                requester: qp.requester,
            });
        }
    }
    let limit = DEFAULT_AMPLIFICATION_LIMIT;
    let bound = limit * opts.destroyed as f64 + AMPLIFICATION_SLACK as f64;
    for (i, w) in windows.iter().enumerate() {
        if w.retransmits as f64 > bound {
            violations.push(LivenessViolation::RetransmitAmplification {
                window: i,
                retransmits: w.retransmits,
                destroyed: opts.destroyed,
                limit,
            });
        }
    }

    RecoveryReport {
        live: violations.is_empty(),
        violations,
        windows,
        ttr_histogram,
        // Saturating folds: end-of-run accounting is analyzer input, and
        // a hostile harvest must degrade to a clamped total, not a panic.
        planned: flows.iter().fold(0u64, |a, f| a.saturating_add(f.planned)),
        completed: flows
            .iter()
            .fold(0u64, |a, f| a.saturating_add(f.completed)),
        failed: flows.iter().fold(0u64, |a, f| a.saturating_add(f.failed)),
        retransmits: retrans_events.len() as u64,
        amplification_limit: limit,
    }
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
fn frame(flavor: u8, psn: u32) -> RoceHeaders {
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
        windows in prop::collection::vec(0u64..120 * 120, 0..4),
        destroyed in 0u64..8,
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

        // The counter's and the recovery oracle's views against their walks.
        // With both NICs' counters at zero, each nonzero tally is a finding.
        let armed = ConformanceOpts {
            recovery: true,
            ..opts
        };
        let views = super::conformance::replay(&trace, &conns, &armed).1;
        let zero = Counters::default();
        prop_assert_eq!(
            json(&counter::check(&views.counter, &zero, &zero)),
            json(&walked_counter(&trace, &conns, 1024, &zero, &zero))
        );
        // Without connection 4, whose requester sits on the responder's
        // host, every IP has one role: a corrupt event toward the requester
        // is not toward a responder.
        let one_role: Vec<ConnMeta> = conns.iter().filter(|c| c.index != 4).copied().collect();
        let tally = super::conformance::replay(&trace, &one_role, &armed).1.counter;
        prop_assert_eq!(
            json(&counter::check(&tally, &zero, &zero)),
            json(&walked_counter(&trace, &one_role, 1024, &zero, &zero))
        );
        let opts = RecoveryOpts {
            // Unsorted, overlapping, sometimes inverted windows in the
            // trace's 0–112 µs.
            windows: windows
                .iter()
                .map(|&w| Window {
                    from: SimTime::from_micros(w / 120),
                    until: SimTime::from_micros(w % 120),
                })
                .collect(),
            destroyed,
        };
        prop_assert_eq!(
            json(&recovery::analyze(views.recovery.as_ref(), &[], &[], &opts)),
            json(&walked_recovery(Some(&trace), &[], &[], &opts))
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

/// One pinned input: the two public reports over it, and what the
/// differential needs to know about it.
struct Pinned {
    gbn: GbnReport,
    conformance: ConformanceReport,
    /// The Go-back-N view of the replay that graded the input with its own
    /// options (what a run's report shows).
    graded_gbn: GbnReport,
    retransmissions: Vec<RetransBreakdown>,
    conns: Vec<ConnMeta>,
    /// The oracle's NACK check runs: the trace is neither degraded nor
    /// chaos-lossy.
    gate_open: bool,
    /// Per connection: a delay or reorder event on either of its keys, the
    /// oracle's displacement rule (gbn's looks at the data key only).
    displaced: Vec<bool>,
}

fn pinned(trace: &Trace, conns: &[ConnMeta], opts: &ConformanceOpts) -> Pinned {
    let displacing: Vec<&RoceHeaders> = trace
        .iter()
        .filter(|e| matches!(e.event, EventType::Delay | EventType::Reorder))
        .map(|e| &e.frame)
        .collect();
    let displaced = conns
        .iter()
        .map(|meta| {
            let key = meta.data_conn_key();
            displacing.iter().any(|f| {
                let on = (f.ipv4.src, f.ipv4.dst, f.bth.dest_qp);
                on == (key.src_ip, key.dst_ip, key.dst_qpn)
                    || on == (key.dst_ip, key.src_ip, meta.reverse_qpn())
            })
        })
        .collect();
    Pinned {
        gbn: gbn_fsm::analyze(trace, conns),
        conformance: super::conformance::analyze(trace, conns, opts),
        graded_gbn: super::conformance::replay(trace, conns, opts).1.gbn,
        retransmissions: retrans_perf::analyze(trace, conns),
        conns: conns.to_vec(),
        gate_open: !opts.degraded && !opts.external_loss,
        displaced,
    }
}

fn pinned_run(cfg: &TestConfig) -> Option<Pinned> {
    let res = run_test(cfg).unwrap();
    let trace = res.trace.as_ref()?;
    Some(pinned(
        trace,
        &res.conns,
        &ConformanceOpts::from_results(&res),
    ))
}

/// The pinned inputs, computed once for the three tests below: (a) every preset
/// at seeds 1 and 2; (b) 32 quirk-knob children of `quirks_demo`; (c) 256
/// colliding traces, each with the notification points off and on, a
/// quarter of them degraded and a quarter chaos-lossy.
static PINNED: LazyLock<[Vec<Pinned>; 3]> = LazyLock::new(|| {
    let presets = presets();
    let runs = presets
        .iter()
        .flat_map(|(_, cfg)| {
            [1, 2].map(|seed| {
                let mut cfg = cfg.clone();
                cfg.network.seed = seed;
                cfg
            })
        })
        .filter_map(|cfg| pinned_run(&cfg))
        .collect();

    let (_, quirks_demo) = presets
        .iter()
        .find(|(path, _)| path.ends_with("quirks_demo.yaml"))
        .expect("configs/quirks_demo.yaml");
    let mut mutator = EventMutator {
        mutate_quirks: true,
        ..EventMutator::default()
    };
    let mut rng = SimRng::seed_from_u64(0x2601);
    let children = (0..32)
        .filter_map(|_| pinned_run(&mutator.mutate(quirks_demo, &mut rng)))
        .collect();

    let mut rng = SimRng::seed_from_u64(0x2602);
    let conns = colliding_conns();
    let mut colliding = Vec::new();
    for i in 0..256 {
        let len = rng.below(160);
        let packets: Vec<(u8, u32, u8)> = (0..len)
            .map(|_| {
                (
                    rng.below(16) as u8,
                    rng.below(12) as u32,
                    rng.below(48) as u8,
                )
            })
            .collect();
        let trace = trace_of(&packets);
        for np in [false, true] {
            let opts = ConformanceOpts {
                np_enabled_requester: np,
                np_enabled_responder: np,
                mtu: 1024,
                degraded: i % 4 == 1,
                external_loss: i % 4 == 2,
                ..ConformanceOpts::default()
            };
            colliding.push(pinned(&trace, &conns, &opts));
        }
    }
    [runs, children, colliding]
});

fn fnv64(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Per group of pinned inputs: its size, and the FNV-64 of `bytes` of each
/// input in turn.
fn digests(bytes: impl Fn(&Pinned) -> String) -> [(usize, String); 3] {
    PINNED.each_ref().map(|group| {
        let h = group
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, p| fnv64(h, bytes(p).as_bytes()));
        (group.len(), format!("{h:016x}"))
    })
}

/// Both public reports, byte for byte, on every pinned input. The constants
/// come from the two analyzers' separate walks, before they became one
/// replay: a change that moves them changes what a report says.
#[test]
fn replay_reports_are_pinned() {
    assert_eq!(
        digests(|p| json(&p.gbn) + &json(&p.conformance)),
        [
            (22, "77957416f23b5666".to_string()),
            (32, "34760ba74252506e".to_string()),
            (512, "805eaf2fbf6a2d35".to_string()),
        ]
    );
}

/// The retransmission breakdowns, byte for byte, on every pinned input (835
/// of them). The constants come from `retrans_perf`'s forward scan over a
/// per-connection index, before the breakdowns became a view of the replay.
#[test]
fn retransmission_breakdowns_are_pinned() {
    assert_eq!(
        digests(|p| json(&p.retransmissions)),
        [
            (22, "7f648d89e133e402".to_string()),
            (32, "251a143887483efe".to_string()),
            (512, "2999de81c2917d0d".to_string()),
        ]
    );
    let breakdowns = PINNED.iter().flatten().map(|p| p.retransmissions.len());
    assert_eq!(breakdowns.sum::<usize>(), 45 + 32 + 758);
}

/// The oracle's options gate the oracle's checks only: on every pinned
/// input, the Go-back-N view of the replay that graded it is the one the
/// frozen entry point reports.
#[test]
fn the_view_does_not_depend_on_the_oracle_options() {
    let gated = PINNED
        .iter()
        .flatten()
        .inspect(|p| assert_eq!(json(&p.graded_gbn), json(&p.gbn)))
        .filter(|p| !p.gate_open && !p.gbn.compliant())
        .count();
    assert!(gated > 0, "no gated input the view flags");
}

/// The one rule both views check: a sequence-error NACK names the receiver's
/// expected PSN. Wherever the oracle checks it (gate open, report not
/// truncated, connection displaced for neither), gbn's `NACK carries PSN`
/// lines and the oracle's `nack-psn-mismatch` violations count the same.
#[test]
fn both_views_count_the_same_nack_psn_mismatches() {
    let mut mismatches = 0;
    for p in PINNED.iter().flatten() {
        if !p.gate_open || p.conformance.truncated {
            continue;
        }
        for ((meta, gbn), &displaced) in p.conns.iter().zip(&p.gbn.per_conn).zip(&p.displaced) {
            if gbn.displaced || displaced {
                continue;
            }
            let by_gbn = gbn
                .violations
                .iter()
                .filter(|v| v.contains("NACK carries PSN"))
                .count();
            let by_oracle = p
                .conformance
                .violations
                .iter()
                .filter(|v| {
                    v.class == ViolationClass::NackPsnMismatch && v.conn == Some(meta.index)
                })
                .count();
            assert_eq!(
                by_gbn, by_oracle,
                "conn {}: {:?}",
                meta.index, gbn.violations
            );
            mismatches += by_gbn;
        }
    }
    assert!(mismatches > 0, "no pinned input exercises the rule");
}
