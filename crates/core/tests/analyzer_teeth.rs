//! The analyzers must have teeth: hand-built traces that *violate* the
//! Go-back-N specification must be flagged. (Compliance on healthy models
//! is covered elsewhere; these tests prove the FSM detects broken
//! implementations — the paper's actual purpose.)
//!
//! The second half generates the broken traces instead: it takes the
//! compliant trace of a preset, applies one edit at every position where
//! the edit is possible, and requires the conformance oracle to report
//! exactly the class the edit plants, and the Go-back-N view exactly the
//! lines it implies. No NIC model's quirks are involved.

use lumina_core::analyzers::{conformance, gbn_fsm, ConformanceOpts, ViolationClass};
use lumina_core::config::TestConfig;
use lumina_core::orchestrator::run_test;
use lumina_core::translate::ConnMeta;
use lumina_dumper::trace::{Trace, TraceEntry};
use lumina_packet::aeth::{Aeth, AethSyndrome, NakCode};
use lumina_packet::bth::{psn_add, psn_distance};
use lumina_packet::builder::{ack_frame, nack_frame, DataPacketBuilder};
use lumina_packet::frame::RoceFrame;
use lumina_packet::opcode::Opcode;
use lumina_rnic::qp::QpEndpoint;
use lumina_rnic::Verb;
use lumina_sim::SimTime;
use lumina_switch::events::EventType;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

const REQ_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RSP_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const REQ_QPN: u32 = 0x11;
const RSP_QPN: u32 = 0x22;
const IPSN: u32 = 1000;

fn meta() -> ConnMeta {
    ConnMeta {
        index: 1,
        requester: QpEndpoint {
            ip: REQ_IP,
            qpn: REQ_QPN,
            ipsn: IPSN,
        },
        responder: QpEndpoint {
            ip: RSP_IP,
            qpn: RSP_QPN,
            ipsn: 5000,
        },
        verb: Verb::Write,
    }
}

struct TraceBuilder {
    entries: Vec<TraceEntry>,
    t: u64,
}

impl TraceBuilder {
    fn new() -> TraceBuilder {
        TraceBuilder {
            entries: Vec::new(),
            t: 0,
        }
    }

    fn push(&mut self, frame: RoceFrame, event: EventType) -> &mut Self {
        self.t += 1000;
        let seq = self.entries.len() as u64;
        self.entries.push(TraceEntry {
            seq,
            timestamp: SimTime::from_nanos(self.t),
            event,
            frame,
            orig_len: 1100,
        });
        self
    }

    /// Data packet with 1-based relative position `rel`.
    fn data(&mut self, rel: u32, event: EventType) -> &mut Self {
        let frame = DataPacketBuilder::new()
            .src_ip(REQ_IP)
            .dst_ip(RSP_IP)
            .opcode(Opcode::RdmaWriteMiddle)
            .dest_qp(RSP_QPN)
            .psn(psn_add(IPSN, rel - 1))
            .payload_len(0)
            .build();
        self.push(frame, event)
    }

    fn nack(&mut self, rel_expected: u32) -> &mut Self {
        let frame = nack_frame(RSP_IP, REQ_IP, REQ_QPN, psn_add(IPSN, rel_expected - 1), 0);
        self.push(frame, EventType::None)
    }

    fn ack(&mut self, rel: u32) -> &mut Self {
        let frame = ack_frame(
            RSP_IP,
            REQ_IP,
            REQ_QPN,
            psn_add(IPSN, rel - 1),
            AethSyndrome::Ack { credit: 31 },
            0,
        );
        self.push(frame, EventType::None)
    }

    fn build(&mut self) -> Trace {
        Trace {
            entries: std::mem::take(&mut self.entries),
        }
    }
}

fn analyze(trace: &Trace) -> gbn_fsm::ConnGbnReport {
    gbn_fsm::analyze(trace, &[meta()]).per_conn.remove(0)
}

#[test]
fn compliant_drop_recovery_accepted() {
    // 1 2 [3 dropped] 4 5, NACK(3), retransmit 3 4 5, ACK(5).
    let mut b = TraceBuilder::new();
    b.data(1, EventType::None)
        .data(2, EventType::None)
        .data(3, EventType::Drop)
        .data(4, EventType::None)
        .data(5, EventType::None)
        .nack(3)
        .data(3, EventType::None)
        .data(4, EventType::None)
        .data(5, EventType::None)
        .ack(5);
    let rep = analyze(&b.build());
    assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    assert_eq!(rep.nacks, 1);
    assert_eq!(rep.ooo_episodes, 1);
    assert_eq!(rep.acks, 1);
}

#[test]
fn spurious_nack_flagged() {
    // A NACK with no out-of-sequence episode is a spec violation.
    let mut b = TraceBuilder::new();
    b.data(1, EventType::None).data(2, EventType::None).nack(3);
    let rep = analyze(&b.build());
    // The PSN happens to match the receiver's expectation, so exactly one
    // violation: the missing episode.
    assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
    assert!(rep.violations[0].contains("without an out-of-sequence episode"));
}

#[test]
fn nack_with_wrong_psn_flagged() {
    // Receiver expects 3 (it was dropped) but the NACK claims 4.
    let mut b = TraceBuilder::new();
    b.data(1, EventType::None)
        .data(2, EventType::None)
        .data(3, EventType::Drop)
        .data(4, EventType::None)
        .nack(4);
    let rep = analyze(&b.build());
    assert!(
        rep.violations.iter().any(|v| v.contains("expected")),
        "{:?}",
        rep.violations
    );
}

#[test]
fn duplicate_nack_within_episode_flagged() {
    let mut b = TraceBuilder::new();
    b.data(1, EventType::None)
        .data(2, EventType::Drop)
        .data(3, EventType::None)
        .nack(2)
        .data(4, EventType::None) // still the same round, still OOO
        .nack(2); // second NACK without a new round: violation
    let rep = analyze(&b.build());
    assert!(
        rep.violations.iter().any(|v| v.contains("second NACK")),
        "{:?}",
        rep.violations
    );
}

#[test]
fn renack_after_dropped_retransmission_accepted() {
    // Drop 2, NACK, retransmission round drops 2 again → a SECOND NACK is
    // legitimate (new round).
    let mut b = TraceBuilder::new();
    b.data(1, EventType::None)
        .data(2, EventType::Drop)
        .data(3, EventType::None)
        .nack(2)
        .data(2, EventType::Drop) // retransmission dropped again
        .data(3, EventType::None) // new round, still OOO
        .nack(2)
        .data(2, EventType::None)
        .data(3, EventType::None)
        .ack(3);
    let rep = analyze(&b.build());
    assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    assert_eq!(rep.nacks, 2);
    assert_eq!(rep.ooo_episodes, 2);
}

#[test]
fn selective_repeat_flagged_as_non_gbn() {
    // After NACK(2), a Go-back-N sender must resume at 2. Resuming at 4
    // (selective repeat of only the missing tail) is flagged.
    let mut b = TraceBuilder::new();
    b.data(1, EventType::None)
        .data(2, EventType::Drop)
        .data(3, EventType::None)
        .data(4, EventType::None)
        .nack(2)
        .data(3, EventType::None); // round restarts at 3, not the NACKed 2
    let rep = analyze(&b.build());
    assert!(
        rep.violations
            .iter()
            .any(|v| v.contains("retransmission round started at")),
        "{:?}",
        rep.violations
    );
}

#[test]
fn ack_regression_flagged() {
    let mut b = TraceBuilder::new();
    b.data(1, EventType::None)
        .data(2, EventType::None)
        .data(3, EventType::None)
        .ack(3)
        .ack(1); // ACK PSN went backwards
    let rep = analyze(&b.build());
    assert!(
        rep.violations.iter().any(|v| v.contains("regressed")),
        "{:?}",
        rep.violations
    );
}

#[test]
fn other_nak_codes_ignored_by_gbn_fsm() {
    // A remote-access-error NAK is not a sequence-error NACK; the GBN FSM
    // must not treat it as one.
    let mut b = TraceBuilder::new();
    b.data(1, EventType::None);
    let frame = DataPacketBuilder::new()
        .src_ip(RSP_IP)
        .dst_ip(REQ_IP)
        .opcode(Opcode::Acknowledge)
        .dest_qp(REQ_QPN)
        .psn(IPSN)
        .aeth(Aeth {
            syndrome: AethSyndrome::Nak(NakCode::RemoteAccessError),
            msn: 0,
        })
        .build();
    b.push(frame, EventType::None);
    let rep = analyze(&b.build());
    assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    assert_eq!(rep.nacks, 0);
}

#[test]
fn corrupt_event_counts_as_not_delivered() {
    // A corrupted packet is dropped by the receiver on ICRC: the trace
    // must be interpreted with packet 2 missing.
    let mut b = TraceBuilder::new();
    b.data(1, EventType::None)
        .data(2, EventType::Corrupt)
        .data(3, EventType::None)
        .nack(2)
        .data(2, EventType::None)
        .data(3, EventType::None)
        .ack(3);
    let rep = analyze(&b.build());
    assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    assert_eq!(rep.nacks, 1);
    assert_eq!(rep.ooo_episodes, 1);
}

// ---- Teeth by trace mutation ----

/// A preset's compliant trace, to be edited.
struct Clean {
    name: &'static str,
    trace: Trace,
    conns: Vec<ConnMeta>,
    opts: ConformanceOpts,
}

/// `listing2` (WRITE, a drop and its NACKs, one CE mark) and
/// `cnp_hidden_interval` (WRITE, every packet CE-marked toward an NP):
/// both graded compliant, without partial evidence, by both views.
fn clean_traces() -> Vec<Clean> {
    ["listing2", "cnp_hidden_interval"]
        .into_iter()
        .map(|name| {
            let path = format!("{}/../../configs/{name}.yaml", env!("CARGO_MANIFEST_DIR"));
            let cfg = TestConfig::from_yaml(&std::fs::read_to_string(path).unwrap()).unwrap();
            let res = run_test(&cfg).unwrap();
            let clean = Clean {
                name,
                trace: res.trace.clone().unwrap(),
                opts: ConformanceOpts::from_results(&res),
                conns: res.conns,
            };
            let conf = conformance::analyze(&clean.trace, &clean.conns, &clean.opts);
            assert!(conf.compliant && !conf.partial, "{name}: {conf:?}");
            let gbn = gbn_fsm::analyze(&clean.trace, &clean.conns);
            assert!(gbn.compliant(), "{name}: {:?}", gbn.violations());
            clean
        })
        .collect()
}

fn on(f: &RoceFrame, src: Ipv4Addr, dst: Ipv4Addr, qpn: u32) -> bool {
    (f.ipv4.src, f.ipv4.dst, f.bth.dest_qp) == (src, dst, qpn)
}

/// A data packet of the (write) connection.
fn is_data(meta: &ConnMeta, f: &RoceFrame) -> bool {
    let key = meta.data_conn_key();
    on(f, key.src_ip, key.dst_ip, key.dst_qpn) && f.bth.opcode.is_data()
}

/// The AETH of an acknowledge flowing back to the connection's sender.
fn reverse_aeth(meta: &ConnMeta, f: &RoceFrame) -> Option<Aeth> {
    let key = meta.data_conn_key();
    let back = on(f, key.dst_ip, key.src_ip, meta.reverse_qpn());
    f.ext
        .aeth
        .filter(|_| back && f.bth.opcode == Opcode::Acknowledge)
}

fn is_ack(meta: &ConnMeta, f: &RoceFrame) -> bool {
    reverse_aeth(meta, f).is_some_and(|a| !a.syndrome.is_nak())
}

fn lost(e: &TraceEntry) -> bool {
    matches!(e.event, EventType::Drop | EventType::Corrupt)
}

/// One positive ACK of a connection and the ACK-due message boundaries
/// (in-order deliveries of a last packet or an AckReq) it found waiting.
struct AckAt {
    at: usize,
    waiting: usize,
    covered: usize,
    /// Highest data PSN on the wire before the ACK.
    frontier: Option<u32>,
}

fn acks_of(trace: &Trace, meta: &ConnMeta) -> Vec<AckAt> {
    let mut expected = meta.data_psn(1);
    let mut waiting: Vec<u32> = Vec::new();
    let mut frontier: Option<u32> = None;
    let mut acks = Vec::new();
    for (at, e) in trace.iter().enumerate() {
        let f = &e.frame;
        let psn = f.bth.psn;
        if is_data(meta, f) {
            if frontier.is_none_or(|m| psn_distance(m, psn) > 0) {
                frontier = Some(psn);
            }
            if !lost(e) && psn == expected {
                expected = psn_add(psn, 1);
                if f.bth.ack_req || f.bth.opcode.is_last() {
                    waiting.push(psn);
                }
            }
        } else if is_ack(meta, f) {
            let before = waiting.len();
            waiting.retain(|&b| psn_distance(b, psn) < 0);
            acks.push(AckAt {
                at,
                waiting: before,
                covered: before - waiting.len(),
                frontier,
            });
        }
    }
    acks
}

/// Sorted kinds of the Go-back-N view's lines (the line itself when it is
/// of none of the kinds).
fn gbn_kinds(trace: &Trace, conns: &[ConnMeta]) -> Vec<String> {
    const KINDS: [&str; 3] = [
        "NACK carries PSN",
        "retransmission round started at",
        "ACK PSN regressed",
    ];
    let mut kinds: Vec<String> = gbn_fsm::analyze(trace, conns)
        .violations()
        .into_iter()
        .map(|line| {
            KINDS
                .iter()
                .find(|k| line.contains(*k))
                .map_or(line, |k| k.to_string())
        })
        .collect();
    kinds.sort();
    kinds
}

/// Every mutant of `clean` must draw exactly one `class` violation from the
/// oracle and exactly `gbn` from the Go-back-N view. Returns how many there
/// were.
fn assert_mutants(
    clean: &Clean,
    edit: &str,
    mutants: Vec<(usize, Trace)>,
    class: impl Fn(usize) -> ViolationClass,
    gbn: &[&str],
) -> usize {
    for (at, mutant) in &mutants {
        let conf = conformance::analyze(mutant, &clean.conns, &clean.opts);
        let classes: Vec<ViolationClass> = conf.violations.iter().map(|v| v.class).collect();
        assert_eq!(
            classes,
            [class(*at)],
            "{}: {edit} at entry {at}: {:?}",
            clean.name,
            conf.violations
        );
        let mut expected: Vec<String> = gbn.iter().map(|k| k.to_string()).collect();
        expected.sort();
        assert_eq!(
            gbn_kinds(mutant, &clean.conns),
            expected,
            "{}: {edit} at entry {at}",
            clean.name
        );
    }
    mutants.len()
}

fn without(trace: &Trace, at: usize) -> Trace {
    let mut t = trace.clone();
    t.entries.remove(at);
    t
}

#[test]
fn dropping_an_ack_that_the_next_one_covers_is_coalescing() {
    let mut edits = 0;
    for clean in clean_traces() {
        for meta in &clean.conns {
            let acks = acks_of(&clean.trace, meta);
            let mutants = acks
                .windows(2)
                .filter(|w| matches!(w, [a, b] if a.covered == 1 && b.covered >= 1))
                .map(|w| (w[0].at, without(&clean.trace, w[0].at)))
                .collect();
            edits += assert_mutants(
                &clean,
                "drop ACK",
                mutants,
                |_| ViolationClass::AckCoalescing,
                &[],
            );
        }
    }
    assert!(edits > 0);
}

#[test]
fn lowering_an_msn_is_msn_regression() {
    let mut edits = 0;
    for clean in clean_traces() {
        for meta in &clean.conns {
            let mut highest: Option<u32> = None;
            let mut mutants = Vec::new();
            for (at, e) in clean.trace.iter().enumerate() {
                // The oracle tracks the MSN of ACKs and sequence-error NACKs.
                let Some(aeth) = reverse_aeth(meta, &e.frame) else {
                    continue;
                };
                let ack = !aeth.syndrome.is_nak();
                if !ack && !aeth.syndrome.is_seq_err_nak() {
                    continue;
                }
                if let (true, Some(m @ 1..)) = (ack, highest) {
                    let mut t = clean.trace.clone();
                    t.entries[at].frame.ext.aeth = Some(Aeth { msn: m - 1, ..aeth });
                    mutants.push((at, t));
                }
                if highest.is_none_or(|m| psn_distance(m, aeth.msn) > 0) {
                    highest = Some(aeth.msn);
                }
            }
            edits += assert_mutants(
                &clean,
                "lower MSN",
                mutants,
                |_| ViolationClass::MsnRegression,
                &[],
            );
        }
    }
    assert!(edits > 0);
}

#[test]
fn an_ack_past_the_frontier_is_invalid_and_the_next_one_regresses() {
    let mut edits = 0;
    for clean in clean_traces() {
        for meta in &clean.conns {
            let acks = acks_of(&clean.trace, meta);
            let mutants = acks
                .windows(2)
                .filter_map(|w| {
                    let a = &w[0];
                    let frontier = a.frontier.filter(|_| a.waiting <= 1)?;
                    let mut t = clean.trace.clone();
                    t.entries[a.at].frame.bth.psn = psn_add(frontier, 1 << 22);
                    Some((a.at, t))
                })
                .collect();
            edits += assert_mutants(
                &clean,
                "ACK past the frontier",
                mutants,
                |_| ViolationClass::AckPsnInvalid,
                &["ACK PSN regressed"],
            );
        }
    }
    assert!(edits > 0);
}

#[test]
fn an_unprovoked_duplicate_is_unacked_delivery_or_spurious_retransmit() {
    let (mut unacked, mut spurious) = (0, 0);
    for clean in clean_traces() {
        for meta in &clean.conns {
            let entries = &clean.trace.entries;
            // Data packets delivered in order before the connection's first
            // loss or NACK, each duplicated just before its successor.
            let mut expected = meta.data_psn(1);
            let mut mutants = Vec::new();
            let mut acked = BTreeSet::new();
            for (at, e) in entries.iter().enumerate() {
                let f = &e.frame;
                if reverse_aeth(meta, f).is_some_and(|a| a.syndrome.is_nak())
                    || (is_data(meta, f) && lost(e))
                {
                    break;
                }
                if !is_data(meta, f) || f.bth.psn != expected {
                    continue;
                }
                expected = psn_add(expected, 1);
                let next = entries
                    .iter()
                    .skip(at + 1)
                    .position(|n| is_data(meta, &n.frame))
                    .map_or(entries.len(), |d| at + 1 + d);
                let already_acked = entries[..next].iter().any(|a| {
                    is_ack(meta, &a.frame) && psn_distance(f.bth.psn, a.frame.bth.psn) >= 0
                });
                if already_acked {
                    acked.insert(at);
                }
                let mut t = clean.trace.clone();
                t.entries.insert(next, e.clone());
                mutants.push((at, t));
            }
            let class = |at| {
                if acked.contains(&at) {
                    ViolationClass::SpuriousRetransmit
                } else {
                    ViolationClass::UnackedDelivery
                }
            };
            let edits = assert_mutants(&clean, "duplicate data packet", mutants, class, &[]);
            spurious += acked.len();
            unacked += edits - acked.len();
        }
    }
    assert!(unacked > 0 && spurious > 0, "{unacked} / {spurious}");
}

#[test]
fn a_nack_off_by_one_is_a_psn_mismatch_in_both_views() {
    let mut edits = 0;
    for clean in clean_traces() {
        for meta in &clean.conns {
            let mutants = clean
                .trace
                .iter()
                .enumerate()
                .filter(|(_, e)| {
                    reverse_aeth(meta, &e.frame).is_some_and(|a| a.syndrome.is_seq_err_nak())
                })
                .map(|(at, e)| {
                    let mut t = clean.trace.clone();
                    t.entries[at].frame.bth.psn = psn_add(e.frame.bth.psn, 1);
                    (at, t)
                })
                .collect();
            // The resumed round then starts one PSN before what the NACK
            // asked for, which is the Go-back-N view's second line.
            edits += assert_mutants(
                &clean,
                "NACK PSN + 1",
                mutants,
                |_| ViolationClass::NackPsnMismatch,
                &["NACK carries PSN", "retransmission round started at"],
            );
        }
    }
    assert!(edits > 0);
}

#[test]
fn deleting_every_cnp_is_missing_cnp() {
    for clean in clean_traces() {
        let mut t = clean.trace.clone();
        t.entries.retain(|e| e.frame.bth.opcode != Opcode::Cnp);
        assert!(
            t.len() < clean.trace.len(),
            "{}: no CNP to delete",
            clean.name
        );
        assert_mutants(
            &clean,
            "delete CNPs",
            vec![(0, t)],
            |_| ViolationClass::MissingCnp,
            &[],
        );
    }
}
