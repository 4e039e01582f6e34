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

use lumina_core::analyzers::{
    conformance, gbn_fsm, ConformanceOpts, Decision, Decisions, ViolationClass,
};
use lumina_core::config::{EventSpec, QuirksSection, TestConfig};
use lumina_core::fuzz::coverage::signal_of;
use lumina_core::orchestrator::{run_test, TestResults};
use lumina_core::translate::ConnMeta;
use lumina_dumper::trace::{Trace, TraceEntry};
use lumina_packet::aeth::{Aeth, AethSyndrome, NakCode};
use lumina_packet::bth::{psn_add, psn_distance};
use lumina_packet::builder::{ack_frame, nack_frame, DataPacketBuilder};
use lumina_packet::frame::{RoceFrame, RoceHeaders};
use lumina_packet::opcode::Opcode;
use lumina_rnic::qp::QpEndpoint;
use lumina_rnic::{Quirk, QuirkKnobs, Verb};
use lumina_sim::SimTime;
use lumina_switch::events::EventType;
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
            frame: frame.headers(),
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

/// A preset's compliant trace, to be edited, and the run that made it.
struct Clean {
    name: &'static str,
    res: TestResults,
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
            let res = run_test(&preset(name)).unwrap();
            let clean = Clean {
                name,
                trace: res.trace.clone().unwrap(),
                opts: ConformanceOpts::from_results(&res),
                conns: res.conns.clone(),
                res,
            };
            let conf = conformance::analyze(&clean.trace, &clean.conns, &clean.opts);
            assert!(conf.compliant && !conf.partial, "{name}: {conf:?}");
            let gbn = gbn_fsm::analyze(&clean.trace, &clean.conns);
            assert!(gbn.compliant(), "{name}: {:?}", gbn.violations());
            clean
        })
        .collect()
}

fn preset(name: &str) -> TestConfig {
    let path = format!("{}/../../configs/{name}.yaml", env!("CARGO_MANIFEST_DIR"));
    TestConfig::from_yaml(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn on(f: &RoceHeaders, src: Ipv4Addr, dst: Ipv4Addr, qpn: u32) -> bool {
    (f.ipv4.src, f.ipv4.dst, f.bth.dest_qp) == (src, dst, qpn)
}

/// A data packet of the (write) connection.
fn is_data(meta: &ConnMeta, f: &RoceHeaders) -> bool {
    let key = meta.data_conn_key();
    on(f, key.src_ip, key.dst_ip, key.dst_qpn) && f.bth.opcode.is_data()
}

/// The AETH of an acknowledge flowing back to the connection's sender.
fn reverse_aeth(meta: &ConnMeta, f: &RoceHeaders) -> Option<Aeth> {
    let key = meta.data_conn_key();
    let back = on(f, key.dst_ip, key.src_ip, meta.reverse_qpn());
    f.ext
        .aeth
        .filter(|_| back && f.bth.opcode == Opcode::Acknowledge)
}

fn is_ack(meta: &ConnMeta, f: &RoceHeaders) -> bool {
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

/// One edited trace: the entry the edit is at, the trace, and the one
/// class the edit plants.
type Mutant = (usize, Trace, ViolationClass);

/// Every mutant of one connection of a clean trace that an edit makes.
type Edit = fn(&Trace, &ConnMeta) -> Vec<Mutant>;

/// Every mutant `edit` makes of every connection of every clean trace must
/// draw exactly its one class from the oracle and exactly `gbn` from the
/// Go-back-N view. Returns the classes planted.
fn assert_teeth(name: &str, edit: Edit, gbn: &[&str]) -> Vec<ViolationClass> {
    let mut planted = Vec::new();
    for clean in clean_traces() {
        for meta in &clean.conns {
            for (at, mutant, class) in edit(&clean.trace, meta) {
                let conf = conformance::analyze(&mutant, &clean.conns, &clean.opts);
                let classes: Vec<ViolationClass> =
                    conf.violations.iter().map(|v| v.class).collect();
                assert_eq!(
                    classes,
                    [class],
                    "{}: {name} at entry {at}: {:?}",
                    clean.name,
                    conf.violations
                );
                let mut expected: Vec<String> = gbn.iter().map(|k| k.to_string()).collect();
                expected.sort();
                assert_eq!(
                    gbn_kinds(&mutant, &clean.conns),
                    expected,
                    "{}: {name} at entry {at}",
                    clean.name
                );
                planted.push(class);
            }
        }
    }
    planted
}

fn without(trace: &Trace, at: usize) -> Trace {
    let mut t = trace.clone();
    t.entries.remove(at);
    t
}

/// Drop an ACK that the next one covers.
fn drop_covered_acks(trace: &Trace, meta: &ConnMeta) -> Vec<Mutant> {
    acks_of(trace, meta)
        .windows(2)
        .filter(|w| matches!(w, [a, b] if a.covered == 1 && b.covered >= 1))
        .map(|w| {
            (
                w[0].at,
                without(trace, w[0].at),
                ViolationClass::AckCoalescing,
            )
        })
        .collect()
}

/// Lower the MSN of an ACK below the highest seen.
fn lower_msns(trace: &Trace, meta: &ConnMeta) -> Vec<Mutant> {
    let mut highest: Option<u32> = None;
    let mut mutants = Vec::new();
    for (at, e) in trace.iter().enumerate() {
        // The oracle tracks the MSN of ACKs and sequence-error NACKs.
        let Some(aeth) = reverse_aeth(meta, &e.frame) else {
            continue;
        };
        let ack = !aeth.syndrome.is_nak();
        if !ack && !aeth.syndrome.is_seq_err_nak() {
            continue;
        }
        if let (true, Some(m @ 1..)) = (ack, highest) {
            let mut t = trace.clone();
            t.entries[at].frame.ext.aeth = Some(Aeth { msn: m - 1, ..aeth });
            mutants.push((at, t, ViolationClass::MsnRegression));
        }
        if highest.is_none_or(|m| psn_distance(m, aeth.msn) > 0) {
            highest = Some(aeth.msn);
        }
    }
    mutants
}

/// Move an ACK past the sender frontier.
fn acks_past_the_frontier(trace: &Trace, meta: &ConnMeta) -> Vec<Mutant> {
    acks_of(trace, meta)
        .windows(2)
        .filter_map(|w| {
            let a = &w[0];
            let frontier = a.frontier.filter(|_| a.waiting <= 1)?;
            let mut t = trace.clone();
            t.entries[a.at].frame.bth.psn = psn_add(frontier, 1 << 22);
            Some((a.at, t, ViolationClass::AckPsnInvalid))
        })
        .collect()
}

/// Duplicate each data packet delivered in order before the connection's
/// first loss or NACK just before its successor: unacked delivery, or a
/// spurious retransmission when an ACK already covered it.
fn unprovoked_duplicates(trace: &Trace, meta: &ConnMeta) -> Vec<Mutant> {
    let entries = &trace.entries;
    let mut expected = meta.data_psn(1);
    let mut mutants = Vec::new();
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
        let already_acked = entries[..next]
            .iter()
            .any(|a| is_ack(meta, &a.frame) && psn_distance(f.bth.psn, a.frame.bth.psn) >= 0);
        let class = if already_acked {
            ViolationClass::SpuriousRetransmit
        } else {
            ViolationClass::UnackedDelivery
        };
        let mut t = trace.clone();
        t.entries.insert(next, e.clone());
        mutants.push((at, t, class));
    }
    mutants
}

/// Move each sequence-error NACK one PSN up.
fn nacks_off_by_one(trace: &Trace, meta: &ConnMeta) -> Vec<Mutant> {
    trace
        .iter()
        .enumerate()
        .filter(|(_, e)| reverse_aeth(meta, &e.frame).is_some_and(|a| a.syndrome.is_seq_err_nak()))
        .map(|(at, e)| {
            let mut t = trace.clone();
            t.entries[at].frame.bth.psn = psn_add(e.frame.bth.psn, 1);
            (at, t, ViolationClass::NackPsnMismatch)
        })
        .collect()
}

/// Delete every CNP of the trace: a whole-trace edit, made once, for the
/// first connection, when there is a CNP to delete.
fn without_cnps(trace: &Trace, meta: &ConnMeta) -> Vec<Mutant> {
    let mut t = trace.clone();
    t.entries.retain(|e| e.frame.bth.opcode != Opcode::Cnp);
    if meta.index == 1 && t.len() < trace.len() {
        vec![(0, t, ViolationClass::MissingCnp)]
    } else {
        Vec::new()
    }
}

#[test]
fn dropping_an_ack_that_the_next_one_covers_is_coalescing() {
    assert!(!assert_teeth("drop ACK", drop_covered_acks, &[]).is_empty());
}

#[test]
fn lowering_an_msn_is_msn_regression() {
    assert!(!assert_teeth("lower MSN", lower_msns, &[]).is_empty());
}

#[test]
fn an_ack_past_the_frontier_is_invalid_and_the_next_one_regresses() {
    let edits = assert_teeth(
        "ACK past the frontier",
        acks_past_the_frontier,
        &["ACK PSN regressed"],
    );
    assert!(!edits.is_empty());
}

#[test]
fn an_unprovoked_duplicate_is_unacked_delivery_or_spurious_retransmit() {
    let planted = assert_teeth("duplicate data packet", unprovoked_duplicates, &[]);
    let count = |class| planted.iter().filter(|c| **c == class).count();
    let (unacked, spurious) = (
        count(ViolationClass::UnackedDelivery),
        count(ViolationClass::SpuriousRetransmit),
    );
    assert!(unacked > 0 && spurious > 0, "{unacked} / {spurious}");
}

#[test]
fn a_nack_off_by_one_is_a_psn_mismatch_in_both_views() {
    // The resumed round then starts one PSN before what the NACK asked
    // for, which is the Go-back-N view's second line.
    let edits = assert_teeth(
        "NACK PSN + 1",
        nacks_off_by_one,
        &["NACK carries PSN", "retransmission round started at"],
    );
    assert!(!edits.is_empty());
}

#[test]
fn deleting_every_cnp_is_missing_cnp() {
    // Both clean traces carry CNPs: one mutant each.
    assert_eq!(assert_teeth("delete CNPs", without_cnps, &[]).len(), 2);
}

// ---- The decision table is what the replay reaches ----

/// The quirk matrix's knobs (`tests/quirk_matrix.rs`), each on
/// `fig11_noisy_neighbor` trimmed to two messages per QP.
fn quirk_knobs() -> Vec<TestConfig> {
    let write = |c: &mut TestConfig| c.traffic.rdma_verb = "write".into();
    let knob = |quirks: QuirksSection, tweak: &dyn Fn(&mut TestConfig)| {
        let mut c = preset("fig11_noisy_neighbor");
        c.traffic.num_msgs_per_qp = 2;
        tweak(&mut c);
        c.quirks = Some(quirks);
        c
    };
    let q = QuirksSection::default;
    vec![
        knob(
            QuirksSection {
                knobs: QuirkKnobs::default().with(Quirk::WrongAckPsn, 0.3),
                ..q()
            },
            &write,
        ),
        knob(
            QuirksSection {
                knobs: QuirkKnobs::default().with(Quirk::AckDrop, 0.3),
                ..q()
            },
            &write,
        ),
        knob(
            QuirksSection {
                knobs: QuirkKnobs::default().with(Quirk::AckCoalesce, 0.35),
                ..q()
            },
            &|c| {
                write(c);
                c.traffic.tx_depth = 4;
            },
        ),
        knob(
            QuirksSection {
                knobs: QuirkKnobs::default().with(Quirk::CnpSuppress, 1.0),
                ..q()
            },
            &|c| {
                c.requester.dcqcn_np_enable = true;
                for qpn in [13, 14] {
                    c.traffic.data_pkt_events.push(EventSpec {
                        qpn,
                        psn: 3,
                        r#type: "ecn".into(),
                        iter: 1,
                        every: 0,
                        delay_us: 0,
                        reorder_by: 0,
                    });
                }
            },
        ),
        knob(
            QuirksSection {
                knobs: QuirkKnobs::default().with(Quirk::CnpSpurious, 0.02),
                ..q()
            },
            &|_| {},
        ),
        knob(
            QuirksSection {
                knobs: QuirkKnobs::default().with(Quirk::GhostRetransmit, 0.05),
                ..q()
            },
            &|_| {},
        ),
        knob(
            QuirksSection {
                knobs: QuirkKnobs::default().with(Quirk::StaleMsn, 0.4),
                ..q()
            },
            &|_| {},
        ),
        knob(
            QuirksSection {
                knobs: QuirkKnobs::default().with(Quirk::GbnOffByOne, 0.5),
                ..q()
            },
            &write,
        ),
        knob(
            QuirksSection {
                knobs: QuirkKnobs::default().with(Quirk::IcrcCorrupt, 0.05),
                ..q()
            },
            &|_| {},
        ),
    ]
}

/// The decisions one replay of `trace` takes, graded as `res` was, read
/// through the fuzzer's own signal.
fn decisions_over(res: &mut TestResults, trace: Trace) -> Decisions {
    let clean = res.trace.replace(trace);
    let seen = signal_of(res);
    res.trace = clean;
    seen
}

/// Every entry of the decision table is reached by a preset, a quirk knob
/// or a trace mutant: an entry nothing reaches does not belong in it.
#[test]
fn every_decision_point_is_reached() {
    let mut seen = Decisions::default();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "yaml") {
            let cfg = TestConfig::from_yaml(&std::fs::read_to_string(&path).unwrap()).unwrap();
            seen |= signal_of(&run_test(&cfg).unwrap());
        }
    }
    for cfg in quirk_knobs() {
        seen |= signal_of(&run_test(&cfg).unwrap());
    }
    let edits: [Edit; 6] = [
        drop_covered_acks,
        lower_msns,
        acks_past_the_frontier,
        unprovoked_duplicates,
        nacks_off_by_one,
        without_cnps,
    ];
    for mut clean in clean_traces() {
        for meta in clean.conns.clone() {
            for edit in edits {
                for (_, mutant, class) in edit(&clean.trace, &meta) {
                    let took = decisions_over(&mut clean.res, mutant);
                    let proving = Decision::ALL.iter().find(|d| d.proves() == Some(class));
                    assert!(
                        took.contains(*proving.unwrap()),
                        "{}: {class:?}",
                        clean.name
                    );
                    seen |= took;
                }
            }
        }
    }
    let missed: Vec<&str> = Decision::ALL
        .iter()
        .filter(|d| !seen.contains(**d))
        .map(|d| d.label())
        .collect();
    assert!(missed.is_empty(), "unreached decision points: {missed:?}");
}
