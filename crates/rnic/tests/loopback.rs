//! End-to-end tests of two `Rnic` devices connected by an ideal wire with a
//! programmable fault injector in the middle — a miniature, self-contained
//! version of the Lumina testbed used to validate the transport machinery
//! before the full simulator stack gets involved.

use lumina_packet::Frame;
use lumina_packet::frame::RoceFrame;
use lumina_packet::MacAddr;
use lumina_rnic::ets::EtsConfig;
use lumina_rnic::profile::DeviceProfile;
use lumina_rnic::qp::{QpConfig, QpEndpoint};
use lumina_rnic::verbs::{Completion, CompletionStatus, Verb, WorkRequest};
use lumina_rnic::{Action, Rnic};
use lumina_sim::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

/// What the in-wire injector decides for each frame.
#[allow(dead_code)]
enum Verdict {
    Pass,
    Drop,
    Replace(Frame),
}

type Injector = Box<dyn FnMut(&RoceFrame, bool) -> Verdict>;

struct Pump {
    a: Rnic,
    b: Rnic,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    events: Vec<Option<Ev>>,
    seq: u64,
    now: SimTime,
    one_way: SimTime,
    injector: Option<Injector>,
    pub completions_a: Vec<Completion>,
    pub completions_b: Vec<Completion>,
    /// (time, parsed frame, a_to_b) for every frame that passed the wire.
    pub trace: Vec<(SimTime, RoceFrame, bool)>,
    /// FNV-64 over every frame a device emitted — time, direction, bytes,
    /// before the injector — and every completion, in the order they came.
    transcript: u64,
}

enum Ev {
    Frame { to_b: bool, frame: Frame },
    Timer { on_b: bool, token: u64 },
}

impl Pump {
    fn new(a: Rnic, b: Rnic, one_way: SimTime) -> Pump {
        Pump {
            a,
            b,
            queue: BinaryHeap::new(),
            events: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            one_way,
            injector: None,
            completions_a: Vec::new(),
            completions_b: Vec::new(),
            trace: Vec::new(),
            transcript: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.transcript = (self.transcript ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn with_injector(mut self, f: Injector) -> Pump {
        self.injector = Some(f);
        self
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        let idx = self.events.len();
        self.events.push(Some(ev));
        self.queue.push(Reverse((at.as_nanos(), self.seq, idx)));
        self.seq += 1;
    }

    fn apply(&mut self, from_a: bool, actions: Vec<Action>) {
        for act in actions {
            match act {
                Action::Emit(frame) => {
                    self.fold(&self.now.as_nanos().to_le_bytes());
                    self.fold(&[u8::from(from_a)]);
                    self.fold(&frame);
                    // The injector sits mid-wire, like Lumina's switch; the
                    // trace records every transmission *before* any drop —
                    // exactly like Lumina's ingress mirroring (§3.4).
                    let parsed = RoceFrame::parse(&frame).expect("emitted frame parses");
                    let verdict = match self.injector.as_mut() {
                        Some(f) => f(&parsed, from_a),
                        None => Verdict::Pass,
                    };
                    match verdict {
                        Verdict::Drop => {
                            self.trace.push((self.now, parsed, from_a));
                        }
                        Verdict::Pass => {
                            self.trace.push((self.now, parsed, from_a));
                            self.push(
                                self.now + self.one_way,
                                Ev::Frame {
                                    to_b: from_a,
                                    frame,
                                },
                            );
                        }
                        Verdict::Replace(new) => {
                            let reparsed = RoceFrame::parse(&new).expect("replacement parses");
                            self.trace.push((self.now, reparsed, from_a));
                            self.push(
                                self.now + self.one_way,
                                Ev::Frame {
                                    to_b: from_a,
                                    frame: new,
                                },
                            );
                        }
                    }
                }
                Action::ArmTimer { at, token } => {
                    self.push(at, Ev::Timer { on_b: !from_a, token });
                }
                Action::Complete(c) => {
                    self.fold(format!("{from_a} {c:?}").as_bytes());
                    if from_a {
                        self.completions_a.push(c);
                    } else {
                        self.completions_b.push(c);
                    }
                }
            }
        }
    }

    fn post_a(&mut self, qpn: u32, wr: WorkRequest) {
        let now = self.now;
        let actions = self.a.post_send(qpn, wr, now);
        self.apply(true, actions);
    }

    fn run(&mut self, horizon: SimTime) {
        let mut guard = 0u64;
        while let Some(&Reverse((t, _, idx))) = self.queue.peek() {
            if t > horizon.as_nanos() {
                break;
            }
            guard += 1;
            assert!(guard < 50_000_000, "pump livelock");
            self.queue.pop();
            self.now = SimTime::from_nanos(t);
            let ev = self.events[idx].take().unwrap();
            match ev {
                Ev::Frame { to_b, frame } => {
                    let now = self.now;
                    if to_b {
                        let acts = self.b.on_frame(frame, now);
                        self.apply(false, acts);
                    } else {
                        let acts = self.a.on_frame(frame, now);
                        self.apply(true, acts);
                    }
                }
                Ev::Timer { on_b, token } => {
                    let now = self.now;
                    if on_b {
                        let acts = self.b.on_timer(token, now);
                        self.apply(false, acts);
                    } else {
                        let acts = self.a.on_timer(token, now);
                        self.apply(true, acts);
                    }
                }
            }
        }
    }
}

const REQ_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RSP_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const REQ_QPN: u32 = 0x11;
const RSP_QPN: u32 = 0x22;

fn qp_cfg(local_req: bool, mtu: u32, dcqcn: bool) -> QpConfig {
    let req = QpEndpoint {
        ip: REQ_IP,
        qpn: REQ_QPN,
        ipsn: 1000,
    };
    let rsp = QpEndpoint {
        ip: RSP_IP,
        qpn: RSP_QPN,
        ipsn: 5000,
    };
    let (local, remote) = if local_req { (req, rsp) } else { (rsp, req) };
    QpConfig {
        local,
        remote,
        remote_mac: MacAddr::local(99),
        mtu,
        timeout_code: 14,
        retry_cnt: 7,
        adaptive_retrans: false,
        traffic_class: 0,
        dcqcn_rp: dcqcn,
        dcqcn_np: dcqcn,
        min_time_between_cnps: SimTime::from_micros(4),
        udp_src_port: 49152,
    }
}

fn pair(profile: DeviceProfile, mtu: u32, dcqcn: bool) -> Pump {
    pair_hetero(profile.clone(), profile, mtu, dcqcn)
}

fn pair_hetero(pa: DeviceProfile, pb: DeviceProfile, mtu: u32, dcqcn: bool) -> Pump {
    let mut a = Rnic::new(pa, EtsConfig::single_queue(), MacAddr::local(1));
    let mut b = Rnic::new(pb, EtsConfig::single_queue(), MacAddr::local(2));
    a.create_qp(qp_cfg(true, mtu, dcqcn));
    b.create_qp(qp_cfg(false, mtu, dcqcn));
    Pump::new(a, b, SimTime::from_micros(1))
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

#[test]
fn clean_write_completes() {
    let mut p = pair(DeviceProfile::cx5(), 1024, false);
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 7,
            verb: Verb::Write,
            len: 10_240,
        },
    );
    p.run(secs(1));
    assert_eq!(p.completions_a.len(), 1);
    let c = p.completions_a[0];
    assert_eq!(c.wr_id, 7);
    assert_eq!(c.status, CompletionStatus::Success);
    // 10 data packets + 1 ACK.
    assert_eq!(p.b.counters.rx_bytes, 10_240);
    assert_eq!(p.b.counters.out_of_sequence, 0);
    assert_eq!(p.a.counters.retransmitted_packets, 0);
    assert_eq!(p.a.counters.local_ack_timeout_err, 0);
    // Completion time sane: ~10 packet times + RTT, well under 100 µs.
    assert!(c.time < SimTime::from_micros(100), "MCT {}", c.time);
}

#[test]
fn clean_send_generates_recv_completion() {
    let mut p = pair(DeviceProfile::cx5(), 1024, false);
    p.b.post_recv(RSP_QPN, 501, 4096);
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 1,
            verb: Verb::Send,
            len: 4096,
        },
    );
    p.run(secs(1));
    assert_eq!(p.completions_a.len(), 1);
    assert_eq!(p.completions_b.len(), 1);
    let rc = p.completions_b[0];
    assert!(rc.is_recv);
    assert_eq!(rc.wr_id, 501);
    assert_eq!(rc.len, 4096);
}

#[test]
fn clean_read_completes() {
    let mut p = pair(DeviceProfile::cx5(), 1024, false);
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 9,
            verb: Verb::Read,
            len: 10_240,
        },
    );
    p.run(secs(1));
    assert_eq!(p.completions_a.len(), 1);
    assert_eq!(p.completions_a[0].status, CompletionStatus::Success);
    // Requester received all the read response payload.
    assert_eq!(p.a.counters.rx_bytes, 10_240);
    // One read request on the wire, ten responses.
    let reqs = p
        .trace
        .iter()
        .filter(|(_, f, _)| f.bth.opcode == lumina_packet::Opcode::RdmaReadRequest)
        .count();
    assert_eq!(reqs, 1);
    let resps = p
        .trace
        .iter()
        .filter(|(_, f, _)| f.bth.opcode.is_read_response())
        .count();
    assert_eq!(resps, 10);
}

/// Drop the nth data packet (1-based among payload-bearing request packets
/// in the a→b direction), once.
fn drop_nth_write_packet(n: usize) -> Injector {
    let mut seen = 0usize;
    Box::new(move |f, a_to_b| {
        if a_to_b && f.bth.opcode.is_request() && f.bth.opcode.has_payload() {
            seen += 1;
            if seen == n {
                return Verdict::Drop;
            }
        }
        Verdict::Pass
    })
}

#[test]
fn write_middle_drop_recovers_via_nack() {
    let mut p =
        pair(DeviceProfile::cx5(), 1024, false).with_injector(drop_nth_write_packet(5));
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 10_240,
        },
    );
    p.run(secs(1));
    assert_eq!(p.completions_a.len(), 1);
    assert_eq!(p.completions_a[0].status, CompletionStatus::Success);
    assert_eq!(p.b.counters.rx_bytes, 10_240);
    // Exactly one OOO episode, one NACK, Go-back-N retransmissions.
    assert_eq!(p.b.counters.out_of_sequence, 5); // packets 6..10 arrive OOO
    assert_eq!(p.a.counters.packet_seq_err, 1);
    assert!(p.a.counters.retransmitted_packets >= 6); // PSNs 5..10 resent
    assert_eq!(p.a.counters.local_ack_timeout_err, 0);
    // Exactly one NACK on the wire.
    let nacks = p
        .trace
        .iter()
        .filter(|(_, f, _)| {
            f.ext
                .aeth
                .map(|a| a.syndrome.is_seq_err_nak())
                .unwrap_or(false)
        })
        .count();
    assert_eq!(nacks, 1);
}

#[test]
fn write_tail_drop_recovers_via_timeout() {
    // Dropping the last packet leaves no out-of-order arrival to NACK on:
    // only the retransmission timeout can recover.
    let mut p =
        pair(DeviceProfile::cx5(), 1024, false).with_injector(drop_nth_write_packet(10));
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 10_240,
        },
    );
    p.run(secs(2));
    assert_eq!(p.completions_a.len(), 1);
    assert_eq!(p.completions_a[0].status, CompletionStatus::Success);
    assert_eq!(p.a.counters.local_ack_timeout_err, 1);
    assert_eq!(p.b.counters.out_of_sequence, 0);
    // Completion takes at least one timeout: 4.096 µs × 2^14 ≈ 67 ms.
    assert!(p.completions_a[0].time >= SimTime::from_millis(67));
}

#[test]
fn retry_exhaustion_errors_the_qp() {
    // Drop every data packet: no progress is ever made.
    let inj: Injector = Box::new(|f, a_to_b| {
        if a_to_b && f.bth.opcode.has_payload() {
            Verdict::Drop
        } else {
            Verdict::Pass
        }
    });
    let mut p = pair(DeviceProfile::cx5(), 1024, false).with_injector(inj);
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 1024,
        },
    );
    // 8 timeouts of 67 ms each ≈ 540 ms; run for 2 s.
    p.run(secs(2));
    assert_eq!(p.completions_a.len(), 1);
    assert_eq!(p.completions_a[0].status, CompletionStatus::RetryExceeded);
    // retry_cnt = 7 and adaptive off → exactly 8 timeouts (the 8th kills).
    assert_eq!(p.a.counters.local_ack_timeout_err, 8);
    // Posting more work on the dead QP flushes immediately.
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 2,
            verb: Verb::Write,
            len: 1024,
        },
    );
    p.run(secs(3));
    assert!(p
        .completions_a
        .iter()
        .any(|c| c.wr_id == 2 && c.status == CompletionStatus::WrFlushed));
}

/// Drop the nth read-response packet (1-based, b→a direction), once.
fn drop_nth_read_response(n: usize) -> Injector {
    let mut seen = 0usize;
    Box::new(move |f, a_to_b| {
        if !a_to_b && f.bth.opcode.is_read_response() {
            seen += 1;
            if seen == n {
                return Verdict::Drop;
            }
        }
        Verdict::Pass
    })
}

#[test]
fn read_response_drop_recovers_via_implied_nak() {
    let mut p =
        pair(DeviceProfile::cx5(), 1024, false).with_injector(drop_nth_read_response(5));
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 1,
            verb: Verb::Read,
            len: 10_240,
        },
    );
    p.run(secs(1));
    assert_eq!(p.completions_a.len(), 1);
    assert_eq!(p.completions_a[0].status, CompletionStatus::Success);
    assert_eq!(p.a.counters.rx_bytes, 10_240);
    // Implied NAK seen and (on CX5) counted.
    assert_eq!(p.a.counters.implied_nak_seq_err, 1);
    assert_eq!(p.a.counters.truth_implied_nak_seq_err, 1);
    // Two read requests on the wire: original + re-issued.
    let reqs = p
        .trace
        .iter()
        .filter(|(_, f, _)| f.bth.opcode == lumina_packet::Opcode::RdmaReadRequest)
        .count();
    assert_eq!(reqs, 2);
    // The re-issued request asks for the remaining bytes only.
    let last_req = p
        .trace
        .iter().rfind(|(_, f, _)| f.bth.opcode == lumina_packet::Opcode::RdmaReadRequest)
        .unwrap();
    assert_eq!(last_req.1.ext.reth.unwrap().dma_len, 10_240 - 4 * 1024);
}

#[test]
fn cx4_implied_nak_counter_frozen_but_truth_moves() {
    let mut p =
        pair(DeviceProfile::cx4_lx(), 1024, false).with_injector(drop_nth_read_response(3));
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 1,
            verb: Verb::Read,
            len: 10_240,
        },
    );
    p.run(secs(1));
    assert_eq!(p.completions_a[0].status, CompletionStatus::Success);
    // §6.2.4: drops and retransmissions do happen, the counter stays flat.
    assert_eq!(p.a.counters.implied_nak_seq_err, 0);
    assert_eq!(p.a.counters.truth_implied_nak_seq_err, 1);
}

#[test]
fn nack_latency_scales_with_profile() {
    // Measure time from drop to completion for CX5 vs CX4: CX4's reaction
    // path is two orders of magnitude slower (Figure 9a).
    let measure = |profile: DeviceProfile| -> SimTime {
        let mut p = pair(profile, 1024, false).with_injector(drop_nth_write_packet(5));
        p.post_a(
            REQ_QPN,
            WorkRequest {
                wr_id: 1,
                verb: Verb::Write,
                len: 10_240,
            },
        );
        p.run(secs(1));
        assert_eq!(p.completions_a.len(), 1);
        p.completions_a[0].time
    };
    let cx5 = measure(DeviceProfile::cx5());
    let cx4 = measure(DeviceProfile::cx4_lx());
    assert!(
        cx4 > cx5 + SimTime::from_micros(80),
        "CX4 {cx4} should be ≫ CX5 {cx5}"
    );
}

#[test]
fn ecn_marks_trigger_cnps_and_rate_cut() {
    // Mark CE on every data packet a→b; compare against an unmarked run.
    let run = |mark: bool| {
        let inj: Injector = Box::new(move |f, a_to_b| {
            if mark && a_to_b && f.bth.opcode.has_payload() {
                let mut g = f.clone();
                g.ipv4.ecn = lumina_packet::Ecn::Ce;
                return Verdict::Replace(g.emit());
            }
            Verdict::Pass
        });
        let mut p = pair(DeviceProfile::cx5(), 1024, true).with_injector(inj);
        for i in 0..20 {
            p.post_a(
                REQ_QPN,
                WorkRequest {
                    wr_id: i,
                    verb: Verb::Write,
                    len: 10_240,
                },
            );
        }
        p.run(secs(1));
        assert_eq!(p.completions_a.len(), 20);
        let finish = p.completions_a.iter().map(|c| c.time).max().unwrap();
        (p, finish)
    };
    let (marked, t_marked) = run(true);
    let (clean, t_clean) = run(false);
    // The responder (NP) saw CE marks and generated CNPs.
    assert!(marked.b.counters.np_ecn_marked_roce_packets >= 100);
    assert!(marked.b.counters.np_cnp_sent >= 1);
    assert_eq!(
        marked.b.counters.np_cnp_sent,
        marked.b.counters.truth_cnp_sent
    );
    // The requester (RP) handled them; DCQCN rate limiting slowed the
    // transfer relative to the unmarked run.
    assert!(marked.a.counters.rp_cnp_handled >= 1);
    assert_eq!(clean.a.counters.rp_cnp_handled, 0);
    assert!(
        t_marked > t_clean,
        "DCQCN-limited run ({t_marked}) should be slower than clean ({t_clean})"
    );
}

#[test]
fn e810_cnp_interval_is_50us_despite_config_zero() {
    // Mark every packet CE; measure CNP spacing on the wire (the §6.3
    // hidden-interval experiment).
    let inj: Injector = Box::new(|f, a_to_b| {
        if a_to_b && f.bth.opcode.has_payload() {
            let mut g = f.clone();
            g.ipv4.ecn = lumina_packet::Ecn::Ce;
            return Verdict::Replace(g.emit());
        }
        Verdict::Pass
    });
    let mut a = Rnic::new(
        DeviceProfile::e810(),
        EtsConfig::single_queue(),
        MacAddr::local(1),
    );
    let mut b = Rnic::new(
        DeviceProfile::e810(),
        EtsConfig::single_queue(),
        MacAddr::local(2),
    );
    let mut cfg_req = qp_cfg(true, 1024, true);
    let mut cfg_rsp = qp_cfg(false, 1024, true);
    // Configure "no CNP coalescing" — the hidden floor must still apply.
    cfg_req.min_time_between_cnps = SimTime::ZERO;
    cfg_rsp.min_time_between_cnps = SimTime::ZERO;
    a.create_qp(cfg_req);
    b.create_qp(cfg_rsp);
    let mut p = Pump::new(a, b, SimTime::from_micros(1)).with_injector(inj);
    for i in 0..40 {
        p.post_a(
            REQ_QPN,
            WorkRequest {
                wr_id: i,
                verb: Verb::Write,
                len: 102_400,
            },
        );
    }
    p.run(secs(1));
    let cnp_times: Vec<SimTime> = p
        .trace
        .iter()
        .filter(|(_, f, _)| f.bth.opcode == lumina_packet::Opcode::Cnp)
        .map(|(t, _, _)| *t)
        .collect();
    assert!(cnp_times.len() >= 2, "need multiple CNPs, got {}", cnp_times.len());
    for w in cnp_times.windows(2) {
        let gap = w[1].saturating_since(w[0]);
        assert!(
            gap >= SimTime::from_micros(50),
            "E810 CNP gap {gap} under the hidden 50 µs floor"
        );
    }
}

#[test]
fn corrupted_packet_detected_by_icrc_and_recovered() {
    // Flip a payload byte of the 4th data packet — the "corrupt" injection
    // event. The receiver must drop it on ICRC and recover via NACK.
    let mut seen = 0usize;
    let inj: Injector = Box::new(move |f, a_to_b| {
        if a_to_b && f.bth.opcode.has_payload() {
            seen += 1;
            if seen == 4 {
                let mut wire = f.emit().to_vec();
                let n = wire.len();
                wire[n - 10] ^= 0xff; // payload byte (ICRC is last 4)
                return Verdict::Replace(Frame::from_vec(wire));
            }
        }
        Verdict::Pass
    });
    // NOTE: Replace re-parses, so flip after emit — build injector that
    // returns raw bytes; Pump::apply parses replacement for the trace, so
    // the corrupted frame must still parse (payload flip keeps headers
    // intact).
    let mut p = pair(DeviceProfile::cx5(), 1024, false).with_injector(inj);
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 10_240,
        },
    );
    p.run(secs(1));
    assert_eq!(p.completions_a.len(), 1);
    assert_eq!(p.completions_a[0].status, CompletionStatus::Success);
    assert_eq!(p.b.counters.rx_icrc_errors, 1);
    assert!(p.a.counters.retransmitted_packets >= 1);
}

#[test]
fn adaptive_retrans_timeout_sequence_matches_cx6_schedule() {
    // §6.3: drop the last packet of the first message repeatedly and
    // measure consecutive timeout spacing on CX6 Dx with adaptive
    // retransmission enabled.
    let drops_wanted = 6usize;
    let mut dropped = 0usize;
    let inj: Injector = Box::new(move |f, a_to_b| {
        if a_to_b && f.bth.opcode.is_last() && f.bth.opcode.has_payload() && dropped < drops_wanted
        {
            dropped += 1;
            return Verdict::Drop;
        }
        Verdict::Pass
    });
    let mut a = Rnic::new(
        DeviceProfile::cx6_dx(),
        EtsConfig::single_queue(),
        MacAddr::local(1),
    );
    let mut b = Rnic::new(
        DeviceProfile::cx6_dx(),
        EtsConfig::single_queue(),
        MacAddr::local(2),
    );
    let mut cfg_req = qp_cfg(true, 1024, false);
    cfg_req.adaptive_retrans = true;
    a.create_qp(cfg_req);
    b.create_qp(qp_cfg(false, 1024, false));
    let mut p = Pump::new(a, b, SimTime::from_micros(1)).with_injector(inj);
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 4096,
        },
    );
    p.run(secs(2));
    assert_eq!(p.completions_a.len(), 1);
    assert_eq!(p.completions_a[0].status, CompletionStatus::Success);
    assert_eq!(p.a.counters.local_ack_timeout_err as usize, drops_wanted);

    // Reconstruct timeout intervals from retransmissions of the last
    // packet on the wire.
    let last_pkt_txs: Vec<SimTime> = p
        .trace
        .iter()
        .filter(|(_, f, _)| f.bth.opcode.is_last() && f.bth.opcode.has_payload())
        .map(|(t, _, _)| *t)
        .collect();
    assert_eq!(last_pkt_txs.len(), drops_wanted + 1);
    let expected_ms = [5.6, 4.1, 8.4, 16.7, 25.1, 67.1];
    for (i, w) in last_pkt_txs.windows(2).enumerate() {
        let gap_ms = w[1].saturating_since(w[0]).as_millis_f64();
        assert!(
            (gap_ms - expected_ms[i]).abs() < 0.5,
            "timeout {i}: measured {gap_ms} ms, paper {} ms",
            expected_ms[i]
        );
    }
    // All adaptive timeouts for the first message undershoot the
    // configured 67.1 ms minimum — the paper's finding.
    assert!(last_pkt_txs[1].saturating_since(last_pkt_txs[0]) < SimTime::from_millis(67));
}

#[test]
fn spec_mode_timeouts_honor_configured_minimum() {
    let drops_wanted = 3usize;
    let mut dropped = 0usize;
    let inj: Injector = Box::new(move |f, a_to_b| {
        if a_to_b && f.bth.opcode.is_last() && f.bth.opcode.has_payload() && dropped < drops_wanted
        {
            dropped += 1;
            return Verdict::Drop;
        }
        Verdict::Pass
    });
    let mut p = pair(DeviceProfile::cx6_dx(), 1024, false).with_injector(inj);
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 4096,
        },
    );
    p.run(secs(2));
    assert_eq!(p.completions_a[0].status, CompletionStatus::Success);
    let last_pkt_txs: Vec<SimTime> = p
        .trace
        .iter()
        .filter(|(_, f, _)| f.bth.opcode.is_last() && f.bth.opcode.has_payload())
        .map(|(t, _, _)| *t)
        .collect();
    for w in last_pkt_txs.windows(2) {
        let gap = w[1].saturating_since(w[0]);
        assert!(
            gap >= SimTime::from_millis(67),
            "spec-mode timeout {gap} under 4.096 µs × 2^14"
        );
    }
}

#[test]
fn e810_to_cx5_sends_migreq_zero_and_cx5_slow_paths() {
    // §6.2.3, microscale: one QP, E810 requester → CX5 responder. The
    // MigReq bit on the wire must be 0, and CX5's APM slow path must
    // engage (serviced counter moves) though a single QP's packets fit the
    // queue, so no drops.
    let mut p = pair_hetero(DeviceProfile::e810(), DeviceProfile::cx5(), 1024, false);
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 10_240,
        },
    );
    p.run(secs(1));
    assert_eq!(p.completions_a.len(), 1);
    assert_eq!(p.completions_a[0].status, CompletionStatus::Success);
    let data = p
        .trace
        .iter()
        .find(|(_, f, dir)| *dir && f.bth.opcode.has_payload())
        .unwrap();
    assert!(!data.1.bth.mig_req, "E810 transmits MigReq = 0");
    assert!(p.b.qp(RSP_QPN).unwrap().apm_serviced >= 10);
    assert_eq!(p.b.counters.rx_discards_phy, 0);
}

#[test]
fn cx5_to_cx5_does_not_touch_apm_path() {
    let mut p = pair(DeviceProfile::cx5(), 1024, false);
    p.post_a(
        REQ_QPN,
        WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 10_240,
        },
    );
    p.run(secs(1));
    assert_eq!(p.completions_a[0].status, CompletionStatus::Success);
    assert_eq!(p.b.qp(RSP_QPN).unwrap().apm_serviced, 0);
}

#[test]
fn deterministic_trace_across_runs() {
    let run = || {
        let mut p =
            pair(DeviceProfile::cx5(), 1024, false).with_injector(drop_nth_write_packet(3));
        p.post_a(
            REQ_QPN,
            WorkRequest {
                wr_id: 1,
                verb: Verb::Write,
                len: 10_240,
            },
        );
        p.run(secs(1));
        p.trace
            .iter()
            .map(|(t, f, d)| (t.as_nanos(), f.bth.psn, f.bth.opcode.value(), *d))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// What the wire does to the data packets of one pinned run.
#[derive(Debug, Clone, Copy)]
enum Wire {
    Clean,
    /// The 5th data packet is lost (NACK / implied-NAK recovery).
    MiddleDrop,
    /// The last data packet is lost (timeout recovery).
    TailDrop,
    /// Every 4th data packet arrives CE-marked, DCQCN off: counted only.
    CeMarks,
    /// The same marks with DCQCN on: CNPs, rate cuts, alpha / rate timers.
    CeMarksDcqcn,
}

/// Three 10-packet messages of `verb` between two `profile` devices over
/// `wire`; the pump's transcript with both devices' counters folded in.
fn pinned_run(profile: &DeviceProfile, verb: Verb, wire: Wire) -> u64 {
    const MSGS: u64 = 3;
    const PKTS: usize = 10 * MSGS as usize;
    let mut seen = 0usize;
    let injector: Injector = Box::new(move |f, a_to_b| {
        // Read data flows responder → requester, the rest the other way.
        if !f.bth.opcode.has_payload() || a_to_b == (verb == Verb::Read) {
            return Verdict::Pass;
        }
        seen += 1;
        match wire {
            Wire::MiddleDrop if seen == 5 => Verdict::Drop,
            Wire::TailDrop if seen == PKTS => Verdict::Drop,
            Wire::CeMarks | Wire::CeMarksDcqcn if seen.is_multiple_of(4) => {
                let mut marked = f.clone();
                marked.ipv4.ecn = lumina_packet::Ecn::Ce;
                Verdict::Replace(marked.emit())
            }
            _ => Verdict::Pass,
        }
    });
    let dcqcn = matches!(wire, Wire::CeMarksDcqcn);
    let mut p = pair(profile.clone(), 1024, dcqcn).with_injector(injector);
    for wr_id in 0..MSGS {
        p.b.post_recv(RSP_QPN, 500 + wr_id, 10_240);
        p.post_a(REQ_QPN, WorkRequest { wr_id, verb, len: 10_240 });
    }
    p.run(secs(5));
    assert_eq!(p.completions_a.len(), MSGS as usize, "{} {verb:?} {wire:?}", profile.name);
    // The condition was met by traffic, not sidestepped.
    let receiver = if verb == Verb::Read { &p.a } else { &p.b };
    let case = format!("{} {verb:?} {wire:?}: {:?} {:?}", profile.name, p.a.counters, p.b.counters);
    match wire {
        Wire::Clean => assert_eq!(p.a.counters.retransmitted_packets, 0, "{case}"),
        Wire::MiddleDrop => assert!(p.a.counters.retransmitted_packets > 0, "{case}"),
        Wire::TailDrop => assert!(p.a.counters.local_ack_timeout_err > 0, "{case}"),
        Wire::CeMarks => assert_eq!(
            (receiver.counters.np_ecn_marked_roce_packets, receiver.counters.truth_cnp_sent),
            (PKTS as u64 / 4, 0),
            "{case}"
        ),
        Wire::CeMarksDcqcn => assert!(receiver.counters.truth_cnp_sent > 0, "{case}"),
    }
    let counters = format!("{:?} {:?}", p.a.counters, p.b.counters);
    p.fold(counters.as_bytes());
    p.transcript
}

/// Same device, same wire: every frame (time, direction, bytes), every
/// completion and both devices' counters over profile × verb × wire
/// condition, as recorded before `Rnic`'s `impl` split by role. A changed
/// hash is a behaviour change to explain, not to re-record.
#[test]
fn wire_transcripts_are_pinned() {
    let wires = [
        Wire::Clean,
        Wire::MiddleDrop,
        Wire::TailDrop,
        Wire::CeMarks,
        Wire::CeMarksDcqcn,
    ];
    let profiles = DeviceProfile::all();
    let seen: Vec<(&str, u64)> = profiles
        .iter()
        .map(|profile| {
            let mut hash = 0u64;
            for verb in [Verb::Write, Verb::Send, Verb::Read] {
                for wire in wires {
                    hash = hash.rotate_left(7) ^ pinned_run(profile, verb, wire);
                }
            }
            (profile.name.as_str(), hash)
        })
        .collect();
    let pinned = [
        ("CX4LX", 0xb937_a2b5_7c4d_20cb_u64),
        ("CX5", 0x644c_5f38_3105_78e3),
        ("CX6DX", 0x8817_8cd4_0163_882c),
        ("E810", 0x5d69_56df_4672_e162),
    ];
    assert!(seen == pinned, "saw {seen:#018x?}");
}
