//! Property tests for the panic-free guarantee (robustness PR,
//! satellite 2): the conformance oracle and every trace analyzer must
//! terminate without panicking on *anything* the capture path can hand
//! them — arbitrary bytes, bit-rotted frames, and `reconstruct_lossy`
//! outputs full of gaps and duplicates. The verdicts on garbage are
//! unspecified; surviving to produce one is the contract.

use lumina_core::analyzers::{cnp, conformance, gbn_fsm, retrans_perf, ConformanceOpts};
use lumina_core::translate::ConnMeta;
use lumina_dumper::{reconstruct_lossy, CapturedPacket};
use lumina_packet::aeth::{Aeth, AethSyndrome};
use lumina_packet::builder::DataPacketBuilder;
use lumina_packet::opcode::Opcode;
use lumina_packet::reth::Reth;
use lumina_rnic::qp::QpEndpoint;
use lumina_rnic::Verb;
use lumina_sim::SimTime;
use lumina_switch::events::EventType;
use lumina_switch::mirror;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// A connection roster matching the builder defaults (10.0.0.1 → 10.0.0.2)
/// plus one that matches nothing, so both the hit and miss paths run.
fn synthetic_conns() -> Vec<ConnMeta> {
    let req_ip = Ipv4Addr::new(10, 0, 0, 1);
    let rsp_ip = Ipv4Addr::new(10, 0, 0, 2);
    vec![
        ConnMeta {
            index: 1,
            requester: QpEndpoint {
                ip: req_ip,
                qpn: 0x11,
                ipsn: 0,
            },
            responder: QpEndpoint {
                ip: rsp_ip,
                qpn: 0x22,
                ipsn: 1000,
            },
            verb: Verb::Write,
        },
        ConnMeta {
            index: 2,
            requester: QpEndpoint {
                ip: req_ip,
                qpn: 0x33,
                ipsn: 500,
            },
            responder: QpEndpoint {
                ip: rsp_ip,
                qpn: 0x44,
                ipsn: 2000,
            },
            verb: Verb::Read,
        },
        ConnMeta {
            index: 3,
            requester: QpEndpoint {
                ip: Ipv4Addr::new(172, 16, 9, 9),
                qpn: 0x55,
                ipsn: 0,
            },
            responder: QpEndpoint {
                ip: Ipv4Addr::new(172, 16, 9, 10),
                qpn: 0x66,
                ipsn: 0,
            },
            verb: Verb::Send,
        },
    ]
}

/// Run every trace analyzer over the trace; the assertion is simply that
/// none of them panic and the oracle's report stays within its bounds.
fn grind_analyzers(trace: &lumina_dumper::Trace, degraded: bool) {
    let conns = synthetic_conns();
    for (np, icrc) in [(false, 0u64), (true, 3)] {
        let opts = ConformanceOpts {
            np_enabled_requester: np,
            np_enabled_responder: np,
            mtu: 1024,
            rx_icrc_errors: icrc,
            degraded,
            external_loss: false,
        };
        let rep = conformance::analyze(trace, &conns, &opts);
        assert!(rep.violations.len() <= 64, "violation cap breached");
        assert!(rep.checked_conns as usize <= conns.len());
        if degraded {
            assert!(rep.partial, "degraded input must yield a partial report");
        }
    }
    let _ = gbn_fsm::analyze(trace, &conns);
    let _ = cnp::analyze(trace);
    let _ = retrans_perf::analyze(trace, &conns);
}

/// One plausibly-shaped frame of the given flavor, mirror-embedded.
fn valid_capture(seq: u64, flavor: u8, psn: u32) -> CapturedPacket {
    let req_ip = Ipv4Addr::new(10, 0, 0, 1);
    let rsp_ip = Ipv4Addr::new(10, 0, 0, 2);
    let b = DataPacketBuilder::new();
    let frame = match flavor % 8 {
        0 => b
            .opcode(Opcode::RdmaWriteFirst)
            .dest_qp(0x22)
            .psn(psn)
            .reth(Reth {
                vaddr: 0x1000,
                rkey: 7,
                dma_len: 4096,
            })
            .payload_len(1024)
            .build(),
        1 => b
            .opcode(Opcode::RdmaWriteMiddle)
            .dest_qp(0x22)
            .psn(psn)
            .payload_len(1024)
            .build(),
        2 => b
            .opcode(Opcode::RdmaWriteLast)
            .dest_qp(0x22)
            .psn(psn)
            .ack_req(true)
            .payload_len(512)
            .build(),
        3 => b
            .src_ip(rsp_ip)
            .dst_ip(req_ip)
            .opcode(Opcode::Acknowledge)
            .dest_qp(0x11)
            .psn(psn)
            .aeth(Aeth {
                syndrome: AethSyndrome::Ack { credit: 31 },
                msn: psn & 0xff_ffff,
            })
            .build(),
        4 => b
            .opcode(Opcode::RdmaReadRequest)
            .dest_qp(0x44)
            .psn(psn)
            .reth(Reth {
                vaddr: 0x2000,
                rkey: 9,
                dma_len: 8192,
            })
            .build(),
        5 => b
            .src_ip(rsp_ip)
            .dst_ip(req_ip)
            .opcode(Opcode::RdmaReadResponseLast)
            .dest_qp(0x33)
            .psn(psn)
            .aeth(Aeth {
                syndrome: AethSyndrome::Ack { credit: 31 },
                msn: psn & 0xff_ffff,
            })
            .payload_len(1024)
            .build(),
        6 => b
            .src_ip(rsp_ip)
            .dst_ip(req_ip)
            .opcode(Opcode::Acknowledge)
            .dest_qp(0x11)
            .psn(psn)
            .aeth(Aeth {
                syndrome: AethSyndrome::Nak(lumina_packet::aeth::NakCode::PsnSequenceError),
                msn: psn & 0xff_ffff,
            })
            .build(),
        _ => lumina_packet::builder::cnp_frame(rsp_ip, req_ip, 0x11),
    };
    let mut buf = frame.emit().to_vec();
    mirror::embed(
        &mut buf,
        seq,
        SimTime::from_nanos(seq * 777),
        EventType::None,
        Some((seq % 65_536) as u16),
    );
    mirror::restore_dport(&mut buf);
    let orig_len = buf.len();
    buf.truncate(128);
    CapturedPacket {
        rx_time: SimTime::ZERO,
        orig_len,
        bytes: buf.as_slice().into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Pure noise: arbitrary byte soup as "captures". The reconstructor
    /// must absorb it (counting bad captures) and whatever survives must
    /// not panic any analyzer.
    #[test]
    fn arbitrary_bytes_never_panic_the_oracle(
        bufs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..20),
    ) {
        let caps: Vec<CapturedPacket> = bufs
            .into_iter()
            .map(|bytes| CapturedPacket {
                rx_time: SimTime::ZERO,
                orig_len: bytes.len(),
                bytes: bytes.as_slice().into(),
            })
            .collect();
        let (trace, _) = reconstruct_lossy(&[caps]);
        grind_analyzers(&trace, true);
        grind_analyzers(&trace, false);
    }

    /// Valid frames, then bit-rot: flip one byte at an arbitrary offset in
    /// an arbitrary subset. Headers may now lie about lengths, opcodes may
    /// promise extension headers that are absent — no panic allowed.
    #[test]
    fn bit_rotted_frames_never_panic_the_oracle(
        n in 1usize..40,
        rot_mask in 0u64..u64::MAX,
        rot_offset in 0usize..128,
        rot_xor in 1u8..=255,
    ) {
        let mut caps: Vec<CapturedPacket> = (0..n as u64)
            .map(|s| valid_capture(s, (s % 8) as u8, (s as u32) & 0xff_ffff))
            .collect();
        for (i, c) in caps.iter_mut().enumerate() {
            if rot_mask >> (i % 64) & 1 == 1 {
                let off = rot_offset % c.bytes.len().max(1);
                if let Some(b) = c.bytes.get_mut(off) {
                    *b ^= rot_xor;
                }
            }
        }
        let (trace, _) = reconstruct_lossy(&[caps]);
        grind_analyzers(&trace, false);
    }

    /// Gaps and duplicates: drop an arbitrary subset and re-capture an
    /// arbitrary subset. The lossy trace then has holes exactly where the
    /// analyzers' sequence assumptions are weakest.
    #[test]
    fn gapped_and_duplicated_streams_never_panic_the_oracle(
        n in 2usize..60,
        drop_mask in 0u64..u64::MAX,
        dup_mask in 0u64..u64::MAX,
    ) {
        let mut caps: Vec<CapturedPacket> = Vec::new();
        for s in 0..n as u64 {
            if drop_mask >> (s % 64) & 1 == 1 {
                continue;
            }
            let c = valid_capture(s, (s % 8) as u8, (s as u32) & 0xff_ffff);
            if dup_mask >> (s % 64) & 1 == 1 {
                caps.push(c.clone());
            }
            caps.push(c);
        }
        let (trace, _) = reconstruct_lossy(&[caps]);
        prop_assert!(trace.len() <= n);
        grind_analyzers(&trace, false);
        grind_analyzers(&trace, true);
    }

    /// Truncated captures: cut valid frames at arbitrary points so parsing
    /// fails mid-header. Everything that still parses is analyzed; nothing
    /// panics.
    #[test]
    fn truncated_captures_never_panic_the_oracle(
        n in 1usize..30,
        cut in 0usize..140,
        cut_mask in 0u64..u64::MAX,
    ) {
        let mut caps: Vec<CapturedPacket> = (0..n as u64)
            .map(|s| valid_capture(s, (s % 8) as u8, (s as u32) & 0xff_ffff))
            .collect();
        for (i, c) in caps.iter_mut().enumerate() {
            if cut_mask >> (i % 64) & 1 == 1 {
                c.bytes.truncate(cut);
            }
        }
        let (trace, _) = reconstruct_lossy(&[caps]);
        grind_analyzers(&trace, false);
    }
}
