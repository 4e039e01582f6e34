//! The header-only re-emit against the frame a capture was taken from.
//!
//! A trace entry holds a capture's headers (`RoceHeaders`), and
//! `Trace::write_pcap` exports it by emitting the header-only `RoceFrame`
//! of those headers through the one serializer, `RoceFrame::emit`. For
//! every opcode, carrying the extension headers it mandates, and every pad
//! count its payload can have, the headers `parse_headers` reads from the
//! frame's first 128 bytes are the frame's own fields, with the lengths and
//! pad count the wire carries. They re-emit to exactly the bytes the frame's
//! headers emit with an empty payload. [`reemit_is_pinned`] fixes those
//! bytes and the header-only frame's `Debug` text as one digest, recorded
//! while `parse_headers` returned that header-only frame itself.

use bytes::Bytes;
use lumina_packet::aeth::{Aeth, AethSyndrome, NakCode};
use lumina_packet::builder::DataPacketBuilder;
use lumina_packet::ethernet::ETHERNET_HEADER_LEN;
use lumina_packet::frame::{ExtHeaders, RoceFrame, RoceHeaders};
use lumina_packet::immdt::ImmDt;
use lumina_packet::ipv4::IPV4_HEADER_LEN;
use lumina_packet::opcode::Opcode;
use lumina_packet::reth::Reth;
use lumina_packet::Ecn;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// What a dumper keeps of a mirror copy.
const TRIM: usize = 128;

/// A builder of frames of `op` carrying the extension headers it mandates,
/// from `ext`, and `payload_len` bytes of payload where it may carry one.
fn builder_of(op: Opcode, payload_len: usize, ext: ExtHeaders) -> DataPacketBuilder {
    let b = DataPacketBuilder::new()
        .opcode(op)
        .payload_len(if op.has_payload() { payload_len } else { 0 });
    let b = match ext.reth.filter(|_| op.has_reth()) {
        Some(reth) => b.reth(reth),
        None => b,
    };
    match ext.aeth.filter(|_| op.has_aeth()) {
        Some(aeth) => b.aeth(aeth),
        None => b,
    }
}

/// `frame` with the immediate data its opcode mandates.
fn with_immdt(mut frame: RoceFrame, imm: ImmDt) -> RoceFrame {
    frame.ext.immdt = frame.bth.opcode.has_immdt().then_some(imm);
    frame
}

/// What the wire says of `f`'s headers: its own fields, with the lengths
/// and the pad count `emit` computes.
fn wire_headers(f: &RoceFrame) -> RoceHeaders {
    let mut h = f.headers();
    let ip_len = f.wire_len() - ETHERNET_HEADER_LEN;
    h.ipv4.total_len = ip_len as u16;
    h.udp.length = (ip_len - IPV4_HEADER_LEN) as u16;
    h.bth.pad_count = ((4 - f.payload.len() % 4) % 4) as u8;
    h
}

/// Capture `f`, check its headers, and return the header-only frame with
/// its re-emitted bytes, which must be those of `f`'s headers with an
/// empty payload.
fn reemit(f: &RoceFrame) -> (RoceFrame, Vec<u8>) {
    let wire = f.emit();
    let captured = &wire[..wire.len().min(TRIM)];
    let headers = RoceFrame::parse_headers(captured).unwrap();
    assert_eq!(headers, wire_headers(f), "{:?}", f.bth.opcode);
    assert_eq!(RoceFrame::parse(&wire).unwrap().headers(), headers);
    let frame = RoceFrame::from(headers);
    let bytes = frame.emit().to_vec();
    let want = RoceFrame {
        payload: Bytes::new(),
        ..f.clone()
    }
    .emit();
    assert_eq!(bytes, want.to_vec(), "{:?}", f.bth.opcode);
    (frame, bytes)
}

fn fnv64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Every opcode, every pad count of a payload that fits the capture whole
/// and of one the trim cuts, through `reemit`: one FNV-64 of each
/// header-only frame's `Debug` text and re-emitted bytes.
#[test]
fn reemit_is_pinned() {
    let ext = ExtHeaders {
        reth: Some(Reth {
            vaddr: 0x7f00_dead_beef_0000,
            rkey: 0x1234_5678,
            dma_len: 4096,
        }),
        aeth: Some(Aeth {
            syndrome: AethSyndrome::Nak(NakCode::PsnSequenceError),
            msn: 0x00_0abc,
        }),
        immdt: None,
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut cases = 0;
    for &op in Opcode::all() {
        for payload_len in (8..12).chain(1020..1024) {
            let f = builder_of(op, payload_len, ext)
                .dest_qp(0x00ab_cdef)
                .psn(0x0012_3456)
                .build();
            let (frame, bytes) = reemit(&with_immdt(f, ImmDt(0xfeed_beef)));
            fnv64(&mut h, format!("{frame:?}").as_bytes());
            fnv64(&mut h, &bytes);
            cases += 1;
        }
    }
    assert_eq!(cases, 8 * Opcode::all().len());
    assert_eq!(h, 0x3a49_385d_64f5_7109, "re-emit digest {h:#018x}");
}

fn arb_syndrome() -> impl Strategy<Value = AethSyndrome> {
    prop_oneof![
        (0u8..32).prop_map(|credit| AethSyndrome::Ack { credit }),
        (0u8..32).prop_map(|timer| AethSyndrome::RnrNak { timer }),
        prop::sample::select(vec![
            NakCode::PsnSequenceError,
            NakCode::InvalidRequest,
            NakCode::RemoteAccessError,
            NakCode::RemoteOperationalError,
            NakCode::InvalidRdRequest,
        ])
        .prop_map(AethSyndrome::Nak),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 2_000,
        ..ProptestConfig::default()
    })]

    /// Arbitrary header values, every opcode and pad count, payloads from
    /// none to past the trim.
    #[test]
    fn headers_reemit_as_the_header_only_frame(
        op in prop::sample::select(Opcode::all().to_vec()),
        payload_len in 0usize..1100,
        src in any::<u32>(),
        dst in any::<u32>(),
        ecn in prop::sample::select(vec![Ecn::NotEct, Ecn::Ect0, Ecn::Ect1, Ecn::Ce]),
        qpn in 0u32..1 << 24,
        psn in 0u32..1 << 24,
        ack_req in any::<bool>(),
        vaddr in any::<u64>(),
        rkey in any::<u32>(),
        dma_len in any::<u32>(),
        syndrome in arb_syndrome(),
        msn in 0u32..1 << 24,
        imm in any::<u32>(),
    ) {
        let ext = ExtHeaders {
            reth: Some(Reth { vaddr, rkey, dma_len }),
            aeth: Some(Aeth { syndrome, msn }),
            immdt: None,
        };
        let f = builder_of(op, payload_len, ext)
            .src_ip(Ipv4Addr::from(src))
            .dst_ip(Ipv4Addr::from(dst))
            .ecn(ecn)
            .dest_qp(qpn)
            .psn(psn)
            .ack_req(ack_req)
            .build();
        reemit(&with_immdt(f, ImmDt(imm)));
    }
}
