//! Property tests: every header and whole-frame emit/parse round-trips, the
//! CRC kernel agrees with a bit-at-a-time reference, and the ICRC detects
//! single-byte payload corruption while ignoring the masked fields.

use bytes::Bytes;
use lumina_packet::aeth::{Aeth, AethSyndrome, NakCode};
use lumina_packet::bth::{psn_add, psn_distance, psn_mask, Bth, PSN_MODULUS};
use lumina_packet::builder::DataPacketBuilder;
use lumina_packet::frame::{icrc_check, RoceFrame, ICRC_LEN};
use lumina_packet::icrc::{crc32, icrc_over_masked, Crc32};
use lumina_packet::opcode::Opcode;
use lumina_packet::reth::Reth;
use lumina_packet::{Ecn, MacAddr};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    prop::sample::select(Opcode::all().to_vec())
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

/// CRC-32 one bit at a time — the definition the table kernel must match.
fn reference_crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn arb_ecn() -> impl Strategy<Value = Ecn> {
    prop::sample::select(vec![Ecn::NotEct, Ecn::Ect0, Ecn::Ect1, Ecn::Ce])
}

proptest! {
    #[test]
    fn bth_roundtrip(
        op in arb_opcode(),
        solicited: bool,
        mig_req: bool,
        ack_req: bool,
        pkey: u16,
        dest_qp in 0u32..PSN_MODULUS,
        psn in 0u32..PSN_MODULUS,
    ) {
        let bth = Bth {
            opcode: op,
            solicited,
            mig_req,
            pad_count: 0,
            tver: 0,
            pkey,
            dest_qp,
            ack_req,
            psn,
        };
        let mut buf = [0u8; 12];
        bth.emit(&mut buf).unwrap();
        prop_assert_eq!(Bth::parse(&buf).unwrap(), bth);
    }

    #[test]
    fn aeth_roundtrip(s in arb_syndrome(), msn in 0u32..(1 << 24)) {
        let aeth = Aeth { syndrome: s, msn };
        let mut buf = [0u8; 4];
        aeth.emit(&mut buf).unwrap();
        prop_assert_eq!(Aeth::parse(&buf).unwrap(), aeth);
    }

    #[test]
    fn reth_roundtrip(vaddr: u64, rkey: u32, dma_len: u32) {
        let reth = Reth { vaddr, rkey, dma_len };
        let mut buf = [0u8; 16];
        reth.emit(&mut buf).unwrap();
        prop_assert_eq!(Reth::parse(&buf).unwrap(), reth);
    }

    #[test]
    fn frame_roundtrip(
        psn in 0u32..PSN_MODULUS,
        qp in 0u32..PSN_MODULUS,
        payload_len in 0usize..2048,
        ecn in arb_ecn(),
        src_port: u16,
        mig_req: bool,
    ) {
        // Data-carrying opcode without mandatory extension headers.
        let frame = DataPacketBuilder::new()
            .src_ip(Ipv4Addr::new(10, 0, 0, 1))
            .dst_ip(Ipv4Addr::new(10, 0, 0, 2))
            .src_port(src_port)
            .opcode(Opcode::RdmaWriteMiddle)
            .dest_qp(qp)
            .psn(psn)
            .ecn(ecn)
            .mig_req(mig_req)
            .payload_len(payload_len)
            .build();
        let wire = frame.emit();
        let parsed = RoceFrame::parse(&wire).unwrap();
        prop_assert_eq!(parsed.bth.psn, psn);
        prop_assert_eq!(parsed.bth.dest_qp, qp);
        prop_assert_eq!(parsed.bth.mig_req, mig_req);
        prop_assert_eq!(parsed.payload.len(), payload_len);
        prop_assert_eq!(parsed.ipv4.ecn, ecn);
        prop_assert!(icrc_check(&wire));
        prop_assert_eq!(parsed.wire_len(), wire.len());
    }

    #[test]
    fn frame_roundtrip_with_reth(
        vaddr: u64,
        rkey: u32,
        dma_len in 1u32..(1 << 24),
        payload_len in 1usize..1500,
    ) {
        let frame = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteFirst)
            .reth(Reth { vaddr, rkey, dma_len })
            .payload_len(payload_len)
            .build();
        let parsed = RoceFrame::parse(&frame.emit()).unwrap();
        prop_assert_eq!(parsed.ext.reth.unwrap(), Reth { vaddr, rkey, dma_len });
    }

    #[test]
    fn icrc_detects_payload_corruption(
        payload in prop::collection::vec(any::<u8>(), 4..512),
        flip_at_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let frame = DataPacketBuilder::new()
            .opcode(Opcode::SendOnly)
            .payload(Bytes::from(payload.clone()))
            .build();
        let wire = frame.emit();
        prop_assert!(icrc_check(&wire));
        let mut corrupted = wire.to_vec();
        // Flip a bit somewhere in the (unpadded) payload.
        let payload_start = wire.len() - ICRC_LEN
            - ((4 - payload.len() % 4) % 4)
            - payload.len();
        let idx = payload_start + ((payload.len() - 1) as f64 * flip_at_frac) as usize;
        corrupted[idx] ^= 1 << flip_bit;
        prop_assert!(!icrc_check(&corrupted));
    }

    #[test]
    fn crc32_matches_bitwise_reference(
        data in prop::collection::vec(any::<u8>(), 0..4200),
        skip in 0usize..16,
        split_frac in 0.0f64..1.0,
    ) {
        // `skip` moves the slice start off the allocation's alignment.
        let data = &data[skip.min(data.len())..];
        let want = reference_crc32(data);
        prop_assert_eq!(crc32(data), want);
        let split = (data.len() as f64 * split_frac) as usize;
        let mut streamed = Crc32::new();
        streamed.update(&data[..split]);
        streamed.update(&data[split..]);
        prop_assert_eq!(streamed.finish(), want);
    }

    #[test]
    fn icrc_ignores_masked_fields_and_nothing_else(
        payload in prop::collection::vec(any::<u8>(), 0..2048),
        xor in 1u8..=255,
        covered_frac in 0.0f64..1.0,
    ) {
        let wire = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteMiddle)
            .payload(Bytes::from(payload))
            .build()
            .emit();
        let region = &wire[14..wire.len() - ICRC_LEN];
        let base = icrc_over_masked(region, 28);
        // TOS, TTL, IP checksum, UDP checksum, BTH resv8a.
        let masked = [1, 8, 10, 11, 26, 27, 32];
        let mut changed = region.to_vec();
        for off in masked {
            changed[off] ^= xor;
        }
        prop_assert_eq!(icrc_over_masked(&changed, 28), base);
        let mut covered = (region.len() as f64 * covered_frac) as usize;
        while masked.contains(&covered) {
            covered += 1;
        }
        changed[covered] ^= xor;
        prop_assert!(icrc_over_masked(&changed, 28) != base);
    }

    #[test]
    fn psn_arith_laws(a in 0u32..PSN_MODULUS, d in 0u32..(PSN_MODULUS / 2)) {
        // add then distance recovers the delta
        let b = psn_add(a, d);
        prop_assert_eq!(psn_distance(a, b), d as i32);
        // distance is antisymmetric (except at the modulus midpoint)
        if d != 0 && d != PSN_MODULUS / 2 {
            prop_assert_eq!(psn_distance(b, a), -(d as i32));
        }
        prop_assert_eq!(psn_mask(a), a);
    }

    #[test]
    fn mac_u48_roundtrip(v in 0u64..(1 << 48)) {
        prop_assert_eq!(MacAddr::from_u48(v).to_u48(), v);
    }

    #[test]
    fn headers_parse_from_any_trim_at_least_64(
        payload_len in 0usize..4096,
        trim in 64usize..256,
    ) {
        let frame = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteFirst)
            .reth(Reth { vaddr: 1, rkey: 2, dma_len: 3 })
            .payload_len(payload_len)
            .build();
        let wire = frame.emit();
        let cut = trim.min(wire.len());
        // 64 bytes always covers eth+ip+udp+bth+reth (14+20+8+12+16 = 70)…
        // so only assert success for >= 70.
        if cut >= 70 {
            let parsed = RoceFrame::parse_headers(&wire[..cut]).unwrap();
            prop_assert_eq!(parsed.bth.psn, frame.bth.psn);
        }
    }
}
