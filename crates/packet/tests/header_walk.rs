//! The header walk against the walk it replaces.
//!
//! `RoceFrame::parse_headers` is what every parse in the workspace starts
//! from (switch, both RNIC receive paths, live reconstruction, ingest), and
//! ingest classifies a capture's records by the *error* it returns:
//! foreign traffic (`NotRoce`) vs rotten RoCE (`Truncated` / `BadField`).
//! [`reference_headers`] is the walk as it was written before the
//! fixed-stack fast path — one `parse` per header, each with its own length
//! check — kept here as the reference. The product must return the equal
//! `Ok` value or the equal `ParseError` (variant, `what`, `need`, `have`,
//! `value`) for every frame, every truncation of it, every bit flip in its
//! headers, and arbitrary bytes. The reference shares the per-header
//! `parse`s with the product, so [`walk_outcomes_are_pinned`] also fixes the
//! outcomes themselves as a digest.

use bytes::Bytes;
use lumina_packet::aeth::{Aeth, AethSyndrome, NakCode};
use lumina_packet::bth::Bth;
use lumina_packet::builder::DataPacketBuilder;
use lumina_packet::ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
use lumina_packet::frame::{ExtHeaders, RoceFrame};
use lumina_packet::immdt::ImmDt;
use lumina_packet::ipv4::{header_checksum, Ipv4Header, IPV4_HEADER_LEN, IP_PROTO_UDP};
use lumina_packet::opcode::Opcode;
use lumina_packet::reth::Reth;
use lumina_packet::udp::{UdpHeader, UDP_HEADER_LEN};
use lumina_packet::{Frame, ParseError};
use proptest::prelude::*;

/// The longest header stack: 54 fixed bytes + RETH 16 + AETH 4 + ImmDt 4.
const LONGEST_STACK: usize = 82;

/// The per-header walk, as `parse_headers` was written before the
/// fixed-stack fast path.
fn reference_headers(buf: &[u8]) -> Result<RoceFrame, ParseError> {
    let eth = EthernetHeader::parse(buf)?;
    if eth.ethertype != EtherType::Ipv4 {
        return Err(ParseError::NotRoce("ethertype is not IPv4"));
    }
    let ipv4 = Ipv4Header::parse(&buf[ETHERNET_HEADER_LEN..])?;
    if ipv4.protocol != IP_PROTO_UDP {
        return Err(ParseError::NotRoce("ip protocol is not UDP"));
    }
    let udp = UdpHeader::parse(&buf[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..])?;
    let bth_off = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN;
    let bth = Bth::parse(&buf[bth_off..])?;

    let mut off = bth_off + 12;
    let mut ext = ExtHeaders::default();
    if bth.opcode.has_reth() {
        ext.reth = Some(Reth::parse(&buf[off..])?);
        off += 16;
    }
    if bth.opcode.has_aeth() {
        ext.aeth = Some(Aeth::parse(&buf[off..])?);
        off += 4;
    }
    if bth.opcode.has_immdt() {
        ext.immdt = Some(ImmDt::parse(&buf[off..])?);
    }
    Ok(RoceFrame {
        eth,
        ipv4,
        udp,
        bth,
        ext,
        payload: Bytes::new(),
    })
}

/// One whole frame of `op`, carrying exactly the extension headers the
/// opcode mandates and a short payload when it may carry one.
fn frame_of(op: Opcode) -> Vec<u8> {
    let mut f = DataPacketBuilder::new()
        .opcode(op)
        .dest_qp(0x00ab_cdef)
        .psn(0x0012_3456)
        .payload_len(if op.has_payload() { 10 } else { 0 })
        .build();
    f.ext = ExtHeaders {
        reth: op.has_reth().then_some(Reth {
            vaddr: 0x7f00_dead_beef_0000,
            rkey: 0x1234_5678,
            dma_len: 4096,
        }),
        aeth: op.has_aeth().then_some(Aeth {
            syndrome: AethSyndrome::Nak(NakCode::PsnSequenceError),
            msn: 0x00_0abc,
        }),
        immdt: op.has_immdt().then_some(ImmDt(0xfeed_beef)),
    };
    f.emit().to_vec()
}

/// Product == reference on `buf`; on mismatch, say which input.
fn assert_same_walk(buf: &[u8], ctx: impl FnOnce() -> String) {
    let (want, got) = (reference_headers(buf), RoceFrame::parse_headers(buf));
    assert!(
        want == got,
        "{}\nreference {want:?}\nproduct   {got:?}",
        ctx()
    );
}

/// `parse` (copying), `parse_frame` (sharing) and the walk agree on a
/// whole buffer: the two full parses are equal, they fail exactly as the
/// walk fails whenever it does, and their headers are the walk's.
fn assert_same_parse(buf: &[u8], ctx: impl FnOnce() -> String) {
    let copied = RoceFrame::parse(buf);
    let shared = RoceFrame::parse_frame(&Frame::from_vec(buf.to_vec()));
    let walk = reference_headers(buf);
    let ok = copied == shared
        && match (&walk, &copied) {
            (Err(w), Err(c)) => w == c,
            (Err(_), Ok(_)) => false,
            // The body can still fail (lengths, pad count, port).
            (Ok(_), Err(_)) => true,
            (Ok(w), Ok(c)) => {
                let mut headers = c.clone();
                headers.payload = Bytes::new();
                *w == headers
            }
        };
    assert!(
        ok,
        "{}\nwalk {walk:?}\nparse {copied:?}\nparse_frame {shared:?}",
        ctx()
    );
}

#[test]
fn every_opcode_truncated_at_every_length() {
    for &op in Opcode::all() {
        let wire = frame_of(op);
        assert!(reference_headers(&wire).is_ok(), "{op:?}");
        for len in 0..=wire.len() {
            assert_same_walk(&wire[..len], || format!("{op:?} cut at {len}"));
        }
        assert_same_parse(&wire, || format!("{op:?} whole"));
    }
}

#[test]
fn every_header_byte_rotted_at_every_length() {
    for &op in Opcode::all() {
        let wire = frame_of(op);
        for len in 0..=wire.len() {
            for at in 0..len.min(LONGEST_STACK) {
                let mut rot = wire[..len].to_vec();
                rot[at] ^= 1 << ((at + len) % 8);
                assert_same_walk(&rot, || format!("{op:?} cut at {len}, byte {at} rotted"));
            }
        }
        // Whole frames: every bit of every header byte, through the full
        // parses as well.
        for at in 0..wire.len().min(LONGEST_STACK) {
            for bit in 0..8 {
                let mut rot = wire.clone();
                rot[at] ^= 1 << bit;
                assert_same_walk(&rot, || format!("{op:?} byte {at} bit {bit}"));
                assert_same_parse(&rot, || format!("{op:?} byte {at} bit {bit}"));
            }
        }
    }
}

/// A 30-byte ARP frame is foreign, not truncated: the ethertype is judged
/// before the IPv4 header it does not have is missed.
#[test]
fn foreign_before_truncated() {
    let mut arp = [0u8; 30];
    arp[12..14].copy_from_slice(&[0x08, 0x06]);
    assert_eq!(
        RoceFrame::parse_headers(&arp),
        Err(ParseError::NotRoce("ethertype is not IPv4"))
    );
    // …and a RoCE frame cut at the same length names the header it lost.
    let wire = frame_of(Opcode::RdmaWriteMiddle);
    assert_eq!(
        RoceFrame::parse_headers(&wire[..30]),
        Err(ParseError::Truncated {
            what: "ipv4 header",
            need: 20,
            have: 16
        })
    );
    assert_eq!(
        RoceFrame::parse_headers(&wire[..53]),
        Err(ParseError::Truncated {
            what: "bth",
            need: 12,
            have: 11
        })
    );
}

fn fnv64(h: &mut u64, text: &str) {
    for &b in text.as_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The outcomes themselves, not only their agreement: every opcode's frame
/// at every truncation, and whole with every header bit flipped, as one
/// FNV-64 of the `Debug` text of what `parse_headers` returns. Recorded on
/// the per-header walk; a header walk that changes a value or an error
/// for any of these 16 000 inputs changes it.
#[test]
fn walk_outcomes_are_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &op in Opcode::all() {
        let wire = frame_of(op);
        for len in 0..=wire.len() {
            fnv64(
                &mut h,
                &format!("{:?}", RoceFrame::parse_headers(&wire[..len])),
            );
        }
        for at in 0..wire.len().min(LONGEST_STACK) {
            for bit in 0..8 {
                let mut rot = wire.clone();
                rot[at] ^= 1 << bit;
                fnv64(&mut h, &format!("{:?}", RoceFrame::parse_headers(&rot)));
            }
        }
    }
    assert_eq!(h, 0x0789_47f7_c94b_cf1f, "walk outcome digest {h:#018x}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 2_000,
        ..ProptestConfig::default()
    })]

    /// Arbitrary bytes: nothing about them is a frame.
    #[test]
    fn arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..201)) {
        assert_same_walk(&bytes, || format!("{bytes:02x?}"));
        assert_same_parse(&bytes, || format!("{bytes:02x?}"));
    }

    /// Arbitrary bytes behind a plausible Ethernet + IPv4 prefix (valid
    /// version, IHL, protocol and checksum), so the walk gets past the
    /// first two headers: arbitrary UDP, BTH and extension bytes, and
    /// arbitrary fragment fields.
    #[test]
    fn arbitrary_bytes_behind_a_valid_ip_header(
        tail in prop::collection::vec(any::<u8>(), 0..120),
        op in prop::sample::select(Opcode::all().to_vec()),
        frag in prop::sample::select(vec![0x4000u16, 0x0000, 0x2000, 0x00b9, 0x8000, 0x5fff]),
        cut in 0usize..200,
    ) {
        let mut wire = frame_of(Opcode::RdmaWriteMiddle)[..34].to_vec();
        wire[20..22].copy_from_slice(&frag.to_be_bytes());
        let ip: &mut [u8; 20] = (&mut wire[14..34]).try_into().unwrap();
        let csum = header_checksum(ip);
        ip[10..12].copy_from_slice(&csum.to_be_bytes());
        wire.extend_from_slice(&tail);
        if let Some(b) = wire.get_mut(42) {
            // Half the time a defined opcode, so extension headers are read.
            if tail.len() % 2 == 0 {
                *b = op.value();
            }
        }
        wire.truncate(cut.max(34));
        assert_same_walk(&wire, || format!("{wire:02x?}"));
        assert_same_parse(&wire, || format!("{wire:02x?}"));
    }
}
