//! Composed RoCEv2 frames: parse and emit whole packets.
//!
//! A [`RoceFrame`] is the structured view of one on-the-wire packet:
//! Ethernet + IPv4 + UDP + BTH + extension headers + payload + ICRC. The
//! simulator moves raw bytes between nodes (like a real wire); every
//! component that needs structure parses, edits and re-emits.

use crate::aeth::{Aeth, AETH_LEN};
use crate::bth::{Bth, BTH_LEN};
use crate::buf::{self, Frame};
use crate::ethernet::{
    EtherType, EthernetHeader, ETHERNET_FCS_LEN, ETHERNET_HEADER_LEN, ETHERNET_LINE_OVERHEAD,
};
use crate::icrc::icrc_over_masked;
use crate::immdt::{ImmDt, IMMDT_LEN};
use crate::ipv4::{Ipv4Header, IPV4_HEADER_LEN, IP_PROTO_UDP};
use crate::reth::{Reth, RETH_LEN};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use crate::{ParseError, Result};
use bytes::{Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// Length of the trailing invariant CRC.
pub const ICRC_LEN: usize = 4;

const IPV4_OFF: usize = ETHERNET_HEADER_LEN;
const UDP_OFF: usize = IPV4_OFF + IPV4_HEADER_LEN;
const BTH_OFF: usize = UDP_OFF + UDP_HEADER_LEN;
/// Ethernet + IPv4 + UDP + BTH: the stack every RoCEv2 frame starts with,
/// and nearly all a record of an exported capture holds of one
/// (`Trace::write_pcap` re-emits headers + ICRC: 58 bytes for a middle
/// packet), so this — not the longest stack — is what one check covers.
const FIXED_HEADERS_LEN: usize = BTH_OFF + BTH_LEN;

/// `fixed[OFF..OFF + N]` as an array. The range is checked when the call
/// is compiled, so the `expect` cannot fire.
#[inline(always)]
fn sub<const OFF: usize, const N: usize>(fixed: &[u8; FIXED_HEADERS_LEN]) -> &[u8; N] {
    const { assert!(OFF + N <= FIXED_HEADERS_LEN) };
    fixed[OFF..]
        .first_chunk()
        .expect("range checked at compile time")
}

/// Extension headers selected by the BTH opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExtHeaders {
    /// RDMA extended transport header (writes, read requests).
    pub reth: Option<Reth>,
    /// ACK extended transport header (ACK/NACK, read responses).
    pub aeth: Option<Aeth>,
    /// Immediate data.
    pub immdt: Option<ImmDt>,
}

impl ExtHeaders {
    /// Total wire length of the present extension headers.
    pub fn wire_len(&self) -> usize {
        self.reth.map_or(0, |_| RETH_LEN)
            + self.aeth.map_or(0, |_| AETH_LEN)
            + self.immdt.map_or(0, |_| IMMDT_LEN)
    }
}

/// A fully structured RoCEv2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoceFrame {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// IPv4 header. `total_len` is recomputed on emit.
    pub ipv4: Ipv4Header,
    /// UDP header. `length` is recomputed on emit.
    pub udp: UdpHeader,
    /// Base transport header. `pad_count` is recomputed on emit.
    pub bth: Bth,
    /// Extension headers; must match what `bth.opcode` mandates.
    pub ext: ExtHeaders,
    /// Application payload (before padding).
    pub payload: Bytes,
}

impl RoceFrame {
    /// Serialize the frame, computing all length fields, the pad count, the
    /// IPv4 checksum and the ICRC. This is the **only** place a wire buffer
    /// is born: the returned [`Frame`] then travels the whole pipeline by
    /// shared reference (engine queue, switch, mirror, dumper rings).
    pub fn emit(&self) -> Frame {
        let pad = (4 - self.payload.len() % 4) % 4;
        let ib_len = BTH_LEN + self.ext.wire_len() + self.payload.len() + pad + ICRC_LEN;
        let udp_len = UDP_HEADER_LEN + ib_len;
        let ip_len = IPV4_HEADER_LEN + udp_len;
        let total = ETHERNET_HEADER_LEN + ip_len;
        let mut wire = BytesMut::zeroed(total);
        let buf: &mut [u8] = &mut wire;

        self.eth
            .emit(&mut buf[..ETHERNET_HEADER_LEN])
            .expect("eth emit");
        let mut ip = self.ipv4;
        ip.total_len = ip_len as u16;
        ip.protocol = IP_PROTO_UDP;
        ip.emit(&mut buf[ETHERNET_HEADER_LEN..]).expect("ip emit");
        let mut udp = self.udp;
        udp.length = udp_len as u16;
        udp.emit(&mut buf[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..])
            .expect("udp emit");

        let bth_off = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN;
        let mut bth = self.bth;
        bth.pad_count = pad as u8;
        bth.emit(&mut buf[bth_off..]).expect("bth emit");

        let mut off = bth_off + BTH_LEN;
        if let Some(reth) = self.ext.reth {
            reth.emit(&mut buf[off..]).expect("reth emit");
            off += RETH_LEN;
        }
        if let Some(aeth) = self.ext.aeth {
            aeth.emit(&mut buf[off..]).expect("aeth emit");
            off += AETH_LEN;
        }
        if let Some(imm) = self.ext.immdt {
            imm.emit(&mut buf[off..]).expect("immdt emit");
            off += IMMDT_LEN;
        }
        buf[off..off + self.payload.len()].copy_from_slice(&self.payload);
        buf::note_copied(self.payload.len());
        off += self.payload.len() + pad; // pad bytes stay zero

        let icrc = icrc_over_masked(
            &buf[ETHERNET_HEADER_LEN..off],
            IPV4_HEADER_LEN + UDP_HEADER_LEN,
        );
        buf[off..off + ICRC_LEN].copy_from_slice(&icrc.to_le_bytes());
        Frame::from_buf(wire)
    }

    /// Parse a frame, requiring the UDP destination port to be 4791.
    pub fn parse(buf: &[u8]) -> Result<RoceFrame> {
        let frame = Self::parse_loose(buf)?;
        if !frame.udp.is_rocev2() {
            return Err(ParseError::NotRoce("udp destination port is not 4791"));
        }
        Ok(frame)
    }

    /// Parse a shared in-flight [`Frame`], requiring the UDP destination
    /// port to be 4791. Zero-copy: the returned `payload` is a view into
    /// the frame's buffer, not a copy — the path the switch and RNICs take
    /// on every received packet.
    pub fn parse_frame(frame: &Frame) -> Result<RoceFrame> {
        let (mut parsed, payload_off, payload_len) = Self::parse_body(frame)?;
        if !parsed.udp.is_rocev2() {
            return Err(ParseError::NotRoce("udp destination port is not 4791"));
        }
        buf::note_shared(payload_len);
        parsed.payload = frame.as_bytes().slice(payload_off..payload_off + payload_len);
        Ok(parsed)
    }

    /// Parse a frame without checking the UDP destination port. Used by the
    /// traffic dumpers, which receive mirrored packets whose destination
    /// port was deliberately randomized for RSS spreading (§3.4). Copies
    /// the payload out of the borrowed buffer.
    pub fn parse_loose(buf: &[u8]) -> Result<RoceFrame> {
        let (mut parsed, payload_off, payload_len) = Self::parse_body(buf)?;
        parsed.payload = Bytes::copy_from_slice(&buf[payload_off..payload_off + payload_len]);
        buf::note_copied(payload_len);
        Ok(parsed)
    }

    /// Shared structural parse: the headers plus the located (offset,
    /// length) of the unpadded payload. Callers decide whether the payload
    /// is copied ([`parse_loose`](Self::parse_loose)) or shared
    /// ([`parse_frame`](Self::parse_frame)).
    fn parse_body(buf: &[u8]) -> Result<(RoceFrame, usize, usize)> {
        let frame = Self::parse_headers(buf)?;
        let off = FIXED_HEADERS_LEN + frame.ext.wire_len();

        // Locate the payload using the UDP length (the IP total_len must
        // agree; trimmed mirror captures use `parse_headers` instead).
        let udp_end = UDP_OFF + frame.udp.length as usize;
        if udp_end > buf.len() {
            return Err(ParseError::Truncated {
                what: "frame body",
                need: udp_end,
                have: buf.len(),
            });
        }
        let after_payload = udp_end - ICRC_LEN;
        let padded_payload_len =
            after_payload
                .checked_sub(off)
                .ok_or(ParseError::Truncated {
                    what: "payload",
                    need: off,
                    have: after_payload,
                })?;
        let pad = frame.bth.pad_count as usize;
        if pad > padded_payload_len {
            return Err(ParseError::BadField {
                what: "bth pad_count exceeds payload",
                value: pad as u64,
            });
        }
        Ok((frame, off, padded_payload_len - pad))
    }

    /// Parse only the headers of a (possibly trimmed) capture: Ethernet →
    /// IPv4 → UDP → BTH → the extension headers the opcode mandates — the
    /// one header walk, which every other parse starts from. Returns the
    /// frame with an empty payload; used as it is on the 128-byte trimmed
    /// mirror captures where the payload and ICRC were cut off.
    ///
    /// The four headers every RoCEv2 frame has sit behind one length
    /// check and are decoded from array references. A buffer too short for
    /// them, or for an extension header, is an error, and which error is
    /// [`Self::walk_short`]'s to say: the result is the same value or
    /// error, for every input, as parsing header by header (pinned by
    /// `tests/header_walk.rs`).
    #[inline]
    pub fn parse_headers(buf: &[u8]) -> Result<RoceFrame> {
        let Some((fixed, mut rest)) = buf.split_first_chunk::<FIXED_HEADERS_LEN>() else {
            return Err(Self::walk_short(buf));
        };
        let eth = EthernetHeader::decode(sub::<0, ETHERNET_HEADER_LEN>(fixed));
        if eth.ethertype != EtherType::Ipv4 {
            return Err(ParseError::NotRoce("ethertype is not IPv4"));
        }
        let ipv4 = Ipv4Header::decode(sub::<IPV4_OFF, IPV4_HEADER_LEN>(fixed))?;
        if ipv4.protocol != IP_PROTO_UDP {
            return Err(ParseError::NotRoce("ip protocol is not UDP"));
        }
        let udp = UdpHeader::decode(sub::<UDP_OFF, UDP_HEADER_LEN>(fixed));
        let bth = Bth::decode(sub::<BTH_OFF, BTH_LEN>(fixed))?;

        let mut ext = ExtHeaders::default();
        if bth.opcode.has_reth() {
            let Some((reth, after)) = rest.split_first_chunk() else {
                return Err(Self::walk_short(buf));
            };
            ext.reth = Some(Reth::decode(reth));
            rest = after;
        }
        if bth.opcode.has_aeth() {
            let Some((aeth, after)) = rest.split_first_chunk() else {
                return Err(Self::walk_short(buf));
            };
            ext.aeth = Some(Aeth::decode(aeth)?);
            rest = after;
        }
        if bth.opcode.has_immdt() {
            let Some(immdt) = rest.first_chunk() else {
                return Err(Self::walk_short(buf));
            };
            ext.immdt = Some(ImmDt::decode(immdt));
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

    /// Why the header walk rejects `buf`, which ends inside the headers it
    /// announces: the walk one `parse` at a time, each with its own length
    /// check, so foreign traffic is foreign before it is truncated (a
    /// 30-byte ARP frame is [`ParseError::NotRoce`]) and a cut names the
    /// header it fell in. Returns the error alone: no frame comes back
    /// from here, so the caller's need not live in memory.
    #[cold]
    fn walk_short(buf: &[u8]) -> ParseError {
        let walk = || {
            let eth = EthernetHeader::parse(buf)?;
            if eth.ethertype != EtherType::Ipv4 {
                return Err(ParseError::NotRoce("ethertype is not IPv4"));
            }
            let ipv4 = Ipv4Header::parse(&buf[IPV4_OFF..])?;
            if ipv4.protocol != IP_PROTO_UDP {
                return Err(ParseError::NotRoce("ip protocol is not UDP"));
            }
            UdpHeader::parse(&buf[UDP_OFF..])?;
            let bth = Bth::parse(&buf[BTH_OFF..])?;
            let mut off = FIXED_HEADERS_LEN;
            if bth.opcode.has_reth() {
                Reth::parse(&buf[off..])?;
                off += RETH_LEN;
            }
            if bth.opcode.has_aeth() {
                Aeth::parse(&buf[off..])?;
                off += AETH_LEN;
            }
            if bth.opcode.has_immdt() {
                ImmDt::parse(&buf[off..])?;
                off += IMMDT_LEN;
            }
            Ok(off)
        };
        match walk() {
            Err(e) => e,
            // Not reached: the caller found `buf` short of a header this
            // walk reads too.
            Ok(need) => ParseError::Truncated {
                what: "roce headers",
                need,
                have: buf.len(),
            },
        }
    }

    /// Verify the trailing ICRC of serialized frame bytes.
    pub fn icrc_ok(&self, wire: &[u8]) -> bool {
        icrc_check(wire)
    }

    /// Total wire length of this frame once emitted (header + padded
    /// payload + ICRC), excluding Ethernet FCS and line overhead.
    pub fn wire_len(&self) -> usize {
        let pad = (4 - self.payload.len() % 4) % 4;
        ETHERNET_HEADER_LEN
            + IPV4_HEADER_LEN
            + UDP_HEADER_LEN
            + BTH_LEN
            + self.ext.wire_len()
            + self.payload.len()
            + pad
            + ICRC_LEN
    }

    /// Bytes of line occupancy for serialization-time computation:
    /// frame + FCS + preamble/IFG.
    pub fn line_occupancy(&self) -> usize {
        self.wire_len() + ETHERNET_FCS_LEN + ETHERNET_LINE_OVERHEAD
    }
}

/// Verify the trailing ICRC of raw frame bytes (no structured parse
/// needed). Returns false on frames too short to carry an ICRC.
pub fn icrc_check(wire: &[u8]) -> bool {
    let l3_start = ETHERNET_HEADER_LEN;
    if wire.len() < l3_start + IPV4_HEADER_LEN + UDP_HEADER_LEN + BTH_LEN + ICRC_LEN {
        return false;
    }
    let body_end = wire.len() - ICRC_LEN;
    let stored = u32::from_le_bytes(wire[body_end..].try_into().unwrap());
    let computed = icrc_over_masked(
        &wire[l3_start..body_end],
        IPV4_HEADER_LEN + UDP_HEADER_LEN,
    );
    stored == computed
}

/// Bytes of line occupancy for a raw frame buffer.
pub fn line_occupancy_of(wire_len: usize) -> usize {
    wire_len + ETHERNET_FCS_LEN + ETHERNET_LINE_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DataPacketBuilder;
    use crate::opcode::Opcode;
    use std::net::Ipv4Addr;

    fn sample_frame() -> RoceFrame {
        DataPacketBuilder::new()
            .src_ip(Ipv4Addr::new(10, 0, 0, 1))
            .dst_ip(Ipv4Addr::new(10, 0, 0, 2))
            .opcode(Opcode::RdmaWriteFirst)
            .dest_qp(0xea)
            .psn(1001)
            .reth(Reth {
                vaddr: 0x1000,
                rkey: 42,
                dma_len: 10240,
            })
            .payload_len(1024)
            .build()
    }

    #[test]
    fn emit_parse_roundtrip() {
        let f = sample_frame();
        let wire = f.emit();
        let parsed = RoceFrame::parse(&wire).unwrap();
        assert_eq!(parsed.bth.psn, 1001);
        assert_eq!(parsed.ext.reth.unwrap().dma_len, 10240);
        assert_eq!(parsed.payload.len(), 1024);
        assert_eq!(parsed.wire_len(), wire.len());
    }

    #[test]
    fn parse_frame_shares_payload_with_wire_buffer() {
        let f = sample_frame();
        let wire = f.emit();
        let before = crate::buf::counters();
        let parsed = RoceFrame::parse_frame(&wire).unwrap();
        let after = crate::buf::counters();
        assert_eq!(
            after.bytes_copied, before.bytes_copied,
            "shared parse must not copy the payload"
        );
        assert!(after.bytes_shared > before.bytes_shared);
        // Structurally identical to the copying parse.
        assert_eq!(parsed, RoceFrame::parse(&wire).unwrap());
    }

    #[test]
    fn icrc_validates_and_detects_corruption() {
        let f = sample_frame();
        let wire = f.emit();
        assert!(icrc_check(&wire));
        let mut corrupted = wire.to_vec();
        let payload_byte = wire.len() - ICRC_LEN - 10;
        corrupted[payload_byte] ^= 0x01;
        assert!(!icrc_check(&corrupted));
    }

    #[test]
    fn icrc_survives_ecn_and_ttl_rewrites() {
        // The switch marks CE and decrements TTL without touching the ICRC.
        let f = sample_frame();
        let mut parsed = RoceFrame::parse(&f.emit()).unwrap();
        parsed.ipv4.ecn = crate::ipv4::Ecn::Ce;
        parsed.ipv4.ttl -= 1;
        // Re-emit recomputes ICRC, but the *invariant* part is unchanged, so
        // the ICRC value must be identical to the original.
        let orig = f.emit();
        let rewritten = parsed.emit();
        assert_eq!(
            &orig[orig.len() - ICRC_LEN..],
            &rewritten[rewritten.len() - ICRC_LEN..]
        );
    }

    #[test]
    fn non_multiple_of_four_payload_padded() {
        let f = DataPacketBuilder::new()
            .opcode(Opcode::SendOnly)
            .payload_len(1022)
            .build();
        let wire = f.emit();
        let parsed = RoceFrame::parse(&wire).unwrap();
        assert_eq!(parsed.payload.len(), 1022);
        assert_eq!(parsed.bth.pad_count, 2);
        assert!(icrc_check(&wire));
    }

    #[test]
    fn parse_headers_of_trimmed_capture() {
        let f = sample_frame();
        let wire = f.emit();
        let trimmed = &wire[..128.min(wire.len())];
        let parsed = RoceFrame::parse_headers(trimmed).unwrap();
        assert_eq!(parsed.bth.psn, 1001);
        assert_eq!(parsed.ext.reth.unwrap().rkey, 42);
        assert!(parsed.payload.is_empty());
    }

    #[test]
    fn parse_rejects_non_roce_port() {
        let mut f = sample_frame();
        f.udp.dst_port = 53;
        let wire = f.emit();
        assert!(matches!(RoceFrame::parse(&wire), Err(ParseError::NotRoce(_))));
        assert!(RoceFrame::parse_loose(&wire).is_ok());
    }

    #[test]
    fn ack_frame_roundtrip() {
        let f = crate::builder::ack_frame(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            0xfe,
            1001,
            crate::aeth::AethSyndrome::Ack { credit: 31 },
            3,
        );
        let wire = f.emit();
        let parsed = RoceFrame::parse(&wire).unwrap();
        assert_eq!(parsed.bth.opcode, Opcode::Acknowledge);
        assert_eq!(parsed.ext.aeth.unwrap().msn, 3);
        assert!(parsed.payload.is_empty());
        assert!(icrc_check(&wire));
    }
}
