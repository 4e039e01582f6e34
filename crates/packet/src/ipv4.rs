//! IPv4 header with explicit ECN handling.
//!
//! The event injector's "mark ECN" action sets the ECN codepoint to CE
//! (Congestion Experienced); the DCQCN notification point reacts to CE on
//! data packets by emitting CNPs. The TTL field is additionally scavenged on
//! *mirrored* packets to carry the injected-event type (§3.4 of the paper).

use crate::{head, ParseError, Result};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Length of an IPv4 header without options (IHL = 5).
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol number for UDP.
pub const IP_PROTO_UDP: u8 = 17;

/// The two-bit ECN codepoint (RFC 3168).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ecn {
    /// 00 — not ECN-capable transport.
    NotEct,
    /// 01 — ECN-capable transport, codepoint 1.
    Ect1,
    /// 10 — ECN-capable transport, codepoint 0.
    Ect0,
    /// 11 — congestion experienced.
    Ce,
}

impl Ecn {
    /// The raw two-bit value.
    pub fn bits(self) -> u8 {
        match self {
            Ecn::NotEct => 0b00,
            Ecn::Ect1 => 0b01,
            Ecn::Ect0 => 0b10,
            Ecn::Ce => 0b11,
        }
    }

    /// Decode from the low two bits of `v`.
    pub fn from_bits(v: u8) -> Ecn {
        match v & 0b11 {
            0b00 => Ecn::NotEct,
            0b01 => Ecn::Ect1,
            0b10 => Ecn::Ect0,
            _ => Ecn::Ce,
        }
    }

    /// True for the Congestion Experienced codepoint.
    pub fn is_ce(self) -> bool {
        self == Ecn::Ce
    }
}

/// An IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Header {
    /// Differentiated services codepoint (6 bits).
    pub dscp: u8,
    /// ECN codepoint (2 bits).
    pub ecn: Ecn,
    /// Total length of the IP datagram including this header.
    pub total_len: u16,
    /// Identification field.
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// Time to live. Scavenged on mirrored packets to carry the event type.
    pub ttl: u8,
    /// Payload protocol (UDP = 17 for RoCEv2).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Parse a header from the front of `buf`. The stored checksum is
    /// verified; a mismatch is reported as a [`ParseError::BadField`].
    pub fn parse(buf: &[u8]) -> Result<Ipv4Header> {
        Ipv4Header::decode(head(buf, "ipv4 header")?)
    }

    /// Decode a header from exactly its bytes: version, IHL and checksum
    /// are verified (a [`ParseError::BadField`] each), and a fragment is
    /// [`ParseError::NotRoce`].
    #[inline]
    pub fn decode(buf: &[u8; IPV4_HEADER_LEN]) -> Result<Ipv4Header> {
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(ParseError::BadField {
                what: "ipv4 version",
                value: version as u64,
            });
        }
        let ihl = (buf[0] & 0x0f) as usize;
        if ihl != 5 {
            return Err(ParseError::BadField {
                what: "ipv4 ihl (options unsupported)",
                value: ihl as u64,
            });
        }
        let stored_csum = u16::from_be_bytes([buf[10], buf[11]]);
        if stored_csum != header_checksum(buf) {
            return Err(ParseError::BadField {
                what: "ipv4 checksum",
                value: stored_csum as u64,
            });
        }
        // RoCEv2 is never fragmented: a first fragment (MF) carries a
        // partial datagram, a later one (offset != 0) no UDP header at all.
        if buf[6] & 0x3f != 0 || buf[7] != 0 {
            return Err(ParseError::NotRoce("ip fragment"));
        }
        Ok(Ipv4Header {
            dscp: buf[1] >> 2,
            ecn: Ecn::from_bits(buf[1]),
            total_len: u16::from_be_bytes([buf[2], buf[3]]),
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            dont_fragment: buf[6] & 0x40 != 0,
            ttl: buf[8],
            protocol: buf[9],
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
        })
    }

    /// Serialize into the front of `buf` (at least [`IPV4_HEADER_LEN`]
    /// bytes), computing the header checksum.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        let have = buf.len();
        let Some(h) = buf.first_chunk_mut::<IPV4_HEADER_LEN>() else {
            return Err(ParseError::Truncated {
                what: "ipv4 emit buffer",
                need: IPV4_HEADER_LEN,
                have,
            });
        };
        h[0] = 0x45;
        h[1] = (self.dscp << 2) | self.ecn.bits();
        h[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        h[4..6].copy_from_slice(&self.identification.to_be_bytes());
        h[6] = if self.dont_fragment { 0x40 } else { 0x00 };
        h[7] = 0;
        h[8] = self.ttl;
        h[9] = self.protocol;
        h[12..16].copy_from_slice(&self.src.octets());
        h[16..20].copy_from_slice(&self.dst.octets());
        let csum = header_checksum(h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        Ok(())
    }
}

/// RFC 1071 internet checksum of an IPv4 header, the checksum field
/// itself (bytes 10..12) left out of the sum — so the same call verifies a
/// received header and computes the field of one being written. The one
/// checksum kernel of the workspace: nine words and two folds (nine
/// 16-bit words sum below 2^20, so the first fold leaves at most one
/// carry).
#[inline]
pub fn header_checksum(h: &[u8; IPV4_HEADER_LEN]) -> u16 {
    let w = |i: usize| u16::from_be_bytes([h[i], h[i + 1]]) as u32;
    let sum = w(0) + w(2) + w(4) + w(6) + w(8) + w(12) + w(14) + w(16) + w(18);
    let sum = (sum & 0xffff) + (sum >> 16);
    let sum = (sum & 0xffff) + (sum >> 16);
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            dscp: 26,
            ecn: Ecn::Ect0,
            total_len: 1100,
            identification: 0x1234,
            dont_fragment: true,
            ttl: 64,
            protocol: IP_PROTO_UDP,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.emit(&mut buf).unwrap();
        assert_eq!(Ipv4Header::parse(&buf).unwrap(), h);
    }

    #[test]
    fn checksum_validated_on_parse() {
        let h = sample();
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.emit(&mut buf).unwrap();
        buf[8] = buf[8].wrapping_add(1); // corrupt TTL without fixing checksum
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(ParseError::BadField { what: "ipv4 checksum", .. })
        ));
    }

    #[test]
    fn ecn_bits_roundtrip() {
        for e in [Ecn::NotEct, Ecn::Ect0, Ecn::Ect1, Ecn::Ce] {
            assert_eq!(Ecn::from_bits(e.bits()), e);
        }
        assert!(Ecn::Ce.is_ce());
        assert!(!Ecn::Ect0.is_ce());
    }

    #[test]
    fn rejects_ipv6_and_options() {
        let h = sample();
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.emit(&mut buf).unwrap();
        let mut v6 = buf;
        v6[0] = 0x65;
        assert!(Ipv4Header::parse(&v6).is_err());
        let mut opts = buf;
        opts[0] = 0x46;
        assert!(Ipv4Header::parse(&opts).is_err());
    }

    #[test]
    fn fragments_are_foreign_traffic() {
        let mut buf = [0u8; IPV4_HEADER_LEN];
        sample().emit(&mut buf).unwrap();
        // DF alone (what `emit` writes) and the reserved bit are not
        // fragmentation.
        assert!(Ipv4Header::parse(&buf).is_ok());
        for (flags, offset_lo, fragment) in [
            (0x20, 0, true),   // first fragment: MF set, offset 0
            (0x00, 185, true), // last fragment: offset only
            (0x21, 0, true),   // offset in the high bits, MF set
            (0x01, 0, true),   // offset in the high bits alone
            (0xc0, 0, false),  // reserved + DF
            (0x00, 0, false),
        ] {
            let mut b = buf;
            b[6] = flags;
            b[7] = offset_lo;
            let csum = header_checksum(&b);
            b[10..12].copy_from_slice(&csum.to_be_bytes());
            let got = Ipv4Header::parse(&b);
            if fragment {
                assert_eq!(
                    got,
                    Err(ParseError::NotRoce("ip fragment")),
                    "{flags:#x}/{offset_lo}"
                );
                assert!(got.unwrap_err().is_foreign());
            } else {
                assert!(got.is_ok(), "{flags:#x}/{offset_lo}: {got:?}");
            }
        }
        // A fragment whose checksum is also wrong is rotten first: the
        // header cannot be trusted to say what it is.
        let mut b = buf;
        b[6] = 0x20;
        assert!(matches!(
            Ipv4Header::parse(&b),
            Err(ParseError::BadField {
                what: "ipv4 checksum",
                ..
            })
        ));
    }

    #[test]
    fn ce_marking_changes_only_ecn_bits() {
        let mut h = sample();
        let mut before = [0u8; IPV4_HEADER_LEN];
        h.emit(&mut before).unwrap();
        h.ecn = Ecn::Ce;
        let mut after = [0u8; IPV4_HEADER_LEN];
        h.emit(&mut after).unwrap();
        // Only the TOS byte and the checksum may differ.
        for (i, (b, a)) in before.iter().zip(after.iter()).enumerate() {
            if i == 1 || i == 10 || i == 11 {
                continue;
            }
            assert_eq!(b, a, "byte {i} changed by ECN marking");
        }
    }
}
