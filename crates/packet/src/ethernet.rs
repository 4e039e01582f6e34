//! Ethernet II framing.

use crate::mac::MacAddr;
use crate::{head, ParseError, Result};
use serde::{Deserialize, Serialize};

/// Length of an Ethernet II header on the wire.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// Per-frame overhead that occupies the line but is not part of the frame
/// buffer: 7 B preamble + 1 B SFD + 12 B inter-frame gap.
pub const ETHERNET_LINE_OVERHEAD: usize = 20;

/// Frame check sequence appended by the MAC.
pub const ETHERNET_FCS_LEN: usize = 4;

/// EtherType values this crate understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// The 16-bit wire value.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Other(v) => v,
        }
    }

    /// Decode from the 16-bit wire value.
    pub fn from_value(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EthernetHeader {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Parse a header from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<EthernetHeader> {
        head(buf, "ethernet header").map(EthernetHeader::decode)
    }

    /// Decode a header from exactly its bytes.
    #[inline]
    pub fn decode(b: &[u8; ETHERNET_HEADER_LEN]) -> EthernetHeader {
        let [d0, d1, d2, d3, d4, d5, s0, s1, s2, s3, s4, s5, t0, t1] = *b;
        EthernetHeader {
            dst: MacAddr([d0, d1, d2, d3, d4, d5]),
            src: MacAddr([s0, s1, s2, s3, s4, s5]),
            ethertype: EtherType::from_value(u16::from_be_bytes([t0, t1])),
        }
    }

    /// Serialize into the front of `buf`, which must hold at least
    /// [`ETHERNET_HEADER_LEN`] bytes.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return Err(ParseError::Truncated {
                what: "ethernet emit buffer",
                need: ETHERNET_HEADER_LEN,
                have: buf.len(),
            });
        }
        buf[0..6].copy_from_slice(&self.dst.0);
        buf[6..12].copy_from_slice(&self.src.0);
        buf[12..14].copy_from_slice(&self.ethertype.value().to_be_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = EthernetHeader {
            dst: MacAddr::local(7),
            src: MacAddr::local(9),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = [0u8; ETHERNET_HEADER_LEN];
        h.emit(&mut buf).unwrap();
        assert_eq!(EthernetHeader::parse(&buf).unwrap(), h);
    }

    #[test]
    fn preserves_unknown_ethertype() {
        let h = EthernetHeader {
            dst: MacAddr::ZERO,
            src: MacAddr::BROADCAST,
            ethertype: EtherType::Other(0x88cc),
        };
        let mut buf = [0u8; ETHERNET_HEADER_LEN];
        h.emit(&mut buf).unwrap();
        let p = EthernetHeader::parse(&buf).unwrap();
        assert_eq!(p.ethertype.value(), 0x88cc);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            EthernetHeader::parse(&[0u8; 13]),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn emit_into_short_buffer_rejected() {
        let h = EthernetHeader {
            dst: MacAddr::ZERO,
            src: MacAddr::ZERO,
            ethertype: EtherType::Ipv4,
        };
        let mut buf = [0u8; 8];
        assert!(h.emit(&mut buf).is_err());
    }
}
