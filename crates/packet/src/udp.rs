//! UDP header.
//!
//! RoCEv2 rides on UDP destination port 4791. The event injector rewrites
//! this port to a pseudo-random value on mirrored packets so that the
//! dumpers' RSS sees "many flows" and spreads load across all CPU cores
//! (§3.4 of the paper); the dumper restores it before writing the trace.

use crate::{head, ParseError, Result};
use serde::{Deserialize, Serialize};

/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// IANA-reserved UDP destination port for RoCEv2.
pub const ROCEV2_UDP_PORT: u16 = 4791;

/// A UDP header. The checksum is carried verbatim; RoCEv2 senders commonly
/// transmit zero (checksum disabled) because the ICRC already covers the
/// payload, and the ICRC computation masks the field anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdpHeader {
    /// Source port. RNICs typically derive this from the flow for ECMP.
    pub src_port: u16,
    /// Destination port; 4791 for RoCEv2 on the wire.
    pub dst_port: u16,
    /// Length of UDP header plus payload.
    pub length: u16,
    /// Checksum, carried verbatim (commonly 0 for RoCEv2).
    pub checksum: u16,
}

impl UdpHeader {
    /// Parse a header from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<UdpHeader> {
        head(buf, "udp header").map(UdpHeader::decode)
    }

    /// Decode a header from exactly its bytes.
    #[inline]
    pub fn decode(b: &[u8; UDP_HEADER_LEN]) -> UdpHeader {
        UdpHeader {
            src_port: u16::from_be_bytes([b[0], b[1]]),
            dst_port: u16::from_be_bytes([b[2], b[3]]),
            length: u16::from_be_bytes([b[4], b[5]]),
            checksum: u16::from_be_bytes([b[6], b[7]]),
        }
    }

    /// Serialize into the front of `buf` (at least [`UDP_HEADER_LEN`] bytes).
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(ParseError::Truncated {
                what: "udp emit buffer",
                need: UDP_HEADER_LEN,
                have: buf.len(),
            });
        }
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&self.length.to_be_bytes());
        buf[6..8].copy_from_slice(&self.checksum.to_be_bytes());
        Ok(())
    }

    /// True if the destination port marks this datagram as RoCEv2.
    pub fn is_rocev2(&self) -> bool {
        self.dst_port == ROCEV2_UDP_PORT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = UdpHeader {
            src_port: 49152,
            dst_port: ROCEV2_UDP_PORT,
            length: 1052,
            checksum: 0,
        };
        let mut buf = [0u8; UDP_HEADER_LEN];
        h.emit(&mut buf).unwrap();
        let p = UdpHeader::parse(&buf).unwrap();
        assert_eq!(p, h);
        assert!(p.is_rocev2());
    }

    #[test]
    fn non_roce_port_detected() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 53,
            length: 20,
            checksum: 0,
        };
        assert!(!h.is_rocev2());
    }

    #[test]
    fn truncated_rejected() {
        assert!(UdpHeader::parse(&[0u8; 7]).is_err());
    }
}
