//! RDMA Extended Transport Header (RETH).
//!
//! Sixteen bytes carried by the first packet of an RDMA Write, by
//! single-packet Writes, and by Read requests: remote virtual address,
//! remote key, and DMA length.

use crate::{head, ParseError, Result};
use serde::{Deserialize, Serialize};

/// Length of the RETH on the wire.
pub const RETH_LEN: usize = 16;

/// An RDMA Extended Transport Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Reth {
    /// Remote virtual address the operation targets.
    pub vaddr: u64,
    /// Remote key authorizing access to the target memory region.
    pub rkey: u32,
    /// Total length of the DMA operation in bytes.
    pub dma_len: u32,
}

impl Reth {
    /// Parse a RETH from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Reth> {
        head(buf, "reth").map(Reth::decode)
    }

    /// Decode a RETH from exactly its bytes.
    #[inline]
    pub fn decode(b: &[u8; RETH_LEN]) -> Reth {
        Reth {
            vaddr: u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
            rkey: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
            dma_len: u32::from_be_bytes([b[12], b[13], b[14], b[15]]),
        }
    }

    /// Serialize into the front of `buf` (at least [`RETH_LEN`] bytes).
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < RETH_LEN {
            return Err(ParseError::Truncated {
                what: "reth emit buffer",
                need: RETH_LEN,
                have: buf.len(),
            });
        }
        buf[0..8].copy_from_slice(&self.vaddr.to_be_bytes());
        buf[8..12].copy_from_slice(&self.rkey.to_be_bytes());
        buf[12..16].copy_from_slice(&self.dma_len.to_be_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = Reth {
            vaddr: 0x7f00_dead_beef_0000,
            rkey: 0x1234_5678,
            dma_len: 1 << 20,
        };
        let mut buf = [0u8; RETH_LEN];
        h.emit(&mut buf).unwrap();
        assert_eq!(Reth::parse(&buf).unwrap(), h);
    }

    #[test]
    fn truncated_rejected() {
        assert!(Reth::parse(&[0u8; 15]).is_err());
        let mut short = [0u8; 15];
        assert!(Reth::default().emit(&mut short).is_err());
    }
}
