//! Immediate data extension header (4 bytes).

use crate::{head, ParseError, Result};
use serde::{Deserialize, Serialize};

/// Length of the immediate-data header.
pub const IMMDT_LEN: usize = 4;

/// Four bytes of immediate data delivered to the remote completion queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ImmDt(pub u32);

impl ImmDt {
    /// Parse from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<ImmDt> {
        head(buf, "immdt").map(ImmDt::decode)
    }

    /// Decode from exactly the header's bytes.
    #[inline]
    pub fn decode(b: &[u8; IMMDT_LEN]) -> ImmDt {
        ImmDt(u32::from_be_bytes(*b))
    }

    /// Serialize into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < IMMDT_LEN {
            return Err(ParseError::Truncated {
                what: "immdt emit buffer",
                need: IMMDT_LEN,
                have: buf.len(),
            });
        }
        buf[0..4].copy_from_slice(&self.0.to_be_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = ImmDt(0xfeed_beef);
        let mut buf = [0u8; IMMDT_LEN];
        h.emit(&mut buf).unwrap();
        assert_eq!(ImmDt::parse(&buf).unwrap(), h);
    }

    #[test]
    fn truncated_rejected() {
        assert!(ImmDt::parse(&[0u8; 3]).is_err());
    }
}
