//! InfiniBand Base Transport Header (BTH).
//!
//! Twelve bytes present in every RoCEv2 packet. Fields of note for Lumina:
//!
//! * `psn` — the packet sequence number the event injector matches on.
//! * `dest_qp` — the destination queue pair number, the other match key.
//! * `mig_req` — the Automatic Path Migration request bit. NVIDIA RNICs set
//!   it to 1, Intel E810 sets it to 0; §6.2.3 of the paper shows the
//!   mismatch drives CX5 into an APM slow path and packet discards.
//! * `ack_req` — requests an acknowledgement from the responder.

use crate::opcode::Opcode;
use crate::{head, ParseError, Result};
use serde::{Deserialize, Serialize};

/// Length of the BTH on the wire.
pub const BTH_LEN: usize = 12;

/// A Base Transport Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bth {
    /// Operation code; also selects which extension headers follow.
    pub opcode: Opcode,
    /// Solicited event bit.
    pub solicited: bool,
    /// MigReq: automatic path migration state. 1 = "migrated" (initial
    /// state per the IB spec), which is what NVIDIA RNICs transmit; the
    /// Intel E810 transmits 0.
    pub mig_req: bool,
    /// Pad count: bytes of padding after the payload to reach a 4-byte
    /// boundary (0–3).
    pub pad_count: u8,
    /// Transport header version (0).
    pub tver: u8,
    /// Partition key.
    pub pkey: u16,
    /// Destination queue pair number (24 bits).
    pub dest_qp: u32,
    /// Acknowledge-request bit.
    pub ack_req: bool,
    /// Packet sequence number (24 bits).
    pub psn: u32,
}

/// PSNs are 24-bit and wrap; all arithmetic must be modulo 2^24.
pub const PSN_MODULUS: u32 = 1 << 24;

/// Mask a value into the 24-bit PSN space.
pub fn psn_mask(v: u32) -> u32 {
    v & (PSN_MODULUS - 1)
}

/// Signed distance from `a` to `b` in 24-bit PSN space, in
/// `[-2^23, 2^23)`. Positive means `b` is ahead of `a`.
pub fn psn_distance(a: u32, b: u32) -> i32 {
    let d = psn_mask(b.wrapping_sub(a));
    if d < PSN_MODULUS / 2 {
        d as i32
    } else {
        d as i32 - PSN_MODULUS as i32
    }
}

/// Add a delta to a PSN, wrapping in 24-bit space.
pub fn psn_add(psn: u32, delta: u32) -> u32 {
    psn_mask(psn.wrapping_add(delta))
}

impl Default for Bth {
    fn default() -> Self {
        Bth {
            opcode: Opcode::RdmaWriteOnly,
            solicited: false,
            mig_req: true,
            pad_count: 0,
            tver: 0,
            pkey: 0xffff,
            dest_qp: 0,
            ack_req: false,
            psn: 0,
        }
    }
}

impl Bth {
    /// Parse a BTH from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Bth> {
        Bth::decode(head(buf, "bth")?)
    }

    /// Decode a BTH from exactly its bytes; fails on an undefined opcode.
    #[inline]
    pub fn decode(b: &[u8; BTH_LEN]) -> Result<Bth> {
        let Some(opcode) = Opcode::from_value(b[0]) else {
            return Err(ParseError::BadField {
                what: "bth opcode",
                value: b[0] as u64,
            });
        };
        Ok(Bth {
            opcode,
            solicited: b[1] & 0x80 != 0,
            mig_req: b[1] & 0x40 != 0,
            pad_count: (b[1] >> 4) & 0x03,
            tver: b[1] & 0x0f,
            pkey: u16::from_be_bytes([b[2], b[3]]),
            dest_qp: u32::from_be_bytes([0, b[5], b[6], b[7]]),
            ack_req: b[8] & 0x80 != 0,
            psn: u32::from_be_bytes([0, b[9], b[10], b[11]]),
        })
    }

    /// Serialize into the front of `buf` (at least [`BTH_LEN`] bytes).
    ///
    /// Byte 4 (`resv8a`) and the low 7 bits of byte 8 are transmitted as
    /// zero; the ICRC computation masks `resv8a` to 0xff per the RoCEv2
    /// convention (see [`crate::icrc`]).
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < BTH_LEN {
            return Err(ParseError::Truncated {
                what: "bth emit buffer",
                need: BTH_LEN,
                have: buf.len(),
            });
        }
        if self.dest_qp >= PSN_MODULUS {
            return Err(ParseError::BadField {
                what: "bth dest_qp exceeds 24 bits",
                value: self.dest_qp as u64,
            });
        }
        if self.psn >= PSN_MODULUS {
            return Err(ParseError::BadField {
                what: "bth psn exceeds 24 bits",
                value: self.psn as u64,
            });
        }
        buf[0] = self.opcode.value();
        buf[1] = (u8::from(self.solicited) << 7)
            | (u8::from(self.mig_req) << 6)
            | ((self.pad_count & 0x03) << 4)
            | (self.tver & 0x0f);
        buf[2..4].copy_from_slice(&self.pkey.to_be_bytes());
        buf[4] = 0; // resv8a
        let qp = self.dest_qp.to_be_bytes();
        buf[5] = qp[1];
        buf[6] = qp[2];
        buf[7] = qp[3];
        buf[8] = u8::from(self.ack_req) << 7;
        let psn = self.psn.to_be_bytes();
        buf[9] = psn[1];
        buf[10] = psn[2];
        buf[11] = psn[3];
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bth {
        Bth {
            opcode: Opcode::RdmaWriteFirst,
            solicited: true,
            mig_req: true,
            pad_count: 2,
            tver: 0,
            pkey: 0xffff,
            dest_qp: 0xabcdef,
            ack_req: true,
            psn: 0x123456,
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let mut buf = [0u8; BTH_LEN];
        h.emit(&mut buf).unwrap();
        assert_eq!(Bth::parse(&buf).unwrap(), h);
    }

    #[test]
    fn mig_req_bit_position() {
        // MigReq must be bit 6 of byte 1 — the switch's set-MigReq action
        // flips exactly this bit.
        let mut h = sample();
        h.mig_req = false;
        let mut off = [0u8; BTH_LEN];
        h.emit(&mut off).unwrap();
        h.mig_req = true;
        let mut on = [0u8; BTH_LEN];
        h.emit(&mut on).unwrap();
        assert_eq!(off[1] ^ on[1], 0x40);
        for i in [0usize, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11] {
            assert_eq!(off[i], on[i]);
        }
    }

    #[test]
    fn oversized_fields_rejected() {
        let mut h = sample();
        h.psn = PSN_MODULUS;
        let mut buf = [0u8; BTH_LEN];
        assert!(h.emit(&mut buf).is_err());
        let mut h = sample();
        h.dest_qp = PSN_MODULUS;
        assert!(h.emit(&mut buf).is_err());
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut buf = [0u8; BTH_LEN];
        sample().emit(&mut buf).unwrap();
        buf[0] = 0x7f;
        assert!(matches!(
            Bth::parse(&buf),
            Err(ParseError::BadField { what: "bth opcode", .. })
        ));
    }

    #[test]
    fn psn_arithmetic() {
        assert_eq!(psn_add(PSN_MODULUS - 1, 1), 0);
        assert_eq!(psn_distance(0, 1), 1);
        assert_eq!(psn_distance(1, 0), -1);
        assert_eq!(psn_distance(PSN_MODULUS - 1, 0), 1);
        assert_eq!(psn_distance(0, PSN_MODULUS - 1), -1);
        assert_eq!(psn_distance(5, 5), 0);
        // Wrap-around: halfway point is the negative extreme.
        assert_eq!(psn_distance(0, PSN_MODULUS / 2), -(PSN_MODULUS as i32 / 2));
    }
}
