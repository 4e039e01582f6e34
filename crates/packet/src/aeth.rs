//! ACK Extended Transport Header (AETH).
//!
//! Four bytes carried by ACK/NACK packets and by first/last/only read
//! responses. The syndrome byte distinguishes positive acknowledgements,
//! RNR NAKs, and NAKs; a Go-back-N responder signals "PSN sequence error"
//! through `NakCode::PsnSequenceError`, which is the NACK the paper's
//! retransmission analyzers time (Figures 5, 8, 9).

use crate::{head, ParseError, Result};
use serde::{Deserialize, Serialize};

/// Length of the AETH on the wire.
pub const AETH_LEN: usize = 4;

/// NAK codes from the IB specification (syndrome low bits, NAK class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NakCode {
    /// PSN sequence error: the responder saw an out-of-order packet and
    /// requests Go-back-N retransmission from the expected PSN.
    PsnSequenceError,
    /// Invalid request.
    InvalidRequest,
    /// Remote access error.
    RemoteAccessError,
    /// Remote operational error.
    RemoteOperationalError,
    /// Invalid RD request.
    InvalidRdRequest,
}

impl NakCode {
    fn bits(self) -> u8 {
        match self {
            NakCode::PsnSequenceError => 0,
            NakCode::InvalidRequest => 1,
            NakCode::RemoteAccessError => 2,
            NakCode::RemoteOperationalError => 3,
            NakCode::InvalidRdRequest => 4,
        }
    }

    fn from_bits(v: u8) -> Result<NakCode> {
        Ok(match v {
            0 => NakCode::PsnSequenceError,
            1 => NakCode::InvalidRequest,
            2 => NakCode::RemoteAccessError,
            3 => NakCode::RemoteOperationalError,
            4 => NakCode::InvalidRdRequest,
            other => {
                return Err(ParseError::BadField {
                    what: "aeth nak code",
                    value: other as u64,
                })
            }
        })
    }
}

/// Decoded AETH syndrome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AethSyndrome {
    /// Positive acknowledgement, carrying an end-to-end flow control credit
    /// count (5 bits, IB-encoded; we carry the raw field).
    Ack {
        /// Raw 5-bit credit field.
        credit: u8,
    },
    /// Receiver-not-ready NAK with the 5-bit RNR timer field.
    RnrNak {
        /// Raw 5-bit timer field.
        timer: u8,
    },
    /// Negative acknowledgement with a NAK code.
    Nak(NakCode),
}

impl AethSyndrome {
    /// The syndrome's 8-bit wire value.
    pub fn value(self) -> u8 {
        match self {
            AethSyndrome::Ack { credit } => credit & 0x1f,
            AethSyndrome::RnrNak { timer } => 0b0010_0000 | (timer & 0x1f),
            AethSyndrome::Nak(code) => 0b0110_0000 | code.bits(),
        }
    }

    /// Decode from the 8-bit wire value.
    pub fn from_value(v: u8) -> Result<AethSyndrome> {
        match (v >> 5) & 0b11 {
            0b00 => Ok(AethSyndrome::Ack { credit: v & 0x1f }),
            0b01 => Ok(AethSyndrome::RnrNak { timer: v & 0x1f }),
            0b11 => Ok(AethSyndrome::Nak(NakCode::from_bits(v & 0x1f)?)),
            _ => Err(ParseError::BadField {
                what: "aeth syndrome class",
                value: v as u64,
            }),
        }
    }

    /// True for any NAK (sequence-error or otherwise), excluding RNR.
    pub fn is_nak(self) -> bool {
        matches!(self, AethSyndrome::Nak(_))
    }

    /// True specifically for the Go-back-N sequence-error NAK.
    pub fn is_seq_err_nak(self) -> bool {
        matches!(self, AethSyndrome::Nak(NakCode::PsnSequenceError))
    }
}

/// An ACK Extended Transport Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Aeth {
    /// Decoded syndrome.
    pub syndrome: AethSyndrome,
    /// Message sequence number (24 bits): the number of messages the
    /// responder has completed.
    pub msn: u32,
}

impl Aeth {
    /// Parse an AETH from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Aeth> {
        Aeth::decode(head(buf, "aeth")?)
    }

    /// Decode an AETH from exactly its bytes; fails on a reserved
    /// syndrome class or an undefined NAK code.
    #[inline]
    pub fn decode(b: &[u8; AETH_LEN]) -> Result<Aeth> {
        Ok(Aeth {
            syndrome: AethSyndrome::from_value(b[0])?,
            msn: u32::from_be_bytes([0, b[1], b[2], b[3]]),
        })
    }

    /// Serialize into the front of `buf` (at least [`AETH_LEN`] bytes).
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < AETH_LEN {
            return Err(ParseError::Truncated {
                what: "aeth emit buffer",
                need: AETH_LEN,
                have: buf.len(),
            });
        }
        if self.msn >= 1 << 24 {
            return Err(ParseError::BadField {
                what: "aeth msn exceeds 24 bits",
                value: self.msn as u64,
            });
        }
        buf[0] = self.syndrome.value();
        let msn = self.msn.to_be_bytes();
        buf[1] = msn[1];
        buf[2] = msn[2];
        buf[3] = msn[3];
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syndrome_roundtrip() {
        let cases = [
            AethSyndrome::Ack { credit: 0 },
            AethSyndrome::Ack { credit: 31 },
            AethSyndrome::RnrNak { timer: 14 },
            AethSyndrome::Nak(NakCode::PsnSequenceError),
            AethSyndrome::Nak(NakCode::RemoteAccessError),
        ];
        for s in cases {
            assert_eq!(AethSyndrome::from_value(s.value()).unwrap(), s);
        }
    }

    #[test]
    fn aeth_roundtrip() {
        let h = Aeth {
            syndrome: AethSyndrome::Nak(NakCode::PsnSequenceError),
            msn: 0x000abc,
        };
        let mut buf = [0u8; AETH_LEN];
        h.emit(&mut buf).unwrap();
        assert_eq!(Aeth::parse(&buf).unwrap(), h);
    }

    #[test]
    fn nak_classification() {
        assert!(AethSyndrome::Nak(NakCode::PsnSequenceError).is_seq_err_nak());
        assert!(AethSyndrome::Nak(NakCode::InvalidRequest).is_nak());
        assert!(!AethSyndrome::Nak(NakCode::InvalidRequest).is_seq_err_nak());
        assert!(!AethSyndrome::Ack { credit: 0 }.is_nak());
        assert!(!AethSyndrome::RnrNak { timer: 0 }.is_nak());
    }

    #[test]
    fn reserved_class_rejected() {
        // Class 0b10 is reserved.
        assert!(AethSyndrome::from_value(0b0100_0000).is_err());
        // Undefined NAK code.
        assert!(AethSyndrome::from_value(0b0110_0000 | 9).is_err());
    }

    #[test]
    fn oversized_msn_rejected() {
        let h = Aeth {
            syndrome: AethSyndrome::Ack { credit: 0 },
            msn: 1 << 24,
        };
        let mut buf = [0u8; AETH_LEN];
        assert!(h.emit(&mut buf).is_err());
    }
}
