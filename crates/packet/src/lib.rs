//! RoCEv2 wire formats.
//!
//! This crate implements the packet formats that Lumina observes and
//! manipulates on the wire: Ethernet II, IPv4 (with ECN), UDP, and the
//! InfiniBand transport headers carried by RoCEv2 — Base Transport Header
//! (BTH, including the `MigReq` bit central to the CX5/E810 interoperability
//! bug of §6.2.3 of the paper), RDMA Extended Transport Header (RETH), ACK
//! Extended Transport Header (AETH), immediate data, Congestion Notification
//! Packets (CNP) and the invariant CRC (ICRC).
//!
//! Everything round-trips: `parse(emit(x)) == x`. The property tests in this
//! crate pin that invariant down for every header type.
//!
//! # Example
//!
//! ```
//! use lumina_packet::{RoceFrame, builder, frame::icrc_check, opcode::Opcode};
//! use std::net::Ipv4Addr;
//!
//! let frame = builder::DataPacketBuilder::new()
//!     .src_ip(Ipv4Addr::new(10, 0, 0, 1))
//!     .dst_ip(Ipv4Addr::new(10, 0, 0, 2))
//!     .opcode(Opcode::RdmaWriteOnly)
//!     .dest_qp(0xea)
//!     .psn(1004)
//!     .payload_len(1024)
//!     .build();
//! let bytes = frame.emit();
//! let parsed = RoceFrame::parse(&bytes).unwrap();
//! assert_eq!(parsed.bth.psn, 1004);
//! assert!(icrc_check(&bytes));
//! ```

pub mod aeth;
pub mod bth;
pub mod buf;
pub mod builder;
pub mod cnp;
pub mod ethernet;
pub mod frame;
pub mod icrc;
pub mod immdt;
pub mod ipv4;
pub mod mac;
pub mod opcode;
pub mod reth;
pub mod udp;

pub use aeth::{Aeth, AethSyndrome, NakCode};
pub use bth::Bth;
pub use buf::Frame;
pub use ethernet::{EtherType, EthernetHeader};
pub use frame::{ExtHeaders, RoceFrame, RoceHeaders};
pub use ipv4::{Ecn, Ipv4Header};
pub use mac::MacAddr;
pub use opcode::Opcode;
pub use reth::Reth;
pub use udp::{UdpHeader, ROCEV2_UDP_PORT};

/// Errors that can arise when parsing wire bytes into structured headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer ended before the header (or payload) it should contain.
    Truncated {
        /// Which header was being parsed.
        what: &'static str,
        /// How many bytes were required.
        need: usize,
        /// How many bytes were available.
        have: usize,
    },
    /// A field had a value the parser cannot represent.
    BadField {
        /// Which field was malformed.
        what: &'static str,
        /// The offending value, widened to u64.
        value: u64,
    },
    /// The frame is not RoCEv2 (wrong ethertype, protocol or UDP port).
    NotRoce(&'static str),
}

impl ParseError {
    /// True when the bytes are simply foreign traffic (wrong ethertype,
    /// protocol, or port) rather than damaged RoCEv2 — ingest pipelines use
    /// this to separate "not ours" from "ours but rotten".
    pub fn is_foreign(&self) -> bool {
        matches!(self, ParseError::NotRoce(_))
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need} bytes, have {have}")
            }
            ParseError::BadField { what, value } => {
                write!(f, "bad field {what}: value {value:#x}")
            }
            ParseError::NotRoce(why) => write!(f, "not a RoCEv2 frame: {why}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ParseError>;

/// The first `N` bytes of `buf` as an array — the one length check of a
/// header's `parse`; its `decode` then reads fields at constant offsets —
/// or a [`ParseError::Truncated`] tagged with `what`.
#[inline]
pub(crate) fn head<'a, const N: usize>(buf: &'a [u8], what: &'static str) -> Result<&'a [u8; N]> {
    buf.first_chunk().ok_or(ParseError::Truncated {
        what,
        need: N,
        have: buf.len(),
    })
}
