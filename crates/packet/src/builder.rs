//! Frame builders for the packet kinds the traffic generator and RNIC
//! models emit.

use crate::aeth::{Aeth, AethSyndrome, NakCode};
use crate::bth::Bth;
use crate::cnp::{cnp_bth, CNP_DSCP, CNP_PAYLOAD_LEN};
use crate::ethernet::{EtherType, EthernetHeader};
use crate::frame::{ExtHeaders, RoceFrame};
use crate::ipv4::{Ecn, Ipv4Header, IP_PROTO_UDP};
use crate::mac::MacAddr;
use crate::opcode::Opcode;
use crate::reth::Reth;
use crate::udp::{UdpHeader, ROCEV2_UDP_PORT};
use bytes::Bytes;
use std::net::Ipv4Addr;

/// Default TTL used by the simulated hosts.
pub const DEFAULT_TTL: u8 = 64;

/// Builder for RoCEv2 data packets (sends, writes, read requests and read
/// responses).
#[derive(Debug, Clone)]
pub struct DataPacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dscp: u8,
    ecn: Ecn,
    bth: Bth,
    ext: ExtHeaders,
    payload: Bytes,
}

impl Default for DataPacketBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DataPacketBuilder {
    /// Start a builder with neutral defaults.
    pub fn new() -> DataPacketBuilder {
        DataPacketBuilder {
            src_mac: MacAddr::local(1),
            dst_mac: MacAddr::local(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 49152,
            dscp: 26,
            ecn: Ecn::Ect0,
            bth: Bth::default(),
            ext: ExtHeaders::default(),
            payload: Bytes::new(),
        }
    }

    /// Set the source MAC address.
    pub fn src_mac(mut self, m: MacAddr) -> Self {
        self.src_mac = m;
        self
    }

    /// Set the destination MAC address.
    pub fn dst_mac(mut self, m: MacAddr) -> Self {
        self.dst_mac = m;
        self
    }

    /// Set the source IP address.
    pub fn src_ip(mut self, ip: Ipv4Addr) -> Self {
        self.src_ip = ip;
        self
    }

    /// Set the destination IP address.
    pub fn dst_ip(mut self, ip: Ipv4Addr) -> Self {
        self.dst_ip = ip;
        self
    }

    /// Set the UDP source port (flow entropy for ECMP/RSS).
    pub fn src_port(mut self, p: u16) -> Self {
        self.src_port = p;
        self
    }

    /// Set the DSCP codepoint.
    pub fn dscp(mut self, d: u8) -> Self {
        self.dscp = d;
        self
    }

    /// Set the ECN codepoint (defaults to ECT(0), as DCQCN requires).
    pub fn ecn(mut self, e: Ecn) -> Self {
        self.ecn = e;
        self
    }

    /// Set the BTH opcode.
    pub fn opcode(mut self, op: Opcode) -> Self {
        self.bth.opcode = op;
        self
    }

    /// Set the destination queue pair number.
    pub fn dest_qp(mut self, qp: u32) -> Self {
        self.bth.dest_qp = qp;
        self
    }

    /// Set the packet sequence number.
    pub fn psn(mut self, psn: u32) -> Self {
        self.bth.psn = psn;
        self
    }

    /// Set the AckReq bit.
    pub fn ack_req(mut self, v: bool) -> Self {
        self.bth.ack_req = v;
        self
    }

    /// Set the MigReq bit (NVIDIA RNICs send 1, Intel E810 sends 0).
    pub fn mig_req(mut self, v: bool) -> Self {
        self.bth.mig_req = v;
        self
    }

    /// Attach a RETH.
    pub fn reth(mut self, reth: Reth) -> Self {
        self.ext.reth = Some(reth);
        self
    }

    /// Attach an AETH (read responses).
    pub fn aeth(mut self, aeth: Aeth) -> Self {
        self.ext.aeth = Some(aeth);
        self
    }

    /// Use a zero payload of `len` bytes — simulation does not care about
    /// payload *content*, only its length on the wire. Payloads up to the
    /// largest IB MTU are views of one shared zero buffer; `emit` copies
    /// them into the wire buffer either way.
    pub fn payload_len(mut self, len: usize) -> Self {
        thread_local! {
            static ZEROS: Bytes = Bytes::from(vec![0u8; 4096]);
        }
        self.payload = ZEROS.with(|zeros| {
            if len <= zeros.len() {
                zeros.slice(..len)
            } else {
                Bytes::from(vec![0u8; len])
            }
        });
        self
    }

    /// Use an explicit payload.
    pub fn payload(mut self, payload: Bytes) -> Self {
        self.payload = payload;
        self
    }

    /// Finish building the frame.
    pub fn build(self) -> RoceFrame {
        RoceFrame {
            eth: EthernetHeader {
                dst: self.dst_mac,
                src: self.src_mac,
                ethertype: EtherType::Ipv4,
            },
            ipv4: Ipv4Header {
                dscp: self.dscp,
                ecn: self.ecn,
                total_len: 0, // recomputed on emit
                identification: 0,
                dont_fragment: true,
                ttl: DEFAULT_TTL,
                protocol: IP_PROTO_UDP,
                src: self.src_ip,
                dst: self.dst_ip,
            },
            udp: UdpHeader {
                src_port: self.src_port,
                dst_port: ROCEV2_UDP_PORT,
                length: 0, // recomputed on emit
                checksum: 0,
            },
            bth: self.bth,
            ext: self.ext,
            payload: self.payload,
        }
    }
}

/// Build an ACK (or NACK, depending on `syndrome`) frame.
pub fn ack_frame(
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    dest_qp: u32,
    psn: u32,
    syndrome: AethSyndrome,
    msn: u32,
) -> RoceFrame {
    DataPacketBuilder::new()
        .src_ip(src_ip)
        .dst_ip(dst_ip)
        .opcode(Opcode::Acknowledge)
        .dest_qp(dest_qp)
        .psn(psn)
        .aeth(Aeth { syndrome, msn })
        .build()
}

/// Build a Go-back-N sequence-error NACK for expected PSN `epsn`.
pub fn nack_frame(
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    dest_qp: u32,
    epsn: u32,
    msn: u32,
) -> RoceFrame {
    ack_frame(
        src_ip,
        dst_ip,
        dest_qp,
        epsn,
        AethSyndrome::Nak(NakCode::PsnSequenceError),
        msn,
    )
}

/// Build a CNP frame from the notification point back to `dest_qp` at the
/// reaction point.
pub fn cnp_frame(src_ip: Ipv4Addr, dst_ip: Ipv4Addr, dest_qp: u32) -> RoceFrame {
    let mut frame = DataPacketBuilder::new()
        .src_ip(src_ip)
        .dst_ip(dst_ip)
        .dscp(CNP_DSCP)
        .ecn(Ecn::NotEct)
        .payload_len(CNP_PAYLOAD_LEN)
        .build();
    frame.bth = cnp_bth(dest_qp);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::icrc_check;

    #[test]
    fn nack_is_seq_err() {
        let f = nack_frame(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            0xfe,
            1005,
            2,
        );
        assert_eq!(f.bth.opcode, Opcode::Acknowledge);
        assert!(f.ext.aeth.unwrap().syndrome.is_seq_err_nak());
        assert_eq!(f.bth.psn, 1005);
    }

    #[test]
    fn cnp_wire_shape() {
        let f = cnp_frame(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 0, 0, 1), 0xfe);
        let wire = f.emit();
        let parsed = RoceFrame::parse(&wire).unwrap();
        assert_eq!(parsed.bth.opcode, Opcode::Cnp);
        assert_eq!(parsed.payload.len(), CNP_PAYLOAD_LEN);
        assert_eq!(parsed.ipv4.dscp, CNP_DSCP);
        assert!(icrc_check(&wire));
    }

    #[test]
    fn builder_sets_all_fields() {
        let f = DataPacketBuilder::new()
            .src_mac(MacAddr::local(5))
            .dst_mac(MacAddr::local(6))
            .src_ip(Ipv4Addr::new(1, 2, 3, 4))
            .dst_ip(Ipv4Addr::new(5, 6, 7, 8))
            .src_port(777)
            .dscp(10)
            .ecn(Ecn::Ect1)
            .opcode(Opcode::SendMiddle)
            .dest_qp(99)
            .psn(12345)
            .ack_req(true)
            .mig_req(false)
            .payload_len(256)
            .build();
        assert_eq!(f.eth.src, MacAddr::local(5));
        assert_eq!(f.ipv4.src, Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(f.udp.src_port, 777);
        assert_eq!(f.ipv4.ecn, Ecn::Ect1);
        assert!(f.bth.ack_req);
        assert!(!f.bth.mig_req);
        assert_eq!(f.payload.len(), 256);
    }
}
