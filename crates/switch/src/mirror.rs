//! Mirror-packet metadata embedding (§3.4 of the paper).
//!
//! Expanding mirrored packets with new headers would overload the mirror
//! ports' bandwidth, so Lumina scavenges header fields that the analysis
//! does not need:
//!
//! | field                | carries                            |
//! |----------------------|------------------------------------|
//! | TTL                  | event type                         |
//! | source MAC           | 48-bit mirror sequence number      |
//! | destination MAC      | 48-bit nanosecond mirror timestamp |
//! | UDP destination port | randomized for dumper RSS          |
//!
//! All rewrites operate on raw frame bytes. The TTL is ICRC-masked and the
//! MACs are outside the ICRC, but the UDP destination port *is* covered —
//! mirrored captures only regain a valid ICRC after the dumper restores the
//! port, which is why restoration happens before traces are written.

use crate::events::EventType;
use lumina_packet::ipv4::header_checksum;
use lumina_packet::udp::ROCEV2_UDP_PORT;
use lumina_packet::MacAddr;
use lumina_sim::SimTime;

const ETH_LEN: usize = 14;
const TTL_OFF: usize = ETH_LEN + 8;
const DPORT_OFF: usize = ETH_LEN + 20 + 2;

/// Decoded metadata recovered from a mirrored packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MirrorMeta {
    /// Global mirror sequence number.
    pub seq: u64,
    /// Ingress timestamp (nanoseconds, 48-bit wrap).
    pub timestamp: SimTime,
    /// Injected event type.
    pub event: EventType,
}

/// Stamp mirror metadata into a frame buffer in place.
pub fn embed(buf: &mut [u8], seq: u64, timestamp: SimTime, event: EventType, rss_dport: Option<u16>) {
    debug_assert!(buf.len() >= ETH_LEN + 20 + 8);
    // Source MAC ← mirror sequence number.
    buf[6..12].copy_from_slice(&MacAddr::from_u48(seq).0);
    // Destination MAC ← timestamp (48-bit ns).
    buf[0..6].copy_from_slice(&MacAddr::from_u48(timestamp.as_nanos() & ((1 << 48) - 1)).0);
    // TTL ← event type, with the IP checksum fixed up so the capture still
    // parses as valid IPv4.
    buf[TTL_OFF] = event.code();
    fix_ip_checksum(buf);
    // UDP destination port ← random, for RSS spreading.
    if let Some(port) = rss_dport {
        buf[DPORT_OFF..DPORT_OFF + 2].copy_from_slice(&port.to_be_bytes());
    }
}

/// Recover metadata from a mirrored frame buffer.
pub fn extract(buf: &[u8]) -> Option<MirrorMeta> {
    if buf.len() < ETH_LEN + 20 + 8 {
        return None;
    }
    let mut dst = [0u8; 6];
    let mut src = [0u8; 6];
    dst.copy_from_slice(&buf[0..6]);
    src.copy_from_slice(&buf[6..12]);
    let event = EventType::from_code(buf[TTL_OFF])?;
    Some(MirrorMeta {
        seq: MacAddr(src).to_u48(),
        timestamp: SimTime::from_nanos(MacAddr(dst).to_u48()),
        event,
    })
}

/// Restore the RoCEv2 UDP destination port (the dumper does this on TERM,
/// before writing traces, §3.4).
pub fn restore_dport(buf: &mut [u8]) {
    if buf.len() >= DPORT_OFF + 2 {
        buf[DPORT_OFF..DPORT_OFF + 2].copy_from_slice(&ROCEV2_UDP_PORT.to_be_bytes());
    }
}

/// Recompute the IPv4 header checksum of a frame in place.
pub fn fix_ip_checksum(buf: &mut [u8]) {
    let ip = buf[ETH_LEN..]
        .first_chunk_mut::<20>()
        .expect("frame holds an IPv4 header");
    let csum = header_checksum(ip);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumina_packet::builder::DataPacketBuilder;
    use lumina_packet::frame::RoceFrame;
    use lumina_packet::opcode::Opcode;

    fn frame_bytes() -> Vec<u8> {
        DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteOnly)
            .psn(77)
            .payload_len(256)
            .build()
            .emit()
            .to_vec()
    }

    #[test]
    fn embed_extract_roundtrip() {
        let mut buf = frame_bytes();
        let ts = SimTime::from_nanos(123_456_789);
        embed(&mut buf, 42, ts, EventType::Drop, Some(31337));
        let meta = extract(&buf).unwrap();
        assert_eq!(meta.seq, 42);
        assert_eq!(meta.timestamp, ts);
        assert_eq!(meta.event, EventType::Drop);
        // The capture still parses (loose: dport was randomized).
        let parsed = RoceFrame::parse_loose(&buf).unwrap();
        assert_eq!(parsed.udp.dst_port, 31337);
        assert_eq!(parsed.bth.psn, 77);
    }

    #[test]
    fn restore_dport_revalidates_icrc() {
        let mut buf = frame_bytes();
        assert!(lumina_packet::frame::icrc_check(&buf));
        embed(&mut buf, 1, SimTime::from_micros(5), EventType::None, Some(9999));
        // Randomized dport breaks the ICRC (it is a covered field)…
        assert!(!lumina_packet::frame::icrc_check(&buf));
        // …and restoring it brings the ICRC back.
        restore_dport(&mut buf);
        assert!(lumina_packet::frame::icrc_check(&buf));
        let parsed = RoceFrame::parse(&buf).unwrap();
        assert_eq!(parsed.udp.dst_port, ROCEV2_UDP_PORT);
    }

    #[test]
    fn ttl_rewrite_keeps_ip_checksum_valid() {
        let mut buf = frame_bytes();
        embed(&mut buf, 7, SimTime::ZERO, EventType::Ecn, None);
        // Ipv4Header::parse validates the checksum; success proves the
        // fix-up worked.
        let parsed = RoceFrame::parse(&buf).unwrap();
        assert_eq!(parsed.ipv4.ttl, EventType::Ecn.code());
    }

    #[test]
    fn large_seq_and_timestamp_wrap_at_48_bits() {
        let mut buf = frame_bytes();
        let big_ts = SimTime::from_nanos((1u64 << 48) + 5);
        embed(&mut buf, (1u64 << 48) - 1, big_ts, EventType::None, None);
        let meta = extract(&buf).unwrap();
        assert_eq!(meta.seq, (1 << 48) - 1);
        assert_eq!(meta.timestamp.as_nanos(), 5); // wrapped
    }
}
