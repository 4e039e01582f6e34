//! Offline ingestion: recovering mirrored captures from foreign pcap bytes.
//!
//! The reconstructor ([`crate::trace`]) assumes its input is a
//! `CapturedPacket` buffer a dumper produced. Real captures arrive as raw
//! Ethernet frames from a pcap file: the UDP destination port may still
//! carry the switch's RSS randomization, non-RoCE traffic is interleaved,
//! snaplen truncation is routine, and header length fields lie. This
//! module is the hardening layer between the two worlds: [`recover_entry`]
//! maps one raw frame to the [`TraceEntry`] it decodes to, classifying
//! every rejection into a [`RecoveryStats`] counter instead of failing —
//! foreign traffic, rotten RoCE headers, and missing mirror metadata are
//! all just counters. [`recover_frame`] is the same judgement handed back
//! as the [`CapturedPacket`] a dumper would have produced.

// A panic here forfeits a verdict or a whole campaign.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::trace::{decode, CaptureBytes, CapturedPacket, TraceEntry, TRIM_LEN};
use lumina_packet::udp::ROCEV2_UDP_PORT;
use lumina_sim::SimTime;
use lumina_switch::mirror;
use serde::Serialize;

/// Where every ingested frame ended up. The classification is exhaustive:
/// `frames_seen == recovered + non_roce + unparseable + no_mirror_meta`
/// always holds, so nothing is silently dropped.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RecoveryStats {
    /// Frames offered to [`recover_entry`].
    pub frames_seen: u64,
    /// Capture bytes offered (post-snaplen, as stored in the file).
    pub bytes_seen: u64,
    /// Frames successfully mapped to [`TraceEntry`]s.
    pub recovered: u64,
    /// Frames that are simply foreign traffic (wrong ethertype/protocol).
    pub non_roce: u64,
    /// Frames that look like RoCEv2 but whose headers did not parse.
    pub unparseable: u64,
    /// Frames that parsed but carry no valid mirror metadata (TTL is not
    /// an event code) — a direct capture, not a Lumina mirror.
    pub no_mirror_meta: u64,
    /// Recovered frames shorter than both their wire length and the
    /// dumper trim — abnormal snaplen truncation.
    pub truncated: u64,
    /// Recovered frames whose UDP destination port still carried the RSS
    /// randomization and was restored to 4791.
    pub dport_restored: u64,
    /// Frames whose header claimed an original length *smaller* than the
    /// bytes actually captured (a lying length field).
    pub lying_lengths: u64,
}

impl RecoveryStats {
    /// The exhaustiveness invariant the proptest suite pins down.
    pub fn consistent(&self) -> bool {
        self.frames_seen
            == self.recovered + self.non_roce + self.unparseable + self.no_mirror_meta
    }
}

/// Decode one raw captured frame into its [`TraceEntry`], or classify why
/// it cannot be. Total: every input increments exactly one of `recovered`
/// / `non_roce` / `unparseable` / `no_mirror_meta`. The entry's frame has
/// the RoCEv2 destination port restored and its `orig_len` is the wire
/// length the bytes support. Inlined across the crate boundary so the
/// 128-byte entry is built where the caller wants it (4 % of `ingest`).
#[inline]
pub fn recover_entry(data: &[u8], orig_len: u32, stats: &mut RecoveryStats) -> Option<TraceEntry> {
    stats.frames_seen += 1;
    stats.bytes_seen += data.len() as u64;
    let (mut frame, meta) = match decode(data) {
        (Ok(frame), Some(meta)) => (frame, meta),
        (Err(e), _) if e.is_foreign() => {
            stats.non_roce += 1;
            return None;
        }
        (Err(_), _) => {
            stats.unparseable += 1;
            return None;
        }
        (Ok(_), None) => {
            stats.no_mirror_meta += 1;
            return None;
        }
    };
    // The switch randomizes the UDP destination port for dumper RSS; a
    // capture taken upstream of the dumper's restore still carries it.
    if frame.udp.dst_port != ROCEV2_UDP_PORT {
        frame.udp.dst_port = ROCEV2_UDP_PORT;
        stats.dport_restored += 1;
    }
    // Length bookkeeping: a header may claim less than was captured (a
    // lie — trust the bytes) or more (normal trimming).
    // A pcap record's captured length is a `u32` too.
    let captured = u32::try_from(data.len()).unwrap_or(u32::MAX);
    if orig_len < captured {
        stats.lying_lengths += 1;
    }
    let wire_len = orig_len.max(captured);
    if captured < wire_len && data.len() < TRIM_LEN {
        stats.truncated += 1;
    }
    stats.recovered += 1;
    Some(TraceEntry::new(frame, meta, wire_len))
}

/// [`recover_entry`], handed back as the [`CapturedPacket`] a dumper would
/// have stored: the capture's first [`TRIM_LEN`] bytes with the destination
/// port restored.
pub fn recover_frame(
    data: &[u8],
    orig_len: u32,
    ts: SimTime,
    stats: &mut RecoveryStats,
) -> Option<CapturedPacket> {
    let entry = recover_entry(data, orig_len, stats)?;
    let mut bytes = CaptureBytes::from(data);
    mirror::restore_dport(&mut bytes);
    Some(CapturedPacket {
        rx_time: ts,
        orig_len: entry.orig_len,
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{GapSpan, StreamOpts, StreamingReconstructor, Trace};
    use lumina_packet::builder::DataPacketBuilder;
    use lumina_packet::opcode::Opcode;
    use lumina_switch::events::EventType;

    /// Offset of the UDP destination port in an Ethernet/IPv4/UDP frame.
    const DPORT_OFF: usize = 14 + 20 + 2;

    /// A raw mirrored frame as a capture file would hold it: metadata
    /// embedded, dport randomized, trimmed to 128 bytes.
    fn raw_mirror(seq: u64, ts_ns: u64, dport: Option<u16>) -> (Vec<u8>, u32) {
        let mut buf = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteMiddle)
            .psn(seq as u32)
            .payload_len(1024)
            .build()
            .emit()
            .to_vec();
        mirror::embed(&mut buf, seq, SimTime::from_nanos(ts_ns), EventType::None, dport);
        let orig_len = buf.len() as u32;
        buf.truncate(TRIM_LEN);
        (buf, orig_len)
    }

    #[test]
    fn recovers_mirrored_frame_and_restores_dport() {
        let mut st = RecoveryStats::default();
        let (buf, orig_len) = raw_mirror(7, 700, Some(31337));
        let p = recover_frame(&buf, orig_len, SimTime::from_nanos(1), &mut st).unwrap();
        assert_eq!(st.recovered, 1);
        assert_eq!(st.dport_restored, 1);
        assert_eq!(p.orig_len, orig_len);
        let dport = u16::from_be_bytes([p.bytes[DPORT_OFF], p.bytes[DPORT_OFF + 1]]);
        assert_eq!(dport, ROCEV2_UDP_PORT);
        assert!(st.consistent());
    }

    #[test]
    fn classifies_foreign_and_rotten_frames() {
        let mut st = RecoveryStats::default();
        // Foreign: valid-looking Ethernet with a non-IPv4 ethertype.
        let mut arp = vec![0u8; 64];
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert!(recover_frame(&arp, 64, SimTime::ZERO, &mut st).is_none());
        assert_eq!(st.non_roce, 1);
        // Rotten: a real mirror frame cut below the BTH.
        let (buf, orig_len) = raw_mirror(0, 0, None);
        assert!(recover_frame(&buf[..30], orig_len, SimTime::ZERO, &mut st).is_none());
        assert_eq!(st.unparseable, 1);
        // No metadata: zero out the TTL event code on a parsed frame.
        let (mut buf2, orig2) = raw_mirror(1, 100, None);
        buf2[22] = 0xfe;
        mirror::fix_ip_checksum(&mut buf2);
        assert!(recover_frame(&buf2, orig2, SimTime::ZERO, &mut st).is_none());
        assert_eq!(st.no_mirror_meta, 1);
        assert!(st.consistent());
    }

    #[test]
    fn ip_fragments_are_foreign_not_rotten() {
        let mut st = RecoveryStats::default();
        // A first fragment (MF set) and a later one (offset only), each of
        // a frame that would otherwise be recovered: what follows the IP
        // header of a later fragment is payload, not UDP + BTH.
        for (flags, offset_lo) in [(0x20, 0), (0x00, 185)] {
            let (mut buf, orig_len) = raw_mirror(4, 400, None);
            buf[14 + 6] = flags;
            buf[14 + 7] = offset_lo;
            mirror::fix_ip_checksum(&mut buf);
            assert!(recover_frame(&buf, orig_len, SimTime::ZERO, &mut st).is_none());
        }
        assert_eq!(st.non_roce, 2);
        assert_eq!(st.unparseable + st.no_mirror_meta + st.recovered, 0);
        assert!(st.consistent());
    }

    #[test]
    fn lying_orig_len_trusts_the_bytes() {
        let mut st = RecoveryStats::default();
        let (buf, _) = raw_mirror(2, 200, None);
        let p = recover_frame(&buf, 10, SimTime::ZERO, &mut st).unwrap();
        assert_eq!(st.lying_lengths, 1);
        assert_eq!(p.orig_len as usize, buf.len());
    }

    #[test]
    fn abnormal_truncation_detected() {
        let mut st = RecoveryStats::default();
        let (buf, orig_len) = raw_mirror(3, 300, None);
        // Cut below the trim but above the headers: parses, but truncated.
        let cut = &buf[..80];
        assert!(recover_frame(cut, orig_len, SimTime::ZERO, &mut st).is_some());
        assert_eq!(st.truncated, 1);
        // The normal dumper trim (128 of a larger wire frame) is NOT
        // abnormal truncation.
        assert!(recover_frame(&buf, orig_len, SimTime::ZERO, &mut st).is_some());
        assert_eq!(st.truncated, 1);
    }

    // The recovered packets' next stop: the reconstructor, windowed.

    fn captured(seq: u64) -> CapturedPacket {
        let (bytes, orig_len) = raw_mirror(seq, seq * 100, None);
        CapturedPacket {
            rx_time: SimTime::from_nanos(seq * 100),
            orig_len,
            bytes: bytes.as_slice().into(),
        }
    }

    #[test]
    fn streaming_matches_batch_on_pristine_input() {
        let mut s = StreamingReconstructor::new(StreamOpts {
            chunk_entries: 4,
            ..StreamOpts::default()
        });
        let mut chunks = Vec::new();
        for seq in 0..10 {
            if let Some(c) = s.push(&captured(seq)) {
                chunks.push(c);
            }
        }
        let (tail, summary) = s.finish();
        chunks.extend(tail);
        assert_eq!(chunks.len(), 3, "4 + 4 + 2");
        let seqs: Vec<u64> = chunks.iter().flat_map(|c| c.iter().map(|e| e.seq)).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        assert!(summary.is_complete());
        assert_eq!(summary.entries, 10);
        assert_eq!(summary.chunks, 3);
        assert_eq!(summary.analyzable_fraction(), 1.0);
    }

    #[test]
    fn streaming_counts_gaps_duplicates_and_stragglers() {
        let mut s = StreamingReconstructor::new(StreamOpts {
            chunk_entries: 3,
            ..StreamOpts::default()
        });
        // Chunk 1: 0, 2, 2 (gap at 1, one duplicate).
        for seq in [0, 2, 2] {
            s.push(&captured(seq));
        }
        // Straggler: seq 1 arrives after its window sealed.
        assert!(s.push(&captured(1)).is_none());
        // Rotten capture.
        let mut rotten = captured(5);
        rotten.bytes.truncate(8);
        assert!(s.push(&rotten).is_none());
        let (_, summary) = s.finish();
        assert_eq!(summary.duplicates, 1);
        assert_eq!(summary.late, 1);
        assert_eq!(summary.bad_captures, 1);
        assert_eq!(summary.gaps, vec![GapSpan { start: 1, len: 1 }]);
        assert_eq!(summary.missing, 1);
        assert!(!summary.is_complete());
    }

    #[test]
    fn recycled_chunk_buffer_carries_the_next_window() {
        let mut s = StreamingReconstructor::new(StreamOpts {
            chunk_entries: 4,
            ..StreamOpts::default()
        });
        let mut st = RecoveryStats::default();
        let mut push = |s: &mut StreamingReconstructor, seq| {
            let (buf, orig_len) = raw_mirror(seq, seq * 100, Some(40_000));
            let entry = recover_entry(&buf, orig_len, &mut st).unwrap();
            assert_eq!(entry.frame.udp.dst_port, ROCEV2_UDP_PORT);
            s.push_entry(entry, buf.len())
        };
        let first = (0..4).filter_map(|seq| push(&mut s, seq)).next().unwrap();
        let buffer = first.entries.as_ptr();
        s.recycle(first);
        assert!(push(&mut s, 4).is_none());
        // A hand-back in the middle of a window must not replace it.
        s.recycle(Trace::default());
        let second = (5..8).filter_map(|seq| push(&mut s, seq)).next().unwrap();
        let seqs: Vec<u64> = second.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6, 7]);
        assert_eq!(second.entries.as_ptr(), buffer, "no regrowth");
        assert!(s.finish().1.is_complete());
    }

    #[test]
    fn memory_bound_seals_chunks() {
        let mut s = StreamingReconstructor::new(StreamOpts {
            chunk_entries: usize::MAX,
            max_resident_bytes: 1, // seal after every entry
        });
        let mut sealed = 0;
        for seq in 0..5 {
            if s.push(&captured(seq)).is_some() {
                sealed += 1;
            }
        }
        let (tail, summary) = s.finish();
        assert_eq!(sealed, 5);
        assert!(tail.is_none());
        assert!(summary.peak_resident_bytes > 0);
        assert!(summary.is_complete());
    }
}
