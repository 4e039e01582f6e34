//! Property tests for the ingestion pipeline's degrade-don't-die
//! contract (robustness PR, ingestion satellite): `ingest_reader` must
//! terminate without panicking on *anything* a hostile capture file can
//! contain — pure byte soup, truncated tails, bit-rotted records, lying
//! length fields. The grade on garbage is unspecified; producing one (or
//! a typed `Error::Ingest`) is the contract, and the frame-recovery
//! accounting must stay consistent whenever a grade comes back.
//!
//! And a differential: `ingest_reader` decodes each record once and pushes
//! the decoded entry; the adapters over the same path (`next_record` →
//! `recover_frame` → `StreamingReconstructor::push`, the shape the live
//! run and the benchmark call) must grade a hostile stream identically.

use lumina_core::analyzers::conformance::ConformanceStream;
use lumina_core::{ingest_reader, ConformanceOpts, IngestOutcome, IngestParams};
use lumina_dumper::{
    recover_entry, recover_frame, RecoveryStats, StreamOpts, StreamingReconstructor, Trace,
};
use lumina_packet::builder::DataPacketBuilder;
use lumina_packet::opcode::Opcode;
use lumina_packet::udp::ROCEV2_UDP_PORT;
use lumina_sim::pcap::{PcapReader, PcapRecord, PcapWriter};
use lumina_sim::SimTime;
use lumina_switch::events::EventType;
use lumina_switch::mirror;
use proptest::prelude::*;
use std::io::Cursor;

fn params() -> IngestParams {
    IngestParams {
        // Tiny bounds so even small inputs exercise chunk sealing.
        chunk_entries: 8,
        max_resident_bytes: 2048,
        context: None,
        retain_trace: false,
        progress: false,
    }
}

/// A structurally valid single-NIC capture: `n` data packets in PSN
/// order, written through the real `PcapWriter`.
fn valid_pcap(n: u64, ipsn: u32) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = PcapWriter::new(&mut out, 256).unwrap();
    for i in 0..n {
        let frame = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteMiddle)
            .dest_qp(0x22)
            .psn(ipsn.wrapping_add(i as u32) & 0xff_ffff)
            .payload_len(64)
            .build();
        let bytes = frame.emit();
        w.write_packet(SimTime::from_nanos(i * 1000), &bytes, bytes.len())
            .unwrap();
    }
    w.finish().unwrap();
    out
}

/// Grind one byte buffer through ingestion; panic-free is the property.
fn grind(bytes: &[u8]) {
    match ingest_reader(Cursor::new(bytes), "prop", &params()) {
        Ok(out) => {
            assert!(out.recovery.consistent(), "recovery ledger out of balance");
            assert_eq!(
                out.recovery.frames_seen, out.records,
                "every record must be classified"
            );
            if out.first_malformed.is_some() {
                assert!(!out.pristine());
            }
        }
        Err(e) => {
            // Unreadable header or nothing-degradable: a typed error
            // naming the offset, never a panic.
            let msg = e.to_string();
            assert!(msg.contains("offset"), "untyped ingest failure: {msg}");
        }
    }
}

/// A well-framed capture whose *records* are hostile. Each word of `ops`
/// appends one record; mirror sequence numbers advance unless the word
/// says otherwise.
fn hostile_pcap(ops: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = PcapWriter::new(&mut out, 256).unwrap();
    let mut next_seq = 0u64;
    for &op in ops {
        let arg = (op >> 8) as usize;
        let kind = op % 16;
        let seq = match kind {
            // Duplicate of the previous mirror copy.
            13 => next_seq.saturating_sub(1),
            // Straggler: far enough back that a small window has sealed.
            14 => next_seq.saturating_sub(2 + arg as u64 % 40),
            // A hole in the sequence before this copy.
            15 => next_seq + 1 + arg as u64 % 5,
            _ => next_seq,
        };
        let mut buf = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteMiddle)
            .dest_qp(0x22)
            .psn(seq as u32 & 0xff_ffff)
            .payload_len(1024)
            .build()
            .emit()
            .to_vec();
        // Half the copies still carry the switch's RSS-randomized dport.
        let rss_dport = (op & 0x80 != 0).then_some(0xc000 | arg as u16);
        let ts = SimTime::from_nanos(seq * 100);
        mirror::embed(&mut buf, seq, ts, EventType::None, rss_dport);
        let mut orig_len = buf.len();
        buf.truncate(128);
        match kind {
            // Foreign traffic: an IP fragment (first: MF; later: offset)…
            6 => {
                let later = arg % 2 == 1;
                buf[14 + 6] = if later { 0x00 } else { 0x20 };
                buf[14 + 7] = if later { 185 } else { 0 };
                mirror::fix_ip_checksum(&mut buf);
            }
            // …and an ARP ethertype.
            7 => buf[12..14].copy_from_slice(&[0x08, 0x06]),
            // Rotten: cut inside the headers / IPv4 checksum broken.
            8 => buf.truncate(14 + arg % 40),
            9 => buf[24] ^= 0x5a,
            // TTL is not an event code: a direct capture, not a mirror.
            10 => {
                buf[22] = 0xfe;
                mirror::fix_ip_checksum(&mut buf);
            }
            // The record header claims less than was captured.
            11 => orig_len = arg % 100,
            // Snaplen below the dumper trim, headers intact.
            12 => buf.truncate(80 + arg % 48),
            _ => {}
        }
        if !(6..=10).contains(&kind) {
            next_seq = next_seq.max(seq + 1);
        }
        w.write_packet(ts, &buf, orig_len).unwrap();
    }
    w.finish().unwrap();
    out
}

/// Both sealed nothing, or the same entries.
fn same_chunk(a: &Option<Trace>, b: &Option<Trace>) -> bool {
    a.as_ref().map(|t| &t.entries) == b.as_ref().map(|t| &t.entries)
}

/// The parent commit's `ingest_reader` loop, kept as the reference: every
/// record goes through `next_record`, is copied into a `CapturedPacket` by
/// `recover_frame` and is decoded a second time by `push`. The integrity
/// verdict is the one field taken from `fused` — its constructor is
/// crate-private, and it is a function of the summary, the recovery stats
/// and `first_malformed`, each of which the caller compares.
///
/// Beside the adapters runs the pair the product is built from —
/// `read_record` into one reused record, `recover_entry`, `push_entry` —
/// on a second reader over the same bytes: record for record it must read,
/// judge and seal as the adapters do.
fn via_adapters(bytes: &[u8], params: &IngestParams, fused: &IngestOutcome) -> IngestOutcome {
    let mut pcap = PcapReader::new(bytes).unwrap();
    let mut own_pcap = PcapReader::new(bytes).unwrap();
    let mut own_rec = PcapRecord::default();
    let mut own_recovery = RecoveryStats::default();
    let mut own_recon = StreamingReconstructor::new(StreamOpts {
        chunk_entries: params.chunk_entries,
        max_resident_bytes: params.max_resident_bytes,
    });
    let mut oracle = ConformanceStream::discovering(&ConformanceOpts {
        mtu: 1024,
        ..ConformanceOpts::default()
    });
    let mut recon = StreamingReconstructor::new(StreamOpts {
        chunk_entries: params.chunk_entries,
        max_resident_bytes: params.max_resident_bytes,
    });
    let mut recovery = RecoveryStats::default();
    let mut trace = Trace::default();
    let mut degraded_seen = false;
    let mut feed = |chunk: Trace, damaged: bool, oracle: &mut ConformanceStream| {
        if damaged && !degraded_seen {
            degraded_seen = true;
            oracle.set_degraded();
        }
        oracle.observe_trace(&chunk);
        trace.entries.extend(chunk.entries);
    };
    while let Some(rec) = pcap.next_record() {
        let rec = rec.unwrap();
        assert!(own_pcap.read_record(&mut own_rec).unwrap());
        assert_eq!(rec, own_rec);
        let own_sealed = recover_entry(&own_rec.data, own_rec.orig_len, &mut own_recovery)
            .and_then(|entry| own_recon.push_entry(entry, own_rec.data.len()));
        let sealed = recover_frame(&rec.data, rec.orig_len, rec.ts, &mut recovery)
            .and_then(|p| recon.push(&p));
        assert_eq!(format!("{recovery:?}"), format!("{own_recovery:?}"));
        assert!(same_chunk(&sealed, &own_sealed), "record at {}", rec.offset);
        if let Some(chunk) = sealed {
            feed(chunk, !recon.summary().is_complete(), &mut oracle);
        }
    }
    assert!(!own_pcap.read_record(&mut own_rec).unwrap());
    let (own_tail, own_stream) = own_recon.finish();
    let (tail, stream) = recon.finish();
    assert!(same_chunk(&tail, &own_tail));
    assert_eq!(format!("{stream:?}"), format!("{own_stream:?}"));
    if let Some(chunk) = tail {
        feed(chunk, !stream.is_complete(), &mut oracle);
    }
    if !stream.is_complete() && !degraded_seen {
        oracle.set_degraded();
    }
    IngestOutcome {
        format: pcap.format().label(),
        records: pcap.records(),
        blocks_skipped: pcap.blocks_skipped(),
        recovery,
        stream,
        integrity: fused.integrity.clone(),
        conns_tracked: oracle.conns_tracked(),
        unattributed: oracle.unattributed(),
        conformance: oracle.finish(),
        first_malformed: None,
        trace: Some(trace),
    }
}

/// The generator reaches every class of damage the differential claims to
/// cover (a stream of only well-formed copies would compare equal too).
#[test]
fn hostile_pcap_reaches_every_class() {
    // 38 in-order copies, half with a randomized dport, then one of
    // each hostile kind, the straggler 30 behind.
    let mut ops: Vec<u32> = (0..38).map(|i| (i % 2) * 0x80).collect();
    ops.extend((6..16).map(|kind| kind | 28 << 8));
    let params = IngestParams {
        chunk_entries: 7,
        ..IngestParams::default()
    };
    let out = ingest_reader(Cursor::new(hostile_pcap(&ops)), "prop", &params).unwrap();
    let (r, s) = (&out.recovery, &out.stream);
    for (what, n) in [
        ("foreign", r.non_roce),
        ("rotten", r.unparseable),
        ("no metadata", r.no_mirror_meta),
        ("sub-trim truncation", r.truncated),
        ("dport restored", r.dport_restored),
        ("lying length", r.lying_lengths),
        ("duplicate", s.duplicates),
        ("straggler", s.late),
        ("gap", s.missing),
    ] {
        assert!(n > 0, "no {what} record: {r:?} {s:?}");
    }
    assert_eq!(r.unparseable, 2, "cut headers and a broken checksum");
    assert_eq!(r.non_roce, 2, "an ip fragment and an arp frame");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Pure noise: arbitrary bytes as a "capture file".
    #[test]
    fn byte_soup_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        grind(&bytes);
    }

    /// A valid capture cut off at every possible depth: the readable
    /// prefix must be graded, the cut reported, and nothing panics.
    #[test]
    fn truncation_at_any_offset_never_panics(
        n in 1u64..24,
        ipsn in 0u32..0xff_ffff,
        cut_frac in 0u64..10_000,
    ) {
        let full = valid_pcap(n, ipsn);
        let cut = (full.len() as u64 * cut_frac / 10_000) as usize;
        grind(&full[..cut]);
    }

    /// Bit rot anywhere in a valid capture — including the global header
    /// magic, per-record length words (lying lengths), and frame bytes.
    #[test]
    fn bit_rot_at_any_offset_never_panics(
        n in 1u64..24,
        ipsn in 0u32..0xff_ffff,
        rot_at in 0u64..10_000,
        rot_xor in 1u8..=255,
    ) {
        let mut bytes = valid_pcap(n, ipsn);
        let at = (bytes.len() as u64 * rot_at / 10_000) as usize;
        let at = at.min(bytes.len() - 1);
        bytes[at] ^= rot_xor;
        grind(&bytes);
    }

    /// Several rotten bytes at once, under the tight memory bound.
    #[test]
    fn multi_rot_never_panics(
        n in 1u64..24,
        ipsn in 0u32..0xff_ffff,
        rot_ats in prop::collection::vec(0u64..10_000, 1..8),
        rot_xor in 1u8..=255,
    ) {
        let mut bytes = valid_pcap(n, ipsn);
        for at in rot_ats {
            let at = (bytes.len() as u64 * at / 10_000) as usize;
            let at = at.min(bytes.len() - 1);
            bytes[at] ^= rot_xor;
        }
        grind(&bytes);
    }

    /// Foreign frames, IP fragments, rotten headers, TTLs that are no event code,
    /// RSS-randomized dports, lying `orig_len`, sub-trim truncation,
    /// duplicates, stragglers and gaps, under windows of 1, 7 and 8192:
    /// decoding once and pushing the entry grades exactly as the
    /// copy-and-decode-again adapters do.
    #[test]
    fn fused_path_equals_the_adapters(
        ops in prop::collection::vec(any::<u32>(), 0..160),
        chunk_entries in prop::sample::select(vec![1usize, 7, 8192]),
    ) {
        let bytes = hostile_pcap(&ops);
        let params = IngestParams {
            chunk_entries,
            retain_trace: true,
            ..IngestParams::default()
        };
        let fused = ingest_reader(Cursor::new(&bytes), "prop", &params).unwrap();
        let adapted = via_adapters(&bytes, &params, &fused);

        prop_assert_eq!(fused.records, ops.len() as u64);
        prop_assert!(fused.recovery.consistent());
        prop_assert_eq!(
            format!("{:?}", fused.recovery),
            format!("{:?}", adapted.recovery)
        );
        prop_assert_eq!(
            format!("{:?}", fused.stream),
            format!("{:?}", adapted.stream)
        );
        prop_assert!(fused.first_malformed.is_none());
        let (a, b) = (fused.trace.as_ref().unwrap(), adapted.trace.as_ref().unwrap());
        prop_assert_eq!(a.len() as u64, fused.stream.entries);
        prop_assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            prop_assert!(x == y, "entry {i}: fused {x:?}\nvia adapters {y:?}");
            prop_assert_eq!(x.frame.udp.dst_port, ROCEV2_UDP_PORT);
        }
        prop_assert_eq!(
            serde_json::to_string(&fused.report_json().unwrap()).unwrap(),
            serde_json::to_string(&adapted.report_json().unwrap()).unwrap()
        );
    }
}
