//! Real-trace ingestion: pcap → recovery → streaming reconstruction →
//! conformance grading, under a degrade-don't-die contract.
//!
//! The live pipeline trusts its own capture buffers; this one trusts
//! nothing. A capture file from the field interleaves foreign traffic,
//! truncates frames at an arbitrary snaplen, lies in its length fields,
//! and may simply stop mid-record. Every layer of this pipeline turns
//! such damage into *counters and a partial verdict* rather than a
//! failure:
//!
//! * [`lumina_sim::pcap::PcapReader`] reads classic pcap and pcapng,
//!   both endiannesses, and reports the first structural error with its
//!   byte offset instead of panicking;
//! * [`lumina_dumper::recover_entry`] classifies every frame (foreign /
//!   rotten / metadata-less / recovered) into [`RecoveryStats`] and
//!   decodes the recovered ones, once;
//! * [`lumina_dumper::StreamingReconstructor`] windows the decoded
//!   entries under a configurable memory bound so multi-gigabyte captures
//!   flow through in chunks;
//! * [`ConformanceStream`] replays the RC reference FSM over the chunks
//!   in discovery mode — connections are learned from the wire, and the
//!   verdict flips to *partial* the moment the evidence degrades. The same
//!   replay breaks down each retransmission and tallies CNPs and CE marks,
//!   the §6 sections a run's report carries.
//!
//! The only hard failure is a capture with nothing to degrade into: an
//! unreadable header, or a first record already malformed. That is
//! [`Error::Ingest`] (exit code 10), carrying the byte offset of the
//! first malformed structure.

// A panic here forfeits a verdict or a whole campaign.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::analyzers::conformance::{ConformanceOpts, ConformanceReport, ConformanceStream};
use crate::analyzers::ReplayViews;
use crate::config::TestConfig;
use crate::error::Error;
use crate::integrity::{DegradedMode, IntegrityReport};
use crate::orchestrator::section;
use crate::report::{line, note, render_retransmissions};
use crate::translate::ConnMeta;
use lumina_dumper::{
    recover_entry, RecoveryStats, StreamOpts, StreamSummary, StreamingReconstructor, Trace,
};
use lumina_sim::pcap::PcapReader;
use lumina_sim::telemetry::ops::{OpsReporter, OpsSnapshot};
use std::io::Read;
use std::time::Duration;

/// Tuning and context for one ingestion pass.
#[derive(Debug, Clone)]
pub struct IngestParams {
    /// Seal a reconstruction chunk after this many entries.
    pub chunk_entries: usize,
    /// Seal a chunk once its resident entries exceed this many bytes —
    /// the memory bound that lets arbitrarily large captures flow.
    pub max_resident_bytes: usize,
    /// The test configuration the capture came from, when known: supplies
    /// the DCQCN notification-point flags and the MTU to the oracle.
    /// Without it the oracle runs with CNP checks disabled (it cannot
    /// know whether a missing CNP is a bug or a disabled feature).
    pub context: Option<TestConfig>,
    /// Keep the merged trace in the outcome (unbounded memory — test and
    /// debugging use only).
    pub retain_trace: bool,
    /// Emit low-rate progress heartbeats to stderr while ingesting.
    pub progress: bool,
}

impl Default for IngestParams {
    fn default() -> IngestParams {
        let stream = StreamOpts::default();
        IngestParams {
            chunk_entries: stream.chunk_entries,
            max_resident_bytes: stream.max_resident_bytes,
            context: None,
            retain_trace: false,
            progress: false,
        }
    }
}

/// Everything one ingestion pass learned about a capture.
#[derive(Debug)]
pub struct IngestOutcome {
    /// Container format of the file ("pcap" or "pcapng").
    pub format: &'static str,
    /// pcap records read from the file.
    pub records: u64,
    /// pcapng blocks skipped as unknown types.
    pub blocks_skipped: u64,
    /// Where every frame ended up (foreign / rotten / recovered).
    pub recovery: RecoveryStats,
    /// Chunked-reconstruction damage accounting.
    pub stream: StreamSummary,
    /// The §3.5-style integrity verdict over the recovered sequence.
    pub integrity: IntegrityReport,
    /// The conformance oracle's verdict, graded in discovery mode.
    pub conformance: ConformanceReport,
    /// The views of the same replay; a discovered connection keeps at most
    /// [`MAX_LOSS_RECORDS`](crate::analyzers::conformance::MAX_LOSS_RECORDS)
    /// losses.
    pub views: ReplayViews,
    /// Connections discovery mode learned from the wire, in index order.
    pub conns: Vec<ConnMeta>,
    /// Packets no discovered connection would claim.
    pub unattributed: u64,
    /// Offset and description of the first malformed pcap structure;
    /// reading stopped there and the verdict covers the prefix.
    pub first_malformed: Option<(u64, String)>,
    /// The merged trace, when [`IngestParams::retain_trace`] was set.
    pub trace: Option<Trace>,
}

impl IngestOutcome {
    /// The overall grade is trustworthy end to end: the file was fully
    /// readable, every recovered packet analyzable, the verdict whole.
    pub fn pristine(&self) -> bool {
        self.integrity.passed() && self.first_malformed.is_none()
    }

    /// Machine-readable report. Deterministic: no wall-clock readings,
    /// maps in insertion order.
    pub fn report_json(&self) -> Result<serde_json::Value, Error> {
        let mut root = serde_json::Map::new();
        root.insert("format", serde_json::Value::from(self.format));
        root.insert("records", serde_json::Value::from(self.records));
        root.insert(
            "blocks_skipped",
            serde_json::Value::from(self.blocks_skipped),
        );
        root.insert("recovery", section("recovery stats", &self.recovery)?);
        root.insert("stream", section("stream summary", &self.stream)?);
        root.insert("integrity", section("integrity report", &self.integrity)?);
        root.insert(
            "conformance",
            section("conformance report", &self.conformance)?,
        );
        let views = &self.views;
        root.insert(
            "retransmissions",
            section("retransmissions", &views.retransmissions)?,
        );
        root.insert("cnp_total", serde_json::Value::from(views.cnp_total));
        root.insert("ce_marked", serde_json::Value::from(views.ce_marked));
        root.insert(
            "conns_tracked",
            serde_json::Value::from(self.conns.len() as u64),
        );
        root.insert("unattributed", serde_json::Value::from(self.unattributed));
        root.insert(
            "first_malformed",
            match &self.first_malformed {
                None => serde_json::Value::Null,
                Some((offset, msg)) => {
                    let mut m = serde_json::Map::new();
                    m.insert("offset", serde_json::Value::from(*offset));
                    m.insert("error", serde_json::Value::from(msg.as_str()));
                    serde_json::Value::Object(m)
                }
            },
        );
        Ok(serde_json::Value::Object(root))
    }

    /// The human-readable report, in the CLI's aligned-table style.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        line(&mut out, "format", self.format.to_string());
        line(
            &mut out,
            "records",
            match self.blocks_skipped {
                0 => format!("{}", self.records),
                n => format!("{} ({n} unknown blocks skipped)", self.records),
            },
        );
        let r = &self.recovery;
        line(
            &mut out,
            "frames",
            format!(
                "{} seen, {} recovered, {} foreign, {} rotten, {} no-metadata",
                r.frames_seen, r.recovered, r.non_roce, r.unparseable, r.no_mirror_meta
            ),
        );
        if r.truncated + r.dport_restored + r.lying_lengths > 0 {
            line(
                &mut out,
                "frame repairs",
                format!(
                    "{} truncated, {} dports restored, {} lying lengths",
                    r.truncated, r.dport_restored, r.lying_lengths
                ),
            );
        }
        line(
            &mut out,
            "reconstruction",
            format!(
                "{} entries in {} chunks, peak window {} bytes",
                self.stream.entries, self.stream.chunks, self.stream.peak_resident_bytes
            ),
        );
        line(
            &mut out,
            "integrity",
            self.integrity.status_line(self.stream.gap_spans_total),
        );
        for d in &self.integrity.details {
            note(&mut out, d);
        }
        if let Some((offset, msg)) = &self.first_malformed {
            note(
                &mut out,
                format_args!("capture unreadable past offset {offset}: {msg}"),
            );
        }
        line(
            &mut out,
            "connections",
            match self.unattributed {
                0 => format!("{} discovered", self.conns.len()),
                n => format!("{} discovered, {n} packets unattributed", self.conns.len()),
            },
        );
        let views = &self.views;
        render_retransmissions(&mut out, &views.retransmissions);
        line(
            &mut out,
            "congestion",
            format_args!(
                "{} CNPs, {} CE-marked packets",
                views.cnp_total, views.ce_marked
            ),
        );
        out.push_str(&self.conformance.render_human());
        out
    }
}

/// Ingest a capture file from disk. See [`ingest_reader`].
pub fn ingest_path(path: &str, params: &IngestParams) -> Result<IngestOutcome, Error> {
    let file = std::fs::File::open(path).map_err(Error::io(path))?;
    // The file itself: `PcapReader` reads it a 64 KiB block at a time.
    ingest_reader(file, path, params)
}

/// Feed a capture through recovery, streaming reconstruction and the
/// conformance oracle.
///
/// Degrade-don't-die: a malformed record mid-file stops reading and
/// grades the prefix (the offset lands in
/// [`IngestOutcome::first_malformed`] and the verdict goes partial).
/// Only a capture that yields *nothing* — unreadable header, or the very
/// first record malformed — is an [`Error::Ingest`], because there is
/// nothing to degrade into. `label` names the source in errors (the file
/// path, for [`ingest_path`]).
pub fn ingest_reader<R: Read>(
    reader: R,
    label: &str,
    params: &IngestParams,
) -> Result<IngestOutcome, Error> {
    let mut pcap = PcapReader::new(reader).map_err(|e| Error::Ingest {
        path: label.to_string(),
        offset: e.offset,
        // The kind alone: the offset travels beside it.
        msg: e.kind.to_string(),
    })?;
    let format = pcap.format().label();

    let c_opts = conformance_opts(params);
    let mut oracle = ConformanceStream::discovering(&c_opts);
    let mut recon = StreamingReconstructor::new(StreamOpts {
        chunk_entries: params.chunk_entries,
        max_resident_bytes: params.max_resident_bytes,
    });
    let mut recovery = RecoveryStats::default();
    let mut first_malformed: Option<(u64, String)> = None;
    let mut retained: Option<Trace> = params.retain_trace.then(Trace::default);
    let mut degraded_seen = false;
    let mut ops = params
        .progress
        .then(|| OpsReporter::new(std::io::stderr(), Duration::from_secs(1)));

    // One closure per sealed chunk: flip the oracle to degraded the
    // moment the reconstructor has seen damage (its summary is current
    // when a chunk is returned — gaps merge during sealing), then replay.
    let feed = |chunk: &mut Trace,
                recon_damaged: bool,
                oracle: &mut ConformanceStream,
                degraded_seen: &mut bool,
                retained: &mut Option<Trace>| {
        if recon_damaged && !*degraded_seen {
            *degraded_seen = true;
            oracle.set_degraded();
        }
        oracle.observe_trace(chunk);
        if let Some(t) = retained {
            t.entries.append(&mut chunk.entries);
        }
    };

    // Per record: decoded where the reader's block holds it, one push;
    // no copy of the capture, no allocation and (ops heartbeat included)
    // no clock read.
    loop {
        let rec = match pcap.next_view() {
            Ok(Some(rec)) => rec,
            Ok(None) => break,
            Err(e) => {
                // The reader latches done after its first error; grade
                // whatever preceded it.
                first_malformed = Some((e.offset, e.kind.to_string()));
                break;
            }
        };
        if let Some(entry) = recover_entry(rec.data, rec.orig_len, &mut recovery) {
            if let Some(mut chunk) = recon.push_entry(entry, rec.data.len()) {
                feed(
                    &mut chunk,
                    !recon.summary().is_complete(),
                    &mut oracle,
                    &mut degraded_seen,
                    &mut retained,
                );
                recon.recycle(chunk);
            }
        }
        if let Some(ops) = &mut ops {
            ops.tick(|| ops_snapshot(&recovery, recon.summary()));
        }
    }
    let records = pcap.records();
    let blocks_skipped = pcap.blocks_skipped();

    if records == 0 {
        if let Some((offset, msg)) = first_malformed {
            // Nothing was readable: this is not a degraded capture, it
            // is an unreadable one.
            return Err(Error::Ingest {
                path: label.to_string(),
                offset,
                msg,
            });
        }
    }

    let (tail, summary) = recon.finish();
    if let Some(mut chunk) = tail {
        feed(
            &mut chunk,
            !summary.is_complete(),
            &mut oracle,
            &mut degraded_seen,
            &mut retained,
        );
    }

    let integrity = integrity_from(&summary, &recovery, first_malformed.is_some());
    if !integrity.passed() && !degraded_seen {
        oracle.set_degraded();
    }
    let conns = oracle.conns().copied().collect();
    let unattributed = oracle.unattributed();
    let (conformance, views) = oracle.finish_views();

    if let Some(ops) = &mut ops {
        ops.finish(ops_snapshot(&recovery, &summary));
    }

    Ok(IngestOutcome {
        format,
        records,
        blocks_skipped,
        recovery,
        stream: summary,
        integrity,
        conformance,
        views,
        conns,
        unattributed,
        first_malformed,
        trace: retained,
    })
}

/// Oracle options for an offline capture: NP flags and MTU from the
/// context config when given; receiver-side ICRC drops are unknowable
/// offline, so the ICRC-miscompute check never fires.
fn conformance_opts(params: &IngestParams) -> ConformanceOpts {
    let cfg = params.context.as_ref();
    ConformanceOpts {
        np_enabled_requester: cfg.is_some_and(|c| c.requester.dcqcn_np_enable),
        np_enabled_responder: cfg.is_some_and(|c| c.responder.dcqcn_np_enable),
        mtu: cfg.map_or(1024, |c| c.traffic.mtu),
        ..ConformanceOpts::default()
    }
}

/// Progress counters for the stderr heartbeat.
fn ops_snapshot(recovery: &RecoveryStats, stream: &StreamSummary) -> OpsSnapshot {
    OpsSnapshot {
        frames_seen: recovery.frames_seen,
        frames_skipped: recovery.non_roce + recovery.unparseable + recovery.no_mirror_meta,
        frames_truncated: recovery.truncated,
        bytes_seen: recovery.bytes_seen,
        peak_resident_bytes: stream.peak_resident_bytes as u64,
    }
}

/// The offline analogue of [`crate::integrity::check`]: condition 1
/// comes from the streamed summary exactly as in a live run; conditions
/// 2–3 compare against injector counters that do not exist offline, so
/// they hold vacuously. A short read (malformed tail) fails condition 1
/// too — the sequence beyond the damage is unknown.
fn integrity_from(
    summary: &StreamSummary,
    recovery: &RecoveryStats,
    short_read: bool,
) -> IntegrityReport {
    let mut report = IntegrityReport::from_summary(summary);
    if recovery.unparseable > 0 {
        report.details.push(format!(
            "{} RoCE frames with rotten headers skipped",
            recovery.unparseable
        ));
    }
    if short_read {
        report.seq_consecutive = false;
        report
            .details
            .push("capture unreadable past the first malformed record".to_string());
        report
            .degraded
            .get_or_insert_with(|| DegradedMode::of(summary));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumina_dumper::TRIM_LEN;
    use lumina_packet::builder::DataPacketBuilder;
    use lumina_packet::opcode::Opcode;
    use lumina_sim::pcap::PcapWriter;
    use lumina_sim::SimTime;
    use lumina_switch::events::EventType;
    use lumina_switch::mirror;

    /// A well-formed capture file holding `n` mirrored write packets.
    fn mirror_pcap(n: u64) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new(), TRIM_LEN as u32).unwrap();
        for seq in 0..n {
            let mut buf = DataPacketBuilder::new()
                .opcode(Opcode::RdmaWriteOnly)
                .psn(seq as u32)
                .payload_len(32)
                .build()
                .emit()
                .to_vec();
            mirror::embed(
                &mut buf,
                seq,
                SimTime::from_nanos(seq * 100),
                EventType::None,
                None,
            );
            let orig = buf.len();
            buf.truncate(TRIM_LEN);
            w.write_packet(SimTime::from_nanos(seq * 100), &buf, orig)
                .unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn pristine_capture_ingests_clean() {
        let bytes = mirror_pcap(8);
        let out = ingest_reader(&bytes[..], "test.pcap", &IngestParams::default()).unwrap();
        assert_eq!(out.format, "pcap");
        assert_eq!(out.records, 8);
        assert_eq!(out.recovery.recovered, 8);
        assert!(out.pristine(), "{out:?}");
        assert!(out.integrity.passed());
        assert!(out.first_malformed.is_none());
        assert_eq!(out.conns.len(), 1, "one write flow discovered");
    }

    #[test]
    fn garbage_header_is_an_ingest_error() {
        let err = ingest_reader(
            &b"not a capture at all"[..],
            "junk.bin",
            &IngestParams::default(),
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 10);
        let s = err.to_string();
        assert!(s.contains("junk.bin"), "{s}");
        assert!(s.contains("offset 0"), "{s}");
    }

    #[test]
    fn truncated_tail_degrades_instead_of_dying() {
        let mut bytes = mirror_pcap(6);
        // Chop the file mid-way through the last record's data.
        bytes.truncate(bytes.len() - 40);
        let out = ingest_reader(&bytes[..], "cut.pcap", &IngestParams::default()).unwrap();
        assert_eq!(out.recovery.recovered, 5, "prefix graded");
        let (offset, msg) = out.first_malformed.expect("damage reported");
        assert!(
            offset > 24,
            "offset {offset} points at a record, not the header"
        );
        assert!(msg.contains("file ends inside"), "{msg}");
        assert!(!out.integrity.passed());
        assert!(out.integrity.degraded.is_some());
        assert!(out.conformance.partial, "verdict marked partial");
    }

    #[test]
    fn first_record_malformed_is_an_ingest_error_with_offset() {
        let mut bytes = mirror_pcap(1);
        bytes.truncate(30); // inside the first record header
        let err = ingest_reader(&bytes[..], "stub.pcap", &IngestParams::default()).unwrap_err();
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains("offset 24"), "{err}");
    }

    #[test]
    fn retained_trace_matches_record_order() {
        let bytes = mirror_pcap(5);
        let params = IngestParams {
            retain_trace: true,
            chunk_entries: 2, // several chunks
            ..IngestParams::default()
        };
        let out = ingest_reader(&bytes[..], "t.pcap", &params).unwrap();
        let trace = out.trace.expect("retained");
        let seqs: Vec<u64> = trace.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.stream.chunks, 3, "2 + 2 + 1");
    }

    #[test]
    fn memory_bound_is_respected() {
        let bytes = mirror_pcap(32);
        let params = IngestParams {
            max_resident_bytes: 1024,
            ..IngestParams::default()
        };
        let out = ingest_reader(&bytes[..], "t.pcap", &params).unwrap();
        assert!(
            out.stream.chunks > 1,
            "bound forced sealing: {:?}",
            out.stream
        );
        assert!(out.stream.peak_resident_bytes <= 2048, "{:?}", out.stream);
        assert!(out.integrity.passed(), "chunking alone never degrades");
    }

    /// The peak window counts each resident entry at its in-memory size
    /// plus the bytes its capture held, in the summary and in both
    /// renderings: 4 entries of 128 bytes, each decoded from a whole
    /// 90-byte frame.
    #[test]
    fn peak_window_is_entries_at_their_size_plus_their_captures() {
        let bytes = mirror_pcap(10);
        let mut reader = PcapReader::new(&bytes[..]).unwrap();
        let captured = reader.next_record().unwrap().unwrap().data.len();
        let params = IngestParams {
            chunk_entries: 4,
            ..IngestParams::default()
        };
        let out = ingest_reader(&bytes[..], "t.pcap", &params).unwrap();
        let entry = std::mem::size_of::<lumina_dumper::TraceEntry>();
        let window = 4 * (entry + captured);
        assert_eq!((entry, captured, window), (128, 90, 872));
        assert_eq!(out.stream.peak_resident_bytes, window);
        let json = out.report_json().unwrap();
        assert_eq!(json["stream"]["peak_resident_bytes"], window as u64);
        let human = out.render_human();
        assert!(
            human.contains("in 3 chunks, peak window 872 bytes"),
            "{human}"
        );
    }

    #[test]
    fn foreign_traffic_is_counted_not_fatal() {
        let mut w = PcapWriter::new(Vec::new(), 256).unwrap();
        // An ARP-ish frame, then a real mirror packet.
        let mut arp = vec![0u8; 60];
        arp[12] = 0x08;
        arp[13] = 0x06;
        w.write_packet(SimTime::ZERO, &arp, 60).unwrap();
        let mut buf = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteOnly)
            .psn(0)
            .payload_len(32)
            .build()
            .emit()
            .to_vec();
        mirror::embed(&mut buf, 0, SimTime::from_nanos(5), EventType::None, None);
        let orig = buf.len();
        w.write_packet(SimTime::from_nanos(5), &buf, orig).unwrap();
        let bytes = w.finish().unwrap();

        let out = ingest_reader(&bytes[..], "mixed.pcap", &IngestParams::default()).unwrap();
        assert_eq!(out.recovery.non_roce, 1);
        assert_eq!(out.recovery.recovered, 1);
        assert!(out.recovery.consistent());
        assert!(
            out.integrity.passed(),
            "foreign frames are skips, not damage"
        );
    }

    #[test]
    fn report_json_is_deterministic_and_complete() {
        let bytes = mirror_pcap(3);
        let out = ingest_reader(&bytes[..], "t.pcap", &IngestParams::default()).unwrap();
        let a = serde_json::to_string(&out.report_json().unwrap()).unwrap();
        let out2 = ingest_reader(&bytes[..], "t.pcap", &IngestParams::default()).unwrap();
        let b = serde_json::to_string(&out2.report_json().unwrap()).unwrap();
        assert_eq!(a, b);
        for key in ["format", "recovery", "stream", "integrity", "conformance"] {
            assert!(a.contains(&format!("\"{key}\"")), "missing {key}: {a}");
        }
        let human = out.render_human();
        assert!(human.contains("conformance"), "{human}");
        assert!(human.contains("integrity"), "{human}");
    }
}
