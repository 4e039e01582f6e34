//! Trace reconstruction (§3.5 of the paper).
//!
//! The orchestrator gathers the capture buffers of every dumper host and
//! rebuilds the complete, time-ordered packet trace by sorting on the
//! mirror sequence number the switch embedded into each copy. Gaps in the
//! sequence mean mirror copies were lost (dumper overload) and the trace is
//! invalid for analysis.
//!
//! There is one reconstructor, [`StreamingReconstructor`]: decode, window,
//! sort, dedup, gap-walk. A live run hands it the capture buffers and it
//! feeds everything as one window, freeing each buffer's memory as its
//! captures are decoded ([`reconstruct_lossy_owned`]), so captures and
//! trace are never resident together. [`reconstruct_lossy`] and
//! [`reconstruct`] (which additionally insists nothing was damaged) feed
//! the same window from borrowed buffers, for callers that keep them.
//! Offline ingestion bounds the window so multi-gigabyte captures flow
//! through in chunks.

// A panic here forfeits a verdict or a whole campaign.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use lumina_packet::frame::RoceFrame;
use lumina_sim::SimTime;
use lumina_switch::events::EventType;
use lumina_switch::mirror;

/// Dumpers trim mirror copies to this many bytes (all headers, no
/// payload); a capture shorter than its wire length *and* shorter than
/// this was truncated abnormally (snaplen below the trim, mid-frame drop).
pub const TRIM_LEN: usize = 128;

/// The stored bytes of one capture: at most [`TRIM_LEN`] of them, held
/// inline so that storing a capture never calls the allocator and dropping
/// a dumper's buffer is one free. Reads and writes as the `[u8]` it holds.
#[derive(Clone)]
pub struct CaptureBytes {
    buf: [u8; TRIM_LEN],
    /// Bytes of `buf` in use, never more than [`TRIM_LEN`].
    len: usize,
}

impl CaptureBytes {
    /// Keep the first `len` bytes; a no-op when fewer are held.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }
}

impl From<&[u8]> for CaptureBytes {
    /// The first [`TRIM_LEN`] bytes of `bytes`.
    fn from(bytes: &[u8]) -> CaptureBytes {
        let len = bytes.len().min(TRIM_LEN);
        let mut buf = [0; TRIM_LEN];
        if let (Some(kept), Some(src)) = (buf.get_mut(..len), bytes.get(..len)) {
            kept.copy_from_slice(src);
        }
        CaptureBytes { buf, len }
    }
}

impl std::ops::Deref for CaptureBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.buf.get(..self.len).unwrap_or_default()
    }
}

impl std::ops::DerefMut for CaptureBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.buf.get_mut(..self.len).unwrap_or_default()
    }
}

impl std::fmt::Debug for CaptureBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// One packet as captured by a dumper host (trimmed, dport restored).
#[derive(Debug, Clone)]
pub struct CapturedPacket {
    /// Arrival time at the dumper (not used for analysis — the mirror
    /// timestamp is authoritative).
    pub rx_time: SimTime,
    /// Original wire length before trimming.
    pub orig_len: usize,
    /// Trimmed bytes.
    pub bytes: CaptureBytes,
}

/// One entry of the reconstructed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Mirror sequence number.
    pub seq: u64,
    /// Switch ingress timestamp — the measurement timestamp for all
    /// analyzers (uniform, no clock sync needed, §3.4).
    pub timestamp: SimTime,
    /// Event the injector applied to this packet.
    pub event: EventType,
    /// Parsed headers (payload absent — captures are trimmed).
    pub frame: RoceFrame,
    /// Original wire length.
    pub orig_len: usize,
}

impl TraceEntry {
    /// The entry a decoded mirror copy becomes.
    pub(crate) fn new(frame: RoceFrame, meta: mirror::MirrorMeta, orig_len: usize) -> TraceEntry {
        TraceEntry {
            seq: meta.seq,
            timestamp: meta.timestamp,
            event: meta.event,
            frame,
            orig_len,
        }
    }
}

/// The reconstructed, seq-ordered trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Entries in mirror-sequence order.
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Number of packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEntry> {
        self.entries.iter()
    }

    /// Write the trace as a nanosecond pcap file.
    pub fn write_pcap<W: std::io::Write>(&self, out: W) -> std::io::Result<u64> {
        let mut w = lumina_sim::pcap::PcapWriter::new(out, TRIM_LEN as u32)?;
        for e in &self.entries {
            let bytes = e.frame.emit();
            let trimmed = bytes.get(..TRIM_LEN).unwrap_or(&bytes);
            w.write_packet(e.timestamp, trimmed, e.orig_len)?;
        }
        let n = w.packets();
        w.finish()?;
        Ok(n)
    }
}

/// Why strict reconstruction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconstructError {
    /// A mirror sequence number appears twice (the first such seq).
    DuplicateSeq(u64),
    /// Sequence numbers are not consecutive; the missing ones are listed
    /// (capped at 16 for readability).
    Gaps {
        /// First missing sequence numbers.
        missing: Vec<u64>,
        /// Total number of missing packets.
        total_missing: u64,
    },
    /// This many captures' mirror or RoCE headers did not parse.
    BadCapture(u64),
}

impl std::fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconstructError::DuplicateSeq(s) => write!(f, "duplicate mirror seq {s}"),
            ReconstructError::Gaps {
                missing,
                total_missing,
            } => write!(
                f,
                "{total_missing} mirror copies missing (first: {missing:?})"
            ),
            ReconstructError::BadCapture(n) => write!(f, "{n} captures failed to parse"),
        }
    }
}

impl std::error::Error for ReconstructError {}

/// A run of consecutive missing mirror sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GapSpan {
    /// First missing sequence number of the run.
    pub start: u64,
    /// Number of consecutive missing sequence numbers.
    pub len: u64,
}

/// Read one (possibly trimmed) capture both ways a mirror copy must read:
/// as RoCE headers and as the switch's mirror metadata (`None` when the TTL
/// is not an event code — a direct capture, not a Lumina mirror copy). The
/// one place capture bytes are judged. The frame is parsed last and handed
/// back unwrapped so a caller that only classifies never moves it.
#[inline]
pub(crate) fn decode(
    bytes: &[u8],
) -> (
    Result<RoceFrame, lumina_packet::ParseError>,
    Option<mirror::MirrorMeta>,
) {
    let meta = mirror::extract(bytes);
    (RoceFrame::parse_headers(bytes), meta)
}

/// Most gap spans a [`StreamSummary`] retains verbatim; the totals keep
/// counting past the cap.
const MAX_SUMMARY_GAPS: usize = 1024;

/// Windowing of a [`StreamingReconstructor`].
#[derive(Debug, Clone, Copy)]
pub struct StreamOpts {
    /// Seal a chunk once it holds this many entries.
    pub chunk_entries: usize,
    /// Seal a chunk once its resident entries exceed this many bytes —
    /// the memory bound that lets multi-GB captures flow.
    pub max_resident_bytes: usize,
}

impl Default for StreamOpts {
    fn default() -> StreamOpts {
        StreamOpts {
            chunk_entries: 65_536,
            max_resident_bytes: 64 << 20,
        }
    }
}

/// Everything a reconstruction pass saw besides the trace itself: how much
/// survived and an explicit account of what did not.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct StreamSummary {
    /// Entries that survived into sealed chunks.
    pub entries: u64,
    /// Chunks sealed.
    pub chunks: u64,
    /// First 1 024 (`MAX_SUMMARY_GAPS`) runs of missing mirror seqs, ascending,
    /// non-adjacent. Tail loss past the highest captured seq is invisible
    /// here — only the packet-count integrity conditions can catch it.
    pub gaps: Vec<GapSpan>,
    /// Total gap runs, including those past the cap.
    pub gap_spans_total: u64,
    /// Total missing mirror copies across all gaps.
    pub missing: u64,
    /// Copies discarded because their seq was already present.
    pub duplicates: u64,
    /// Captures whose mirror or RoCE headers did not parse (bit-rot
    /// casualties).
    pub bad_captures: u64,
    /// Packets that arrived after their seq window was already sealed —
    /// reordering wider than the chunk, counted and dropped.
    pub late: u64,
    /// High-water mark of resident (unsealed) entry bytes.
    pub peak_resident_bytes: usize,
}

impl StreamSummary {
    /// Sequence numbers the capture should span: surviving entries plus
    /// the interior holes (tail loss excluded, as above).
    pub fn expected(&self) -> u64 {
        self.entries + self.missing
    }

    /// Fraction of the expected sequence range that survived, in `[0, 1]`.
    /// An empty trace is 0.0 analyzable, not vacuously complete.
    pub fn analyzable_fraction(&self) -> f64 {
        let expected = self.expected();
        if expected == 0 {
            return 0.0;
        }
        self.entries as f64 / expected as f64
    }

    /// True when no damage (parse casualty, gap, duplicate, straggler) was
    /// observed — i.e. strict [`reconstruct`] would have succeeded.
    pub fn is_complete(&self) -> bool {
        self.gap_spans_total == 0
            && self.duplicates == 0
            && self.bad_captures == 0
            && self.late == 0
    }
}

/// The reconstructor: feed captures in any order within a window; each
/// sealed window comes back as a seq-ordered [`Trace`] chunk, while gaps,
/// duplicates, stragglers and parse casualties accumulate into the final
/// [`StreamSummary`]. Never fails. [`reconstruct_lossy`] is this with one
/// unbounded window; `ingest` bounds the window so arbitrarily large
/// captures flow through.
#[derive(Debug, Default)]
pub struct StreamingReconstructor {
    opts: StreamOpts,
    pending: Vec<TraceEntry>,
    pending_bytes: usize,
    /// Next mirror seq not yet covered by a sealed chunk.
    cursor: u64,
    /// First seq seen twice inside one window (strict error detail).
    first_duplicate: Option<u64>,
    summary: StreamSummary,
}

impl StreamingReconstructor {
    /// Create a reconstructor with the given windowing options.
    pub fn new(opts: StreamOpts) -> StreamingReconstructor {
        StreamingReconstructor {
            opts,
            ..StreamingReconstructor::default()
        }
    }

    /// Offer one capture. Returns a sealed chunk when the window fills;
    /// damage counters in [`Self::summary`] are current the moment a chunk
    /// is returned (its gaps are already merged).
    pub fn push(&mut self, p: &CapturedPacket) -> Option<Trace> {
        let (Ok(frame), Some(meta)) = decode(&p.bytes) else {
            self.summary.bad_captures += 1;
            return None;
        };
        self.push_entry(TraceEntry::new(frame, meta, p.orig_len), p.bytes.len())
    }

    /// [`Self::push`] for a capture the caller already decoded
    /// ([`crate::ingest::recover_entry`]); `captured_len` is how many
    /// bytes the capture held, for the resident-bytes bound.
    pub fn push_entry(&mut self, entry: TraceEntry, captured_len: usize) -> Option<Trace> {
        if entry.seq < self.cursor {
            // Its window was already sealed: reordering wider than the
            // chunk. Counted, not resurrected.
            self.summary.late += 1;
            return None;
        }
        self.pending.push(entry);
        self.pending_bytes += std::mem::size_of::<TraceEntry>() + captured_len;
        self.summary.peak_resident_bytes = self.summary.peak_resident_bytes.max(self.pending_bytes);
        if self.pending.len() >= self.opts.chunk_entries.max(1)
            || self.pending_bytes >= self.opts.max_resident_bytes
        {
            return Some(self.seal());
        }
        None
    }

    /// Hand a consumed chunk's buffer back: the next window fills it
    /// instead of growing a new one from empty.
    pub fn recycle(&mut self, chunk: Trace) {
        if self.pending.is_empty() {
            self.pending = chunk.entries;
            self.pending.clear();
        }
    }

    /// Running summary (final after [`Self::finish`]).
    pub fn summary(&self) -> &StreamSummary {
        &self.summary
    }

    /// Seal whatever is pending into a chunk: sort by seq, dedup keeping
    /// the first capture, and record the gaps against the seq cursor.
    fn seal(&mut self) -> Trace {
        let mut entries = std::mem::take(&mut self.pending);
        self.pending_bytes = 0;
        // Stable: among same-seq duplicates the earlier capture (in feed
        // order) survives, deterministically. What gets sorted is `(seq,
        // position)` pairs, after which each 160-byte entry moves once, to
        // its place. A capture read in mirror order is already sorted, and
        // the sort would allocate a window of pairs to find that out.
        if !entries.is_sorted_by_key(|e| e.seq) {
            entries.sort_by_cached_key(|e| e.seq);
        }
        entries.dedup_by(|b, a| {
            let dup = a.seq == b.seq;
            if dup {
                self.summary.duplicates += 1;
                self.first_duplicate.get_or_insert(a.seq);
            }
            dup
        });
        for e in &entries {
            if e.seq > self.cursor {
                let span = GapSpan {
                    start: self.cursor,
                    len: e.seq - self.cursor,
                };
                if self.summary.gaps.len() < MAX_SUMMARY_GAPS {
                    self.summary.gaps.push(span);
                }
                self.summary.gap_spans_total += 1;
                self.summary.missing += span.len;
            }
            self.cursor = e.seq + 1;
        }
        self.summary.entries += entries.len() as u64;
        self.summary.chunks += 1;
        Trace { entries }
    }

    fn seal_tail(&mut self) -> Option<Trace> {
        (!self.pending.is_empty()).then(|| self.seal())
    }

    /// Seal the final partial chunk (if any) and return the summary.
    pub fn finish(mut self) -> (Option<Trace>, StreamSummary) {
        let tail = self.seal_tail();
        (tail, self.summary)
    }
}

/// Every dumper's captures through one unbounded window: nothing seals
/// (and so nothing can arrive late) before the end. `feed` offers every
/// dumper's captures (`captures` of them in all) to the window, dumper 0
/// first and each buffer front to back: the stable dedup keeps the first
/// copy in that order.
fn one_window(
    captures: usize,
    feed: impl FnOnce(&mut StreamingReconstructor),
) -> (Trace, StreamingReconstructor) {
    let mut recon = StreamingReconstructor::new(StreamOpts {
        chunk_entries: usize::MAX,
        max_resident_bytes: usize::MAX,
    });
    recon.pending.reserve_exact(captures);
    feed(&mut recon);
    let trace = recon.seal_tail().unwrap_or_default();
    (trace, recon)
}

/// [`one_window`] over borrowed captures, which stay resident throughout.
fn one_window_borrowed(captures: &[Vec<CapturedPacket>]) -> (Trace, StreamingReconstructor) {
    one_window(captures.iter().map(Vec::len).sum(), |recon| {
        for p in captures.iter().flatten() {
            recon.push(p);
        }
    })
}

/// Captures a buffer gives up between two releases of its memory.
const RELEASE_EVERY: usize = 4096;

/// Merge the captures of all dumper hosts into the best trace the data
/// supports, never failing: unparseable captures are counted and skipped,
/// duplicated seqs keep their first copy (in dumper order), and interior
/// sequence holes become explicit [`GapSpan`]s so analyzers know exactly
/// what they are not seeing.
///
/// The captures are consumed: each buffer gives its memory back as its
/// captures are decoded, so the trace built so far and the captures not
/// yet decoded are all that is ever resident.
pub fn reconstruct_lossy_owned(captures: Vec<Vec<CapturedPacket>>) -> (Trace, StreamSummary) {
    let total = captures.iter().map(Vec::len).sum();
    let (trace, recon) = one_window(total, |recon| {
        for mut buf in captures {
            // Taken from the back, where a buffer can shrink in place.
            buf.reverse();
            while let Some(p) = buf.last() {
                recon.push(p);
                buf.pop();
                if buf.len() % RELEASE_EVERY == 0 {
                    buf.shrink_to_fit();
                }
            }
        }
    });
    (trace, recon.summary)
}

/// [`reconstruct_lossy_owned`] over borrowed captures, for callers that
/// keep them (the benchmark's replays and the tests).
pub fn reconstruct_lossy(captures: &[Vec<CapturedPacket>]) -> (Trace, StreamSummary) {
    let (trace, recon) = one_window_borrowed(captures);
    (trace, recon.summary)
}

/// [`reconstruct_lossy`], accepted only when the sequence is gap-free,
/// duplicate-free and every capture parsed (integrity condition 1 of §3.5).
pub fn reconstruct(captures: &[Vec<CapturedPacket>]) -> Result<Trace, ReconstructError> {
    let (trace, recon) = one_window_borrowed(captures);
    let summary = &recon.summary;
    if summary.bad_captures > 0 {
        return Err(ReconstructError::BadCapture(summary.bad_captures));
    }
    if let Some(seq) = recon.first_duplicate {
        return Err(ReconstructError::DuplicateSeq(seq));
    }
    if summary.missing > 0 {
        return Err(ReconstructError::Gaps {
            missing: summary
                .gaps
                .iter()
                .flat_map(|g| g.start..g.start + g.len)
                .take(16)
                .collect(),
            total_missing: summary.missing,
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumina_packet::builder::DataPacketBuilder;
    use lumina_packet::opcode::Opcode;

    fn capture(seq: u64, ts_ns: u64) -> CapturedPacket {
        let mut buf = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteMiddle)
            .psn(seq as u32)
            .payload_len(1024)
            .build()
            .emit()
            .to_vec();
        mirror::embed(
            &mut buf,
            seq,
            SimTime::from_nanos(ts_ns),
            EventType::None,
            None,
        );
        let orig_len = buf.len();
        CapturedPacket {
            rx_time: SimTime::from_nanos(ts_ns + 10_000),
            orig_len,
            bytes: buf.as_slice().into(),
        }
    }

    #[test]
    fn merges_and_sorts_across_dumpers() {
        // Packets interleaved across two dumpers, out of order.
        let d1 = vec![capture(3, 300), capture(0, 0), capture(5, 500)];
        let d2 = vec![capture(4, 400), capture(1, 100), capture(2, 200)];
        let t = reconstruct(&[d1, d2]).unwrap();
        assert_eq!(t.len(), 6);
        let seqs: Vec<u64> = t.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        // Timestamps come from the mirror metadata, not dumper arrival.
        assert_eq!(t.entries[3].timestamp, SimTime::from_nanos(300));
        // PSN survives the trim.
        assert_eq!(t.entries[5].frame.bth.psn, 5);
    }

    #[test]
    fn gap_detected() {
        let d1 = vec![capture(0, 0), capture(1, 100), capture(3, 300)];
        let err = reconstruct(&[d1]).unwrap_err();
        assert_eq!(
            err,
            ReconstructError::Gaps {
                missing: vec![2],
                total_missing: 1
            }
        );
    }

    #[test]
    fn duplicate_detected() {
        let d1 = vec![capture(0, 0), capture(1, 100), capture(1, 150)];
        assert_eq!(
            reconstruct(&[d1]).unwrap_err(),
            ReconstructError::DuplicateSeq(1)
        );
    }

    #[test]
    fn empty_trace_ok() {
        let t = reconstruct(&[vec![], vec![]]).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn lossy_matches_strict_on_pristine_captures() {
        let d1 = vec![capture(3, 300), capture(0, 0), capture(5, 500)];
        let d2 = vec![capture(4, 400), capture(1, 100), capture(2, 200)];
        let strict = reconstruct(&[d1.clone(), d2.clone()]).unwrap();
        let (trace, summary) = reconstruct_lossy(&[d1, d2]);
        assert!(summary.is_complete());
        assert_eq!(summary.analyzable_fraction(), 1.0);
        let seqs = |t: &Trace| t.iter().map(|e| e.seq).collect::<Vec<_>>();
        assert_eq!(seqs(&trace), seqs(&strict));
    }

    #[test]
    fn lossy_reports_gap_spans() {
        // 0 1 _ 3 _ _ 6 — two interior gaps of different lengths.
        let d1 = vec![
            capture(0, 0),
            capture(1, 100),
            capture(3, 300),
            capture(6, 600),
        ];
        let (_, summary) = reconstruct_lossy(&[d1]);
        assert_eq!(
            summary.gaps,
            vec![GapSpan { start: 2, len: 1 }, GapSpan { start: 4, len: 2 }]
        );
        assert_eq!(summary.missing, 3);
        assert_eq!(summary.expected(), 7);
        assert!((summary.analyzable_fraction() - 4.0 / 7.0).abs() < 1e-12);
        assert!(!summary.is_complete());
    }

    #[test]
    fn lossy_leading_gap_counted() {
        let d1 = vec![capture(2, 200), capture(3, 300)];
        let (_, summary) = reconstruct_lossy(&[d1]);
        assert_eq!(summary.gaps, vec![GapSpan { start: 0, len: 2 }]);
    }

    #[test]
    fn lossy_dedups_keeping_first_capture() {
        // Same seq captured by two dumpers at different rx times: the
        // stable sort keeps the first in dumper order.
        let mut late = capture(1, 100);
        late.orig_len += 1; // distinguishable marker
        let d1 = vec![capture(0, 0), capture(1, 100)];
        let d2 = vec![late];
        let (trace, summary) = reconstruct_lossy(&[d1.clone(), d2]);
        assert_eq!(summary.duplicates, 1);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.entries[1].orig_len, d1[1].orig_len);
        assert!(summary.gaps.is_empty());
    }

    #[test]
    fn owned_matches_borrowed_across_releases() {
        // Enough captures that each buffer gives memory back twice
        // mid-decode. Every seventh seq is captured again by the other
        // dumper, that copy marked by a longer `orig_len`; every eleventh
        // rots.
        let n = 4 * RELEASE_EVERY as u64;
        let mut dumpers = vec![Vec::new(), Vec::new()];
        for seq in (0..n).rev() {
            let mut p = capture(seq, seq * 100);
            if seq % 11 == 0 {
                p.bytes.truncate(8);
            }
            if seq % 7 == 0 {
                let mut again = p.clone();
                again.orig_len += 1;
                dumpers[(seq as usize + 1) % 2].push(again);
            }
            dumpers[seq as usize % 2].push(p);
        }
        let (want, want_summary) = reconstruct_lossy(&dumpers);
        let (got, got_summary) = reconstruct_lossy_owned(dumpers);
        assert!(want_summary.duplicates > 0 && want_summary.bad_captures > 0);
        assert_eq!(got.entries, want.entries);
        assert_eq!(format!("{got_summary:?}"), format!("{want_summary:?}"));
        // Dumper 0's copy is the first in dumper order: the original for an
        // even seq, the marked copy for an odd one.
        let base = capture(0, 0).orig_len;
        for e in got.iter().filter(|e| e.seq % 7 == 0) {
            assert_eq!(e.orig_len, base + (e.seq % 2) as usize, "seq {}", e.seq);
        }
    }

    #[test]
    fn lossy_skips_unparseable_captures() {
        let mut rotten = capture(1, 100);
        rotten.bytes.truncate(8); // destroy the headers entirely
        let d1 = vec![capture(0, 0), rotten, capture(2, 200)];
        let (trace, summary) = reconstruct_lossy(std::slice::from_ref(&d1));
        assert_eq!(summary.bad_captures, 1);
        // The rotten capture's seq is now a gap.
        assert_eq!(summary.gaps, vec![GapSpan { start: 1, len: 1 }]);
        assert_eq!(trace.len(), 2);
        assert_eq!(
            reconstruct(&[d1]).unwrap_err(),
            ReconstructError::BadCapture(1)
        );
    }

    #[test]
    fn lossy_empty_is_zero_analyzable() {
        let (trace, summary) = reconstruct_lossy(&[vec![], vec![]]);
        assert!(trace.is_empty());
        assert_eq!(summary.analyzable_fraction(), 0.0);
        assert!(summary.is_complete(), "no damage observed, just no data");
    }

    #[test]
    fn pcap_export() {
        let d1 = vec![capture(0, 0), capture(1, 100)];
        let t = reconstruct(&[d1]).unwrap();
        let mut buf = Vec::new();
        let n = t.write_pcap(&mut buf).unwrap();
        assert_eq!(n, 2);
        assert!(buf.len() > 24 + 2 * 16);
    }
}
