//! Property tests for trace reconstruction: any distribution of mirror
//! copies across dumpers reconstructs in sequence order; any missing or
//! duplicated copy is detected; and the batch entry points, borrowed or
//! by value, are the streaming reconstructor, whatever its window.

use lumina_dumper::{
    reconstruct, reconstruct_lossy, reconstruct_lossy_owned, CapturedPacket, GapSpan,
    ReconstructError, StreamOpts, StreamSummary, StreamingReconstructor, Trace, TraceEntry,
};
use lumina_packet::builder::DataPacketBuilder;
use lumina_packet::frame::RoceFrame;
use lumina_packet::opcode::Opcode;
use lumina_sim::SimTime;
use lumina_switch::events::EventType;
use lumina_switch::mirror;
use proptest::prelude::*;

fn capture(seq: u64) -> CapturedPacket {
    let mut buf = DataPacketBuilder::new()
        .opcode(Opcode::RdmaWriteMiddle)
        .psn((seq & 0xff_ffff) as u32)
        .payload_len(256)
        .build()
        .emit()
        .to_vec();
    mirror::embed(
        &mut buf,
        seq,
        SimTime::from_nanos(seq * 1000),
        EventType::None,
        Some((seq % 65_536) as u16),
    );
    // Restore happens at the dumper; mimic it so the headers parse
    // strictly.
    mirror::restore_dport(&mut buf);
    let orig_len = buf.len();
    buf.truncate(128);
    CapturedPacket {
        rx_time: SimTime::ZERO,
        orig_len,
        bytes: buf.as_slice().into(),
    }
}

proptest! {
    /// Shuffle `n` captures into up to 4 dumpers in arbitrary order:
    /// reconstruction always yields seqs 0..n in order, with the mirror
    /// timestamps intact.
    #[test]
    fn any_distribution_reconstructs(
        n in 1usize..200,
        assignment_seed in 0u64..1000,
    ) {
        let mut dumpers: Vec<Vec<CapturedPacket>> = vec![Vec::new(); 4];
        // Deterministic pseudo-random assignment + per-dumper arrival
        // order scrambling.
        let mut x = assignment_seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut order: Vec<u64> = (0..n as u64).collect();
        // Fisher-Yates with the cheap LCG.
        for i in (1..order.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (x >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        for seq in order {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = (x >> 33) as usize % 4;
            dumpers[d].push(capture(seq));
        }
        let trace = reconstruct(&dumpers).unwrap();
        prop_assert_eq!(trace.len(), n);
        for (i, e) in trace.iter().enumerate() {
            prop_assert_eq!(e.seq, i as u64);
            prop_assert_eq!(e.timestamp, SimTime::from_nanos(i as u64 * 1000));
        }
    }

    /// Removing any single capture produces a Gaps error naming it —
    /// except a *tail* loss, which sequence numbers alone cannot reveal.
    /// That blind spot is exactly why §3.5's integrity check adds the two
    /// count conditions (switch-mirrored count and RoCE RX count must both
    /// equal the trace length); `lumina-core`'s integrity tests cover the
    /// tail case.
    #[test]
    fn any_single_loss_detected(n in 2usize..100, missing in 0usize..100) {
        let missing = missing % n;
        let caps: Vec<CapturedPacket> = (0..n as u64)
            .filter(|&s| s != missing as u64)
            .map(capture)
            .collect();
        if missing == n - 1 {
            // Tail loss: undetectable from sequence numbers; the trace
            // reconstructs short by one.
            let trace = reconstruct(&[caps]).unwrap();
            prop_assert_eq!(trace.len(), n - 1);
        } else {
            match reconstruct(&[caps]) {
                Err(ReconstructError::Gaps { missing: m, total_missing }) => {
                    prop_assert_eq!(total_missing, 1);
                    prop_assert_eq!(m, vec![missing as u64]);
                }
                other => prop_assert!(false, "expected Gaps, got {other:?}"),
            }
        }
    }

    /// Duplicating any capture is detected.
    #[test]
    fn any_duplicate_detected(n in 1usize..100, dup in 0usize..100) {
        let dup = dup % n;
        let mut caps: Vec<CapturedPacket> = (0..n as u64).map(capture).collect();
        caps.push(capture(dup as u64));
        match reconstruct(&[caps]) {
            Err(ReconstructError::DuplicateSeq(s)) => prop_assert_eq!(s, dup as u64),
            other => prop_assert!(false, "expected DuplicateSeq, got {other:?}"),
        }
    }

    /// On gap-free captures the lossy path is *exactly* the strict path:
    /// same trace, no gaps, no accounting — regardless of how the copies
    /// are scattered across dumpers.
    #[test]
    fn lossy_equals_strict_on_clean_captures(
        n in 1usize..200,
        assignment_seed in 0u64..1000,
    ) {
        let mut dumpers: Vec<Vec<CapturedPacket>> = vec![Vec::new(); 4];
        let mut x = assignment_seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for seq in 0..n as u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = (x >> 33) as usize % 4;
            dumpers[d].push(capture(seq));
        }
        let strict = reconstruct(&dumpers).unwrap();
        let (trace, summary) = reconstruct_lossy(&dumpers);
        prop_assert!(summary.is_complete());
        prop_assert!(summary.gaps.is_empty());
        prop_assert_eq!(summary.duplicates, 0);
        prop_assert_eq!(summary.bad_captures, 0);
        prop_assert_eq!(summary.analyzable_fraction(), 1.0);
        prop_assert_eq!(trace.len(), strict.len());
        for (a, b) in trace.iter().zip(strict.iter()) {
            prop_assert_eq!(a.seq, b.seq);
            prop_assert_eq!(a.timestamp, b.timestamp);
            prop_assert_eq!(a.orig_len, b.orig_len);
            prop_assert_eq!(a.frame.bth.psn, b.frame.bth.psn);
        }
    }

    /// Dropping an arbitrary subset leaves a lossy trace whose gap spans
    /// cover exactly the dropped interior seqs, and whose accounting adds
    /// back up to the expected range.
    #[test]
    fn lossy_gap_spans_cover_exactly_the_dropped_seqs(
        n in 2usize..150,
        drop_mask in 0u64..u64::MAX,
    ) {
        let dropped: Vec<u64> = (0..n as u64).filter(|s| drop_mask >> (s % 64) & 1 == 1).collect();
        let caps: Vec<CapturedPacket> = (0..n as u64)
            .filter(|s| !dropped.contains(s))
            .map(capture)
            .collect();
        if caps.is_empty() {
            // Every seq dropped — nothing to reconstruct, nothing to check.
            return Ok(());
        }
        let (trace, summary) = reconstruct_lossy(&[caps]);
        // Tail losses are invisible to seq analysis: only gaps below the
        // highest *surviving* seq can be reported.
        let horizon = trace.iter().map(|e| e.seq).max().unwrap();
        let expected_missing: Vec<u64> =
            dropped.iter().copied().filter(|&s| s < horizon).collect();
        let mut from_spans = Vec::new();
        for g in &summary.gaps {
            for s in g.start..g.start + g.len {
                from_spans.push(s);
            }
        }
        prop_assert_eq!(from_spans, expected_missing);
        prop_assert_eq!(summary.missing as usize + trace.len(), horizon as usize + 1);
        prop_assert_eq!(summary.duplicates, 0);
        prop_assert_eq!(summary.bad_captures, 0);
    }

    /// `reconstruct_lossy` is the streaming reconstructor with one window:
    /// feed the same damaged captures (gaps, duplicates, rotten copies) in
    /// seq order through windows of 1, 7 and unbounded entries, and the
    /// concatenated chunks and the summary totals come out the same. The
    /// one thing a window changes is the *name* of a repeated seq: a copy
    /// whose first sighting is already sealed counts as `late`, not as a
    /// duplicate — so the two are compared summed.
    #[test]
    fn lossy_equals_the_streaming_reconstructor_at_any_window(
        n in 1usize..120,
        fates in proptest::collection::vec(0u8..8, 120..121),
    ) {
        let caps = damaged(n, &fates);
        let (batch, total) = reconstruct_lossy(std::slice::from_ref(&caps));
        for chunk_entries in [1, 7, usize::MAX] {
            let mut recon = StreamingReconstructor::new(StreamOpts {
                chunk_entries,
                max_resident_bytes: usize::MAX,
            });
            let mut streamed = Trace::default();
            for p in &caps {
                streamed.entries.extend(recon.push(p).into_iter().flat_map(|c| c.entries));
            }
            let (tail, summary) = recon.finish();
            streamed.entries.extend(tail.into_iter().flat_map(|c| c.entries));

            prop_assert_eq!(fingerprint(&streamed), fingerprint(&batch), "window {}", chunk_entries);
            prop_assert_eq!(summary.entries, total.entries);
            prop_assert_eq!(&summary.gaps, &total.gaps);
            prop_assert_eq!(summary.gap_spans_total, total.gap_spans_total);
            prop_assert_eq!(summary.missing, total.missing);
            prop_assert_eq!(summary.bad_captures, total.bad_captures);
            prop_assert_eq!(summary.duplicates + summary.late, total.duplicates);
            prop_assert_eq!(summary.is_complete(), total.is_complete());
            if chunk_entries == usize::MAX {
                prop_assert_eq!(summary.late, 0);
            }
        }
    }

    /// The reconstructor orders `(seq, position)` pairs and moves each entry
    /// once; the reconstruction one would write first decodes everything in
    /// feed order, stable-sorts the entries, keeps the first of each seq and
    /// walks the gaps. Over 1–4 dumpers, any interleaving, and captures that
    /// are lost, duplicated on another dumper (told apart by `orig_len`), or
    /// rotted with and without their mirror metadata, the two agree on the
    /// trace, on every summary field and on the strict verdict — and so does
    /// the by-value entry point, which consumes the buffers as it decodes
    /// them but must still keep the first copy in dumper order.
    #[test]
    fn lossy_equals_the_naive_reference(
        dumpers in 1usize..5,
        n in 1usize..120,
        seed in 0u64..1000,
        fates in proptest::collection::vec(0u8..8, 120..121),
    ) {
        let captures = scattered(dumpers, n, seed, &fates);
        let (expected, want, first_duplicate) = naive_reference(&captures);
        let borrowed = reconstruct_lossy(&captures);
        let owned = reconstruct_lossy_owned(captures.clone());

        for (trace, got) in [&borrowed, &owned] {
            prop_assert_eq!(fingerprint(trace), fingerprint(&expected));
            prop_assert_eq!(got.entries, want.entries);
            prop_assert_eq!(got.chunks, want.chunks);
            prop_assert_eq!(&got.gaps, &want.gaps);
            prop_assert_eq!(got.gap_spans_total, want.gap_spans_total);
            prop_assert_eq!(got.missing, want.missing);
            prop_assert_eq!(got.duplicates, want.duplicates);
            prop_assert_eq!(got.bad_captures, want.bad_captures);
            prop_assert_eq!(got.late, 0);
            prop_assert_eq!(got.peak_resident_bytes, want.peak_resident_bytes);
        }

        let strict = reconstruct(&captures).map(|t| fingerprint(&t));
        let verdict = if want.bad_captures > 0 {
            Err(ReconstructError::BadCapture(want.bad_captures))
        } else if let Some(seq) = first_duplicate {
            Err(ReconstructError::DuplicateSeq(seq))
        } else if want.missing > 0 {
            Err(ReconstructError::Gaps {
                missing: want
                    .gaps
                    .iter()
                    .flat_map(|g| g.start..g.start + g.len)
                    .take(16)
                    .collect(),
                total_missing: want.missing,
            })
        } else {
            Ok(fingerprint(&expected))
        };
        prop_assert_eq!(owned.1.is_complete(), verdict.is_ok());
        prop_assert_eq!(strict, verdict);
    }

    /// Strict `reconstruct` is the lossy one plus the completeness check:
    /// it succeeds exactly when the summary is complete, and then returns
    /// the same trace.
    #[test]
    fn strict_succeeds_iff_the_summary_is_complete(
        n in 1usize..120,
        fates in proptest::collection::vec(0u8..64, 120..121),
    ) {
        let caps = damaged(n, &fates);
        let (lossy, summary) = reconstruct_lossy(std::slice::from_ref(&caps));
        match reconstruct(&[caps]) {
            Ok(strict) => {
                prop_assert!(summary.is_complete());
                prop_assert_eq!(fingerprint(&strict), fingerprint(&lossy));
            }
            Err(e) => prop_assert!(!summary.is_complete(), "{e} on a complete summary"),
        }
    }
}

/// Seqs `0..n` in order, each with a fate drawn from `fates`: 0 = lost,
/// 1 = captured twice, 2 = headers rotted away, anything else = captured
/// once. (A wider fate range makes undamaged inputs likely.)
fn damaged(n: usize, fates: &[u8]) -> Vec<CapturedPacket> {
    let mut caps = Vec::new();
    for seq in 0..n as u64 {
        match fates[seq as usize] {
            0 => {}
            1 => caps.extend([capture(seq), capture(seq)]),
            2 => {
                let mut rotten = capture(seq);
                rotten.bytes.truncate(8);
                caps.push(rotten);
            }
            _ => caps.push(capture(seq)),
        }
    }
    caps
}

/// Seqs `0..n` shuffled over `dumpers` capture buffers, each with a fate
/// drawn from `fates`: 0 = lost, 1 = captured again by the next dumper with
/// an `orig_len` one longer, 2 = rotted to 8 bytes (no mirror metadata
/// left), 3 = rotted to 44 bytes (the metadata reads, the BTH is gone),
/// anything else = captured once.
fn scattered(dumpers: usize, n: usize, seed: u64, fates: &[u8]) -> Vec<Vec<CapturedPacket>> {
    let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut draw = |below: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize % below
    };
    let mut order: Vec<u64> = (0..n as u64).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, draw(i + 1));
    }
    let mut captures = vec![Vec::new(); dumpers];
    for seq in order {
        let d = draw(dumpers);
        let mut p = capture(seq);
        match fates[seq as usize] {
            0 => continue,
            1 => {
                let mut again = p.clone();
                again.orig_len += 1;
                captures[(d + 1) % dumpers].push(again);
            }
            2 => p.bytes.truncate(8),
            3 => p.bytes.truncate(44),
            _ => {}
        }
        captures[d].push(p);
    }
    captures
}

/// Decode all in feed order, stable-sort, keep the first of each seq, walk
/// the gaps: the trace, its summary, and the lowest seq seen twice.
fn naive_reference(captures: &[Vec<CapturedPacket>]) -> (Trace, StreamSummary, Option<u64>) {
    let mut summary = StreamSummary::default();
    let mut decoded = Vec::new();
    for p in captures.iter().flatten() {
        match (
            RoceFrame::parse_headers(&p.bytes),
            mirror::extract(&p.bytes),
        ) {
            (Ok(frame), Some(meta)) => {
                summary.peak_resident_bytes += std::mem::size_of::<TraceEntry>() + p.bytes.len();
                decoded.push(TraceEntry {
                    seq: meta.seq,
                    timestamp: meta.timestamp,
                    event: meta.event,
                    frame,
                    orig_len: p.orig_len,
                });
            }
            _ => summary.bad_captures += 1,
        }
    }
    decoded.sort_by_key(|e| e.seq);
    let mut first_duplicate = None;
    let mut entries: Vec<TraceEntry> = Vec::new();
    for e in decoded {
        if entries.last().is_some_and(|kept| kept.seq == e.seq) {
            summary.duplicates += 1;
            first_duplicate.get_or_insert(e.seq);
        } else {
            entries.push(e);
        }
    }
    let mut next = 0;
    for e in &entries {
        if e.seq > next {
            summary.gaps.push(GapSpan {
                start: next,
                len: e.seq - next,
            });
            summary.gap_spans_total += 1;
            summary.missing += e.seq - next;
        }
        next = e.seq + 1;
    }
    summary.entries = entries.len() as u64;
    summary.chunks = !entries.is_empty() as u64;
    (Trace { entries }, summary, first_duplicate)
}

/// What two equal traces must agree on, entry by entry.
fn fingerprint(t: &Trace) -> Vec<(u64, SimTime, usize, u32)> {
    t.iter()
        .map(|e| (e.seq, e.timestamp, e.orig_len, e.frame.bth.psn))
        .collect()
}
