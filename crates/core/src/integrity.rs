//! The §3.5 integrity check: a trace is analyzable only when
//!
//! 1. consecutive mirror sequence numbers are present,
//! 2. the number of packets the injector mirrored equals the trace length,
//! 3. the number of RoCE packets the injector received equals the trace
//!    length.
//!
//! A damaged capture no longer discards the run: reconstruction is
//! gap-tolerant ([`lumina_dumper::reconstruct_lossy_owned`]), the partial
//! trace is returned for analysis, and the report carries a
//! [`DegradedMode`] block stating exactly how much survived. The check
//! still *fails* — a degraded trace is never integrity-clean — but it
//! fails with data instead of with nothing.
//!
//! Condition 1 is read off the reconstructor's [`StreamSummary`] by
//! `IntegrityReport::from_summary` for live runs and offline ingestion
//! alike; conditions 2–3 need the injector's counters, which only a live
//! run has.

use lumina_dumper::{
    reconstruct_lossy, reconstruct_lossy_owned, CapturedPacket, GapSpan, StreamSummary, Trace,
};
use lumina_switch::device::SwitchCounters;
use serde::{Deserialize, Serialize};

/// How many gap spans the report lists verbatim before truncating.
const MAX_REPORTED_GAPS: usize = 16;

/// Degraded-capture detail: present only when reconstruction found gaps,
/// duplicates or unparseable captures. Absent from fault-free reports
/// (and from every golden) via `skip_serializing_if`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DegradedMode {
    /// Fraction of the expected mirror-sequence range that survived.
    pub analyzable_fraction: f64,
    /// Packets present in the partial trace.
    pub present: u64,
    /// Packets missing from interior sequence gaps.
    pub missing: u64,
    /// Extra copies discarded by seq dedup.
    pub duplicates: u64,
    /// Captures dropped because their headers did not parse.
    pub bad_captures: u64,
    /// The gap spans themselves (the first 16, `MAX_REPORTED_GAPS`).
    pub gaps: Vec<GapSpan>,
    /// True when more gaps existed than `gaps` lists.
    pub gaps_truncated: bool,
}

/// Outcome of the integrity check.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IntegrityReport {
    /// Condition 1: mirror sequence numbers are consecutive (no gaps,
    /// duplicates or unparseable captures).
    pub seq_consecutive: bool,
    /// Condition 2: mirrored count matches trace length.
    pub mirrored_matches: bool,
    /// Condition 3: RoCE RX count matches trace length.
    pub roce_rx_matches: bool,
    /// Human-readable details for failures.
    pub details: Vec<String>,
    /// Degraded-capture accounting; `None` when reconstruction was clean.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub degraded: Option<DegradedMode>,
}

impl DegradedMode {
    /// The damage a reconstruction summary recorded.
    pub(crate) fn of(summary: &StreamSummary) -> DegradedMode {
        DegradedMode {
            analyzable_fraction: summary.analyzable_fraction(),
            present: summary.entries,
            missing: summary.missing,
            duplicates: summary.duplicates,
            bad_captures: summary.bad_captures,
            gaps: summary
                .gaps
                .iter()
                .take(MAX_REPORTED_GAPS)
                .copied()
                .collect(),
            gaps_truncated: summary.gap_spans_total as usize > MAX_REPORTED_GAPS,
        }
    }
}

impl IntegrityReport {
    /// All three conditions hold.
    pub fn passed(&self) -> bool {
        self.seq_consecutive && self.mirrored_matches && self.roce_rx_matches
    }

    /// True when the trace exists but is incomplete: analyzers may run,
    /// with caveats.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Condition 1 as the reconstructor saw it: consecutive iff the summary
    /// is complete, one detail line per kind of damage, and the
    /// [`DegradedMode`] block when anything was damaged. Conditions 2–3
    /// hold until a caller with injector counters says otherwise.
    pub(crate) fn from_summary(summary: &StreamSummary) -> IntegrityReport {
        let mut details = Vec::new();
        if let Some(first) = summary.gaps.first() {
            details.push(format!(
                "{} mirror copies missing across {} gaps (first gap: seq {}, len {})",
                summary.missing, summary.gap_spans_total, first.start, first.len,
            ));
        }
        if summary.duplicates > 0 {
            details.push(format!(
                "{} duplicated mirror copies discarded",
                summary.duplicates
            ));
        }
        if summary.bad_captures > 0 {
            details.push(format!("{} captures failed to parse", summary.bad_captures));
        }
        if summary.late > 0 {
            details.push(format!(
                "{} packets arrived after their chunk sealed (reordering wider than the window)",
                summary.late
            ));
        }
        IntegrityReport {
            seq_consecutive: summary.is_complete(),
            mirrored_matches: true,
            roce_rx_matches: true,
            details,
            degraded: (!summary.is_complete()).then(|| DegradedMode::of(summary)),
        }
    }

    /// The `integrity` line of a human report. `gap_spans` is the gap count
    /// the caller's report shows beside the missing total.
    pub fn status_line(&self, gap_spans: u64) -> String {
        if self.passed() {
            "pass".to_string()
        } else if let Some(deg) = &self.degraded {
            format!(
                "DEGRADED ({:.1}% analyzable, {} missing across {gap_spans} gap{})",
                deg.analyzable_fraction * 100.0,
                deg.missing,
                if gap_spans == 1 { "" } else { "s" },
            )
        } else {
            "FAIL".to_string()
        }
    }
}

/// Reconstruct the trace from all dumpers' captures and run the check.
/// Always returns the best trace the captures support — possibly partial,
/// never `None` — alongside the report; a damaged capture shows up as a
/// failed check with [`IntegrityReport::degraded`] populated. The captures
/// are consumed, each freed as it is decoded
/// ([`lumina_dumper::reconstruct_lossy_owned`]).
pub fn check_owned(
    captures: Vec<Vec<CapturedPacket>>,
    switch: &SwitchCounters,
) -> (Option<Trace>, IntegrityReport) {
    let (trace, summary) = reconstruct_lossy_owned(captures);
    graded(trace, &summary, switch)
}

/// [`check_owned`] over borrowed captures, for callers that keep them
/// (the benchmark's replays and the tests).
pub fn check(
    captures: &[Vec<CapturedPacket>],
    switch: &SwitchCounters,
) -> (Option<Trace>, IntegrityReport) {
    let (trace, summary) = reconstruct_lossy(captures);
    graded(trace, &summary, switch)
}

/// Condition 1 from the reconstruction's summary, conditions 2–3 from the
/// injector's counters against the trace length.
fn graded(
    trace: Trace,
    summary: &StreamSummary,
    switch: &SwitchCounters,
) -> (Option<Trace>, IntegrityReport) {
    let mut report = IntegrityReport::from_summary(summary);
    let n = trace.len() as u64;
    report.mirrored_matches = switch.mirrored_total == n;
    if !report.mirrored_matches {
        report.details.push(format!(
            "injector mirrored {} packets but the trace holds {n}",
            switch.mirrored_total
        ));
    }
    report.roce_rx_matches = switch.roce_rx_total == n;
    if !report.roce_rx_matches {
        report.details.push(format!(
            "injector received {} RoCE packets but the trace holds {n}",
            switch.roce_rx_total
        ));
    }
    (Some(trace), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumina_packet::builder::DataPacketBuilder;
    use lumina_packet::opcode::Opcode;
    use lumina_sim::SimTime;
    use lumina_switch::events::EventType;
    use lumina_switch::mirror;

    fn capture(seq: u64) -> CapturedPacket {
        let mut buf = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteOnly)
            .psn(seq as u32)
            .payload_len(64)
            .build()
            .emit()
            .to_vec();
        mirror::embed(
            &mut buf,
            seq,
            SimTime::from_nanos(seq),
            EventType::None,
            None,
        );
        CapturedPacket {
            rx_time: SimTime::ZERO,
            orig_len: buf.len() as u32,
            bytes: buf.as_slice().into(),
        }
    }

    fn counters(mirrored: u64, roce_rx: u64) -> SwitchCounters {
        SwitchCounters {
            mirrored_total: mirrored,
            roce_rx_total: roce_rx,
            ..Default::default()
        }
    }

    #[test]
    fn all_conditions_pass() {
        let caps = vec![vec![capture(0), capture(2)], vec![capture(1)]];
        let (trace, rep) = check(&caps, &counters(3, 3));
        assert!(rep.passed(), "{rep:?}");
        assert!(!rep.is_degraded());
        assert_eq!(trace.unwrap().len(), 3);
    }

    #[test]
    fn gap_fails_condition_one_but_keeps_the_partial_trace() {
        let caps = vec![vec![capture(0), capture(2)]];
        let (trace, rep) = check(&caps, &counters(3, 3));
        let trace = trace.expect("degraded, not absent");
        assert_eq!(trace.len(), 2, "both surviving packets analyzable");
        assert!(!rep.passed());
        assert!(!rep.seq_consecutive);
        assert!(!rep.details.is_empty());
        let deg = rep.degraded.expect("degraded block present");
        assert_eq!(deg.present, 2);
        assert_eq!(deg.missing, 1);
        assert_eq!(deg.gaps, vec![GapSpan { start: 1, len: 1 }]);
        assert!(!deg.gaps_truncated);
        assert!((deg.analyzable_fraction - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn count_mismatch_fails_conditions_two_three() {
        let caps = vec![vec![capture(0), capture(1)]];
        let (trace, rep) = check(&caps, &counters(5, 4));
        assert!(trace.is_some(), "trace still returned for debugging");
        assert!(rep.seq_consecutive);
        assert!(!rep.mirrored_matches);
        assert!(!rep.roce_rx_matches);
        assert!(!rep.passed());
        assert_eq!(rep.details.len(), 2);
        assert!(
            !rep.is_degraded(),
            "count mismatch alone (tail loss) is not capture damage"
        );
    }

    #[test]
    fn clean_report_serializes_without_degraded_key() {
        let caps = vec![vec![capture(0), capture(1)]];
        let (_, rep) = check(&caps, &counters(2, 2));
        let v = serde_json::to_value(&rep).unwrap();
        assert!(
            v.get("degraded").is_none(),
            "golden byte-identity depends on this: {v}"
        );
        let (_, bad) = check(&[vec![capture(0), capture(2)]], &counters(3, 3));
        let v = serde_json::to_value(&bad).unwrap();
        assert!(v.get("degraded").is_some());
    }

    #[test]
    fn duplicates_degrade_instead_of_discarding() {
        let caps = vec![vec![capture(0), capture(1), capture(1)]];
        let (trace, rep) = check(&caps, &counters(2, 2));
        assert_eq!(trace.unwrap().len(), 2);
        assert!(!rep.seq_consecutive);
        assert!(rep.mirrored_matches, "dedup recovers the true count");
        let deg = rep.degraded.unwrap();
        assert_eq!(deg.duplicates, 1);
        assert_eq!(deg.missing, 0);
        assert_eq!(deg.analyzable_fraction, 1.0);
    }
}
