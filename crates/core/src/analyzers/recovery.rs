//! The liveness/recovery oracle: proves the stack *recovers* from
//! sustained data-path chaos instead of silently wedging.
//!
//! Lumina's methodology (§5) checks micro-behaviors after *single* probe
//! events; this analyzer is the complement for sustained regimes (link
//! flaps, loss bursts, pause storms — the `chaos:` section). It enforces
//! three liveness invariants over a finished run:
//!
//! 1. **Accounting** — every posted message completes or fails with a
//!    typed reason; nothing silently vanishes.
//! 2. **No stuck QP** — a QP with unacked PSNs at end-of-run must either
//!    have a live retransmission timer (still recovering) or be in the
//!    Error state (accounted as failure). Unacked + no timer + no error
//!    is a wedge that would hang forever.
//! 3. **Bounded amplification** — retransmitted data frames per chaos
//!    window may not exceed `limit × dropped` plus a small constant
//!    slack; unbounded retransmit storms are a congestion-collapse bug
//!    even when traffic eventually completes.
//!
//! A violated invariant is a *proven* liveness failure:
//! [`Error::Liveness`](crate::error::Error::Liveness), exit code 11.
//! The report also keys time-to-recovery and goodput-dip measurements to
//! each chaos window so soak campaigns can chart recovery behavior, not
//! just pass/fail.

use lumina_dumper::Trace;
use lumina_sim::{ChaosWindow, MetricSet, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Default retransmit-amplification bound (`chaos: amplification-limit`
/// absent): retransmits per window ≤ 8× the frames chaos destroyed.
pub const DEFAULT_AMPLIFICATION_LIMIT: f64 = 8.0;

/// Constant slack added to the amplification bound so timer-driven
/// retransmits of a handful of drops (or of pause-delayed ACKs) never
/// trip the oracle on their own.
pub const AMPLIFICATION_SLACK: u64 = 16;

/// End-of-run message accounting for one flow (requester-side QP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowAccount {
    /// Requester-side QPN.
    pub qpn: u32,
    /// Messages the workload plan posts on this flow.
    pub planned: u64,
    /// Messages that completed successfully.
    pub completed: u64,
    /// Messages that failed with a typed reason (retry exhaustion,
    /// flush after QP error).
    pub failed: u64,
}

/// End-of-run state of one QP, harvested from a device model after the
/// engine stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QpEndState {
    /// The QP number on its own device.
    pub qpn: u32,
    /// True for the requester-side device.
    pub requester: bool,
    /// The QP ended in the Error state (retry exhaustion — its pending
    /// work was flushed and accounted as failed).
    pub errored: bool,
    /// Unacked PSNs remain (`snd_una < snd_nxt`).
    pub unacked: bool,
    /// A retransmission timer was still conceptually armed.
    pub timer_armed: bool,
}

/// A typed, proven liveness violation. Serializes externally tagged:
/// `{"unaccounted": {...}}`, `{"stuck_qp": {...}}`, …
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum LivenessViolation {
    /// Posted messages neither completed nor failed by end-of-run.
    Unaccounted {
        /// Requester-side QPN.
        qpn: u32,
        /// Messages the plan posts.
        planned: u64,
        /// Completed successfully.
        completed: u64,
        /// Failed with a typed reason.
        failed: u64,
    },
    /// Unacked PSNs with no live timer and no error state: the QP would
    /// wait forever.
    StuckQp {
        /// The QP number on its device.
        qpn: u32,
        /// True for the requester-side device.
        requester: bool,
    },
    /// Retransmitted data frames exceeded the per-window bound.
    RetransmitAmplification {
        /// Index into [`RecoveryReport::windows`].
        window: usize,
        /// Retransmitted data frames attributed to the window.
        retransmits: u64,
        /// Frames chaos destroyed run-wide (drops + corruptions).
        destroyed: u64,
        /// The configured multiplier.
        limit: f64,
    },
}

impl LivenessViolation {
    /// One-line operator-facing description.
    pub fn describe(&self) -> String {
        match self {
            LivenessViolation::Unaccounted {
                qpn,
                planned,
                completed,
                failed,
            } => {
                let missing = planned.saturating_sub(completed.saturating_add(*failed));
                format!(
                    "qp {qpn}: {missing} of {planned} messages unaccounted \
                     ({completed} completed, {failed} failed)"
                )
            }
            LivenessViolation::StuckQp { qpn, requester } => {
                let side = if *requester { "requester" } else { "responder" };
                format!("{side} qp {qpn} stuck: unacked PSNs with no live timer")
            }
            LivenessViolation::RetransmitAmplification {
                window,
                retransmits,
                destroyed,
                limit,
            } => format!(
                "window {window}: {retransmits} retransmits for {destroyed} destroyed \
                 frames exceeds {limit}x + {AMPLIFICATION_SLACK}"
            ),
        }
    }
}

/// Recovery accounting keyed to one chaos window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowRecovery {
    /// Window start, microseconds of simulation time.
    pub from_us: u64,
    /// Window end, microseconds.
    pub until_us: u64,
    /// Data frames observed on the wire inside the window.
    pub data_packets: u64,
    /// Retransmitted data frames attributed to this window (first
    /// re-observation at or after this window's start, before the next
    /// window's start).
    pub retransmits: u64,
    /// Microseconds from window end until the first *new* PSN made
    /// forward progress on the wire; `None` = no progress observed after
    /// the window (wedged, or the window ran to the horizon).
    pub time_to_recovery_us: Option<u64>,
    /// In-window wire goodput as a fraction of the run-wide mean
    /// (1.0 = no dip, 0.0 = fully stalled).
    pub goodput_ratio: f64,
}

/// Histogram of time-to-recovery values in log₂(µs) buckets: bucket 0
/// counts instant recovery (0 µs), bucket *i* ≥ 1 counts
/// `[2^(i−1), 2^i)` µs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TtrHistogram {
    /// Bucket counts; trailing buckets absent when empty.
    pub buckets: Vec<u64>,
    /// Windows that never recovered (no forward progress after the
    /// window end).
    pub unrecovered: u64,
}

impl TtrHistogram {
    fn record(&mut self, us: u64) {
        let idx = if us == 0 {
            0
        } else {
            (u64::BITS - us.leading_zeros()) as usize
        };
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        if let Some(bucket) = self.buckets.get_mut(idx) {
            *bucket += 1;
        }
    }
}

/// Everything the oracle needs besides the trace.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOpts {
    /// The chaos windows (flap/pause/burst), sorted by start.
    pub windows: Vec<ChaosWindow>,
    /// Frames chaos destroyed run-wide: data drops plus corruptions
    /// (a corrupted frame dies at the receiver's ICRC check).
    pub destroyed: u64,
    /// Retransmit-amplification multiplier; `None` = the default bound.
    pub amplification_limit: Option<f64>,
}

/// The oracle's verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// True when every liveness invariant held.
    pub live: bool,
    /// Proven violations, in invariant order.
    pub violations: Vec<LivenessViolation>,
    /// Per-chaos-window recovery accounting.
    pub windows: Vec<WindowRecovery>,
    /// Time-to-recovery distribution across windows.
    pub ttr_histogram: TtrHistogram,
    /// Messages the workload plan posts, summed over flows.
    pub planned: u64,
    /// Messages completed, summed over flows.
    pub completed: u64,
    /// Messages failed with a typed reason, summed over flows.
    pub failed: u64,
    /// Retransmitted data frames observed run-wide.
    pub retransmits: u64,
    /// The amplification multiplier the oracle enforced.
    pub amplification_limit: f64,
}

impl MetricSet for RecoveryReport {
    fn metric_kind(&self) -> &'static str {
        "recovery"
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).unwrap_or(serde_json::Value::Null)
    }
}

/// Run the oracle. Degraded inputs are fine: a missing trace skips the
/// wire-derived measurements (windows report zero activity, amplification
/// is vacuously bounded) but the accounting and stuck-QP invariants still
/// apply — the oracle never panics on hostile traces.
pub fn analyze(
    trace: Option<&Trace>,
    flows: &[FlowAccount],
    qps: &[QpEndState],
    opts: &RecoveryOpts,
) -> RecoveryReport {
    let limit = opts
        .amplification_limit
        .filter(|l| l.is_finite() && *l > 0.0)
        .unwrap_or(DEFAULT_AMPLIFICATION_LIMIT);

    // ---- Wire walk: data packets, retransmits, forward progress ----
    // A retransmit is a (dest QP, PSN) pair re-observed on the wire;
    // forward progress is a PSN above the QP's previous high-water mark.
    let mut seen: HashMap<(u32, u32), ()> = HashMap::new();
    let mut high: HashMap<u32, u32> = HashMap::new();
    let mut data_events: Vec<(SimTime, usize)> = Vec::new(); // (time, wire len)
    let mut retrans_events: Vec<SimTime> = Vec::new();
    let mut progress_events: Vec<SimTime> = Vec::new();
    if let Some(trace) = trace {
        for e in trace.iter() {
            if !e.frame.bth.opcode.is_data() {
                continue;
            }
            let qp = e.frame.bth.dest_qp;
            let psn = e.frame.bth.psn;
            data_events.push((e.timestamp, e.orig_len));
            if seen.insert((qp, psn), ()).is_some() {
                retrans_events.push(e.timestamp);
            }
            match high.get(&qp) {
                Some(&h) if psn <= h => {}
                _ => {
                    high.insert(qp, psn);
                    progress_events.push(e.timestamp);
                }
            }
        }
    }

    // ---- Per-window accounting ----
    // A retransmit is attributed to the most recent window that had
    // started when it hit the wire: recovery traffic follows the fault
    // that caused it, it does not precede it.
    let total_bytes: u64 = data_events.iter().map(|&(_, len)| len as u64).sum();
    let span_ns = match (data_events.first(), data_events.last()) {
        (Some(&(a, _)), Some(&(b, _))) if b > a => b.as_nanos() - a.as_nanos(),
        _ => 0,
    };
    let mean_rate = if span_ns > 0 {
        total_bytes as f64 / span_ns as f64
    } else {
        0.0
    };
    let mut windows: Vec<WindowRecovery> = Vec::new();
    let mut ttr_histogram = TtrHistogram::default();
    for (i, w) in opts.windows.iter().enumerate() {
        let next_start = opts.windows.get(i + 1).map(|n| n.from);
        let in_window = |t: SimTime| w.contains(t);
        let attributed = |t: SimTime| t >= w.from && next_start.is_none_or(|n| t < n);
        let data_packets = data_events.iter().filter(|&&(t, _)| in_window(t)).count() as u64;
        let window_bytes: u64 = data_events
            .iter()
            .filter(|&&(t, _)| in_window(t))
            .map(|&(_, len)| len as u64)
            .sum();
        let retransmits = retrans_events.iter().filter(|&&t| attributed(t)).count() as u64;
        let time_to_recovery_us = progress_events
            .iter()
            .find(|&&t| t >= w.until)
            .map(|t| t.saturating_since(w.until).as_nanos() / 1_000);
        match time_to_recovery_us {
            Some(us) => ttr_histogram.record(us),
            None => ttr_histogram.unrecovered += 1,
        }
        let duration_ns = w.until.saturating_since(w.from).as_nanos();
        let goodput_ratio = if mean_rate > 0.0 && duration_ns > 0 {
            (window_bytes as f64 / duration_ns as f64) / mean_rate
        } else {
            0.0
        };
        windows.push(WindowRecovery {
            from_us: w.from.as_nanos() / 1_000,
            until_us: w.until.as_nanos() / 1_000,
            data_packets,
            retransmits,
            time_to_recovery_us,
            goodput_ratio,
        });
    }

    // ---- Invariants ----
    let mut violations = Vec::new();
    for f in flows {
        if f.completed.saturating_add(f.failed) < f.planned {
            violations.push(LivenessViolation::Unaccounted {
                qpn: f.qpn,
                planned: f.planned,
                completed: f.completed,
                failed: f.failed,
            });
        }
    }
    for qp in qps {
        if qp.unacked && !qp.timer_armed && !qp.errored {
            violations.push(LivenessViolation::StuckQp {
                qpn: qp.qpn,
                requester: qp.requester,
            });
        }
    }
    let bound = limit * opts.destroyed as f64 + AMPLIFICATION_SLACK as f64;
    for (i, w) in windows.iter().enumerate() {
        if w.retransmits as f64 > bound {
            violations.push(LivenessViolation::RetransmitAmplification {
                window: i,
                retransmits: w.retransmits,
                destroyed: opts.destroyed,
                limit,
            });
        }
    }

    RecoveryReport {
        live: violations.is_empty(),
        violations,
        windows,
        ttr_histogram,
        // Saturating folds: end-of-run accounting is analyzer input, and
        // a hostile harvest must degrade to a clamped total, not a panic.
        planned: flows.iter().fold(0u64, |a, f| a.saturating_add(f.planned)),
        completed: flows
            .iter()
            .fold(0u64, |a, f| a.saturating_add(f.completed)),
        failed: flows.iter().fold(0u64, |a, f| a.saturating_add(f.failed)),
        retransmits: retrans_events.len() as u64,
        amplification_limit: limit,
    }
}

impl RecoveryReport {
    /// One-line summary of every violation, for `Error::Liveness`.
    pub fn violation_summary(&self) -> String {
        self.violations
            .iter()
            .map(|v| v.describe())
            .collect::<Vec<_>>()
            .join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumina_dumper::trace::TraceEntry;
    use lumina_packet::builder::DataPacketBuilder;
    use lumina_packet::opcode::Opcode;
    use lumina_switch::events::EventType;

    fn window(from_us: u64, until_us: u64) -> ChaosWindow {
        ChaosWindow {
            from: SimTime::from_micros(from_us),
            until: SimTime::from_micros(until_us),
        }
    }

    fn data_entry(seq: u64, at_us: u64, qp: u32, psn: u32) -> TraceEntry {
        let frame = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteOnly)
            .dest_qp(qp)
            .psn(psn)
            .payload_len(64)
            .build();
        TraceEntry {
            seq,
            timestamp: SimTime::from_micros(at_us),
            event: EventType::None,
            frame,
            orig_len: 1024,
        }
    }

    fn trace_of(entries: Vec<TraceEntry>) -> Trace {
        Trace { entries }
    }

    #[test]
    fn clean_accounting_is_live() {
        let flows = [FlowAccount {
            qpn: 1,
            planned: 10,
            completed: 9,
            failed: 1,
        }];
        let rep = analyze(None, &flows, &[], &RecoveryOpts::default());
        assert!(rep.live);
        assert!(rep.violations.is_empty());
        assert_eq!(rep.planned, 10);
        assert_eq!(rep.completed, 9);
        assert_eq!(rep.failed, 1);
    }

    #[test]
    fn unaccounted_messages_are_a_violation() {
        let flows = [FlowAccount {
            qpn: 2,
            planned: 10,
            completed: 3,
            failed: 0,
        }];
        let rep = analyze(None, &flows, &[], &RecoveryOpts::default());
        assert!(!rep.live);
        assert_eq!(rep.violations.len(), 1);
        let desc = rep.violation_summary();
        assert!(desc.contains("qp 2"), "{desc}");
        assert!(desc.contains("7 of 10"), "{desc}");
    }

    #[test]
    fn stuck_qp_needs_unacked_and_no_timer_and_no_error() {
        let stuck = QpEndState {
            qpn: 3,
            requester: true,
            errored: false,
            unacked: true,
            timer_armed: false,
        };
        let recovering = QpEndState {
            timer_armed: true,
            ..stuck
        };
        let errored = QpEndState {
            errored: true,
            ..stuck
        };
        let idle = QpEndState {
            unacked: false,
            ..stuck
        };
        let rep = analyze(
            None,
            &[],
            &[stuck, recovering, errored, idle],
            &RecoveryOpts::default(),
        );
        assert_eq!(rep.violations.len(), 1);
        assert!(matches!(
            rep.violations[0],
            LivenessViolation::StuckQp {
                qpn: 3,
                requester: true
            }
        ));
    }

    #[test]
    fn amplification_bound_trips_only_past_limit_plus_slack() {
        // 40 retransmits of the same PSN inside the window, 2 destroyed
        // frames, limit 2×: bound = 2*2 + 16 = 20 < 40 → violation.
        let mut entries = vec![data_entry(0, 5, 1, 1)];
        for i in 0..40u64 {
            entries.push(data_entry(1 + i, 12 + i, 1, 1));
        }
        let trace = trace_of(entries);
        let opts = RecoveryOpts {
            windows: vec![window(10, 60)],
            destroyed: 2,
            amplification_limit: Some(2.0),
        };
        let rep = analyze(Some(&trace), &[], &[], &opts);
        assert!(!rep.live);
        assert!(matches!(
            rep.violations[0],
            LivenessViolation::RetransmitAmplification {
                retransmits: 40,
                destroyed: 2,
                ..
            }
        ));
        // Same trace under the default 8× bound: 8*2+16 = 32 < 40 still
        // trips; with generous destroyed count it passes.
        let ok = analyze(
            Some(&trace),
            &[],
            &[],
            &RecoveryOpts {
                destroyed: 40,
                ..opts
            },
        );
        assert!(ok.live, "{:?}", ok.violations);
    }

    #[test]
    fn windows_key_ttr_and_goodput_dip() {
        // Steady progress 0..20 µs, silence through the 20–40 µs window,
        // recovery at 47 µs.
        let mut entries: Vec<TraceEntry> =
            (0..20).map(|i| data_entry(i, i, 1, i as u32 + 1)).collect();
        entries.push(data_entry(20, 47, 1, 21));
        let trace = trace_of(entries);
        let opts = RecoveryOpts {
            windows: vec![window(20, 40)],
            ..RecoveryOpts::default()
        };
        let rep = analyze(Some(&trace), &[], &[], &opts);
        assert_eq!(rep.windows.len(), 1);
        let w = &rep.windows[0];
        assert_eq!(w.data_packets, 0);
        assert_eq!(w.time_to_recovery_us, Some(7));
        assert!(
            w.goodput_ratio < 0.05,
            "stalled window: {}",
            w.goodput_ratio
        );
        // 7 µs lands in the [4, 8) bucket — index 3.
        assert_eq!(rep.ttr_histogram.buckets.get(3), Some(&1));
        assert_eq!(rep.ttr_histogram.unrecovered, 0);
    }

    #[test]
    fn window_running_to_horizon_counts_as_unrecovered() {
        let trace = trace_of(vec![data_entry(0, 5, 1, 1)]);
        let opts = RecoveryOpts {
            windows: vec![window(10, 1_000)],
            ..RecoveryOpts::default()
        };
        let rep = analyze(Some(&trace), &[], &[], &opts);
        assert_eq!(rep.windows[0].time_to_recovery_us, None);
        assert_eq!(rep.ttr_histogram.unrecovered, 1);
    }

    #[test]
    fn report_serializes_and_round_trips() {
        let flows = [FlowAccount {
            qpn: 1,
            planned: 4,
            completed: 1,
            failed: 0,
        }];
        let rep = analyze(None, &flows, &[], &RecoveryOpts::default());
        let json = serde_json::to_value(&rep).unwrap();
        assert_eq!(json["live"], serde_json::Value::Bool(false));
        let back: RecoveryReport = serde_json::from_value(json).unwrap();
        assert_eq!(back, rep);
        assert_eq!(rep.metric_kind(), "recovery");
        assert!(rep.snapshot().as_object().is_some());
    }
}
