//! What the subcommands print. [`RunReport`] is the single-run report
//! (`lumina-cli <test.yaml>`): the orchestrator's Table-1 summary plus the
//! §4 analyzers, each run once, with the machine and human renderings and
//! the exit verdict read off the same values. [`TelemetryReport`],
//! [`TraceReport`] and [`FuzzReport`] do the same for their subcommands.
//! Plain structs holding a borrow, not a report trait: DESIGN.md §4 "Run
//! pipeline" says why.

mod fuzz;
mod telemetry;
mod trace;

pub use fuzz::{anomaly_line, load_corpus, FuzzReport};
pub use telemetry::TelemetryReport;
pub use trace::TraceReport;

use crate::analyzers::{
    cnp, counter, retrans_perf, CnpReport, ConformanceReport, CounterFinding, GbnReport,
    RecoveryReport, RetransBreakdown,
};
use crate::error::Error;
use crate::orchestrator::{section, TestResults};
use std::fmt::Display;

/// The analyzers that need a reconstructed trace.
struct TraceSections {
    gbn: GbnReport,
    retransmissions: Vec<RetransBreakdown>,
    cnp: CnpReport,
}

/// Everything `lumina-cli <test.yaml>` reports about one run.
pub struct RunReport<'a> {
    results: &'a TestResults,
    /// `None` for a traceless run (mirroring off).
    traced: Option<TraceSections>,
    counter_findings: Vec<CounterFinding>,
    /// Every run that produced a trace is graded against the RC reference
    /// FSM, quirk-injected or not.
    conformance: Option<ConformanceReport>,
}

impl<'a> RunReport<'a> {
    /// Run every analyzer over `results`. The RC replay (the conformance
    /// verdict and its Go-back-N view) runs at most once: not at all when
    /// the run already graded itself (stage 5 of a quirk-injected run).
    pub fn of(results: &'a TestResults) -> RunReport<'a> {
        let (conformance, gbn) = match &results.conformance {
            Some(conf) => (Some(conf.clone()), results.replayed.clone().map(|r| r.0)),
            None => results.replay().map(|(conf, (gbn, _))| (conf, gbn)).unzip(),
        };
        RunReport {
            results,
            traced: results
                .trace
                .as_ref()
                .zip(gbn)
                .map(|(trace, gbn)| TraceSections {
                    gbn,
                    retransmissions: retrans_perf::analyze(trace, &results.conns),
                    cnp: cnp::analyze(trace),
                }),
            counter_findings: counter::analyze(results),
            conformance,
        }
    }

    /// The machine-readable report: [`TestResults::report_json`] with the
    /// analyzer sections attached.
    pub fn to_json(&self) -> Result<serde_json::Value, Error> {
        let mut report = self.results.report_json()?;
        // Trace-based analyzers run on a partial trace when the capture
        // was damaged; flag their confidence so consumers can tell.
        if self.results.integrity.is_degraded() {
            report["analyzer_confidence"] = serde_json::json!({
                "gbn_fsm": "degraded",
                "retransmissions": "degraded",
                "cnp": "degraded",
                "counter": "full",
            });
        }
        if let Some(t) = &self.traced {
            report["gbn_compliant"] = serde_json::json!(t.gbn.compliant());
            report["gbn_violations"] = serde_json::json!(t.gbn.violations());
            report["retransmissions"] = section("retransmissions", &t.retransmissions)?;
            report["cnp_total"] = serde_json::json!(t.cnp.total_cnps);
            report["ce_marked"] = serde_json::json!(t.cnp.total_ce_marked);
        }
        report["counter_findings"] = section("counter findings", &self.counter_findings)?;
        // Quirk-injected runs already carry their verdict.
        if let (None, Some(conf)) = (&self.results.conformance, &self.conformance) {
            report["conformance"] = section("conformance report", conf)?;
        }
        Ok(report)
    }

    /// The human-readable report, in the CLI's aligned-table style.
    pub fn render_human(&self) -> String {
        let r = self.results;
        let mut out = String::new();
        line(&mut out, "finished at", r.outcome.end_time());
        line(&mut out, "traffic complete", r.traffic_completed());
        // The live report counts the gap spans it lists (the first 16).
        let listed_gaps = r.integrity.degraded.as_ref().map_or(0, |d| d.gaps.len());
        line(
            &mut out,
            "integrity",
            r.integrity.status_line(listed_gaps as u64),
        );
        for d in &r.integrity.details {
            note(&mut out, d);
        }
        if r.integrity.is_degraded() {
            note(
                &mut out,
                "trace-based analyzers below ran on a partial trace (low confidence)",
            );
        }
        line(
            &mut out,
            "events",
            format_args!("{} fired, {} unfired", r.events_fired, r.events_unfired),
        );
        if let (Some(trace), Some(t)) = (&r.trace, &self.traced) {
            line(&mut out, "trace packets", trace.len());
            let verdict = if t.gbn.compliant() {
                "compliant"
            } else {
                "VIOLATIONS"
            };
            line(&mut out, "go-back-N FSM", verdict);
            for v in t.gbn.violations() {
                note(&mut out, v);
            }
            for b in &t.retransmissions {
                line(
                    &mut out,
                    "retransmission",
                    format_args!(
                        "conn {} psn {} {:?} total {}",
                        b.conn_index,
                        b.dropped_psn,
                        b.kind,
                        b.total()
                    ),
                );
            }
        }
        for f in &self.counter_findings {
            line(
                &mut out,
                "counter finding",
                format_args!("{} {} — {}", f.host, f.counter, f.detail),
            );
        }
        if let Some(conf) = &self.conformance {
            out.push_str(&conf.render_human());
        }
        if let Some(qs) = &r.quirk_stats {
            line(
                &mut out,
                "quirks injected",
                format_args!("{} misbehaviors fired", qs.total()),
            );
        }
        if let Some(rec) = &r.recovery {
            render_recovery(&mut out, rec);
        }
        for c in &r.conns {
            let Some(fm) = r.requester_metrics.flows.get(&c.requester.qpn) else {
                continue;
            };
            // (One column short of the other rows, as it always was.)
            out.push_str(&format!(
                "conn {:>3}       : {}/{} msgs, goodput {:.2} Gbps, avg MCT {}\n",
                c.index,
                fm.completed,
                fm.completed + fm.failed,
                fm.goodput_gbps(),
                fm.avg_mct()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into()),
            ));
        }
        journal_dropped(&mut out, &r.telemetry);
        out
    }

    /// What the run amounts to, in the CLI's exit precedence 11 > 1 > 9 >
    /// 0: a proven liveness failure, then `Ok(false)` for a run that
    /// completed but failed (traffic incomplete or integrity), then proven
    /// spec violations, then `Ok(true)`.
    pub fn verdict(&self) -> Result<bool, Error> {
        let r = self.results;
        // A proven liveness failure outranks the generic failure: chaos
        // runs leave traffic incomplete by construction, and the oracle's
        // typed verdict — not "traffic incomplete" — is the story.
        if let Some(rec) = r.recovery.as_ref().filter(|rec| !rec.live) {
            return Err(Error::Liveness(rec.violation_summary()));
        }
        if !r.traffic_completed() || (r.trace.is_some() && !r.integrity.passed()) {
            return Ok(false);
        }
        // A healthy run with proven spec violations is its own failure
        // class: deterministic (same seed, same verdict), distinct from
        // flaky infra.
        match self.conformance.as_ref().filter(|conf| !conf.compliant) {
            Some(conf) => Err(Error::Violations(conf.class_summary())),
            None => Ok(true),
        }
    }
}

/// One `key             : value` row of a human report.
pub(crate) fn line(out: &mut String, key: &str, value: impl Display) {
    out.push_str(&format!("{key:<16}: {value}\n"));
}

/// The journal is a ring: say so when it overflowed (`run` and `telemetry`).
fn journal_dropped(out: &mut String, log: &lumina_sim::telemetry::EventLog) {
    let dropped = log.journal_dropped();
    if dropped > 0 {
        line(
            out,
            "journal dropped",
            format_args!("{dropped} (ring full)"),
        );
    }
}

/// One `  !! detail` row under the line it qualifies.
pub(crate) fn note(out: &mut String, detail: impl Display) {
    out.push_str(&format!("  !! {detail}\n"));
}

/// The liveness/recovery oracle's block (chaos-injected runs only).
fn render_recovery(out: &mut String, rec: &RecoveryReport) {
    let plural = if rec.windows.len() == 1 { "" } else { "s" };
    line(
        out,
        "recovery",
        format_args!(
            "{} ({} chaos window{plural}, {} retransmits)",
            if rec.live {
                "live"
            } else {
                "LIVENESS VIOLATIONS"
            },
            rec.windows.len(),
            rec.retransmits,
        ),
    );
    for w in &rec.windows {
        out.push_str(&format!(
            "  window {}–{}µs : {} pkts, {} retrans, ttr {}, goodput ×{:.2}\n",
            w.from_us,
            w.until_us,
            w.data_packets,
            w.retransmits,
            w.time_to_recovery_us
                .map(|t| format!("{t}µs"))
                .unwrap_or_else(|| "unrecovered".into()),
            w.goodput_ratio,
        ));
    }
    for v in &rec.violations {
        note(out, v.describe());
    }
}
