//! The scenario × device (× quirk overlay) behavior matrix behind
//! `lumina-cli matrix` — the paper's actual deliverable (Table 2): the same
//! scenario graded on every registered NIC model, with cross-device
//! behavior diffs extracted from the per-cell results.
//!
//! Cells are one job list over the campaign executor
//! (`campaign::run_slots`): each worker runs a cell and grades it down to
//! its [`CellOutcome`], and the outcomes come back in column order, so the
//! assembled report is byte-identical for any `--workers` value.

pub mod differ;

use crate::campaign::{run_slots, EvalFailure};
use crate::config::{QuirksSection, TestConfig};
use crate::error::Error;
use crate::orchestrator::{run_test, TestResults};
use lumina_rnic::DeviceRegistry;
use serde::Serialize;
use std::collections::BTreeMap;

pub use differ::BehaviorDiff;

/// Parameters of one matrix sweep.
#[derive(Debug, Clone)]
pub struct MatrixParams {
    /// Device columns (registry queries). Empty = the config's
    /// `device.matrix` list, or the whole registry if that is empty too.
    pub devices: Vec<String>,
    /// Worker threads; `<= 1` runs serially on the calling thread.
    pub workers: usize,
    /// When the base config carries an active `quirks:` section, run each
    /// device twice — pristine and quirked — and diff the pairs.
    pub quirk_overlay: bool,
    /// Embed each cell's full `report_json` in the matrix report.
    pub include_reports: bool,
}

impl Default for MatrixParams {
    fn default() -> Self {
        MatrixParams {
            devices: Vec::new(),
            workers: 1,
            quirk_overlay: true,
            include_reports: false,
        }
    }
}

/// Headline numbers of one cell, extracted from the run's counters,
/// metrics and trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellMetrics {
    /// Data packets retransmitted, both devices.
    pub retransmits: u64,
    /// Local-ACK-timeout rounds burned, both devices.
    pub timeout_rounds: u64,
    /// CNPs actually on the wire (ground truth), both devices.
    pub cnps: u64,
    /// CNPs the vendor counters admit to (E810's stays stuck at 0).
    pub vendor_cnps: u64,
    /// Implied-NAK events that actually occurred (ground truth).
    pub implied_naks: u64,
    /// Implied-NAK events the vendor counters admit to (frozen on CX4 Lx).
    pub vendor_implied_naks: u64,
    /// Mean message completion time, nanoseconds (0 when nothing
    /// completed).
    pub avg_mct_ns: u64,
    /// Aggregate goodput, Gbps.
    pub goodput_gbps: f64,
    /// Messages completed / failed across all flows.
    pub msgs_completed: u64,
    /// Messages failed across all flows.
    pub msgs_failed: u64,
    /// Reconstructed trace length.
    pub trace_packets: u64,
    /// Final simulation time, nanoseconds.
    pub end_time_ns: u64,
}

/// One scenario × device (× quirk) cell of the matrix.
#[derive(Debug, Clone, Serialize)]
pub struct CellOutcome {
    /// Canonical registry name of the device under test.
    pub device: String,
    /// True for the quirk-overlay twin of a device column.
    pub quirked: bool,
    /// Conformance verdict: `compliant`, `partial` (checks skipped),
    /// `violations`, `untraced` (no mirror trace to grade) or `error`.
    pub verdict: String,
    /// Violation count per oracle class label.
    #[serde(skip_serializing_if = "BTreeMap::is_empty")]
    pub violations: BTreeMap<String, u64>,
    /// Violation count per Table-2 bug family.
    #[serde(skip_serializing_if = "BTreeMap::is_empty")]
    pub table2: BTreeMap<String, u64>,
    /// Why the cell failed to run, when it did.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Headline numbers; absent on error cells.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub metrics: Option<CellMetrics>,
    /// The cell's full per-run report, when requested.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub report: Option<serde_json::Value>,
}

/// The assembled matrix: cells in device order (quirked twin directly
/// after its baseline), then the cross-device diffs.
#[derive(Debug, Clone, Serialize)]
pub struct MatrixReport {
    /// Scenario label (config file stem, or a caller-chosen name).
    pub scenario: String,
    /// Workload seed shared by every cell.
    pub seed: u64,
    /// Canonical device names swept, in column order.
    pub devices: Vec<String>,
    /// True when a quirk overlay doubled the columns.
    pub quirk_overlay: bool,
    /// The cells.
    pub cells: Vec<CellOutcome>,
    /// Cross-device (and baseline-vs-quirked) behavior diffs.
    pub diffs: Vec<BehaviorDiff>,
}

impl MatrixReport {
    /// Machine-readable form. Deterministic: field and map order are
    /// fixed, so same-seed sweeps serialize byte-identically.
    pub fn to_json(&self) -> Result<serde_json::Value, Error> {
        serde_json::to_value(self)
            .map_err(|e| Error::internal(format!("matrix report failed to serialize: {e}")))
    }

    /// Terminal rendering: one row per cell, then the diff sentences.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "matrix: {} seed={} devices={} cells={}\n",
            self.scenario,
            self.seed,
            self.devices.len(),
            self.cells.len()
        ));
        out.push_str(&format!(
            "{:<10} {:<7} {:<11} {:>5} {:>4} {:>5} {:>11} {:>12}\n",
            "device", "quirks", "verdict", "retx", "tmo", "cnps", "avg-mct", "goodput"
        ));
        for cell in &self.cells {
            let quirks = if cell.quirked { "yes" } else { "-" };
            match (&cell.metrics, &cell.error) {
                (Some(m), _) => out.push_str(&format!(
                    "{:<10} {:<7} {:<11} {:>5} {:>4} {:>5} {:>11} {:>9.2} Gb\n",
                    cell.device,
                    quirks,
                    cell.verdict,
                    m.retransmits,
                    m.timeout_rounds,
                    m.cnps,
                    differ::fmt_ns(m.avg_mct_ns),
                    m.goodput_gbps,
                )),
                (None, err) => out.push_str(&format!(
                    "{:<10} {:<7} {:<11} {}\n",
                    cell.device,
                    quirks,
                    cell.verdict,
                    err.as_deref().unwrap_or("failed"),
                )),
            }
            if !cell.violations.is_empty() {
                let classes: Vec<String> = cell
                    .violations
                    .iter()
                    .map(|(c, n)| format!("{c} ×{n}"))
                    .collect();
                out.push_str(&format!("{:>18} {}\n", "↳", classes.join(", ")));
            }
        }
        if self.diffs.is_empty() {
            out.push_str("no cross-device behavior diffs\n");
        } else {
            out.push_str("diffs:\n");
            for d in &self.diffs {
                out.push_str(&format!("  [{}] {}\n", d.metric, d.detail));
            }
        }
        out
    }
}

/// Resolve the device columns for a sweep: explicit `devices` queries
/// first, then the config's `device.matrix` list, then the whole registry.
/// Duplicates (after canonicalization) collapse to the first occurrence.
pub fn resolve_devices(base: &TestConfig, queries: &[String]) -> Result<Vec<String>, Error> {
    let registry = DeviceRegistry::builtin();
    let queries: Vec<String> = if !queries.is_empty() {
        queries.to_vec()
    } else if let Some(d) = base.device.as_ref().filter(|d| !d.matrix.is_empty()) {
        d.matrix.clone()
    } else {
        registry.names().iter().map(|n| n.to_string()).collect()
    };
    let mut devices = Vec::new();
    for q in &queries {
        let p = registry.get(q).ok_or_else(|| {
            Error::config(format!(
                "unknown device {q:?} (available: {})",
                registry.names().join(", ")
            ))
        })?;
        if !devices.contains(&p.name) {
            devices.push(p.name);
        }
    }
    Ok(devices)
}

/// The config of one cell: the base scenario with both NICs pinned to
/// `device` through the `device:` section and the quirk overlay applied
/// (or stripped, for baseline cells).
pub fn cell_config(base: &TestConfig, device: &str, quirks: Option<QuirksSection>) -> TestConfig {
    let mut cfg = base.clone();
    let mut dev = cfg.device.take().unwrap_or_default();
    dev.requester = Some(device.to_string());
    dev.responder = Some(device.to_string());
    cfg.device = Some(dev);
    cfg.quirks = quirks;
    cfg
}

/// Run the full matrix. Deterministic for any `workers` value: execution
/// order varies, the assembled report does not.
pub fn run_matrix(
    base: &TestConfig,
    scenario: &str,
    params: &MatrixParams,
) -> Result<MatrixReport, Error> {
    base.validate()?;
    let devices = resolve_devices(base, &params.devices)?;
    let overlay = if params.quirk_overlay {
        base.quirks.clone().filter(|q| !q.is_noop())
    } else {
        None
    };

    struct Job {
        device: String,
        quirked: bool,
        cfg: TestConfig,
    }
    let mut jobs = Vec::new();
    for device in &devices {
        jobs.push(Job {
            device: device.clone(),
            quirked: false,
            cfg: cell_config(base, device, None),
        });
        if let Some(q) = &overlay {
            jobs.push(Job {
                device: device.clone(),
                quirked: true,
                cfg: cell_config(base, device, Some(q.clone())),
            });
        }
    }

    let (slots, _) = run_slots(&jobs, params.workers, |job| {
        run_test(&job.cfg)
            .map(|res| cell_outcome(&job.device, job.quirked, &res, params.include_reports))
    });
    let mut cells = Vec::with_capacity(jobs.len());
    for (job, slot) in jobs.iter().zip(slots) {
        cells.push(match slot {
            Ok(cell) => cell?,
            Err(failure) => error_cell(&job.device, job.quirked, &failure),
        });
    }
    let diffs = differ::diff_cells(&cells);
    Ok(MatrixReport {
        scenario: scenario.to_string(),
        seed: base.network.seed,
        devices,
        quirk_overlay: overlay.is_some(),
        cells,
        diffs,
    })
}

/// Grade one successful run into a cell: the run's own conformance verdict
/// (stage 5 grades every traced run), then the headline numbers.
fn cell_outcome(
    device: &str,
    quirked: bool,
    res: &TestResults,
    include_report: bool,
) -> Result<CellOutcome, Error> {
    let conf = res.conformance.as_ref();
    let verdict = match conf {
        None => "untraced",
        Some(c) if !c.violations.is_empty() => "violations",
        Some(c) if c.partial => "partial",
        Some(_) => "compliant",
    };
    let mut violations = BTreeMap::new();
    let mut table2 = BTreeMap::new();
    if let Some(c) = conf {
        for (label, n) in c.class_counts() {
            violations.insert(label.to_string(), n as u64);
        }
        for v in &c.violations {
            *table2
                .entry(v.class.table2_class().to_string())
                .or_insert(0u64) += 1;
        }
    }
    let req = &res.requester_counters;
    let rsp = &res.responder_counters;
    let completed: u64 = res
        .requester_metrics
        .flows
        .values()
        .map(|f| f.completed as u64)
        .sum();
    let failed: u64 = res
        .requester_metrics
        .flows
        .values()
        .map(|f| f.failed as u64)
        .sum();
    let metrics = CellMetrics {
        retransmits: req.retransmitted_packets + rsp.retransmitted_packets,
        timeout_rounds: req.local_ack_timeout_err + rsp.local_ack_timeout_err,
        cnps: req.truth_cnp_sent + rsp.truth_cnp_sent,
        vendor_cnps: req.np_cnp_sent + rsp.np_cnp_sent,
        implied_naks: req.truth_implied_nak_seq_err + rsp.truth_implied_nak_seq_err,
        vendor_implied_naks: req.implied_nak_seq_err + rsp.implied_nak_seq_err,
        avg_mct_ns: res.requester_metrics.avg_mct().map_or(0, |t| t.as_nanos()),
        goodput_gbps: res.requester_metrics.total_goodput_gbps(),
        msgs_completed: completed,
        msgs_failed: failed,
        trace_packets: res.trace.as_ref().map_or(0, |t| t.len()) as u64,
        end_time_ns: res.outcome.end_time().as_nanos(),
    };
    let report = if include_report {
        Some(res.report_json()?)
    } else {
        None
    };
    Ok(CellOutcome {
        device: device.to_string(),
        quirked,
        verdict: verdict.to_string(),
        violations,
        table2,
        error: None,
        metrics: Some(metrics),
        report,
    })
}

fn error_cell(device: &str, quirked: bool, failure: &EvalFailure) -> CellOutcome {
    let msg = match failure {
        EvalFailure::Error(e) => e.to_string(),
        EvalFailure::Panic(m) => format!("panic: {m}"),
    };
    CellOutcome {
        device: device.to_string(),
        quirked,
        verdict: "error".to_string(),
        violations: BTreeMap::new(),
        table2: BTreeMap::new(),
        error: Some(msg),
        metrics: None,
        report: None,
    }
}
