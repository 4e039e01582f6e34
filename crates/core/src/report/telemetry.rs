//! `lumina-cli telemetry`: the event journal, the per-node metric registry
//! and the frame-plane counters of one run — byte-identical across
//! same-seed runs — plus the wall-clock self-profile, which is not.

use super::journal_dropped;
use crate::error::Error;
use crate::orchestrator::{section, TestResults};
use serde_json::Value;

/// Everything `lumina-cli telemetry` prints about one run.
pub struct TelemetryReport<'a> {
    results: &'a TestResults,
}

impl<'a> TelemetryReport<'a> {
    /// Report on the telemetry `results` recorded.
    pub fn of(results: &'a TestResults) -> TelemetryReport<'a> {
        TelemetryReport { results }
    }

    /// One machine-readable document: journal, metrics, frame plane.
    pub fn to_json(&self) -> Result<Value, Error> {
        let tel = &self.results.telemetry;
        let journal: Vec<Value> = tel
            .journal_jsonl()
            .lines()
            .filter_map(|l| serde_json::from_str(l).ok())
            .collect();
        Ok(serde_json::json!({
            "journal": journal,
            "metrics": (tel.deterministic_snapshot()),
            "frames": (section("frame stats", &self.results.frame_stats)?),
        }))
    }

    /// The journal as JSON Lines, then the registry and the frame-plane
    /// allocation/copy accounting as one aligned table.
    pub fn render_human(&self) -> Result<String, Error> {
        let tel = &self.results.telemetry;
        let snap = tel.deterministic_snapshot();
        let mut out = tel.journal_jsonl();
        out.push_str("--- metrics ---\n");
        if let Some(global) = snap.get("global").and_then(Value::as_object) {
            for (kind, set) in global {
                out.push_str(&format!("global [{kind}]\n"));
                metric_rows(&mut out, "", set);
            }
        }
        if let Some(nodes) = snap.get("nodes").and_then(Value::as_object) {
            for (node, sections) in nodes {
                for (kind, set) in sections.as_object().into_iter().flatten() {
                    out.push_str(&format!("node {node} [{kind}]\n"));
                    metric_rows(&mut out, "", set);
                }
            }
        }
        out.push_str("global [frames]\n");
        let frames = section("frame stats", &self.results.frame_stats)?;
        metric_rows(&mut out, "", &frames);
        journal_dropped(&mut out, tel);
        Ok(out)
    }

    /// The wall-clock self-profile (stderr: it differs run to run), then
    /// its headline numbers so nobody has to eyeball the JSON blob: the
    /// sustained event rate and the run's two pressure gauges.
    pub fn render_profile(&self) -> String {
        let tel = &self.results.telemetry;
        tel.with_profile(|p| p.finish());
        let profile = tel.with_profile(|p| p.to_json());
        let stat = |k: &str| profile.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        format!(
            "self-profile: {profile}\n\
             self-profile: {:.0} events/sec, queue-depth hwm {}, peak live frames {}\n",
            stat("events_per_sec"),
            stat("queue_depth_hwm") as u64,
            stat("peak_live_frames") as u64,
        )
    }
}

/// Flatten one metrics subtree into `section.name : value` table rows.
fn metric_rows(out: &mut String, prefix: &str, v: &Value) {
    match v {
        Value::Object(m) => {
            for (k, val) in m {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                metric_rows(out, &key, val);
            }
        }
        other => out.push_str(&format!("  {prefix:<44} : {other}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestConfig;
    use crate::orchestrator::run_test;

    fn tiny_run() -> TestResults {
        let cfg = TestConfig::from_yaml(
            r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 4096
  data-pkt-events:
    - {qpn: 1, psn: 2, type: drop, iter: 1}
"#,
        )
        .unwrap();
        run_test(&cfg).unwrap()
    }

    #[test]
    fn human_rendering_is_journal_then_tables() {
        let results = tiny_run();
        let text = TelemetryReport::of(&results).render_human().unwrap();
        let (journal, tables) = text.split_once("--- metrics ---\n").unwrap();
        assert_eq!(journal, results.telemetry.journal_jsonl());
        assert!(journal.lines().count() > 0 && journal.lines().all(|l| l.starts_with('{')));
        // The frame plane is the last table, one row per counter.
        let (_, frames) = tables.split_once("global [frames]\n").unwrap();
        let copied = format!(
            "  {:<44} : {}",
            "bytes_copied", results.frame_stats.bytes_copied
        );
        assert_eq!(frames.lines().count(), 6, "{frames}");
        assert_eq!(frames.lines().nth(2), Some(copied.as_str()));
        // The ring held this run: no overflow line.
        assert!(!text.contains("journal dropped"));
    }

    #[test]
    fn json_document_has_journal_metrics_and_frames() {
        let results = tiny_run();
        let doc = TelemetryReport::of(&results).to_json().unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["journal", "metrics", "frames"]);
        let journal = doc["journal"].as_array().unwrap();
        assert_eq!(journal.len(), results.telemetry.journal_len());
        assert_eq!(doc["metrics"], results.telemetry.deterministic_snapshot());
        let frames: Vec<&str> = doc["frames"]
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        let want = [
            "frames_allocated",
            "bytes_allocated",
            "bytes_copied",
            "frames_shared",
            "bytes_shared",
            "peak_live_frames",
        ];
        assert_eq!(frames, want);
    }

    #[test]
    fn profile_is_a_blob_line_and_a_headline() {
        let results = tiny_run();
        let text = TelemetryReport::of(&results).render_profile();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        let blob = lines[0].strip_prefix("self-profile: ").unwrap();
        assert!(serde_json::from_str::<Value>(blob).is_ok(), "{blob}");
        assert!(lines[1].starts_with("self-profile: ") && lines[1].contains(" events/sec, "));
    }
}
