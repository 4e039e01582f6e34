//! `lumina-cli trace`: the per-hop latency dissection of a traced run,
//! graded against the config's `trace.hop-budget-us`, and the flight
//! recorder as Chrome trace-event JSON for Perfetto.

use super::line;
use crate::analyzers::latency::{self, LatencyReport};
use crate::error::Error;
use crate::orchestrator::{node_names, section, TestResults};
use lumina_sim::telemetry::trace::perfetto_json;
use lumina_sim::telemetry::{Histogram, TraceSummary};

/// Everything `lumina-cli trace` reports about one run.
pub struct TraceReport<'a> {
    results: &'a TestResults,
    summary: TraceSummary,
    /// `None` when the config declares no budget: nothing to grade.
    latency: Option<LatencyReport>,
}

impl<'a> TraceReport<'a> {
    /// Dissect the flight recorder of `results` and grade it against the
    /// budgets of the configuration that produced the run.
    pub fn of(results: &'a TestResults) -> TraceReport<'a> {
        let summary = results.trace_summary();
        let budgets = results.cfg.trace.as_ref().map(|t| &t.hop_budget_us);
        let latency = budgets
            .filter(|b| !b.is_empty())
            .map(|b| latency::analyze(&summary, b));
        TraceReport {
            results,
            summary,
            latency,
        }
    }

    /// [`TestResults::report_json`], with the latency verdict attached
    /// when a budget was declared.
    pub fn to_json(&self) -> Result<serde_json::Value, Error> {
        let mut report = self.results.report_json()?;
        if let Some(verdict) = &self.latency {
            report["latency"] = section("latency verdict", verdict)?;
        }
        Ok(report)
    }

    /// The dissection as an aligned table, one row per sampled hop, and
    /// one `latency budgets` line per finding.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        line(&mut out, "trace packets", self.summary.packets());
        let (records, dropped) = self
            .results
            .telemetry
            .with_recorder(|r| (r.len(), r.dropped()));
        line(
            &mut out,
            "trace records",
            format_args!("{records} retained, {dropped} evicted"),
        );
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {:>12}\n",
            "hop", "count", "mean ns", "p99 ns"
        ));
        for hop in self.summary.hop_names() {
            if let Some(h) = self.summary.hop_histogram(hop) {
                hop_row(&mut out, hop, h);
            }
        }
        if self.summary.end_to_end().count() > 0 {
            hop_row(&mut out, latency::END_TO_END, self.summary.end_to_end());
        }
        if let Some(verdict) = &self.latency {
            if verdict.passed() {
                line(&mut out, "latency budgets", "all within budget");
            }
            for v in verdict.violations() {
                line(
                    &mut out,
                    "latency budgets",
                    format_args!(
                        "{} p99 {} ns OVER budget {} ns",
                        v.hop, v.p99_ns, v.budget_ns
                    ),
                );
            }
            for hop in &verdict.unmatched {
                line(
                    &mut out,
                    "latency budgets",
                    format_args!("{hop} has no samples (typo?)"),
                );
            }
        }
        out
    }

    /// The Perfetto document — one track per simulation node, named by
    /// [`node_names`] — and the number of trace events in it.
    pub fn perfetto(&self) -> (String, usize) {
        let names = node_names(&self.results.cfg);
        let doc = self
            .results
            .telemetry
            .with_recorder(|r| perfetto_json(r, &names));
        let events = doc["traceEvents"].as_array().map_or(0, Vec::len);
        (doc.to_string(), events)
    }

    /// True unless a declared budget was exceeded or matched no hop.
    pub fn passed(&self) -> bool {
        self.latency.as_ref().is_none_or(LatencyReport::passed)
    }
}

/// One `hop  count  mean  p99` row of the dissection table.
fn hop_row(out: &mut String, hop: &str, h: &Histogram) {
    let mean = if h.count() > 0 {
        h.sum() / h.count()
    } else {
        0
    };
    let p99 = h.quantile_lower_bound(0.99).unwrap_or(0);
    out.push_str(&format!(
        "{hop:<24} {:>8} {mean:>12} {p99:>12}\n",
        h.count()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestConfig;
    use crate::orchestrator::run_test;

    /// A traced two-message run under the given `hop-budget-us` map.
    fn traced_run(budgets: &str) -> TestResults {
        let cfg = TestConfig::from_yaml(&format!(
            r#"
requester: {{ nic-type: cx5 }}
responder: {{ nic-type: cx5 }}
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 4096
trace:
  hop-budget-us: {budgets}
"#
        ))
        .unwrap();
        run_test(&cfg).unwrap()
    }

    #[test]
    fn no_budget_declared_passes_and_prints_no_verdict() {
        let results = traced_run("{}");
        let report = TraceReport::of(&results);
        assert!(report.passed());
        let text = report.render_human();
        assert!(text.starts_with("trace packets   : "), "{text}");
        assert!(text.contains("\nlink.ingress "), "{text}");
        assert!(text.contains("\nend_to_end "), "{text}");
        assert!(!text.contains("latency budgets"), "{text}");
        assert!(report.to_json().unwrap().get("latency").is_none());
    }

    #[test]
    fn budgets_are_graded_in_both_renderings() {
        // No packet crosses the testbed in a microsecond; no hop is called
        // `nosuch.hop`.
        let results = traced_run("{end_to_end: 1, nosuch.hop: 5}");
        let report = TraceReport::of(&results);
        assert!(!report.passed());
        let text = report.render_human();
        assert!(text.contains("latency budgets : end_to_end p99 "), "{text}");
        assert!(text.contains(" ns OVER budget 1000 ns\n"), "{text}");
        let typo = "latency budgets : nosuch.hop has no samples (typo?)\n";
        assert!(text.contains(typo), "{text}");
        assert!(!text.contains("all within budget"), "{text}");
        let doc = report.to_json().unwrap();
        assert_eq!(doc["latency"]["hops"][0]["over_budget"], true);
        assert_eq!(doc["latency"]["unmatched"][0], "nosuch.hop");

        let within = traced_run("{end_to_end: 1000000}");
        let report = TraceReport::of(&within);
        assert!(report.passed());
        let text = report.render_human();
        assert!(
            text.ends_with("latency budgets : all within budget\n"),
            "{text}"
        );
    }

    #[test]
    fn perfetto_names_one_track_per_node() {
        let results = traced_run("{}");
        let (text, events) = TraceReport::of(&results).perfetto();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let all = doc["traceEvents"].as_array().unwrap();
        assert_eq!(all.len(), events);
        let tracks: Vec<_> = all
            .iter()
            .filter(|e| e["ph"] == "M")
            .map(|e| {
                (
                    e["tid"].as_u64().unwrap(),
                    e["args"]["name"].as_str().unwrap(),
                )
            })
            .collect();
        // The default pool is three dumpers.
        let want = [
            (0, "requester"),
            (1, "responder"),
            (2, "switch"),
            (3, "dumper-0"),
            (4, "dumper-1"),
            (5, "dumper-2"),
        ];
        assert_eq!(tracks, want);
        assert!(events > tracks.len(), "no packet legs in {events} events");
    }
}
