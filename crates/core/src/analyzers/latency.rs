//! Latency analyzer: judge the per-hop dissection of a traced run
//! against configured budgets.
//!
//! The `trace:` section may name hops (see
//! [`hops`](lumina_sim::telemetry::trace::hops)) with a budget in
//! microseconds; this analyzer compares each budget against the
//! approximate p99 of the matching latency histogram and flags every
//! hop that runs over. The special key `end_to_end` budgets the whole
//! first-record→last-record lifetime instead of a single hop.

use lumina_sim::telemetry::TraceSummary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Budget key naming the end-to-end histogram rather than one hop.
pub const END_TO_END: &str = "end_to_end";

/// One budgeted hop's verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HopVerdict {
    /// Hop name (or [`END_TO_END`]).
    pub hop: String,
    /// Approximate p99 latency into this hop, nanoseconds.
    pub p99_ns: u64,
    /// Configured budget, nanoseconds.
    pub budget_ns: u64,
    /// True when p99 exceeds the budget.
    pub over_budget: bool,
}

/// Whole-run latency verdict.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyReport {
    /// One verdict per budget that matched a sampled histogram,
    /// hop-name ascending.
    pub hops: Vec<HopVerdict>,
    /// Budget keys that matched no sampled hop — usually a typo in the
    /// config, surfaced rather than silently passed.
    pub unmatched: Vec<String>,
}

impl LatencyReport {
    /// True when every budgeted hop is within budget and every budget
    /// matched a histogram.
    pub fn passed(&self) -> bool {
        self.unmatched.is_empty() && self.hops.iter().all(|h| !h.over_budget)
    }

    /// Budgeted hops that ran over.
    pub fn violations(&self) -> impl Iterator<Item = &HopVerdict> {
        self.hops.iter().filter(|h| h.over_budget)
    }
}

/// Compare `budgets_us` (hop → budget in µs) against the dissection.
pub fn analyze(summary: &TraceSummary, budgets_us: &BTreeMap<String, u64>) -> LatencyReport {
    let mut report = LatencyReport::default();
    for (hop, budget_us) in budgets_us {
        let p99 = if hop == END_TO_END {
            summary.end_to_end.quantile_lower_bound(0.99)
        } else {
            summary.hop_p99_ns(hop)
        };
        let budget_ns = budget_us.saturating_mul(1_000);
        match p99 {
            Some(p99_ns) => report.hops.push(HopVerdict {
                hop: hop.clone(),
                p99_ns,
                budget_ns,
                over_budget: p99_ns > budget_ns,
            }),
            None => report.unmatched.push(hop.clone()),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumina_sim::telemetry::trace::hops;
    use lumina_sim::Telemetry;

    fn summary() -> TraceSummary {
        let tel = Telemetry::enabled();
        tel.enable_tracing(64, 0);
        // One packet: 500 ns to egress, 2000 ns flight, 500 ns forward.
        tel.record_hop(0, hops::GEN_ENQUEUE, 0, 1_000);
        tel.record_hop(0, hops::LINK_EGRESS, 0, 1_500);
        tel.record_hop(0, hops::LINK_INGRESS, 2, 3_500);
        tel.record_hop(0, hops::SWITCH_FORWARD, 2, 4_000);
        TraceSummary::from_log(&tel.into_log())
    }

    #[test]
    fn flags_only_hops_over_budget() {
        let s = summary();
        let mut budgets = BTreeMap::new();
        budgets.insert(hops::LINK_INGRESS.to_string(), 1); // 1 µs < 2 µs flight
        budgets.insert(hops::SWITCH_FORWARD.to_string(), 10); // plenty
        let rep = analyze(&s, &budgets);
        assert!(!rep.passed());
        let over: Vec<&str> = rep.violations().map(|v| v.hop.as_str()).collect();
        assert_eq!(over, vec![hops::LINK_INGRESS]);
        assert_eq!(rep.hops.len(), 2);
        assert!(rep.unmatched.is_empty());
    }

    #[test]
    fn end_to_end_budget_and_unmatched_keys() {
        let s = summary();
        let mut budgets = BTreeMap::new();
        budgets.insert(END_TO_END.to_string(), 1); // 1 µs < 3 µs lifetime
        budgets.insert("no.such.hop".to_string(), 1);
        let rep = analyze(&s, &budgets);
        assert!(!rep.passed());
        assert_eq!(rep.unmatched, vec!["no.such.hop".to_string()]);
        assert_eq!(rep.hops.len(), 1);
        assert!(rep.hops[0].over_budget);
    }

    #[test]
    fn generous_budgets_pass() {
        let s = summary();
        let mut budgets = BTreeMap::new();
        budgets.insert(END_TO_END.to_string(), 1_000);
        let rep = analyze(&s, &budgets);
        assert!(rep.passed());
        assert_eq!(rep.violations().count(), 0);
    }
}
