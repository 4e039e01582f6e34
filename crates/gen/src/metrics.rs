//! Application-level metrics: goodput and message completion times.

use lumina_sim::telemetry::Histogram;
use lumina_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-flow (per-QP) metrics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowMetrics {
    /// Completion time of each message (completion − post), in order.
    pub mcts: Vec<SimTime>,
    /// Messages completed successfully.
    pub completed: u32,
    /// Messages that failed (retry exhaustion / flush).
    pub failed: u32,
    /// Payload bytes successfully transferred.
    pub bytes: u64,
    /// Time the first message was posted.
    pub first_post: Option<SimTime>,
    /// Time the last completion arrived.
    pub last_completion: Option<SimTime>,
}

impl FlowMetrics {
    /// Mean message completion time.
    pub fn avg_mct(&self) -> Option<SimTime> {
        if self.mcts.is_empty() {
            return None;
        }
        let sum: u64 = self.mcts.iter().map(|t| t.as_nanos()).sum();
        Some(SimTime::from_nanos(sum / self.mcts.len() as u64))
    }

    /// Goodput over the flow's active interval, in Gbps.
    pub fn goodput_gbps(&self) -> f64 {
        match (self.first_post, self.last_completion) {
            (Some(a), Some(b)) if b > a => {
                self.bytes as f64 * 8.0 / b.saturating_since(a).as_nanos() as f64
            }
            _ => 0.0,
        }
    }
}

/// Metrics of all flows on one generator host.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GenMetrics {
    /// Keyed by requester-side QPN.
    pub flows: BTreeMap<u32, FlowMetrics>,
    /// Time all flows finished (success or failure).
    pub all_done_at: Option<SimTime>,
}

impl GenMetrics {
    /// Aggregate goodput across flows over the common active interval.
    pub fn total_goodput_gbps(&self) -> f64 {
        let first = self.flows.values().filter_map(|f| f.first_post).min();
        let last = self.flows.values().filter_map(|f| f.last_completion).max();
        let bytes: u64 = self.flows.values().map(|f| f.bytes).sum();
        match (first, last) {
            (Some(a), Some(b)) if b > a => {
                bytes as f64 * 8.0 / b.saturating_since(a).as_nanos() as f64
            }
            _ => 0.0,
        }
    }

    /// Mean MCT across all flows.
    pub fn avg_mct(&self) -> Option<SimTime> {
        let all: Vec<u64> = self
            .flows
            .values()
            .flat_map(|f| f.mcts.iter().map(|t| t.as_nanos()))
            .collect();
        if all.is_empty() {
            None
        } else {
            Some(SimTime::from_nanos(all.iter().sum::<u64>() / all.len() as u64))
        }
    }

    /// True when every flow completed (or failed) all its messages.
    pub fn done(&self) -> bool {
        self.all_done_at.is_some()
    }

    /// Every flow's MCTs in nanoseconds, folded into one histogram; `None`
    /// when no message completed. The fold is order-free, so it equals one
    /// recorded in completion order.
    pub fn mct_histogram(&self) -> Option<Histogram> {
        let mut h = Histogram::default();
        for mct in self.flows.values().flat_map(|f| &f.mcts) {
            h.record(mct.as_nanos());
        }
        (h.count() > 0).then_some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_math() {
        let f = FlowMetrics {
            first_post: Some(SimTime::ZERO),
            last_completion: Some(SimTime::from_micros(8)),
            bytes: 100_000, // 100 KB in 8 µs = 100 Gbps
            ..FlowMetrics::default()
        };
        assert!((f.goodput_gbps() - 100.0).abs() < 0.1);
    }

    #[test]
    fn avg_mct() {
        let f = FlowMetrics {
            mcts: vec![SimTime::from_micros(10), SimTime::from_micros(20)],
            ..FlowMetrics::default()
        };
        assert_eq!(f.avg_mct(), Some(SimTime::from_micros(15)));
        assert_eq!(FlowMetrics::default().avg_mct(), None);
    }

    #[test]
    fn mct_histogram_folds_every_flow() {
        let mut g = GenMetrics::default();
        assert!(g.mct_histogram().is_none(), "no MCT, no histogram");
        for (q, us) in [(1u32, [10u64, 30]), (2, [20, 20])] {
            let f = g.flows.entry(q).or_default();
            f.mcts = us.iter().map(|&u| SimTime::from_micros(u)).collect();
        }
        let h = g.mct_histogram().unwrap();
        assert_eq!((h.count(), h.sum()), (4, 80_000));
        assert_eq!(h.to_json()["min"], 10_000u64);
    }

    #[test]
    fn aggregate_over_flows() {
        let mut g = GenMetrics::default();
        for q in 0..2u32 {
            let f = FlowMetrics {
                first_post: Some(SimTime::ZERO),
                last_completion: Some(SimTime::from_micros(8)),
                bytes: 50_000,
                ..FlowMetrics::default()
            };
            g.flows.insert(q, f);
        }
        assert!((g.total_goodput_gbps() - 100.0).abs() < 0.1);
        assert!(!g.done());
    }
}
