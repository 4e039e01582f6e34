//! Per-node metric registry: counters, log-linear histograms, and
//! snapshots of component stat structs.
//!
//! The simulation previously grew three incompatible counter structs
//! (`EngineStats`, the RNIC `Counters`, the generator `FlowMetrics`),
//! each with its own export path. The [`MetricSet`] trait unifies them:
//! any stat struct renders itself to JSON once, and the registry files
//! it under the owning node next to the registry's own typed metrics,
//! so the whole run exports through
//! [`Telemetry::deterministic_snapshot`](crate::Telemetry::deterministic_snapshot).

use std::collections::BTreeMap;

/// A component stat struct that can export itself into the registry.
pub trait MetricSet {
    /// Stable name this set is filed under, e.g. `"engine"`, `"rnic"`.
    fn metric_kind(&self) -> &'static str;
    /// Render the current values as JSON.
    fn snapshot(&self) -> serde_json::Value;
}

/// Log-linear histogram for latency-like values.
///
/// Values `0..4` get exact buckets; every power-of-two range
/// `[2^k, 2^(k+1))` beyond that is split into four linear sub-buckets,
/// giving ≤ 12.5 % relative bucket width at any magnitude with a fixed
/// 252-slot table (covers all of `u64`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    buckets: BTreeMap<u16, u64>,
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: u64,
}

impl Histogram {
    /// Index of the bucket holding `value`.
    pub fn bucket_index(value: u64) -> u16 {
        if value < 4 {
            return value as u16;
        }
        let k = 63 - value.leading_zeros() as u64; // 2^k <= value
        let sub = (value - (1u64 << k)) >> (k - 2); // 0..4
        (4 * (k - 1) + sub) as u16
    }

    /// Inclusive lower bound of bucket `index`.
    pub fn bucket_lower_bound(index: u16) -> u64 {
        if index < 4 {
            return index as u64;
        }
        let k = (index as u64) / 4 + 1;
        let sub = (index as u64) % 4;
        (1u64 << k) + sub * (1u64 << (k - 2))
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        *self.buckets.entry(Self::bucket_index(value)).or_insert(0) += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Lower bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or `None` for an empty histogram. The log-linear
    /// buckets bound the approximation error at ≤ 12.5 % of the value —
    /// good enough for a latency budget check, and exactly reproducible
    /// from the serialized `[lower_bound, count]` pairs.
    pub fn quantile_lower_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&idx, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_lower_bound(idx));
            }
        }
        Some(self.max)
    }

    /// Render as JSON: summary stats plus `[lower_bound, count]` pairs
    /// for each non-empty bucket, ascending.
    pub fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert("count", serde_json::Value::from(self.count));
        m.insert("sum", serde_json::Value::from(self.sum));
        m.insert("min", serde_json::Value::from(self.min.unwrap_or(0)));
        m.insert("max", serde_json::Value::from(self.max));
        let buckets: Vec<serde_json::Value> = self
            .buckets
            .iter()
            .map(|(&i, &c)| {
                serde_json::Value::Array(vec![
                    serde_json::Value::from(Self::bucket_lower_bound(i)),
                    serde_json::Value::from(c),
                ])
            })
            .collect();
        m.insert("buckets", serde_json::Value::Array(buckets));
        serde_json::Value::Object(m)
    }
}

/// Typed metrics belonging to one node.
#[derive(Debug, Default)]
pub struct NodeMetrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    sets: BTreeMap<&'static str, serde_json::Value>,
}

impl NodeMetrics {
    /// Add `delta` to a counter, saturating at `u64::MAX`.
    pub fn inc(&mut self, name: &'static str, delta: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Record into a log-linear histogram.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// File a [`MetricSet`] snapshot under `kind`.
    pub fn record_set(&mut self, kind: &'static str, snapshot: serde_json::Value) {
        self.sets.insert(kind, snapshot);
    }

    /// Render this node's metrics as JSON.
    pub fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        if !self.counters.is_empty() {
            let mut c = serde_json::Map::new();
            for (k, v) in &self.counters {
                c.insert(*k, serde_json::Value::from(*v));
            }
            m.insert("counters", serde_json::Value::Object(c));
        }
        if !self.histograms.is_empty() {
            let mut h = serde_json::Map::new();
            for (k, v) in &self.histograms {
                h.insert(*k, v.to_json());
            }
            m.insert("histograms", serde_json::Value::Object(h));
        }
        for (kind, snap) in &self.sets {
            m.insert(*kind, snap.clone());
        }
        serde_json::Value::Object(m)
    }
}

/// All nodes' metrics for one run, plus run-global metric sets that do
/// not belong to any single node (the engine's own statistics).
#[derive(Debug, Default)]
pub struct Registry {
    nodes: BTreeMap<u32, NodeMetrics>,
    globals: BTreeMap<&'static str, serde_json::Value>,
}

impl Registry {
    /// Metrics for `node`, created on first touch.
    pub fn node_mut(&mut self, node: u32) -> &mut NodeMetrics {
        self.nodes.entry(node).or_default()
    }

    /// File a run-global [`MetricSet`] snapshot under `kind`.
    pub fn record_global(&mut self, kind: &'static str, snapshot: serde_json::Value) {
        self.globals.insert(kind, snapshot);
    }

    /// Render every node keyed by its decimal id, ascending.
    pub fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        for (id, node) in &self.nodes {
            m.insert(id.to_string(), node.to_json());
        }
        serde_json::Value::Object(m)
    }

    /// Render the run-global metric sets keyed by kind.
    pub fn globals_to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        for (kind, snap) in &self.globals {
            m.insert(*kind, snap.clone());
        }
        serde_json::Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log_linear() {
        // Exact buckets below 4.
        for v in 0..4u64 {
            assert_eq!(Histogram::bucket_index(v), v as u16);
            assert_eq!(Histogram::bucket_lower_bound(v as u16), v);
        }
        // [4, 8) splits into four width-1 sub-buckets.
        assert_eq!(Histogram::bucket_index(4), 4);
        assert_eq!(Histogram::bucket_index(5), 5);
        assert_eq!(Histogram::bucket_index(7), 7);
        // [8, 16) splits into four width-2 sub-buckets.
        assert_eq!(Histogram::bucket_index(8), Histogram::bucket_index(9));
        assert_ne!(Histogram::bucket_index(9), Histogram::bucket_index(10));
        // Lower bounds invert the index mapping.
        for idx in [4u16, 7, 8, 11, 40, 100, 200, 251] {
            let lo = Histogram::bucket_lower_bound(idx);
            assert_eq!(Histogram::bucket_index(lo), idx, "idx {idx} lo {lo}");
            if lo > 0 {
                assert!(Histogram::bucket_index(lo - 1) < idx);
            }
        }
        // Every value maps into a bucket whose bound brackets it.
        for v in [0u64, 1, 3, 4, 63, 64, 1000, 123_456_789, u64::MAX] {
            let idx = Histogram::bucket_index(v);
            assert!(Histogram::bucket_lower_bound(idx) <= v);
        }
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::default();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        let j = h.to_json();
        assert_eq!(j["min"], 10u64);
        assert_eq!(j["max"], 30u64);
    }

    #[test]
    fn quantile_walks_the_bucket_table() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_lower_bound(0.99), None);
        for v in 1..=100u64 {
            h.record(v * 100);
        }
        // p50 sits near 5000, p99 near 9900 — within one bucket width.
        let p50 = h.quantile_lower_bound(0.50).unwrap();
        let p99 = h.quantile_lower_bound(0.99).unwrap();
        assert!((4096..=5120).contains(&p50), "p50 {p50}");
        assert!((8192..=9984).contains(&p99), "p99 {p99}");
        assert!(h.quantile_lower_bound(1.0).unwrap() <= 10_000);
        assert_eq!(h.quantile_lower_bound(0.0), h.quantile_lower_bound(0.001));
    }

    #[test]
    fn histogram_sum_saturates() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut n = NodeMetrics::default();
        n.inc("c", u64::MAX - 1);
        n.inc("c", 5);
        assert_eq!(n.to_json()["counters"]["c"], u64::MAX);
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let mut r = Registry::default();
        let n = r.node_mut(2);
        n.inc("tx", 7);
        n.record("lat", 100);
        n.record("lat", 4000);
        n.record_set("engine", serde_json::json!({"dispatched": 12}));
        let snap = r.to_json();
        let text = serde_json::to_string(&snap).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back["2"]["counters"]["tx"], 7u64);
        assert_eq!(back["2"]["histograms"]["lat"]["count"], 2u64);
        assert_eq!(back["2"]["engine"]["dispatched"], 12u64);
    }
}
