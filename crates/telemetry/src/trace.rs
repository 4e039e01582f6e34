//! Packet-lifecycle flight recorder: causal `(trace_id, hop, sim_time)`
//! records, per-hop latency dissection, and Perfetto export.
//!
//! Every [`Frame`](../../lumina_packet/buf/struct.Frame.html) carries a
//! provenance id stamped when the packet is serialized; instrumented
//! hops — generator enqueue, RNIC retransmit, link egress/ingress,
//! switch forward/mirror/mutate, dumper capture — append one
//! [`HopRecord`] to a bounded ring here. The ring is seed-deterministic:
//! it stores only simulated time, records arrive in dispatch order, and
//! raw provenance ids (a per-thread monotonic counter) are normalized
//! against a baseline captured when tracing was enabled, so the same
//! seed yields byte-identical traces no matter how many frames earlier
//! runs on the thread — or sibling fuzz workers — already minted.
//!
//! Two derived views answer "where did this microsecond go":
//!
//! * [`TraceSummary`] folds consecutive records of each packet into
//!   per-hop and end-to-end latency [`Histogram`]s, exported as a
//!   [`MetricSet`] and embedded in `report_json` under `"trace"` only
//!   when tracing is on (the golden reports never see it);
//! * [`perfetto_json`] renders the ring as Chrome trace-event JSON —
//!   one track per node, a span per packet leg, instant events for
//!   retransmits and injected mutations — loadable at ui.perfetto.dev.

// A panic here forfeits a verdict or a whole campaign.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::metrics::{Histogram, MetricSet};
use std::collections::{BTreeMap, VecDeque};

/// Canonical hop names. Instrumentation sites pass these (or, for
/// switch mutations, one of the `switch.mutate.*` variants) so the
/// dissection and the Perfetto export agree on the taxonomy.
pub mod hops {
    /// Host hands a freshly built frame (data, ACK, CNP) to the engine.
    pub const GEN_ENQUEUE: &str = "gen.enqueue";
    /// RNIC re-emits an already-sent PSN (go-back-N or timeout path).
    pub const RNIC_RETRANSMIT: &str = "rnic.retransmit";
    /// Engine hands the frame to a link for serialization + propagation.
    pub const LINK_EGRESS: &str = "link.egress";
    /// Frame arrives at the far end of a link.
    pub const LINK_INGRESS: &str = "link.ingress";
    /// Switch forwards the frame out its egress port.
    pub const SWITCH_FORWARD: &str = "switch.forward";
    /// Switch emits a mirror copy toward a dumper.
    pub const SWITCH_MIRROR: &str = "switch.mirror";
    /// Prefix of the injected-mutation hops (`.drop`, `.ecn`, …).
    pub const SWITCH_MUTATE_PREFIX: &str = "switch.mutate.";
    /// Dumper files the frame into its capture ring.
    pub const DUMPER_CAPTURE: &str = "dumper.capture";
}

/// Hops that mark a point event rather than the start of a residency
/// leg: injected mutations and retransmissions render as Perfetto
/// instant events.
pub fn is_instant_hop(hop: &str) -> bool {
    hop == hops::RNIC_RETRANSMIT || hop.starts_with(hops::SWITCH_MUTATE_PREFIX)
}

/// One lifecycle record: packet `trace_id` was observed at `hop` on
/// `node` at simulated nanosecond `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopRecord {
    /// Baseline-relative provenance id (0 = first frame after enable).
    pub trace_id: u64,
    /// Hop name; see [`hops`].
    pub hop: &'static str,
    /// Engine node id the observation happened on.
    pub node: u32,
    /// Simulated time, nanoseconds.
    pub t: u64,
}

impl HopRecord {
    /// Render as one flat JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert("id", serde_json::Value::from(self.trace_id));
        m.insert("hop", serde_json::Value::String(self.hop.to_string()));
        m.insert("node", serde_json::Value::from(self.node as u64));
        m.insert("t", serde_json::Value::from(self.t));
        serde_json::Value::Object(m)
    }
}

/// Bounded FIFO of [`HopRecord`]s, evicting oldest-first like the event
/// journal so a pathological run cannot exhaust memory.
#[derive(Debug)]
pub struct FlightRecorder {
    records: VecDeque<HopRecord>,
    capacity: usize,
    dropped: u64,
    baseline: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (min 1). `baseline`
    /// is the raw provenance counter at enable time; recorded ids are
    /// stored relative to it.
    pub fn new(capacity: usize, baseline: u64) -> FlightRecorder {
        FlightRecorder {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            baseline,
        }
    }

    /// Append one observation; `raw_trace_id` is the frame's absolute id.
    pub fn record(&mut self, raw_trace_id: u64, hop: &'static str, node: u32, t: u64) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(HopRecord {
            trace_id: raw_trace_id.saturating_sub(self.baseline),
            hop,
            node,
            t,
        });
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterate retained records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &HopRecord> {
        self.records.iter()
    }

    /// Render as JSON Lines, oldest first — byte-identical across
    /// same-seed runs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Group retained records per packet, id-ascending; each packet's
    /// records keep their (sim-time) arrival order.
    fn per_packet(&self) -> BTreeMap<u64, Vec<&HopRecord>> {
        let mut by_id: BTreeMap<u64, Vec<&HopRecord>> = BTreeMap::new();
        for r in &self.records {
            by_id.entry(r.trace_id).or_default().push(r);
        }
        by_id
    }
}

/// Latency dissection derived from a [`FlightRecorder`]: one histogram
/// per hop (time spent reaching that hop from the packet's previous
/// record) plus an end-to-end histogram (first record → last record).
#[derive(Debug, Default)]
pub struct TraceSummary {
    per_hop: BTreeMap<&'static str, Histogram>,
    end_to_end: Histogram,
    packets: u64,
    records: u64,
    dropped: u64,
}

impl TraceSummary {
    /// Fold the recorder's retained records into histograms.
    pub fn from_recorder(rec: &FlightRecorder) -> TraceSummary {
        let mut s = TraceSummary {
            records: rec.len() as u64,
            dropped: rec.dropped(),
            ..TraceSummary::default()
        };
        for (_, recs) in rec.per_packet() {
            s.packets += 1;
            for (from, to) in recs.iter().zip(recs.iter().skip(1)) {
                let dt = to.t.saturating_sub(from.t);
                s.per_hop.entry(to.hop).or_default().record(dt);
            }
            if let (Some(first), Some(last)) = (recs.first(), recs.last()) {
                if recs.len() > 1 {
                    s.end_to_end.record(last.t.saturating_sub(first.t));
                }
            }
        }
        s
    }

    /// Distinct packets observed.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Hop names with at least one latency sample, ascending.
    pub fn hop_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.per_hop.keys().copied()
    }

    /// Latency histogram for reaching `hop`, if sampled.
    pub fn hop_histogram(&self, hop: &str) -> Option<&Histogram> {
        self.per_hop.get(hop)
    }

    /// End-to-end (first record → last record) histogram.
    pub fn end_to_end(&self) -> &Histogram {
        &self.end_to_end
    }

    /// Approximate p99 latency into `hop`, nanoseconds.
    pub fn hop_p99_ns(&self, hop: &str) -> Option<u64> {
        self.per_hop.get(hop).and_then(|h| h.quantile_lower_bound(0.99))
    }
}

impl MetricSet for TraceSummary {
    fn metric_kind(&self) -> &'static str {
        "trace"
    }

    fn snapshot(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert("packets", serde_json::Value::from(self.packets));
        m.insert("records", serde_json::Value::from(self.records));
        m.insert("dropped", serde_json::Value::from(self.dropped));
        m.insert("end_to_end", self.end_to_end.to_json());
        let mut hops = serde_json::Map::new();
        for (hop, h) in &self.per_hop {
            hops.insert(*hop, h.to_json());
        }
        m.insert("per_hop", serde_json::Value::Object(hops));
        serde_json::Value::Object(m)
    }
}

/// Render the recorder as Chrome trace-event JSON for Perfetto.
///
/// Mapping: every node is one track (`pid` 0, `tid` = node id, named by
/// `node_names`); each consecutive record pair of one packet becomes a
/// complete (`"X"`) span on the track of the leg's *origin* node, named
/// `from→to`, with the packet id in `args`; retransmit and mutation
/// hops additionally emit thread-scoped instant (`"i"`) events.
/// Timestamps convert sim-nanoseconds to the format's microseconds.
pub fn perfetto_json(
    rec: &FlightRecorder,
    node_names: &BTreeMap<u32, String>,
) -> serde_json::Value {
    let mut events: Vec<serde_json::Value> = Vec::new();
    for (&node, name) in node_names {
        events.push(serde_json::json!({
            "ph": "M",
            "name": "thread_name",
            "pid": 0,
            "tid": node,
            "args": {"name": (name.as_str())},
        }));
    }
    for (id, recs) in rec.per_packet() {
        for (from, to) in recs.iter().zip(recs.iter().skip(1)) {
            events.push(serde_json::json!({
                "ph": "X",
                "name": (format!("{}\u{2192}{}", from.hop, to.hop)),
                "cat": "packet",
                "pid": 0,
                "tid": (from.node),
                "ts": (from.t as f64 / 1e3),
                "dur": (to.t.saturating_sub(from.t) as f64 / 1e3),
                "args": {"trace_id": id, "from": (from.hop), "to": (to.hop)},
            }));
        }
        for r in &recs {
            if is_instant_hop(r.hop) {
                events.push(serde_json::json!({
                    "ph": "i",
                    "name": (r.hop),
                    "cat": "packet",
                    "s": "t",
                    "pid": 0,
                    "tid": (r.node),
                    "ts": (r.t as f64 / 1e3),
                    "args": {"trace_id": id},
                }));
            }
        }
    }
    serde_json::json!({
        "traceEvents": events,
        "displayTimeUnit": "ns",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder() -> FlightRecorder {
        let mut r = FlightRecorder::new(64, 100);
        // Packet 100 (relative 0): gen → egress → ingress → forward.
        r.record(100, hops::GEN_ENQUEUE, 0, 1_000);
        r.record(100, hops::LINK_EGRESS, 0, 1_500);
        r.record(100, hops::LINK_INGRESS, 2, 3_500);
        r.record(100, hops::SWITCH_FORWARD, 2, 4_000);
        // Packet 101 (relative 1): dropped at the switch.
        r.record(101, hops::GEN_ENQUEUE, 0, 2_000);
        r.record(101, "switch.mutate.drop", 2, 5_000);
        r
    }

    #[test]
    fn ring_normalizes_ids_and_evicts_oldest() {
        let mut r = FlightRecorder::new(2, 10);
        r.record(10, hops::GEN_ENQUEUE, 0, 1);
        r.record(11, hops::GEN_ENQUEUE, 0, 2);
        r.record(12, hops::GEN_ENQUEUE, 0, 3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let ids: Vec<u64> = r.iter().map(|h| h.trace_id).collect();
        assert_eq!(ids, vec![1, 2], "ids are baseline-relative");
        // Pre-baseline frames clamp to 0 instead of wrapping.
        r.record(3, hops::GEN_ENQUEUE, 0, 4);
        assert_eq!(r.iter().last().map(|h| h.trace_id), Some(0));
    }

    #[test]
    fn jsonl_is_deterministic_and_flat() {
        let r = sample_recorder();
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(
            lines[0],
            r#"{"id":0,"hop":"gen.enqueue","node":0,"t":1000}"#
        );
    }

    #[test]
    fn summary_dissects_per_hop_and_end_to_end() {
        let s = TraceSummary::from_recorder(&sample_recorder());
        assert_eq!(s.packets(), 2);
        let egress = s.hop_histogram(hops::LINK_EGRESS).unwrap();
        assert_eq!(egress.count(), 1);
        assert_eq!(egress.sum(), 500);
        let ingress = s.hop_histogram(hops::LINK_INGRESS).unwrap();
        assert_eq!(ingress.sum(), 2_000);
        // End-to-end: 3000 ns for packet 0, 3000 ns for packet 1.
        assert_eq!(s.end_to_end().count(), 2);
        assert_eq!(s.end_to_end().sum(), 6_000);
        assert!(s.hop_p99_ns(hops::LINK_INGRESS).unwrap() <= 2_000);
        let j = s.snapshot();
        assert_eq!(j["packets"], 2u64);
        assert_eq!(j["per_hop"]["link.egress"]["count"], 1u64);
    }

    #[test]
    fn perfetto_has_tracks_spans_and_instants() {
        let r = sample_recorder();
        let mut names = BTreeMap::new();
        names.insert(0u32, "requester".to_string());
        names.insert(2u32, "switch".to_string());
        let j = perfetto_json(&r, &names);
        let evs = j["traceEvents"].as_array().unwrap();
        let metas: Vec<_> = evs.iter().filter(|e| e["ph"] == "M").collect();
        assert_eq!(metas.len(), 2);
        let spans: Vec<_> = evs.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(spans.len(), 4, "one span per consecutive record pair");
        assert_eq!(spans[0]["tid"], 0u64);
        assert_eq!(spans[0]["ts"], 1.0);
        assert_eq!(spans[0]["dur"], 0.5);
        let instants: Vec<_> = evs.iter().filter(|e| e["ph"] == "i").collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0]["name"], "switch.mutate.drop");
        // Round-trips through serde as valid JSON.
        let text = serde_json::to_string(&j).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn instant_classification() {
        assert!(is_instant_hop("rnic.retransmit"));
        assert!(is_instant_hop("switch.mutate.ecn"));
        assert!(!is_instant_hop("switch.forward"));
        assert!(!is_instant_hop("gen.enqueue"));
    }
}
