//! The hop view of the event log: the kind table, per-hop latency
//! dissection, and Perfetto export.
//!
//! Every [`Frame`](../../lumina_packet/buf/struct.Frame.html) carries a
//! provenance id stamped when the packet is serialized; a record of one of
//! the [`Hop`] kinds carries it, relative to a baseline taken when the run
//! was built, so the same seed yields byte-identical traces on any thread.
//! Pure hops are kept only while tracing; a hop that is also a decision
//! (mirror, mutate, retransmit) is the journal's record of it, shown here
//! only while tracing. [`TraceSummary`] folds the view into latency
//! [`Histogram`]s; [`perfetto_json`] renders it for ui.perfetto.dev.

// A panic here forfeits a verdict or a whole campaign.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::journal::{jsonl, EventLog, Record};
use crate::metrics::Histogram;
use std::collections::BTreeMap;

/// The kind table: every record kind that is a packet hop. Each kind's
/// names are its row of the table in `Hop::row`, read through
/// [`Hop::name`], [`Hop::journal_kind`] and [`Hop::is_instant`]. A hop
/// with a journal kind is also a decision the journal shows, recorded once
/// in both roles; one without is a pure hop, kept only while tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[rustfmt::skip]
pub enum Hop {
    GenEnqueue, Retransmit, LinkEgress, LinkIngress, SwitchForward, Mirror,
    Drop, Ecn, Corrupt, MigReq, Delay, Reorder, DumperCapture,
}

impl Hop {
    /// The table: hop name, journal kind, and whether the hop is a point
    /// event (a Perfetto instant) rather than the start of a residency leg.
    const fn row(self) -> (&'static str, Option<&'static str>, bool) {
        match self {
            // Host hands a freshly built frame (data, ACK, CNP) to the engine.
            Hop::GenEnqueue => ("gen.enqueue", None, false),
            // RNIC re-emits an already-sent PSN (go-back-N or timeout path).
            Hop::Retransmit => ("rnic.retransmit", Some("retransmit"), true),
            // Engine hands the frame to a link; it arrives at the far end.
            Hop::LinkEgress => ("link.egress", None, false),
            Hop::LinkIngress => ("link.ingress", None, false),
            Hop::SwitchForward => ("switch.forward", None, false),
            // Switch emits a mirror copy toward a dumper.
            Hop::Mirror => ("switch.mirror", Some("mirror.emit"), false),
            // The injected events.
            Hop::Drop => ("switch.mutate.drop", Some("drop"), true),
            Hop::Ecn => ("switch.mutate.ecn", Some("ecn.mark"), true),
            Hop::Corrupt => ("switch.mutate.corrupt", Some("corrupt"), true),
            Hop::MigReq => ("switch.mutate.migreq", Some("migreq.rewrite"), true),
            Hop::Delay => ("switch.mutate.delay", Some("delay"), true),
            Hop::Reorder => ("switch.mutate.reorder", Some("reorder"), true),
            // Dumper files the frame into its capture ring.
            Hop::DumperCapture => ("dumper.capture", None, false),
        }
    }

    /// The name the hop view renders.
    pub const fn name(self) -> &'static str {
        self.row().0
    }

    /// The journal kind of a hop that is also a decision.
    pub const fn journal_kind(self) -> Option<&'static str> {
        self.row().1
    }

    /// Whether the hop renders as a Perfetto instant.
    pub const fn is_instant(self) -> bool {
        self.row().2
    }

    /// The pure hop called `name`, if there is one.
    pub fn pure(name: &str) -> Option<Hop> {
        use Hop::*;
        [GenEnqueue, LinkEgress, LinkIngress, SwitchForward, DumperCapture]
            .into_iter()
            .find(|h| h.name() == name)
    }
}

/// The pure hops' names, which instrumentation sites pass to
/// [`Telemetry::record_hop`](crate::Telemetry::record_hop).
pub mod hops {
    use super::Hop;
    pub const GEN_ENQUEUE: &str = Hop::GenEnqueue.name();
    pub const LINK_EGRESS: &str = Hop::LinkEgress.name();
    pub const LINK_INGRESS: &str = Hop::LinkIngress.name();
    pub const SWITCH_FORWARD: &str = Hop::SwitchForward.name();
    pub const DUMPER_CAPTURE: &str = Hop::DumperCapture.name();
}

impl EventLog {
    /// The hop view: `(trace_id, hop, record)` of every retained record in
    /// the hop role, oldest first — none unless tracing is on.
    pub fn hops(&self) -> impl Iterator<Item = (u64, Hop, &Record)> {
        let shown = if self.tracing { usize::MAX } else { 0 };
        self.records.iter().take(shown).filter_map(|r| Some((r.trace_id()?, r.hop?, r)))
    }

    /// Render the hop view as JSON Lines (`{"id","hop","node","t"}`),
    /// oldest first — byte-identical across same-seed runs.
    pub fn hops_jsonl(&self) -> String {
        jsonl(self.hops().map(|(id, hop, r)| {
            serde_json::json!({"id": id, "hop": (hop.name()), "node": (r.node), "t": (r.t)})
        }))
    }

    /// Group the hop view per packet, id-ascending; each packet's records
    /// keep their (sim-time) arrival order.
    fn per_packet(&self) -> BTreeMap<u64, Vec<(Hop, &Record)>> {
        let mut by_id: BTreeMap<u64, Vec<(Hop, &Record)>> = BTreeMap::new();
        for (id, hop, r) in self.hops() {
            by_id.entry(id).or_default().push((hop, r));
        }
        by_id
    }
}

/// Latency dissection derived from the hop view: one histogram per hop
/// (time spent reaching that hop from the packet's previous record) plus
/// an end-to-end histogram (first record → last record).
#[derive(Debug, Default)]
pub struct TraceSummary {
    per_hop: BTreeMap<&'static str, Histogram>,
    /// End-to-end (first record → last record) latency.
    pub end_to_end: Histogram,
    /// Distinct packets observed.
    pub packets: u64,
    /// Hop records retained.
    pub records: u64,
    /// Hop records the log evicted.
    pub dropped: u64,
}

impl TraceSummary {
    /// Fold the log's hop view into histograms.
    pub fn from_log(log: &EventLog) -> TraceSummary {
        let mut s = TraceSummary {
            records: log.hops().count() as u64,
            dropped: log.hop_dropped,
            ..TraceSummary::default()
        };
        for (_, recs) in log.per_packet() {
            s.packets += 1;
            for ((_, from), (hop, to)) in recs.iter().zip(recs.iter().skip(1)) {
                let dt = to.t.saturating_sub(from.t);
                s.per_hop.entry(hop.name()).or_default().record(dt);
            }
            if let [(_, first), .., (_, last)] = recs.as_slice() {
                s.end_to_end.record(last.t.saturating_sub(first.t));
            }
        }
        s
    }

    /// `(hop name, latency histogram for reaching it)` of every sampled
    /// hop, by name.
    pub fn per_hop(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.per_hop.iter().map(|(hop, h)| (*hop, h))
    }

    /// Approximate p99 latency into `hop`, nanoseconds.
    pub fn hop_p99_ns(&self, hop: &str) -> Option<u64> {
        self.per_hop.get(hop).and_then(|h| h.quantile_lower_bound(0.99))
    }

    /// Render as JSON: the counts, the end-to-end histogram, then each
    /// hop's histogram by name.
    pub fn to_json(&self) -> serde_json::Value {
        let per_hop = self.per_hop().map(|(hop, h)| (hop.to_string(), h.to_json()));
        let mut m = serde_json::Map::new();
        m.insert("packets", serde_json::Value::from(self.packets));
        m.insert("records", serde_json::Value::from(self.records));
        m.insert("dropped", serde_json::Value::from(self.dropped));
        m.insert("end_to_end", self.end_to_end.to_json());
        m.insert("per_hop", serde_json::Value::Object(per_hop.collect()));
        serde_json::Value::Object(m)
    }
}

/// Render the log's hop view as Chrome trace-event JSON for Perfetto.
///
/// Mapping: every node is one track (`pid` 0, `tid` = node id, named by
/// `node_names`); each consecutive record pair of one packet becomes a
/// complete (`"X"`) span on the track of the leg's *origin* node, named
/// `from→to`, with the packet id in `args`; retransmit and mutation
/// hops additionally emit thread-scoped instant (`"i"`) events.
/// Timestamps convert sim-nanoseconds to the format's microseconds.
pub fn perfetto_json(log: &EventLog, node_names: &BTreeMap<u32, String>) -> serde_json::Value {
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
    for (id, recs) in log.per_packet() {
        for ((from_hop, from), (to_hop, to)) in recs.iter().zip(recs.iter().skip(1)) {
            let (from_hop, to_hop) = (from_hop.name(), to_hop.name());
            events.push(serde_json::json!({
                "ph": "X",
                "name": (format!("{from_hop}\u{2192}{to_hop}")),
                "cat": "packet",
                "pid": 0,
                "tid": (from.node),
                "ts": (from.t as f64 / 1e3),
                "dur": (to.t.saturating_sub(from.t) as f64 / 1e3),
                "args": {"trace_id": id, "from": from_hop, "to": to_hop},
            }));
        }
        for (hop, r) in recs.iter().filter(|(hop, _)| hop.is_instant()) {
            events.push(serde_json::json!({
                "ph": "i",
                "name": (hop.name()),
                "cat": "packet",
                "s": "t",
                "pid": 0,
                "tid": (r.node),
                "ts": (r.t as f64 / 1e3),
                "args": {"trace_id": id},
            }));
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
    use crate::journal::{Site, PURE_HOP};

    /// Every kind, in lifecycle order.
    const ALL: [Hop; 13] = {
        use Hop::*;
        [
            GenEnqueue,
            Retransmit,
            LinkEgress,
            LinkIngress,
            SwitchForward,
            Mirror,
            Drop,
            Ecn,
            Corrupt,
            MigReq,
            Delay,
            Reorder,
            DumperCapture,
        ]
    };

    static SWITCH: Site = Site::new("switch", "", &[]);

    fn sample_log() -> EventLog {
        let mut r = EventLog::new(64);
        r.baseline = 100;
        r.trace(0);
        // Packet 100 (relative 0): gen → egress → ingress → forward.
        for (hop, t, node) in [
            (Hop::GenEnqueue, 1_000, 0),
            (Hop::LinkEgress, 1_500, 0),
            (Hop::LinkIngress, 3_500, 2),
            (Hop::SwitchForward, 4_000, 2),
        ] {
            r.push(Record::of_hop(&PURE_HOP, hop, 100, t, node), &[]);
        }
        // Packet 101 (relative 1): dropped at the switch.
        r.push(Record::of_hop(&PURE_HOP, Hop::GenEnqueue, 101, 2_000, 0), &[]);
        r.push(Record::of_hop(&SWITCH, Hop::Drop, 101, 5_000, 2), &[]);
        r
    }

    #[test]
    fn ring_normalizes_ids_and_evicts_oldest() {
        let mut r = EventLog::new(2);
        r.baseline = 10;
        r.trace(0);
        for (raw, t) in [(10, 1), (11, 2), (12, 3)] {
            r.push(Record::of_hop(&PURE_HOP, Hop::GenEnqueue, raw, t, 0), &[]);
        }
        assert_eq!(r.hops().count(), 2);
        assert_eq!(r.hop_dropped, 1);
        let ids: Vec<u64> = r.hops().map(|(id, _, _)| id).collect();
        assert_eq!(ids, vec![1, 2], "ids are baseline-relative");
        // Pre-baseline frames clamp to 0 instead of wrapping.
        r.push(Record::of_hop(&PURE_HOP, Hop::GenEnqueue, 3, 4, 0), &[]);
        assert_eq!(r.hops().last().map(|(id, _, _)| id), Some(0));
    }

    #[test]
    fn jsonl_is_deterministic_and_flat() {
        let r = sample_log();
        let jsonl = r.hops_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(
            lines[0],
            r#"{"id":0,"hop":"gen.enqueue","node":0,"t":1000}"#
        );
        assert_eq!(
            lines[5],
            r#"{"id":1,"hop":"switch.mutate.drop","node":2,"t":5000}"#
        );
    }

    #[test]
    fn hop_view_is_empty_unless_tracing() {
        let mut r = EventLog::new(8);
        r.push(Record::of_hop(&SWITCH, Hop::Mirror, 3, 7, 2), &[]);
        assert_eq!(r.journal().count(), 1);
        assert_eq!(r.hops().count(), 0);
        assert_eq!(r.hops_jsonl(), "");
        r.trace(8);
        assert_eq!(
            r.hops().map(|(id, hop, _)| (id, hop)).collect::<Vec<_>>(),
            [(3, Hop::Mirror)]
        );
    }

    #[test]
    fn summary_dissects_per_hop_and_end_to_end() {
        let s = TraceSummary::from_log(&sample_log());
        assert_eq!((s.packets, s.records, s.dropped), (2, 6, 0));
        let hop = |name| s.per_hop().find(|(n, _)| *n == name).unwrap().1;
        let egress = hop(hops::LINK_EGRESS);
        assert_eq!(egress.count(), 1);
        assert_eq!(egress.sum(), 500);
        let ingress = hop(hops::LINK_INGRESS);
        assert_eq!(ingress.sum(), 2_000);
        // End-to-end: 3000 ns for packet 0, 3000 ns for packet 1.
        assert_eq!(s.end_to_end.count(), 2);
        assert_eq!(s.end_to_end.sum(), 6_000);
        assert!(s.hop_p99_ns(hops::LINK_INGRESS).unwrap() <= 2_000);
        let j = s.to_json();
        assert_eq!(j["packets"], 2u64);
        assert_eq!(j["per_hop"]["link.egress"]["count"], 1u64);
    }

    #[test]
    fn perfetto_has_tracks_spans_and_instants() {
        let r = sample_log();
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
        // Exactly the retransmit and the six injected mutations.
        let instants: Vec<&str> = ALL
            .into_iter()
            .filter(|h| h.is_instant())
            .map(Hop::name)
            .collect();
        assert_eq!(
            instants,
            [
                "rnic.retransmit",
                "switch.mutate.drop",
                "switch.mutate.ecn",
                "switch.mutate.corrupt",
                "switch.mutate.migreq",
                "switch.mutate.delay",
                "switch.mutate.reorder",
            ]
        );
    }

    #[test]
    fn record_hop_takes_only_pure_hop_names() {
        let pure: Vec<&str> = ALL
            .into_iter()
            .filter_map(|h| Hop::pure(h.name()))
            .map(Hop::name)
            .collect();
        let want = [
            hops::GEN_ENQUEUE,
            hops::LINK_EGRESS,
            hops::LINK_INGRESS,
            hops::SWITCH_FORWARD,
            hops::DUMPER_CAPTURE,
        ];
        assert_eq!(pure, want);
        assert_eq!(Hop::pure("switch.mutate.drop"), None);
        assert_eq!(Hop::pure("nosuch.hop"), None);
    }
}
