//! The run's event log: one bounded ring of [`Record`]s in two roles. A
//! *journal* record is a component's decision (a drop, an ECN mark, a CNP, a
//! timeout, a go-back-N rollback, a mirror emission); a *hop* is a packet
//! reaching a point of its lifecycle, named by the [`Hop`] table, carrying
//! its `trace_id` ([`trace`](crate::trace) renders those). A decision that
//! happens to a packet is one record in both roles. A full ring evicts its
//! oldest record, whatever the role, and counts it: one eviction counter.

use crate::trace::Hop;
use std::collections::VecDeque;

/// One attribute value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (PSNs, QPNs, byte counts…).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rates, fractions).
    F64(f64),
    /// Text.
    Str(String),
    /// Flag.
    Bool(bool),
}

macro_rules! attr_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> AttrValue { AttrValue::U64(v as u64) }
        }
    )*};
}
attr_from_uint!(u8, u16, u32, u64, usize);

macro_rules! attr_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> AttrValue { AttrValue::I64(v as i64) }
        }
    )*};
}
attr_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::F64(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    /// Render as a JSON value.
    pub fn to_json(&self) -> serde_json::Value {
        match self {
            AttrValue::U64(v) => serde_json::Value::from(*v),
            AttrValue::I64(v) => serde_json::Value::from(*v),
            AttrValue::F64(v) => serde_json::Value::from(*v),
            AttrValue::Str(v) => serde_json::Value::String(v.clone()),
            AttrValue::Bool(v) => serde_json::Value::Bool(*v),
        }
    }
}

/// A record's free-form key/value payload.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// One entry of the event log, stamped with simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Simulated time in nanoseconds.
    pub t: u64,
    /// Node the event happened on (engine `NodeId` as `u32`).
    pub node: u32,
    /// Emitting component, e.g. `"switch"`, `"rnic"`; empty for a pure hop.
    pub component: &'static str,
    /// Event kind, dotted lowercase, e.g. `"ecn.mark"`, `"gbn.rollback"`.
    pub kind: &'static str,
    /// The packet hop this record also is, if any.
    pub hop: Option<Hop>,
    /// Free-form key/value payload.
    pub attrs: Attrs,
    /// Provenance id of the hop's packet, raw when built and relative to
    /// the run's first frame once in the log (a plain `u64` beside `hop`
    /// keeps the record at 80 bytes; read it through `trace_id`).
    id: u64,
}

impl Record {
    /// A journal event about no packet.
    pub fn event(t: u64, node: u32, component: &'static str, kind: &'static str, attrs: Attrs)
        -> Record {
        Record { t, node, component, kind, hop: None, attrs, id: 0 }
    }

    /// A record that is `hop` of the frame whose raw provenance id is
    /// `raw_id`; its kind comes from the [`Hop`] table, never the
    /// caller: the journal kind, or the hop name of a pure hop.
    pub fn of_hop(hop: Hop, raw_id: u64, t: u64, node: u32, component: &'static str, attrs: Attrs)
        -> Record {
        let kind = hop.journal_kind().unwrap_or(hop.name());
        Record { hop: Some(hop), id: raw_id, ..Record::event(t, node, component, kind, attrs) }
    }

    /// The id of the packet the record is about: every hop has one.
    pub fn trace_id(&self) -> Option<u64> {
        self.hop.map(|_| self.id)
    }

    /// Whether the journal shows the record: all but the pure hops.
    pub fn in_journal(&self) -> bool {
        self.hop.is_none_or(|h| h.journal_kind().is_some())
    }

    /// Render as a single flat JSON object: fixed fields first, then the
    /// attributes in their original order (an attribute may not shadow a
    /// fixed field name). The `trace_id` is not rendered.
    pub fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert("t", serde_json::Value::from(self.t));
        m.insert("node", serde_json::Value::from(self.node as u64));
        m.insert("component", serde_json::Value::String(self.component.to_string()));
        m.insert("kind", serde_json::Value::String(self.kind.to_string()));
        for (k, v) in &self.attrs {
            debug_assert!(
                !matches!(*k, "t" | "node" | "component" | "kind"),
                "attribute {k:?} shadows a fixed journal field"
            );
            m.insert(*k, v.to_json());
        }
        serde_json::Value::Object(m)
    }
}

/// Bounded FIFO of [`Record`]s, the one ring of a run.
#[derive(Debug, Default)]
pub struct EventLog {
    pub(crate) records: VecDeque<Record>,
    capacity: usize,
    /// Records evicted because the ring was full, whatever their role.
    pub(crate) dropped: u64,
    /// Retained records in the journal role.
    pub(crate) journal_len: usize,
    /// Raw provenance id of the run's first frame.
    pub(crate) baseline: u64,
    /// Whether the hop view shows anything.
    pub(crate) tracing: bool,
}

impl EventLog {
    /// A log holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> EventLog {
        EventLog { capacity: capacity.max(1), ..EventLog::default() }
    }

    /// Turn the hop view on, with room for `room` more records.
    pub(crate) fn trace(&mut self, room: usize) {
        self.capacity = self.capacity.saturating_add(room);
        self.tracing = true;
    }

    /// Append a record, its id made baseline-relative, evicting the oldest
    /// when full.
    pub fn push(&mut self, mut rec: Record) {
        rec.id = rec.id.saturating_sub(self.baseline);
        if self.records.len() == self.capacity {
            let evicted = self.records.pop_front();
            self.journal_len -= usize::from(evicted.is_some_and(|r| r.in_journal()));
            self.dropped += 1;
        }
        self.journal_len += usize::from(rec.in_journal());
        self.records.push_back(rec);
    }

    /// The journal view: every retained record but the pure hops, oldest
    /// first.
    pub fn journal(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.in_journal())
    }

    /// Render the journal view as JSON Lines (one compact object per
    /// event, oldest first).
    pub fn journal_jsonl(&self) -> String {
        jsonl(self.journal().map(Record::to_json))
    }
}

/// One compact JSON object per line.
pub(crate) fn jsonl(values: impl Iterator<Item = serde_json::Value>) -> String {
    values.map(|v| v.to_string() + "\n").collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, node: u32, kind: &'static str) -> Record {
        Record::event(t, node, "test", kind, vec![])
    }

    #[test]
    fn a_record_costs_what_a_journal_event_did_plus_its_id() {
        // 72 bytes before the two rings merged; the id adds 8, no more.
        assert_eq!(std::mem::size_of::<Record>(), 80);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        // Eviction is oldest-first whatever the role: a pure hop counts
        // against the one ring and the one counter like a journal event.
        let mut log = EventLog::new(3);
        log.trace(1);
        log.push(ev(0, 0, "tick"));
        log.push(Record::of_hop(Hop::LinkEgress, 7, 1, 0, "", vec![]));
        for t in 2..6 {
            log.push(ev(t, 0, "tick"));
        }
        assert_eq!(log.records.len(), 4);
        assert_eq!(log.dropped, 2);
        let ts: Vec<u64> = log.records.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![2, 3, 4, 5]);
        assert_eq!((log.journal().count(), log.journal_len), (4, 4));
    }

    #[test]
    fn roles_split_the_views() {
        let mut log = EventLog::new(8);
        log.baseline = 10;
        log.push(ev(0, 2, "drop"));
        log.push(Record::of_hop(Hop::SwitchForward, 11, 1, 2, "", vec![]));
        log.push(Record::of_hop(Hop::Drop, 12, 2, 2, "switch", vec![]));
        let kinds: Vec<_> = log.journal().map(|r| (r.kind, r.trace_id())).collect();
        // The no-route drop carries no packet; the injected one does.
        assert_eq!(kinds, vec![("drop", None), ("drop", Some(2))]);
        let hops: Vec<_> = log.records.iter().filter_map(|r| r.hop).collect();
        assert_eq!(hops, vec![Hop::SwitchForward, Hop::Drop]);
    }

    #[test]
    fn jsonl_is_one_compact_object_per_line() {
        let mut j = EventLog::new(8);
        let attrs = vec![("psn", AttrValue::U64(5)), ("dup", AttrValue::Bool(false))];
        j.push(Record::of_hop(Hop::Drop, 3, 7, 1, "switch", attrs));
        j.push(Record::of_hop(Hop::SwitchForward, 4, 8, 1, "", vec![]));
        assert_eq!(
            j.journal_jsonl(),
            "{\"t\":7,\"node\":1,\"component\":\"switch\",\"kind\":\"drop\",\"psn\":5,\"dup\":false}\n"
        );
    }
}
