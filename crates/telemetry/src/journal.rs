//! The run's event log: one bounded ring of [`Record`]s in two roles. A
//! *journal* record is a component's decision (a drop, an ECN mark, a CNP, a
//! timeout, a go-back-N rollback, a mirror emission); a *hop* is a packet
//! reaching a point of its lifecycle, named by the [`Hop`] table, carrying
//! its `trace_id` ([`trace`](crate::trace) renders those). A decision that
//! happens to a packet is one record in both roles. A full ring evicts its
//! oldest record, whatever the role, and each view counts what it lost.
//!
//! A record is one fixed-size value that owns no heap memory: its
//! component, kind and attribute keys live in the [`Site`] `static` that
//! [`tev!`](crate::tev) emits at each call site (a hop's kind in the [`Hop`]
//! table instead), its attribute values in three 8-byte slots beside their
//! type tags, and a `&'static str` value is an index into the log's table
//! of the strings it has seen.

use crate::trace::Hop;
use std::collections::VecDeque;

/// The attribute slots of one record: no call site journals more.
pub const SLOTS: usize = 3;

/// One attribute value, as [`tev!`](crate::tev) takes it from a call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (PSNs, QPNs, byte counts…).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rates, fractions).
    F64(f64),
    /// Text, one of the call site's literals.
    Str(&'static str),
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

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    /// Render as a JSON value.
    pub fn to_json(&self) -> serde_json::Value {
        match *self {
            AttrValue::U64(v) => serde_json::Value::from(v),
            AttrValue::I64(v) => serde_json::Value::from(v),
            AttrValue::F64(v) => serde_json::Value::from(v),
            AttrValue::Str(v) => serde_json::Value::String(v.to_string()),
            AttrValue::Bool(v) => serde_json::Value::Bool(v),
        }
    }
}

/// The fields a record always renders, which no attribute may shadow.
const FIXED: [&str; 4] = ["t", "node", "component", "kind"];

/// The fixed part of one recording site: its component, its kind and its
/// attribute keys, in call order. [`tev!`](crate::tev) puts one in a
/// `static` at each call, so [`Site::new`]'s checks run when that `static`
/// is evaluated — at compile time.
#[derive(Debug, PartialEq, Eq)]
pub struct Site {
    component: &'static str,
    /// Event kind, dotted lowercase, e.g. `"ecn.mark"`; unused by a hop's
    /// records, which take theirs from the [`Hop`] table.
    kind: &'static str,
    keys: &'static [&'static str],
}

impl Site {
    /// A site of `component` journaling `kind` events with `keys`: at most
    /// [`SLOTS`] of them, none named like a fixed field, no two alike.
    pub const fn new(
        component: &'static str,
        kind: &'static str,
        keys: &'static [&'static str],
    ) -> Site {
        assert!(
            keys.len() <= SLOTS,
            "a record holds at most three attributes"
        );
        let mut i = 0;
        while i < keys.len() {
            let mut f = 0;
            while f < FIXED.len() {
                assert!(
                    !str_eq(keys[i], FIXED[f]),
                    "an attribute may not shadow t, node, component or kind"
                );
                f += 1;
            }
            let mut j = 0;
            while j < i {
                assert!(!str_eq(keys[i], keys[j]), "an attribute key appears twice");
                j += 1;
            }
            i += 1;
        }
        Site {
            component,
            kind,
            keys,
        }
    }
}

/// `a == b`, in a `const fn`.
const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// The site of a pure hop: no component, no attribute.
pub(crate) static PURE_HOP: Site = Site::new("", "", &[]);

/// How an attribute slot's 8 bytes read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    U64,
    I64,
    F64,
    Bool,
    /// An index into the log's string table.
    Str,
}

/// One entry of the event log, stamped with simulated time: 56 bytes, no
/// heap memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Simulated time in nanoseconds.
    pub t: u64,
    /// Provenance id of the hop's packet, raw when built and relative to
    /// the run's first frame once in the log; read it through `trace_id`.
    id: u64,
    /// Component, kind and attribute keys.
    site: &'static Site,
    /// Attribute values, the first `site.keys.len()` in use.
    slots: [u64; SLOTS],
    /// Node the event happened on (engine `NodeId` as `u32`).
    pub node: u32,
    tags: [Tag; SLOTS],
    /// The packet hop this record also is, if any.
    pub hop: Option<Hop>,
}

// Every retained record of a run is in its peak RSS: up to 65 536 of them
// untraced, all 33 000 of `run_packets`.
const _: () = assert!(std::mem::size_of::<Record>() == 56);

impl Record {
    /// A journal event about no packet, of its site's kind;
    /// [`EventLog::push`] adds its attribute values.
    pub fn event(site: &'static Site, t: u64, node: u32) -> Record {
        Record {
            t,
            id: 0,
            site,
            slots: [0; SLOTS],
            node,
            tags: [Tag::U64; SLOTS],
            hop: None,
        }
    }

    /// A record that is `hop` of the frame whose raw provenance id is
    /// `raw_id`; its kind comes from the [`Hop`] table.
    pub fn of_hop(site: &'static Site, hop: Hop, raw_id: u64, t: u64, node: u32) -> Record {
        Record {
            hop: Some(hop),
            id: raw_id,
            ..Record::event(site, t, node)
        }
    }

    /// Emitting component, e.g. `"switch"`, `"rnic"`; empty for a pure hop.
    pub fn component(&self) -> &'static str {
        self.site.component
    }

    /// Event kind, dotted lowercase, e.g. `"ecn.mark"`, `"gbn.rollback"`:
    /// the site's, or for a hop the [`Hop`] table's — the journal kind, or
    /// the hop name of a pure hop.
    pub fn kind(&self) -> &'static str {
        match self.hop {
            Some(hop) => hop.journal_kind().unwrap_or(hop.name()),
            None => self.site.kind,
        }
    }

    /// The id of the packet the record is about: every hop has one.
    pub fn trace_id(&self) -> Option<u64> {
        self.hop.map(|_| self.id)
    }

    /// Whether the journal shows the record: all but the pure hops.
    pub fn in_journal(&self) -> bool {
        self.hop.is_none_or(|h| h.journal_kind().is_some())
    }

    /// The attributes in call order, their strings read from `log`, the
    /// log holding the record.
    pub fn attrs<'a>(
        &'a self,
        log: &'a EventLog,
    ) -> impl Iterator<Item = (&'static str, AttrValue)> + 'a {
        let values = self
            .slots
            .iter()
            .zip(&self.tags)
            .map(|(&bits, tag)| match tag {
                Tag::U64 => AttrValue::U64(bits),
                Tag::I64 => AttrValue::I64(bits as i64),
                Tag::F64 => AttrValue::F64(f64::from_bits(bits)),
                Tag::Bool => AttrValue::Bool(bits != 0),
                Tag::Str => {
                    AttrValue::Str(log.strs.get(bits as usize).copied().unwrap_or_default())
                }
            });
        self.site.keys.iter().copied().zip(values)
    }

    /// Render as a single flat JSON object: fixed fields first, then the
    /// attributes in call order, read from `log`, the log holding the
    /// record. The `trace_id` is not rendered.
    pub fn to_json(&self, log: &EventLog) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert("t", serde_json::Value::from(self.t));
        m.insert("node", serde_json::Value::from(self.node as u64));
        m.insert(
            "component",
            serde_json::Value::String(self.component().to_string()),
        );
        m.insert("kind", serde_json::Value::String(self.kind().to_string()));
        for (k, v) in self.attrs(log) {
            m.insert(k, v.to_json());
        }
        serde_json::Value::Object(m)
    }
}

/// Bounded FIFO of [`Record`]s, the one ring of a run.
#[derive(Debug, Default)]
pub struct EventLog {
    pub(crate) records: VecDeque<Record>,
    capacity: usize,
    /// Journal-role records evicted because the ring was full.
    pub(crate) journal_dropped: u64,
    /// Hop-role records evicted because the ring was full.
    pub(crate) hop_dropped: u64,
    /// Retained records in the journal role.
    pub(crate) journal_len: usize,
    /// Every distinct string attribute value recorded, by first use.
    strs: Vec<&'static str>,
    /// Raw provenance id of the run's first frame.
    pub(crate) baseline: u64,
    /// Whether the hop view shows anything.
    pub(crate) tracing: bool,
}

impl EventLog {
    /// A log holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> EventLog {
        EventLog {
            capacity: capacity.max(1),
            ..EventLog::default()
        }
    }

    /// Turn the hop view on, with room for `room` more records.
    pub(crate) fn trace(&mut self, room: usize) {
        self.capacity = self.capacity.saturating_add(room);
        self.tracing = true;
    }

    /// Append a record with the values of its site's attributes, its id
    /// made baseline-relative, evicting the oldest when full.
    pub fn push(&mut self, mut rec: Record, attrs: &[AttrValue]) {
        debug_assert_eq!(attrs.len(), rec.site.keys.len(), "{:?}", rec.site);
        for ((slot, tag), &v) in rec.slots.iter_mut().zip(&mut rec.tags).zip(attrs) {
            (*tag, *slot) = match v {
                AttrValue::U64(v) => (Tag::U64, v),
                AttrValue::I64(v) => (Tag::I64, v as u64),
                AttrValue::F64(v) => (Tag::F64, v.to_bits()),
                AttrValue::Bool(v) => (Tag::Bool, u64::from(v)),
                AttrValue::Str(v) => (Tag::Str, self.intern(v)),
            };
        }
        rec.id = rec.id.saturating_sub(self.baseline);
        if self.records.len() == self.capacity {
            if let Some(evicted) = self.records.pop_front() {
                if evicted.in_journal() {
                    self.journal_len -= 1;
                    self.journal_dropped += 1;
                }
                self.hop_dropped += u64::from(evicted.hop.is_some());
            }
        }
        self.journal_len += usize::from(rec.in_journal());
        self.records.push_back(rec);
    }

    /// The index of `s` in the string table, added on first use.
    fn intern(&mut self, s: &'static str) -> u64 {
        let i = self.strs.iter().position(|&t| t == s).unwrap_or_else(|| {
            self.strs.push(s);
            self.strs.len() - 1
        });
        i as u64
    }

    /// The journal view: every retained record but the pure hops, oldest
    /// first.
    pub fn journal(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.in_journal())
    }

    /// Number of journal events held in the ring.
    pub fn journal_len(&self) -> usize {
        self.journal_len
    }

    /// Journal events evicted because the ring was full: with
    /// [`journal_len`](Self::journal_len), every event the run journaled.
    pub fn journal_dropped(&self) -> u64 {
        self.journal_dropped
    }

    /// Whether the hop view shows anything (the run traced).
    pub fn is_tracing(&self) -> bool {
        self.tracing
    }

    /// Render the journal view as JSON Lines (one compact object per
    /// event, oldest first).
    pub fn journal_jsonl(&self) -> String {
        jsonl(self.journal().map(|r| r.to_json(self)))
    }
}

/// One compact JSON object per line.
pub(crate) fn jsonl(values: impl Iterator<Item = serde_json::Value>) -> String {
    values.map(|v| v.to_string() + "\n").collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    static TICK: Site = Site::new("test", "tick", &[]);
    static NO_ROUTE: Site = Site::new("test", "drop", &[]);
    static SWITCH: Site = Site::new("switch", "", &[]);

    fn ev(t: u64, node: u32) -> Record {
        Record::event(&TICK, t, node)
    }

    #[test]
    fn a_record_is_56_bytes_and_owns_no_heap() {
        // Every retained record of a run is in its peak RSS: up to 65 536
        // of them untraced, all 33 000 of `run_packets`.
        assert_eq!(std::mem::size_of::<Record>(), 56);
        assert!(!std::mem::needs_drop::<Record>());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        // Eviction is oldest-first whatever the role; each view counts
        // what it lost, so retained + dropped is what it was offered.
        let mut log = EventLog::new(3);
        log.trace(1);
        log.push(ev(0, 0), &[]);
        log.push(Record::of_hop(&PURE_HOP, Hop::LinkEgress, 7, 1, 0), &[]);
        log.push(Record::of_hop(&SWITCH, Hop::Mirror, 8, 2, 0), &[]);
        for t in 3..6 {
            log.push(ev(t, 0), &[]);
        }
        assert_eq!(log.records.len(), 4);
        let ts: Vec<u64> = log.records.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![2, 3, 4, 5]);
        assert_eq!((log.journal().count(), log.journal_len), (4, 4));
        // Offered: five journal records (the mirror is both), two hops.
        assert_eq!((log.journal_dropped, log.hop_dropped), (1, 1));
    }

    #[test]
    fn roles_split_the_views() {
        let mut log = EventLog::new(8);
        log.baseline = 10;
        log.push(Record::event(&NO_ROUTE, 0, 2), &[]);
        log.push(Record::of_hop(&PURE_HOP, Hop::SwitchForward, 11, 1, 2), &[]);
        log.push(Record::of_hop(&SWITCH, Hop::Drop, 12, 2, 2), &[]);
        let kinds: Vec<_> = log.journal().map(|r| (r.kind(), r.trace_id())).collect();
        // The no-route drop carries no packet; the injected one does.
        assert_eq!(kinds, vec![("drop", None), ("drop", Some(2))]);
        let hops: Vec<_> = log.records.iter().filter_map(|r| r.hop).collect();
        assert_eq!(hops, vec![Hop::SwitchForward, Hop::Drop]);
    }

    #[test]
    fn jsonl_is_one_compact_object_per_line() {
        static DROP: Site = Site::new("switch", "", &["psn", "dup"]);
        let mut j = EventLog::new(8);
        let attrs = [AttrValue::U64(5), AttrValue::Bool(false)];
        j.push(Record::of_hop(&DROP, Hop::Drop, 3, 7, 1), &attrs);
        j.push(Record::of_hop(&PURE_HOP, Hop::SwitchForward, 4, 8, 1), &[]);
        assert_eq!(
            j.journal_jsonl(),
            "{\"t\":7,\"node\":1,\"component\":\"switch\",\"kind\":\"drop\",\"psn\":5,\"dup\":false}\n"
        );
    }

    #[test]
    fn string_values_share_one_table_entry_per_string() {
        static WHY: Site = Site::new("rnic", "gbn.rollback", &["reason"]);
        let mut log = EventLog::new(8);
        for why in ["nack", "timeout", "nack"] {
            log.push(ev(0, 0), &[]);
            log.push(Record::event(&WHY, 1, 0), &[AttrValue::Str(why)]);
        }
        assert_eq!(log.strs, ["nack", "timeout"]);
        let whys: Vec<_> = log
            .journal()
            .flat_map(|r| r.attrs(&log))
            .map(|(_, v)| v)
            .collect();
        let want = ["nack", "timeout", "nack"].map(AttrValue::Str);
        assert_eq!(whys, want);
    }

    /// The renderer records had while their attributes were an owned
    /// `Vec<(&str, AttrValue)>`, kept as the reference.
    fn reference(
        t: u64,
        node: u32,
        component: &str,
        kind: &str,
        attrs: &[(&str, AttrValue)],
    ) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert("t", serde_json::Value::from(t));
        m.insert("node", serde_json::Value::from(node as u64));
        m.insert(
            "component",
            serde_json::Value::String(component.to_string()),
        );
        m.insert("kind", serde_json::Value::String(kind.to_string()));
        for (k, v) in attrs {
            let v = match *v {
                AttrValue::U64(v) => serde_json::Value::from(v),
                AttrValue::I64(v) => serde_json::Value::from(v),
                AttrValue::F64(v) => serde_json::Value::from(v),
                AttrValue::Str(v) => serde_json::Value::String(v.to_string()),
                AttrValue::Bool(v) => serde_json::Value::Bool(v),
            };
            m.insert(*k, v);
        }
        serde_json::Value::Object(m)
    }

    #[test]
    fn random_records_render_as_the_vec_renderer_did() {
        static SITES: [Site; 4] = [
            Site::new("gen", "k.ind", &[]),
            Site::new("switch", "k.ind", &["psn"]),
            Site::new("rnic", "k.ind", &["qpn", "reason"]),
            Site::new("chaos", "k.ind", &["z", "a", "m"]),
        ];
        const STRS: [&str; 3] = ["nack", "", "a \"quoted\"\nline"];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let value = |r: u64| match r % 12 {
            0 => AttrValue::U64(0),
            1 => AttrValue::U64(u64::MAX),
            2 => AttrValue::U64(r >> 8),
            3 => AttrValue::I64(i64::MIN),
            4 => AttrValue::I64(-((r >> 8) as i64)),
            5 => AttrValue::F64(f64::NAN),
            6 => AttrValue::F64(f64::from_bits(r >> 2)),
            7 => AttrValue::F64(-1.5e-300),
            8 => AttrValue::F64(f64::INFINITY),
            9 => AttrValue::Bool(r & 256 != 0),
            _ => AttrValue::Str(STRS[(r >> 8) as usize % STRS.len()]),
        };
        const N: usize = 4_096;
        let mut log = EventLog::new(N);
        let mut want = Vec::new();
        for _ in 0..N {
            let r = next();
            let site = &SITES[r as usize % SITES.len()];
            let (t, node) = (next(), (r >> 32) as u32);
            let vals: Vec<AttrValue> = site.keys.iter().map(|_| value(next())).collect();
            let rec = if r & 8 != 0 {
                Record::of_hop(site, Hop::Mirror, next(), t, node)
            } else {
                Record::event(site, t, node)
            };
            let pairs: Vec<_> = site
                .keys
                .iter()
                .copied()
                .zip(vals.iter().copied())
                .collect();
            want.push(reference(t, node, site.component, rec.kind(), &pairs).to_string());
            log.push(rec, &vals);
        }
        let got: Vec<String> = log.journal().map(|r| r.to_json(&log).to_string()).collect();
        assert_eq!(got, want);
        assert!(got.iter().any(|l| l.contains("null")), "NaN renders null");
    }
}
