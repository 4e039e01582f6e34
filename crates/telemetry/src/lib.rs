//! Unified simulation telemetry for the Lumina reproduction.
//!
//! Every layer of the simulated testbed — the event engine, the RNIC
//! models, the programmable switch, the traffic generator and the
//! dumpers — reports what it does through one [`Telemetry`] handle, and
//! everything the handle holds is measured in *simulated* time:
//!
//! * **Event log** ([`journal`]): one bounded ring of [`Record`]s, seen
//!   as the *journal* of component decisions and as the *hop view* of
//!   packet lifecycles ([`trace`], off until [`Telemetry::enable_tracing`]).
//!   A record is one fixed-size value with its attributes inline, so
//!   recording allocates nothing once the ring has reached its length; each
//!   view counts what the ring evicted of it.
//!   Both render byte-identically across same-seed runs, and every map
//!   serializes in insertion order. Their readers only render them:
//!   nothing steers a run or a campaign by what the log holds.
//! * **Counters** ([`Telemetry::inc_counter`]): per-node named counters
//!   an embedder may add to. No component writes one: a component's own
//!   stat struct (engine, RNIC, switch, dumper counters) and the
//!   generator's metrics stay with their owner, and the reports read them
//!   there.
//!
//! Wall-clock readings live outside the sink: a [`SelfProfile`] is plain
//! data carried by whoever measured it (a run's `TestResults`, a fuzz
//! campaign's outcome), and the [`ops`] heartbeat writes straight to
//! stderr.
//!
//! A sink belongs to one run, and a run records on one thread, so the
//! handle is a plain `Rc` with no lock. When the run is over,
//! [`Telemetry::into_log`] moves the [`EventLog`] out: that is plain,
//! `Send` data, so a run's results can travel to another thread (the
//! parallel campaign executors depend on this) while the handle never
//! does. A disabled handle ([`Telemetry::disabled`]) holds no sink, so
//! every recording call is a no-op, and the [`tev!`] macro skips attribute
//! evaluation entirely in that case: instrumented hot paths cost one branch
//! when telemetry is off.
//!
//! This crate sits *below* `lumina-sim`: it identifies nodes by plain
//! `u32` ids (the engine's `NodeId` converts losslessly) and depends
//! only on the serde layer.

pub mod journal;
pub mod metrics;
pub mod ops;
pub mod profile;
pub mod trace;

pub use journal::{AttrValue, EventLog, Record, Site};
pub use metrics::Histogram;
pub use ops::{OpsReporter, OpsSnapshot};
pub use profile::SelfProfile;
pub use trace::{Hop, TraceSummary};

use metrics::Registry;
use std::cell::RefCell;
use std::rc::Rc;

/// Ring capacity of the event log before tracing adds room for hops.
const JOURNAL_CAPACITY: usize = 65_536;

/// Everything one run records.
struct Sink {
    log: EventLog,
    registry: Registry,
}

/// Handle to one simulation run's telemetry sink, or to none.
///
/// Clones share the sink, which is how the engine, the nodes and the
/// orchestrator record into one log. Packet-lifecycle tracing is a
/// separate, off-by-default gate, the log's own: until
/// [`enable_tracing`](Self::enable_tracing) there are no pure hops and no
/// hop view, so the golden reports (which run with telemetry on) never see
/// a trace.
#[derive(Clone, Default)]
pub struct Telemetry {
    /// `None` when disabled.
    sink: Option<Rc<RefCell<Sink>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("journal_len", &self.journal_len())
            .finish()
    }
}

impl Telemetry {
    /// A recording sink.
    pub fn enabled() -> Telemetry {
        let sink = Sink {
            log: EventLog::new(JOURNAL_CAPACITY),
            registry: Registry::default(),
        };
        Telemetry {
            sink: Some(Rc::new(RefCell::new(sink))),
        }
    }

    /// A no-op sink: every recording call returns immediately.
    pub fn disabled() -> Telemetry {
        Telemetry { sink: None }
    }

    /// Whether this sink records anything. The [`tev!`] macro consults
    /// this before evaluating its attribute expressions.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The log, moved out of the sink: every clone of the handle records
    /// into an empty log from here on. A disabled handle gives an empty log.
    pub fn into_log(self) -> EventLog {
        self.sink
            .map(|s| std::mem::take(&mut s.borrow_mut().log))
            .unwrap_or_default()
    }

    // ------------------------------------------------------------ tracing

    /// Whether packet-lifecycle tracing is on.
    pub fn is_tracing(&self) -> bool {
        self.sink.as_ref().is_some_and(|s| s.borrow().log.tracing)
    }

    /// Store trace ids relative to `baseline`, the raw provenance counter
    /// at the start of the run (`lumina_packet::buf::next_trace_id()`), so
    /// same-seed runs name the same packets on any thread, traced or not.
    pub fn set_trace_baseline(&self, baseline: u64) {
        if let Some(s) = &self.sink {
            s.borrow_mut().log.baseline = baseline;
        }
    }

    /// Turn on the hop view, with room in the log for `capacity` more
    /// records, and set the trace baseline.
    pub fn enable_tracing(&self, capacity: usize, baseline: u64) {
        if let Some(s) = &self.sink {
            let log = &mut s.borrow_mut().log;
            log.baseline = baseline;
            log.trace(capacity);
        }
    }

    /// Record one pure lifecycle hop (a [`trace::hops`] name); no-op unless
    /// tracing is on. A hop that is also a decision is `tev!`'s `hop(..)`
    /// form instead.
    #[inline]
    pub fn record_hop(&self, raw_trace_id: u64, hop: &'static str, node: u32, t: u64) {
        let Some(s) = &self.sink else {
            return;
        };
        let log = &mut s.borrow_mut().log;
        if !log.tracing {
            return;
        }
        let Some(hop) = Hop::pure(hop) else {
            debug_assert!(false, "{hop:?} is not a pure hop");
            return;
        };
        log.push(Record::of_hop(&journal::PURE_HOP, hop, raw_trace_id, t, node), &[]);
    }

    // ------------------------------------------------------------ journal

    /// Record one journal event with the values of its site's attributes;
    /// a hop-role one shows in the hop view only while tracing. Prefer the
    /// [`tev!`] macro, which skips building the record when the sink is
    /// disabled and checks the site when it compiles.
    pub fn emit(&self, rec: Record, attrs: &[AttrValue]) {
        if let Some(s) = &self.sink {
            s.borrow_mut().log.push(rec, attrs);
        }
    }

    /// Number of journal events currently held in the ring.
    pub fn journal_len(&self) -> usize {
        self.sink.as_ref().map_or(0, |s| s.borrow().log.journal_len())
    }

    /// Journal events evicted from the ring because it was full.
    pub fn journal_dropped(&self) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.borrow().log.journal_dropped())
    }

    // ----------------------------------------------------------- counters

    /// Add `delta` to the named per-node counter (saturating).
    pub fn inc_counter(&self, node: u32, name: &'static str, delta: u64) {
        if let Some(s) = &self.sink {
            s.borrow_mut().registry.inc(node, name, delta);
        }
    }
}

/// Record a journal event, skipping attribute evaluation when disabled.
/// The `hop(..)` form records a decision that is also a [`Hop`] of the
/// packet with that raw provenance id ([`Record::of_hop`]), whose kind is
/// the [`Hop`] table's. Any other kind is a string literal. Values are
/// integers, `f64`, `bool` or `&'static str`.
///
/// ```
/// use lumina_telemetry::{tev, Hop, Telemetry};
/// let tel = Telemetry::enabled();
/// let (psn, qpn, id) = (7u32, 1u32, 42u64);
/// tev!(tel, 100, 2, "rnic", "gbn.rollback", qpn = qpn, psn = psn, reason = "nack");
/// tev!(tel, 250, 2, "switch", hop(Hop::Drop, id), psn = psn);
/// assert_eq!(tel.journal_len(), 2);
/// ```
///
/// Each call site's component, kind and keys become one [`Site`] `static`,
/// so what a record cannot hold fails to compile. A fourth attribute:
///
/// ```compile_fail,E0080
/// # let tel = lumina_telemetry::Telemetry::enabled();
/// lumina_telemetry::tev!(tel, 0, 0, "c", "k", a = 1u8, b = 2u8, c = 3u8, d = 4u8);
/// ```
///
/// A key that shadows a fixed field (`t`, `node`, `component`, `kind`):
///
/// ```compile_fail,E0080
/// # let tel = lumina_telemetry::Telemetry::enabled();
/// lumina_telemetry::tev!(tel, 0, 0, "c", "k", node = 1u8);
/// ```
///
/// A key twice:
///
/// ```compile_fail,E0080
/// # let tel = lumina_telemetry::Telemetry::enabled();
/// lumina_telemetry::tev!(tel, 0, 0, "c", "k", psn = 1u8, psn = 2u8);
/// ```
#[macro_export]
macro_rules! tev {
    ($tel:expr, $t:expr, $node:expr, $component:expr, hop($hop:expr, $id:expr) $(, $key:ident = $val:expr)* $(,)?) => {
        if $tel.is_enabled() {
            static SITE: $crate::Site = $crate::Site::new($component, "", &[$(stringify!($key)),*]);
            $tel.emit($crate::Record::of_hop(&SITE, $hop, $id, $t, $node),
                &[$($crate::AttrValue::from($val)),*]);
        }
    };
    ($tel:expr, $t:expr, $node:expr, $component:expr, $kind:literal $(, $key:ident = $val:expr)* $(,)?) => {
        if $tel.is_enabled() {
            static SITE: $crate::Site = $crate::Site::new($component, $kind, &[$(stringify!($key)),*]);
            $tel.emit($crate::Record::event(&SITE, $t, $node),
                &[$($crate::AttrValue::from($val)),*]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let tel = Telemetry::disabled();
        tev!(tel, 10, 1, "switch", "drop", psn = 5u64);
        tel.inc_counter(1, "x", 1);
        tel.enable_tracing(16, 0);
        tel.record_hop(5, trace::hops::GEN_ENQUEUE, 0, 100);
        assert!(!tel.is_tracing());
        assert_eq!(tel.journal_len(), 0);
        assert_eq!(tel.into_log().journal_jsonl(), "");
    }

    #[test]
    fn macro_skips_attr_evaluation_when_disabled() {
        let tel = Telemetry::disabled();
        let mut evaluated = false;
        tev!(tel, 0, 0, "c", "k", x = {
            evaluated = true;
            1u64
        });
        assert!(!evaluated);
    }

    #[test]
    fn events_render_as_jsonl() {
        let tel = Telemetry::enabled();
        tev!(tel, 100, 2, "switch", "ecn.mark", psn = 4u32, qpn = 1u32);
        tev!(tel, 250, 3, "rnic", "cnp.tx");
        let out = tel.into_log().journal_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"t":100,"node":2,"component":"switch","kind":"ecn.mark","psn":4,"qpn":1}"#
        );
        assert_eq!(lines[1], r#"{"t":250,"node":3,"component":"rnic","kind":"cnp.tx"}"#);
    }

    #[test]
    fn registry_keeps_what_the_run_recorded() {
        let tel = Telemetry::enabled();
        tel.inc_counter(1, "tx_packets", 3);
        tel.inc_counter(1, "tx_packets", 2);
        tel.inc_counter(0, "tx_packets", 1);
        let sink = tel.sink.as_ref().map(|s| s.borrow());
        let registry = &sink.as_ref().unwrap().registry;
        assert_eq!(registry.counter(1, "tx_packets"), 5);
        assert_eq!(registry.counter(0, "tx_packets"), 1);
        assert_eq!(registry.counter(2, "tx_packets"), 0);
    }

    #[test]
    fn tracing_is_off_by_default_even_when_enabled() {
        let tel = Telemetry::enabled();
        assert!(tel.is_enabled());
        assert!(!tel.is_tracing());
        tel.record_hop(5, "gen.enqueue", 0, 100);
        assert_eq!(tel.into_log().records.len(), 0);
    }

    #[test]
    fn enable_tracing_normalizes_against_baseline() {
        let tel = Telemetry::enabled();
        tel.enable_tracing(16, 40);
        assert!(tel.is_tracing());
        tel.record_hop(42, "gen.enqueue", 0, 100);
        let log = tel.into_log();
        assert!(log.is_tracing());
        let ids: Vec<u64> = log.hops().map(|(id, _, _)| id).collect();
        assert_eq!(ids, [2]);
    }

    /// What each gate keeps: `(journal kinds, hop-view names, ids)`.
    fn views(tel: Telemetry) -> (Vec<&'static str>, Vec<&'static str>, Vec<Option<u64>>) {
        tev!(tel, 1, 2, "switch", "iter.transition");
        tel.record_hop(11, trace::hops::SWITCH_FORWARD, 2, 2);
        tev!(tel, 3, 2, "switch", hop(Hop::Drop, 12), psn = 4u32);
        let l = tel.into_log();
        (
            l.journal().map(Record::kind).collect(),
            l.hops().map(|(_, hop, _)| hop.name()).collect(),
            l.records.iter().map(Record::trace_id).collect(),
        )
    }

    #[test]
    fn each_role_is_kept_under_its_gate() {
        assert_eq!(views(Telemetry::disabled()), (vec![], vec![], vec![]));
        // On but untraced: the decision keeps its packet's id, and there
        // is no pure hop and no hop view.
        let tel = Telemetry::enabled();
        tel.set_trace_baseline(10);
        assert_eq!(
            views(tel),
            (vec!["iter.transition", "drop"], vec![], vec![None, Some(2)])
        );
        let tel = Telemetry::enabled();
        tel.enable_tracing(16, 10);
        assert_eq!(
            views(tel),
            (
                vec!["iter.transition", "drop"],
                vec!["switch.forward", "switch.mutate.drop"],
                vec![None, Some(1), Some(2)],
            )
        );
    }

    #[test]
    fn one_ring_counts_what_each_view_lost() {
        // Room for one hop beyond the journal's 65 536: filling the
        // journal, then two hops and one more event evicts the two
        // oldest events, which only the journal counts.
        let tel = Telemetry::enabled();
        tel.enable_tracing(1, 0);
        for t in 0..JOURNAL_CAPACITY as u64 {
            tev!(tel, t, 0, "c", "k");
        }
        tel.record_hop(0, trace::hops::GEN_ENQUEUE, 0, 1 << 20);
        tel.record_hop(0, trace::hops::LINK_EGRESS, 0, 1 << 21);
        tev!(tel, 1 << 22, 0, "c", "last");
        assert_eq!(tel.journal_dropped(), 2);
        assert_eq!(tel.journal_len(), JOURNAL_CAPACITY - 1);
        // As many events again push both hops out: each view's retained
        // plus dropped is what it was offered.
        for t in 0..JOURNAL_CAPACITY as u64 {
            tev!(tel, (1 << 23) + t, 0, "c", "k");
        }
        let log = tel.into_log();
        let offered = 2 * JOURNAL_CAPACITY as u64 + 1;
        assert_eq!(log.journal_len() as u64 + log.journal_dropped(), offered);
        assert_eq!(log.records.front().map(|r| r.t), Some(1 << 22), "oldest first");
        let hops = TraceSummary::from_log(&log);
        assert_eq!((hops.records, hops.dropped), (0, 2));
    }

    #[test]
    fn clones_share_one_sink() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        tev!(other, 5, 0, "gen", "flow.done");
        assert_eq!(tel.journal_len(), 1);
        let log = tel.into_log();
        assert_eq!(log.journal_len(), 1);
        assert_eq!(other.journal_len(), 0);
    }
}
