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
//! * **Per-node metric registry** ([`metrics`]): the counters and
//!   log-linear histograms recorded during the run, keyed by node id. A
//!   component's own stat struct (engine, RNIC, switch, dumper counters) is
//!   not copied here: the reports read it from its owner.
//!
//! Wall-clock readings live outside the sink: a [`SelfProfile`] is plain
//! data carried by whoever measured it (a run's `TestResults`, a fuzz
//! campaign's outcome), and the [`ops`] heartbeat writes straight to
//! stderr.
//!
//! The handle is a cheap-to-clone `Arc` and is `Send + Sync`, so whole
//! simulation runs (each owning a sink) can execute on worker threads —
//! the parallel fuzz campaign executor depends on this. A disabled handle
//! ([`Telemetry::disabled`]) makes every recording call a no-op, and the
//! [`tev!`] macro skips attribute evaluation entirely in that case, so
//! instrumented hot paths cost one branch when telemetry is off.
//! One uncontended lock guards the log and the registry: within one run
//! all recording happens on one thread.
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
pub use metrics::{Histogram, NodeMetrics, Registry};
pub use ops::{OpsReporter, OpsSnapshot};
pub use profile::SelfProfile;
pub use trace::{Hop, TraceSummary};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Ring capacity of the event log before tracing adds room for hops.
const JOURNAL_CAPACITY: usize = 65_536;

struct Inner {
    enabled: AtomicBool,
    // Packet-lifecycle tracing is a separate, off-by-default gate: until
    // `enable_tracing` there are no pure hops and no hop view, so the
    // golden reports (which run with telemetry on) never see a trace.
    tracing: AtomicBool,
    sink: Mutex<Sink>,
}

/// Everything one run records, behind the one lock.
struct Sink {
    log: EventLog,
    registry: Registry,
}

/// Shared handle to one simulation run's telemetry sink.
///
/// Clones are cheap (`Arc`) and all clones observe the same sink, which
/// is how the engine, the nodes and the orchestrator share one journal.
/// The handle is `Send + Sync`, so a run (and the results carrying its
/// sink) can live on a worker thread.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

// The whole point of the Arc/Mutex interior: runs carrying a sink must be
// movable across threads. Keep that fact checked at compile time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Telemetry>();
};

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("journal_len", &self.journal_len())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    fn new(enabled: bool) -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(enabled),
                tracing: AtomicBool::new(false),
                sink: Mutex::new(Sink {
                    log: EventLog::new(JOURNAL_CAPACITY),
                    registry: Registry::default(),
                }),
            }),
        }
    }

    /// A recording sink.
    pub fn enabled() -> Telemetry {
        Telemetry::new(true)
    }

    /// A no-op sink: every recording call returns immediately.
    pub fn disabled() -> Telemetry {
        Telemetry::new(false)
    }

    /// The sink, shrugging off poisoning: a panicking worker thread must
    /// not wedge every other run's telemetry.
    fn sink(&self) -> MutexGuard<'_, Sink> {
        self.inner.sink.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether this sink records anything. The [`tev!`] macro consults
    /// this before evaluating its attribute expressions.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------ tracing

    /// Whether packet-lifecycle tracing is on. Instrumented hops consult
    /// this first, so tracing costs one branch when off — exactly like
    /// the [`tev!`] gate.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.inner.tracing.load(Ordering::Relaxed)
    }

    /// Store trace ids relative to `baseline`, the raw provenance counter
    /// at the start of the run (`lumina_packet::buf::next_trace_id()`), so
    /// same-seed runs name the same packets on any thread, traced or not.
    pub fn set_trace_baseline(&self, baseline: u64) {
        self.sink().log.baseline = baseline;
    }

    /// Turn on the hop view, with room in the log for `capacity` more
    /// records, and set the trace baseline.
    pub fn enable_tracing(&self, capacity: usize, baseline: u64) {
        self.set_trace_baseline(baseline);
        self.sink().log.trace(capacity);
        self.inner.tracing.store(true, Ordering::Relaxed);
    }

    /// Record one pure lifecycle hop (a [`trace::hops`] name); no-op (one
    /// branch) unless tracing is on. A hop that is also a decision is
    /// `tev!`'s `hop(..)` form instead.
    #[inline]
    pub fn record_hop(&self, raw_trace_id: u64, hop: &'static str, node: u32, t: u64) {
        if !self.is_tracing() {
            return;
        }
        let Some(hop) = Hop::pure(hop) else {
            debug_assert!(false, "{hop:?} is not a pure hop");
            return;
        };
        let rec = Record::of_hop(&journal::PURE_HOP, hop, raw_trace_id, t, node);
        self.sink().log.push(rec, &[]);
    }

    /// Run `f` over the event log (summaries, exports).
    pub fn with_log<R>(&self, f: impl FnOnce(&EventLog) -> R) -> R {
        f(&self.sink().log)
    }

    // ------------------------------------------------------------ journal

    /// Record one journal event with the values of its site's attributes;
    /// a hop-role one shows in the hop view only while tracing. Prefer the
    /// [`tev!`] macro, which skips building the record when the sink is
    /// disabled and checks the site when it compiles.
    pub fn emit(&self, rec: Record, attrs: &[AttrValue]) {
        if self.is_enabled() {
            self.sink().log.push(rec, attrs);
        }
    }

    /// Number of journal events currently held in the ring.
    pub fn journal_len(&self) -> usize {
        self.sink().log.journal_len
    }

    /// Journal events evicted from the ring because it was full: with
    /// [`journal_len`](Self::journal_len), every event the run journaled.
    pub fn journal_dropped(&self) -> u64 {
        self.sink().log.journal_dropped
    }

    /// Render the journal as JSON Lines (one event object per line),
    /// byte-identical across same-seed runs.
    pub fn journal_jsonl(&self) -> String {
        self.sink().log.journal_jsonl()
    }

    /// Run `f` over each journal event in order.
    pub fn for_each_event<F: FnMut(&Record)>(&self, f: F) {
        self.sink().log.journal().for_each(f);
    }

    // ------------------------------------------------------------ metrics

    /// Add `delta` to the named per-node counter (saturating).
    pub fn inc_counter(&self, node: u32, name: &'static str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        self.sink().registry.node_mut(node).inc(name, delta);
    }

    /// Record a sample into the named per-node log-linear histogram.
    pub fn record_hist(&self, node: u32, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        self.sink().registry.node_mut(node).record(name, value);
    }

    /// Run `f` over the per-node metric registry (the reports render it).
    pub fn with_registry<R>(&self, f: impl FnOnce(&Registry) -> R) -> R {
        f(&self.sink().registry)
    }
}

/// Record a journal event, skipping attribute evaluation when disabled.
/// The `hop(..)` form records a decision that is also a [`Hop`] of the
/// packet with that raw provenance id ([`Record::of_hop`]). Values are
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
/// Each call site's component and keys become one [`Site`] `static`, so
/// what a record cannot hold fails to compile. A fourth attribute:
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
            static SITE: $crate::Site = $crate::Site::new($component, &[$(stringify!($key)),*]);
            $tel.emit($crate::Record::of_hop(&SITE, $hop, $id, $t, $node),
                &[$($crate::AttrValue::from($val)),*]);
        }
    };
    ($tel:expr, $t:expr, $node:expr, $component:expr, $kind:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $tel.is_enabled() {
            static SITE: $crate::Site = $crate::Site::new($component, &[$(stringify!($key)),*]);
            $tel.emit($crate::Record::event(&SITE, $t, $node, $kind),
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
        tel.record_hist(1, "h", 9);
        assert_eq!(tel.journal_len(), 0);
        assert_eq!(tel.journal_jsonl(), "");
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
        let out = tel.journal_jsonl();
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
        tel.record_hist(0, "mct_ns", 40);
        let nodes = tel.with_registry(|r| {
            r.nodes()
                .map(|(id, m)| (id, m.to_json()))
                .collect::<Vec<_>>()
        });
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].0, 0);
        assert_eq!(nodes[0].1["histograms"]["mct_ns"]["count"], 1u64);
        assert_eq!(nodes[1].1["counters"]["tx_packets"], 3u64);
    }

    #[test]
    fn tracing_is_off_by_default_even_when_enabled() {
        let tel = Telemetry::enabled();
        assert!(tel.is_enabled());
        assert!(!tel.is_tracing());
        tel.record_hop(5, "gen.enqueue", 0, 100);
        assert_eq!(tel.with_log(|l| l.records.len()), 0);
    }

    #[test]
    fn enable_tracing_normalizes_against_baseline() {
        let tel = Telemetry::enabled();
        tel.enable_tracing(16, 40);
        assert!(tel.is_tracing());
        tel.record_hop(42, "gen.enqueue", 0, 100);
        let ids: Vec<u64> = tel.with_log(|l| l.hops().map(|(id, _, _)| id).collect());
        assert_eq!(ids, [2]);
    }

    /// What each gate keeps: `(journal kinds, hop-view names, ids)`.
    fn views(tel: &Telemetry) -> (Vec<&'static str>, Vec<&'static str>, Vec<Option<u64>>) {
        tev!(tel, 1, 2, "switch", "iter.transition");
        tel.record_hop(11, trace::hops::SWITCH_FORWARD, 2, 2);
        tev!(tel, 3, 2, "switch", hop(Hop::Drop, 12), psn = 4u32);
        tel.with_log(|l| {
            (
                l.journal().map(|r| r.kind).collect(),
                l.hops().map(|(_, hop, _)| hop.name()).collect(),
                l.records.iter().map(Record::trace_id).collect(),
            )
        })
    }

    #[test]
    fn each_role_is_kept_under_its_gate() {
        assert_eq!(views(&Telemetry::disabled()), (vec![], vec![], vec![]));
        // On but untraced: the decision keeps its packet's id, and there
        // is no pure hop and no hop view.
        let tel = Telemetry::enabled();
        tel.set_trace_baseline(10);
        assert_eq!(
            views(&tel),
            (vec!["iter.transition", "drop"], vec![], vec![None, Some(2)])
        );
        let tel = Telemetry::enabled();
        tel.enable_tracing(16, 10);
        assert_eq!(
            views(&tel),
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
        let first = tel.with_log(|l| l.records.iter().next().map(|r| r.t));
        assert_eq!(first, Some(2), "oldest first");
        // As many events again push both hops out: each view's retained
        // plus dropped is what it was offered.
        for t in 0..JOURNAL_CAPACITY as u64 {
            tev!(tel, (1 << 23) + t, 0, "c", "k");
        }
        let offered = 2 * JOURNAL_CAPACITY as u64 + 1;
        assert_eq!(tel.journal_len() as u64 + tel.journal_dropped(), offered);
        let hops = tel.with_log(TraceSummary::from_log);
        assert_eq!((hops.records, hops.dropped), (0, 2));
    }

    #[test]
    fn clones_share_one_sink() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        tev!(other, 5, 0, "gen", "flow.done");
        assert_eq!(tel.journal_len(), 1);
    }
}
