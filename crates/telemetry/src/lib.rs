//! Unified simulation telemetry for the Lumina reproduction.
//!
//! Every layer of the simulated testbed — the event engine, the RNIC
//! models, the programmable switch, the traffic generator and the
//! dumpers — reports what it does through one [`Telemetry`] handle:
//!
//! * **Structured event journal** ([`journal`]): decision points (packet
//!   drops, ECN marks, CNPs, timeouts, go-back-N rollbacks, iteration
//!   transitions, mirror emissions) are recorded as
//!   [`TelemetryEvent`]s against *simulated* time in a bounded ring
//!   buffer. The JSONL rendering of the journal is byte-identical across
//!   same-seed runs: it contains no wall-clock readings, and every map
//!   serializes in insertion order.
//! * **Per-node metric registry** ([`metrics`]): typed counters, gauges
//!   and log-linear histograms keyed by node id, plus snapshots of any
//!   component stat struct implementing [`MetricSet`]. Everything
//!   exports through a single [`Telemetry::snapshot`] →
//!   `serde_json::Value` path.
//! * **Self-profile** ([`profile`]): wall-clock readings (events/sec,
//!   queue high-water marks, per-worker campaign rates) are kept apart
//!   from the journal, so the observability layer can report its own
//!   overhead without contaminating the deterministic bytes.
//!
//! The handle is a cheap-to-clone `Arc` and is `Send + Sync`, so whole
//! simulation runs (each owning a sink) can execute on worker threads —
//! the parallel fuzz campaign executor depends on this. A disabled handle
//! ([`Telemetry::disabled`]) makes every recording call a no-op, and the
//! [`tev!`] macro skips attribute evaluation entirely in that case, so
//! instrumented hot paths cost one branch when telemetry is off.
//! Within one simulation run all recording happens on one thread, so the
//! internal mutexes are uncontended.
//!
//! This crate sits *below* `lumina-sim`: it identifies nodes by plain
//! `u32` ids (the engine's `NodeId` converts losslessly) and depends
//! only on the serde layer.

pub mod journal;
pub mod metrics;
pub mod ops;
pub mod profile;
pub mod trace;

pub use journal::{AttrValue, Journal, TelemetryEvent};
pub use metrics::{Histogram, MetricSet, NodeMetrics, Registry};
pub use ops::{OpsReporter, OpsSnapshot};
pub use profile::SelfProfile;
pub use trace::{FlightRecorder, HopRecord, TraceSummary};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Configuration for a telemetry sink.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Master switch; a disabled sink records nothing.
    pub enabled: bool,
    /// Ring-buffer capacity of the event journal.
    pub journal_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            journal_capacity: 65_536,
        }
    }
}

struct Inner {
    enabled: AtomicBool,
    // Packet-lifecycle tracing is a separate, off-by-default gate: an
    // enabled sink still records no hops until `enable_tracing`, so the
    // golden reports (which run with telemetry on) never see a trace.
    tracing: AtomicBool,
    journal: Mutex<Journal>,
    registry: Mutex<Registry>,
    profile: Mutex<SelfProfile>,
    recorder: Mutex<FlightRecorder>,
}

/// Lock that shrugs off poisoning: a panicking worker thread must not
/// wedge every other run's telemetry.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
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
            .field("journal_len", &lock(&self.inner.journal).len())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// An enabled sink with the given configuration.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(config.enabled),
                tracing: AtomicBool::new(false),
                journal: Mutex::new(Journal::new(config.journal_capacity)),
                registry: Mutex::new(Registry::default()),
                profile: Mutex::new(SelfProfile::default()),
                recorder: Mutex::new(FlightRecorder::new(1, 0)),
            }),
        }
    }

    /// An enabled sink with default configuration.
    pub fn enabled() -> Telemetry {
        Telemetry::new(TelemetryConfig::default())
    }

    /// A no-op sink: every recording call returns immediately.
    pub fn disabled() -> Telemetry {
        Telemetry::new(TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        })
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

    /// Turn on the flight recorder with a ring of `capacity` records.
    /// `baseline` is the raw provenance-counter reading at enable time
    /// (`lumina_packet::buf::next_trace_id()` at the call site); recorded
    /// ids are stored relative to it, which is what makes same-seed
    /// traces byte-identical across runs and across fuzz worker threads.
    pub fn enable_tracing(&self, capacity: usize, baseline: u64) {
        *lock(&self.inner.recorder) = FlightRecorder::new(capacity, baseline);
        self.inner.tracing.store(true, Ordering::Relaxed);
    }

    /// Record one lifecycle hop; no-op (one branch) unless tracing is on.
    #[inline]
    pub fn record_hop(&self, raw_trace_id: u64, hop: &'static str, node: u32, t: u64) {
        if !self.is_tracing() {
            return;
        }
        lock(&self.inner.recorder).record(raw_trace_id, hop, node, t);
    }

    /// Run `f` over the flight recorder (summaries, exports).
    pub fn with_recorder<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> R {
        f(&lock(&self.inner.recorder))
    }

    // ------------------------------------------------------------ journal

    /// Record one event at simulated time `t` (nanoseconds).
    ///
    /// Prefer the [`tev!`] macro, which skips attribute construction when
    /// the sink is disabled.
    pub fn emit(
        &self,
        t: u64,
        node: u32,
        component: &'static str,
        kind: &'static str,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        lock(&self.inner.journal).push(TelemetryEvent {
            t,
            node,
            component,
            kind,
            attrs,
        });
        lock(&self.inner.profile).events_recorded += 1;
    }

    /// Number of events currently held in the journal ring.
    pub fn journal_len(&self) -> usize {
        lock(&self.inner.journal).len()
    }

    /// Events evicted from the ring because it was full.
    pub fn journal_dropped(&self) -> u64 {
        lock(&self.inner.journal).dropped()
    }

    /// Render the journal as JSON Lines (one event object per line).
    ///
    /// Byte-identical across same-seed runs: sim-time only, insertion
    /// order preserved.
    pub fn journal_jsonl(&self) -> String {
        lock(&self.inner.journal).to_jsonl()
    }

    /// Run `f` over each journal event in order.
    pub fn for_each_event<F: FnMut(&TelemetryEvent)>(&self, mut f: F) {
        for ev in lock(&self.inner.journal).iter() {
            f(ev);
        }
    }

    /// Run `f` over every same-node event-kind edge in the journal, in
    /// order ([`Journal::for_each_edge`]): the behavior signature the
    /// coverage-guided fuzzer hashes.
    pub fn for_each_edge<F: FnMut(u32, &'static str, &'static str)>(&self, f: F) {
        lock(&self.inner.journal).for_each_edge(f);
    }

    // ------------------------------------------------------------ metrics

    /// Add `delta` to the named per-node counter (saturating).
    pub fn inc_counter(&self, node: u32, name: &'static str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        lock(&self.inner.registry).node_mut(node).inc(name, delta);
    }

    /// Set the named per-node gauge.
    pub fn set_gauge(&self, node: u32, name: &'static str, value: i64) {
        if !self.is_enabled() {
            return;
        }
        lock(&self.inner.registry).node_mut(node).set_gauge(name, value);
    }

    /// Raise the named gauge to `value` if it is a new high-water mark.
    pub fn gauge_max(&self, node: u32, name: &'static str, value: i64) {
        if !self.is_enabled() {
            return;
        }
        lock(&self.inner.registry).node_mut(node).gauge_max(name, value);
    }

    /// Record a sample into the named per-node log-linear histogram.
    pub fn record_hist(&self, node: u32, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        lock(&self.inner.registry).node_mut(node).record(name, value);
    }

    /// Store a component stat struct's snapshot under the node.
    ///
    /// This is the shared export path for the previously incompatible
    /// per-component counter structs (`EngineStats`, the RNIC `Counters`,
    /// the generator `FlowMetrics`): anything implementing [`MetricSet`]
    /// lands in the same per-node tree.
    pub fn record_metric_set(&self, node: u32, set: &dyn MetricSet) {
        if !self.is_enabled() {
            return;
        }
        lock(&self.inner.registry)
            .node_mut(node)
            .record_set(set.metric_kind(), set.snapshot());
    }

    /// Store a run-global stat struct's snapshot (no owning node), e.g.
    /// the engine's own event-loop statistics.
    pub fn record_global_set(&self, set: &dyn MetricSet) {
        if !self.is_enabled() {
            return;
        }
        lock(&self.inner.registry).record_global(set.metric_kind(), set.snapshot());
    }

    // ------------------------------------------------------------ profile

    /// Mutate the wall-clock self-profile (engine bookkeeping).
    pub fn with_profile<R>(&self, f: impl FnOnce(&mut SelfProfile) -> R) -> R {
        f(&mut lock(&self.inner.profile))
    }

    // ----------------------------------------------------------- snapshot

    /// Export everything as one JSON value:
    ///
    /// ```json
    /// {
    ///   "journal": { "events": <count>, "dropped": <count> },
    ///   "global": { "<kind>": { run-global metric sets } },
    ///   "nodes": { "<id>": { counters, gauges, histograms, sets } },
    ///   "self_profile": { wall-clock numbers; omit for determinism }
    /// }
    /// ```
    ///
    /// The `self_profile` subtree is the only non-deterministic part; the
    /// `deterministic_snapshot` variant leaves it out.
    pub fn snapshot(&self) -> serde_json::Value {
        let mut root = self.deterministic_snapshot();
        root["self_profile"] = lock(&self.inner.profile).to_json();
        root
    }

    /// [`Telemetry::snapshot`] without the wall-clock self-profile;
    /// byte-stable across same-seed runs.
    pub fn deterministic_snapshot(&self) -> serde_json::Value {
        let journal = lock(&self.inner.journal);
        let mut root = serde_json::Map::new();
        let mut j = serde_json::Map::new();
        j.insert("events", serde_json::Value::from(journal.len() as u64));
        j.insert("dropped", serde_json::Value::from(journal.dropped()));
        root.insert("journal", serde_json::Value::Object(j));
        let registry = lock(&self.inner.registry);
        root.insert("global", registry.globals_to_json());
        root.insert("nodes", registry.to_json());
        serde_json::Value::Object(root)
    }
}

/// Record a journal event, skipping attribute evaluation when disabled.
///
/// ```ignore
/// tev!(tel, now_ns, node_id, "rnic", "gbn.rollback", psn = psn, qpn = qpn);
/// ```
#[macro_export]
macro_rules! tev {
    ($tel:expr, $t:expr, $node:expr, $component:expr, $kind:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $tel.is_enabled() {
            $tel.emit(
                $t,
                $node,
                $component,
                $kind,
                vec![$( (stringify!($key), $crate::AttrValue::from($val)) ),*],
            );
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
    fn snapshot_merges_registry_and_journal() {
        let tel = Telemetry::enabled();
        tel.inc_counter(1, "tx_packets", 3);
        tel.set_gauge(1, "queue_depth", 5);
        tel.gauge_max(1, "queue_depth_hwm", 5);
        tel.gauge_max(1, "queue_depth_hwm", 2); // not a new high
        tev!(tel, 1, 1, "engine", "dispatch");
        let snap = tel.deterministic_snapshot();
        assert_eq!(snap["journal"]["events"], 1u64);
        assert_eq!(snap["nodes"]["1"]["counters"]["tx_packets"], 3u64);
        assert_eq!(snap["nodes"]["1"]["gauges"]["queue_depth_hwm"], 5i64);
    }

    #[test]
    fn tracing_is_off_by_default_even_when_enabled() {
        let tel = Telemetry::enabled();
        assert!(tel.is_enabled());
        assert!(!tel.is_tracing());
        tel.record_hop(5, "gen.enqueue", 0, 100);
        assert!(tel.with_recorder(|r| r.is_empty()));
    }

    #[test]
    fn enable_tracing_normalizes_against_baseline() {
        let tel = Telemetry::enabled();
        tel.enable_tracing(16, 40);
        assert!(tel.is_tracing());
        tel.record_hop(42, "gen.enqueue", 0, 100);
        let (len, id) = tel.with_recorder(|r| {
            (r.len(), r.iter().next().map(|h| h.trace_id))
        });
        assert_eq!(len, 1);
        assert_eq!(id, Some(2));
    }

    #[test]
    fn clones_share_one_sink() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        tev!(other, 5, 0, "gen", "flow.done");
        assert_eq!(tel.journal_len(), 1);
    }
}
