//! Spec-conformance oracle: an RC-transport reference FSM replayed over
//! the reconstructed trace.
//!
//! Where the other analyzers measure a *well-behaved* device (timing,
//! counters, Go-back-N shape), this one assumes nothing: it replays the
//! IB-specification rules packet by packet and emits a typed
//! [`Violation`] for every departure, classified into a Table-2-style
//! taxonomy (the paper's bug families: packet acknowledgment, congestion
//! notification, retransmission logic, data integrity).
//!
//! The oracle is built for hostile input:
//!
//! * **panic-free** — no unwrap/expect/indexing on trace-derived data;
//!   anything unparseable or ambiguous is skipped and counted;
//! * **memory-bounded** — per-connection state is capped
//!   ([`MAX_PENDING_ACKS`], [`MAX_LOSS_RECORDS`]) and the violation list
//!   truncates at [`MAX_VIOLATIONS`];
//! * **partial on degraded evidence** — when the trace itself is
//!   untrustworthy (mirror loss, displaced packets, receiver-side ICRC
//!   drops invisible to the mirror), the affected checks are skipped and
//!   the report says so instead of guessing.

use super::Routes;
use crate::orchestrator::TestResults;
use crate::report::{line, note};
use crate::translate::ConnMeta;
use lumina_dumper::{Trace, TraceEntry};
use lumina_packet::bth::{psn_add, psn_distance};
use lumina_packet::opcode::Opcode;
use lumina_packet::RoceFrame;
use lumina_rnic::qp::QpEndpoint;
use lumina_rnic::Verb;
use lumina_switch::events::EventType;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::Ipv4Addr;

/// Hard cap on reported violations; the rest are counted via
/// [`ConformanceReport::truncated`].
pub const MAX_VIOLATIONS: usize = 64;
/// Per-connection cap on outstanding ACK-due bookkeeping.
pub const MAX_PENDING_ACKS: usize = 64;
/// Per-connection cap on recorded injected-loss PSNs.
pub const MAX_LOSS_RECORDS: usize = 256;
/// Cap on connections discovery mode will create from the wire.
pub const MAX_DISCOVERED_CONNS: usize = 1024;
/// Cap on distinct IPs tracked for CE/CNP accounting in discovery mode.
const MAX_TRACKED_IPS: usize = 256;
/// PSN slack beyond the sent frontier an ACK may still name and
/// window-match a connection during discovery binding.
const ACK_WINDOW_SLACK: i32 = 1024;
/// Forward PSN window from a connection's initial PSN inside which
/// discovery binding accepts a packet. Initial PSNs are randomized over
/// 24 bits, so windows of this size essentially never collide.
const BIND_WINDOW: i32 = 1 << 20;

/// The taxonomy of spec departures the oracle can prove from a trace,
/// mirroring the bug families of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ViolationClass {
    /// An ACK acknowledged a PSN the sender never transmitted.
    AckPsnInvalid,
    /// Delivered data was retransmitted with no visible acknowledgment —
    /// the device swallowed an ACK it owed.
    UnackedDelivery,
    /// One ACK covered multiple ACK-due boundaries: mandatory per-message
    /// acknowledgments were withheld and folded together.
    AckCoalescing,
    /// CE-marked traffic arrived at an enabled notification point and no
    /// CNP ever left it.
    MissingCnp,
    /// CNPs on the wire with zero CE marks behind them.
    SpuriousCnp,
    /// A retransmission round with no loss, NACK or re-request to
    /// justify it.
    SpuriousRetransmit,
    /// An AETH MSN regressed: the responder un-completed a message.
    MsnRegression,
    /// A sequence-error NACK named a PSN other than the receiver's
    /// expected one (e.g. the Go-back-N off-by-one).
    NackPsnMismatch,
    /// The receiver counted more ICRC drops than the wire can explain:
    /// the sender computes ICRC wrong.
    IcrcMiscompute,
}

impl ViolationClass {
    /// Stable kebab-case label (matches the serde encoding).
    pub fn label(self) -> &'static str {
        match self {
            ViolationClass::AckPsnInvalid => "ack-psn-invalid",
            ViolationClass::UnackedDelivery => "unacked-delivery",
            ViolationClass::AckCoalescing => "ack-coalescing",
            ViolationClass::MissingCnp => "missing-cnp",
            ViolationClass::SpuriousCnp => "spurious-cnp",
            ViolationClass::SpuriousRetransmit => "spurious-retransmit",
            ViolationClass::MsnRegression => "msn-regression",
            ViolationClass::NackPsnMismatch => "nack-psn-mismatch",
            ViolationClass::IcrcMiscompute => "icrc-miscompute",
        }
    }

    /// The paper's Table-2 bug family this violation belongs to.
    pub fn table2_class(self) -> &'static str {
        match self {
            ViolationClass::AckPsnInvalid
            | ViolationClass::UnackedDelivery
            | ViolationClass::AckCoalescing
            | ViolationClass::MsnRegression => "packet acknowledgment",
            ViolationClass::MissingCnp | ViolationClass::SpuriousCnp => "congestion notification",
            ViolationClass::SpuriousRetransmit | ViolationClass::NackPsnMismatch => {
                "retransmission logic"
            }
            ViolationClass::IcrcMiscompute => "data integrity",
        }
    }
}

/// One proven spec departure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Taxonomy class.
    pub class: ViolationClass,
    /// 1-based connection index, when attributable to one connection.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub conn: Option<u32>,
    /// Wire PSN at the violation, when one is meaningful.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub psn: Option<u32>,
    /// Human-readable evidence.
    pub detail: String,
}

/// The oracle's verdict over one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConformanceReport {
    /// True when no violation was proven (says nothing about skipped
    /// checks — see `partial`).
    pub compliant: bool,
    /// Proven violations, capped at [`MAX_VIOLATIONS`].
    pub violations: Vec<Violation>,
    /// More violations existed than the cap allows.
    pub truncated: bool,
    /// Connections fully replayed.
    pub checked_conns: u32,
    /// Connections skipped because delay/reorder injection makes the
    /// mirror order diverge from arrival order.
    pub skipped_displaced: u32,
    /// Trace entries examined.
    pub packets_checked: u64,
    /// Some checks were skipped (degraded trace, state caps hit,
    /// receiver-side ICRC drops): absence of violations is not proof of
    /// conformance.
    pub partial: bool,
}

impl ConformanceReport {
    fn push(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.truncated = true;
        }
    }

    /// Violation count per class label, for summaries.
    pub fn class_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for v in &self.violations {
            let label = v.class.label();
            match counts.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => counts.push((label, 1)),
            }
        }
        counts
    }

    /// [`Self::class_counts`] as one line: `2 missing-cnp, 1 ack-coalescing`
    /// (empty when there are no violations).
    pub fn class_summary(&self) -> String {
        let classes: Vec<String> = self
            .class_counts()
            .iter()
            .map(|(label, n)| format!("{n} {label}"))
            .collect();
        classes.join(", ")
    }

    /// The `conformance` block of the human reports: the verdict line, one
    /// line per violation, and the truncation note.
    pub fn render_human(&self) -> String {
        let verdict = if !self.compliant {
            format!("VIOLATIONS ({})", self.class_summary())
        } else if self.partial {
            "compliant (partial evidence)".to_string()
        } else {
            "compliant".to_string()
        };
        let mut out = String::new();
        line(&mut out, "conformance", verdict);
        for v in &self.violations {
            note(
                &mut out,
                format_args!("[{}] {}", v.class.table2_class(), v.detail),
            );
        }
        if self.truncated {
            note(
                &mut out,
                format_args!("violation list truncated at {}", self.violations.len()),
            );
        }
        out
    }
}

/// Everything the oracle needs to know beyond the trace itself.
#[derive(Debug, Clone, Default)]
pub struct ConformanceOpts {
    /// DCQCN notification point enabled on the requester NIC.
    pub np_enabled_requester: bool,
    /// DCQCN notification point enabled on the responder NIC.
    pub np_enabled_responder: bool,
    /// Path MTU, for sizing read-request PSN ranges.
    pub mtu: u32,
    /// Receiver-side ICRC drops (both hosts). These losses are invisible
    /// to the mirror, so retransmission-justification checks are
    /// disabled when nonzero.
    pub rx_icrc_errors: u64,
    /// The trace failed its integrity check: report what is provable but
    /// mark the result partial and skip loss-sensitive checks.
    pub degraded: bool,
    /// Frames were destroyed or displaced outside the injector's event
    /// table — the data-path chaos plane dropped, corrupted or reordered
    /// traffic the mirror cannot attribute. Retransmission rounds are then
    /// *justified* by definition (the loss was real, just not
    /// injector-recorded), so every loss- and order-sensitive check is
    /// skipped rather than blamed on the DUT. Checks chaos cannot
    /// confound (ACKs beyond the sender frontier, CNPs with no CE marks)
    /// stay live.
    pub external_loss: bool,
}

impl ConformanceOpts {
    /// Derive the oracle inputs from a finished run.
    pub fn from_results(res: &TestResults) -> ConformanceOpts {
        ConformanceOpts {
            np_enabled_requester: res.cfg.requester.dcqcn_np_enable,
            np_enabled_responder: res.cfg.responder.dcqcn_np_enable,
            mtu: res.cfg.traffic.mtu,
            rx_icrc_errors: res.requester_counters.rx_icrc_errors
                + res.responder_counters.rx_icrc_errors,
            degraded: !res.integrity.passed(),
            external_loss: res
                .chaos_stats
                .as_ref()
                .is_some_and(|cs| cs.data_drops() + cs.corruptions + cs.reorders > 0),
        }
    }
}

/// Per-connection replay state for the reference FSM.
#[derive(Default)]
struct ConnState {
    /// Receiver's expected PSN.
    expected: u32,
    /// Highest data PSN seen on the wire (sender frontier).
    max_sent: Option<u32>,
    /// PSN of the immediately preceding data packet on the wire; a
    /// non-increasing step marks a new transmission round.
    prev_data: Option<u32>,
    /// Last data PSN the receiver accepted.
    last_delivered: Option<u32>,
    /// Highest positive-ACK PSN seen.
    last_ack: Option<u32>,
    /// Highest AETH MSN seen.
    last_msn: Option<u32>,
    /// PSN of the last sequence-error NACK, consumed at round start.
    last_nack: Option<u32>,
    /// PSN of the last re-issued read request, consumed at round start.
    pending_reread: Option<u32>,
    /// PSNs at which an ACK became due (message boundaries delivered).
    pending_acks: VecDeque<u32>,
    /// The pending-ACK queue overflowed; coalescing checks are void.
    pending_overflow: bool,
    /// Injected-loss PSNs recorded from mirror events.
    loss_psns: Vec<u32>,
    /// The loss record overflowed; justification checks are void.
    loss_overflow: bool,
    /// One past the highest response PSN any read request asked for.
    read_frontier: Option<u32>,
}

/// Replay the RC reference FSM over a complete trace and report every
/// departure.
///
/// Never panics and never allocates beyond the documented caps, whatever
/// the trace contains. This is the one-shot wrapper over
/// [`ConformanceStream`] in known-connections mode; the streaming form
/// exists for chunked ingestion of captures too large to hold at once.
pub fn analyze(trace: &Trace, conns: &[ConnMeta], opts: &ConformanceOpts) -> ConformanceReport {
    let mut stream = ConformanceStream::new(conns, opts);
    stream.observe_trace(trace);
    stream.finish()
}

/// Violations and partial-evidence flags buffered per connection until
/// [`ConformanceStream::finish`] merges them in connection order — which
/// is how the streaming oracle reproduces the batch oracle byte for byte.
#[derive(Default)]
struct ConnSink {
    violations: Vec<Violation>,
    overflow: bool,
    partial: bool,
}

impl ConnSink {
    fn push(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.overflow = true;
        }
    }
}

/// One connection's replay in flight.
struct ConnTracker {
    meta: ConnMeta,
    st: ConnState,
    sink: ConnSink,
    /// A delay/reorder event touched this connection: mirror order is not
    /// arrival order, so the replay is void and discarded at finish.
    displaced: bool,
    /// Discovery mode learns QPNs lazily; an unknown one matches by PSN
    /// window until the first packet that names it binds it.
    req_qpn_known: bool,
    rsp_qpn_known: bool,
}

impl ConnTracker {
    fn new(meta: ConnMeta, req_qpn_known: bool, rsp_qpn_known: bool) -> ConnTracker {
        ConnTracker {
            st: ConnState {
                expected: meta.data_psn(1),
                ..Default::default()
            },
            meta,
            sink: ConnSink::default(),
            displaced: false,
            req_qpn_known,
            rsp_qpn_known,
        }
    }

    fn is_read(&self) -> bool {
        self.meta.verb.data_from_responder()
    }

    /// Is the destination QPN of the data direction known?
    fn data_qpn_known(&self) -> bool {
        if self.is_read() {
            self.req_qpn_known
        } else {
            self.rsp_qpn_known
        }
    }

    /// The reverse direction's destination QPN, and whether it is known.
    fn reverse_qpn(&self) -> (u32, bool) {
        let known = if self.is_read() {
            self.rsp_qpn_known
        } else {
            self.req_qpn_known
        };
        (self.meta.reverse_qpn(), known)
    }

    fn claims_data(&self, f: &RoceFrame) -> bool {
        let key = self.meta.data_conn_key();
        self.data_qpn_known()
            && f.ipv4.src == key.src_ip
            && f.ipv4.dst == key.dst_ip
            && f.bth.dest_qp == key.dst_qpn
            && f.bth.opcode.is_data()
            && (self.is_read() == f.bth.opcode.is_read_response())
    }

    fn claims_reverse(&self, f: &RoceFrame) -> bool {
        let key = self.meta.data_conn_key();
        let (rq, known) = self.reverse_qpn();
        known && f.ipv4.src == key.dst_ip && f.ipv4.dst == key.src_ip && f.bth.dest_qp == rq
    }

    /// Own, as the tracker at position `at`, the keys of the directions
    /// whose QPN is known. Due when the tracker is created and again each
    /// time a bind teaches it a QPN: a packet is only ever offered to the
    /// owners of its key.
    fn route(&self, at: usize, routes: &mut Routes) {
        routes.add(at, &self.meta, self.data_qpn_known(), self.reverse_qpn().1);
    }

    /// Does a delay/reorder event on this frame displace this connection?
    /// An unknown QPN matches any — better to skip a replay than misjudge
    /// one.
    fn touched_by(&self, f: &RoceFrame) -> bool {
        let key = self.meta.data_conn_key();
        let (rq, rknown) = self.reverse_qpn();
        (f.ipv4.src == key.src_ip
            && f.ipv4.dst == key.dst_ip
            && (!self.data_qpn_known() || f.bth.dest_qp == key.dst_qpn))
            || (f.ipv4.src == key.dst_ip
                && f.ipv4.dst == key.src_ip
                && (!rknown || f.bth.dest_qp == rq))
    }
}

/// True when `psn` lies within the forward discovery window of `ipsn`.
fn in_bind_window(ipsn: u32, psn: u32) -> bool {
    (0..=BIND_WINDOW).contains(&psn_distance(ipsn, psn))
}

/// Pick the binding among window candidates (`(tracker, distance from
/// its anchor)`, see `bind_candidates`). Windows are anchored at random
/// 24-bit initial PSNs, so when several overlap the owner is the one whose
/// anchor sits nearest below the packet's PSN — every impostor's anchor
/// is, with overwhelming probability, much farther away. A distance tie is
/// genuinely ambiguous and stays unbound.
fn best_bind(cands: &[(usize, i32)]) -> Option<usize> {
    let mut best: Option<(usize, i32)> = None;
    let mut tied = false;
    for &(i, di) in cands {
        match best {
            Some((_, db)) if di > db => {}
            Some((_, db)) if di == db => tied = true,
            _ => {
                best = Some((i, di));
                tied = false;
            }
        }
    }
    best.filter(|_| !tied).map(|(i, _)| i)
}

/// [`best_bind`]'s choice and its position among the trackers.
fn bound<'a>(
    trackers: &'a mut [ConnTracker],
    cands: &[(usize, i32)],
) -> Option<(usize, &'a mut ConnTracker)> {
    let i = best_bind(cands)?;
    Some((i, trackers.get_mut(i)?))
}

/// Incremental form of the oracle: feed trace entries (or whole chunks)
/// as they stream out of reconstruction, then [`finish`](Self::finish)
/// for the report. Two modes:
///
/// * **known connections** ([`ConformanceStream::new`]) — the engine's
///   own runs, where [`ConnMeta`] is exact. [`analyze`] is this mode over
///   one whole trace and produces identical reports.
/// * **discovery** ([`ConformanceStream::discovering`]) — ingested
///   captures with no config context: connections are inferred from the
///   wire. Data packets create them; ACKs and read requests bind the
///   reverse-direction QPNs by PSN-window match (initial PSNs are random
///   24-bit values, so windows are effectively unique). Anything
///   ambiguous is counted as unattributed and marks the report partial
///   instead of being guessed at.
pub struct ConformanceStream {
    opts: ConformanceOpts,
    trackers: Vec<ConnTracker>,
    /// Which trackers to ask about a packet, by their position in
    /// `trackers`; kept current as discovery creates and binds them.
    routes: Routes,
    discovery: bool,
    packets: u64,
    req_ips: BTreeSet<Ipv4Addr>,
    rsp_ips: BTreeSet<Ipv4Addr>,
    ce_by_dst: BTreeMap<Ipv4Addr, u64>,
    cnp_by_src: BTreeMap<Ipv4Addr, u64>,
    corrupt_events: u64,
    ip_overflow: bool,
    unattributed: u64,
    flows_dropped: u64,
}

impl ConformanceStream {
    /// Known-connections mode (the engine's own runs).
    pub fn new(conns: &[ConnMeta], opts: &ConformanceOpts) -> ConformanceStream {
        ConformanceStream {
            opts: opts.clone(),
            trackers: conns
                .iter()
                .map(|m| ConnTracker::new(*m, true, true))
                .collect(),
            routes: Routes::of(conns),
            discovery: false,
            packets: 0,
            req_ips: conns.iter().map(|c| c.requester.ip).collect(),
            rsp_ips: conns.iter().map(|c| c.responder.ip).collect(),
            ce_by_dst: BTreeMap::new(),
            cnp_by_src: BTreeMap::new(),
            corrupt_events: 0,
            ip_overflow: false,
            unattributed: 0,
            flows_dropped: 0,
        }
    }

    /// Discovery mode (ingested captures without config context).
    pub fn discovering(opts: &ConformanceOpts) -> ConformanceStream {
        ConformanceStream {
            discovery: true,
            ..ConformanceStream::new(&[], opts)
        }
    }

    /// The same stream asking `routes` whom to offer a packet to.
    #[cfg(test)]
    pub(super) fn with_routes(mut self, routes: Routes) -> ConformanceStream {
        self.routes = routes;
        self
    }

    /// Mark the remaining evidence degraded (e.g. the streaming
    /// reconstructor just reported its first gap): loss-sensitive checks
    /// stop firing from here on and the report will be partial.
    pub fn set_degraded(&mut self) {
        self.opts.degraded = true;
    }

    /// Connections currently tracked (preconfigured plus discovered).
    pub fn conns_tracked(&self) -> usize {
        self.trackers.len()
    }

    /// Packets discovery mode could not route (ambiguous or unbindable).
    pub fn unattributed(&self) -> u64 {
        self.unattributed
    }

    /// Feed every entry of a chunk, in order.
    pub fn observe_trace(&mut self, trace: &Trace) {
        for e in trace.iter() {
            self.observe(e);
        }
    }

    /// Feed one trace entry.
    pub fn observe(&mut self, e: &TraceEntry) {
        self.packets += 1;
        let f = &e.frame;

        // Whole-trace accounting (CE marks, CNPs, corruption events);
        // classification against the requester/responder IP sets happens
        // at finish, once the sets are final.
        if e.event == EventType::Ecn {
            self.count_ip(true, f.ipv4.dst);
        }
        if e.event == EventType::Corrupt {
            self.corrupt_events += 1;
        }
        if f.bth.opcode == Opcode::Cnp {
            self.count_ip(false, f.ipv4.src);
        }

        if matches!(e.event, EventType::Delay | EventType::Reorder) {
            for t in &mut self.trackers {
                if t.touched_by(f) {
                    t.displaced = true;
                }
            }
        }

        let opts = &self.opts;
        let mut claimed = false;
        for owner in self.routes.owners(f) {
            let Some(t) = self.trackers.get_mut(owner) else {
                continue;
            };
            if t.claims_data(f) {
                data_packet(e.event, f, &t.meta, opts, &mut t.st, &mut t.sink);
                claimed = true;
            } else if t.claims_reverse(f) {
                reverse_packet(f, &t.meta, opts, &mut t.st, &mut t.sink);
                claimed = true;
            }
        }
        if self.discovery && !claimed {
            self.discover(e);
        }
    }

    /// Count a CE-marked destination (`ce`) or CNP source IP. In known
    /// mode only configured endpoint IPs are eligible (exactly the batch
    /// accounting); discovery counts every IP under a cap.
    fn count_ip(&mut self, ce: bool, ip: Ipv4Addr) {
        if !self.discovery && !self.req_ips.contains(&ip) && !self.rsp_ips.contains(&ip) {
            return;
        }
        let map = if ce {
            &mut self.ce_by_dst
        } else {
            &mut self.cnp_by_src
        };
        if let Some(n) = map.get_mut(&ip) {
            *n += 1;
        } else if !self.discovery || map.len() < MAX_TRACKED_IPS {
            map.insert(ip, 1);
        } else {
            self.ip_overflow = true;
        }
    }

    /// Route an entry no tracked connection claims: create or bind one.
    fn discover(&mut self, e: &TraceEntry) {
        let f = &e.frame;
        let psn = f.bth.psn;
        let op = f.bth.opcode;
        if op == Opcode::RdmaReadRequest {
            // Must be routed before the `is_data` arm: read requests
            // count as data (they consume PSN space) but flow requester →
            // responder, so treating one as a data packet would invent a
            // write connection in the wrong direction.
            let cands = self.bind_candidates(psn, |t| {
                t.is_read()
                    && !t.rsp_qpn_known
                    && t.meta.requester.ip == f.ipv4.src
                    && t.meta.responder.ip == f.ipv4.dst
                    && in_bind_window(t.meta.requester.ipsn, psn)
            });
            if cands.is_empty() {
                self.create_conn(e, Verb::Read);
            } else if let Some((i, t)) = bound(&mut self.trackers, &cands) {
                t.meta.responder.qpn = f.bth.dest_qp;
                t.rsp_qpn_known = true;
                reverse_packet(f, &t.meta, &self.opts, &mut t.st, &mut t.sink);
                t.route(i, &mut self.routes);
            } else {
                self.unattributed += 1;
            }
        } else if op.is_data() {
            if op.is_read_response() {
                // A response stream: bind to a read connection created
                // from its request, or create one outright.
                let cands = self.bind_candidates(psn, |t| {
                    t.is_read()
                        && !t.req_qpn_known
                        && t.meta.responder.ip == f.ipv4.src
                        && t.meta.requester.ip == f.ipv4.dst
                        && in_bind_window(t.meta.requester.ipsn, psn)
                });
                if cands.is_empty() {
                    self.create_conn(e, Verb::Read);
                } else if let Some((i, t)) = bound(&mut self.trackers, &cands) {
                    t.meta.requester.qpn = f.bth.dest_qp;
                    t.req_qpn_known = true;
                    data_packet(e.event, f, &t.meta, &self.opts, &mut t.st, &mut t.sink);
                    t.route(i, &mut self.routes);
                } else {
                    self.unattributed += 1;
                }
            } else if op.has_payload() {
                let verb = if (op as u8) <= 0x05 {
                    Verb::Send
                } else {
                    Verb::Write
                };
                self.create_conn(e, verb);
            } else {
                // Payload-less requests (atomics): no PSN stream this
                // oracle models — count, don't guess a connection shape.
                self.unattributed += 1;
            }
        } else if op == Opcode::Acknowledge {
            // Bind the ACK stream of a write/send connection: the ACK's
            // PSN must fall inside the span that connection has sent.
            let cands = self.bind_candidates(psn, |t| {
                !t.is_read()
                    && !t.req_qpn_known
                    && t.meta.responder.ip == f.ipv4.src
                    && t.meta.requester.ip == f.ipv4.dst
                    && t.st.max_sent.is_some_and(|m| {
                        psn_distance(t.meta.requester.ipsn, psn) >= 0
                            && psn_distance(psn, m) >= -ACK_WINDOW_SLACK
                    })
            });
            if let Some((i, t)) = bound(&mut self.trackers, &cands) {
                t.meta.requester.qpn = f.bth.dest_qp;
                t.req_qpn_known = true;
                reverse_packet(f, &t.meta, &self.opts, &mut t.st, &mut t.sink);
                t.route(i, &mut self.routes);
            } else {
                self.unattributed += 1;
            }
        }
        // Anything else (CNPs, atomic acknowledges) carries no
        // per-connection evidence this oracle uses.
    }

    /// The trackers `pred` accepts, each with the distance from its
    /// initial-PSN anchor to `psn`.
    fn bind_candidates(&self, psn: u32, pred: impl Fn(&ConnTracker) -> bool) -> Vec<(usize, i32)> {
        self.trackers
            .iter()
            .enumerate()
            .filter(|(_, t)| pred(t))
            .map(|(i, t)| (i, psn_distance(t.meta.requester.ipsn, psn)))
            .collect()
    }

    /// Create a tracker from the first packet of an undiscovered flow and
    /// feed that packet through it.
    fn create_conn(&mut self, e: &TraceEntry, verb: Verb) {
        if self.trackers.len() >= MAX_DISCOVERED_CONNS {
            self.flows_dropped += 1;
            return;
        }
        let f = &e.frame;
        let psn = f.bth.psn;
        let index = self.trackers.len() as u32 + 1;
        let from_request = verb == Verb::Read && f.bth.opcode == Opcode::RdmaReadRequest;
        // Read responses flow responder → requester, so a response names
        // the requester side and a request names the responder side; the
        // opposite QPN stays unknown until a packet names it. Both
        // directions share the requester's PSN space (read responses echo
        // the request's PSNs), so the creating packet's PSN is the best
        // initial-PSN estimate either way.
        let (requester, responder, req_known, rsp_known) =
            if from_request || !verb.data_from_responder() {
                (
                    QpEndpoint {
                        ip: f.ipv4.src,
                        qpn: 0,
                        ipsn: psn,
                    },
                    QpEndpoint {
                        ip: f.ipv4.dst,
                        qpn: f.bth.dest_qp,
                        ipsn: 0,
                    },
                    false,
                    true,
                )
            } else {
                (
                    QpEndpoint {
                        ip: f.ipv4.dst,
                        qpn: f.bth.dest_qp,
                        ipsn: psn,
                    },
                    QpEndpoint {
                        ip: f.ipv4.src,
                        qpn: 0,
                        ipsn: 0,
                    },
                    true,
                    false,
                )
            };
        let meta = ConnMeta {
            index,
            requester,
            responder,
            verb,
        };
        let mut t = ConnTracker::new(meta, req_known, rsp_known);
        if from_request {
            reverse_packet(f, &t.meta, &self.opts, &mut t.st, &mut t.sink);
        } else {
            data_packet(e.event, f, &t.meta, &self.opts, &mut t.st, &mut t.sink);
        }
        t.route(self.trackers.len(), &mut self.routes);
        self.trackers.push(t);
    }

    /// Close the stream and produce the report. In known-connections mode
    /// this is identical to [`analyze`] over the concatenated chunks.
    pub fn finish(self) -> ConformanceReport {
        let mut report = ConformanceReport {
            compliant: true,
            partial: self.opts.degraded || self.opts.external_loss,
            ..Default::default()
        };
        report.packets_checked = self.packets;

        let (req_ips, rsp_ips) = if self.discovery {
            (
                self.trackers
                    .iter()
                    .map(|t| t.meta.requester.ip)
                    .collect::<BTreeSet<_>>(),
                self.trackers
                    .iter()
                    .map(|t| t.meta.responder.ip)
                    .collect::<BTreeSet<_>>(),
            )
        } else {
            (self.req_ips, self.rsp_ips)
        };

        for t in self.trackers {
            if t.displaced {
                report.skipped_displaced += 1;
                report.partial = true;
                continue;
            }
            report.checked_conns += 1;
            for v in t.sink.violations {
                report.push(v);
            }
            if t.sink.overflow {
                report.truncated = true;
            }
            if t.sink.partial || t.st.pending_overflow || t.st.loss_overflow {
                report.partial = true;
            }
        }

        // Whole-trace congestion-notification and ICRC accounting. CNPs
        // are rate-limited per NIC (per-IP/per-QP/per-port by vendor), so
        // the sound per-direction claims are "CE arrived, NP enabled,
        // zero CNPs ever" and "CNPs without any CE" — the first CNP
        // always passes every limiter.
        let classify = |map: &BTreeMap<Ipv4Addr, u64>| {
            let (mut toward_req, mut toward_rsp) = (0u64, 0u64);
            for (ip, n) in map {
                if rsp_ips.contains(ip) {
                    toward_rsp += n;
                } else if req_ips.contains(ip) {
                    toward_req += n;
                }
            }
            (toward_req, toward_rsp)
        };
        let (ce_toward_req, ce_toward_rsp) = classify(&self.ce_by_dst);
        let (cnps_from_req, cnps_from_rsp) = classify(&self.cnp_by_src);

        if !self.opts.degraded {
            for (side, ce, cnps, np) in [
                (
                    "responder",
                    ce_toward_rsp,
                    cnps_from_rsp,
                    self.opts.np_enabled_responder,
                ),
                (
                    "requester",
                    ce_toward_req,
                    cnps_from_req,
                    self.opts.np_enabled_requester,
                ),
            ] {
                // Chaos can destroy a CE-marked frame after the mirror
                // counted it, leaving the NP innocently silent — but it
                // cannot make a NIC *emit* CNPs, so the spurious check
                // below stays live under external loss.
                if ce > 0 && np && cnps == 0 && !self.opts.external_loss {
                    report.push(Violation {
                        class: ViolationClass::MissingCnp,
                        conn: None,
                        psn: None,
                        detail: format!(
                            "{ce} CE-marked packets reached the {side} (NP enabled) and it never sent a CNP"
                        ),
                    });
                }
                if cnps > 0 && ce == 0 {
                    report.push(Violation {
                        class: ViolationClass::SpuriousCnp,
                        conn: None,
                        psn: None,
                        detail: format!(
                            "the {side} sent {cnps} CNPs with zero CE marks behind them"
                        ),
                    });
                }
            }
            // Chaos corruptions die at the receiver's ICRC check without a
            // Corrupt mirror event to explain them — not the sender's fault.
            if self.opts.rx_icrc_errors > self.corrupt_events && !self.opts.external_loss {
                report.push(Violation {
                    class: ViolationClass::IcrcMiscompute,
                    conn: None,
                    psn: None,
                    detail: format!(
                        "receivers dropped {} frames on ICRC but the wire only explains {} — the sender computes ICRC wrong",
                        self.opts.rx_icrc_errors, self.corrupt_events
                    ),
                });
            }
        }

        if self.unattributed > 0 || self.flows_dropped > 0 || self.ip_overflow {
            report.partial = true;
        }

        report.compliant = report.violations.is_empty();
        report
    }
}

/// A data packet of the connection (write/send data, or read responses).
fn data_packet(
    event: EventType,
    f: &RoceFrame,
    meta: &ConnMeta,
    opts: &ConformanceOpts,
    st: &mut ConnState,
    sink: &mut ConnSink,
) {
    let psn = f.bth.psn;
    let is_read = meta.verb.data_from_responder();
    let lost = matches!(event, EventType::Drop | EventType::Corrupt);
    if lost {
        if st.loss_psns.len() < MAX_LOSS_RECORDS {
            st.loss_psns.push(psn);
        } else {
            st.loss_overflow = true;
        }
    }

    // ---- Sender view: retransmission-round justification ----
    // Round detection keys on the *previous* wire PSN, not the frontier:
    // packets 6..10 of a round that resumed at 5 are continuations, not
    // five more rounds.
    if let Some(prev) = st.prev_data {
        if psn_distance(prev, psn) <= 0 && st.max_sent.is_some() {
            // A new round started at `psn`. Something must justify it:
            // a NACK, a re-issued read request, or a recorded loss at or
            // after the resume point (timeout rounds restart at the
            // oldest unacknowledged PSN, which is ≤ the lost one).
            let nack = st.last_nack.take();
            let reread = st.pending_reread.take();
            let justified_by_loss = st.loss_psns.iter().any(|&l| psn_distance(psn, l) >= 0);
            // A NACK's resume-point correctness is the Go-back-N
            // analyzer's job; here any NACK/re-request justifies a round.
            let justified = nack.is_some() || reread.is_some() || justified_by_loss;
            // Receiver-side ICRC drops, degraded mirrors and chaos-plane
            // losses hide real drops: skip rather than guess.
            let evidence_ok = opts.rx_icrc_errors == 0
                && !st.loss_overflow
                && !opts.degraded
                && !opts.external_loss;
            if evidence_ok && !justified {
                let already_acked = st.last_ack.is_some_and(|a| psn_distance(psn, a) >= 0);
                if is_read || already_acked {
                    sink.push(Violation {
                        class: ViolationClass::SpuriousRetransmit,
                        conn: Some(meta.index),
                        psn: Some(psn),
                        detail: format!(
                            "conn {}: retransmission round at PSN {psn} with no loss, NACK or re-request behind it",
                            meta.index
                        ),
                    });
                } else {
                    sink.push(Violation {
                        class: ViolationClass::UnackedDelivery,
                        conn: Some(meta.index),
                        psn: Some(psn),
                        detail: format!(
                            "conn {}: delivered data retransmitted from PSN {psn} without a visible ACK — the responder swallowed an acknowledgment",
                            meta.index
                        ),
                    });
                }
            } else if opts.rx_icrc_errors > 0 {
                sink.partial = true;
            }
        }
    }
    st.prev_data = Some(psn);
    if st.max_sent.is_none_or(|m| psn_distance(m, psn) > 0) {
        st.max_sent = Some(psn);
    }

    // ---- Read responses carry AETH on last/only: track MSN there ----
    if let Some(aeth) = f.ext.aeth {
        track_msn(aeth.msn, psn, meta, st, sink, opts);
    }

    // ---- Receiver view ----
    if !lost {
        st.last_delivered = Some(psn);
        let d = psn_distance(st.expected, psn);
        if d == 0 {
            st.expected = psn_add(psn, 1);
            // A write/send message boundary that arrives in order owes
            // the sender an ACK.
            if !is_read && (f.bth.ack_req || f.bth.opcode.is_last()) {
                if st.pending_acks.len() < MAX_PENDING_ACKS {
                    st.pending_acks.push_back(psn);
                } else {
                    st.pending_overflow = true;
                }
            }
        }
        // d > 0: out-of-sequence gap; d < 0: stale duplicate. Neither
        // moves the expected pointer.
    }
}

/// A packet flowing against the data direction: ACK/NACK for write/send,
/// (re-)issued read requests for read.
fn reverse_packet(
    f: &RoceFrame,
    meta: &ConnMeta,
    opts: &ConformanceOpts,
    st: &mut ConnState,
    sink: &mut ConnSink,
) {
    let psn = f.bth.psn;
    let is_read = meta.verb.data_from_responder();

    if !is_read && f.bth.opcode == Opcode::Acknowledge {
        let Some(aeth) = f.ext.aeth else {
            // An ACK without an AETH is unparseable evidence; skip it.
            sink.partial = true;
            return;
        };
        if aeth.syndrome.is_seq_err_nak() {
            // Chaos-destroyed frames desync the mirror's expected pointer
            // from the receiver's (a drop after the mirror tap advances one
            // but not the other), so this check is void under external loss.
            if psn_distance(st.expected, psn) != 0 && !opts.degraded && !opts.external_loss {
                sink.push(Violation {
                    class: ViolationClass::NackPsnMismatch,
                    conn: Some(meta.index),
                    psn: Some(psn),
                    detail: format!(
                        "conn {}: sequence-error NACK names PSN {psn} but the receiver expects {}",
                        meta.index, st.expected
                    ),
                });
            }
            st.last_nack = Some(psn);
            track_msn(aeth.msn, psn, meta, st, sink, opts);
        } else if aeth.syndrome.is_nak() {
            // Other NAK codes are out of the oracle's scope.
        } else {
            // Positive ACK.
            let beyond_sent = match st.max_sent {
                Some(m) => psn_distance(m, psn) > 0,
                None => true,
            };
            if beyond_sent && !opts.degraded {
                sink.push(Violation {
                    class: ViolationClass::AckPsnInvalid,
                    conn: Some(meta.index),
                    psn: Some(psn),
                    detail: format!(
                        "conn {}: ACK acknowledges PSN {psn} but the sender frontier is {}",
                        meta.index,
                        st.max_sent.map_or("unset".to_string(), |m| m.to_string()),
                    ),
                });
            }
            track_msn(aeth.msn, psn, meta, st, sink, opts);
            // Every ACK-due boundary at or below this ACK's PSN is
            // covered by it; a compliant responder acknowledges each
            // boundary individually.
            let mut covered = 0usize;
            while let Some(&front) = st.pending_acks.front() {
                if psn_distance(front, psn) >= 0 {
                    st.pending_acks.pop_front();
                    covered += 1;
                } else {
                    break;
                }
            }
            if covered > 1 && !st.pending_overflow && !opts.degraded && !opts.external_loss {
                sink.push(Violation {
                    class: ViolationClass::AckCoalescing,
                    conn: Some(meta.index),
                    psn: Some(psn),
                    detail: format!(
                        "conn {}: one ACK (PSN {psn}) covered {covered} ACK-due message boundaries",
                        meta.index
                    ),
                });
            }
            if st.last_ack.is_none_or(|a| psn_distance(a, psn) > 0) {
                st.last_ack = Some(psn);
            }
        }
    } else if is_read && f.bth.opcode == Opcode::RdmaReadRequest {
        // Response PSN range this request claims.
        let npkts = f
            .ext
            .reth
            .map_or(1, |r| r.dma_len.div_ceil(opts.mtu.max(1)).max(1));
        if let Some(fr) = st.read_frontier {
            if psn_distance(fr, psn) < 0 {
                // Asks for PSNs already requested: a re-issued request,
                // the read-side NACK.
                st.pending_reread = Some(psn);
            }
        }
        let end = psn_add(psn, npkts);
        if st.read_frontier.is_none_or(|fr| psn_distance(fr, end) > 0) {
            st.read_frontier = Some(end);
        }
    }
}

/// Track the AETH MSN of a connection and flag regressions.
fn track_msn(
    msn: u32,
    psn: u32,
    meta: &ConnMeta,
    st: &mut ConnState,
    sink: &mut ConnSink,
    opts: &ConformanceOpts,
) {
    if let Some(prev) = st.last_msn {
        if psn_distance(prev, msn) < 0 && !opts.degraded && !opts.external_loss {
            sink.push(Violation {
                class: ViolationClass::MsnRegression,
                conn: Some(meta.index),
                psn: Some(psn),
                detail: format!(
                    "conn {}: AETH MSN regressed from {prev} to {msn} (PSN {psn}) — the responder un-completed a message",
                    meta.index
                ),
            });
        }
    }
    if st.last_msn.is_none_or(|p| psn_distance(p, msn) > 0) {
        st.last_msn = Some(msn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestConfig;
    use crate::orchestrator::run_test;
    use lumina_dumper::Trace;

    fn run_yaml(yaml: &str) -> (ConformanceReport, crate::orchestrator::TestResults) {
        let cfg = TestConfig::from_yaml(yaml).unwrap();
        let res = run_test(&cfg).unwrap();
        let opts = ConformanceOpts::from_results(&res);
        let rep = analyze(res.trace.as_ref().unwrap(), &res.conns, &opts);
        (rep, res)
    }

    #[test]
    fn empty_trace_is_compliant_and_partial_free() {
        let rep = analyze(&Trace::default(), &[], &ConformanceOpts::default());
        assert!(rep.compliant);
        assert!(!rep.partial);
        assert_eq!(rep.packets_checked, 0);
    }

    #[test]
    fn clean_write_run_is_compliant() {
        let (rep, _) = run_yaml(
            r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 10240
"#,
        );
        assert!(rep.compliant, "{:?}", rep.violations);
        assert_eq!(rep.checked_conns, 2);
        assert!(rep.packets_checked > 0);
    }

    #[test]
    fn injected_drop_recovery_is_compliant() {
        let (rep, _) = run_yaml(
            r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 5, type: drop, iter: 1}
"#,
        );
        assert!(rep.compliant, "{:?}", rep.violations);
    }

    #[test]
    fn read_recovery_is_compliant() {
        let (rep, _) = run_yaml(
            r#"
requester: { nic-type: cx6 }
responder: { nic-type: cx6 }
traffic:
  num-connections: 1
  rdma-verb: read
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 4, type: drop, iter: 1}
"#,
        );
        assert!(rep.compliant, "{:?}", rep.violations);
    }

    #[test]
    fn displaced_conns_are_skipped_not_judged() {
        let (rep, _) = run_yaml(
            r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 5, type: delay, delay-us: 100, iter: 1}
"#,
        );
        assert!(rep.compliant, "{:?}", rep.violations);
        assert_eq!(rep.skipped_displaced, 1);
        assert_eq!(rep.checked_conns, 0);
        assert!(rep.partial, "skipping a conn must mark the report partial");
    }

    #[test]
    fn ecn_marked_run_with_np_is_compliant() {
        let (rep, _) = run_yaml(
            r#"
requester:
  nic-type: cx5
  dcqcn-rp-enable: true
responder:
  nic-type: cx5
  dcqcn-np-enable: true
  min-time-between-cnps-us: 4
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 5
  mtu: 1024
  message-size: 10240
  tx-depth: 2
  data-pkt-events:
    - {qpn: 1, psn: 1, type: ecn, iter: 1, every: 1}
"#,
        );
        assert!(rep.compliant, "{:?}", rep.violations);
    }

    #[test]
    fn class_taxonomy_is_stable() {
        for (class, family) in [
            (ViolationClass::AckPsnInvalid, "packet acknowledgment"),
            (ViolationClass::UnackedDelivery, "packet acknowledgment"),
            (ViolationClass::AckCoalescing, "packet acknowledgment"),
            (ViolationClass::MsnRegression, "packet acknowledgment"),
            (ViolationClass::MissingCnp, "congestion notification"),
            (ViolationClass::SpuriousCnp, "congestion notification"),
            (ViolationClass::SpuriousRetransmit, "retransmission logic"),
            (ViolationClass::NackPsnMismatch, "retransmission logic"),
            (ViolationClass::IcrcMiscompute, "data integrity"),
        ] {
            assert_eq!(class.table2_class(), family);
            let json = serde_json::to_string(&class).unwrap();
            assert_eq!(json.trim_matches('"'), class.label());
        }
    }

    #[test]
    fn violation_list_is_capped() {
        let mut rep = ConformanceReport::default();
        for i in 0..(MAX_VIOLATIONS + 10) {
            rep.push(Violation {
                class: ViolationClass::AckPsnInvalid,
                conn: Some(1),
                psn: Some(i as u32),
                detail: String::new(),
            });
        }
        assert_eq!(rep.violations.len(), MAX_VIOLATIONS);
        assert!(rep.truncated);
    }

    const STREAM_YAML: &str = r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 3
  rdma-verb: write
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 5, type: drop, iter: 1}
    - {qpn: 2, psn: 7, type: drop, iter: 1}
"#;

    fn report_fingerprint(rep: &ConformanceReport) -> String {
        format!(
            "{} {} {} {} {:?}",
            rep.compliant,
            rep.partial,
            rep.checked_conns,
            rep.packets_checked,
            rep.violations
                .iter()
                .map(|v| (v.class.label(), v.conn, v.psn, v.detail.clone()))
                .collect::<Vec<_>>()
        )
    }

    #[test]
    fn chunked_stream_matches_batch_analyze() {
        let cfg = TestConfig::from_yaml(STREAM_YAML).unwrap();
        let res = run_test(&cfg).unwrap();
        let trace = res.trace.as_ref().unwrap();
        let opts = ConformanceOpts::from_results(&res);
        let batch = analyze(trace, &res.conns, &opts);

        // Feed the same trace in chunks of every awkward size: the
        // streaming oracle must be insensitive to chunk boundaries.
        for chunk in [1usize, 7, 64, trace.len().max(1)] {
            let mut stream = ConformanceStream::new(&res.conns, &opts);
            let mut piece = Trace::default();
            for e in trace.iter() {
                piece.entries.push(e.clone());
                if piece.entries.len() >= chunk {
                    stream.observe_trace(&piece);
                    piece.entries.clear();
                }
            }
            stream.observe_trace(&piece);
            let streamed = stream.finish();
            assert_eq!(
                report_fingerprint(&streamed),
                report_fingerprint(&batch),
                "chunk size {chunk} diverged from batch analyze"
            );
        }
    }

    #[test]
    fn discovery_matches_known_mode_on_write_traffic() {
        let cfg = TestConfig::from_yaml(STREAM_YAML).unwrap();
        let res = run_test(&cfg).unwrap();
        let trace = res.trace.as_ref().unwrap();
        let opts = ConformanceOpts::from_results(&res);
        let known = analyze(trace, &res.conns, &opts);

        let mut disc = ConformanceStream::discovering(&opts);
        disc.observe_trace(trace);
        assert_eq!(disc.conns_tracked(), res.conns.len());
        assert_eq!(disc.unattributed(), 0);
        let rep = disc.finish();
        assert_eq!(rep.compliant, known.compliant, "{:?}", rep.violations);
        assert_eq!(rep.checked_conns, known.checked_conns);
        assert_eq!(rep.packets_checked, known.packets_checked);
    }

    #[test]
    fn discovery_matches_known_mode_on_read_traffic() {
        // Read traffic is the shape that once broke discovery: read
        // requests are "data" opcodes but flow requester → responder, so
        // routing them through the data arm invented a write connection
        // per flow and left every response stream orphaned.
        let cfg = TestConfig::from_yaml(
            r#"
requester: { nic-type: cx6 }
responder: { nic-type: cx6 }
traffic:
  num-connections: 3
  rdma-verb: read
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 4, type: drop, iter: 1}
"#,
        )
        .unwrap();
        let res = run_test(&cfg).unwrap();
        let trace = res.trace.as_ref().unwrap();
        let opts = ConformanceOpts::from_results(&res);
        let known = analyze(trace, &res.conns, &opts);
        assert!(known.compliant, "{:?}", known.violations);

        let mut disc = ConformanceStream::discovering(&opts);
        disc.observe_trace(trace);
        assert_eq!(disc.conns_tracked(), res.conns.len());
        assert_eq!(disc.unattributed(), 0);
        let rep = disc.finish();
        assert!(rep.compliant, "{:?}", rep.violations);
        assert_eq!(rep.checked_conns, known.checked_conns);
    }
}
