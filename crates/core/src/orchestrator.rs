//! The orchestrator (§3.1, Figure 1): build the testbed from a
//! configuration, run it, collect every result Table 1 lists, reconstruct
//! the trace and run the integrity check.

use crate::analyzers::{
    conformance, recovery, ConformanceOpts, ConformanceReport, FlowAccount, QpEndState,
    RecoveryOpts, ReplayViews,
};
use crate::campaign::{run_caught, EvalFailure};
use crate::config::{window, SwitchMode, TestConfig};
use crate::error::Error;
use crate::integrity::{self, IntegrityReport};
use crate::translate::{translate, ConnMeta};
use lumina_dumper::node::{capture_handle, CaptureCounts, CaptureHandle, DumperConfig, DumperNode};
use lumina_dumper::{CapturedPacket, DumperFaults, StallWindow, Trace};
use lumina_gen::host::{HostNode, Role};
use lumina_gen::metrics::GenMetrics;
use lumina_gen::FlowPlan;
use lumina_rnic::counters::Counters;
use lumina_rnic::ets::{EtsConfig, TcConfig};
use lumina_rnic::qp::{QpConfig, QpEndpoint};
use lumina_rnic::{DeviceProfile, QuirkPlane, QuirkStats, Rnic, Verb};
use lumina_sim::telemetry::{EventLog, SelfProfile, TraceSummary};
use lumina_sim::{
    faults, ChaosStats, Engine, EngineStats, FaultStats, FrameStats, Interposer, MirrorFaults,
    Node, NodeId, PortId, RunOutcome, SimTime, Telemetry,
};
use lumina_switch::device::{MirrorMode, SwitchConfig, SwitchCounters, SwitchNode};
use serde::Serialize;
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

pub use lumina_packet::MacAddr;

/// Everything the orchestrator collects after a run (Table 1), plus the
/// reconstructed trace and integrity verdict (§3.5).
pub struct TestResults {
    /// The configuration that produced this run.
    pub cfg: TestConfig,
    /// Runtime connection metadata (for analyzers).
    pub conns: Vec<ConnMeta>,
    /// Reconstructed packet trace (None if mirroring was off or
    /// reconstruction failed).
    pub trace: Option<Trace>,
    /// Integrity check outcome.
    pub integrity: IntegrityReport,
    /// Requester NIC canonical counters.
    pub requester_counters: Counters,
    /// Responder NIC canonical counters.
    pub responder_counters: Counters,
    /// Requester application metrics (goodput, MCTs).
    pub requester_metrics: GenMetrics,
    /// Responder application metrics.
    pub responder_metrics: GenMetrics,
    /// Switch counters (per port + totals).
    pub switch_counters: SwitchCounters,
    /// Injection entries that fired.
    pub events_fired: usize,
    /// Injection entries that never matched.
    pub events_unfired: usize,
    /// Mirror copies lost to dumper overload.
    pub dumper_discards: u64,
    /// How the run ended, and when.
    pub outcome: RunOutcome,
    /// Engine statistics.
    pub engine_stats: EngineStats,
    /// Frame-plane allocation/copy accounting for this run. Deliberately
    /// NOT part of [`report_json`](Self::report_json): the golden reports
    /// predate the zero-copy plane and must stay byte-identical. The
    /// counters surface through the `telemetry` CLI subcommand instead.
    pub frame_stats: FrameStats,
    /// The run's event log (journal and hop views, in simulated time),
    /// moved out of its telemetry sink when the run was collected.
    pub telemetry: EventLog,
    /// Wall-clock self-profile: from building the testbed to the end of
    /// [`run_test`], and the engine queue's high-water mark. Never in
    /// [`report_json`](Self::report_json).
    pub profile: SelfProfile,
    /// Fault-plane counters; `Some` only when the run had an active
    /// `faults:` section, so fault-free reports are byte-identical to
    /// every pre-fault-plane release.
    pub fault_stats: Option<FaultStats>,
    /// Each dumper's counts, dumper `i` at index `i`.
    pub dumper_counts: Vec<CaptureCounts>,
    /// Misbehavior-plane counters (both devices merged); `Some` only when
    /// the run had an active `quirks:` section, so quirk-free reports are
    /// byte-identical to every pre-quirk release.
    pub quirk_stats: Option<QuirkStats>,
    /// Each device's misbehavior-plane counters, requester first; `Some`
    /// where that device had a plane. `quirk_stats` is their sum.
    pub host_quirk_stats: [Option<QuirkStats>; 2],
    /// Spec-conformance oracle verdict, from stage 5's RC replay: `Some`
    /// exactly when `trace` is. [`report_json`](Self::report_json) carries
    /// it only for quirk-injected runs; `RunReport` appends it otherwise.
    pub conformance: Option<ConformanceReport>,
    /// The views of the same replay (the Go-back-N view, the decision
    /// points, the retransmission breakdowns, the CNP / CE and counter
    /// tallies, the recovery view on chaos runs): `Some` exactly when
    /// `conformance` is, so nothing walks the trace again. Never in
    /// [`report_json`](Self::report_json).
    pub replayed: Option<ReplayViews>,
    /// Chaos-plane counters; `Some` only when the run had an active
    /// `chaos:` section, so chaos-free reports are byte-identical to
    /// every pre-chaos release.
    pub chaos_stats: Option<ChaosStats>,
    /// Liveness/recovery oracle verdict; `Some` only on chaos-injected
    /// runs (the whole point of injecting chaos is proving recovery).
    pub recovery: Option<crate::analyzers::RecoveryReport>,
}

// The parallel fuzz executor evaluates `run_test` on worker threads and
// ships whole `TestResults` back to the campaign thread. A run's `Rc`
// handles (telemetry sink, capture buffers) stay on its thread with the
// engine; what they held is moved out into plain data when the run is
// collected — keep that Send guarantee checked at compile time.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<TestResults>();
    fn assert_sync<T: Sync>() {}
    assert_sync::<TestConfig>();
};

impl TestResults {
    /// True when all traffic completed and the run quiesced.
    pub fn traffic_completed(&self) -> bool {
        self.requester_metrics.done()
    }

    /// The per-hop / end-to-end latency dissection of the hop view; `None`
    /// unless the run traced (`trace:` section enabled).
    pub fn trace_summary(&self) -> Option<TraceSummary> {
        let log = &self.telemetry;
        log.is_tracing().then(|| TraceSummary::from_log(log))
    }

    /// One device's counters under its vendor's names, the way the
    /// orchestrator collects "network stack counters" (Table 1).
    pub fn vendor_counters(&self, responder_side: bool) -> Result<BTreeMap<String, u64>, Error> {
        let (counters, role) = if responder_side {
            (&self.responder_counters, "responder")
        } else {
            (&self.requester_counters, "requester")
        };
        let profile = self
            .cfg
            .resolved_device(responder_side)
            .ok_or_else(|| Error::internal(format!("unknown {role} nic")))?;
        Ok(counters.vendor_view(profile.vendor))
    }

    /// Machine-readable summary (the orchestrator's "test results" file).
    pub fn report_json(&self) -> Result<serde_json::Value, Error> {
        #[derive(Serialize)]
        struct Summary<'a> {
            integrity_passed: bool,
            integrity: &'a IntegrityReport,
            trace_packets: usize,
            requester_counters: BTreeMap<String, u64>,
            responder_counters: BTreeMap<String, u64>,
            requester_metrics: &'a GenMetrics,
            switch: &'a SwitchCounters,
            events_fired: usize,
            events_unfired: usize,
            dumper_discards: u64,
            end_time_ns: u64,
            traffic_completed: bool,
        }
        let mut report = section(
            "summary",
            &Summary {
                integrity_passed: self.integrity.passed(),
                integrity: &self.integrity,
                trace_packets: self.trace.as_ref().map_or(0, |t| t.len()),
                requester_counters: self.vendor_counters(false)?,
                responder_counters: self.vendor_counters(true)?,
                requester_metrics: &self.requester_metrics,
                switch: &self.switch_counters,
                events_fired: self.events_fired,
                events_unfired: self.events_unfired,
                dumper_discards: self.dumper_discards,
                end_time_ns: self.outcome.end_time().as_nanos(),
                traffic_completed: self.traffic_completed(),
            },
        )?;
        report["telemetry"] = self.telemetry_json()?;
        // Fault accounting appears only on fault-injected runs, keeping
        // pristine reports (and all eight goldens) byte-identical.
        if let Some(fs) = &self.fault_stats {
            let mut faults = section("fault stats", fs)?;
            let pool = |count: fn(&CaptureCounts) -> u64| {
                Value::from(self.dumper_counts.iter().map(count).sum::<u64>())
            };
            faults["captures_corrupted"] = pool(|c| c.captures_corrupted);
            faults["service_ticks_stalled"] = pool(|c| c.service_ticks_stalled);
            report["faults"] = faults;
        }
        // Likewise, misbehavior accounting and the conformance verdict
        // appear here only on quirk-injected runs.
        if let Some(qs) = &self.quirk_stats {
            report["quirks"] = section("quirk stats", qs)?;
            if let Some(conf) = &self.conformance {
                report["conformance"] = section("conformance report", conf)?;
            }
        }
        // Chaos accounting and the recovery verdict appear only on
        // chaos-injected runs, keeping chaos-free reports byte-identical.
        if let Some(cs) = &self.chaos_stats {
            report["chaos"] = section("chaos stats", cs)?;
        }
        if let Some(rec) = &self.recovery {
            report["recovery"] = section("recovery report", rec)?;
        }
        // The lifecycle dissection appears only when tracing was on, so
        // trace-free reports (and all eight goldens) stay byte-identical.
        if let Some(summary) = self.trace_summary() {
            report["trace"] = summary.to_json();
        }
        // The canonical device names appear only when a `device:` section
        // selected them, so registry-free reports stay byte-identical.
        if self.cfg.device.is_some() {
            let canonical = |responder_side| {
                self.cfg
                    .resolved_device(responder_side)
                    .map(|p| p.name)
                    .unwrap_or_default()
            };
            let mut device = serde_json::Map::new();
            device.insert("requester", canonical(false).into());
            device.insert("responder", canonical(true).into());
            report["device"] = serde_json::Value::Object(device);
        }
        Ok(report)
    }

    /// The `telemetry` document, in `report_json` and `lumina-cli
    /// telemetry`: the journal's two counts, the engine's statistics, and
    /// per node its sets as this result holds them, by kind — first a
    /// host's MCT histogram, when it completed a message.
    pub fn telemetry_json(&self) -> Result<Value, Error> {
        let log = &self.telemetry;
        let mut nodes: BTreeMap<u32, Value> = BTreeMap::new();
        let mut file = |node: NodeId, kind: &str, set: Value| {
            nodes.entry(node.0 as u32).or_default()[kind] = set;
        };
        let hosts = [
            (REQUESTER, &self.requester_metrics, &self.requester_counters),
            (RESPONDER, &self.responder_metrics, &self.responder_counters),
        ];
        for ((id, gen, rnic), quirks) in hosts.into_iter().zip(&self.host_quirk_stats) {
            if let Some(mct) = gen.mct_histogram() {
                file(id, "histograms", serde_json::json!({"mct_ns": (mct.to_json())}));
            }
            file(id, "gen", section("gen metrics", gen)?);
            if let Some(qs) = quirks {
                file(id, "quirks", section("quirk stats", qs)?);
            }
            file(id, "rnic", section("rnic counters", rnic)?);
        }
        if let Some(cs) = &self.chaos_stats {
            file(SWITCH, "chaos", section("chaos stats", cs)?);
        }
        if let Some(fs) = &self.fault_stats {
            file(SWITCH, "faults", section("fault stats", fs)?);
        }
        if let Some(rec) = &self.recovery {
            file(SWITCH, "recovery", section("recovery report", rec)?);
        }
        file(SWITCH, "switch", section("switch counters", &self.switch_counters)?);
        if let Some(summary) = self.trace_summary() {
            file(SWITCH, "trace", summary.to_json());
        }
        for (i, counts) in self.dumper_counts.iter().enumerate() {
            file(NodeId(FIRST_DUMPER + i), "dumper", section("capture counts", counts)?);
        }
        let mut doc = serde_json::json!({
            "journal": {"events": (log.journal_len() as u64), "dropped": (log.journal_dropped())},
            "global": {"engine": (section("engine stats", &self.engine_stats)?)},
        });
        doc["nodes"] = Value::Object(nodes.into_iter().map(|(id, v)| (id.to_string(), v)).collect());
        Ok(doc)
    }
}

/// One section of a report as JSON. A section that will not serialize is
/// an invariant violation ([`Error::Internal`], exit code 8), not a panic.
pub(crate) fn section<T: Serialize>(what: &str, value: &T) -> Result<serde_json::Value, Error> {
    serde_json::to_value(value)
        .map_err(|e| Error::internal(format!("{what} failed to serialize: {e}")))
}

/// Run one test end to end: the five stages of the paper's orchestrator
/// (§3.1, Figure 1), each a function of its own below.
pub fn run_test(cfg: &TestConfig) -> Result<TestResults, Error> {
    let mut bed = build(cfg)?;
    let outcome = simulate(&mut bed)?;
    let (mut results, harvest) = collect(bed, outcome)?;
    (results.trace, results.integrity) = reconstruct(harvest.captures, &results.switch_counters);
    analyze(&mut results, &harvest.qp_end_states);
    results.profile.finish();
    Ok(results)
}

/// The node ids [`build`] registers under. The devices journal under
/// theirs from construction, so the layout is fixed, not discovered;
/// dumper `i` is node `FIRST_DUMPER + i`.
const REQUESTER: NodeId = NodeId(0);
const RESPONDER: NodeId = NodeId(1);
const SWITCH: NodeId = NodeId(2);
const FIRST_DUMPER: usize = 3;

/// A display name for every node id a run of `cfg` uses (the Perfetto
/// export's track names).
pub fn node_names(cfg: &TestConfig) -> BTreeMap<u32, String> {
    let fixed = [
        (REQUESTER, "requester"),
        (RESPONDER, "responder"),
        (SWITCH, "switch"),
    ];
    let dumpers =
        (0..cfg.network.num_dumpers).map(|i| ((FIRST_DUMPER + i) as u32, format!("dumper-{i}")));
    fixed
        .into_iter()
        .map(|(id, name)| (id.0 as u32, name.to_string()))
        .chain(dumpers)
        .collect()
}

/// A testbed ready to run: the engine with every node wired, plus the
/// handles [`collect`] reads once the run is over.
struct Testbed {
    cfg: TestConfig,
    eng: Engine,
    tel: Telemetry,
    profile: SelfProfile,
    conns: Vec<ConnMeta>,
    dumpers: Vec<CaptureHandle>,
}

/// What [`collect`] hands the later stages besides the Table-1 results.
struct Harvest {
    /// Each dumper's capture buffer, taken from the dumper and moved into
    /// [`reconstruct`], which frees each capture as it decodes it; `None`
    /// when the switch mode mirrors nothing, so there is no trace to
    /// reconstruct.
    captures: Option<Vec<Vec<CapturedPacket>>>,
    /// End-of-run QP state for the recovery oracle (chaos runs only).
    qp_end_states: Vec<QpEndState>,
}

/// Stage 1: validate the configuration and assemble the testbed — devices,
/// QPs, hosts, the switch with its translated injection table, the dumper
/// pool, and whatever faults and chaos the config arms. Fails with
/// [`Error::Config`] or [`Error::Translate`].
fn build(cfg: &TestConfig) -> Result<Testbed, Error> {
    let profile = SelfProfile::start();
    cfg.validate()?;
    let verbs = cfg.traffic.verbs()?;
    // validate() checked both device queries resolve against the registry
    // (the `device:` section override wins over `nic-type` per role).
    let req_profile = cfg
        .resolved_device(false)
        .ok_or_else(|| Error::config("unknown requester nic"))?;
    let rsp_profile = cfg
        .resolved_device(true)
        .ok_or_else(|| Error::config("unknown responder nic"))?;

    let mut eng = Engine::new(cfg.network.seed);
    let tel = Telemetry::enabled();
    eng.set_telemetry(tel.clone());
    // Every run's log is baselined against the thread's provenance
    // counter, so same-seed runs record identical ids no matter what ran
    // on the thread before, traced or not. Lifecycle tracing arms only on
    // request.
    let baseline = lumina_packet::buf::next_trace_id();
    match &cfg.trace {
        Some(t) => tel.enable_tracing(t.capacity, baseline),
        None => tel.set_trace_baseline(baseline),
    }

    let mut req_rnic = build_rnic(cfg, &tel, &req_profile, REQUESTER);
    let mut rsp_rnic = build_rnic(cfg, &tel, &rsp_profile, RESPONDER);
    let conns = connect_qps(cfg, &mut eng, &mut req_rnic, &mut rsp_rnic, &verbs)?;

    let plans: Vec<FlowPlan> = conns
        .iter()
        .map(|c| FlowPlan {
            qpn: c.requester.qpn,
            verbs: verbs.clone(),
            num_msgs: cfg.traffic.num_msgs_per_qp,
            msg_size: cfg.traffic.message_size,
            tx_depth: cfg.traffic.tx_depth,
        })
        .collect();
    let requester = HostNode::new(
        req_rnic,
        Role::Requester {
            plans,
            barrier_sync: cfg.traffic.barrier_sync,
        },
        "requester",
    );
    let responder = HostNode::new(rsp_rnic, Role::Responder, "responder");
    let switch = build_switch(cfg, &conns)?;

    let ids = [
        eng.add_node(Box::new(requester)),
        eng.add_node(Box::new(responder)),
        eng.add_node(Box::new(switch)),
    ];
    debug_assert_eq!(ids, [REQUESTER, RESPONDER, SWITCH]);
    let prop = SimTime::from_nanos(cfg.network.propagation_delay_ns);
    let to_switch = [
        (REQUESTER, PortId(0), req_profile.port_bandwidth),
        (RESPONDER, PortId(1), rsp_profile.port_bandwidth),
    ];
    for (host, switch_port, bandwidth) in to_switch {
        eng.connect(host, PortId(0), SWITCH, switch_port, bandwidth, prop);
    }
    let (interposer, dumper_faults) = adversary(cfg)?;
    let dumpers = add_dumpers(cfg, &mut eng, dumper_faults);
    eng.set_interposer(interposer);
    // The event budget that supervises the run, if configured.
    if let Some(max_events) = cfg.network.max_events {
        eng.event_limit = max_events;
    }
    Ok(Testbed {
        cfg: cfg.clone(),
        eng,
        tel,
        profile,
        conns,
        dumpers,
    })
}

/// One device model, journaling as `node`. The DUT misbehavior plane is
/// installed only when a `quirks:` section asks for at least one quirk; it
/// draws from its own RNG stream (seeded off `quirks.seed` or the run seed,
/// salted per node), so the engine/workload schedule never shifts and
/// quirk-free runs stay byte-identical to every pre-quirk release.
fn build_rnic(cfg: &TestConfig, tel: &Telemetry, profile: &DeviceProfile, node: NodeId) -> Rnic {
    let ets = EtsConfig {
        tcs: cfg
            .ets
            .queues
            .iter()
            .map(|q| TcConfig {
                strict_priority: q.strict,
                weight: q.weight,
            })
            .collect(),
        work_conserving: true,
    };
    // 1 = requester, 2 = responder: the MAC index and the quirk salt.
    let nth = node.0 as u32 + 1;
    let mut b = Rnic::builder(profile.clone(), ets, MacAddr::local(nth))
        .telemetry(tel.clone(), node.0 as u32);
    if let Some(q) = cfg.quirks.as_ref().filter(|q| !q.is_noop()) {
        let seed = q.seed.unwrap_or(cfg.network.seed);
        b = b.quirks(QuirkPlane::new(
            q.knobs,
            QuirkPlane::node_rng(seed, nth as u64),
        ));
    }
    b.build()
}

/// Draw every connection's runtime metadata (the generators' random QPNs
/// and PSNs, §3.2) and create its QP on both devices.
fn connect_qps(
    cfg: &TestConfig,
    eng: &mut Engine,
    req_rnic: &mut Rnic,
    rsp_rnic: &mut Rnic,
    verbs: &[Verb],
) -> Result<Vec<ConnMeta>, Error> {
    let verb = cfg.traffic.verb()?;
    let switch_mac = MacAddr::local(100);
    let mut conns = Vec::with_capacity(cfg.traffic.num_connections as usize);
    for i in 1..=cfg.traffic.num_connections {
        let (req_ip, rsp_ip) = if cfg.traffic.multi_gid {
            (
                Ipv4Addr::new(10, (i / 200) as u8, (i % 200) as u8, 1),
                Ipv4Addr::new(10, (i / 200) as u8, (i % 200) as u8, 2),
            )
        } else {
            (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        };
        let req_qpn = req_rnic.alloc_qpn(eng.rng());
        let rsp_qpn = rsp_rnic.alloc_qpn(eng.rng());
        let req_ipsn = eng.rng().bits24();
        let rsp_ipsn = eng.rng().bits24();
        conns.push(ConnMeta {
            index: i,
            requester: QpEndpoint {
                ip: req_ip,
                qpn: req_qpn,
                ipsn: req_ipsn,
            },
            responder: QpEndpoint {
                ip: rsp_ip,
                qpn: rsp_qpn,
                ipsn: rsp_ipsn,
            },
            verb,
        });
    }
    for (i, c) in conns.iter().enumerate() {
        let tc = cfg.traffic.qp_traffic_class.get(i).copied().unwrap_or(0);
        let base =
            |local: QpEndpoint, remote: QpEndpoint, host: &crate::config::HostConfig| QpConfig {
                local,
                remote,
                remote_mac: switch_mac,
                mtu: cfg.traffic.mtu,
                timeout_code: cfg.traffic.min_retransmit_timeout,
                retry_cnt: cfg.traffic.max_retransmit_retry,
                adaptive_retrans: host.adaptive_retrans,
                traffic_class: tc,
                dcqcn_rp: host.dcqcn_rp_enable,
                dcqcn_np: host.dcqcn_np_enable,
                min_time_between_cnps: SimTime::from_micros(host.min_time_between_cnps_us),
                udp_src_port: 49152 + c.index as u16,
            };
        req_rnic.create_qp(base(c.requester, c.responder, &cfg.requester));
        rsp_rnic.create_qp(base(c.responder, c.requester, &cfg.responder));
        if verbs.contains(&Verb::Send) {
            for k in 0..cfg.traffic.num_msgs_per_qp {
                rsp_rnic.post_recv(
                    c.responder.qpn,
                    (c.index as u64) << 32 | k as u64,
                    cfg.traffic.message_size,
                );
            }
        }
    }
    Ok(conns)
}

/// Port `2 + i` of the switch faces dumper `i`.
fn dumper_port(i: usize) -> PortId {
    PortId(2 + i)
}

/// The switch in the configured mode, its injection table filled by intent
/// translation (§3.3).
fn build_switch(cfg: &TestConfig, conns: &[ConnMeta]) -> Result<SwitchNode, Error> {
    let mut forward: HashMap<Ipv4Addr, PortId> = HashMap::new();
    for c in conns {
        forward.insert(c.requester.ip, PortId(0));
        forward.insert(c.responder.ip, PortId(1));
    }
    let lumina = |forward| {
        let dumper_ports = (0..cfg.network.num_dumpers)
            .map(|i| (dumper_port(i), 1u32))
            .collect();
        SwitchConfig::lumina(forward, dumper_ports)
    };
    let mut sw_cfg = match cfg.network.switch_mode {
        SwitchMode::L2Forward => SwitchConfig::l2_forward(forward),
        SwitchMode::Lumina => lumina(forward),
        SwitchMode::LuminaNm => SwitchConfig {
            mirroring: false,
            ..lumina(forward)
        },
        SwitchMode::LuminaNe => SwitchConfig {
            injection: false,
            ..lumina(forward)
        },
    };
    if cfg.network.no_dport_randomization {
        sw_cfg.randomize_dport = false;
    }
    if cfg.network.per_port_mirroring {
        sw_cfg.mirror_mode = MirrorMode::PerIngressPort;
    }
    let mut switch = SwitchNode::new(sw_cfg);
    for (key, action) in translate(cfg, conns)? {
        switch.table.insert(key, action);
    }
    Ok(switch)
}

/// Add the dumper pool behind the switch's mirror ports, dumper `i` with
/// `faults[i]` (none when `faults` is empty).
fn add_dumpers(
    cfg: &TestConfig,
    eng: &mut Engine,
    faults: Vec<DumperFaults>,
) -> Vec<CaptureHandle> {
    let prop = SimTime::from_nanos(cfg.network.propagation_delay_ns);
    let mut faults = faults.into_iter();
    (0..cfg.network.num_dumpers)
        .map(|i| {
            let handle = capture_handle();
            let dumper = DumperNode::with_faults(
                DumperConfig {
                    cores: cfg.network.dumper_cores,
                    per_core_rate_pps: cfg.network.dumper_core_rate_pps,
                    ring_capacity: cfg.network.dumper_ring_capacity,
                    trim_bytes: lumina_dumper::TRIM_LEN,
                },
                handle.clone(),
                faults.next(),
            );
            let id = eng.add_node(Box::new(dumper));
            debug_assert_eq!(id, NodeId(FIRST_DUMPER + i));
            eng.connect(
                SWITCH,
                dumper_port(i),
                id,
                PortId(0),
                lumina_sim::Bandwidth::gbps(100),
                prop,
            );
            handle
        })
        .collect()
}

/// What the `faults:` and `chaos:` sections inject: the engine's
/// interposer, and each dumper's local faults (none unless `faults:` is
/// armed). A section that injects nothing arms nothing, so its run stays on
/// the pristine path; one that does draws from its own seeded streams, so
/// the simulated workload draws the same with and without it.
fn adversary(cfg: &TestConfig) -> Result<(Interposer, Vec<DumperFaults>), Error> {
    let mut ip = Interposer::default();
    let dumpers = cfg.network.num_dumpers;
    let mut dumper_faults = Vec::new();
    if let Some(f) = cfg.faults.as_ref().filter(|f| !f.is_noop()) {
        let seed = f.seed.unwrap_or(cfg.network.seed);
        let mirror = MirrorFaults {
            loss_prob: f.mirror_loss_prob,
            dup_prob: f.mirror_dup_prob,
        };
        ip.arm_faults(seed, mirror);
        if mirror.loss_prob > 0.0 || mirror.dup_prob > 0.0 {
            // Only the mirror paths are unreliable; the data path between
            // hosts and switch stays pristine (the paper's testbed trusts
            // its DUT links, not its capture infrastructure).
            for i in 0..dumpers {
                ip.mark_mirror_link(SWITCH, dumper_port(i));
            }
        }
        for fz in &f.freezes {
            let node = match fz.node.as_str() {
                "requester" => REQUESTER,
                "responder" => RESPONDER,
                "switch" => SWITCH,
                "dumper" => NodeId(FIRST_DUMPER + fz.index),
                // validate() rejects anything else before we get here
                other => return Err(Error::config(format!("unknown freeze node {other:?}"))),
            };
            ip.add_freeze(node, window(fz.at_us, fz.duration_us));
        }
        dumper_faults = (0..dumpers)
            .map(|i| DumperFaults {
                bit_rot_prob: f.capture_bit_rot_prob,
                stalls: f
                    .dumper_stalls
                    .iter()
                    .filter(|s| s.index.is_none() || s.index == Some(i))
                    .map(|s| StallWindow {
                        window: window(s.at_us, s.duration_us),
                        slowdown: s.slowdown,
                    })
                    .collect(),
                rng: faults::node_rng(seed, 0xd0_0000 + i as u64),
            })
            .collect();
    }
    if let Some(c) = cfg.chaos.as_ref().filter(|c| !c.is_noop()) {
        ip.arm_chaos(c.seed.unwrap_or(cfg.network.seed));
        for l in &c.links {
            // A "link" covers both directions: the host's egress and the
            // switch's egress back toward that host.
            let (host, switch_port) = match l.link.as_str() {
                "requester" => (REQUESTER, PortId(0)),
                "responder" => (RESPONDER, PortId(1)),
                // validate() rejects anything else before we get here
                other => return Err(Error::config(format!("unknown chaos link {other:?}"))),
            };
            let schedule = l.to_chaos();
            ip.set_chaos(host, PortId(0), schedule.clone());
            ip.set_chaos(SWITCH, switch_port, schedule);
        }
    }
    Ok((ip, dumper_faults))
}

/// Stage 2: start the requester and run the engine to quiescence or the
/// horizon. A run that exhausts its event budget is [`Error::Watchdog`].
fn simulate(bed: &mut Testbed) -> Result<RunOutcome, Error> {
    let Testbed { cfg, eng, .. } = bed;
    eng.schedule_timer(REQUESTER, SimTime::from_micros(1), HostNode::start_token());
    let outcome = eng.run(Some(SimTime::from_millis(cfg.network.horizon_ms)));
    match outcome {
        RunOutcome::EventLimit { end } => Err(Error::Watchdog(format!(
            "event budget of {} exhausted at t={} ns",
            eng.event_limit,
            end.as_nanos()
        ))),
        RunOutcome::Quiescent { .. } | RunOutcome::HorizonReached { .. } => Ok(outcome),
    }
}

/// Take node `id` back out of the engine as the concrete type [`build`]
/// put there; anything else is [`Error::Internal`].
fn take_node<T: Node>(eng: &mut Engine, id: NodeId, what: &str) -> Result<Box<T>, Error> {
    let node: Box<dyn std::any::Any> = eng
        .take_node(id)
        .ok_or_else(|| Error::internal(format!("{what} node is no longer in the engine")))?;
    node.downcast()
        .map_err(|_| Error::internal(format!("{what} node recovered with unexpected type")))
}

/// Stage 3: tear the testbed down and collect everything Table 1 lists —
/// counters, application metrics, engine/frame/plane statistics, the event
/// log — each once, moved out of its owner, where the reports read it. The
/// dumpers' capture buffers are taken, not copied, and handed on whole to
/// [`reconstruct`], which consumes them. Fails only with
/// [`Error::Internal`].
fn collect(mut bed: Testbed, outcome: RunOutcome) -> Result<(TestResults, Harvest), Error> {
    let eng = &mut bed.eng;
    let engine_stats = *eng.stats();
    let mut profile = bed.profile;
    profile.queue_depth_hwm = eng.queue_depth_hwm();
    // Snapshot the frame-plane counters before teardown frees the buffers.
    let frame_stats = eng.frame_stats();
    let fault_stats = eng.interposer().fault_stats();
    let chaos_stats = eng.interposer().chaos_stats();
    let req_host: Box<HostNode> = take_node(eng, REQUESTER, "requester")?;
    let rsp_host: Box<HostNode> = take_node(eng, RESPONDER, "responder")?;
    let sw: Box<SwitchNode> = take_node(eng, SWITCH, "switch")?;
    let hosts = [(REQUESTER, &req_host.rnic), (RESPONDER, &rsp_host.rnic)];

    // Misbehavior-plane accounting from both devices; `Some` only on
    // quirk-injected runs, keeping pristine reports byte-identical.
    let host_quirk_stats = hosts.map(|(_, rnic)| rnic.quirk_stats().copied());
    let quirk_stats = host_quirk_stats.iter().flatten().copied().reduce(|mut sum, qs| {
        sum.merge(&qs);
        sum
    });
    // End-of-run QP state for the recovery oracle; chaos-injected runs
    // only (pristine runs skip the walk entirely).
    let mut qp_end_states = Vec::new();
    if chaos_stats.is_some() {
        for (id, rnic) in hosts {
            for qpn in rnic.qpns() {
                if let Some(qp) = rnic.qp(qpn) {
                    qp_end_states.push(QpEndState {
                        qpn,
                        requester: id == REQUESTER,
                        errored: qp.state == lumina_rnic::qp::QpState::Error,
                        unacked: qp.has_unacked(),
                        timer_armed: qp.timeout_armed,
                    });
                }
            }
        }
    }

    let (req_host, rsp_host) = (*req_host, *rsp_host);
    let mut dumper_discards = 0;
    let mut captures = Vec::with_capacity(bed.dumpers.len());
    let mut dumper_counts = Vec::with_capacity(bed.dumpers.len());
    for handle in &bed.dumpers {
        let mut state = handle.borrow_mut();
        // Counted first: `packets_captured` is the buffer taken next.
        dumper_counts.push(state.counts());
        captures.push(std::mem::take(&mut state.packets));
        dumper_discards += state.rx_discards;
    }
    let harvest = Harvest {
        captures: sw.cfg.mirroring.then_some(captures),
        qp_end_states,
    };
    let results = TestResults {
        cfg: bed.cfg,
        conns: bed.conns,
        trace: None,
        integrity: IntegrityReport::default(),
        requester_counters: req_host.rnic.counters,
        responder_counters: rsp_host.rnic.counters,
        requester_metrics: req_host.metrics,
        responder_metrics: rsp_host.metrics,
        events_fired: sw.table.fired().len(),
        events_unfired: sw.table.unfired().len(),
        dumper_discards,
        outcome,
        engine_stats,
        frame_stats,
        telemetry: bed.tel.into_log(),
        profile,
        fault_stats,
        dumper_counts,
        quirk_stats,
        host_quirk_stats,
        conformance: None,
        replayed: None,
        chaos_stats,
        recovery: None,
        switch_counters: sw.counters,
    };
    Ok((results, harvest))
}

/// Stage 4: rebuild the trace from the captures and check its integrity
/// (§3.5). Never fails: damage degrades the report. The captures are
/// consumed: each dumper buffer gives its memory back as it is decoded, so
/// only the trace built so far and the captures not yet decoded are
/// resident. This is where offline `ingest` joins — it feeds the same
/// reconstructor from a capture file and derives condition 1 from the
/// same summary.
fn reconstruct(
    captures: Option<Vec<Vec<CapturedPacket>>>,
    switch: &SwitchCounters,
) -> (Option<Trace>, IntegrityReport) {
    match captures {
        Some(captures) => integrity::check_owned(captures, switch),
        None => (None, IntegrityReport::default()),
    }
}

/// Stage 5: the oracles a run grades itself with. Every traced run gets
/// the one RC replay — the conformance verdict and its views — which every
/// report, campaign and oracle then reads; chaos-injected runs the recovery
/// verdict too (the whole point of injecting chaos is proving the stack
/// recovers), off the replay's recovery view. Nothing else walks the trace.
fn analyze(results: &mut TestResults, qp_end_states: &[QpEndState]) {
    if let Some(trace) = &results.trace {
        let opts = ConformanceOpts::from_results(results);
        let (conf, replayed) = conformance::replay(trace, &results.conns, &opts);
        (results.conformance, results.replayed) = (Some(conf), Some(replayed));
    }
    let Some(chaos) = results.cfg.chaos.as_ref().filter(|c| !c.is_noop()) else {
        return;
    };
    let planned = results.cfg.traffic.num_msgs_per_qp as u64;
    let flows: Vec<FlowAccount> = results
        .conns
        .iter()
        .map(|conn| {
            let m = results.requester_metrics.flows.get(&conn.requester.qpn);
            FlowAccount {
                qpn: conn.requester.qpn,
                planned,
                completed: m.map_or(0, |f| f.completed as u64),
                failed: m.map_or(0, |f| f.failed as u64),
            }
        })
        .collect();
    let destroyed = results
        .chaos_stats
        .as_ref()
        .map_or(0, |cs| cs.data_drops() + cs.corruptions);
    let opts = RecoveryOpts {
        windows: chaos.windows(),
        destroyed,
    };
    results.recovery = Some(recovery::analyze(
        results.replayed.as_ref().and_then(|r| r.recovery.as_ref()),
        &flows,
        qp_end_states,
        &opts,
    ));
}

/// Kept only because the benchmark (`benchmark/src/traced.rs`) names it:
/// nothing reads `max_attempts`, since a simulated run is a pure function
/// of its config and seed and a second attempt would replay the first.
/// The benchmark's re-issue (ROADMAP item 5) deletes the type.
#[derive(Debug, Clone, Default)]
pub struct RetryPolicy {
    /// Unused; see the type's doc.
    pub max_attempts: u32,
}

/// Run one test once, catching a panic inside the run and surfacing it as
/// [`Error::Internal`]; every other failure passes through unchanged.
pub fn run_supervised(cfg: &TestConfig, _policy: &RetryPolicy) -> Result<TestResults, Error> {
    match run_caught(cfg) {
        Ok(results) => Ok(results),
        Err(EvalFailure::Error(e)) => Err(e),
        Err(EvalFailure::Panic(msg)) => Err(Error::internal(format!("run panicked: {msg}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every preset in the repository's `configs/`.
    fn presets() -> Vec<(String, TestConfig)> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).expect("configs/ exists") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) == Some("yaml") {
                let yaml = std::fs::read_to_string(&path).unwrap();
                let cfg = TestConfig::from_yaml(&yaml)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                out.push((path.display().to_string(), cfg));
            }
        }
        assert!(out.len() >= 8, "corpus shrank: {}", out.len());
        out
    }

    #[test]
    fn build_lays_the_nodes_out_at_the_fixed_ids_for_every_preset() {
        for (name, cfg) in presets() {
            let mut bed = build(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
            let n = cfg.network.num_dumpers;
            assert_eq!(bed.dumpers.len(), n, "{name}");
            assert_eq!(bed.eng.node_count(), FIRST_DUMPER + n, "{name}");
            let eng = &mut bed.eng;
            assert!(take_node::<HostNode>(eng, REQUESTER, "requester").is_ok());
            assert!(take_node::<HostNode>(eng, RESPONDER, "responder").is_ok());
            assert!(take_node::<SwitchNode>(eng, SWITCH, "switch").is_ok());
            for i in 0..n {
                let id = NodeId(FIRST_DUMPER + i);
                assert!(take_node::<DumperNode>(eng, id, "dumper").is_ok(), "{name}");
            }
        }
        // `node_names` names exactly the ids `build` registers.
        let (_, mut cfg) = presets().swap_remove(0);
        for (dumpers, last) in [(1, "dumper-0"), (3, "dumper-2")] {
            cfg.network.num_dumpers = dumpers;
            let names = node_names(&cfg);
            let ids: Vec<u32> = names.keys().copied().collect();
            let built = build(&cfg).unwrap().eng.node_count() as u32;
            assert_eq!(ids, (0..built).collect::<Vec<u32>>());
            let named: Vec<&str> = names.values().map(String::as_str).collect();
            assert_eq!(named[..3], ["requester", "responder", "switch"]);
            assert_eq!(named.last(), Some(&last));
        }
    }

    #[test]
    fn collect_without_a_node_is_an_internal_error_not_a_panic() {
        let (_, cfg) = presets().swap_remove(0);
        for gone in [REQUESTER, RESPONDER, SWITCH] {
            let mut bed = build(&cfg).unwrap();
            let outcome = simulate(&mut bed).unwrap();
            assert!(bed.eng.take_node(gone).is_some());
            let err = collect(bed, outcome).err().expect("a node is missing");
            assert!(matches!(err, Error::Internal(_)), "{err}");
        }
        // So is a node of another type where a host should be.
        let mut bed = build(&cfg).unwrap();
        let err = take_node::<SwitchNode>(&mut bed.eng, REQUESTER, "requester")
            .err()
            .expect("a host is not a switch");
        assert_eq!(err.exit_code(), 8, "{err}");
    }
}
