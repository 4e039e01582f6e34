//! The orchestrator (§3.1, Figure 1): build the testbed from a
//! configuration, run it, collect every result Table 1 lists, reconstruct
//! the trace and run the integrity check.

use crate::analyzers::{
    conformance, recovery, ConformanceOpts, ConformanceReport, FlowAccount, QpEndState,
    RecoveryOpts,
};
use crate::campaign::{run_caught, EvalFailure};
use crate::config::{SwitchMode, TestConfig};
use crate::error::Error;
use crate::integrity::{self, IntegrityReport};
use crate::translate::{translate, ConnMeta};
use lumina_dumper::node::{capture_handle, CaptureHandle, DumperConfig, DumperNode};
use lumina_dumper::{CapturedPacket, DumperFaults, StallWindow, Trace};
use lumina_gen::host::{HostNode, Role};
use lumina_gen::metrics::{metrics_handle, GenMetrics, MetricsHandle};
use lumina_gen::FlowPlan;
use lumina_rnic::counters::Counters;
use lumina_rnic::ets::{EtsConfig, TcConfig};
use lumina_rnic::qp::{QpConfig, QpEndpoint};
use lumina_rnic::{DeviceProfile, QuirkPlane, QuirkStats, Rnic, Vendor, Verb};
use lumina_sim::{
    ChaosPlane, ChaosStats, Engine, EngineStats, FaultPlane, FaultStats, FrameStats, FreezeWindow,
    Interposer, MetricSet, MirrorFaults, Node, NodeId, PortId, RunOutcome, SimRng, SimTime,
    Telemetry,
};
use lumina_switch::device::{MirrorMode, SwitchConfig, SwitchCounters, SwitchNode};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::time::Duration;

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
    /// Requester counters under vendor names.
    pub requester_vendor_counters: BTreeMap<String, u64>,
    /// Responder counters under vendor names.
    pub responder_vendor_counters: BTreeMap<String, u64>,
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
    /// Final simulation time.
    pub end_time: SimTime,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Engine statistics.
    pub engine_stats: EngineStats,
    /// Frame-plane allocation/copy accounting for this run. Deliberately
    /// NOT part of [`report_json`](Self::report_json): the golden reports
    /// predate the zero-copy plane and must stay byte-identical. The
    /// counters surface through the `telemetry` CLI subcommand instead.
    pub frame_stats: FrameStats,
    /// Telemetry sink the run recorded into: structured event journal,
    /// per-node metric registry and the wall-clock self-profile.
    pub telemetry: Telemetry,
    /// Fault-plane counters; `Some` only when the run had an active
    /// `faults:` section, so fault-free reports are byte-identical to
    /// every pre-fault-plane release.
    pub fault_stats: Option<FaultStats>,
    /// Captures hit by injected bit-rot, summed over the dumper pool.
    pub captures_corrupted: u64,
    /// Stall-inflated dumper service ticks, summed over the pool.
    pub service_ticks_stalled: u64,
    /// Misbehavior-plane counters (both devices merged); `Some` only when
    /// the run had an active `quirks:` section, so quirk-free reports are
    /// byte-identical to every pre-quirk release.
    pub quirk_stats: Option<QuirkStats>,
    /// Spec-conformance oracle verdict. Computed here for quirk-injected
    /// runs with a trace; the CLI runs the oracle on demand otherwise.
    pub conformance: Option<crate::analyzers::ConformanceReport>,
    /// Chaos-plane counters; `Some` only when the run had an active
    /// `chaos:` section, so chaos-free reports are byte-identical to
    /// every pre-chaos release.
    pub chaos_stats: Option<ChaosStats>,
    /// Liveness/recovery oracle verdict; `Some` only on chaos-injected
    /// runs (the whole point of injecting chaos is proving recovery).
    pub recovery: Option<crate::analyzers::RecoveryReport>,
}

// The parallel fuzz executor evaluates `run_test` on worker threads and
// ships whole `TestResults` back to the campaign thread. Everything a run
// produces is owned per-run state (the `Rc`-based capture/metrics handles
// stay inside the run's thread and are cloned out before return), and the
// telemetry sink is `Arc`-backed — keep that Send guarantee checked at
// compile time.
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

    /// The conformance oracle's verdict for this run: the run's own when the
    /// orchestrator already computed one (quirk-injected runs), an oracle
    /// replay over the trace otherwise, `None` for a traceless run. A pure
    /// function of the results.
    pub fn conformance_verdict(&self) -> Option<ConformanceReport> {
        self.conformance.clone().or_else(|| {
            let trace = self.trace.as_ref()?;
            let opts = ConformanceOpts::from_results(self);
            Some(conformance::analyze(trace, &self.conns, &opts))
        })
    }

    /// Machine-readable summary (the orchestrator's "test results" file).
    pub fn report_json(&self) -> Result<serde_json::Value, Error> {
        #[derive(Serialize)]
        struct Summary<'a> {
            integrity_passed: bool,
            integrity: &'a IntegrityReport,
            trace_packets: usize,
            requester_counters: &'a BTreeMap<String, u64>,
            responder_counters: &'a BTreeMap<String, u64>,
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
                requester_counters: &self.requester_vendor_counters,
                responder_counters: &self.responder_vendor_counters,
                requester_metrics: &self.requester_metrics,
                switch: &self.switch_counters,
                events_fired: self.events_fired,
                events_unfired: self.events_unfired,
                dumper_discards: self.dumper_discards,
                end_time_ns: self.end_time.as_nanos(),
                traffic_completed: self.traffic_completed(),
            },
        )?;
        // The deterministic view only: the self-profile holds wall-clock
        // numbers, which would make same-seed reports differ byte-for-byte.
        report["telemetry"] = self.telemetry.deterministic_snapshot();
        // Fault accounting appears only on fault-injected runs, keeping
        // pristine reports (and all eight goldens) byte-identical.
        if let Some(fs) = &self.fault_stats {
            let mut faults = section("fault stats", fs)?;
            faults["captures_corrupted"] = serde_json::Value::from(self.captures_corrupted);
            faults["service_ticks_stalled"] = serde_json::Value::from(self.service_ticks_stalled);
            report["faults"] = faults;
        }
        // Likewise, misbehavior accounting and the conformance verdict
        // appear only on quirk-injected runs.
        if let Some(qs) = &self.quirk_stats {
            report["quirks"] = section("quirk stats", qs)?;
        }
        if let Some(conf) = &self.conformance {
            report["conformance"] = section("conformance report", conf)?;
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
        if self.telemetry.is_tracing() {
            report["trace"] = self.trace_summary().snapshot();
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

    /// Per-hop / end-to-end latency dissection of the flight recorder.
    /// Meaningful only when the run traced (`trace:` section enabled);
    /// otherwise every histogram is empty.
    pub fn trace_summary(&self) -> lumina_sim::telemetry::TraceSummary {
        use lumina_sim::telemetry::TraceSummary;
        self.telemetry.with_recorder(TraceSummary::from_recorder)
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
    (results.trace, results.integrity) =
        reconstruct(harvest.captures.as_deref(), &results.switch_counters);
    analyze(&mut results, &harvest.qp_end_states);
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
    let dumpers = (0..cfg.network.num_dumpers.max(1))
        .map(|i| ((FIRST_DUMPER + i) as u32, format!("dumper-{i}")));
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
    conns: Vec<ConnMeta>,
    /// Counter dialects of the requester and responder NICs.
    vendors: [Vendor; 2],
    req_metrics: MetricsHandle,
    rsp_metrics: MetricsHandle,
    dumpers: Vec<CaptureHandle>,
}

/// What [`collect`] hands the later stages besides the Table-1 results.
struct Harvest {
    /// Each dumper's capture buffer; `None` when the switch mode mirrors
    /// nothing, so there is no trace to reconstruct.
    captures: Option<Vec<Vec<CapturedPacket>>>,
    /// End-of-run QP state for the recovery oracle (chaos runs only).
    qp_end_states: Vec<QpEndState>,
}

/// Stage 1: validate the configuration and assemble the testbed — devices,
/// QPs, hosts, the switch with its translated injection table, the dumper
/// pool, and whichever adversarial planes the config arms. Fails with
/// [`Error::Config`] or [`Error::Translate`].
fn build(cfg: &TestConfig) -> Result<Testbed, Error> {
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
    // Lifecycle tracing arms only on request: the flight recorder is
    // baselined against the thread's provenance counter so same-seed
    // runs record identical ids no matter what ran on the thread before.
    if let Some(t) = cfg.trace.as_ref().filter(|t| !t.is_noop()) {
        tel.enable_tracing(t.capacity, lumina_packet::buf::next_trace_id());
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
    let req_metrics = metrics_handle();
    let rsp_metrics = metrics_handle();
    let requester = HostNode::new(
        req_rnic,
        Role::Requester {
            plans,
            barrier_sync: cfg.traffic.barrier_sync,
        },
        req_metrics.clone(),
        "requester",
    );
    let responder = HostNode::new(rsp_rnic, Role::Responder, rsp_metrics.clone(), "responder");
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
    let dumpers = add_dumpers(cfg, &mut eng);
    eng.set_interposer(Interposer::new(fault_plane(cfg)?, chaos_plane(cfg)?));
    // The watchdog limits that supervise the run, if configured.
    if let Some(max_events) = cfg.network.max_events {
        eng.event_limit = max_events;
    }
    if let Some(max_wall_ms) = cfg.network.max_wall_ms {
        eng.wall_clock_limit = Some(Duration::from_millis(max_wall_ms));
    }
    Ok(Testbed {
        cfg: cfg.clone(),
        eng,
        tel,
        conns,
        vendors: [req_profile.vendor, rsp_profile.vendor],
        req_metrics,
        rsp_metrics,
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
            q.knobs(),
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
        let dumper_ports = (0..cfg.network.num_dumpers.max(1))
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

/// The `faults:` section, when it injects anything, and the seed its
/// streams fork from. The schedule draws from its own RNG, so the simulated
/// workload is byte-identical with and without it.
fn active_faults(cfg: &TestConfig) -> Option<(&crate::config::FaultsSection, u64)> {
    let f = cfg.faults.as_ref().filter(|f| !f.is_noop())?;
    Some((f, f.seed.unwrap_or(cfg.network.seed)))
}

/// Add the dumper pool behind the switch's mirror ports.
fn add_dumpers(cfg: &TestConfig, eng: &mut Engine) -> Vec<CaptureHandle> {
    let prop = SimTime::from_nanos(cfg.network.propagation_delay_ns);
    (0..cfg.network.num_dumpers.max(1))
        .map(|i| {
            let handle = capture_handle();
            let faults = active_faults(cfg).map(|(f, seed)| DumperFaults {
                bit_rot_prob: f.capture_bit_rot_prob,
                stalls: f
                    .dumper_stalls
                    .iter()
                    .filter(|s| s.index.is_none() || s.index == Some(i))
                    .map(|s| StallWindow {
                        from: SimTime::from_micros(s.at_us),
                        until: SimTime::from_micros(s.at_us + s.duration_us),
                        slowdown: s.slowdown,
                    })
                    .collect(),
                rng: FaultPlane::node_rng(seed, 0xd0_0000 + i as u64),
            });
            let dumper = DumperNode::with_faults(
                DumperConfig {
                    cores: cfg.network.dumper_cores,
                    per_core_rate_pps: cfg.network.dumper_core_rate_pps,
                    ring_capacity: cfg.network.dumper_ring_capacity,
                    trim_bytes: lumina_dumper::TRIM_LEN,
                },
                handle.clone(),
                faults,
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

/// The infrastructure fault plane an active `faults:` section asks for.
fn fault_plane(cfg: &TestConfig) -> Result<Option<FaultPlane>, Error> {
    let Some((f, seed)) = active_faults(cfg) else {
        return Ok(None);
    };
    let mut plane = FaultPlane::new(
        seed,
        MirrorFaults {
            loss_prob: f.mirror_loss_prob,
            dup_prob: f.mirror_dup_prob,
        },
    );
    if f.mirror_loss_prob > 0.0 || f.mirror_dup_prob > 0.0 {
        // Only the mirror paths are unreliable; the data path between
        // hosts and switch stays pristine (the paper's testbed trusts
        // its DUT links, not its capture infrastructure).
        for i in 0..cfg.network.num_dumpers.max(1) {
            plane.mark_mirror_link(SWITCH, dumper_port(i));
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
        plane.add_freeze(FreezeWindow {
            node,
            from: SimTime::from_micros(fz.at_us),
            until: SimTime::from_micros(fz.at_us + fz.duration_us),
        });
    }
    Ok(Some(plane))
}

/// The data-path chaos plane an active `chaos:` section asks for. Like the
/// fault plane it owns its RNG stream and only touches covered links, so a
/// noop/absent section draws nothing and the run stays pristine.
fn chaos_plane(cfg: &TestConfig) -> Result<Option<ChaosPlane>, Error> {
    let Some(c) = cfg.chaos.as_ref().filter(|c| !c.is_noop()) else {
        return Ok(None);
    };
    let mut plane = ChaosPlane::new(c.seed.unwrap_or(cfg.network.seed));
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
        plane.set_link(host, PortId(0), schedule.clone());
        plane.set_link(SWITCH, switch_port, schedule);
    }
    Ok(Some(plane))
}

/// Stage 2: start the requester and run the engine to quiescence or the
/// horizon. A run the watchdog had to kill is [`Error::Watchdog`].
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
        RunOutcome::WallClockExceeded { end } => Err(Error::Watchdog(format!(
            "wall-clock limit of {} ms exceeded at t={} ns",
            cfg.network.max_wall_ms.unwrap_or(0),
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
/// counters, application metrics, engine/frame/plane statistics — folding
/// every component's counter struct into the telemetry registry through
/// the one shared MetricSet path, keyed by node id. The dumpers' capture
/// buffers are taken, not copied. Fails only with [`Error::Internal`].
fn collect(mut bed: Testbed, outcome: RunOutcome) -> Result<(TestResults, Harvest), Error> {
    let (eng, tel) = (&mut bed.eng, &bed.tel);
    let engine_stats = *eng.stats();
    // Snapshot the frame-plane counters before teardown frees the buffers.
    let frame_stats = eng.frame_stats();
    let fault_stats = eng.interposer().faults.as_ref().map(|p| p.stats);
    let chaos_stats = eng.interposer().chaos.as_ref().map(|p| p.stats);
    let req_host: Box<HostNode> = take_node(eng, REQUESTER, "requester")?;
    let rsp_host: Box<HostNode> = take_node(eng, RESPONDER, "responder")?;
    let sw: Box<SwitchNode> = take_node(eng, SWITCH, "switch")?;
    let hosts = [(REQUESTER, &req_host.rnic), (RESPONDER, &rsp_host.rnic)];

    // Misbehavior-plane accounting from both devices; `Some` only on
    // quirk-injected runs, keeping pristine reports byte-identical.
    let mut quirk_stats: Option<QuirkStats> = None;
    for (id, rnic) in hosts {
        if let Some(qs) = rnic.quirk_stats() {
            tel.record_metric_set(id.0 as u32, qs);
            quirk_stats
                .get_or_insert_with(QuirkStats::default)
                .merge(qs);
        }
    }
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

    let req_counters = req_host.rnic.counters.clone();
    let rsp_counters = rsp_host.rnic.counters.clone();
    let requester_metrics = bed.req_metrics.borrow().clone();
    let responder_metrics = bed.rsp_metrics.borrow().clone();
    tel.record_metric_set(REQUESTER.0 as u32, &req_counters);
    tel.record_metric_set(REQUESTER.0 as u32, &requester_metrics);
    tel.record_metric_set(RESPONDER.0 as u32, &rsp_counters);
    tel.record_metric_set(RESPONDER.0 as u32, &responder_metrics);
    tel.record_metric_set(SWITCH.0 as u32, &sw.counters);
    let (mut dumper_discards, mut captures_corrupted, mut service_ticks_stalled) = (0, 0, 0);
    let mut captures = Vec::with_capacity(bed.dumpers.len());
    for (i, handle) in bed.dumpers.iter().enumerate() {
        let mut state = handle.borrow_mut();
        // Recorded first: the snapshot counts the packets taken next.
        tel.record_metric_set((FIRST_DUMPER + i) as u32, &*state);
        captures.push(std::mem::take(&mut state.packets));
        dumper_discards += state.rx_discards;
        captures_corrupted += state.captures_corrupted;
        service_ticks_stalled += state.service_ticks_stalled;
    }
    if let Some(fs) = &fault_stats {
        tel.record_metric_set(SWITCH.0 as u32, fs);
    }
    if let Some(cs) = &chaos_stats {
        tel.record_metric_set(SWITCH.0 as u32, cs);
    }
    if tel.is_tracing() {
        // Fold the dissection into the registry under the switch (the
        // testbed's vantage point) so `telemetry` surfaces it too.
        let summary = tel.with_recorder(lumina_sim::telemetry::TraceSummary::from_recorder);
        tel.record_metric_set(SWITCH.0 as u32, &summary);
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
        requester_vendor_counters: req_counters.vendor_view(bed.vendors[0]),
        responder_vendor_counters: rsp_counters.vendor_view(bed.vendors[1]),
        requester_counters: req_counters,
        responder_counters: rsp_counters,
        requester_metrics,
        responder_metrics,
        events_fired: sw.table.fired().len(),
        events_unfired: sw.table.unfired().len(),
        dumper_discards,
        end_time: outcome.end_time(),
        outcome,
        engine_stats,
        frame_stats,
        telemetry: bed.tel,
        fault_stats,
        captures_corrupted,
        service_ticks_stalled,
        quirk_stats,
        conformance: None,
        chaos_stats,
        recovery: None,
        switch_counters: sw.counters,
    };
    Ok((results, harvest))
}

/// Stage 4: rebuild the trace from the captures and check its integrity
/// (§3.5). Never fails: damage degrades the report. This is where offline
/// `ingest` joins — it feeds the same reconstructor from a capture file
/// and derives condition 1 from the same summary.
fn reconstruct(
    captures: Option<&[Vec<CapturedPacket>]>,
    switch: &SwitchCounters,
) -> (Option<Trace>, IntegrityReport) {
    match captures {
        Some(captures) => integrity::check(captures, switch),
        None => (None, IntegrityReport::default()),
    }
}

/// Stage 5: the oracles a run grades itself with. Quirk-injected runs get
/// the conformance verdict inline (the whole point of injecting misbehavior
/// is to see the oracle call it), chaos-injected runs the recovery verdict
/// (the whole point of injecting chaos is proving the stack recovers); the
/// report-only analyzers run on demand in [`crate::report::RunReport`].
fn analyze(results: &mut TestResults, qp_end_states: &[QpEndState]) {
    if results.quirk_stats.is_some() {
        results.conformance = results.conformance_verdict();
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
        amplification_limit: chaos.amplification_limit,
    };
    let report = recovery::analyze(results.trace.as_ref(), &flows, qp_end_states, &opts);
    results
        .telemetry
        .record_metric_set(SWITCH.0 as u32, &report);
    results.recovery = Some(report);
}

/// Salt separating the retry-jitter stream from every other consumer of
/// the workload seed.
const RETRY_JITTER_SALT: u64 = 0x4a17_7e5b_ac0f_f5a1;

/// How [`run_supervised`] reacts to infrastructure-classified failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
    /// Upper bound on any single backoff sleep, applied before jitter.
    /// No magic shift cap: the doubling runs free and this clamps it.
    pub backoff_cap: Duration,
    /// Jitter fraction in `[0, 1]`: each sleep is stretched by up to this
    /// fraction. The stretch is *deterministic* — drawn from a [`SimRng`]
    /// keyed on the workload seed and attempt index — so a supervised run
    /// sleeps identically on replay while distinct seeds still desynchronize
    /// their retry storms.
    pub jitter: f64,
    /// Bump the fault-schedule seed on each retry so a run killed by an
    /// unlucky fault draw gets fresh weather instead of a replay of the
    /// same storm. The workload seed is never touched.
    pub reseed_faults: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_millis(800),
            jitter: 0.25,
            reseed_faults: true,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry `attempt` (1-based) of a run seeded with
    /// `seed`: exponential from [`RetryPolicy::backoff`], clamped to
    /// [`RetryPolicy::backoff_cap`], then stretched by the deterministic
    /// jitter draw. Pure — same inputs, same delay.
    pub fn backoff_delay(&self, attempt: u32, seed: u64) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        let exp = self.backoff.saturating_mul(1u32 << shift);
        let capped = exp.min(self.backoff_cap);
        let mix = (seed ^ RETRY_JITTER_SALT)
            .wrapping_add((attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let frac = SimRng::seed_from_u64(mix).unit_f64();
        capped.mul_f64(1.0 + self.jitter.clamp(0.0, 1.0) * frac)
    }
}

/// Run one test under supervision: panics inside the run are caught and
/// surfaced as [`Error::Internal`], and failures classified as
/// infrastructure faults ([`Error::is_infra_fault`] — watchdog kills, I/O)
/// are retried with exponential backoff up to the policy's attempt budget.
/// Config, translation and engine errors fail fast: retrying a bug is
/// just the same bug, slower.
pub fn run_supervised(cfg: &TestConfig, policy: &RetryPolicy) -> Result<TestResults, Error> {
    let mut cfg = cfg.clone();
    let base_fault_seed = cfg
        .faults
        .as_ref()
        .and_then(|f| f.seed)
        .unwrap_or(cfg.network.seed);
    let attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    let mut ops = lumina_sim::telemetry::ops::OpsReporter::new(std::io::stderr(), Duration::ZERO);
    for attempt in 0..attempts {
        if attempt > 0 {
            let delay = policy.backoff_delay(attempt, cfg.network.seed);
            ops.note(&format!(
                "supervisor: retry {attempt}/{} after infra fault ({}); backing off {:.0}ms",
                attempts - 1,
                last_err
                    .as_ref()
                    .map_or_else(|| "unknown".to_string(), |e: &Error| e.to_string()),
                delay.as_secs_f64() * 1_000.0,
            ));
            std::thread::sleep(delay);
            if policy.reseed_faults {
                if let Some(f) = cfg.faults.as_mut() {
                    f.seed = Some(base_fault_seed.wrapping_add(attempt as u64));
                }
            }
        }
        match run_caught(&cfg) {
            Ok(results) => return Ok(results),
            Err(EvalFailure::Error(e)) if e.is_infra_fault() && attempt + 1 < attempts => {
                last_err = Some(e)
            }
            Err(EvalFailure::Error(e)) => return Err(e),
            Err(EvalFailure::Panic(msg)) => {
                return Err(Error::internal(format!("run panicked: {msg}")))
            }
        }
    }
    Err(last_err.unwrap_or_else(|| Error::internal("supervised run loop made no attempts")))
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
            let n = cfg.network.num_dumpers.max(1);
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
