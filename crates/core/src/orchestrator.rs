//! The orchestrator (§3.1, Figure 1): build the testbed from a
//! configuration, run it, collect every result Table 1 lists, reconstruct
//! the trace and run the integrity check.

use crate::analyzers::{conformance, ConformanceOpts, ConformanceReport};
use crate::campaign::{run_caught, EvalFailure};
use crate::config::{SwitchMode, TestConfig};
use crate::error::Error;
use crate::integrity::{self, IntegrityReport};
use crate::translate::{translate, ConnMeta};
use lumina_dumper::node::{capture_handle, CaptureHandle, DumperConfig, DumperNode};
use lumina_dumper::{DumperFaults, StallWindow, Trace};
use lumina_gen::host::{HostNode, Role};
use lumina_gen::metrics::{metrics_handle, GenMetrics};
use lumina_gen::FlowPlan;
use lumina_rnic::counters::Counters;
use lumina_rnic::ets::{EtsConfig, TcConfig};
use lumina_rnic::qp::{QpConfig, QpEndpoint};
use lumina_rnic::{QuirkPlane, QuirkStats, Rnic};
use lumina_sim::{
    ChaosPlane, ChaosStats, Engine, EngineStats, FaultPlane, FaultStats, FrameStats, FreezeWindow,
    MetricSet, MirrorFaults, PortId, RunOutcome, SimRng, SimTime, Telemetry,
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
    /// counters surface through the `telemetry` CLI subcommand and the
    /// `hotpath` bench instead.
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
    /// A summary that will not serialize is an invariant violation
    /// ([`Error::Internal`], exit code 8), not a panic.
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
        let mut report = serde_json::to_value(Summary {
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
        })
        .map_err(|e| Error::internal(format!("summary failed to serialize: {e}")))?;
        // The deterministic view only: the self-profile holds wall-clock
        // numbers, which would make same-seed reports differ byte-for-byte.
        report["telemetry"] = self.telemetry.deterministic_snapshot();
        // Fault accounting appears only on fault-injected runs, keeping
        // pristine reports (and all eight goldens) byte-identical.
        if let Some(fs) = &self.fault_stats {
            let mut faults = serde_json::to_value(fs)
                .map_err(|e| Error::internal(format!("fault stats failed to serialize: {e}")))?;
            faults["captures_corrupted"] = serde_json::Value::from(self.captures_corrupted);
            faults["service_ticks_stalled"] = serde_json::Value::from(self.service_ticks_stalled);
            report["faults"] = faults;
        }
        // Likewise, misbehavior accounting and the conformance verdict
        // appear only on quirk-injected runs.
        if let Some(qs) = &self.quirk_stats {
            report["quirks"] = serde_json::to_value(qs)
                .map_err(|e| Error::internal(format!("quirk stats failed to serialize: {e}")))?;
        }
        if let Some(conf) = &self.conformance {
            report["conformance"] = serde_json::to_value(conf).map_err(|e| {
                Error::internal(format!("conformance report failed to serialize: {e}"))
            })?;
        }
        // Chaos accounting and the recovery verdict appear only on
        // chaos-injected runs, keeping chaos-free reports byte-identical.
        if let Some(cs) = &self.chaos_stats {
            report["chaos"] = serde_json::to_value(cs)
                .map_err(|e| Error::internal(format!("chaos stats failed to serialize: {e}")))?;
        }
        if let Some(rec) = &self.recovery {
            report["recovery"] = serde_json::to_value(rec).map_err(|e| {
                Error::internal(format!("recovery report failed to serialize: {e}"))
            })?;
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

/// Run one test end to end.
pub fn run_test(cfg: &TestConfig) -> Result<TestResults, Error> {
    cfg.validate()?;
    let verb = cfg.traffic.verb()?;
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

    // ---- Runtime metadata (the generators' random QPNs/PSNs, §3.2) ----
    let ets_cfg = EtsConfig {
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
    let req_mac = MacAddr::local(1);
    let rsp_mac = MacAddr::local(2);
    let switch_mac = MacAddr::local(100);
    // Hosts are the first two nodes registered below, so the devices'
    // telemetry node ids are known at construction time (asserted at
    // add_node). The DUT misbehavior plane is installed only when a
    // `quirks:` section asks for at least one quirk; it draws from its own
    // RNG stream (seeded off `quirks.seed` or the run seed, salted per
    // node), so the engine/workload schedule never shifts and quirk-free
    // runs stay byte-identical to every pre-quirk release.
    let active_quirks = cfg.quirks.as_ref().filter(|q| !q.is_noop());
    let quirk_plane = |salt: u64| {
        active_quirks.map(|q| {
            let quirk_seed = q.seed.unwrap_or(cfg.network.seed);
            QuirkPlane::new(q.knobs(), QuirkPlane::node_rng(quirk_seed, salt))
        })
    };
    let build_rnic = |profile: &lumina_rnic::DeviceProfile,
                      ets_cfg: EtsConfig,
                      mac: MacAddr,
                      node: u32,
                      salt: u64| {
        let mut b = Rnic::builder(profile.clone(), ets_cfg, mac).telemetry(tel.clone(), node);
        if let Some(plane) = quirk_plane(salt) {
            b = b.quirks(plane);
        }
        b.build()
    };
    let mut req_rnic = build_rnic(&req_profile, ets_cfg.clone(), req_mac, 0, 1);
    let mut rsp_rnic = build_rnic(&rsp_profile, ets_cfg, rsp_mac, 1, 2);

    let n = cfg.traffic.num_connections;
    let mut conns = Vec::with_capacity(n as usize);
    let mut req_ips = Vec::new();
    let mut rsp_ips = Vec::new();
    for i in 1..=n {
        let (req_ip, rsp_ip) = if cfg.traffic.multi_gid {
            (
                Ipv4Addr::new(10, (i / 200) as u8, (i % 200) as u8, 1),
                Ipv4Addr::new(10, (i / 200) as u8, (i % 200) as u8, 2),
            )
        } else {
            (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        };
        req_ips.push(req_ip);
        rsp_ips.push(rsp_ip);
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

    // ---- QP creation on both RNICs ----
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
        if verbs.contains(&lumina_rnic::Verb::Send) {
            for k in 0..cfg.traffic.num_msgs_per_qp {
                rsp_rnic.post_recv(
                    c.responder.qpn,
                    (c.index as u64) << 32 | k as u64,
                    cfg.traffic.message_size,
                );
            }
        }
    }

    // ---- Hosts ----
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

    // ---- Switch ----
    let mut forward: HashMap<Ipv4Addr, PortId> = HashMap::new();
    for ip in &req_ips {
        forward.insert(*ip, PortId(0));
    }
    for ip in &rsp_ips {
        forward.insert(*ip, PortId(1));
    }
    let num_dumpers = cfg.network.num_dumpers.max(1);
    let dumper_ports: Vec<(PortId, u32)> =
        (0..num_dumpers).map(|i| (PortId(2 + i), 1u32)).collect();
    let mut sw_cfg = match cfg.network.switch_mode {
        SwitchMode::L2Forward => SwitchConfig::l2_forward(forward),
        SwitchMode::Lumina => SwitchConfig::lumina(forward, dumper_ports.clone()),
        SwitchMode::LuminaNm => {
            let mut c = SwitchConfig::lumina(forward, dumper_ports.clone());
            c.mirroring = false;
            c
        }
        SwitchMode::LuminaNe => {
            let mut c = SwitchConfig::lumina(forward, dumper_ports.clone());
            c.injection = false;
            c
        }
    };
    if cfg.network.no_dport_randomization {
        sw_cfg.randomize_dport = false;
    }
    if cfg.network.per_port_mirroring {
        sw_cfg.mirror_mode = MirrorMode::PerIngressPort;
    }
    let mirroring = sw_cfg.mirroring;
    let mut switch = SwitchNode::new(sw_cfg);
    for (key, action) in translate(cfg, &conns)? {
        switch.table.insert(key, action);
    }

    // ---- Topology ----
    let req_id = eng.add_node(Box::new(requester));
    let rsp_id = eng.add_node(Box::new(responder));
    let sw_id = eng.add_node(Box::new(switch));
    // The devices journal under the node ids injected at construction.
    debug_assert_eq!(req_id.0, 0, "requester must be node 0");
    debug_assert_eq!(rsp_id.0, 1, "responder must be node 1");
    let prop = SimTime::from_nanos(cfg.network.propagation_delay_ns);
    eng.connect(
        req_id,
        PortId(0),
        sw_id,
        PortId(0),
        req_profile.port_bandwidth,
        prop,
    );
    eng.connect(
        rsp_id,
        PortId(0),
        sw_id,
        PortId(1),
        rsp_profile.port_bandwidth,
        prop,
    );
    // An active `faults:` section turns the pristine testbed into a
    // deliberately unreliable one. The schedule draws from its own RNG
    // stream (seeded separately below), so the simulated workload is
    // byte-identical with and without this block.
    let active_faults = cfg.faults.as_ref().filter(|f| !f.is_noop());
    let fault_seed = cfg
        .faults
        .as_ref()
        .and_then(|f| f.seed)
        .unwrap_or(cfg.network.seed);
    let mut dumper_handles: Vec<CaptureHandle> = Vec::new();
    let mut dumper_ids = Vec::new();
    for i in 0..num_dumpers {
        let handle = capture_handle();
        let dumper_faults = active_faults.map(|f| DumperFaults {
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
            rng: FaultPlane::node_rng(fault_seed, 0xd0_0000 + i as u64),
        });
        let d = DumperNode::with_faults(
            DumperConfig {
                cores: cfg.network.dumper_cores,
                per_core_rate_pps: cfg.network.dumper_core_rate_pps,
                ring_capacity: cfg.network.dumper_ring_capacity,
                trim_bytes: 128,
            },
            handle.clone(),
            dumper_faults,
        );
        let d_id = eng.add_node(Box::new(d));
        eng.connect(
            sw_id,
            PortId(2 + i),
            d_id,
            PortId(0),
            lumina_sim::Bandwidth::gbps(100),
            prop,
        );
        dumper_handles.push(handle);
        dumper_ids.push(d_id);
    }
    if let Some(f) = active_faults {
        let mut plane = FaultPlane::new(
            fault_seed,
            MirrorFaults {
                loss_prob: f.mirror_loss_prob,
                dup_prob: f.mirror_dup_prob,
            },
        );
        if f.mirror_loss_prob > 0.0 || f.mirror_dup_prob > 0.0 {
            // Only the mirror paths are unreliable; the data path between
            // hosts and switch stays pristine (the paper's testbed trusts
            // its DUT links, not its capture infrastructure).
            for i in 0..num_dumpers {
                plane.mark_mirror_link(sw_id, PortId(2 + i));
            }
        }
        for fz in &f.freezes {
            let node = match fz.node.as_str() {
                "requester" => req_id,
                "responder" => rsp_id,
                "switch" => sw_id,
                "dumper" => dumper_ids[fz.index],
                // validate() rejects anything else before we get here
                other => return Err(Error::config(format!("unknown freeze node {other:?}"))),
            };
            plane.add_freeze(FreezeWindow {
                node,
                from: SimTime::from_micros(fz.at_us),
                until: SimTime::from_micros(fz.at_us + fz.duration_us),
            });
        }
        eng.set_fault_plane(plane);
    }
    // An active `chaos:` section arms the data-path chaos plane. Like the
    // fault plane it owns its RNG stream and only touches covered links,
    // so a noop/absent section draws nothing and the run stays pristine.
    let active_chaos = cfg.chaos.as_ref().filter(|c| !c.is_noop());
    if let Some(c) = active_chaos {
        let chaos_seed = c.seed.unwrap_or(cfg.network.seed);
        let mut plane = ChaosPlane::new(chaos_seed);
        for l in &c.links {
            // A "link" covers both directions: the host's egress and the
            // switch's egress back toward that host.
            let (host_id, sw_port) = match l.link.as_str() {
                "requester" => (req_id, PortId(0)),
                "responder" => (rsp_id, PortId(1)),
                // validate() rejects anything else before we get here
                other => return Err(Error::config(format!("unknown chaos link {other:?}"))),
            };
            let schedule = l.to_chaos();
            plane.set_link(host_id, PortId(0), schedule.clone());
            plane.set_link(sw_id, sw_port, schedule);
        }
        eng.set_chaos_plane(plane);
    }

    // ---- Run (supervised by the watchdog limits, if configured) ----
    if let Some(max_events) = cfg.network.max_events {
        eng.event_limit = max_events;
    }
    if let Some(max_wall_ms) = cfg.network.max_wall_ms {
        eng.wall_clock_limit = Some(Duration::from_millis(max_wall_ms));
    }
    eng.schedule_timer(req_id, SimTime::from_micros(1), HostNode::start_token());
    let outcome = eng.run(Some(SimTime::from_millis(cfg.network.horizon_ms)));
    match outcome {
        RunOutcome::EventLimit { end } => {
            return Err(Error::Watchdog(format!(
                "event budget of {} exhausted at t={} ns",
                eng.event_limit,
                end.as_nanos()
            )));
        }
        RunOutcome::WallClockExceeded { end } => {
            return Err(Error::Watchdog(format!(
                "wall-clock limit of {} ms exceeded at t={} ns",
                cfg.network.max_wall_ms.unwrap_or(0),
                end.as_nanos()
            )));
        }
        RunOutcome::Quiescent { .. } | RunOutcome::HorizonReached { .. } => {}
    }
    let end_time = outcome.end_time();
    let engine_stats = *eng.stats();
    // Snapshot the frame-plane counters before teardown frees the buffers.
    let frame_stats = eng.frame_stats();
    let fault_stats = eng.fault_stats();
    let chaos_stats = eng.chaos_stats();

    // ---- Collect (Table 1) ----
    let req_any: Box<dyn std::any::Any> = eng.remove_node(req_id);
    let req_host = req_any
        .downcast::<HostNode>()
        .map_err(|_| Error::internal("requester node recovered with unexpected type"))?;
    let rsp_any: Box<dyn std::any::Any> = eng.remove_node(rsp_id);
    let rsp_host = rsp_any
        .downcast::<HostNode>()
        .map_err(|_| Error::internal("responder node recovered with unexpected type"))?;
    let sw_any: Box<dyn std::any::Any> = eng.remove_node(sw_id);
    let sw = sw_any
        .downcast::<SwitchNode>()
        .map_err(|_| Error::internal("switch node recovered with unexpected type"))?;

    let captures: Vec<Vec<lumina_dumper::CapturedPacket>> = dumper_handles
        .iter()
        .map(|h| h.borrow().packets.clone())
        .collect();
    let dumper_discards: u64 = dumper_handles.iter().map(|h| h.borrow().rx_discards).sum();

    let (trace, integrity) = if mirroring {
        integrity::check(&captures, &sw.counters)
    } else {
        (None, IntegrityReport::default())
    };

    // Harvest misbehavior-plane accounting from both devices; `Some` only
    // on quirk-injected runs, keeping pristine reports byte-identical.
    let quirk_stats: Option<QuirkStats> =
        match (req_host.rnic.quirk_stats(), rsp_host.rnic.quirk_stats()) {
            (None, None) => None,
            (req_qs, rsp_qs) => {
                let mut merged = QuirkStats::default();
                if let Some(qs) = req_qs {
                    tel.record_metric_set(req_id.0 as u32, qs);
                    merged.merge(qs);
                }
                if let Some(qs) = rsp_qs {
                    tel.record_metric_set(rsp_id.0 as u32, qs);
                    merged.merge(qs);
                }
                Some(merged)
            }
        };

    // Harvest end-of-run QP state for the recovery oracle; chaos-injected
    // runs only (pristine runs skip the walk entirely).
    let qp_end_states: Vec<crate::analyzers::QpEndState> = if active_chaos.is_some() {
        let mut states = Vec::new();
        for (rnic, requester) in [(&req_host.rnic, true), (&rsp_host.rnic, false)] {
            for qpn in rnic.qpns() {
                if let Some(qp) = rnic.qp(qpn) {
                    states.push(crate::analyzers::QpEndState {
                        qpn,
                        requester,
                        errored: qp.state == lumina_rnic::qp::QpState::Error,
                        unacked: qp.has_unacked(),
                        timer_armed: qp.timeout_armed,
                    });
                }
            }
        }
        states
    } else {
        Vec::new()
    };

    let req_counters = req_host.rnic.counters.clone();
    let rsp_counters = rsp_host.rnic.counters.clone();
    let requester_metrics = req_metrics.borrow().clone();
    let responder_metrics = rsp_metrics.borrow().clone();

    // Fold every component's counter struct into the registry through the
    // one shared MetricSet path, keyed by simulation node id.
    tel.record_metric_set(req_id.0 as u32, &req_counters);
    tel.record_metric_set(req_id.0 as u32, &requester_metrics);
    tel.record_metric_set(rsp_id.0 as u32, &rsp_counters);
    tel.record_metric_set(rsp_id.0 as u32, &responder_metrics);
    tel.record_metric_set(sw_id.0 as u32, &sw.counters);
    for (i, h) in dumper_handles.iter().enumerate() {
        tel.record_metric_set(3 + i as u32, &*h.borrow());
    }
    if let Some(fs) = &fault_stats {
        tel.record_metric_set(sw_id.0 as u32, fs);
    }
    if let Some(cs) = &chaos_stats {
        tel.record_metric_set(sw_id.0 as u32, cs);
    }
    if tel.is_tracing() {
        // Fold the dissection into the registry under the switch (the
        // testbed's vantage point) so `telemetry` surfaces it too.
        let summary = tel.with_recorder(lumina_sim::telemetry::TraceSummary::from_recorder);
        tel.record_metric_set(sw_id.0 as u32, &summary);
    }
    let captures_corrupted: u64 = dumper_handles
        .iter()
        .map(|h| h.borrow().captures_corrupted)
        .sum();
    let service_ticks_stalled: u64 = dumper_handles
        .iter()
        .map(|h| h.borrow().service_ticks_stalled)
        .sum();
    let mut results = TestResults {
        cfg: cfg.clone(),
        conns,
        trace,
        integrity,
        requester_vendor_counters: req_counters.vendor_view(req_profile.vendor),
        responder_vendor_counters: rsp_counters.vendor_view(rsp_profile.vendor),
        requester_counters: req_counters,
        responder_counters: rsp_counters,
        requester_metrics,
        responder_metrics,
        events_fired: sw.table.fired().len(),
        events_unfired: sw.table.unfired().len(),
        switch_counters: sw.counters.clone(),
        dumper_discards,
        end_time,
        outcome,
        engine_stats,
        frame_stats,
        telemetry: tel,
        fault_stats,
        captures_corrupted,
        service_ticks_stalled,
        quirk_stats,
        conformance: None,
        chaos_stats,
        recovery: None,
    };
    // Quirk-injected runs get the conformance verdict inline: the whole
    // point of injecting misbehavior is to see the oracle call it.
    if results.quirk_stats.is_some() {
        results.conformance = results.conformance_verdict();
    }
    // Chaos-injected runs get the recovery verdict inline: the whole
    // point of injecting chaos is proving the stack recovers.
    if let Some(chaos) = active_chaos {
        let planned = cfg.traffic.num_msgs_per_qp as u64;
        let flows: Vec<crate::analyzers::FlowAccount> = results
            .conns
            .iter()
            .map(|conn| {
                let m = results.requester_metrics.flows.get(&conn.requester.qpn);
                crate::analyzers::FlowAccount {
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
        let opts = crate::analyzers::RecoveryOpts {
            windows: chaos.windows(),
            destroyed,
            amplification_limit: chaos.amplification_limit,
        };
        let report = crate::analyzers::recovery::analyze(
            results.trace.as_ref(),
            &flows,
            &qp_end_states,
            &opts,
        );
        results.telemetry.record_metric_set(sw_id.0 as u32, &report);
        results.recovery = Some(report);
    }
    Ok(results)
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
