//! Per-layer replays: each crate's public API driven in isolation.
//!
//! `run_test` is opaque from outside, so the traced run cannot put a span
//! around the engine, an RNIC or the switch *inside* a run. Instead every
//! layer is replayed on its own, on input derived from the workload's
//! primary config, and the replays chain: the frames two back-to-back
//! RNICs emit feed the switch, the switch's mirror copies feed the
//! dumpers, their captures feed reconstruction, the reconstructed trace
//! is written as pcap, and the pcap feeds the ingest stages.
//!
//! README.md lists every public item called here: that list is the API
//! surface a refactor must keep, or re-issue the benchmark for.

use crate::stats::ns_since;
use lumina_core::analyzers::conformance::ConformanceStream;
use lumina_core::config::TestConfig;
use lumina_core::fuzz::mutate::{EventMutator, Mutator};
use lumina_core::orchestrator::run_test;
use lumina_core::translate::{translate, ConnMeta};
use lumina_core::{integrity, ConformanceOpts};
use lumina_dumper::node::{capture_handle, DumperConfig, DumperNode};
use lumina_dumper::{
    reconstruct, recover_frame, CapturedPacket, RecoveryStats, StreamOpts, StreamingReconstructor,
    Trace,
};
use lumina_packet::builder::{cnp_frame, nack_frame, DataPacketBuilder};
use lumina_packet::frame::{icrc_check, RoceFrame};
use lumina_packet::opcode::Opcode;
use lumina_packet::{Frame, MacAddr};
use lumina_rnic::ets::EtsConfig;
use lumina_rnic::qp::{QpConfig, QpEndpoint};
use lumina_rnic::{Action, Rnic, Verb, WorkRequest};
use lumina_sim::pcap::PcapReader;
use lumina_sim::testutil::{recording, Collector, Recording};
use lumina_sim::wheel::{Entry, TimerWheel};
use lumina_sim::{Bandwidth, Engine, Node, NodeCtx, PortId, SimRng, SimTime, Telemetry};
use lumina_switch::device::{SwitchConfig, SwitchCounters, SwitchNode};
use lumina_telemetry::tev;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

const REQ_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RSP_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// Dumper hosts in the replay rig — the orchestrator's default pool size.
const DUMPERS: usize = 3;

/// Cost of one `Instant::now()`; subtracted where a replay has to time
/// individual calls.
fn clock_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    ns_since(t) / f64::from(N)
}

// ------------------------------------------------------------------ sim

/// Steady-state timer wheel: 1024 pending entries, each popped entry is
/// re-filed `horizon_ns` ahead. Returns ns per pop+push pair.
fn wheel_push_pop_ns(horizon_ns: u64, pairs: u64) -> f64 {
    const PENDING: u64 = 1024;
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut seq = 0u64;
    for i in 0..PENDING {
        wheel.push(Entry {
            time: i * (horizon_ns / PENDING).max(1),
            seq,
            value: i,
        });
        seq += 1;
    }
    let t = Instant::now();
    for _ in 0..pairs {
        let e = wheel.pop().expect("wheel never drains");
        wheel.push(Entry {
            time: e.time + horizon_ns,
            seq,
            value: e.value,
        });
        seq += 1;
    }
    black_box(wheel.len());
    ns_since(t) / pairs as f64
}

/// Re-arms its timer until the budget is spent: pure dispatch + wheel.
struct TimerEcho {
    period: SimTime,
    remaining: u64,
}

impl Node for TimerEcho {
    fn on_frame(&mut self, _port: PortId, _frame: Frame, _ctx: &mut NodeCtx<'_>) {}
    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.set_timer(self.period, token);
        }
    }
}

/// Bounces every frame back out of the port it came in on, touching the
/// telemetry gate once per frame as every real node does.
struct FrameEcho {
    remaining: u64,
}

impl Node for FrameEcho {
    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut NodeCtx<'_>) {
        ctx.telemetry().record_hop(
            frame.trace_id(),
            lumina_telemetry::trace::hops::SWITCH_FORWARD,
            ctx.telemetry_node(),
            ctx.now().as_nanos(),
        );
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(port, frame);
        }
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut NodeCtx<'_>) {}
}

/// The bare engine under harness-defined echo nodes: `(ns per timer
/// event, ns per delivered frame)`. 256 concurrent 55 µs timers (the
/// DCQCN alpha period of a 256-QP run); 64 frames of `frame_len` bytes
/// in flight between two nodes.
fn bare_engine(telemetry_on: bool, timers: u64, frames: u64, frame_len: usize) -> (f64, f64) {
    let telemetry = || {
        if telemetry_on {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    };

    let mut eng = Engine::new(1);
    eng.set_telemetry(telemetry());
    let node = eng.add_node(Box::new(TimerEcho {
        period: SimTime::from_micros(55),
        remaining: timers,
    }));
    for token in 0..256u64 {
        eng.schedule_timer(node, SimTime::from_nanos(1 + token * 200), token);
    }
    let t = Instant::now();
    eng.run(None);
    let ns_per_timer = ns_since(t) / eng.stats().timers_fired.max(1) as f64;

    let mut eng = Engine::new(1);
    eng.set_telemetry(telemetry());
    let a = eng.add_node(Box::new(FrameEcho {
        remaining: frames / 2,
    }));
    let b = eng.add_node(Box::new(FrameEcho {
        remaining: frames / 2,
    }));
    eng.connect(
        a,
        PortId(0),
        b,
        PortId(0),
        Bandwidth::gbps(100),
        SimTime::from_nanos(500),
    );
    let frame = Frame::from_vec(vec![0u8; frame_len]);
    for i in 0..64u64 {
        eng.inject_frame(
            a,
            PortId(0),
            SimTime::from_nanos(1 + i * 100),
            frame.clone(),
        );
    }
    let t = Instant::now();
    eng.run(None);
    let ns_per_frame = ns_since(t) / eng.stats().frames_delivered.max(1) as f64;
    (ns_per_timer, ns_per_frame)
}

// ------------------------------------------------------------ telemetry

/// `[ns per journaled event, ns per counter bump]` on an enabled sink.
fn telemetry_micro(n: u64) -> [f64; 2] {
    let tel = Telemetry::enabled();
    let t = Instant::now();
    for i in 0..n {
        tev!(tel, i, 2, "bench", "mirror.emit", seq = i, port = 3u32);
    }
    let emit = ns_since(t) / n as f64;
    let t = Instant::now();
    for _ in 0..n {
        tel.inc_counter(2, "bench_counter", 1);
    }
    let inc = ns_since(t) / n as f64;
    black_box(tel.journal_len());
    [emit, inc]
}

// --------------------------------------------------------------- packet

/// `[parse, emit, icrc]` ns per call: on a WRITE-middle data packet with
/// `payload` payload bytes, or — for `payload == 0` — on a NACK, the
/// payload-free control packet.
fn packet_micro(payload: usize, n: u32) -> [f64; 3] {
    let parsed = if payload == 0 {
        nack_frame(RSP_IP, REQ_IP, 0x1234, 77, 3)
    } else {
        DataPacketBuilder::new()
            .src_ip(REQ_IP)
            .dst_ip(RSP_IP)
            .opcode(Opcode::RdmaWriteMiddle)
            .dest_qp(0x1234)
            .psn(77)
            .payload_len(payload)
            .build()
    };
    let wire = parsed.emit();
    assert!(icrc_check(&wire), "builder output carries a valid ICRC");

    let t = Instant::now();
    for _ in 0..n {
        black_box(RoceFrame::parse(black_box(&wire)).expect("parses"));
    }
    let parse = ns_since(t) / f64::from(n);
    let t = Instant::now();
    for _ in 0..n {
        black_box(black_box(&parsed).emit());
    }
    let emit = ns_since(t) / f64::from(n);
    let t = Instant::now();
    for _ in 0..n {
        black_box(icrc_check(black_box(&wire)));
    }
    let icrc = ns_since(t) / f64::from(n);
    [parse, emit, icrc]
}

// ----------------------------------------------------------------- rnic

/// A frame one of the looped-back RNICs put on the wire.
#[derive(Clone)]
struct WireFrame {
    at: SimTime,
    from_requester: bool,
    frame: Frame,
}

enum Ev {
    Frame { to_b: bool, frame: Frame },
    Timer { on_b: bool, token: u64 },
}

/// Two `Rnic`s joined by an ideal wire, pumped from one heap — the rig of
/// `crates/rnic/tests/loopback.rs` without the fault injector.
struct Pump {
    a: Rnic,
    b: Rnic,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    events: Vec<Option<Ev>>,
    seq: u64,
    now: SimTime,
    one_way: SimTime,
    wire: Vec<WireFrame>,
    completed: u64,
}

impl Pump {
    fn push(&mut self, at: SimTime, ev: Ev) {
        let idx = self.events.len();
        self.events.push(Some(ev));
        self.heap.push(Reverse((at.as_nanos(), self.seq, idx)));
        self.seq += 1;
    }

    fn apply(&mut self, from_a: bool, actions: Vec<Action>) {
        for act in actions {
            match act {
                Action::Emit(frame) => {
                    self.wire.push(WireFrame {
                        at: self.now,
                        from_requester: from_a,
                        frame: frame.clone(),
                    });
                    self.push(
                        self.now + self.one_way,
                        Ev::Frame {
                            to_b: from_a,
                            frame,
                        },
                    );
                }
                Action::ArmTimer { at, token } => self.push(
                    at,
                    Ev::Timer {
                        on_b: !from_a,
                        token,
                    },
                ),
                Action::Complete(c) => {
                    if from_a && !c.is_recv {
                        self.completed += 1;
                    }
                }
            }
        }
    }

    fn run(&mut self, horizon: SimTime) {
        while let Some(&Reverse((t, _, idx))) = self.heap.peek() {
            if t > horizon.as_nanos() {
                break;
            }
            self.heap.pop();
            self.now = SimTime::from_nanos(t);
            let now = self.now;
            match self.events[idx].take().expect("each event fires once") {
                Ev::Frame { to_b: true, frame } => {
                    let acts = self.b.on_frame(frame, now);
                    self.apply(false, acts);
                }
                Ev::Frame { to_b: false, frame } => {
                    let acts = self.a.on_frame(frame, now);
                    self.apply(true, acts);
                }
                Ev::Timer { on_b: true, token } => {
                    let acts = self.b.on_timer(token, now);
                    self.apply(false, acts);
                }
                Ev::Timer { on_b: false, token } => {
                    let acts = self.a.on_timer(token, now);
                    self.apply(true, acts);
                }
            }
        }
    }
}

/// Connection `i` (1-based) of the replay rig.
fn conn(i: u32, verb: Verb) -> ConnMeta {
    ConnMeta {
        index: i,
        requester: QpEndpoint {
            ip: REQ_IP,
            qpn: 0x1000 + i,
            ipsn: 1000 + i * 8192,
        },
        responder: QpEndpoint {
            ip: RSP_IP,
            qpn: 0x2000 + i,
            ipsn: 5000 + i * 8192,
        },
        verb,
    }
}

fn qp_config(
    cfg: &TestConfig,
    c: &ConnMeta,
    requester_side: bool,
    dcqcn: Option<bool>,
) -> QpConfig {
    let (local, remote, host) = if requester_side {
        (c.requester, c.responder, &cfg.requester)
    } else {
        (c.responder, c.requester, &cfg.responder)
    };
    QpConfig {
        local,
        remote,
        remote_mac: MacAddr::local(100),
        mtu: cfg.traffic.mtu,
        timeout_code: cfg.traffic.min_retransmit_timeout,
        retry_cnt: cfg.traffic.max_retransmit_retry,
        adaptive_retrans: host.adaptive_retrans,
        traffic_class: 0,
        dcqcn_rp: dcqcn.unwrap_or(host.dcqcn_rp_enable),
        dcqcn_np: dcqcn.unwrap_or(host.dcqcn_np_enable),
        min_time_between_cnps: SimTime::from_micros(host.min_time_between_cnps_us),
        udp_src_port: 49152 + c.index as u16,
    }
}

fn build_rnic(cfg: &TestConfig, responder_side: bool, node: u32) -> Result<Rnic, String> {
    let profile = cfg
        .resolved_device(responder_side)
        .ok_or("primary config names an unknown NIC")?;
    let mac = MacAddr::local(if responder_side { 2 } else { 1 });
    Ok(Rnic::builder(profile, EtsConfig::single_queue(), mac)
        .telemetry(Telemetry::enabled(), node)
        .build())
}

struct Loopback {
    ns_per_pkt: f64,
    wire: Vec<WireFrame>,
    conns: Vec<ConnMeta>,
}

/// Pump the primary config's traffic shape (its connections, message
/// size, MTU, NIC profiles and DCQCN flags; `verb` as given) through two
/// RNICs back to back, scaled down to about `target_pkts` data packets.
fn rnic_loopback(cfg: &TestConfig, verb: Verb, target_pkts: u64) -> Result<Loopback, String> {
    let qps = cfg.traffic.num_connections.min(256);
    let per_msg = u64::from(cfg.traffic.pkts_per_msg());
    let msgs =
        (target_pkts / (u64::from(qps) * per_msg)).clamp(1, u64::from(cfg.traffic.num_msgs_per_qp));
    let conns: Vec<ConnMeta> = (1..=qps).map(|i| conn(i, verb)).collect();

    let mut pump = Pump {
        a: build_rnic(cfg, false, 0)?,
        b: build_rnic(cfg, true, 1)?,
        heap: BinaryHeap::new(),
        events: Vec::new(),
        seq: 0,
        now: SimTime::ZERO,
        one_way: SimTime::from_micros(1),
        wire: Vec::new(),
        completed: 0,
    };
    for c in &conns {
        pump.a.create_qp(qp_config(cfg, c, true, None));
        pump.b.create_qp(qp_config(cfg, c, false, None));
    }

    let t = Instant::now();
    for c in &conns {
        for k in 0..msgs {
            let wr = WorkRequest {
                wr_id: k,
                verb,
                len: cfg.traffic.message_size,
            };
            let acts = pump.a.post_send(c.requester.qpn, wr, SimTime::ZERO);
            pump.apply(true, acts);
        }
    }
    pump.run(SimTime::from_secs(10));
    let wall = ns_since(t);

    let planned = u64::from(qps) * msgs;
    if pump.completed != planned {
        return Err(format!(
            "rnic loopback ({verb:?}) completed {} of {planned} messages",
            pump.completed
        ));
    }
    let data_pkts = planned * per_msg;
    Ok(Loopback {
        ns_per_pkt: wall / data_pkts as f64,
        wire: pump.wire,
        conns,
    })
}

/// `Rnic::on_timer` on DCQCN timers alone: one CNP per reaction-point QP
/// arms its alpha and rate-increase timers, which are then pumped (timers
/// only — nothing is on the wire) until every QP is back at line rate.
/// Each call is timed on its own; `clock_ns` is the per-call clock cost.
fn rnic_on_timer_ns(cfg: &TestConfig, clock_ns: f64) -> Result<f64, String> {
    let qps = cfg.traffic.num_connections.min(256);
    let mut rnic = build_rnic(cfg, false, 0)?;
    let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut arm = |heap: &mut BinaryHeap<Reverse<(u64, u64, u64)>>, acts: Vec<Action>| {
        for act in acts {
            if let Action::ArmTimer { at, token } = act {
                heap.push(Reverse((at.as_nanos(), seq, token)));
                seq += 1;
            }
        }
    };
    for i in 1..=qps {
        let c = conn(i, Verb::Write);
        rnic.create_qp(qp_config(cfg, &c, true, Some(true)));
        let cnp = cnp_frame(RSP_IP, REQ_IP, c.requester.qpn).emit();
        let acts = rnic.on_frame(cnp, SimTime::from_nanos(u64::from(i) * 100));
        arm(&mut heap, acts);
    }
    let (mut calls, mut busy_ns) = (0u64, 0f64);
    while let Some(Reverse((at, _, token))) = heap.pop() {
        let t = Instant::now();
        let acts = rnic.on_timer(token, SimTime::from_nanos(at));
        busy_ns += ns_since(t);
        calls += 1;
        arm(&mut heap, acts);
        if calls >= 2_000_000 {
            break;
        }
    }
    if calls == 0 {
        return Err("no DCQCN timer was armed by a CNP".into());
    }
    Ok((busy_ns / calls as f64 - clock_ns).max(0.0))
}

// --------------------------------------------------------------- switch

struct SwitchRun {
    ns_per_frame: f64,
    counters: SwitchCounters,
    /// What each dumper port received: `(arrival, port, frame)`.
    mirrors: Vec<Recording>,
}

/// `SwitchNode` alone in an engine: mirroring on, the primary config's
/// injection table loaded, plain collectors on every egress. Frames are
/// injected at the switch's ingress ports at their wire times, so one
/// input frame costs one switch dispatch plus the two deliveries
/// (forwarded copy, mirror copy) it causes.
fn switch_pipeline(
    cfg: &TestConfig,
    conns: &[ConnMeta],
    wire: &[WireFrame],
) -> Result<SwitchRun, String> {
    let mut forward = HashMap::new();
    forward.insert(REQ_IP, PortId(0));
    forward.insert(RSP_IP, PortId(1));
    let dumper_ports: Vec<(PortId, u32)> = (0..DUMPERS).map(|i| (PortId(2 + i), 1)).collect();
    let mut sw = SwitchNode::new(SwitchConfig::lumina(forward, dumper_ports));
    // Events naming a connection beyond the replay rig cannot be keyed.
    let mut keyed = cfg.clone();
    keyed
        .traffic
        .data_pkt_events
        .retain(|e| e.qpn as usize <= conns.len());
    for (key, action) in translate(&keyed, conns).map_err(|e| e.to_string())? {
        sw.table.insert(key, action);
    }

    let mut eng = Engine::new(cfg.network.seed);
    eng.set_telemetry(Telemetry::enabled());
    let sw_id = eng.add_node(Box::new(sw));
    let bw = Bandwidth::gbps(100);
    let prop = SimTime::from_nanos(cfg.network.propagation_delay_ns);
    let mut sinks = Vec::new();
    for port in 0..2 + DUMPERS {
        let rec = recording();
        let id = eng.add_node(Box::new(Collector::new(rec.clone())));
        eng.connect(sw_id, PortId(port), id, PortId(0), bw, prop);
        sinks.push(rec);
    }

    let t = Instant::now();
    for w in wire {
        let port = if w.from_requester {
            PortId(0)
        } else {
            PortId(1)
        };
        eng.inject_frame(sw_id, port, w.at, w.frame.clone());
    }
    eng.run(None);
    let wall = ns_since(t);

    let any: Box<dyn std::any::Any> = eng.remove_node(sw_id);
    let sw = any
        .downcast::<SwitchNode>()
        .map_err(|_| "switch node recovered with unexpected type")?;
    Ok(SwitchRun {
        ns_per_frame: wall / wire.len().max(1) as f64,
        counters: sw.counters.clone(),
        mirrors: sinks.split_off(2),
    })
}

// --------------------------------------------------------------- dumper

struct DumperRun {
    ns_per_capture: f64,
    captures: Vec<Vec<CapturedPacket>>,
}

/// `DumperNode`s alone in an engine, fed the switch replay's mirror
/// copies at their arrival times (default pool: 8 cores, 2.5 Mpps each).
fn dumper_nodes(mirrors: &[Recording]) -> DumperRun {
    let mut eng = Engine::new(1);
    eng.set_telemetry(Telemetry::enabled());
    let mut handles = Vec::new();
    let mut total = 0usize;
    let t = Instant::now();
    for rec in mirrors {
        let handle = capture_handle();
        let id = eng.add_node(Box::new(DumperNode::new(
            DumperConfig::default(),
            handle.clone(),
        )));
        for (at, _, frame) in rec.borrow().iter() {
            eng.inject_frame(id, PortId(0), *at, frame.clone());
            total += 1;
        }
        handles.push(handle);
    }
    eng.run(None);
    let wall = ns_since(t);
    DumperRun {
        ns_per_capture: wall / total.max(1) as f64,
        captures: handles.iter().map(|h| h.borrow().packets.clone()).collect(),
    }
}

/// Reconstruction, the integrity check and the pcap writer on the dumper
/// replay's captures: `[reconstruct ns per packet, integrity check µs,
/// write_pcap µs]` and the capture file.
fn offline(
    captures: &[Vec<CapturedPacket>],
    switch: &SwitchCounters,
) -> Result<([f64; 3], Vec<u8>), String> {
    let t = Instant::now();
    let trace = reconstruct(captures).map_err(|e| format!("reconstruct: {e}"))?;
    let reconstruct_ns = ns_since(t);

    let t = Instant::now();
    let (_, report) = integrity::check(captures, switch);
    let integrity_check_us = ns_since(t) / 1e3;
    if !report.passed() {
        return Err(format!(
            "replay integrity check failed: {:?}",
            report.details
        ));
    }

    let t = Instant::now();
    let mut pcap = Vec::new();
    trace
        .write_pcap(&mut pcap)
        .map_err(|e| format!("write_pcap: {e}"))?;
    let write_pcap_us = ns_since(t) / 1e3;
    Ok((
        [
            reconstruct_ns / trace.len().max(1) as f64,
            integrity_check_us,
            write_pcap_us,
        ],
        pcap,
    ))
}

/// The four stages of `lumina-cli ingest`, one at a time, each over the
/// whole capture: `PcapReader` → `recover_frame` →
/// `StreamingReconstructor` → discovery-mode `ConformanceStream`.
/// `[read ns per MB, recover, stream, discovery ns per packet]`.
fn ingest_stages(cfg: &TestConfig, pcap: &[u8]) -> Result<[f64; 4], String> {
    let t = Instant::now();
    let mut reader = PcapReader::new(pcap).map_err(|e| format!("pcap header: {e}"))?;
    let mut records = Vec::new();
    while let Some(rec) = reader.next_record() {
        records.push(rec.map_err(|e| format!("pcap record: {e}"))?);
    }
    let read_ns = ns_since(t);
    let n = records.len().max(1) as f64;

    let t = Instant::now();
    let mut stats = RecoveryStats::default();
    let packets: Vec<CapturedPacket> = records
        .iter()
        .filter_map(|r| recover_frame(&r.data, r.orig_len, r.ts, &mut stats))
        .collect();
    let recover_ns = ns_since(t);
    if packets.len() != records.len() {
        return Err(format!(
            "recover_frame kept {} of {} records",
            packets.len(),
            records.len()
        ));
    }

    let t = Instant::now();
    let mut recon = StreamingReconstructor::new(StreamOpts::default());
    let mut chunks: Vec<Trace> = packets.iter().filter_map(|p| recon.push(p)).collect();
    let (tail, summary) = recon.finish();
    chunks.extend(tail);
    let stream_ns = ns_since(t);
    if summary.entries != packets.len() as u64 {
        return Err(format!(
            "streaming reconstruction kept {} of {} packets",
            summary.entries,
            packets.len()
        ));
    }

    let opts = ConformanceOpts {
        np_enabled_requester: cfg.requester.dcqcn_np_enable,
        np_enabled_responder: cfg.responder.dcqcn_np_enable,
        mtu: cfg.traffic.mtu,
        ..ConformanceOpts::default()
    };
    let t = Instant::now();
    let mut oracle = ConformanceStream::discovering(&opts);
    for chunk in &chunks {
        oracle.observe_trace(chunk);
    }
    black_box(oracle.finish());
    let discovery_ns = ns_since(t);

    Ok([
        read_ns / (pcap.len() as f64 / 1e6),
        recover_ns / n,
        stream_ns / n,
        discovery_ns / n,
    ])
}

// ------------------------------------------------------------- all of it

/// Repetitions of each replay; the fastest is reported (`stats::fastest`
/// says why).
const REPS: usize = 3;
/// Data packets the RNIC → switch → dumper chain is scaled to.
const CHAIN_PKTS: u64 = 32_768;

/// A listing2-sized run (2 QPs × 10 × 10 KiB): what one `run_test` costs
/// when there is almost nothing to simulate — build, teardown, report.
const SMALL_RUN_YAML: &str = "\
requester: { nic-type: cx4, dcqcn-np-enable: true }
responder: { nic-type: cx4, dcqcn-np-enable: true }
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 10
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 4, type: ecn, iter: 1}
    - {qpn: 2, psn: 5, type: drop, iter: 1}
";

/// Run `f` `REPS` times and keep each cost's fastest reading.
fn fastest_each<const N: usize>(
    mut f: impl FnMut() -> Result<[f64; N], String>,
) -> Result<[f64; N], String> {
    let mut best = f()?;
    for _ in 1..REPS {
        let next = f()?;
        for (b, n) in best.iter_mut().zip(next) {
            *b = b.min(n);
        }
    }
    Ok(best)
}

/// Run `f` `REPS` times and keep the fastest run whole, because its
/// output feeds the next replay in the chain.
fn fastest_run<T>(
    mut f: impl FnMut() -> Result<T, String>,
    cost: impl Fn(&T) -> f64,
) -> Result<T, String> {
    let mut best = f()?;
    for _ in 1..REPS {
        let next = f()?;
        if cost(&next) < cost(&best) {
            best = next;
        }
    }
    Ok(best)
}

/// Unit costs of every layer, from the replays above.
pub struct Replays {
    pub wheel_55us_ns: f64,
    pub wheel_5ms_ns: f64,
    pub bare_timer_ns: f64,
    pub bare_frame_ns: f64,
    /// Bare engine with `Telemetry::enabled()` minus `disabled()`, per event.
    pub telemetry_tax_ns: f64,
    pub tel_emit_ns: f64,
    pub tel_inc_ns: f64,
    /// `[parse, emit, icrc]` on a payload-free NACK and on an MTU data packet.
    pub packet_0b_ns: [f64; 3],
    pub packet_mtu_ns: [f64; 3],
    pub loopback_write_ns: f64,
    pub loopback_read_ns: f64,
    pub on_timer_ns: f64,
    pub switch_ns: f64,
    pub dumper_ns: f64,
    pub reconstruct_ns: f64,
    pub integrity_check_us: f64,
    pub write_pcap_us: f64,
    pub pcap_read_mb_per_sec: f64,
    pub recover_ns: f64,
    pub stream_ns: f64,
    pub discovery_ns: f64,
    pub small_run_ms: f64,
    pub config_clone_us: f64,
    pub fuzz_mutate_us: f64,
}

/// Replay every layer on input sized from `cfg`, the workload's primary
/// config.
pub fn replay_all(cfg: &TestConfig, seed: u64) -> Result<Replays, String> {
    let mtu = cfg.traffic.mtu as usize;
    let [wheel_55us_ns, wheel_5ms_ns] = fastest_each(|| {
        Ok([
            wheel_push_pop_ns(55_000, 1_000_000),
            wheel_push_pop_ns(5_000_000, 1_000_000),
        ])
    })?;
    let [bare_timer_ns, bare_frame_ns, timer_on, frame_on] = fastest_each(|| {
        // 58 bytes of Ethernet + IPv4 + UDP + BTH + ICRC around the payload.
        let (t_off, f_off) = bare_engine(false, 400_000, 200_000, mtu + 58);
        let (t_on, f_on) = bare_engine(true, 400_000, 200_000, mtu + 58);
        Ok([t_off, f_off, t_on, f_on])
    })?;
    let [tel_emit_ns, tel_inc_ns] = fastest_each(|| Ok(telemetry_micro(200_000)))?;
    let packet_0b_ns = fastest_each(|| Ok(packet_micro(0, 200_000)))?;
    let packet_mtu_ns = fastest_each(|| Ok(packet_micro(mtu, 200_000)))?;

    let write = fastest_run(
        || rnic_loopback(cfg, Verb::Write, CHAIN_PKTS),
        |l| l.ns_per_pkt,
    )?;
    let read = fastest_run(
        || rnic_loopback(cfg, Verb::Read, CHAIN_PKTS),
        |l| l.ns_per_pkt,
    )?;
    let clock = clock_ns();
    let [on_timer_ns] = fastest_each(|| Ok([rnic_on_timer_ns(cfg, clock)?]))?;
    let switch = fastest_run(
        || switch_pipeline(cfg, &write.conns, &write.wire),
        |s| s.ns_per_frame,
    )?;
    let dumper = fastest_run(|| Ok(dumper_nodes(&switch.mirrors)), |d| d.ns_per_capture)?;
    let mut pcap = Vec::new();
    let [reconstruct_ns, integrity_check_us, write_pcap_us] = fastest_each(|| {
        let (costs, file) = offline(&dumper.captures, &switch.counters)?;
        pcap = file;
        Ok(costs)
    })?;
    let [read_ns_per_mb, recover_ns, stream_ns, discovery_ns] =
        fastest_each(|| ingest_stages(cfg, &pcap))?;

    let small = TestConfig::from_yaml(SMALL_RUN_YAML).map_err(|e| format!("small run: {e}"))?;
    let mut small_run_ms = f64::INFINITY;
    for _ in 0..3 * REPS {
        let t = Instant::now();
        black_box(run_test(&small).map_err(|e| format!("small run: {e}"))?);
        small_run_ms = small_run_ms.min(ns_since(t) / 1e6);
    }
    let [config_clone_us, fuzz_mutate_us] = fastest_each(|| {
        let t = Instant::now();
        for _ in 0..1000 {
            black_box(black_box(cfg).clone());
        }
        let clone = ns_since(t) / 1e6;
        let mut rng = SimRng::seed_from_u64(seed);
        let mut mutator = EventMutator::default();
        let t = Instant::now();
        for _ in 0..1000 {
            black_box(mutator.mutate(cfg, &mut rng));
        }
        Ok([clone, ns_since(t) / 1e6])
    })?;

    Ok(Replays {
        wheel_55us_ns,
        wheel_5ms_ns,
        bare_timer_ns,
        bare_frame_ns,
        telemetry_tax_ns: ((timer_on - bare_timer_ns) + (frame_on - bare_frame_ns)) / 2.0,
        tel_emit_ns,
        tel_inc_ns,
        packet_0b_ns,
        packet_mtu_ns,
        loopback_write_ns: write.ns_per_pkt,
        loopback_read_ns: read.ns_per_pkt,
        on_timer_ns,
        switch_ns: switch.ns_per_frame,
        dumper_ns: dumper.ns_per_capture,
        reconstruct_ns,
        integrity_check_us,
        write_pcap_us,
        pcap_read_mb_per_sec: 1e9 / read_ns_per_mb,
        recover_ns,
        stream_ns,
        discovery_ns,
        small_run_ms,
        config_clone_us,
        fuzz_mutate_us,
    })
}
