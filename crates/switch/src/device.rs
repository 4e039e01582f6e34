//! The switch node: classification, ITER tracking, event injection,
//! mirroring and forwarding — Figure 6's pipeline on the simulated wire.

use crate::events::{EventAction, EventType};
use crate::iter::{ConnKey, IterTracker};
use crate::mirror;
use crate::table::{InjectionKey, InjectionTable};
use crate::wrr::WeightedRoundRobin;
use lumina_packet::frame::{RoceFrame, ICRC_LEN};
use lumina_packet::icrc::icrc_over_masked;
use lumina_sim::{Frame, Node, NodeCtx, PortId, SimTime};
use lumina_telemetry::trace::hops as trace_hops;
use lumina_telemetry::{tev, MetricSet};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// How mirror copies are spread over the dumper pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MirrorMode {
    /// Weighted round-robin across all dumpers (the paper's final design:
    /// per-packet load balancing, §3.4).
    Pool,
    /// The initial design the paper discarded: each ingress port's traffic
    /// goes to one fixed dumper (`ingress port index mod pool size`).
    PerIngressPort,
}

/// Static switch configuration.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// L3 forwarding: destination IP → egress port.
    pub forward: HashMap<Ipv4Addr, PortId>,
    /// Dumper pool: (port, weight).
    pub dumper_ports: Vec<(PortId, u32)>,
    /// Load-balancing mode for mirror copies.
    pub mirror_mode: MirrorMode,
    /// Randomize the UDP destination port of mirror copies so dumper RSS
    /// spreads across cores (§3.4).
    pub randomize_dport: bool,
    /// Master switch for mirroring (off = the paper's "Lumina-nm").
    pub mirroring: bool,
    /// Master switch for event injection (off = the paper's "Lumina-ne").
    pub injection: bool,
    /// Fixed processing latency of the pipeline (< 0.4 µs measured on the
    /// Tofino prototype, §5).
    pub pipeline_latency: SimTime,
}

impl SwitchConfig {
    /// A plain L2/L3 forwarder — the paper's baseline in Figure 7.
    pub fn l2_forward(forward: HashMap<Ipv4Addr, PortId>) -> SwitchConfig {
        SwitchConfig {
            forward,
            dumper_ports: Vec::new(),
            mirror_mode: MirrorMode::Pool,
            randomize_dport: false,
            mirroring: false,
            injection: false,
            pipeline_latency: SimTime::from_nanos(300),
        }
    }

    /// Full Lumina configuration.
    pub fn lumina(
        forward: HashMap<Ipv4Addr, PortId>,
        dumper_ports: Vec<(PortId, u32)>,
    ) -> SwitchConfig {
        SwitchConfig {
            forward,
            dumper_ports,
            mirror_mode: MirrorMode::Pool,
            randomize_dport: true,
            mirroring: true,
            injection: true,
            pipeline_latency: SimTime::from_nanos(380),
        }
    }
}

/// Per-port counters, dumped by the orchestrator for the integrity check
/// (Table 1: "TX/RX/mirrored packet counters for each switch port").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortCounters {
    /// Frames received on the port.
    pub rx: u64,
    /// Frames transmitted out the port.
    pub tx: u64,
    /// RoCE frames received on the port.
    pub rx_roce: u64,
    /// Mirror copies transmitted out the port.
    pub mirrored: u64,
}

/// Per-port counters indexed by port number. Only ports that have counted
/// something exist, and the table serializes as the map it replaced:
/// `{"0": {…}, "1": {…}}`, keys in string order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortTable(Vec<Option<PortCounters>>);

impl PortTable {
    /// The counters of `port`, created zeroed on first touch.
    pub fn entry(&mut self, port: usize) -> &mut PortCounters {
        if port >= self.0.len() {
            self.0.resize(port + 1, None);
        }
        self.0[port].get_or_insert_default()
    }

    /// `(port, counters)` of every port present, by port number.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &PortCounters)> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(port, c)| Some((port, c.as_ref()?)))
    }

    /// The counters of every port present, by port number.
    pub fn values(&self) -> impl Iterator<Item = &PortCounters> {
        self.iter().map(|(_, c)| c)
    }

    /// True when no port has counted anything.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl Serialize for PortTable {
    fn serialize(&self) -> serde_json::Value {
        self.iter().collect::<HashMap<_, _>>().serialize()
    }
}

impl Deserialize for PortTable {
    fn deserialize(v: &serde_json::Value) -> Result<PortTable, serde::Error> {
        let mut table = PortTable::default();
        for (port, counters) in HashMap::<usize, PortCounters>::deserialize(v)? {
            *table.entry(port) = counters;
        }
        Ok(table)
    }
}

/// Aggregate switch counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SwitchCounters {
    /// Per-port counters.
    pub ports: PortTable,
    /// Total RoCE packets that entered the ingress pipeline.
    pub roce_rx_total: u64,
    /// Total mirror copies generated.
    pub mirrored_total: u64,
    /// Packets dropped by injected drop events.
    pub injected_drops: u64,
    /// Packets ECN-marked by injected events.
    pub injected_ecn: u64,
    /// Packets corrupted by injected events.
    pub injected_corrupt: u64,
    /// Packets whose MigReq bit was rewritten.
    pub injected_mig_rewrites: u64,
    /// Packets held for an injected delay.
    pub injected_delays: u64,
    /// Packets held for deterministic reordering.
    pub injected_reorders: u64,
    /// Frames with no forwarding entry (dropped).
    pub no_route: u64,
}

impl MetricSet for SwitchCounters {
    fn metric_kind(&self) -> &'static str {
        "switch"
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("SwitchCounters serializes")
    }
}

/// A packet held back by a reorder or delay event.
struct HeldPacket {
    conn: ConnKey,
    /// Reorder: packets of the connection still to pass before release.
    /// Delay holds release only via the timer.
    remaining: Option<u32>,
    frame: Frame,
    out: PortId,
}

/// The switch simulation node.
pub struct SwitchNode {
    /// Configuration.
    pub cfg: SwitchConfig,
    /// Injection match-action table.
    pub table: InjectionTable,
    /// ITER tracker.
    pub iter: IterTracker,
    /// Counters.
    pub counters: SwitchCounters,
    /// `cfg.forward` as built, sorted by address: two hosts are two
    /// compares, and no frame pays for a hash.
    routes: Vec<(Ipv4Addr, PortId)>,
    wrr: Option<WeightedRoundRobin>,
    mirror_seq: u64,
    held: Vec<Option<HeldPacket>>,
}

/// What the injection action decided about the packet's onward journey.
enum ForwardDecision {
    /// Forward this frame handle (shared or patched copy-on-write).
    Forward(Frame),
    /// The packet was consumed (drop event).
    Dropped,
    /// Forward after an extra injected delay.
    Delayed(Frame, SimTime),
    /// Hold for reordering behind `n` later packets of the connection.
    Held(Frame, u32),
}

impl SwitchNode {
    /// Build a switch from its configuration.
    pub fn new(cfg: SwitchConfig) -> SwitchNode {
        let wrr = if cfg.dumper_ports.is_empty() {
            None
        } else {
            Some(WeightedRoundRobin::new(
                cfg.dumper_ports.iter().map(|&(_, w)| w).collect(),
            ))
        };
        let mut routes: Vec<_> = cfg.forward.iter().map(|(&ip, &port)| (ip, port)).collect();
        routes.sort_unstable();
        SwitchNode {
            cfg,
            routes,
            table: InjectionTable::default(),
            iter: IterTracker::default(),
            counters: SwitchCounters::default(),
            wrr,
            mirror_seq: 0,
            held: Vec::new(),
        }
    }

    /// Total mirror copies emitted so far (for integrity checks).
    pub fn mirror_seq(&self) -> u64 {
        self.mirror_seq
    }

    /// Estimated on-chip memory use of the injector state (§5: roughly
    /// 1 MB for 100 K events and 10 K connections).
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes() + self.iter.memory_bytes()
    }

    fn port_counters(&mut self, port: PortId) -> &mut PortCounters {
        self.counters.ports.entry(port.0)
    }

    fn forward_port(&self, dst: Ipv4Addr) -> Option<PortId> {
        let at = self.routes.binary_search_by_key(&dst, |&(ip, _)| ip).ok()?;
        Some(self.routes[at].1)
    }

    fn mirror(&mut self, ingress: PortId, raw: &Frame, event: EventType, ctx: &mut NodeCtx<'_>) {
        let Some(wrr) = self.wrr.as_mut() else {
            return;
        };
        let idx = match self.cfg.mirror_mode {
            MirrorMode::Pool => wrr.pick(),
            MirrorMode::PerIngressPort => ingress.0 % self.cfg.dumper_ports.len(),
        };
        let (port, _) = self.cfg.dumper_ports[idx];
        // The mirror copy is mutated (metadata scavenging), so this is the
        // one place a genuine copy-on-write detach is always required: the
        // original handle keeps forwarding unchanged.
        let mut copy = raw.clone();
        let dport = if self.cfg.randomize_dport {
            Some(ctx.rng().port())
        } else {
            None
        };
        let seq = self.mirror_seq;
        self.mirror_seq += 1;
        mirror::embed(copy.make_mut(), seq, ctx.now(), event, dport);
        tev!(
            ctx.telemetry(),
            ctx.now().as_nanos(),
            ctx.telemetry_node(),
            "switch",
            "mirror.emit",
            seq = seq,
            port = port.0,
        );
        self.counters.mirrored_total += 1;
        let counters = self.port_counters(port);
        counters.mirrored += 1;
        counters.tx += 1;
        let latency = self.cfg.pipeline_latency;
        // The copy shares the original's provenance id, so the lifecycle
        // tracer sees one packet branching into a mirror leg.
        ctx.telemetry().record_hop(
            copy.trace_id(),
            trace_hops::SWITCH_MIRROR,
            ctx.telemetry_node(),
            ctx.now().as_nanos(),
        );
        ctx.send_after(port, copy, latency);
    }

    fn apply_action(&mut self, mut raw: Frame, action: EventAction) -> ForwardDecision {
        // Mutating actions patch the wire bytes in place via copy-on-write —
        // no parse-edit-reemit round trip. Each patch reproduces exactly
        // what re-emitting the edited structured frame used to produce.
        const ETH_LEN: usize = 14;
        const TOS_OFF: usize = ETH_LEN + 1;
        const BTH_FLAGS_OFF: usize = ETH_LEN + 20 + 8 + 1;
        const BTH_REGION_OFF: usize = 20 + 8; // within the post-Ethernet region
        match action {
            EventAction::Drop => {
                self.counters.injected_drops += 1;
                ForwardDecision::Dropped
            }
            EventAction::EcnMark => {
                self.counters.injected_ecn += 1;
                let buf = raw.make_mut();
                // Set the ECN codepoint to CE; the TOS byte is ICRC-masked,
                // but the IPv4 header checksum covers it and must follow.
                buf[TOS_OFF] |= 0b11;
                mirror::fix_ip_checksum(buf);
                ForwardDecision::Forward(raw)
            }
            EventAction::Corrupt => {
                self.counters.injected_corrupt += 1;
                let buf = raw.make_mut();
                // Flip a byte in the IB payload region, leaving the stale
                // ICRC in place so the receiver sees the corruption. On
                // payload-less packets this hits padding or the last header
                // byte — still ICRC-covered.
                let target = buf.len().saturating_sub(5); // last byte before ICRC
                buf[target] ^= 0x01;
                ForwardDecision::Forward(raw)
            }
            EventAction::SetMigReq(v) => {
                self.counters.injected_mig_rewrites += 1;
                let buf = raw.make_mut();
                if v {
                    buf[BTH_FLAGS_OFF] |= 0x40;
                } else {
                    buf[BTH_FLAGS_OFF] &= !0x40;
                }
                // MigReq is ICRC-covered: recompute the trailing ICRC, as
                // the real switch action must also do.
                let body_end = buf.len() - ICRC_LEN;
                let icrc = icrc_over_masked(&buf[ETH_LEN..body_end], BTH_REGION_OFF);
                buf[body_end..].copy_from_slice(&icrc.to_le_bytes());
                ForwardDecision::Forward(raw)
            }
            EventAction::Delay(extra) => {
                self.counters.injected_delays += 1;
                ForwardDecision::Delayed(raw, extra)
            }
            EventAction::Reorder(n) => {
                self.counters.injected_reorders += 1;
                ForwardDecision::Held(raw, n.max(1))
            }
        }
    }

    fn hold(&mut self, conn: ConnKey, remaining: Option<u32>, frame: Frame, out: PortId) -> usize {
        let idx = self
            .held
            .iter()
            .position(|s| s.is_none())
            .unwrap_or_else(|| {
                self.held.push(None);
                self.held.len() - 1
            });
        self.held[idx] = Some(HeldPacket {
            conn,
            remaining,
            frame,
            out,
        });
        idx
    }

    /// A data packet of `conn` was forwarded: advance reorder holds and
    /// release any that are due.
    fn advance_holds(&mut self, conn: ConnKey, ctx: &mut NodeCtx<'_>) {
        let latency = self.cfg.pipeline_latency;
        for slot in self.held.iter_mut() {
            if let Some(h) = slot {
                if h.conn == conn {
                    if let Some(rem) = h.remaining.as_mut() {
                        *rem = rem.saturating_sub(1);
                        if *rem == 0 {
                            let h = slot.take().unwrap();
                            ctx.telemetry().record_hop(
                                h.frame.trace_id(),
                                trace_hops::SWITCH_FORWARD,
                                ctx.telemetry_node(),
                                ctx.now().as_nanos(),
                            );
                            ctx.send_after(h.out, h.frame, latency);
                        }
                    }
                }
            }
        }
    }
}

impl Node for SwitchNode {
    fn on_frame(&mut self, port: PortId, raw: Frame, ctx: &mut NodeCtx<'_>) {
        self.port_counters(port).rx += 1;

        let Ok(frame) = RoceFrame::parse_frame(&raw) else {
            // Non-RoCE traffic: plain L2/L3 forwarding, no injection or
            // mirroring.
            if let Ok(hdrs) = RoceFrame::parse_headers(&raw) {
                if let Some(out) = self.forward_port(hdrs.ipv4.dst) {
                    self.port_counters(out).tx += 1;
                    let latency = self.cfg.pipeline_latency;
                    ctx.telemetry().record_hop(
                        raw.trace_id(),
                        trace_hops::SWITCH_FORWARD,
                        ctx.telemetry_node(),
                        ctx.now().as_nanos(),
                    );
                    ctx.send_after(out, raw, latency);
                    return;
                }
            }
            self.counters.no_route += 1;
            return;
        };

        self.counters.roce_rx_total += 1;
        self.port_counters(port).rx_roce += 1;

        // Everything the rest of the pipeline needs, by value: the parsed
        // view's payload shares `raw`'s buffer, and it is dropped here so
        // that an unshared frame can be patched in place by a mutating
        // action instead of forcing a copy-on-write detach.
        let out_dst = frame.ipv4.dst;
        let is_data = frame.bth.opcode.is_data();
        let psn = frame.bth.psn;
        let conn = ConnKey {
            src_ip: frame.ipv4.src,
            dst_ip: frame.ipv4.dst,
            dst_qpn: frame.bth.dest_qp,
        };
        drop(frame);

        // ITER tracking and event injection apply to data packets only
        // (Lumina does not inject events on ACK/NACK/CNP control packets,
        // §3.3 footnote 2).
        let mut action = None;
        if is_data {
            let (prev_iter, iter) = self.iter.observe(conn, psn);
            if iter != prev_iter {
                tev!(
                    ctx.telemetry(),
                    ctx.now().as_nanos(),
                    ctx.telemetry_node(),
                    "switch",
                    "iter.transition",
                    qpn = conn.dst_qpn,
                    psn = psn,
                    iter = iter,
                );
            }
            if self.cfg.injection {
                action = self.table.lookup(&InjectionKey { conn, psn, iter });
            }
            if let Some(a) = action {
                let kind = match a {
                    EventAction::Drop => "drop",
                    EventAction::EcnMark => "ecn.mark",
                    EventAction::Corrupt => "corrupt",
                    EventAction::SetMigReq(_) => "migreq.rewrite",
                    EventAction::Delay(_) => "delay",
                    EventAction::Reorder(_) => "reorder",
                };
                tev!(
                    ctx.telemetry(),
                    ctx.now().as_nanos(),
                    ctx.telemetry_node(),
                    "switch",
                    kind,
                    qpn = conn.dst_qpn,
                    psn = psn,
                    iter = iter,
                );
                let hop = match a {
                    EventAction::Drop => "switch.mutate.drop",
                    EventAction::EcnMark => "switch.mutate.ecn",
                    EventAction::Corrupt => "switch.mutate.corrupt",
                    EventAction::SetMigReq(_) => "switch.mutate.migreq",
                    EventAction::Delay(_) => "switch.mutate.delay",
                    EventAction::Reorder(_) => "switch.mutate.reorder",
                };
                ctx.telemetry().record_hop(
                    raw.trace_id(),
                    hop,
                    ctx.telemetry_node(),
                    ctx.now().as_nanos(),
                );
            }
        }

        // Ingress mirroring happens before any drop takes effect (§3.4),
        // and the mirror copy records which event was applied.
        if self.cfg.mirroring {
            self.mirror(port, &raw, EventType::of_action(action), ctx);
        }

        let decision = match action {
            None => ForwardDecision::Forward(raw),
            Some(a) => self.apply_action(raw, a),
        };
        let Some(out) = self.forward_port(out_dst) else {
            if !matches!(decision, ForwardDecision::Dropped) {
                self.counters.no_route += 1;
                tev!(
                    ctx.telemetry(),
                    ctx.now().as_nanos(),
                    ctx.telemetry_node(),
                    "switch",
                    "drop",
                    reason = "no_route",
                    psn = psn,
                );
            }
            return;
        };
        let latency = self.cfg.pipeline_latency;
        match decision {
            ForwardDecision::Dropped => {}
            ForwardDecision::Forward(fwd) => {
                self.port_counters(out).tx += 1;
                ctx.telemetry().record_hop(
                    fwd.trace_id(),
                    trace_hops::SWITCH_FORWARD,
                    ctx.telemetry_node(),
                    ctx.now().as_nanos(),
                );
                ctx.send_after(out, fwd, latency);
                if is_data {
                    self.advance_holds(conn, ctx);
                }
            }
            ForwardDecision::Delayed(fwd, extra) => {
                // The packet is buffered inside the switch and re-enters
                // the egress at release time — a held packet must not
                // occupy the line meanwhile.
                self.port_counters(out).tx += 1;
                let idx = self.hold(conn, None, fwd, out);
                ctx.set_timer(latency + extra, idx as u64);
            }
            ForwardDecision::Held(fwd, n) => {
                self.port_counters(out).tx += 1;
                let idx = self.hold(conn, Some(n), fwd, out);
                // Safety flush: if the connection goes quiet, release the
                // held packet after 1 ms rather than leaking it.
                ctx.set_timer(SimTime::from_millis(1), idx as u64);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>) {
        let idx = token as usize;
        if let Some(Some(_)) = self.held.get(idx) {
            let h = self.held[idx].take().unwrap();
            let latency = self.cfg.pipeline_latency;
            ctx.telemetry().record_hop(
                h.frame.trace_id(),
                trace_hops::SWITCH_FORWARD,
                ctx.telemetry_node(),
                ctx.now().as_nanos(),
            );
            ctx.send_after(h.out, h.frame, latency);
        }
    }

    fn name(&self) -> &str {
        "switch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumina_packet::builder::DataPacketBuilder;
    use lumina_packet::opcode::Opcode;
    use lumina_sim::testutil::{recording, Collector, Script};
    use lumina_sim::{Bandwidth, Engine};

    const H1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const H2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn data_frame(psn: u32, payload: usize) -> Frame {
        DataPacketBuilder::new()
            .src_ip(H1)
            .dst_ip(H2)
            .opcode(Opcode::RdmaWriteMiddle)
            .dest_qp(0xea)
            .psn(psn)
            .payload_len(payload)
            .build()
            .emit()
    }

    /// Engine with script → switch(port0) , host2 collector on port1,
    /// dumper collector on port2.
    struct Rig {
        eng: Engine,
        host_rx: lumina_sim::testutil::Recording,
        dump_rx: lumina_sim::testutil::Recording,
    }

    fn rig(cfg_mod: impl FnOnce(&mut SwitchConfig), plan: Vec<(SimTime, Frame)>) -> Rig {
        let mut eng = Engine::new(7);
        let mut forward = HashMap::new();
        forward.insert(H2, PortId(1));
        forward.insert(H1, PortId(0));
        let mut cfg = SwitchConfig::lumina(forward, vec![(PortId(2), 1)]);
        cfg_mod(&mut cfg);
        let sw = SwitchNode::new(cfg);
        let script = eng.add_node(Box::new(Script::new(
            plan.into_iter().map(|(t, f)| (t, PortId(0), f)).collect(),
        )));
        let switch_id = eng.add_node(Box::new(sw));
        let host_rx = recording();
        let host = eng.add_node(Box::new(Collector::new(host_rx.clone())));
        let dump_rx = recording();
        let dumper = eng.add_node(Box::new(Collector::new(dump_rx.clone())));
        let bw = Bandwidth::gbps(100);
        let prop = SimTime::from_nanos(500);
        eng.connect(script, PortId(0), switch_id, PortId(0), bw, prop);
        eng.connect(switch_id, PortId(1), host, PortId(0), bw, prop);
        eng.connect(switch_id, PortId(2), dumper, PortId(0), bw, prop);
        eng.schedule_timer(script, SimTime::ZERO, Script::KICKOFF);
        Rig {
            eng,
            host_rx,
            dump_rx,
        }
    }

    #[test]
    fn forwards_and_mirrors_every_roce_packet() {
        let plan = (0..10u32)
            .map(|i| (SimTime::from_micros(i as u64), data_frame(100 + i, 1024)))
            .collect();
        let mut r = rig(|_| {}, plan);
        r.eng.run(None);
        assert_eq!(r.host_rx.borrow().len(), 10);
        assert_eq!(r.dump_rx.borrow().len(), 10);
        // Mirror copies carry consecutive sequence numbers and timestamps.
        let metas: Vec<_> = r
            .dump_rx
            .borrow()
            .iter()
            .map(|(_, _, f)| mirror::extract(f).unwrap())
            .collect();
        for (i, m) in metas.iter().enumerate() {
            assert_eq!(m.seq, i as u64);
            assert_eq!(m.event, EventType::None);
        }
        // Timestamps are monotonic.
        for w in metas.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
    }

    #[test]
    fn drop_event_suppresses_forwarding_but_not_mirroring() {
        let plan = (0..5u32)
            .map(|i| (SimTime::from_micros(i as u64), data_frame(100 + i, 512)))
            .collect();
        let r = rig(|_| {}, plan);
        // Install the drop via direct table access before running: rebuild
        // rig with a closure is not enough since table is inside the node;
        // so instead install through a pre-inserted table.
        // (We cannot reach the node post-insertion; re-create the rig.)
        drop(r);
        let mut eng = Engine::new(7);
        let mut forward = HashMap::new();
        forward.insert(H2, PortId(1));
        let cfg = SwitchConfig::lumina(forward, vec![(PortId(2), 1)]);
        let mut sw = SwitchNode::new(cfg);
        sw.table.insert(
            InjectionKey {
                conn: ConnKey {
                    src_ip: H1,
                    dst_ip: H2,
                    dst_qpn: 0xea,
                },
                psn: 102,
                iter: 1,
            },
            EventAction::Drop,
        );
        let plan: Vec<(SimTime, PortId, Frame)> = (0..5u32)
            .map(|i| {
                (
                    SimTime::from_micros(i as u64),
                    PortId(0),
                    data_frame(100 + i, 512),
                )
            })
            .collect();
        let script = eng.add_node(Box::new(Script::new(plan)));
        let switch_id = eng.add_node(Box::new(sw));
        let host_rx = recording();
        let host = eng.add_node(Box::new(Collector::new(host_rx.clone())));
        let dump_rx = recording();
        let dumper = eng.add_node(Box::new(Collector::new(dump_rx.clone())));
        let bw = Bandwidth::gbps(100);
        eng.connect(script, PortId(0), switch_id, PortId(0), bw, SimTime::ZERO);
        eng.connect(switch_id, PortId(1), host, PortId(0), bw, SimTime::ZERO);
        eng.connect(switch_id, PortId(2), dumper, PortId(0), bw, SimTime::ZERO);
        eng.schedule_timer(script, SimTime::ZERO, Script::KICKOFF);
        eng.run(None);
        // 4 of 5 forwarded; all 5 mirrored (ingress mirroring precedes the
        // drop).
        assert_eq!(host_rx.borrow().len(), 4);
        assert_eq!(dump_rx.borrow().len(), 5);
        let dropped_meta = dump_rx
            .borrow()
            .iter()
            .map(|(_, _, f)| mirror::extract(f).unwrap())
            .find(|m| m.event == EventType::Drop);
        assert!(dropped_meta.is_some());
        // The forwarded set skips PSN 102.
        let psns: Vec<u32> = host_rx
            .borrow()
            .iter()
            .map(|(_, _, f)| RoceFrame::parse(f).unwrap().bth.psn)
            .collect();
        assert_eq!(psns, vec![100, 101, 103, 104]);
    }

    #[test]
    fn pipeline_latency_under_400ns() {
        let plan = vec![(SimTime::ZERO, data_frame(100, 1024))];
        let mut r = rig(|_| {}, plan);
        r.eng.run(None);
        let host = r.host_rx.borrow();
        let (arrival, _, f) = &host[0];
        // Path: script→switch (ser+500ns prop) + pipeline + switch→host
        // (ser+500ns prop). Subtract the wire terms to isolate pipeline
        // latency.
        let ser = Bandwidth::gbps(100)
            .serialization_time(lumina_packet::frame::line_occupancy_of(f.len()));
        let wire = SimTime::from_nanos(1000) + ser + ser;
        let pipeline = arrival.saturating_since(wire);
        assert!(
            pipeline <= SimTime::from_nanos(400),
            "pipeline latency {pipeline} exceeds the 0.4 µs bound (§5)"
        );
        assert!(pipeline >= SimTime::from_nanos(100));
    }

    #[test]
    fn control_packets_not_injected_but_mirrored() {
        // An ACK with a PSN matching a drop entry must pass through.
        let ack = lumina_packet::builder::ack_frame(
            H1,
            H2,
            0xea,
            102,
            lumina_packet::AethSyndrome::Ack { credit: 0 },
            1,
        )
        .emit();
        let mut eng = Engine::new(7);
        let mut forward = HashMap::new();
        forward.insert(H2, PortId(1));
        let cfg = SwitchConfig::lumina(forward, vec![(PortId(2), 1)]);
        let mut sw = SwitchNode::new(cfg);
        sw.table.insert(
            InjectionKey {
                conn: ConnKey {
                    src_ip: H1,
                    dst_ip: H2,
                    dst_qpn: 0xea,
                },
                psn: 102,
                iter: 1,
            },
            EventAction::Drop,
        );
        let script = eng.add_node(Box::new(Script::new(vec![(
            SimTime::ZERO,
            PortId(0),
            ack,
        )])));
        let switch_id = eng.add_node(Box::new(sw));
        let host_rx = recording();
        let host = eng.add_node(Box::new(Collector::new(host_rx.clone())));
        let dump_rx = recording();
        let dumper = eng.add_node(Box::new(Collector::new(dump_rx.clone())));
        let bw = Bandwidth::gbps(100);
        eng.connect(script, PortId(0), switch_id, PortId(0), bw, SimTime::ZERO);
        eng.connect(switch_id, PortId(1), host, PortId(0), bw, SimTime::ZERO);
        eng.connect(switch_id, PortId(2), dumper, PortId(0), bw, SimTime::ZERO);
        eng.schedule_timer(script, SimTime::ZERO, Script::KICKOFF);
        eng.run(None);
        assert_eq!(host_rx.borrow().len(), 1, "ACKs are never injected on");
        assert_eq!(dump_rx.borrow().len(), 1, "but they are mirrored");
    }
}
