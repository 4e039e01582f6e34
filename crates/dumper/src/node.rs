//! The dumper simulation node: RSS, per-core rings, trimming, buffering.

use crate::trace::{CaptureBytes, CapturedPacket, TRIM_LEN};
use lumina_packet::buf;
use lumina_sim::{Frame, Node, NodeCtx, PortId, SimRng, SimTime};
use lumina_telemetry::{tev, MetricSet};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A temporary dumper-host slowdown: within `[from, until)` every core's
/// service interval is multiplied by `slowdown` (the poll loop sharing its
/// cores with a noisy co-tenant, a page-cache writeback storm, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallWindow {
    /// First stalled instant (inclusive).
    pub from: SimTime,
    /// End of the stall (exclusive).
    pub until: SimTime,
    /// Service-interval multiplier; `1` is a no-op.
    pub slowdown: u32,
}

/// Host-local fault injection for one dumper: capture bit-rot and core
/// stalls. Built by the orchestrator from the `faults:` config section
/// with an RNG forked off the campaign fault seed
/// ([`lumina_sim::FaultPlane::node_rng`]) so each dumper draws its own
/// replayable stream.
#[derive(Debug, Clone)]
pub struct DumperFaults {
    /// Probability each captured packet has one bit flipped on the way to
    /// the capture buffer.
    pub bit_rot_prob: f64,
    /// Stall windows (may overlap; the largest slowdown wins).
    pub stalls: Vec<StallWindow>,
    /// Dumper-local fault RNG.
    pub rng: SimRng,
}

/// Configuration of one dumper host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DumperConfig {
    /// CPU cores available for packet processing.
    pub cores: usize,
    /// Per-core service rate in packets per second (DPDK poll loop
    /// throughput).
    pub per_core_rate_pps: u64,
    /// Per-core RX ring capacity in packets; overflow is discarded at the
    /// NIC (`rx_discards_phy`).
    pub ring_capacity: usize,
    /// Capture snap length — the paper's dumper keeps the first 128 bytes,
    /// which hold every protocol header Lumina needs. At most [`TRIM_LEN`],
    /// the size a stored capture has room for.
    pub trim_bytes: usize,
}

impl Default for DumperConfig {
    fn default() -> Self {
        DumperConfig {
            cores: 8,
            per_core_rate_pps: 2_500_000,
            ring_capacity: 1024,
            trim_bytes: TRIM_LEN,
        }
    }
}

/// Shared handle to a dumper's capture buffer and discard count, usable
/// after the simulation ends.
pub type CaptureHandle = Rc<RefCell<CaptureState>>;

/// What a dumper host accumulated.
#[derive(Debug, Default)]
pub struct CaptureState {
    /// Captured (trimmed, dport-restored at finish) packets.
    pub packets: Vec<CapturedPacket>,
    /// Packets discarded because a core ring overflowed.
    pub rx_discards: u64,
    /// Packets fully processed per core (service accounting).
    pub per_core_processed: Vec<u64>,
    /// Captures that had a bit flipped by injected bit-rot. Zero on
    /// fault-free runs, and then absent from [`snapshot`](MetricSet) —
    /// golden reports never see the key.
    pub captures_corrupted: u64,
    /// Service timer fires that ran at a stall-inflated interval. Same
    /// only-when-nonzero snapshot rule.
    pub service_ticks_stalled: u64,
}

impl MetricSet for CaptureState {
    fn metric_kind(&self) -> &'static str {
        "dumper"
    }

    fn snapshot(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert(
            "packets_captured",
            serde_json::Value::from(self.packets.len() as u64),
        );
        m.insert("rx_discards", serde_json::Value::from(self.rx_discards));
        m.insert(
            "per_core_processed",
            serde_json::Value::Array(
                self.per_core_processed
                    .iter()
                    .map(|&c| serde_json::Value::from(c))
                    .collect(),
            ),
        );
        // Fault counters appear only when faults actually fired, so
        // fault-free snapshots — and the golden reports built from them —
        // are byte-identical to the pre-fault-plane format.
        if self.captures_corrupted > 0 {
            m.insert(
                "captures_corrupted",
                serde_json::Value::from(self.captures_corrupted),
            );
        }
        if self.service_ticks_stalled > 0 {
            m.insert(
                "service_ticks_stalled",
                serde_json::Value::from(self.service_ticks_stalled),
            );
        }
        serde_json::Value::Object(m)
    }
}

/// Create an empty capture handle.
pub fn capture_handle() -> CaptureHandle {
    Rc::new(RefCell::new(CaptureState::default()))
}

struct Core {
    /// Buffered frames await service as shared handles — the ring holds
    /// references into the same wire buffers the rest of the sim uses;
    /// bytes are only copied at capture time, after trimming.
    ring: VecDeque<(SimTime, Frame)>,
    service_armed: bool,
}

/// One dumper host.
pub struct DumperNode {
    cfg: DumperConfig,
    cores: Vec<Core>,
    out: CaptureHandle,
    service_interval: SimTime,
    faults: Option<DumperFaults>,
}

impl DumperNode {
    /// Build a dumper writing into `out`.
    pub fn new(cfg: DumperConfig, out: CaptureHandle) -> DumperNode {
        DumperNode::with_faults(cfg, out, None)
    }

    /// Build a dumper with host-local fault injection attached.
    pub fn with_faults(
        cfg: DumperConfig,
        out: CaptureHandle,
        faults: Option<DumperFaults>,
    ) -> DumperNode {
        assert!(cfg.cores > 0);
        assert!(
            cfg.trim_bytes <= TRIM_LEN,
            "a stored capture holds at most {TRIM_LEN} bytes"
        );
        out.borrow_mut().per_core_processed = vec![0; cfg.cores];
        let service_interval =
            SimTime::from_nanos(1_000_000_000u64.div_ceil(cfg.per_core_rate_pps));
        DumperNode {
            cores: (0..cfg.cores)
                .map(|_| Core {
                    ring: VecDeque::new(),
                    service_armed: false,
                })
                .collect(),
            cfg,
            out,
            service_interval,
            faults,
        }
    }

    /// The service interval in effect at `now`: the configured interval,
    /// inflated by the largest overlapping stall window's slowdown.
    fn interval_at(&mut self, now: SimTime) -> SimTime {
        let base = self.service_interval;
        let Some(f) = &self.faults else { return base };
        let slowdown = f
            .stalls
            .iter()
            .filter(|w| now >= w.from && now < w.until)
            .map(|w| w.slowdown.max(1))
            .max()
            .unwrap_or(1);
        if slowdown == 1 {
            return base;
        }
        self.out.borrow_mut().service_ticks_stalled += 1;
        SimTime::from_nanos(base.as_nanos().saturating_mul(slowdown as u64))
    }

    /// RSS: hash the 5-tuple onto a core. Uses the same fields real NICs
    /// hash, so without destination-port randomization a single flow pins
    /// one core.
    fn rss_core(&self, frame: &[u8]) -> usize {
        // Ethernet is 14 bytes: IPv4 src at 26..30, dst at 30..34, the
        // UDP ports at 34..38.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in frame
            .get(26..38)
            .unwrap_or(&frame[..frame.len().min(12)])
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h % self.cores.len() as u64) as usize
    }

    fn capture(&mut self, rx_time: SimTime, raw: &Frame, core: usize) {
        let trimmed_len = raw.len().min(self.cfg.trim_bytes);
        let mut bytes = CaptureBytes::from(&raw[..trimmed_len]);
        buf::note_copied(trimmed_len);
        // Restoration of the RoCEv2 destination port happens at TERM in
        // the real dumper; doing it at capture time is equivalent for the
        // stored trace and keeps the buffered copy analysis-ready.
        lumina_switch::mirror::restore_dport(&mut bytes);
        let mut corrupted = false;
        if let Some(f) = &mut self.faults {
            if f.bit_rot_prob > 0.0 && f.rng.chance(f.bit_rot_prob) && !bytes.is_empty() {
                // One flipped bit on the way to the capture buffer. The
                // wire copy already left; only the stored trace suffers.
                let byte = f.rng.index(bytes.len());
                let bit = f.rng.index(8) as u32;
                bytes[byte] ^= 1u8 << bit;
                corrupted = true;
            }
        }
        let mut out = self.out.borrow_mut();
        out.captures_corrupted += corrupted as u64;
        out.per_core_processed[core] += 1;
        out.packets.push(CapturedPacket {
            rx_time,
            orig_len: raw.len(),
            bytes,
        });
    }
}

impl Node for DumperNode {
    fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut NodeCtx<'_>) {
        let core_idx = self.rss_core(&frame);
        if self.cores[core_idx].ring.len() >= self.cfg.ring_capacity {
            self.out.borrow_mut().rx_discards += 1;
            tev!(
                ctx.telemetry(),
                ctx.now().as_nanos(),
                ctx.telemetry_node(),
                "dumper",
                "ring.drop",
                core = core_idx,
            );
            return;
        }
        let now = ctx.now();
        self.cores[core_idx].ring.push_back((now, frame));
        if !self.cores[core_idx].service_armed {
            self.cores[core_idx].service_armed = true;
            let interval = self.interval_at(now);
            ctx.set_timer(interval, core_idx as u64);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>) {
        let core_idx = token as usize;
        let popped = self.cores[core_idx].ring.pop_front();
        if let Some((rx_time, frame)) = popped {
            // Capture time (now), not rx_time: the gap is the ring's
            // buffering delay, which the latency dissection should see.
            ctx.telemetry().record_hop(
                frame.trace_id(),
                lumina_telemetry::trace::hops::DUMPER_CAPTURE,
                ctx.telemetry_node(),
                ctx.now().as_nanos(),
            );
            self.capture(rx_time, &frame, core_idx);
        }
        if self.cores[core_idx].ring.is_empty() {
            self.cores[core_idx].service_armed = false;
        } else {
            let interval = self.interval_at(ctx.now());
            ctx.set_timer(interval, core_idx as u64);
        }
    }

    fn on_finish(&mut self, ctx: &mut NodeCtx<'_>) {
        // Drain whatever is still buffered in the rings — the TERM path:
        // processing stops, memory is flushed to disk.
        for i in 0..self.cores.len() {
            while let Some((rx_time, frame)) = self.cores[i].ring.pop_front() {
                ctx.telemetry().record_hop(
                    frame.trace_id(),
                    lumina_telemetry::trace::hops::DUMPER_CAPTURE,
                    ctx.telemetry_node(),
                    ctx.now().as_nanos(),
                );
                self.capture(rx_time, &frame, i);
            }
        }
    }

    fn name(&self) -> &str {
        "dumper"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumina_packet::builder::DataPacketBuilder;
    use lumina_packet::opcode::Opcode;
    use lumina_sim::testutil::Script;
    use lumina_sim::{Bandwidth, Engine};
    use lumina_switch::events::EventType;

    fn mirror_frame(seq: u64, dport: Option<u16>, payload: usize) -> Frame {
        let mut buf = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteMiddle)
            .psn(seq as u32)
            .payload_len(payload)
            .build()
            .emit()
            .to_vec();
        lumina_switch::mirror::embed(
            &mut buf,
            seq,
            SimTime::from_nanos(seq * 100),
            EventType::None,
            dport,
        );
        Frame::from_vec(buf)
    }

    fn run_dumper(cfg: DumperConfig, frames: Vec<Frame>, gap: SimTime) -> CaptureHandle {
        let mut eng = Engine::new(3);
        let plan = frames
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                (
                    SimTime::from_nanos(i as u64 * gap.as_nanos()),
                    PortId(0),
                    f,
                )
            })
            .collect();
        let script = eng.add_node(Box::new(Script::new(plan)));
        let handle = capture_handle();
        let dumper = eng.add_node(Box::new(DumperNode::new(cfg, handle.clone())));
        eng.connect(
            script,
            PortId(0),
            dumper,
            PortId(0),
            Bandwidth::gbps(100),
            SimTime::from_nanos(100),
        );
        eng.schedule_timer(script, SimTime::ZERO, Script::KICKOFF);
        eng.run(None);
        handle
    }

    #[test]
    fn captures_and_trims() {
        let frames: Vec<Frame> = (0..20).map(|i| mirror_frame(i, Some(1000 + i as u16), 1024)).collect();
        let h = run_dumper(DumperConfig::default(), frames, SimTime::from_micros(1));
        let st = h.borrow();
        assert_eq!(st.packets.len(), 20);
        assert_eq!(st.rx_discards, 0);
        for p in &st.packets {
            assert!(p.bytes.len() <= TRIM_LEN);
            assert!(p.orig_len > 1024);
            // dport restored to 4791.
            let parsed = lumina_packet::frame::RoceFrame::parse_headers(&p.bytes).unwrap();
            assert_eq!(parsed.udp.dst_port, lumina_packet::ROCEV2_UDP_PORT);
        }
    }

    #[test]
    #[should_panic(expected = "holds at most 128 bytes")]
    fn trim_beyond_the_stored_capture_rejected() {
        let cfg = DumperConfig {
            trim_bytes: TRIM_LEN + 1,
            ..DumperConfig::default()
        };
        DumperNode::new(cfg, capture_handle());
    }

    #[test]
    fn randomized_dport_spreads_cores() {
        let frames: Vec<Frame> = (0..400)
            .map(|i| mirror_frame(i, Some((i * 7919 % 65536) as u16), 256))
            .collect();
        let h = run_dumper(DumperConfig::default(), frames, SimTime::from_nanos(200));
        let st = h.borrow();
        let used = st.per_core_processed.iter().filter(|&&c| c > 0).count();
        assert!(used >= 6, "expected most of 8 cores used, got {used}");
    }

    #[test]
    fn fixed_dport_pins_one_core() {
        let frames: Vec<Frame> = (0..400).map(|i| mirror_frame(i, None, 256)).collect();
        let h = run_dumper(DumperConfig::default(), frames, SimTime::from_nanos(200));
        let st = h.borrow();
        let used = st.per_core_processed.iter().filter(|&&c| c > 0).count();
        assert_eq!(used, 1, "same 5-tuple must hash to a single core");
    }

    #[test]
    fn overload_discards_when_single_core() {
        // One flow at 5 Mpps into a 2.5 Mpps core with a small ring.
        let cfg = DumperConfig {
            cores: 8,
            per_core_rate_pps: 2_500_000,
            ring_capacity: 32,
            trim_bytes: 128,
        };
        let frames: Vec<Frame> = (0..2000).map(|i| mirror_frame(i, None, 256)).collect();
        let h = run_dumper(cfg, frames, SimTime::from_nanos(200));
        let st = h.borrow();
        assert!(st.rx_discards > 0, "expected ring overflow");
        assert!(st.packets.len() < 2000);
    }

    #[test]
    fn same_offered_load_survives_with_rss_spread() {
        let cfg = DumperConfig {
            cores: 8,
            per_core_rate_pps: 2_500_000,
            ring_capacity: 32,
            trim_bytes: 128,
        };
        let frames: Vec<Frame> = (0..2000)
            .map(|i| mirror_frame(i, Some((i * 31 % 65536) as u16), 256))
            .collect();
        let h = run_dumper(cfg, frames, SimTime::from_nanos(200));
        let st = h.borrow();
        assert_eq!(st.rx_discards, 0, "8 cores × 2.5 Mpps handle 5 Mpps");
        assert_eq!(st.packets.len(), 2000);
    }

    fn run_dumper_with_faults(
        cfg: DumperConfig,
        faults: DumperFaults,
        frames: Vec<Frame>,
        gap: SimTime,
    ) -> CaptureHandle {
        let mut eng = Engine::new(3);
        let plan = frames
            .into_iter()
            .enumerate()
            .map(|(i, f)| (SimTime::from_nanos(i as u64 * gap.as_nanos()), PortId(0), f))
            .collect();
        let script = eng.add_node(Box::new(Script::new(plan)));
        let handle = capture_handle();
        let dumper = eng.add_node(Box::new(DumperNode::with_faults(
            cfg,
            handle.clone(),
            Some(faults),
        )));
        eng.connect(
            script,
            PortId(0),
            dumper,
            PortId(0),
            Bandwidth::gbps(100),
            SimTime::from_nanos(100),
        );
        eng.schedule_timer(script, SimTime::ZERO, Script::KICKOFF);
        eng.run(None);
        handle
    }

    #[test]
    fn bit_rot_corrupts_some_captures_deterministically() {
        let run = || {
            let faults = DumperFaults {
                bit_rot_prob: 0.2,
                stalls: vec![],
                rng: SimRng::seed_from_u64(42),
            };
            let frames: Vec<Frame> =
                (0..200).map(|i| mirror_frame(i, Some(1000 + i as u16), 256)).collect();
            let h = run_dumper_with_faults(
                DumperConfig::default(),
                faults,
                frames,
                SimTime::from_micros(1),
            );
            let st = h.borrow();
            (
                st.captures_corrupted,
                st.packets
                    .iter()
                    .map(|p| p.bytes.to_vec())
                    .collect::<Vec<_>>(),
            )
        };
        let (corrupted, bytes) = run();
        assert!(corrupted > 0, "0.2 over 200 captures must hit");
        assert!(corrupted < 200);
        assert_eq!(run(), (corrupted, bytes), "bit-rot must replay");
    }

    #[test]
    fn zero_bit_rot_leaves_captures_untouched_and_uncounted() {
        let faults = DumperFaults {
            bit_rot_prob: 0.0,
            stalls: vec![],
            rng: SimRng::seed_from_u64(42),
        };
        let frames: Vec<Frame> = (0..50).map(|i| mirror_frame(i, None, 256)).collect();
        let h = run_dumper_with_faults(
            DumperConfig::default(),
            faults,
            frames,
            SimTime::from_micros(1),
        );
        let st = h.borrow();
        assert_eq!(st.captures_corrupted, 0);
        let snap = st.snapshot();
        assert!(
            snap.get("captures_corrupted").is_none(),
            "zero counters stay out of the snapshot: {snap}"
        );
        assert!(snap.get("service_ticks_stalled").is_none());
    }

    #[test]
    fn stall_window_overflows_a_ring_that_otherwise_keeps_up() {
        // 1 Mpps offered to a 2.5 Mpps core: fine normally, but a 10×
        // stall across the middle of the run backs the ring up past its
        // capacity.
        let cfg = DumperConfig {
            cores: 8,
            per_core_rate_pps: 2_500_000,
            ring_capacity: 32,
            trim_bytes: 128,
        };
        let frames: Vec<Frame> = (0..1000).map(|i| mirror_frame(i, None, 256)).collect();
        let baseline = run_dumper(cfg, frames.clone(), SimTime::from_micros(1));
        assert_eq!(baseline.borrow().rx_discards, 0);
        let faults = DumperFaults {
            bit_rot_prob: 0.0,
            stalls: vec![StallWindow {
                from: SimTime::from_micros(100),
                until: SimTime::from_micros(900),
                slowdown: 10,
            }],
            rng: SimRng::seed_from_u64(42),
        };
        let h = run_dumper_with_faults(cfg, faults, frames, SimTime::from_micros(1));
        let st = h.borrow();
        assert!(st.service_ticks_stalled > 0);
        assert!(st.rx_discards > 0, "the stalled core must shed load");
    }

    #[test]
    fn finish_flushes_ring_backlog() {
        // Burst everything at t=0: the rings hold the backlog; on_finish
        // must flush it.
        let cfg = DumperConfig {
            cores: 1,
            per_core_rate_pps: 1_000,
            ring_capacity: 1_000,
            trim_bytes: 128,
        };
        let frames: Vec<Frame> = (0..10).map(|i| mirror_frame(i, None, 64)).collect();
        let mut eng = Engine::new(3);
        let plan = frames
            .into_iter()
            .map(|f| (SimTime::ZERO, PortId(0), f))
            .collect();
        let script = eng.add_node(Box::new(Script::new(plan)));
        let handle = capture_handle();
        let dumper = eng.add_node(Box::new(DumperNode::new(cfg, handle.clone())));
        eng.connect(
            script,
            PortId(0),
            dumper,
            PortId(0),
            Bandwidth::gbps(100),
            SimTime::ZERO,
        );
        eng.schedule_timer(script, SimTime::ZERO, Script::KICKOFF);
        // Stop the run long before the 1 kpps core can drain 10 packets.
        eng.run(Some(SimTime::from_millis(2)));
        assert_eq!(handle.borrow().packets.len(), 10, "finish must flush");
    }
}
