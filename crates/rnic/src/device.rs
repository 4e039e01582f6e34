//! The RNIC device model: ties the QP state machines, the ETS scheduler,
//! DCQCN and the quirk models together behind a frames-in/actions-out
//! interface.
//!
//! [`Rnic`] is deliberately *not* a simulation node: it is a pure state
//! machine driven by `on_frame` / `on_timer` / `post_send`, returning
//! [`Action`]s (frames to emit, timers to arm, completions to deliver).
//! `lumina-gen` adapts it onto the discrete-event engine; unit and property
//! tests drive it directly with hand-built timelines.
//!
//! This file holds the device's state, QP management, the `on_frame` front
//! door and the two dispatches (by opcode, by timer kind). What a frame or
//! timer then does is split by role into child modules — children, so the
//! fields stay private to the device: `requester`, `responder`, `cc`
//! (DCQCN) and `txsched` (egress).

/// Journal one of the device's decision points: [`lumina_telemetry::tev!`]
/// (either form) under this device's node and the `"rnic"` component.
macro_rules! journal {
    ($rnic:ident, $now:expr, $($event:tt)*) => {{
        let (tel, node) = (&$rnic.tel, $rnic.tel_node);
        lumina_telemetry::tev!(tel, $now.as_nanos(), node, "rnic", $($event)*)
    }};
}

mod cc;
mod requester;
mod responder;
mod txsched;

use crate::counters::Counters;
use crate::dcqcn::{DcqcnParams, NotificationPoint, ReactionPoint};
use crate::ets::{EtsConfig, EtsScheduler};
use crate::profile::DeviceProfile;
use crate::qp::{Qp, QpConfig, QpState};
use crate::qp_table::QpTable;
use crate::quirks;
use crate::verbs::{Completion, CompletionStatus, WorkRequest};
use lumina_packet::frame::{icrc_check, RoceFrame};
use lumina_packet::opcode::Opcode;
use lumina_packet::{Frame, MacAddr};
use lumina_sim::SimTime;
use lumina_telemetry::Telemetry;
use std::collections::{HashSet, VecDeque};

/// Effects the device asks its host to carry out.
#[derive(Debug, Clone)]
pub enum Action {
    /// Put a frame on the wire now.
    Emit(Frame),
    /// Arm a timer; the token comes back through [`Rnic::on_timer`].
    ArmTimer {
        /// Absolute firing time.
        at: SimTime,
        /// Opaque token.
        token: u64,
    },
    /// Deliver a completion to the application.
    Complete(Completion),
}

/// Timer token encoding: `kind << 56 | qpn << 32 | extra`.
pub mod token {
    /// Egress scheduler wheel tick.
    pub const TX_WHEEL: u8 = 1;
    /// Retransmission timeout (extra = epoch).
    pub const TIMEOUT: u8 = 2;
    /// Responder NACK generation delay elapsed.
    pub const NACK_GEN: u8 = 3;
    /// Requester NACK reaction delay elapsed.
    pub const NACK_REACT: u8 = 4;
    /// Requester read slow path (implied NAK) elapsed.
    pub const READ_OOO: u8 = 5;
    /// Responder read-retransmission reaction delay elapsed.
    pub const READ_REACT: u8 = 6;
    /// DCQCN alpha-update timer (extra = epoch).
    pub const DCQCN_ALPHA: u8 = 7;
    /// DCQCN rate-increase timer (extra = epoch).
    pub const DCQCN_RATE: u8 = 8;
    /// APM slow-path service completion.
    pub const APM_SERVICE: u8 = 9;

    /// Pack a token.
    pub fn pack(kind: u8, qpn: u32, extra: u32) -> u64 {
        debug_assert!(qpn < (1 << 24));
        (kind as u64) << 56 | (qpn as u64) << 32 | extra as u64
    }

    /// Unpack a token into `(kind, qpn, extra)`.
    pub fn unpack(t: u64) -> (u8, u32, u32) {
        ((t >> 56) as u8, ((t >> 32) & 0xff_ffff) as u32, t as u32)
    }
}

/// Ask the host for a timer of `kind` on `qpn`, firing at `at`.
fn arm(actions: &mut Vec<Action>, at: SimTime, kind: u8, qpn: u32, extra: u32) {
    let token = token::pack(kind, qpn, extra);
    actions.push(Action::ArmTimer { at, token });
}

/// The send-queue completion of work request `wr_id` (`len` bytes) on `qpn`.
fn completed(qpn: u32, wr_id: u64, len: u32, status: CompletionStatus, time: SimTime) -> Action {
    Action::Complete(Completion { wr_id, qpn, status, time, is_recv: false, len })
}

/// The RNIC device model.
pub struct Rnic {
    /// Behavioral profile (which NIC this is).
    pub profile: DeviceProfile,
    /// Hardware counters.
    pub counters: Counters,
    /// DCQCN parameters shared by all QPs of this device.
    pub dcqcn_params: DcqcnParams,
    local_mac: MacAddr,
    qps: QpTable,
    np: NotificationPoint,
    ets: EtsScheduler,
    port_free: SimTime,
    tx_armed_at: Option<SimTime>,
    rr_cursor: usize,
    /// The buffer the next `post_send` / `on_frame` / `on_timer` returns
    /// its actions in: empty, with whatever capacity the host handed back
    /// through [`Rnic::recycle`].
    spare_actions: Vec<Action>,
    /// Read-recovery slow-path engine (the CX4 Lx noisy-neighbor model):
    /// recoveries in flight (running + queued).
    pending_recoveries: usize,
    /// Per-context next-free times; recoveries beyond the pool queue here.
    recovery_slots: Vec<SimTime>,
    /// Once the context pool overflows, the whole RX pipeline stays
    /// stalled until every pending recovery drains (the wedge behind the
    /// §6.2.2 collapse).
    stall_wedged: bool,
    /// Requests waiting for the APM service loop, which runs — one service
    /// timer pending — exactly while this is non-empty.
    apm_queue: VecDeque<Frame>,
    /// Every QPN [`Rnic::alloc_qpn`] handed out.
    issued_qpns: HashSet<u32>,
    /// Telemetry sink (disabled until the host adapter wires one in).
    tel: Telemetry,
    /// Simulation node id this device reports under.
    tel_node: u32,
    /// Misbehavior plane (absent by default: a well-behaved device
    /// consults no RNG on any emission path). See [`crate::quirks`].
    pub(crate) quirks: Option<crate::quirks::QuirkPlane>,
}

/// Chainable constructor for a fully configured [`Rnic`]: telemetry and
/// the misbehavior plane are injected at creation, so a built device never
/// needs post-hoc mutation from its host node.
pub struct RnicBuilder {
    rnic: Rnic,
}

impl RnicBuilder {
    /// Attach a telemetry sink; the device journals its decision points
    /// (CNPs, timeouts, Go-back-N rollbacks, retransmissions) under
    /// `node`, the engine node id the device will be registered as.
    pub fn telemetry(mut self, tel: Telemetry, node: u32) -> Self {
        self.rnic.tel = tel;
        self.rnic.tel_node = node;
        self
    }

    /// Attach a misbehavior plane (see [`crate::quirks`]). Without one, a
    /// device never consults an RNG on any emission path.
    pub fn quirks(mut self, plane: crate::quirks::QuirkPlane) -> Self {
        self.rnic.quirks = Some(plane);
        self
    }

    /// Finish the device.
    pub fn build(self) -> Rnic {
        self.rnic
    }
}

impl Rnic {
    /// Build a device from a profile and ETS configuration. The profile's
    /// work-conservation bug overrides the configuration (a buggy NIC
    /// cannot be configured into correctness).
    pub fn new(profile: DeviceProfile, mut ets_cfg: EtsConfig, local_mac: MacAddr) -> Rnic {
        ets_cfg.work_conserving = ets_cfg.work_conserving && profile.ets_work_conserving;
        let ets = EtsScheduler::new(ets_cfg, profile.port_bandwidth, 4096.0);
        let contexts = profile.noisy_neighbor.as_ref().map_or(0, |m| m.recovery_contexts);
        let dcqcn_params = profile.dcqcn.clone();
        Rnic {
            profile,
            counters: Counters::default(),
            dcqcn_params,
            local_mac,
            qps: QpTable::default(),
            np: NotificationPoint::default(),
            ets,
            port_free: SimTime::ZERO,
            tx_armed_at: None,
            rr_cursor: 0,
            spare_actions: Vec::new(),
            pending_recoveries: 0,
            recovery_slots: vec![SimTime::ZERO; contexts],
            stall_wedged: false,
            apm_queue: VecDeque::new(),
            issued_qpns: HashSet::new(),
            tel: Telemetry::disabled(),
            tel_node: 0,
            quirks: None,
        }
    }

    /// Start building a fully configured device: profile + ETS first, then
    /// optional telemetry sink and misbehavior plane, fixed at creation.
    /// Replaces the old post-hoc `set_telemetry` mutation path.
    pub fn builder(profile: DeviceProfile, ets_cfg: EtsConfig, local_mac: MacAddr) -> RnicBuilder {
        RnicBuilder {
            rnic: Rnic::new(profile, ets_cfg, local_mac),
        }
    }

    /// The attached telemetry sink (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Allocate a fresh QPN for this device, randomized the way real RNICs
    /// randomize QPNs at runtime (§3.2). Deterministic given the RNG.
    pub fn alloc_qpn(&mut self, rng: &mut lumina_sim::SimRng) -> u32 {
        // Randomize the high bits over a serial low byte. The low byte
        // alone keeps a device's first 256 QPNs apart; past that, draw
        // again while the QPN is taken.
        let low = self.issued_qpns.len() as u32 & 0xff;
        loop {
            let qpn = (rng.bits24() & 0xffff00) | low;
            if self.issued_qpns.insert(qpn) {
                return qpn;
            }
        }
    }

    /// Install a fully configured QP.
    pub fn create_qp(&mut self, cfg: QpConfig) {
        let qpn = cfg.local.qpn;
        let mut qp = Qp::new(cfg);
        if qp.cfg.dcqcn_rp {
            qp.rp = Some(ReactionPoint::new(
                self.profile.port_bandwidth,
                self.dcqcn_params.clone(),
            ));
        }
        self.qps.insert(qpn, qp);
    }

    /// Borrow a QP (tests, metrics).
    pub fn qp(&self, qpn: u32) -> Option<&Qp> {
        self.qps.lookup(qpn).map(|i| self.qps.get(i))
    }

    fn qp_mut(&mut self, qpn: u32) -> Option<&mut Qp> {
        self.qps.lookup(qpn).map(|i| self.qps.get_mut(i))
    }

    /// All local QPNs.
    pub fn qpns(&self) -> Vec<u32> {
        self.qps.qpns().to_vec()
    }

    /// Post a send-queue work request.
    pub fn post_send(&mut self, qpn: u32, wr: WorkRequest, now: SimTime) -> Vec<Action> {
        let mut actions = std::mem::take(&mut self.spare_actions);
        let Some(i) = self.qps.lookup(qpn) else {
            panic!("post_send on unknown QP {qpn:#x}");
        };
        let qp = self.qps.get_mut(i);
        if qp.state == QpState::Error {
            actions.push(completed(qpn, wr.wr_id, wr.len, CompletionStatus::WrFlushed, now));
            return actions;
        }
        qp.push_wqe(wr);
        self.arm_timeout_if_needed(i, now, &mut actions);
        self.tx_kick(now, &mut actions);
        actions
    }

    /// Hand a drained action list back so the next call fills it again
    /// instead of allocating. Optional: a host that drops the lists
    /// instead costs one allocation per non-empty list, nothing else.
    pub fn recycle(&mut self, mut spent: Vec<Action>) {
        spent.clear();
        self.spare_actions = spent;
    }

    /// Post a receive WQE (Send/Recv traffic).
    pub fn post_recv(&mut self, qpn: u32, wr_id: u64, len: u32) {
        let i = self.qps.lookup(qpn).expect("post_recv on unknown QP");
        self.qps.get_mut(i).recv_queue.push_back((wr_id, len));
    }

    /// True while the shared pipeline is stalled (CX4 Lx noisy-neighbor
    /// model, §6.2.2): the recovery-context pool overflowed and has not
    /// fully drained yet.
    pub fn pipeline_stalled(&self) -> bool {
        self.stall_wedged
    }

    // ------------------------------------------------------------------
    // RX front door
    // ------------------------------------------------------------------

    /// A frame arrived from the wire.
    pub fn on_frame(&mut self, raw: Frame, now: SimTime) -> Vec<Action> {
        let mut actions = std::mem::take(&mut self.spare_actions);
        self.counters.rx_packets += 1;

        if self.pipeline_stalled() {
            self.counters.rx_discards_phy += 1;
            return actions;
        }

        let Ok(frame) = RoceFrame::parse_frame(&raw) else {
            // Not RoCE or malformed; a real NIC would hand it to the host
            // stack. We drop it.
            return actions;
        };
        if !icrc_check(&raw) {
            self.counters.rx_icrc_errors += 1;
            return actions;
        }

        // APM slow path (§6.2.3): request packets carrying MigReq = 0 on an
        // unresolved connection queue behind a slow service loop; overflow
        // is discarded.
        if let Some(apm) = self
            .profile
            .apm_slowpath_on_migreq0
            .as_ref()
            .filter(|_| !frame.bth.mig_req && frame.bth.opcode.is_request())
        {
            let unresolved = self
                .qp(frame.bth.dest_qp)
                .is_some_and(|qp| !qp.apm_resolved);
            if unresolved {
                if self.apm_queue.len() >= apm.queue_capacity {
                    self.counters.rx_discards_phy += 1;
                } else {
                    if self.apm_queue.is_empty() {
                        arm(&mut actions, now + apm.service_time, token::APM_SERVICE, 0, 0);
                    }
                    self.apm_queue.push_back(raw);
                }
                return actions;
            }
        }

        self.process_frame(frame, now, &mut actions);
        actions
    }

    /// Dispatch a frame that passed the front door, by opcode.
    fn process_frame(&mut self, frame: RoceFrame, now: SimTime, actions: &mut Vec<Action>) {
        let Some(i) = self.qps.lookup(frame.bth.dest_qp) else {
            return; // unknown QP: silently dropped
        };

        // ECN: any CE-marked data packet makes this device a DCQCN
        // notification point for the flow.
        if frame.ipv4.ecn.is_ce() && frame.bth.opcode.is_data() {
            self.counters.np_ecn_marked_roce_packets += 1;
            self.maybe_send_cnp(i, &frame, now, actions);
        }

        // Spurious-CNP quirk: congestion-notify on data that carries no
        // CE mark at all. Counted like a real one, so the device's
        // counters stay consistent with its wire behavior — the *protocol*
        // is what misbehaves here, not the bookkeeping.
        let quirks = self.quirks.as_mut().filter(|_| frame.bth.opcode.is_data());
        if quirks.is_some_and(quirks::QuirkPlane::spurious_cnp) {
            self.emit_cnp(i, now, actions);
        }

        match frame.bth.opcode {
            Opcode::Cnp => self.rx_cnp(i, now, actions),
            op if op.is_request() => self.responder_rx(i, &frame, now, actions),
            op if op.is_response() => self.requester_rx(i, &frame, now, actions),
            _ => {}
        }
        self.tx_kick(now, actions);
    }

    /// The APM service loop finished one queued request: account it toward
    /// its connection's resolution, process it, and serve the next.
    fn apm_service(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        let Some(apm) = self.profile.apm_slowpath_on_migreq0.as_ref() else {
            return;
        };
        let (resolve_after, service_time) = (apm.resolve_after_packets, apm.service_time);
        if let Some(raw) = self.apm_queue.pop_front() {
            if let Ok(frame) = RoceFrame::parse_frame(&raw) {
                if let Some(qp) = self.qp_mut(frame.bth.dest_qp) {
                    qp.apm_serviced += 1;
                    if qp.apm_serviced >= resolve_after {
                        qp.apm_resolved = true;
                    }
                }
                self.process_frame(frame, now, actions);
            }
        }
        if !self.apm_queue.is_empty() {
            arm(actions, now + service_time, token::APM_SERVICE, 0, 0);
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// A timer armed through an [`Action::ArmTimer`] fired.
    pub fn on_timer(&mut self, tok: u64, now: SimTime) -> Vec<Action> {
        let mut actions = std::mem::take(&mut self.spare_actions);
        let (kind, qpn, extra) = token::unpack(tok);
        let acts = &mut actions;
        match kind {
            token::TX_WHEEL => {
                if self.tx_armed_at == Some(now) {
                    self.tx_armed_at = None;
                }
                self.tx_fire(now, acts);
            }
            token::TIMEOUT => self.timeout_fire(self.timer_slot(qpn), extra, now, acts),
            token::NACK_GEN => self.nack_gen_fire(self.timer_slot(qpn), acts),
            token::NACK_REACT => self.nack_react_fire(self.timer_slot(qpn), now, acts),
            token::READ_OOO => self.read_ooo_fire(self.timer_slot(qpn), now, acts),
            token::READ_REACT => self.read_react_fire(self.timer_slot(qpn), now, acts),
            token::DCQCN_ALPHA => {
                if let Some(at) = self.dcqcn_alpha_tick(tok, now) {
                    acts.push(Action::ArmTimer { at, token: tok });
                }
            }
            token::DCQCN_RATE => self.dcqcn_rate_fire(self.timer_slot(qpn), extra, now, acts),
            token::APM_SERVICE => self.apm_service(now, acts),
            _ => {}
        }
        actions
    }

    /// The slot of the QP a per-QP timer token names.
    fn timer_slot(&self, qpn: u32) -> usize {
        self.qps
            .lookup(qpn)
            .expect("timer token names an unknown QP")
    }

    /// Stamp QP `i`'s addressing on a frame built for it: MACs, IPs, UDP
    /// source port, destination QPN and the device's MigReq bit. Every
    /// frame the device emits goes through here; a CNP alone keeps the
    /// MigReq it was built with.
    fn addressed(&self, i: usize, mut frame: RoceFrame) -> RoceFrame {
        let cfg = &self.qps.get(i).cfg;
        frame.eth.src = self.local_mac;
        frame.eth.dst = cfg.remote_mac;
        frame.ipv4.src = cfg.local.ip;
        frame.ipv4.dst = cfg.remote.ip;
        frame.udp.src_port = cfg.udp_src_port;
        frame.bth.dest_qp = cfg.remote.qpn;
        if frame.bth.opcode != Opcode::Cnp {
            frame.bth.mig_req = self.profile.mig_req_bit;
        }
        frame
    }

    /// Address a control frame of QP `i` and put it on the wire.
    fn emit_ctrl(&mut self, i: usize, frame: RoceFrame, actions: &mut Vec<Action>) {
        // Control packets (ACK/NACK/CNP) bypass the data scheduler: they
        // are tiny, strictly prioritized, and their timing is the very
        // thing the analyzers measure.
        self.counters.tx_packets += 1;
        actions.push(Action::Emit(self.addressed(i, frame).emit()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ets::TxCandidate;
    use crate::qp::tests::test_cfg;
    use crate::qp::ReadRespJob;
    use crate::verbs::Verb;
    use lumina_packet::aeth::AethSyndrome;
    use lumina_packet::builder::{ack_frame, cnp_frame, nack_frame, DataPacketBuilder};
    use lumina_packet::reth::Reth;
    use lumina_packet::{Aeth, Ecn};

    #[test]
    fn token_pack_unpack() {
        let t = token::pack(token::TIMEOUT, 0xabcdef, 0xdead_beef);
        assert_eq!(token::unpack(t), (token::TIMEOUT, 0xabcdef, 0xdead_beef));
        let t2 = token::pack(token::TX_WHEEL, 0, 0);
        assert_eq!(token::unpack(t2), (token::TX_WHEEL, 0, 0));
    }

    /// A device with `n` QPs cycling through the six scheduling-relevant
    /// states, under QPNs whose numeric order is not their creation order
    /// and with per-QP packet sizes and pacing so candidates are distinct.
    fn mixed_rnic(n: usize) -> Rnic {
        let mut rnic = Rnic::new(
            DeviceProfile::cx6_dx(),
            EtsConfig::single_queue(),
            MacAddr::local(1),
        );
        for i in 0..n {
            // Odd multiplier: a bijection on 24 bits, so QPNs are unique.
            let qpn = (i as u32).wrapping_mul(0x9e_3779) & 0xff_ffff;
            let mut cfg = test_cfg(1024, 100, 200);
            cfg.local.qpn = qpn;
            cfg.remote.qpn = qpn ^ 1;
            rnic.create_qp(cfg);
            let qp = rnic.qp_mut(qpn).unwrap();
            qp.next_allowed_tx = SimTime::from_nanos(i as u64 * 10);
            let len = 64 + i as u32;
            let (tx, read_resp) = match i % 6 {
                0 => (true, false),
                1 => (false, true),
                2 => (true, true),
                3 => (false, false),
                4 => {
                    qp.recovery_wait = true;
                    (true, false)
                }
                _ => {
                    qp.state = QpState::Error;
                    (true, true)
                }
            };
            if tx {
                qp.push_wqe(WorkRequest {
                    wr_id: i as u64,
                    verb: Verb::Write,
                    len,
                });
            }
            if read_resp {
                qp.read_jobs.push_back(ReadRespJob {
                    next_lin: 0,
                    end_lin: 1,
                    msg_base_lin: 0,
                    msg_end_lin: 1,
                    msg_len: len,
                });
            }
        }
        rnic
    }

    /// The candidate walk as it was first written: collect the keys,
    /// rotate by index, look each QP up again.
    fn reference_candidates(rnic: &Rnic) -> Vec<((u32, bool), TxCandidate)> {
        let qpns = rnic.qpns();
        let n = qpns.len();
        let mut out = Vec::new();
        for i in 0..n {
            let qpn = qpns[(rnic.rr_cursor + i) % n];
            let qp = rnic.qp(qpn).unwrap();
            let cand = |size| TxCandidate {
                tc: qp.cfg.traffic_class,
                eligible_at: qp.next_allowed_tx,
                size,
            };
            if qp.has_tx_work() {
                out.push(((qpn, false), cand(Rnic::peek_req_size(qp))));
            }
            if qp.has_read_resp_work() {
                out.push(((qpn, true), cand(Rnic::peek_read_resp_size(qp))));
            }
        }
        out
    }

    /// The table's round-robin sequence at the device's cursor as
    /// `(owner, candidate)` pairs.
    fn table_candidates(rnic: &mut Rnic) -> Vec<((u32, bool), TxCandidate)> {
        rnic.qps.candidates(rnic.rr_cursor).map(|(c, owner)| (owner, c)).collect()
    }

    #[test]
    fn candidate_walk_keeps_the_rotated_qpn_order() {
        for n in [0, 1, 2, 7, 256] {
            let mut rnic = mixed_rnic(n);
            for cursor in 0..2 * n + 1 {
                rnic.rr_cursor = cursor;
                let got = table_candidates(&mut rnic);
                assert_eq!(got, reference_candidates(&rnic), "{n} QPs, cursor {cursor}");
                // Two of every six QPs offer request work, two read
                // responses (one of them both).
                let offering = |k: usize| (n + 5 - k) / 6;
                assert_eq!(
                    got.len(),
                    offering(0) + offering(1) + 2 * offering(2),
                    "{n} QPs"
                );
            }
        }
    }

    /// Creation order is not slot order, and nothing is looked up or
    /// walked until every QP exists: the table builds its index and its
    /// offers once, from 2 048 slots that each moved on every insert.
    #[test]
    fn qps_created_in_descending_order_are_found_and_walked_ascending() {
        const N: u32 = 2048;
        let qpn_of = |rank: u32| 0x10 + rank * 0x1f3;
        let mut rnic = Rnic::new(
            DeviceProfile::cx6_dx(),
            EtsConfig::single_queue(),
            MacAddr::local(1),
        );
        let create = |rnic: &mut Rnic, qpn: u32| {
            let mut cfg = test_cfg(1024, 100, 200);
            cfg.local.qpn = qpn;
            rnic.create_qp(cfg);
        };
        for rank in (0..N).rev() {
            create(&mut rnic, qpn_of(rank));
        }
        assert_eq!(rnic.qpns(), (0..N).map(qpn_of).collect::<Vec<_>>());
        for rank in 0..N {
            assert_eq!(rnic.qps.lookup(qpn_of(rank)), Some(rank as usize));
            assert_eq!(rnic.qps.lookup(qpn_of(rank) + 1), None);
        }
        assert_eq!(rnic.qps.lookup(0), None);
        assert_eq!(rnic.qps.lookup(u32::MAX), None);

        let post = |rnic: &mut Rnic, rank: u32| {
            let wr = WorkRequest { wr_id: rank as u64, verb: Verb::Write, len: 64 + rank };
            rnic.qp_mut(qpn_of(rank)).unwrap().push_wqe(wr);
        };
        let walks_like_the_reference = |rnic: &mut Rnic| {
            for cursor in [0, 1, 1000, N as usize - 1, N as usize, 5000] {
                rnic.rr_cursor = cursor;
                assert_eq!(table_candidates(rnic), reference_candidates(rnic), "cursor {cursor}");
            }
            table_candidates(rnic).len()
        };
        (0..N).step_by(3).for_each(|rank| post(&mut rnic, rank));
        assert_eq!(walks_like_the_reference(&mut rnic), N.div_ceil(3) as usize);

        // A QP created after the table was built moves every slot again.
        create(&mut rnic, 0x5);
        assert_eq!(rnic.qps.lookup(0x5), Some(0));
        assert_eq!(rnic.qps.lookup(qpn_of(N - 1)), Some(N as usize));
        post(&mut rnic, 1);
        assert_eq!(walks_like_the_reference(&mut rnic), N.div_ceil(3) as usize + 1);
    }

    /// `mixed_rnic` with every QP under DCQCN pacing, so a transmit moves
    /// the fired QP's `eligible_at` as well as its head packet.
    fn paced_rnic(n: usize, cursor: usize) -> Rnic {
        let mut rnic = mixed_rnic(n);
        rnic.rr_cursor = cursor;
        for qpn in rnic.qpns() {
            let mut rp = ReactionPoint::new(rnic.profile.port_bandwidth, rnic.dcqcn_params.clone());
            rp.on_cnp();
            rnic.qp_mut(qpn).unwrap().rp = Some(rp);
        }
        rnic
    }

    #[test]
    fn gated_tx_kick_equals_the_ungated_computation() {
        let ns = SimTime::from_nanos;
        for n in [0, 1, 7, 256] {
            for cursor in [0, n / 2, n] {
                for (now, port_free) in [(100, 0), (100, 100), (100, 350), (5_000, 350)] {
                    for armed in [None, Some(0), Some(100), Some(101), Some(350), Some(351), Some(9_000)] {
                        let build = || {
                            let mut rnic = paced_rnic(n, cursor);
                            rnic.port_free = ns(port_free);
                            rnic.tx_armed_at = armed.map(ns);
                            rnic
                        };
                        let (mut gated, mut ungated) = (build(), build());
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        gated.tx_kick(ns(now), &mut got);
                        ungated.tx_arm(ns(now), &mut want);
                        let case = format!("{n} QPs, now {now}, port_free {port_free}, armed {armed:?}");
                        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{case}");
                        assert_eq!(gated.tx_armed_at, ungated.tx_armed_at, "{case}");
                    }
                }
            }
        }
    }
    /// 64 QPs over two traffic classes, under QPNs whose numeric order is
    /// not their creation order: every third a DCQCN reaction point, every
    /// fifth a notification point, receives posted for SEND traffic.
    fn diff_rnic(profile: DeviceProfile) -> Rnic {
        let ets = EtsConfig::equal_weights(2, true);
        let mut rnic = Rnic::new(profile, ets, MacAddr::local(1));
        for i in 0..64u32 {
            let qpn = i.wrapping_mul(0x9e_3779) & 0xff_ffff;
            let mut cfg = test_cfg(1024, 100 + i, 200 + i);
            cfg.local.qpn = qpn;
            cfg.remote.qpn = qpn ^ 1;
            cfg.traffic_class = (i % 2) as usize;
            cfg.dcqcn_rp = i % 3 == 0;
            cfg.dcqcn_np = i % 5 == 0;
            rnic.create_qp(cfg);
            for wr_id in 0..4 {
                rnic.post_recv(qpn, wr_id, 1 << 20);
            }
        }
        rnic
    }

    /// FNV-64 over everything the device hands its host, in order.
    struct Transcript {
        hash: u64,
        /// Trace id of the first frame the test's thread mints, so the ids
        /// hashed count frames from there wherever the thread started.
        first_id: u64,
    }

    impl Transcript {
        fn new() -> Transcript {
            let first_id = lumina_packet::buf::next_trace_id();
            Transcript { hash: 0xcbf2_9ce4_8422_2325, first_id }
        }

        /// Fold one returned action list: frame bytes and trace ids, timer
        /// instants and tokens, completions.
        fn fold(&mut self, actions: &[Action]) {
            let mut text = String::new();
            for act in actions {
                match act {
                    Action::Emit(f) => {
                        let id = f.trace_id().wrapping_sub(self.first_id);
                        text += &format!("Emit({id}, {:?})", f.as_bytes());
                    }
                    other => text += &format!("{other:?}"),
                }
            }
            text.push('\n');
            for b in text.bytes() {
                self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// One random operation on a random QP: a posted work request, a frame
    /// from the peer (in order, duplicate or ahead), a timer of any kind
    /// (current or stale epoch), or an edit through `qp_mut`.
    fn random_op(
        rnic: &mut Rnic,
        rng: &mut lumina_sim::SimRng,
        now: SimTime,
        transcript: &mut Transcript,
    ) -> String {
        let qpns = rnic.qpns();
        let qpn = qpns[rng.index(qpns.len())];
        let qp = rnic.qp(qpn).unwrap().clone();
        // A position just behind, on, or ahead of `lin`.
        let mut near = |lin: u64| (lin + rng.below(4)).saturating_sub(1);
        let (req_lin, una_lin) = (near(qp.epsn_lin), near(qp.snd_una_lin()));
        let from_peer = || {
            DataPacketBuilder::new()
                .src_ip(qp.cfg.remote.ip)
                .dst_ip(qp.cfg.local.ip)
                .dest_qp(qpn)
        };
        let ack = AethSyndrome::Ack { credit: 31 };
        let epoch = |current: u32, rng: &mut lumina_sim::SimRng| {
            current.wrapping_sub(u32::from(rng.chance(0.25)))
        };
        let kind = rng.below(20);
        let actions = match kind {
            0..=2 => {
                let verb = [Verb::Write, Verb::Send, Verb::Read][rng.index(3)];
                let len = 1 + rng.below(5000) as u32;
                rnic.post_send(qpn, WorkRequest { wr_id: 7, verb, len }, now)
            }
            3 | 4 => {
                let ops = [
                    Opcode::SendOnly,
                    Opcode::SendFirst,
                    Opcode::SendMiddle,
                    Opcode::SendLast,
                    Opcode::RdmaWriteMiddle,
                    Opcode::RdmaWriteLast,
                ];
                let frame = from_peer()
                    .opcode(ops[rng.index(ops.len())])
                    .psn(qp.remote_wire_psn(req_lin))
                    .ack_req(rng.chance(0.5))
                    .mig_req(rng.chance(0.5))
                    .ecn(if rng.chance(0.3) { Ecn::Ce } else { Ecn::Ect0 })
                    .payload_len(rng.below(1025) as usize);
                rnic.on_frame(frame.build().emit(), now)
            }
            5 | 6 => {
                let frame = from_peer()
                    .opcode(Opcode::RdmaReadRequest)
                    .psn(qp.remote_wire_psn(req_lin))
                    .mig_req(rng.chance(0.5))
                    .reth(Reth {
                        vaddr: 0,
                        rkey: 0,
                        dma_len: rng.below(4097) as u32,
                    });
                rnic.on_frame(frame.build().emit(), now)
            }
            7 => {
                let (src, dst) = (qp.cfg.remote.ip, qp.cfg.local.ip);
                rnic.on_frame(ack_frame(src, dst, qpn, qp.wire_psn(una_lin), ack, 0).emit(), now)
            }
            8 => {
                let expected = qp.wire_psn(una_lin);
                let (src, dst) = (qp.cfg.remote.ip, qp.cfg.local.ip);
                rnic.on_frame(nack_frame(src, dst, qpn, expected, 0).emit(), now)
            }
            9 => rnic.on_frame(cnp_frame(qp.cfg.remote.ip, qp.cfg.local.ip, qpn).emit(), now),
            10 if qp.has_unacked() => {
                let mut frame = from_peer().psn(qp.wire_psn(una_lin)).payload_len(512);
                frame = if rng.chance(0.5) {
                    frame.opcode(Opcode::RdmaReadResponseMiddle)
                } else {
                    let aeth = Aeth { syndrome: ack, msn: 0 };
                    frame.opcode(Opcode::RdmaReadResponseOnly).aeth(aeth)
                };
                rnic.on_frame(frame.build().emit(), now)
            }
            10 | 11 => rnic.on_timer(token::pack(token::TX_WHEEL, 0, 0), now),
            12 => rnic.on_timer(token::pack(token::TIMEOUT, qpn, epoch(qp.timer_epoch, rng)), now),
            13 => rnic.on_timer(token::pack(token::NACK_GEN, qpn, 0), now),
            14 => rnic.on_timer(token::pack(token::NACK_REACT, qpn, 0), now),
            15 => {
                let kind = [token::READ_OOO, token::READ_REACT, token::APM_SERVICE][rng.index(3)];
                rnic.on_timer(token::pack(kind, qpn, 0), now)
            }
            16 => {
                let kind = [token::DCQCN_ALPHA, token::DCQCN_RATE][rng.index(2)];
                let tok = token::pack(kind, qpn, epoch(qp.dcqcn_timer_epoch, rng));
                if kind == token::DCQCN_ALPHA && now.as_nanos().is_multiple_of(2) {
                    // The host's entry for the tick: its answer must be the
                    // one action `on_timer` returns.
                    let at = rnic.dcqcn_alpha_tick(tok, now);
                    at.map(|at| Action::ArmTimer { at, token: tok }).into_iter().collect()
                } else {
                    rnic.on_timer(tok, now)
                }
            }
            _ => {
                let live = rnic.qp_mut(qpn).unwrap();
                match kind {
                    17 => live.recovery_wait = !live.recovery_wait,
                    18 if rng.chance(0.2) => {
                        let flipped = [QpState::Error, QpState::Rts];
                        live.state = flipped[usize::from(live.state == QpState::Error)];
                    }
                    18 => live.next_allowed_tx = now + SimTime::from_nanos(rng.below(2_000)),
                    _ => {
                        let unsent = live.snd_nxt_lin() - live.snd_una_lin();
                        live.set_send_ptr_lin(live.snd_nxt_lin() - rng.below(unsent + 1));
                    }
                }
                Vec::new()
            }
        };
        transcript.fold(&actions);
        rnic.recycle(actions);
        format!("op {kind} on QP {qpn:#x}")
    }

    #[test]
    fn table_candidates_equal_the_full_walk_after_every_operation() {
        // cx5 queues MigReq-0 requests behind its APM service loop; cx4_lx
        // stalls its RX pipeline when read recoveries pile up.
        let mut transcript = Transcript::new();
        for (seed, profile) in [(1, DeviceProfile::cx5()), (2, DeviceProfile::cx4_lx())] {
            let mut rng = lumina_sim::SimRng::seed_from_u64(seed);
            let mut rnic = diff_rnic(profile);
            let n = rnic.qpns().len();
            let mut now = SimTime::ZERO;
            let mut ready_seen = 0;
            for step in 0..4_000 {
                now += SimTime::from_nanos(rng.below(300));
                let op = random_op(&mut rnic, &mut rng, now, &mut transcript);
                let case = format!("seed {seed}, step {step}, {op}");

                let cursor = rnic.rr_cursor;
                for c in [0, 1, n - 1, n, 3 * n + 7] {
                    rnic.rr_cursor = c;
                    let want = reference_candidates(&rnic);
                    assert_eq!(table_candidates(&mut rnic), want, "{case}, cursor {c}");
                }
                rnic.rr_cursor = cursor;
                ready_seen += table_candidates(&mut rnic).len();

                // Whatever arrived, every QP's sequence space is in order.
                for qpn in rnic.qpns() {
                    let qp = rnic.qp(qpn).unwrap();
                    assert!(
                        qp.snd_una_lin() <= qp.send_ptr_lin()
                            && qp.send_ptr_lin() <= qp.snd_nxt_lin()
                            && qp.max_sent_lin() <= qp.snd_nxt_lin(),
                        "{case}: QP {qpn:#x} una {} ptr {} nxt {} max_sent {}",
                        qp.snd_una_lin(),
                        qp.send_ptr_lin(),
                        qp.snd_nxt_lin(),
                        qp.max_sent_lin(),
                    );
                }

                // With no tick pending the gate lets `tx_kick` through: it
                // must arm where a full walk says.
                let all: Vec<TxCandidate> =
                    reference_candidates(&rnic).into_iter().map(|(_, c)| c).collect();
                let opp = rnic.ets.next_opportunity(now, all.iter().copied());
                let want = opp.map(|t| t.max(rnic.port_free).max(now));
                let armed = rnic.tx_armed_at.take();
                let mut got = Vec::new();
                rnic.tx_kick(now, &mut got);
                assert_eq!(rnic.tx_armed_at, want, "{case}");
                assert_eq!(got.len(), usize::from(want.is_some()), "{case}");
                rnic.tx_armed_at = armed;
            }
            // The walk had something to order: several candidates a step.
            assert!(ready_seen > 4 * 4_000, "seed {seed}: {ready_seen} candidates");
            assert!(rnic.counters.tx_packets > 200, "seed {seed}: {:?}", rnic.counters);
        }
        // Every action list the 8 000 operations returned — stale epochs,
        // duplicate and ahead-of-window frames, every timer kind on every
        // QP state. Recorded before the device's `impl` split by role; a
        // changed hash is a behaviour change to explain, not to re-record.
        assert_eq!(transcript.hash, 0x77a9_0458_ba29_6829, "saw {:#018x}", transcript.hash);
    }
}
