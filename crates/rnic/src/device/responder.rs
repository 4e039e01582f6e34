//! The responder half: requests in (in order, ahead of the expected PSN, or
//! duplicate), ACK / NACK generation, and read responses out.

use super::{arm, token, Action, Rnic};
use crate::qp::{QpConfig, QpState, ReadRespJob, RecvProgress};
use crate::quirks;
use crate::verbs::{Completion, CompletionStatus};
use lumina_packet::aeth::AethSyndrome;
use lumina_packet::builder::{ack_frame, nack_frame, DataPacketBuilder};
use lumina_packet::frame::RoceFrame;
use lumina_packet::opcode::{read_response_opcode, Opcode};
use lumina_packet::{Aeth, Frame};
use lumina_sim::SimTime;
use std::cmp::Ordering;

/// The responses the read request `frame` asks for, the first of them at
/// linear PSN `base_lin` of the requester's stream.
fn read_job(cfg: &QpConfig, frame: &RoceFrame, base_lin: u64) -> ReadRespJob {
    let msg_len = frame.ext.reth.map(|r| r.dma_len).unwrap_or(0);
    let end_lin = base_lin + cfg.packets_for(msg_len) as u64;
    ReadRespJob {
        next_lin: base_lin,
        end_lin,
        msg_base_lin: base_lin,
        msg_end_lin: end_lin,
        msg_len,
    }
}

impl Rnic {
    pub(super) fn responder_rx(
        &mut self,
        i: usize,
        frame: &RoceFrame,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qp = self.qps.get_mut(i);
        if qp.state == QpState::Error {
            return;
        }
        let lin = qp.remote_lin_from_wire(qp.epsn_lin, frame.bth.psn);

        // New-round detection (the responder-side mirror of the injector's
        // ITER rule): an arriving PSN not larger than the last arrival
        // means the sender went back — the current out-of-sequence episode
        // is over, and continued OOO deserves a fresh NACK.
        if frame.bth.opcode.is_data() {
            if qp.resp_last_arrived.is_some_and(|last| lin <= last as i64) {
                qp.nack_state = false;
            }
            if lin >= 0 {
                qp.resp_last_arrived = Some(lin as u64);
            }
        }

        match lin.cmp(&(qp.epsn_lin as i64)) {
            Ordering::Equal => self.rx_in_order(i, frame, now, actions),
            Ordering::Greater => self.rx_ahead(i, now, actions),
            Ordering::Less => self.rx_duplicate(i, frame, lin as u64, now, actions),
        }
    }

    /// The expected request packet: execute it.
    fn rx_in_order(
        &mut self,
        i: usize,
        frame: &RoceFrame,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qpn = self.qps.qpn(i);
        let qp = self.qps.get_mut(i);
        qp.nack_state = false;
        let op = frame.bth.opcode;
        if op == Opcode::RdmaReadRequest {
            let job = read_job(&qp.cfg, frame, qp.epsn_lin);
            qp.epsn_lin = job.end_lin;
            qp.msn = qp.msn.wrapping_add(1) & 0xff_ffff;
            qp.read_jobs.push_back(job);
            return;
        }
        if !op.has_payload() {
            return;
        }
        let lin = qp.epsn_lin;
        qp.epsn_lin += 1;
        self.counters.rx_bytes += frame.payload.len() as u64;
        // The SEND opcodes are the first six.
        let is_send = op.value() <= Opcode::SendOnlyImm.value();
        if is_send {
            if op.is_first() && qp.recv_progress.is_none() {
                // No receive posted: a real responder sends RNR NAK; the
                // traffic generator always pre-posts, so just account it.
                let posted = qp.recv_queue.pop_front();
                let wr_id = posted.map_or(u64::MAX, |(wr_id, _len)| wr_id);
                qp.recv_progress = Some(RecvProgress { bytes: 0, wr_id });
            }
            if let Some(p) = qp.recv_progress.as_mut() {
                p.bytes += frame.payload.len() as u32;
            }
        }
        if op.is_last() {
            qp.msn = qp.msn.wrapping_add(1) & 0xff_ffff;
            let received = if is_send { qp.recv_progress.take() } else { None };
            if let Some(p) = received.filter(|p| p.wr_id != u64::MAX) {
                actions.push(Action::Complete(Completion {
                    wr_id: p.wr_id,
                    qpn,
                    status: CompletionStatus::Success,
                    time: now,
                    is_recv: true,
                    len: p.bytes,
                }));
            }
        }
        if op.is_last() || frame.bth.ack_req {
            self.emit_ack_for(i, lin, actions);
        }
    }

    /// A request beyond the expected PSN: Go-back-N NACK, once per
    /// out-of-sequence episode.
    fn rx_ahead(&mut self, i: usize, now: SimTime, actions: &mut Vec<Action>) {
        let qpn = self.qps.qpn(i);
        self.counters.out_of_sequence += 1;
        let qp = self.qps.get_mut(i);
        if !qp.nack_state {
            qp.nack_state = true;
            qp.nack_scheduled = true;
            arm(actions, now + self.profile.nack_gen_write, token::NACK_GEN, qpn, 0);
        }
    }

    /// A request at `lin`, before the expected PSN.
    fn rx_duplicate(
        &mut self,
        i: usize,
        frame: &RoceFrame,
        lin: u64,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qpn = self.qps.qpn(i);
        self.counters.duplicate_request += 1;
        let qp = self.qps.get_mut(i);
        if frame.bth.opcode == Opcode::RdmaReadRequest {
            // Re-executed duplicate read = the retransmission path. The
            // responder takes its read reaction latency before the
            // retransmitted responses start flowing (Figure 9b); the
            // retransmitted range ends where the original did.
            let pkts_beyond = (qp.epsn_lin - lin) as u32;
            let job = read_job(&qp.cfg, frame, lin);
            qp.delayed_read_jobs.push_back(job);
            let delay = self.profile.nack_react_read(pkts_beyond);
            arm(actions, now + delay, token::READ_REACT, qpn, 0);
        } else if frame.bth.opcode.is_data() {
            // Duplicate write/send: acknowledge what we have.
            let ack_lin = qp.epsn_lin.saturating_sub(1);
            self.emit_ack_for(i, ack_lin, actions);
        }
    }

    fn emit_ack_for(&mut self, i: usize, mut lin: u64, actions: &mut Vec<Action>) {
        let qpn = self.qps.qpn(i);
        let mut msn = self.qps.get(i).msn;
        if let Some(q) = self.quirks.as_mut() {
            match q.ack_fate(qpn) {
                quirks::AckFate::Deliver => {}
                // A swallowed or coalesced ACK is simply never emitted;
                // the requester recovers via a later cumulative ACK or
                // its retransmission timeout.
                quirks::AckFate::Drop | quirks::AckFate::Coalesce => return,
            }
            lin = lin.wrapping_add(q.ack_psn_skew());
            msn = q.msn_override(msn);
        }
        let qp = self.qps.get(i);
        let ack = ack_frame(
            qp.cfg.local.ip,
            qp.cfg.remote.ip,
            qp.cfg.remote.qpn,
            qp.remote_wire_psn(lin),
            AethSyndrome::Ack { credit: 31 },
            msn,
        );
        self.emit_ctrl(i, ack, actions);
    }

    /// The NACK generation latency elapsed: emit the scheduled NACK.
    pub(super) fn nack_gen_fire(&mut self, i: usize, actions: &mut Vec<Action>) {
        let qp = self.qps.get_mut(i);
        if !qp.nack_scheduled {
            return;
        }
        qp.nack_scheduled = false;
        // Go-back-N off-by-one quirk: NACK one PSN beyond the expected one
        // (the classic resume-point bug).
        let nack_skew = self
            .quirks
            .as_mut()
            .map_or(0, quirks::QuirkPlane::nack_skew);
        let nack = nack_frame(
            qp.cfg.local.ip,
            qp.cfg.remote.ip,
            qp.cfg.remote.qpn,
            qp.remote_wire_psn(qp.epsn_lin.wrapping_add(nack_skew)),
            qp.msn,
        );
        self.emit_ctrl(i, nack, actions);
    }

    /// The read reaction latency elapsed: the retransmitted responses
    /// start flowing.
    pub(super) fn read_react_fire(&mut self, i: usize, now: SimTime, actions: &mut Vec<Action>) {
        let qp = self.qps.get_mut(i);
        if let Some(job) = qp.delayed_read_jobs.pop_front() {
            qp.read_jobs.push_back(job);
        }
        self.tx_kick(now, actions);
    }

    /// The next read-response packet of QP `i`'s head job.
    pub(super) fn gen_read_resp_frame(&mut self, i: usize) -> Frame {
        let qp = self.qps.get_mut(i);
        let job = qp.read_jobs.front_mut().expect("no read job");
        let lin = job.next_lin;
        let idx_in_msg = (lin - job.msg_base_lin) as u32;
        let total = (job.msg_end_lin - job.msg_base_lin) as u32;
        let opcode = read_response_opcode(idx_in_msg, total);
        let chunk = qp.cfg.chunk_len(job.msg_len, idx_in_msg);
        job.next_lin += 1;
        if job.next_lin >= job.end_lin {
            qp.read_jobs.pop_front();
        }
        let mut b = DataPacketBuilder::new()
            .opcode(opcode)
            .psn(qp.remote_wire_psn(lin))
            .payload_len(chunk as usize);
        if opcode.has_aeth() {
            let mut msn = qp.msn;
            if let Some(q) = self.quirks.as_mut() {
                msn = q.msn_override(msn);
            }
            b = b.aeth(Aeth {
                syndrome: AethSyndrome::Ack { credit: 31 },
                msn,
            });
        }
        self.addressed(i, b.build()).emit()
    }
}
