//! The requester half: responses in (ACK, sequence-error NAK, read
//! response), Go-back-N recovery (NACK reaction, implied NAK, timeout) and
//! request frames out. A QP's sequence space moves only through the
//! writers in [`crate::qp`]; `rewind` and `arm_timeout` here are the one
//! Go-back-N rollback and the one retransmission-timer arm.

use super::{arm, completed, token, Action, Rnic};
use crate::qp::QpState;
use crate::timeout::TimeoutPolicy;
use crate::verbs::{CompletionStatus, Verb};
use lumina_packet::aeth::AethSyndrome;
use lumina_packet::builder::DataPacketBuilder;
use lumina_packet::frame::RoceFrame;
use lumina_packet::opcode::{send_opcode, write_opcode, Opcode};
use lumina_packet::reth::Reth;
use lumina_packet::{Frame, NakCode};
use lumina_sim::SimTime;
use lumina_telemetry::Hop;

impl Rnic {
    pub(super) fn requester_rx(
        &mut self,
        i: usize,
        frame: &RoceFrame,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let op = frame.bth.opcode;
        if op == Opcode::Acknowledge {
            match frame.ext.aeth.map(|a| a.syndrome) {
                Some(AethSyndrome::Ack { .. }) => self.rx_ack(i, frame.bth.psn, now, actions),
                Some(AethSyndrome::Nak(NakCode::PsnSequenceError)) => {
                    self.rx_seq_nak(i, frame.bth.psn, now, actions);
                }
                _ => {}
            }
        } else if op.is_read_response() {
            self.rx_read_response(i, frame, now, actions);
        }
    }

    fn rx_ack(&mut self, i: usize, wire_psn: u32, now: SimTime, actions: &mut Vec<Action>) {
        if self.qps.get_mut(i).note_ack(wire_psn) {
            self.advance_una_from_acks(i, now, actions);
        }
    }

    /// Advance `snd_una` as far as the cumulative ACKs seen allow.
    fn advance_una_from_acks(&mut self, i: usize, now: SimTime, actions: &mut Vec<Action>) {
        let qp = self.qps.get_mut(i);
        if qp.ack_through(qp.acked_prefix()) {
            self.complete_through(i, now, actions);
            self.arm_timeout(i, now, actions);
        }
    }

    fn rx_seq_nak(&mut self, i: usize, wire_psn: u32, now: SimTime, actions: &mut Vec<Action>) {
        let qpn = self.qps.qpn(i);
        self.counters.packet_seq_err += 1;
        let qp = self.qps.get_mut(i);
        let e_lin = qp.lin_from_wire(qp.snd_una_lin(), wire_psn);
        if !qp.can_ack(e_lin) {
            return;
        }
        let e_lin = e_lin as u64;
        // The NACK implicitly acknowledges everything before the expected
        // PSN.
        if qp.ack_through(e_lin) {
            self.complete_through(i, now, actions);
        }
        let qp = self.qps.get_mut(i);
        if !qp.recovery_wait {
            qp.recovery_wait = true;
            qp.pending_rewind = Some(e_lin);
            let pkts_beyond = qp.send_ptr_lin().saturating_sub(e_lin) as u32;
            let delay = self.profile.nack_react_write(pkts_beyond);
            arm(actions, now + delay, token::NACK_REACT, qpn, 0);
        }
        self.arm_timeout(i, now, actions);
    }

    fn rx_read_response(
        &mut self,
        i: usize,
        frame: &RoceFrame,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qp = self.qps.get_mut(i);
        let expected = qp.snd_una_lin();
        let lin = qp.lin_from_wire(expected, frame.bth.psn);
        // New-round detection (requester-side mirror of the ITER rule): a
        // response PSN not larger than the last arrival means the
        // responder went back — the current OOO episode is over.
        if qp.req_last_resp_arrived.is_some_and(|last| lin <= last as i64) {
            qp.read_episode = false;
        }
        if lin >= 0 {
            qp.req_last_resp_arrived = Some(lin as u64);
        }
        if lin == expected as i64 {
            // In order — unless nothing is outstanding: a response to no
            // request acknowledges nothing.
            if !qp.ack_through(expected + 1) {
                return;
            }
            qp.read_episode = false;
            self.counters.rx_bytes += frame.payload.len() as u64;
            self.complete_through(i, now, actions);
            // A completed Read may unblock ACK progress that was withheld
            // behind it (mixed-verb flows).
            self.advance_una_from_acks(i, now, actions);
            self.arm_timeout(i, now, actions);
        } else if lin > expected as i64 && !qp.read_episode && !qp.read_ooo_pending {
            // Out-of-order read response: the "implied NAK" (§6.1). This is
            // the slow path that costs ~150 µs on CX4 Lx and ~83 ms on the
            // E810 (Figure 8b), and whose concurrency stalls the CX4 Lx
            // pipeline (§6.2.2). One detection per out-of-sequence episode;
            // stale in-flight responses of the old round do not re-trigger.
            qp.read_episode = true;
            self.counters
                .record_implied_nak(&self.profile.counter_bugs);
            self.enter_read_recovery(i, now, actions);
        }
        // Duplicate responses (lin < expected) are dropped silently.
    }

    /// Deliver completions for all fully acknowledged messages and prune
    /// them.
    fn complete_through(&mut self, i: usize, now: SimTime, actions: &mut Vec<Action>) {
        let qpn = self.qps.qpn(i);
        let qp = self.qps.get_mut(i);
        let una = qp.snd_una_lin();
        // Messages sit in PSN order, so the acknowledged ones are a prefix.
        while let Some(m) = qp.msgs.front().filter(|m| m.end_lin() <= una) {
            if !m.completed {
                actions.push(completed(qpn, m.wr_id, m.len, CompletionStatus::Success, now));
            }
            qp.msgs.pop_front();
        }
    }

    // ---- Recovery ----

    /// Go-back-N for a NACK, an implied NAK and a timeout alike: move the
    /// transmit pointer back to `to` (never below `snd_una`) and journal it.
    fn rewind(&mut self, i: usize, to: u64, reason: &'static str, now: SimTime) {
        let qpn = self.qps.qpn(i);
        let to_lin = self.qps.get_mut(i).rewind_to(to);
        journal!(self, now, "gbn.rollback", qpn = qpn, to_lin = to_lin, reason = reason);
    }

    /// The NACK reaction latency elapsed: rewind and resume.
    pub(super) fn nack_react_fire(&mut self, i: usize, now: SimTime, actions: &mut Vec<Action>) {
        let qp = self.qps.get_mut(i);
        qp.recovery_wait = false;
        let pending = qp.pending_rewind.take();
        if let Some(to) = pending.filter(|&to| to < qp.send_ptr_lin()) {
            self.rewind(i, to, "nack", now);
        }
        self.tx_kick(now, actions);
    }

    /// The read slow path finished: re-issue the read request from the
    /// first missing PSN.
    pub(super) fn read_ooo_fire(&mut self, i: usize, now: SimTime, actions: &mut Vec<Action>) {
        let qp = self.qps.get_mut(i);
        if !qp.read_ooo_pending {
            return;
        }
        qp.read_ooo_pending = false;
        let (una, send_ptr) = (qp.snd_una_lin(), qp.send_ptr_lin());
        // The last recovery out of the slow-path engine unwedges the pipeline.
        self.pending_recoveries = self.pending_recoveries.saturating_sub(1);
        self.stall_wedged &= self.pending_recoveries > 0;
        if una < send_ptr {
            self.rewind(i, una, "read_ooo", now);
        }
        self.tx_kick(now, actions);
    }

    /// Admit QP `i`'s read recovery into the slow-path engine and arm the
    /// timer at which its processing completes (when the re-read request
    /// is emitted). On devices with the shared-context model, recoveries
    /// are serviced by a fixed pool of contexts; overflowing the pool
    /// wedges the RX pipeline until all pending recoveries drain.
    fn enter_read_recovery(&mut self, i: usize, now: SimTime, actions: &mut Vec<Action>) {
        let gen = self.profile.nack_gen_read;
        let mut fire = now + gen;
        let contexts = self.recovery_slots.len();
        // The context that frees up first (the earliest of equals).
        if let Some(slot) = self.recovery_slots.iter_mut().min_by_key(|free| **free) {
            self.pending_recoveries += 1;
            self.stall_wedged |= self.pending_recoveries > contexts;
            fire = (*slot).max(now) + gen;
            *slot = fire;
        }
        self.qps.get_mut(i).read_ooo_pending = true;
        arm(actions, fire, token::READ_OOO, self.qps.qpn(i), 0);
    }

    pub(super) fn timeout_fire(
        &mut self,
        i: usize,
        epoch: u32,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qpn = self.qps.qpn(i);
        let policy = TimeoutPolicy::for_profile(&self.profile, &self.qps.get(i).cfg);
        let qp = self.qps.get_mut(i);
        if epoch != qp.timer_epoch || !qp.has_unacked() || qp.state == QpState::Error {
            return;
        }
        if qp.read_ooo_pending {
            // The implied-NAK slow path already detected the loss and is
            // being processed; the timeout is deferred until it resolves
            // (this is what lets the E810's ~83 ms read slow path exceed
            // the configured 67 ms minimum timeout in Figure 8b).
            self.arm_timeout(i, now, actions);
            return;
        }
        self.counters.local_ack_timeout_err += 1;
        qp.consecutive_timeouts += 1;
        journal!(self, now, "timeout", qpn = qpn, consecutive = qp.consecutive_timeouts);
        if qp.consecutive_timeouts > policy.effective_retry_limit() {
            self.retry_exhausted(i, now, actions);
            return;
        }
        let una = qp.snd_una_lin();
        let oldest_is_read = qp.msg_at(una).is_some_and(|m| m.verb == Verb::Read);
        self.arm_timeout(i, now, actions);
        // On devices with the shared recovery engine (CX4 Lx), a timeout
        // on outstanding Read work is processed by the same slow path as
        // an implied NAK — which is how simultaneous timeout storms keep
        // re-wedging the pipeline (§6.2.2).
        if oldest_is_read && self.profile.noisy_neighbor.is_some() {
            self.enter_read_recovery(i, now, actions);
            return;
        }
        // Go-back-N from the oldest unacknowledged PSN.
        self.rewind(i, una, "timeout", now);
        self.tx_kick(now, actions);
    }

    /// Retry exhaustion: QP to error, flush outstanding work.
    fn retry_exhausted(&mut self, i: usize, now: SimTime, actions: &mut Vec<Action>) {
        let qpn = self.qps.qpn(i);
        journal!(self, now, "qp.error", qpn = qpn);
        let qp = self.qps.get_mut(i);
        qp.state = QpState::Error;
        qp.timeout_armed = false;
        for m in qp.msgs.iter_mut().filter(|m| !m.completed) {
            m.completed = true;
            actions.push(completed(qpn, m.wr_id, m.len, CompletionStatus::RetryExceeded, now));
        }
    }

    /// Restart the retransmission timer: what was armed before is stale from
    /// here on; a fresh timeout is armed if anything is unacknowledged.
    fn arm_timeout(&mut self, i: usize, now: SimTime, actions: &mut Vec<Action>) {
        let qpn = self.qps.qpn(i);
        let qp = self.qps.get_mut(i);
        qp.timer_epoch = qp.timer_epoch.wrapping_add(1);
        qp.timeout_armed = qp.has_unacked();
        if qp.timeout_armed {
            let policy = TimeoutPolicy::for_profile(&self.profile, &qp.cfg);
            let at = now + policy.timeout_for(qp.consecutive_timeouts);
            arm(actions, at, token::TIMEOUT, qpn, qp.timer_epoch);
        }
    }

    pub(super) fn arm_timeout_if_needed(
        &mut self,
        i: usize,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qp = self.qps.get(i);
        if qp.has_unacked() && !qp.timeout_armed {
            self.arm_timeout(i, now, actions);
        }
    }

    // ---- TX ----

    /// The request packet at QP `i`'s transmit pointer; the pointer moves
    /// past what it covers.
    pub(super) fn gen_req_frame(&mut self, i: usize, now: SimTime) -> Frame {
        let qpn = self.qps.qpn(i);
        let qp = self.qps.get_mut(i);
        let lin = qp.send_ptr_lin();
        let m = *qp.msg_at(lin).expect("tx pointer outside any message");
        let idx = (lin - m.base_lin) as u32;
        let is_retransmit = lin < qp.max_sent_lin();
        if is_retransmit {
            self.counters.retransmitted_packets += 1;
        }
        let builder = DataPacketBuilder::new().psn(qp.wire_psn(lin));
        let (frame, end) = match m.verb {
            Verb::Read => {
                let reth = Reth {
                    vaddr: 0x1000_0000 + (idx as u64 * qp.cfg.mtu as u64),
                    rkey: 0x1_0000 | (qpn & 0xffff),
                    dma_len: m.len - (idx * qp.cfg.mtu).min(m.len),
                };
                // The single request covers the rest of the message's PSN
                // range.
                let b = builder.opcode(Opcode::RdmaReadRequest).reth(reth);
                (b.build(), m.end_lin())
            }
            verb => {
                let opcode = if verb == Verb::Write {
                    write_opcode(idx, m.npkts)
                } else {
                    send_opcode(idx, m.npkts)
                };
                let mut b = builder
                    .opcode(opcode)
                    .ack_req(idx == m.npkts - 1)
                    .payload_len(qp.cfg.chunk_len(m.len, idx) as usize);
                if opcode.has_reth() {
                    b = b.reth(Reth {
                        vaddr: 0x2000_0000,
                        rkey: 0x2_0000 | (qpn & 0xffff),
                        dma_len: m.len,
                    });
                }
                (b.build(), lin + 1)
            }
        };
        qp.mark_sent(end);
        let emitted = self.addressed(i, frame).emit();
        if is_retransmit {
            let id = emitted.trace_id();
            journal!(self, now, hop(Hop::Retransmit, id), qpn = qpn, lin = lin);
        }
        emitted
    }
}
