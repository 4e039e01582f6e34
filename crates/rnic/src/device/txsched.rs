//! Egress: the transmit wheel, the ETS decision over the QP table's
//! ready list, and the one data packet a tick puts on the wire.

use super::{arm, token, Action, Rnic};
use crate::qp::Qp;
use crate::verbs::Verb;
use lumina_sim::SimTime;

impl Rnic {
    /// Arm the transmit wheel if data work exists and no earlier tick is
    /// already pending.
    pub(super) fn tx_kick(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        // A tick armed at or before the first instant the port could send
        // cannot be beaten (`tx_arm` clamps to that instant): skip the walk.
        let floor = self.port_free.max(now);
        if self.tx_armed_at.is_some_and(|at| at <= floor) {
            return;
        }
        self.tx_arm(now, actions);
    }

    /// Arm the transmit wheel at the candidates' next opportunity unless a
    /// tick is already pending at or before it.
    pub(super) fn tx_arm(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        let cands = self.qps.candidates(self.rr_cursor).map(|(c, _)| c);
        let Some(opp) = self.ets.next_opportunity(now, cands) else {
            return;
        };
        let next = opp.max(self.port_free).max(now);
        if self.tx_armed_at.is_none_or(|at| next < at) {
            self.tx_armed_at = Some(next);
            arm(actions, next, token::TX_WHEEL, 0, 0);
        }
    }

    pub(crate) fn peek_req_size(qp: &Qp) -> usize {
        let lin = qp.send_ptr_lin();
        let Some(m) = qp.msg_at(lin) else { return 64 };
        let chunk = match m.verb {
            Verb::Read => 0, // read request, no payload
            _ => qp.cfg.chunk_len(m.len, (lin - m.base_lin) as u32) as usize,
        };
        14 + 20 + 8 + 12 + 16 + chunk + 4
    }

    pub(crate) fn peek_read_resp_size(qp: &Qp) -> usize {
        let Some(job) = qp.read_jobs.front() else { return 64 };
        let idx = (job.next_lin - job.msg_base_lin) as u32;
        let chunk = qp.cfg.chunk_len(job.msg_len, idx) as usize;
        14 + 20 + 8 + 12 + 4 + chunk + 4
    }

    /// Transmit-wheel tick: emit at most one data packet, then re-arm.
    pub(super) fn tx_fire(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        if now < self.port_free {
            self.tx_kick(now, actions);
            return;
        }
        let picked = {
            let mut cands = self.qps.candidates(self.rr_cursor);
            let pick = match cands.clone().next() {
                // An empty pick would still refill the scheduler's buckets.
                None => None,
                Some(_) => self.ets.pick(now, cands.clone().map(|(c, _)| c)),
            };
            pick.and_then(|i| cands.nth(i))
        };
        if let Some((cand, (qpn, is_read_resp))) = picked {
            self.transmit(qpn, is_read_resp, cand.size, now, actions);
        }
        // Re-arm from the table as the transmit left it: only the fired
        // QP's offer is re-read.
        self.tx_arm(now, actions);
    }

    /// Put the head packet (`size` bytes as offered) of `qpn`'s request or
    /// read-response work on the wire.
    fn transmit(
        &mut self,
        qpn: u32,
        is_read_resp: bool,
        size: usize,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let i = self.qps.lookup(qpn).expect("the table names an unknown QP");
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        let mut frame = if is_read_resp {
            self.gen_read_resp_frame(i)
        } else {
            self.gen_req_frame(i, now)
        };
        // Misbehavior plane: ICRC miscompute flips the emitted trailer;
        // ghost retransmits duplicate the previous data frame of this QP
        // unprovoked.
        let mut ghost = None;
        if let Some(q) = self.quirks.as_mut() {
            q.maybe_corrupt_icrc(&mut frame);
            ghost = q.ghost_frame(qpn, &frame);
        }
        let line = lumina_packet::frame::line_occupancy_of(frame.len());
        self.port_free = now + self.profile.port_bandwidth.serialization_time(line);
        self.counters.tx_packets += 1;
        self.counters.tx_bytes += size as u64;
        self.pace(i, line, now);
        actions.push(Action::Emit(frame));
        if let Some(g) = ghost {
            self.counters.tx_packets += 1;
            actions.push(Action::Emit(g));
        }
        self.arm_timeout_if_needed(i, now, actions);
    }
}
