//! Egress: the transmit wheel, the candidate scratch the ETS scheduler
//! picks from, and the one data packet a tick puts on the wire.

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
        self.candidates();
        self.tx_arm(now, actions);
    }

    /// Arm the transmit wheel at the scratch's next opportunity unless a
    /// tick is already pending at or before it.
    pub(super) fn tx_arm(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        let Some(opp) = self.ets.next_opportunity(now, &self.tx_cands) else {
            return;
        };
        let next = opp.max(self.port_free).max(now);
        if self.tx_armed_at.is_none_or(|at| next < at) {
            self.tx_armed_at = Some(next);
            arm(actions, next, token::TX_WHEEL, 0, 0);
        }
    }

    /// Refill the scheduling scratch with every transmit candidate, in
    /// round-robin order: QPs ascending by QPN, rotated to start at
    /// `rr_cursor`; within a QP, request work before read-response work.
    pub(super) fn candidates(&mut self) {
        self.tx_cands.clear();
        self.tx_owners.clear();
        self.qps
            .offer_all(self.rr_cursor, &mut self.tx_cands, &mut self.tx_owners);
    }

    /// Bring the scratch up to date after a transmit changed `qpn` and
    /// nothing else: drop its candidates (adjacent, one of them at `i`)
    /// and append its fresh ones. The round-robin order is lost, which
    /// `next_opportunity` — a `min` — does not see.
    pub(super) fn reoffer(&mut self, qpn: u32, i: usize) {
        let owners = &self.tx_owners;
        let lo = i - usize::from(i > 0 && owners[i - 1].0 == qpn);
        let hi = i + usize::from(owners.get(i + 1).is_some_and(|o| o.0 == qpn));
        for j in (lo..=hi).rev() {
            self.tx_owners.swap_remove(j);
            self.tx_cands.swap_remove(j);
        }
        let slot = self.qps.lookup(qpn).expect("scratch names an unknown QP");
        self.qps
            .offer_one(slot, &mut self.tx_cands, &mut self.tx_owners);
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
        self.candidates();
        // An empty pick would still refill the scheduler's buckets.
        if !self.tx_cands.is_empty() {
            if let Some(picked) = self.ets.pick(now, &self.tx_cands) {
                self.transmit(picked, now, actions);
            }
        }
        // The scratch is current — walked above, patched if a packet
        // left — so re-arm from it rather than walking again.
        self.tx_arm(now, actions);
    }

    /// Put the head packet of scratch candidate `picked` on the wire.
    fn transmit(&mut self, picked: usize, now: SimTime, actions: &mut Vec<Action>) {
        let (qpn, is_read_resp) = self.tx_owners[picked];
        let cand = self.tx_cands[picked];
        let i = self.qps.lookup(qpn).expect("scratch names an unknown QP");
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
        self.counters.tx_bytes += cand.size as u64;
        self.pace(i, line, now);
        actions.push(Action::Emit(frame));
        if let Some(g) = ghost {
            self.counters.tx_packets += 1;
            actions.push(Action::Emit(g));
        }
        self.arm_timeout_if_needed(i, now, actions);
        self.reoffer(qpn, picked);
    }
}
