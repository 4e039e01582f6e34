//! DCQCN on the device: CNPs out (notification point), CNPs in and the
//! alpha / rate timers (reaction point), and the pacing a rate cut imposes.
//! The state machines themselves are in [`crate::dcqcn`].

use super::{arm, token, Action, Rnic};
use crate::dcqcn::NotificationPoint;
use crate::quirks::QuirkPlane;
use lumina_packet::builder::cnp_frame;
use lumina_packet::frame::RoceFrame;
use lumina_sim::SimTime;

impl Rnic {
    /// A CE-marked data packet arrived on QP `i`: answer with a CNP if the
    /// QP is a notification point and the device's limiter allows one.
    pub(super) fn maybe_send_cnp(
        &mut self,
        i: usize,
        frame: &RoceFrame,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qpn = self.qps.qpn(i);
        let qp = self.qps.get(i);
        if !qp.cfg.dcqcn_np {
            return;
        }
        let interval =
            NotificationPoint::effective_interval(&self.profile, qp.cfg.min_time_between_cnps);
        let key = NotificationPoint::limiter_key(self.profile.cnp_mode, frame.ipv4.src, qpn);
        if !self.np.on_ce_packet(key, now, interval) {
            return;
        }
        // Suppressed-CNP quirk: the limiter approved this CNP, the device
        // eats it anyway. Neither wire nor counter sees it.
        let quirks = self.quirks.as_mut();
        if !quirks.is_some_and(QuirkPlane::suppress_cnp) {
            self.emit_cnp(i, now, actions);
        }
    }

    /// Count a CNP for QP `i`'s peer and put it on the wire.
    pub(super) fn emit_cnp(&mut self, i: usize, now: SimTime, actions: &mut Vec<Action>) {
        let qpn = self.qps.qpn(i);
        self.counters.record_cnp_sent(&self.profile.counter_bugs);
        journal!(self, now, "cnp.tx", qpn = qpn);
        let cfg = &self.qps.get(i).cfg;
        let cnp = cnp_frame(cfg.local.ip, cfg.remote.ip, cfg.remote.qpn);
        self.emit_ctrl(i, cnp, actions);
    }

    pub(super) fn rx_cnp(&mut self, i: usize, now: SimTime, actions: &mut Vec<Action>) {
        let qpn = self.qps.qpn(i);
        self.counters.rp_cnp_handled += 1;
        journal!(self, now, "cnp.rx", qpn = qpn);
        let qp = self.qps.get_mut(i);
        let Some(rp) = qp.rp.as_mut() else { return };
        rp.on_cnp();
        if !qp.dcqcn_timers_armed {
            qp.dcqcn_timers_armed = true;
            qp.dcqcn_timer_epoch = qp.dcqcn_timer_epoch.wrapping_add(1);
            let epoch = qp.dcqcn_timer_epoch;
            self.arm_dcqcn(token::DCQCN_ALPHA, qpn, epoch, now, actions);
            self.arm_dcqcn(token::DCQCN_RATE, qpn, epoch, now, actions);
        }
    }

    /// Arm QP `qpn`'s alpha-update or rate-increase timer one period out.
    fn arm_dcqcn(&self, kind: u8, qpn: u32, epoch: u32, now: SimTime, actions: &mut Vec<Action>) {
        let period = match kind {
            token::DCQCN_ALPHA => self.dcqcn_params.alpha_timer,
            _ => self.dcqcn_params.rate_timer,
        };
        arm(actions, now + period, kind, qpn, epoch);
    }

    /// Alpha-update tick: decay alpha, and keep ticking until the QP is
    /// back at line rate with nothing left to decay.
    pub(super) fn dcqcn_alpha_fire(
        &mut self,
        i: usize,
        epoch: u32,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qpn = self.qps.qpn(i);
        let qp = self.qps.get_mut(i);
        if epoch != qp.dcqcn_timer_epoch {
            return;
        }
        let Some(rp) = qp.rp.as_mut() else { return };
        rp.on_alpha_timer();
        if rp.at_line_rate() && rp.alpha < 1e-3 {
            qp.dcqcn_timers_armed = false;
            qp.dcqcn_timer_epoch = qp.dcqcn_timer_epoch.wrapping_add(1);
        } else {
            self.arm_dcqcn(token::DCQCN_ALPHA, qpn, epoch, now, actions);
        }
    }

    /// Rate-increase tick: raise the rate, and keep ticking until it is
    /// back at line rate.
    pub(super) fn dcqcn_rate_fire(
        &mut self,
        i: usize,
        epoch: u32,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qpn = self.qps.qpn(i);
        let qp = self.qps.get_mut(i);
        if epoch != qp.dcqcn_timer_epoch {
            return;
        }
        if let Some(rp) = qp.rp.as_mut() {
            rp.on_rate_timer();
            if !rp.at_line_rate() {
                self.arm_dcqcn(token::DCQCN_RATE, qpn, epoch, now, actions);
            }
        }
        self.tx_kick(now, actions);
    }

    /// Pace QP `i`'s next packet after one of `line` wire bytes left.
    pub(super) fn pace(&mut self, i: usize, line: usize, now: SimTime) {
        let qp = self.qps.get_mut(i);
        if let Some(rp) = qp.rp.as_mut() {
            rp.on_bytes_sent(line as u64);
            qp.next_allowed_tx = if rp.at_line_rate() {
                now
            } else {
                now + rp.current_rate().serialization_time(line)
            };
        }
    }
}
