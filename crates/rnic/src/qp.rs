//! Queue pair state: configuration, requester bookkeeping, responder
//! bookkeeping.
//!
//! PSNs on the wire are 24-bit and wrap; internally every position is a
//! *linear* `u64` packet index anchored at the initial PSN (IPSN), so
//! ordering logic never has to reason about wrap-around. Conversion happens
//! exactly at the wire boundary via [`Qp::wire_psn`] / [`Qp::lin_from_wire`].

use crate::dcqcn::ReactionPoint;
use crate::verbs::{Verb, WorkRequest};
use lumina_packet::bth::{psn_add, psn_distance};
use lumina_packet::MacAddr;
use lumina_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// One side of a QP connection, as exchanged in Lumina's metadata step
/// (§3.2–3.3: requester IP/QPN/IPSN and responder IP/QPN/IPSN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QpEndpoint {
    /// IPv4 address (GID) of this side.
    pub ip: Ipv4Addr,
    /// Queue pair number.
    pub qpn: u32,
    /// Initial PSN of the data stream *sent by* this side.
    pub ipsn: u32,
}

/// Static configuration of a QP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QpConfig {
    /// Local endpoint.
    pub local: QpEndpoint,
    /// Remote endpoint.
    pub remote: QpEndpoint,
    /// MAC address of the next hop toward the remote (the switch port).
    pub remote_mac: MacAddr,
    /// Path MTU in bytes.
    pub mtu: u32,
    /// 5-bit IB timeout code (`4.096 µs × 2^code`).
    pub timeout_code: u8,
    /// Configured retry count.
    pub retry_cnt: u32,
    /// Whether NVIDIA adaptive retransmission is enabled (no effect on
    /// devices without the feature).
    pub adaptive_retrans: bool,
    /// ETS traffic class this QP's data maps to.
    pub traffic_class: usize,
    /// DCQCN reaction point (sender-side rate control) enabled.
    pub dcqcn_rp: bool,
    /// DCQCN notification point (receiver-side CNP generation) enabled.
    pub dcqcn_np: bool,
    /// Configured minimum interval between generated CNPs.
    pub min_time_between_cnps: SimTime,
    /// UDP source port used for this QP's packets (flow entropy).
    pub udp_src_port: u16,
}

impl QpConfig {
    /// Number of packets a message of `len` bytes occupies at this MTU
    /// (minimum 1 — a zero-length operation still consumes one PSN).
    pub fn packets_for(&self, len: u32) -> u32 {
        if len == 0 {
            1
        } else {
            len.div_ceil(self.mtu)
        }
    }

    /// Payload length of packet `idx` (0-based) of a message of `len`
    /// bytes.
    pub fn chunk_len(&self, len: u32, idx: u32) -> u32 {
        if len == 0 {
            return 0;
        }
        let start = idx * self.mtu;
        debug_assert!(start < len);
        (len - start).min(self.mtu)
    }
}

/// An outstanding (or queued) send-queue message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutMsg {
    /// Application work-request id.
    pub wr_id: u64,
    /// Verb.
    pub verb: Verb,
    /// Message length in bytes.
    pub len: u32,
    /// Linear PSN of the first packet.
    pub base_lin: u64,
    /// PSN-space footprint in packets.
    pub npkts: u32,
    /// Completion already delivered.
    pub completed: bool,
}

impl OutMsg {
    /// Linear PSN one past the last packet.
    pub fn end_lin(&self) -> u64 {
        self.base_lin + self.npkts as u64
    }

    /// True if linear PSN `lin` falls inside this message.
    pub fn contains(&self, lin: u64) -> bool {
        (self.base_lin..self.end_lin()).contains(&lin)
    }
}

/// A pending block of read responses the responder still has to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadRespJob {
    /// Linear PSN (in the *requester's* PSN space) of the next response
    /// packet to emit.
    pub next_lin: u64,
    /// One past the last response packet of this job.
    pub end_lin: u64,
    /// Linear PSN of the first packet of the whole read message (for
    /// first/middle/last opcode selection).
    pub msg_base_lin: u64,
    /// One past the last packet of the whole read message.
    pub msg_end_lin: u64,
    /// Total message length in bytes (for chunk sizing).
    pub msg_len: u32,
}

/// Whether the QP can still move data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QpState {
    /// Ready to send.
    Rts,
    /// Fatal error (retry exhaustion); all further work is flushed.
    Error,
}

/// In-progress reassembly of a multi-packet Send at the responder.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecvProgress {
    /// Bytes received so far.
    pub bytes: u32,
    /// Work-request id of the consumed receive WQE.
    pub wr_id: u64,
}

/// Full per-QP state.
#[derive(Debug, Clone)]
pub struct Qp {
    /// Static configuration.
    pub cfg: QpConfig,
    /// RTS or Error.
    pub state: QpState,

    // ---- Requester side ----
    /// Outstanding + queued messages, in PSN order. Pruned as completed.
    pub msgs: VecDeque<OutMsg>,
    // The sequence space: `snd_una ≤ send_ptr ≤ snd_nxt` and `max_sent ≤
    // snd_nxt`, always. Private so that only the writers below can move a
    // pointer: `push_wqe` (`snd_nxt`), `mark_sent` (`send_ptr` forward),
    // `ack_through` (`snd_una`) and `rewind_to` (`send_ptr` back).
    /// Next linear PSN to assign to a new message.
    snd_nxt_lin: u64,
    /// Next linear PSN to put on the wire (Go-back-N transmit pointer).
    send_ptr_lin: u64,
    /// High-water mark of transmitted PSNs; anything below it going out
    /// again is a retransmission.
    max_sent_lin: u64,
    /// Oldest unacknowledged linear PSN.
    snd_una_lin: u64,
    /// One past the highest cumulatively ACKed linear PSN. May run ahead
    /// of `snd_una_lin` when an ACK covers packets beyond a still-pending
    /// Read (mixed-verb flows): the ACK's progress is re-applied once the
    /// Read completes via responses.
    max_acked_lin: u64,
    /// Recovery pause: a NACK arrived and the device is inside its
    /// reaction latency; transmission is halted until the rewind fires.
    pub recovery_wait: bool,
    /// Linear PSN to rewind to when the pending reaction fires.
    pub pending_rewind: Option<u64>,
    /// An out-of-order read response was seen; the read slow path is
    /// pending (implied NAK, §6.1).
    pub read_ooo_pending: bool,
    /// Inside a read out-of-sequence episode: one implied NAK per episode;
    /// the episode ends when in-order delivery resumes or a new response
    /// round arrives (stale in-flight responses must not re-trigger the
    /// slow path).
    pub read_episode: bool,
    /// Linear PSN of the last read response that arrived (delivered or
    /// not), for new-round detection on the requester side.
    pub req_last_resp_arrived: Option<u64>,
    /// Consecutive timeouts without progress.
    pub consecutive_timeouts: u32,
    /// Monotonic epoch invalidating stale retransmission timers.
    pub timer_epoch: u32,
    /// True while a retransmission timer is conceptually armed.
    pub timeout_armed: bool,
    /// DCQCN reaction point, present when `cfg.dcqcn_rp`.
    pub rp: Option<ReactionPoint>,
    /// Epoch for DCQCN periodic timers.
    pub dcqcn_timer_epoch: u32,
    /// True while the DCQCN alpha timer runs.
    pub dcqcn_alpha_armed: bool,
    /// True while the DCQCN rate timer runs: it stops at line rate, before
    /// alpha has decayed, and the next cut restarts it.
    pub dcqcn_rate_armed: bool,
    /// Earliest instant the next data packet may leave (DCQCN pacing).
    pub next_allowed_tx: SimTime,

    // ---- Responder side ----
    /// Next expected linear PSN from the remote requester.
    pub epsn_lin: u64,
    /// Message sequence number (completed messages).
    pub msn: u32,
    /// Inside an out-of-sequence episode: a NACK has been sent (or
    /// scheduled) and no further NACK may go until the episode ends — by
    /// in-order delivery resuming, or by a new transmission round arriving
    /// still out of order (a dropped retransmission deserves a fresh NACK,
    /// cf. the Listing-2 double-drop test).
    pub nack_state: bool,
    /// Linear PSN of the last data packet that *arrived* at the responder
    /// (delivered or not): a non-increasing arrival marks a new round,
    /// mirroring the injector's ITER rule (Figure 3).
    pub resp_last_arrived: Option<u64>,
    /// A NACK emission is scheduled but has not fired yet.
    pub nack_scheduled: bool,
    /// Pending read-response jobs, emitted through the ETS scheduler.
    pub read_jobs: VecDeque<ReadRespJob>,
    /// Read-response jobs delayed inside the read reaction latency.
    pub delayed_read_jobs: VecDeque<ReadRespJob>,
    /// Posted receive WQEs (for Send/Recv).
    pub recv_queue: VecDeque<(u64, u32)>,
    /// Reassembly state of the in-progress multi-packet Send.
    pub recv_progress: Option<RecvProgress>,
    /// APM resolution progress: slow-path packets serviced so far.
    pub apm_serviced: u64,
    /// Connection has left the APM slow path.
    pub apm_resolved: bool,
}

impl Qp {
    /// Fresh QP in RTS.
    pub fn new(cfg: QpConfig) -> Qp {
        Qp {
            cfg,
            state: QpState::Rts,
            msgs: VecDeque::new(),
            snd_nxt_lin: 0,
            send_ptr_lin: 0,
            max_sent_lin: 0,
            snd_una_lin: 0,
            max_acked_lin: 0,
            recovery_wait: false,
            pending_rewind: None,
            read_ooo_pending: false,
            read_episode: false,
            req_last_resp_arrived: None,
            consecutive_timeouts: 0,
            timer_epoch: 0,
            timeout_armed: false,
            rp: None,
            dcqcn_timer_epoch: 0,
            dcqcn_alpha_armed: false,
            dcqcn_rate_armed: false,
            next_allowed_tx: SimTime::ZERO,
            epsn_lin: 0,
            msn: 0,
            nack_state: false,
            resp_last_arrived: None,
            nack_scheduled: false,
            read_jobs: VecDeque::new(),
            delayed_read_jobs: VecDeque::new(),
            recv_queue: VecDeque::new(),
            recv_progress: None,
            apm_serviced: 0,
            apm_resolved: false,
        }
    }

    /// Wire PSN of a linear position in the stream *this side sends*.
    pub fn wire_psn(&self, lin: u64) -> u32 {
        psn_add(self.cfg.local.ipsn, (lin % (1 << 24)) as u32)
    }

    /// Linear position of a wire PSN in the stream this side sends,
    /// interpreted relative to `anchor_lin` (a nearby known position).
    pub fn lin_from_wire(&self, anchor_lin: u64, wire: u32) -> i64 {
        let anchor_wire = self.wire_psn(anchor_lin);
        anchor_lin as i64 + psn_distance(anchor_wire, wire) as i64
    }

    /// Wire PSN of a linear position in the stream the *remote* sends
    /// (responder view).
    pub fn remote_wire_psn(&self, lin: u64) -> u32 {
        psn_add(self.cfg.remote.ipsn, (lin % (1 << 24)) as u32)
    }

    /// Linear position of a wire PSN in the remote's stream.
    pub fn remote_lin_from_wire(&self, anchor_lin: u64, wire: u32) -> i64 {
        let anchor_wire = self.remote_wire_psn(anchor_lin);
        anchor_lin as i64 + psn_distance(anchor_wire, wire) as i64
    }

    /// Append a work request to the send queue, assigning its PSN range.
    /// Returns the new message descriptor.
    pub fn push_wqe(&mut self, wr: WorkRequest) -> OutMsg {
        let npkts = self.cfg.packets_for(wr.len);
        let msg = OutMsg {
            wr_id: wr.wr_id,
            verb: wr.verb,
            len: wr.len,
            base_lin: self.snd_nxt_lin,
            npkts,
            completed: false,
        };
        self.snd_nxt_lin += npkts as u64;
        self.msgs.push_back(msg);
        msg
    }

    /// Oldest unacknowledged linear PSN.
    pub fn snd_una_lin(&self) -> u64 {
        self.snd_una_lin
    }

    /// Next linear PSN to put on the wire.
    pub fn send_ptr_lin(&self) -> u64 {
        self.send_ptr_lin
    }

    /// One past the highest linear PSN ever put on the wire.
    pub fn max_sent_lin(&self) -> u64 {
        self.max_sent_lin
    }

    /// The packets up to `end` left for the wire: the transmit pointer's
    /// only way forward.
    pub(crate) fn mark_sent(&mut self, end: u64) {
        debug_assert!(self.send_ptr_lin < end && end <= self.snd_nxt_lin);
        self.send_ptr_lin = end;
        self.max_sent_lin = self.max_sent_lin.max(end);
    }

    /// True if an acknowledge may name `lin`: not before `snd_una` (stale)
    /// and not beyond `snd_nxt` — a request that was never sent. Such a
    /// ghost is dropped silently, as IB drops a response beyond the most
    /// recently sent request.
    pub(crate) fn can_ack(&self, lin: i64) -> bool {
        (self.snd_una_lin as i64..=self.snd_nxt_lin as i64).contains(&lin)
    }

    /// Everything before `lin` is acknowledged: the only place `snd_una`
    /// moves. Returns whether it did; a `lin` that [`Qp::can_ack`] refuses
    /// moves nothing.
    pub(crate) fn ack_through(&mut self, lin: u64) -> bool {
        if lin == self.snd_una_lin || !self.can_ack(lin as i64) {
            return false;
        }
        self.snd_una_lin = lin;
        // A timeout may have rewound the pointer below what is now
        // acknowledged; those messages are about to be pruned.
        self.send_ptr_lin = self.send_ptr_lin.max(lin);
        // The consecutive-timeout count (which drives the adaptive
        // schedule, §6.3) resets only when nothing is left in flight:
        // duplicate-ACK progress during a Go-back-N round does not
        // restart the backoff for the still-missing tail.
        if self.snd_una_lin == self.snd_nxt_lin {
            self.consecutive_timeouts = 0;
        }
        true
    }

    /// Go back to `lin`, or to `snd_una` if that is later: the only place
    /// the transmit pointer moves back. Returns where it now stands.
    pub(crate) fn rewind_to(&mut self, lin: u64) -> u64 {
        self.send_ptr_lin = lin.max(self.snd_una_lin).min(self.send_ptr_lin);
        self.send_ptr_lin
    }

    /// A cumulative ACK of the packet at wire PSN `wire` arrived. Returns
    /// false for a stale one; otherwise remembers how far it reaches — as
    /// it comes, even past `snd_nxt`: [`Qp::acked_prefix`] bounds it where
    /// it is applied. (Bounding the memory too changes what a responder
    /// lying about its ACK PSN does to work posted later, which the quirked
    /// fuzz pin in `cli_e2e` holds.)
    pub(crate) fn note_ack(&mut self, wire: u32) -> bool {
        let lin = self.lin_from_wire(self.snd_una_lin, wire);
        if lin < self.snd_una_lin as i64 {
            return false;
        }
        self.max_acked_lin = self.max_acked_lin.max(lin as u64 + 1);
        true
    }

    /// How far cumulative ACKs allow `snd_una` to advance: freely through
    /// Write/Send packets, but never across an incomplete Read (reads
    /// complete via their responses; the withheld ACK progress is
    /// re-applied once the responses arrive).
    pub(crate) fn acked_prefix(&self) -> u64 {
        let una = self.snd_una_lin;
        let acked = self.max_acked_lin.min(self.snd_nxt_lin).max(una);
        self.msgs
            .iter()
            .filter(|m| m.verb == Verb::Read && !m.completed && m.base_lin >= una)
            .fold(acked, |prefix, m| prefix.min(m.base_lin))
    }

    /// The message containing linear PSN `lin`, if any.
    pub fn msg_at(&self, lin: u64) -> Option<&OutMsg> {
        // msgs is sorted by base_lin; linear scan is fine at the queue
        // depths the traffic generator uses.
        self.msgs.iter().find(|m| m.contains(lin))
    }

    /// True if the requester has unsent (or rewound) packets ready.
    pub fn has_tx_work(&self) -> bool {
        self.state == QpState::Rts && !self.recovery_wait && self.send_ptr_lin < self.snd_nxt_lin
    }

    /// True if the responder has read responses ready to emit.
    pub fn has_read_resp_work(&self) -> bool {
        self.state == QpState::Rts && self.read_jobs.front().is_some()
    }

    /// True if any data is in flight awaiting acknowledgement.
    pub fn has_unacked(&self) -> bool {
        self.snd_una_lin < self.snd_nxt_lin
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// What the device's random-operation harness reads and edits beyond
    /// the product's accessors.
    impl Qp {
        pub(crate) fn snd_nxt_lin(&self) -> u64 {
            self.snd_nxt_lin
        }

        pub(crate) fn set_send_ptr_lin(&mut self, lin: u64) {
            self.send_ptr_lin = lin;
        }
    }

    pub(crate) fn test_cfg(mtu: u32, local_ipsn: u32, remote_ipsn: u32) -> QpConfig {
        QpConfig {
            local: QpEndpoint {
                ip: Ipv4Addr::new(10, 0, 0, 1),
                qpn: 0x11,
                ipsn: local_ipsn,
            },
            remote: QpEndpoint {
                ip: Ipv4Addr::new(10, 0, 0, 2),
                qpn: 0x22,
                ipsn: remote_ipsn,
            },
            remote_mac: MacAddr::local(2),
            mtu,
            timeout_code: 14,
            retry_cnt: 7,
            adaptive_retrans: false,
            traffic_class: 0,
            dcqcn_rp: false,
            dcqcn_np: false,
            min_time_between_cnps: SimTime::from_micros(4),
            udp_src_port: 49152,
        }
    }

    #[test]
    fn packetization() {
        let cfg = test_cfg(1024, 0, 0);
        assert_eq!(cfg.packets_for(0), 1);
        assert_eq!(cfg.packets_for(1), 1);
        assert_eq!(cfg.packets_for(1024), 1);
        assert_eq!(cfg.packets_for(1025), 2);
        assert_eq!(cfg.packets_for(102_400), 100);
        assert_eq!(cfg.chunk_len(2500, 0), 1024);
        assert_eq!(cfg.chunk_len(2500, 1), 1024);
        assert_eq!(cfg.chunk_len(2500, 2), 452);
    }

    #[test]
    fn wqe_assigns_psn_ranges() {
        let mut qp = Qp::new(test_cfg(1024, 1000, 2000));
        let m1 = qp.push_wqe(WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 10240,
        });
        let m2 = qp.push_wqe(WorkRequest {
            wr_id: 2,
            verb: Verb::Write,
            len: 100,
        });
        assert_eq!(m1.base_lin, 0);
        assert_eq!(m1.npkts, 10);
        assert_eq!(m2.base_lin, 10);
        assert_eq!(m2.npkts, 1);
        assert_eq!(qp.snd_nxt_lin, 11);
        assert!(qp.msg_at(5).unwrap().wr_id == 1);
        assert!(qp.msg_at(10).unwrap().wr_id == 2);
        assert!(qp.msg_at(11).is_none());
    }

    #[test]
    fn wire_psn_wraps() {
        let qp = Qp::new(test_cfg(1024, (1 << 24) - 2, 0));
        assert_eq!(qp.wire_psn(0), (1 << 24) - 2);
        assert_eq!(qp.wire_psn(1), (1 << 24) - 1);
        assert_eq!(qp.wire_psn(2), 0);
        assert_eq!(qp.wire_psn(3), 1);
        // And back.
        assert_eq!(qp.lin_from_wire(2, 1), 3);
        assert_eq!(qp.lin_from_wire(3, 0), 2);
    }

    #[test]
    fn remote_psn_space_independent() {
        let qp = Qp::new(test_cfg(1024, 100, 5000));
        assert_eq!(qp.remote_wire_psn(0), 5000);
        assert_eq!(qp.remote_wire_psn(7), 5007);
        assert_eq!(qp.remote_lin_from_wire(0, 5007), 7);
        // Behind the anchor gives a negative linear position.
        assert_eq!(qp.remote_lin_from_wire(7, 5003), 3);
    }

    #[test]
    fn tx_work_flags() {
        let mut qp = Qp::new(test_cfg(1024, 0, 0));
        assert!(!qp.has_tx_work());
        qp.push_wqe(WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 2048,
        });
        assert!(qp.has_tx_work());
        qp.send_ptr_lin = 2;
        assert!(!qp.has_tx_work());
        assert!(qp.has_unacked());
        qp.recovery_wait = true;
        qp.send_ptr_lin = 0;
        assert!(!qp.has_tx_work());
        qp.recovery_wait = false;
        qp.state = QpState::Error;
        assert!(!qp.has_tx_work());
    }
}
