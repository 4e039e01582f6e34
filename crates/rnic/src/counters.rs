//! Hardware network stack counters.
//!
//! Lumina's counter analyzer (§4) cross-checks counters against the packet
//! trace; §6.2.4 of the paper shows two NICs whose counters lie. We keep
//! *canonical* counters with defined semantics plus a vendor-name mapping,
//! and model the two bugs as "the event happens but the counter does not
//! move" (the device increments `truth_*` shadow counters so tests can
//! assert the divergence, exactly the way Lumina infers it from the trace).

use crate::profile::{CounterBugs, Vendor};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Canonical counter set for one RNIC.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// RoCE packets received (post-PHY, pre-drop).
    pub rx_packets: u64,
    /// RoCE packets transmitted.
    pub tx_packets: u64,
    /// Payload bytes received in data packets.
    pub rx_bytes: u64,
    /// Payload bytes transmitted in data packets.
    pub tx_bytes: u64,
    /// Packets discarded at the PHY/pipeline before processing
    /// (`rx_discards_phy`): pipeline stalls, APM queue overflow, dumper
    /// overload.
    pub rx_discards_phy: u64,
    /// Responder observed an out-of-order request packet
    /// (NVIDIA `out_of_sequence`).
    pub out_of_sequence: u64,
    /// Requester received a sequence-error NACK (NVIDIA `packet_seq_err`).
    pub packet_seq_err: u64,
    /// Requester detected out-of-order read responses — the "implied NAK"
    /// (NVIDIA `implied_nak_seq_err`). Subject to the CX4 Lx freeze bug.
    pub implied_nak_seq_err: u64,
    /// Retransmission timeouts fired (NVIDIA `local_ack_timeout_err`).
    pub local_ack_timeout_err: u64,
    /// Data packets retransmitted.
    pub retransmitted_packets: u64,
    /// Packets dropped for ICRC errors (`rx_icrc_encapsulated`).
    pub rx_icrc_errors: u64,
    /// Duplicate request packets received and acknowledged.
    pub duplicate_request: u64,
    /// ECN CE-marked RoCE packets received (NVIDIA
    /// `np_ecn_marked_roce_packets`).
    pub np_ecn_marked_roce_packets: u64,
    /// CNPs transmitted by the notification point (NVIDIA `np_cnp_sent`,
    /// Intel `cnpSent`). Subject to the E810 stuck bug.
    pub np_cnp_sent: u64,
    /// CNPs received and handled by the reaction point (NVIDIA
    /// `rp_cnp_handled`, Intel `cnpHandled`).
    pub rp_cnp_handled: u64,

    /// Shadow truth for `np_cnp_sent` — what the counter *should* read.
    /// Diverges only when [`CounterBugs::cnp_sent_stuck`] is set.
    pub truth_cnp_sent: u64,
    /// Shadow truth for `implied_nak_seq_err`.
    pub truth_implied_nak_seq_err: u64,
}

impl Counters {
    /// Record a CNP transmission, honoring the E810 `cnpSent` bug.
    pub fn record_cnp_sent(&mut self, bugs: &CounterBugs) {
        self.truth_cnp_sent += 1;
        if !bugs.cnp_sent_stuck {
            self.np_cnp_sent += 1;
        }
    }

    /// Record an implied NAK (OOO read responses), honoring the CX4 Lx
    /// freeze bug.
    pub fn record_implied_nak(&mut self, bugs: &CounterBugs) {
        self.truth_implied_nak_seq_err += 1;
        if !bugs.implied_nak_frozen {
            self.implied_nak_seq_err += 1;
        }
    }

    /// Export with vendor-specific counter names, the way the orchestrator
    /// collects "network stack counters" (Table 1).
    pub fn vendor_view(&self, vendor: Vendor) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        match vendor {
            Vendor::Nvidia => {
                m.insert("out_of_sequence".into(), self.out_of_sequence);
                m.insert("packet_seq_err".into(), self.packet_seq_err);
                m.insert("implied_nak_seq_err".into(), self.implied_nak_seq_err);
                m.insert("local_ack_timeout_err".into(), self.local_ack_timeout_err);
                m.insert("np_cnp_sent".into(), self.np_cnp_sent);
                m.insert("rp_cnp_handled".into(), self.rp_cnp_handled);
                m.insert(
                    "np_ecn_marked_roce_packets".into(),
                    self.np_ecn_marked_roce_packets,
                );
                m.insert("rx_icrc_encapsulated".into(), self.rx_icrc_errors);
                m.insert("duplicate_request".into(), self.duplicate_request);
                m.insert("rx_discards_phy".into(), self.rx_discards_phy);
            }
            Vendor::Intel => {
                m.insert("seqErr".into(), self.out_of_sequence);
                m.insert("rxNakSent".into(), self.out_of_sequence);
                m.insert("txNakRecv".into(), self.packet_seq_err);
                m.insert("impliedNak".into(), self.implied_nak_seq_err);
                m.insert("timeoutErr".into(), self.local_ack_timeout_err);
                m.insert("cnpSent".into(), self.np_cnp_sent);
                m.insert("cnpHandled".into(), self.rp_cnp_handled);
                m.insert("ecnMarked".into(), self.np_ecn_marked_roce_packets);
                m.insert("icrcErr".into(), self.rx_icrc_errors);
                m.insert("dupReq".into(), self.duplicate_request);
                m.insert("rx_discards".into(), self.rx_discards_phy);
            }
        }
        m.insert("rx_packets".into(), self.rx_packets);
        m.insert("tx_packets".into(), self.tx_packets);
        m.insert("rx_bytes".into(), self.rx_bytes);
        m.insert("tx_bytes".into(), self.tx_bytes);
        m.insert("retransmitted_packets".into(), self.retransmitted_packets);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnp_sent_bug_diverges_truth() {
        let mut c = Counters::default();
        let buggy = CounterBugs {
            cnp_sent_stuck: true,
            implied_nak_frozen: false,
        };
        for _ in 0..5 {
            c.record_cnp_sent(&buggy);
        }
        assert_eq!(c.np_cnp_sent, 0);
        assert_eq!(c.truth_cnp_sent, 5);

        let mut ok = Counters::default();
        ok.record_cnp_sent(&CounterBugs::default());
        assert_eq!(ok.np_cnp_sent, 1);
        assert_eq!(ok.truth_cnp_sent, 1);
    }

    #[test]
    fn implied_nak_bug_diverges_truth() {
        let mut c = Counters::default();
        let buggy = CounterBugs {
            cnp_sent_stuck: false,
            implied_nak_frozen: true,
        };
        c.record_implied_nak(&buggy);
        c.record_implied_nak(&buggy);
        assert_eq!(c.implied_nak_seq_err, 0);
        assert_eq!(c.truth_implied_nak_seq_err, 2);
    }

    #[test]
    fn vendor_views_use_vendor_names() {
        let c = Counters {
            np_cnp_sent: 3,
            out_of_sequence: 7,
            ..Counters::default()
        };
        let nv = c.vendor_view(Vendor::Nvidia);
        assert_eq!(nv["np_cnp_sent"], 3);
        assert_eq!(nv["out_of_sequence"], 7);
        let intel = c.vendor_view(Vendor::Intel);
        assert_eq!(intel["cnpSent"], 3);
        assert_eq!(intel["seqErr"], 7);
        assert!(!intel.contains_key("np_cnp_sent"));
    }
}
