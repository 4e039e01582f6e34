//! Intent translation (§3.3, Figure 2): combine the user's relative
//! `(qpn, psn, iter)` intents with the runtime traffic metadata (actual
//! IPs, QPNs and initial PSNs, which the RNICs randomize at runtime) into
//! concrete match-action entries for the event injector.

use crate::config::{EventSpec, TestConfig};
use crate::error::Error;
use lumina_packet::bth::psn_add;
use lumina_rnic::qp::QpEndpoint;
use lumina_rnic::Verb;
use lumina_switch::events::EventAction;
use lumina_switch::iter::ConnKey;
use lumina_switch::table::InjectionKey;
use serde::{Deserialize, Serialize};

/// Runtime metadata of one QP connection, as exchanged between the traffic
/// generators and shared with the event injector (§3.2–3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnMeta {
    /// 1-based connection index (the user-facing relative QPN).
    pub index: u32,
    /// Requester-side endpoint.
    pub requester: QpEndpoint,
    /// Responder-side endpoint.
    pub responder: QpEndpoint,
    /// Verb the connection carries.
    pub verb: Verb,
}

impl ConnMeta {
    /// The direction data packets flow: requester → responder for
    /// Write/Send, responder → requester for Read (data packets are the
    /// read *responses*, generated by the responder — §3.3).
    pub fn data_conn_key(&self) -> ConnKey {
        if self.verb.data_from_responder() {
            ConnKey {
                src_ip: self.responder.ip,
                dst_ip: self.requester.ip,
                dst_qpn: self.requester.qpn,
            }
        } else {
            ConnKey {
                src_ip: self.requester.ip,
                dst_ip: self.responder.ip,
                dst_qpn: self.responder.qpn,
            }
        }
    }

    /// The QPN that packets flowing opposite to the data are addressed to
    /// — the data sender's: ACK/NACK target the requester, re-issued read
    /// requests the responder. Connections can share an IP pair, so the
    /// QPN is part of matching the reverse direction.
    pub fn reverse_qpn(&self) -> u32 {
        if self.verb.data_from_responder() {
            self.responder.qpn
        } else {
            self.requester.qpn
        }
    }

    /// Wire PSN of the `rel`-th (1-based) data packet. Both directions use
    /// the requester's PSN space: Write/Send data packets carry it
    /// directly, and read responses echo the read request's PSNs, which
    /// also live in the requester's space.
    pub fn data_psn(&self, rel: u32) -> u32 {
        debug_assert!(rel >= 1);
        psn_add(self.requester.ipsn, rel - 1)
    }
}

/// Parse an event spec into a switch action.
pub fn parse_action(ev: &EventSpec) -> Result<EventAction, Error> {
    Ok(match ev.r#type.as_str() {
        "drop" => EventAction::Drop,
        "ecn" => EventAction::EcnMark,
        "corrupt" => EventAction::Corrupt,
        "set-mig-0" => EventAction::SetMigReq(false),
        "set-mig-1" => EventAction::SetMigReq(true),
        "delay" => EventAction::Delay(lumina_sim::SimTime::from_micros(ev.delay_us)),
        "reorder" => EventAction::Reorder(ev.reorder_by),
        other => return Err(Error::Translate(format!("unknown event type {other:?}"))),
    })
}

/// Translate all configured events into concrete injection entries.
///
/// `periodic` events (`every > 0`) expand into one entry per matching data
/// packet across the whole transfer — e.g. Figure 10's "mark ECN on one
/// out of every 50 packets of QP0".
pub fn translate(
    cfg: &TestConfig,
    metas: &[ConnMeta],
) -> Result<Vec<(InjectionKey, EventAction)>, Error> {
    let total_pkts = cfg
        .traffic
        .pkts_per_qp()
        .ok_or_else(|| Error::Translate("data packets per QP overflow u32".into()))?;
    let mut out = Vec::new();
    for ev in &cfg.traffic.data_pkt_events {
        let action = parse_action(ev)?;
        let meta = metas.iter().find(|m| m.index == ev.qpn).ok_or_else(|| {
            Error::Translate(format!("event references unknown connection {}", ev.qpn))
        })?;
        let conn = meta.data_conn_key();
        let expand = expand_psns(ev, total_pkts);
        for rel in expand {
            out.push((
                InjectionKey {
                    conn,
                    psn: meta.data_psn(rel),
                    iter: ev.iter,
                },
                action,
            ));
        }
    }
    Ok(out)
}

fn expand_psns(ev: &EventSpec, total_pkts: u32) -> Vec<u32> {
    if ev.every == 0 {
        vec![ev.psn]
    } else {
        // Stops at the first PSN past the total, or past `u32::MAX`.
        std::iter::successors(Some(ev.psn), |p| p.checked_add(ev.every))
            .take_while(|&p| p <= total_pkts)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn meta(verb: Verb) -> ConnMeta {
        ConnMeta {
            index: 1,
            requester: QpEndpoint {
                ip: Ipv4Addr::new(10, 0, 0, 1),
                qpn: 0xfe,
                ipsn: 1001,
            },
            responder: QpEndpoint {
                ip: Ipv4Addr::new(10, 0, 0, 2),
                qpn: 0xea,
                ipsn: 3002,
            },
            verb,
        }
    }

    #[test]
    fn figure2_example() {
        // The exact Figure 2 scenario: requester 10.0.0.1/0xfe/1001,
        // responder 10.0.0.2/0xea/3002, Write traffic, event on the 4th
        // packet of connection 1 → entry (10.0.0.1, 10.0.0.2, 0xea, 1004).
        let m = meta(Verb::Write);
        let key = m.data_conn_key();
        assert_eq!(key.src_ip, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(key.dst_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(key.dst_qpn, 0xea);
        assert_eq!(m.data_psn(4), 1004);
    }

    #[test]
    fn read_direction_reversed_but_psn_space_requesters() {
        let m = meta(Verb::Read);
        let key = m.data_conn_key();
        assert_eq!(key.src_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(key.dst_ip, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(key.dst_qpn, 0xfe);
        // Read responses echo the requester's PSN space.
        assert_eq!(m.data_psn(1), 1001);
    }

    #[test]
    fn psn_wraps_24_bits() {
        let mut m = meta(Verb::Write);
        m.requester.ipsn = (1 << 24) - 2;
        assert_eq!(m.data_psn(1), (1 << 24) - 2);
        assert_eq!(m.data_psn(3), 0);
    }

    #[test]
    fn translate_listing2() {
        let yaml = r#"
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 10
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 4, type: ecn, iter: 1}
    - {qpn: 2, psn: 5, type: drop, iter: 1}
    - {qpn: 2, psn: 5, type: drop, iter: 2}
"#;
        let cfg = crate::config::TestConfig::from_yaml(yaml).unwrap();
        let m1 = meta(Verb::Write);
        let mut m2 = meta(Verb::Write);
        m2.index = 2;
        m2.requester.qpn = 0xff;
        m2.requester.ipsn = 2000;
        m2.responder.qpn = 0xeb;
        let entries = translate(&cfg, &[m1, m2]).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].0.psn, 1004);
        assert_eq!(entries[0].1, EventAction::EcnMark);
        assert_eq!(entries[1].0.psn, 2004);
        assert_eq!(entries[1].0.iter, 1);
        assert_eq!(entries[2].0.psn, 2004);
        assert_eq!(entries[2].0.iter, 2);
        assert_eq!(entries[1].0.conn.dst_qpn, 0xeb);
    }

    #[test]
    fn periodic_expansion() {
        let yaml = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 102400
  data-pkt-events:
    - {qpn: 1, psn: 50, type: ecn, iter: 1, every: 50}
"#;
        let cfg = crate::config::TestConfig::from_yaml(yaml).unwrap();
        let entries = translate(&cfg, &[meta(Verb::Write)]).unwrap();
        // 200 data packets total, every 50th starting at 50 → 4 entries.
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].0.psn, 1001 + 49);
        assert_eq!(entries[3].0.psn, 1001 + 199);
    }

    #[test]
    fn periodic_expansion_stops_instead_of_wrapping() {
        let ev = |psn, every| EventSpec {
            qpn: 1,
            psn,
            r#type: "ecn".into(),
            iter: 1,
            every,
            delay_us: 0,
            reorder_by: 1,
        };
        assert_eq!(expand_psns(&ev(4, u32::MAX), 30), [4]);
        assert_eq!(expand_psns(&ev(1, 1 << 31), u32::MAX), [1, (1 << 31) + 1]);
        assert_eq!(expand_psns(&ev(u32::MAX, 1), u32::MAX), [u32::MAX]);
    }

    #[test]
    fn unknown_connection_rejected() {
        let yaml = r#"
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
  data-pkt-events:
    - {qpn: 2, psn: 1, type: drop}
"#;
        let cfg = crate::config::TestConfig::from_yaml(yaml).unwrap();
        // Only one meta provided.
        let err = translate(&cfg, &[meta(Verb::Write)]).unwrap_err();
        assert!(err.to_string().contains("unknown connection"));
        assert_eq!(
            err.exit_code(),
            4,
            "translate errors get their own exit code"
        );
    }

    #[test]
    fn action_parsing() {
        let spec = |ty: &str| EventSpec {
            qpn: 1,
            psn: 1,
            r#type: ty.into(),
            iter: 1,
            every: 0,
            delay_us: 15,
            reorder_by: 2,
        };
        assert_eq!(parse_action(&spec("drop")).unwrap(), EventAction::Drop);
        assert_eq!(parse_action(&spec("ecn")).unwrap(), EventAction::EcnMark);
        assert_eq!(
            parse_action(&spec("corrupt")).unwrap(),
            EventAction::Corrupt
        );
        assert_eq!(
            parse_action(&spec("set-mig-1")).unwrap(),
            EventAction::SetMigReq(true)
        );
        assert_eq!(
            parse_action(&spec("delay")).unwrap(),
            EventAction::Delay(lumina_sim::SimTime::from_micros(15))
        );
        assert_eq!(
            parse_action(&spec("reorder")).unwrap(),
            EventAction::Reorder(2)
        );
        assert!(parse_action(&spec("explode")).is_err());
    }
}
