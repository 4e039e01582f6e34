//! Figures 8 & 9: NACK generation and reaction latency versus the sequence
//! number of the dropped packet, for Write and Read traffic across the
//! four RNICs.
//!
//! Paper setup (§6.1): 100 KB messages over a single connection; drop the
//! packet at a given relative PSN; split the recovery into NACK generation
//! (receiver) and NACK reaction (sender) at the switch, correcting for the
//! half-RTT embedded in switch-side timestamps.

use crate::common::{run_yaml, NICS};
use lumina_core::analyzers::retrans_perf;
use lumina_sim::SimTime;
use serde::{Deserialize, Serialize};

/// The sweep of dropped sequence numbers used in the paper's figures.
pub const SEQNUMS: [u32; 6] = [1, 20, 40, 60, 80, 99];

/// One measured point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Point {
    /// NIC name.
    pub nic: String,
    /// `write` or `read`.
    pub verb: String,
    /// Sequence number of the dropped packet (1-based).
    pub seqnum: u32,
    /// NACK generation latency, µs (half-RTT-corrected).
    pub nack_gen_us: f64,
    /// NACK reaction latency, µs (half-RTT-corrected).
    pub nack_react_us: f64,
}

/// The full figure: all NICs × both verbs × all sequence numbers.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Figure {
    /// Measured points.
    pub points: Vec<Point>,
}

impl Figure {
    /// Points of one (nic, verb) series, ordered by seqnum.
    pub fn series(&self, nic: &str, verb: &str) -> Vec<&Point> {
        let mut v: Vec<&Point> = self
            .points
            .iter()
            .filter(|p| p.nic == nic && p.verb == verb)
            .collect();
        v.sort_by_key(|p| p.seqnum);
        v
    }
}

/// Measure one point.
pub fn measure(nic: &str, verb: &str, seqnum: u32) -> Point {
    let yaml = format!(
        r#"
requester: {{ nic-type: {nic} }}
responder: {{ nic-type: {nic} }}
traffic:
  num-connections: 1
  rdma-verb: {verb}
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 102400
  data-pkt-events:
    - {{qpn: 1, psn: {seqnum}, type: drop, iter: 1}}
"#
    );
    let res = run_yaml(&yaml);
    assert!(res.integrity.passed(), "integrity failed for {nic}/{verb}");
    assert!(res.traffic_completed(), "{nic}/{verb} did not complete");
    let breakdowns = retrans_perf::analyze(res.trace.as_ref().unwrap(), &res.conns);
    assert_eq!(breakdowns.len(), 1, "{nic}/{verb}/{seqnum}");
    let b = &breakdowns[0];
    // Base RTT of the simulated testbed: two links of propagation delay
    // each way plus the switch pipeline, pre-measured as the paper
    // suggests (§4).
    let rtt = SimTime::from_nanos(2 * (2 * res.cfg.network.propagation_delay_ns + 380));
    let gen = b
        .nack_gen_corrected(rtt)
        .unwrap_or_else(|| panic!("{nic}/{verb}/{seqnum}: no fast retransmission observed"));
    let react = b.nack_react_corrected(rtt).unwrap();
    Point {
        nic: nic.into(),
        verb: verb.into(),
        seqnum,
        nack_gen_us: gen.as_micros_f64(),
        nack_react_us: react.as_micros_f64(),
    }
}

/// Run the full sweep.
pub fn run() -> Figure {
    let mut fig = Figure::default();
    for nic in NICS {
        for verb in ["write", "read"] {
            for seq in SEQNUMS {
                fig.points.push(measure(nic, verb, seq));
            }
        }
    }
    fig
}

/// Print both figures the way the paper plots them.
pub fn print(fig: &Figure) {
    for (title, field) in [
        ("Figure 8: NACK generation latency (us)", true),
        ("Figure 9: NACK reaction latency (us)", false),
    ] {
        for verb in ["write", "read"] {
            println!("\n{title} — {verb} traffic");
            let mut rows = Vec::new();
            for nic in NICS {
                let mut row = vec![nic.to_uppercase()];
                for p in fig.series(nic, verb) {
                    let v = if field { p.nack_gen_us } else { p.nack_react_us };
                    row.push(format!("{v:.1}"));
                }
                rows.push(row);
            }
            let mut headers = vec!["nic"];
            let seq_strs: Vec<String> = SEQNUMS.iter().map(|s| format!("psn{s}")).collect();
            headers.extend(seq_strs.iter().map(|s| s.as_str()));
            print!("{}", crate::common::render_table(&headers, &rows));
        }
    }
}
