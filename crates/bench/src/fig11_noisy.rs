//! Figure 11: the CX4 Lx "noisy neighbor" (§6.2.2).
//!
//! 36 Read connections transfer ten 20 KB messages each; the 5th data
//! packet of the first `i` connections is dropped (`i ∈ {0, 8, 12, 16}`).
//! With `i ≤ 8` the innocent connections are unaffected (MCT ≈ 160 µs);
//! with `i ≥ 12` the concurrent read-recovery slow paths exceed the CX4
//! Lx's shared recovery contexts, the RX pipeline stalls, innocent read
//! responses are discarded (`rx_discards_phy`), and innocent flows collapse
//! into timeout-dominated MCTs (the paper measures ≈ 430 ms).

use crate::common::run_yaml;
use serde::{Deserialize, Serialize};

/// The sweep of drop-injected flow counts from the figure.
pub const DROP_COUNTS: [u32; 4] = [0, 8, 12, 16];

/// Result of one sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Point {
    /// Number of drop-injected flows.
    pub injected: u32,
    /// Average MCT of the drop-injected flows, milliseconds.
    pub victim_avg_mct_ms: Option<f64>,
    /// Average MCT of the innocent flows, milliseconds.
    pub innocent_avg_mct_ms: f64,
    /// `rx_discards_phy` on the requester NIC.
    pub rx_discards: u64,
}

/// The figure.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Figure {
    /// One point per sweep value.
    pub points: Vec<Point>,
    /// NIC under test.
    pub nic: String,
}

/// Run one sweep point on a NIC model.
pub fn measure(nic: &str, injected: u32, total_flows: u32, msgs: u32) -> Point {
    let mut events = String::new();
    for q in 1..=injected {
        events.push_str(&format!(
            "\n    - {{qpn: {q}, psn: 5, type: drop, iter: 1}}"
        ));
    }
    let yaml = format!(
        r#"
requester: {{ nic-type: {nic} }}
responder: {{ nic-type: {nic} }}
traffic:
  num-connections: {total_flows}
  rdma-verb: read
  num-msgs-per-qp: {msgs}
  mtu: 1024
  message-size: 20480
  tx-depth: 1
  data-pkt-events:{ev}
network:
  horizon-ms: 120000
"#,
        ev = if events.is_empty() { " []" } else { &events },
    );
    let res = run_yaml(&yaml);
    assert!(
        res.traffic_completed(),
        "{nic}/i={injected}: traffic incomplete at {}",
        res.outcome.end_time()
    );
    let victims: Vec<u32> = res
        .conns
        .iter()
        .filter(|c| c.index <= injected)
        .map(|c| c.requester.qpn)
        .collect();
    let mct_of = |qpns: &[u32]| -> Option<f64> {
        let all: Vec<f64> = qpns
            .iter()
            .flat_map(|q| res.requester_metrics.flows[q].mcts.iter())
            .map(|t| t.as_millis_f64())
            .collect();
        if all.is_empty() {
            None
        } else {
            Some(all.iter().sum::<f64>() / all.len() as f64)
        }
    };
    let innocents: Vec<u32> = res
        .conns
        .iter()
        .filter(|c| c.index > injected)
        .map(|c| c.requester.qpn)
        .collect();
    Point {
        injected,
        victim_avg_mct_ms: mct_of(&victims),
        innocent_avg_mct_ms: mct_of(&innocents).expect("innocent flows exist"),
        rx_discards: res.requester_counters.rx_discards_phy,
    }
}

/// Run the paper's figure: CX4 Lx, 36 flows, 10 messages.
pub fn run() -> Figure {
    run_on("cx4", 36, 10)
}

/// Run a parameterized sweep.
pub fn run_on(nic: &str, total_flows: u32, msgs: u32) -> Figure {
    Figure {
        nic: nic.into(),
        points: DROP_COUNTS
            .iter()
            .map(|&i| measure(nic, i, total_flows, msgs))
            .collect(),
    }
}

/// Print the figure.
pub fn print(fig: &Figure) {
    println!(
        "\nFigure 11: noisy neighbor on {} — avg MCT (ms) of innocent vs drop-injected flows",
        fig.nic
    );
    let rows: Vec<Vec<String>> = fig
        .points
        .iter()
        .map(|p| {
            vec![
                p.injected.to_string(),
                p.victim_avg_mct_ms
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|| "-".into()),
                format!("{:.2}", p.innocent_avg_mct_ms),
                p.rx_discards.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        crate::common::render_table(
            &["injected", "victim MCT", "innocent MCT", "rx_discards"],
            &rows
        )
    );
}
