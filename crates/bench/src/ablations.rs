//! Ablation studies of the modeled design choices — the "what would fixed
//! silicon look like" experiments DESIGN.md calls out.
//!
//! 1. **ETS fix** — the CX6 Dx with work conservation forced on: Figure
//!    10's setting 2 recovers the spare bandwidth, confirming the
//!    scheduler (and nothing else) causes the throughput loss.
//! 2. **Recovery-context sweep** — vary the CX4 Lx's recovery-context
//!    pool and watch the noisy-neighbor cliff move: the collapse happens
//!    exactly where concurrent drops exceed the pool.
//! 3. **APM queue sweep** — vary the CX5's APM queue capacity: discards
//!    at 16 QPs shrink as the queue grows, vanishing once the first-message
//!    burst fits.

use crate::common::run_yaml;
use serde::{Deserialize, Serialize};

/// ETS-fix ablation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EtsFix {
    /// QP1 goodput on the stock (buggy) CX6 Dx, multi-queue + ECN.
    pub stock_qp1_gbps: f64,
    /// QP1 goodput with work conservation forced on.
    pub fixed_qp1_gbps: f64,
    /// QP1 goodput in the vanilla (no ECN) setting, for reference.
    pub vanilla_qp1_gbps: f64,
}

/// Run the ETS fix ablation.
pub fn ets_fix(msgs: u32) -> EtsFix {
    let run = |force_fix: bool, ecn: bool| -> f64 {
        let over = if force_fix {
            "\n  override-ets-work-conserving: true"
        } else {
            ""
        };
        let ev = if ecn {
            "\n    - {qpn: 1, psn: 50, type: ecn, iter: 1, every: 50}"
        } else {
            ""
        };
        let yaml = format!(
            r#"
requester:
  nic-type: cx6
  dcqcn-rp-enable: true{over}
responder:
  nic-type: cx6
  dcqcn-np-enable: true
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: {msgs}
  mtu: 1024
  message-size: 1048576
  tx-depth: 4
  qp-traffic-class: [0, 1]
  data-pkt-events:{events}
ets:
  queues: [{{weight: 50}}, {{weight: 50}}]
"#,
            events = if ev.is_empty() { " []" } else { ev },
        );
        let res = run_yaml(&yaml);
        let qpn1 = res.conns[1].requester.qpn;
        res.requester_metrics.flows[&qpn1].goodput_gbps()
    };
    EtsFix {
        stock_qp1_gbps: run(false, true),
        fixed_qp1_gbps: run(true, true),
        vanilla_qp1_gbps: run(false, false),
    }
}

/// One point of the recovery-context sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContextPoint {
    /// Recovery contexts configured.
    pub contexts: usize,
    /// Innocent-flow average MCT, ms (12 drop-injected of 24 read flows).
    pub innocent_mct_ms: f64,
    /// Requester RX discards.
    pub rx_discards: u64,
}

/// Sweep the CX4 Lx recovery-context pool against 12 concurrent drops.
pub fn context_sweep(contexts: &[usize]) -> Vec<ContextPoint> {
    contexts
        .iter()
        .map(|&n| {
            let events: String = (1..=12)
                .map(|q| format!("\n    - {{qpn: {q}, psn: 5, type: drop, iter: 1}}"))
                .collect();
            let yaml = format!(
                r#"
requester:
  nic-type: cx4
  override-recovery-contexts: {n}
responder: {{ nic-type: cx4 }}
traffic:
  num-connections: 24
  rdma-verb: read
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 20480
  data-pkt-events:{events}
network:
  horizon-ms: 120000
"#
            );
            let res = run_yaml(&yaml);
            let innocents: Vec<f64> = res
                .conns
                .iter()
                .filter(|c| c.index > 12)
                .flat_map(|c| {
                    res.requester_metrics.flows[&c.requester.qpn]
                        .mcts
                        .iter()
                        .map(|t| t.as_millis_f64())
                })
                .collect();
            ContextPoint {
                contexts: n,
                innocent_mct_ms: innocents.iter().sum::<f64>() / innocents.len() as f64,
                rx_discards: res.requester_counters.rx_discards_phy,
            }
        })
        .collect()
}

/// One point of the APM queue sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApmPoint {
    /// Queue capacity.
    pub capacity: usize,
    /// Responder RX discards at 16 QPs of E810→CX5 Send traffic.
    pub rx_discards: u64,
}

/// Sweep the CX5 APM queue capacity.
pub fn apm_sweep(capacities: &[usize]) -> Vec<ApmPoint> {
    capacities
        .iter()
        .map(|&cap| {
            let yaml = format!(
                r#"
requester: {{ nic-type: e810 }}
responder:
  nic-type: cx5
  override-apm-queue-capacity: {cap}
traffic:
  num-connections: 16
  rdma-verb: send
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 102400
network:
  horizon-ms: 60000
"#
            );
            let res = run_yaml(&yaml);
            ApmPoint {
                capacity: cap,
                rx_discards: res.responder_counters.rx_discards_phy,
            }
        })
        .collect()
}

/// Print ablation 1.
pub fn print_ets_fix(fix: &EtsFix) {
    println!("\nAblation 1: CX6 Dx ETS with work conservation forced on");
    println!(
        "QP1 under multi-queue+ECN: stock {:.1} Gbps → fixed {:.1} Gbps (vanilla {:.1})",
        fix.stock_qp1_gbps, fix.fixed_qp1_gbps, fix.vanilla_qp1_gbps
    );
}

/// Print ablation 2.
pub fn print_contexts(sweep: &[ContextPoint]) {
    println!("\nAblation 2: CX4 Lx recovery-context sweep (12 concurrent drops)");
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            vec![
                p.contexts.to_string(),
                format!("{:.2}", p.innocent_mct_ms),
                p.rx_discards.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        crate::common::render_table(&["contexts", "innocent MCT (ms)", "discards"], &rows)
    );
}

/// Print ablation 3.
pub fn print_apm(sweep: &[ApmPoint]) {
    println!("\nAblation 3: CX5 APM queue capacity sweep (16 QPs from E810)");
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| vec![p.capacity.to_string(), p.rx_discards.to_string()])
        .collect();
    print!(
        "{}",
        crate::common::render_table(&["capacity", "discards"], &rows)
    );
}
