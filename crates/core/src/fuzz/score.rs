//! Built-in multi-objective scoring functions (§4: `Score = Σ wᵢ·s(i)`,
//! where each `s(i)` models one anomaly class).

use crate::analyzers::counter;
use crate::config::TestConfig;
use crate::orchestrator::TestResults;
use lumina_sim::SimTime;

/// Weights for the default anomaly objectives.
#[derive(Debug, Clone)]
pub struct ScoreWeights {
    /// Per discarded RX packet (pipeline stalls, overloads).
    pub rx_discard: f64,
    /// Per retransmission timeout.
    pub timeout: f64,
    /// Per counter inconsistency found by the counter analyzer.
    pub counter_inconsistency: f64,
    /// Per failed (retry-exhausted) message.
    pub failed_message: f64,
    /// Per millisecond of worst-case innocent-flow MCT inflation.
    pub innocent_mct_ms: f64,
}

impl Default for ScoreWeights {
    fn default() -> Self {
        ScoreWeights {
            rx_discard: 0.01,
            timeout: 2.0,
            counter_inconsistency: 25.0,
            failed_message: 10.0,
            innocent_mct_ms: 1.0,
        }
    }
}

/// The general-purpose anomaly score ("finding bugs in a network setting"),
/// combining discards, timeouts, counter lies and failures.
pub fn default_score(cfg: &TestConfig, res: &TestResults) -> (f64, String) {
    let w = ScoreWeights::default();
    let mut score = 0.0;
    let mut notes = Vec::new();

    let discards = res.requester_counters.rx_discards_phy + res.responder_counters.rx_discards_phy;
    if discards > 0 {
        score += w.rx_discard * discards as f64;
        notes.push(format!("{discards} rx discards"));
    }
    let timeouts =
        res.requester_counters.local_ack_timeout_err + res.responder_counters.local_ack_timeout_err;
    if timeouts > 0 {
        score += w.timeout * timeouts as f64;
        notes.push(format!("{timeouts} timeouts"));
    }
    let inconsistencies = counter::analyze(res).len();
    if inconsistencies > 0 {
        score += w.counter_inconsistency * inconsistencies as f64;
        notes.push(format!("{inconsistencies} counter inconsistencies"));
    }
    let failed: u32 = res.requester_metrics.flows.values().map(|f| f.failed).sum();
    if failed > 0 {
        score += w.failed_message * failed as f64;
        notes.push(format!("{failed} failed messages"));
    }
    let _ = cfg;
    (score, notes.join(", "))
}

/// The targeted "noisy neighbor" score (§6.2.2: "finding potential bugs
/// where packet loss in one connection affects other co-existing
/// connections"): measures degradation of *innocent* flows, i.e. flows no
/// event was injected on.
pub fn noisy_neighbor_score(cfg: &TestConfig, res: &TestResults) -> (f64, String) {
    let w = ScoreWeights::default();
    let victims: std::collections::HashSet<u32> =
        cfg.traffic.data_pkt_events.iter().map(|e| e.qpn).collect();
    let mut worst_innocent_mct = SimTime::ZERO;
    let mut innocent_failures = 0u32;
    for c in &res.conns {
        if victims.contains(&c.index) {
            continue;
        }
        if let Some(f) = res.requester_metrics.flows.get(&c.requester.qpn) {
            if let Some(m) = f.mcts.iter().max() {
                worst_innocent_mct = worst_innocent_mct.max(*m);
            }
            innocent_failures += f.failed;
        }
    }
    let score = w.innocent_mct_ms * worst_innocent_mct.as_millis_f64()
        + w.failed_message * innocent_failures as f64
        + w.rx_discard
            * (res.requester_counters.rx_discards_phy + res.responder_counters.rx_discards_phy)
                as f64;
    (
        score,
        format!("worst innocent MCT {worst_innocent_mct}, {innocent_failures} innocent failures"),
    )
}

/// The spec-conformance score: drive the campaign toward configurations
/// that make the oracle find violations. Reuses the run's own verdict
/// when the orchestrator already computed one (quirk-injected runs) and
/// replays the oracle otherwise — pure function of the results, so the
/// parallel executor's serial==parallel bit-identity is untouched.
pub fn violation_score(cfg: &TestConfig, res: &TestResults) -> (f64, String) {
    let report = res.conformance_verdict().unwrap_or_default();
    let n = report.violations.len() as f64;
    // A small default-score tail breaks ties among violation-free
    // candidates so the pool still evolves toward *interesting* traffic.
    let (base, _) = default_score(cfg, res);
    let score = n * 50.0 + base * 0.1;
    let desc = if report.violations.is_empty() {
        "no violations".to_string()
    } else {
        report.class_summary()
    };
    (score, desc)
}

/// A scoring function, as [`fuzz_observed`](super::fuzz_observed) takes it.
pub type ScoreFn = fn(&TestConfig, &TestResults) -> (f64, String);

/// The built-in scorer `lumina-cli fuzz --score <name>` selects.
pub fn by_name(name: &str) -> Option<ScoreFn> {
    match name {
        "default" => Some(default_score),
        "noisy" => Some(noisy_neighbor_score),
        "violations" => Some(violation_score),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::run_test;
    use lumina_rnic::{Quirk, QuirkKnobs};

    #[test]
    fn clean_run_scores_near_zero() {
        let cfg = TestConfig::from_yaml(
            r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 4096
"#,
        )
        .unwrap();
        let res = run_test(&cfg).unwrap();
        let (s, _) = default_score(&cfg, &res);
        assert_eq!(s, 0.0);
        let (ns, _) = noisy_neighbor_score(&cfg, &res);
        assert!(ns < 1.0, "{ns}");
    }

    #[test]
    fn tail_drop_scores_for_timeout() {
        let cfg = TestConfig::from_yaml(
            r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 4096
  data-pkt-events:
    - {qpn: 1, psn: 4, type: drop, iter: 1}
"#,
        )
        .unwrap();
        let res = run_test(&cfg).unwrap();
        let (s, desc) = default_score(&cfg, &res);
        assert!(s >= 2.0, "{s} ({desc})");
        assert!(desc.contains("timeout"));
    }

    #[test]
    fn violation_score_is_zero_for_compliant_runs_and_counts_quirks() {
        let clean = TestConfig::from_yaml(
            r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 4096
"#,
        )
        .unwrap();
        let res = run_test(&clean).unwrap();
        let (s, desc) = violation_score(&clean, &res);
        assert_eq!(s, 0.0, "{desc}");
        assert_eq!(desc, "no violations");

        let mut quirked = clean.clone();
        quirked.quirks = Some(crate::config::QuirksSection {
            knobs: QuirkKnobs::default().with(Quirk::GhostRetransmit, 1.0),
            ..Default::default()
        });
        quirked.traffic.rdma_verb = "read".into();
        let res = run_test(&quirked).unwrap();
        let (s, desc) = violation_score(&quirked, &res);
        assert!(s >= 50.0, "{s} ({desc})");
        assert!(desc.contains("spurious-retransmit"), "{desc}");
    }
}
