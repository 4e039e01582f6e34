//! Differential proof for the parallel fuzz executor: for the same seed
//! and base configuration, the serial path and the threaded path with any
//! worker count must produce byte-identical campaigns — same score
//! history, same rejections, same anomaly list, same final pool. This is
//! the property that makes parallel campaigns trustworthy: workers buy
//! wall-clock speed, never different results.

use lumina_core::config::TestConfig;
use lumina_core::fuzz::{fuzz, mutate::EventMutator, score, FuzzOutcome, FuzzParams};

fn base() -> TestConfig {
    TestConfig::from_yaml(
        r#"
requester: { nic-type: cx4 }
responder: { nic-type: cx4 }
traffic:
  num-connections: 3
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 4096
  data-pkt-events:
    - {qpn: 1, psn: 2, type: drop, iter: 1}
"#,
    )
    .unwrap()
}

/// Everything the campaign decided, flattened to exactly comparable
/// (bit-level for floats) form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    history_bits: Vec<u64>,
    rejected: usize,
    best: Option<(u64, String)>,
    anomalies: Vec<(u64, String, String)>,
    final_pool: Vec<(u64, String)>,
}

fn fingerprint(out: &FuzzOutcome) -> Fingerprint {
    Fingerprint {
        history_bits: out.history.iter().map(|s| s.to_bits()).collect(),
        rejected: out.rejections.len(),
        best: out
            .best
            .as_ref()
            .map(|b| (b.score.to_bits(), b.cfg.to_yaml())),
        anomalies: out
            .anomalies
            .iter()
            .map(|(s, d)| (s.score.to_bits(), d.clone(), s.cfg.to_yaml()))
            .collect(),
        final_pool: out
            .final_pool
            .iter()
            .map(|s| (s.score.to_bits(), s.cfg.to_yaml()))
            .collect(),
    }
}

fn campaign(workers: usize) -> Fingerprint {
    let params = FuzzParams {
        pool_size: 4,
        iterations: 12,
        batch_size: 4,
        workers,
        anomaly_threshold: 1.0,
        seed: 0xd1ff,
        ..Default::default()
    };
    let mut m = EventMutator::default();
    fingerprint(&fuzz(&base(), &mut m, score::default_score, &params))
}

#[test]
fn parallel_campaigns_match_serial_exactly() {
    let serial = campaign(0);
    assert!(
        !serial.history_bits.is_empty(),
        "campaign evaluated nothing; the differential would be vacuous"
    );
    for workers in [1, 2, 4] {
        let parallel = campaign(workers);
        assert_eq!(
            serial, parallel,
            "workers={workers} diverged from the serial campaign"
        );
    }
}

#[test]
fn campaigns_find_anomalies_to_compare() {
    // Guard against the differential silently degenerating: with the
    // drop-seeded base and a low threshold the campaign must score
    // anomalies, so the fingerprint comparison covers that path too.
    let serial = campaign(0);
    assert!(
        !serial.anomalies.is_empty(),
        "expected at least one anomaly in the differential corpus"
    );
}

#[test]
fn worker_count_does_not_leak_into_reports() {
    // Same thing one level down: a single config run on the orchestrator
    // is already deterministic; the executor must preserve that when the
    // run happens on a worker thread. Compare a run executed inline with
    // one executed through a workers=2 campaign of one candidate batch.
    let params = FuzzParams {
        pool_size: 1,
        iterations: 2,
        batch_size: 2,
        workers: 2,
        anomaly_threshold: -1.0, // record everything as an anomaly
        seed: 7,
        ..Default::default()
    };
    let mut m = EventMutator {
        events_only: true,
        ..Default::default()
    };
    let threaded = fuzz(&base(), &mut m, score::default_score, &params);
    for (scored, _) in &threaded.anomalies {
        let inline = lumina_core::orchestrator::run_test(&scored.cfg).unwrap();
        let (s, _) = score::default_score(&scored.cfg, &inline);
        assert_eq!(s.to_bits(), scored.score.to_bits());
    }
}
