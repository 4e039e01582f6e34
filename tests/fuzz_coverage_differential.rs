//! Differential proof for the coverage-guided executor: for the same seed
//! and base configuration, the covered decision points, the corpus, the
//! growth curve and every shrunk reproducer must be byte-identical across
//! worker counts (serial included) and across repeated same-seed runs. Coverage
//! merging happens on the campaign thread in slot order, so the parallel
//! executor's determinism guarantee extends to everything coverage mode
//! adds — this suite is what holds it there.

use lumina_core::config::TestConfig;
use lumina_core::fuzz::{
    coverage::CoverageParams, fuzz, mutate::EventMutator, score, FuzzOutcome, FuzzParams,
};
use lumina_rnic::{Quirk, QuirkKnobs};

fn base() -> TestConfig {
    let mut cfg = TestConfig::from_yaml(
        r#"
requester: { nic-type: cx4 }
responder: { nic-type: cx4 }
traffic:
  num-connections: 3
  rdma-verb: read
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 4096
  data-pkt-events:
    - {qpn: 1, psn: 2, type: drop, iter: 1}
"#,
    )
    .unwrap();
    // A firing quirk knob so the campaign proves violation classes and
    // therefore exercises the shrinking reproducer path.
    cfg.quirks = Some(lumina_core::config::QuirksSection {
        knobs: QuirkKnobs::default().with(Quirk::GhostRetransmit, 1.0),
        ..Default::default()
    });
    cfg
}

/// Everything coverage mode decided, flattened to exactly comparable
/// (bit-level for floats, YAML for configs) form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    history_bits: Vec<u64>,
    map: Vec<&'static str>,
    growth: Vec<(u64, usize)>,
    corpus_jsonl: String,
    reproducers: Vec<(u64, Option<&'static str>, String, bool, String)>,
}

fn fingerprint(out: &FuzzOutcome) -> Fingerprint {
    let cov = out.coverage.as_ref().expect("coverage mode on");
    Fingerprint {
        history_bits: out.history.iter().map(|s| s.to_bits()).collect(),
        map: cov.map.iter().map(|d| d.label()).collect(),
        growth: cov.growth.clone(),
        corpus_jsonl: cov.corpus.to_jsonl(),
        reproducers: cov
            .reproducers
            .iter()
            .map(|r| {
                (
                    r.candidate,
                    r.class.map(|c| c.label()),
                    r.desc.clone(),
                    r.shrink.reproduces,
                    r.shrink.cfg.to_yaml(),
                )
            })
            .collect(),
    }
}

fn campaign(workers: usize) -> Fingerprint {
    let params = FuzzParams {
        pool_size: 3,
        iterations: 8,
        batch_size: 4,
        workers,
        anomaly_threshold: 1.0,
        seed: 0xc0ff,
        coverage: Some(CoverageParams {
            shrink_budget: 10,
            ..Default::default()
        }),
        ..Default::default()
    };
    let mut m = EventMutator {
        mutate_quirks: true,
        ..Default::default()
    };
    fingerprint(&fuzz(&base(), &mut m, score::violation_score, &params))
}

#[test]
fn coverage_campaigns_match_serial_exactly() {
    let serial = campaign(0);
    assert!(
        !serial.map.is_empty(),
        "campaign covered nothing; the differential would be vacuous"
    );
    assert!(
        !serial.reproducers.is_empty(),
        "campaign shrank nothing; the differential would miss the shrinker"
    );
    for workers in [1, 2, 4] {
        let parallel = campaign(workers);
        assert_eq!(
            serial, parallel,
            "workers={workers} diverged from the serial coverage campaign"
        );
    }
}

#[test]
fn same_seed_reruns_are_byte_identical() {
    // Two independent campaigns, same seed: everything — map, corpus
    // JSONL, reproducer YAMLs — must come out bit-for-bit the same, or a
    // persisted corpus could not be trusted across runs.
    assert_eq!(campaign(2), campaign(2));
}

#[test]
fn corpus_round_trips_through_jsonl() {
    // Persist-and-reload must reproduce the exact corpus: the JSONL is
    // the on-disk format --corpus-dir writes and reloads.
    let serial = campaign(0);
    let back = lumina_core::fuzz::coverage::Corpus::from_jsonl(&serial.corpus_jsonl)
        .expect("machine-written corpus reparses");
    assert_eq!(back.to_jsonl(), serial.corpus_jsonl);
}

#[test]
fn reproducers_retrigger_their_class_when_rerun() {
    // Acceptance: every violation-class reproducer a campaign ships must
    // re-trigger its class on an independent re-run of the shrunk config.
    let serial = campaign(0);
    let mut class_repros = 0;
    for (_, class, _, reproduces, yaml) in &serial.reproducers {
        let Some(class) = class else { continue };
        assert!(reproduces, "{class}: shipped reproducer must reproduce");
        class_repros += 1;
        let cfg = TestConfig::from_yaml(yaml).unwrap();
        let res = lumina_core::orchestrator::run_test(&cfg).unwrap();
        let labels: Vec<&str> = lumina_core::fuzz::coverage::violation_classes(&res)
            .iter()
            .map(|c| c.label())
            .collect();
        assert!(labels.contains(class), "{class} not in {labels:?}");
    }
    assert!(class_repros > 0, "no violation-class reproducers to check");
}
