//! Quirk-detection matrix (robustness PR, satellite 5): every misbehavior
//! the `quirks:` section can inject, exercised on the Figure-11
//! noisy-neighbor preset. Each kind must (a) actually fire, (b) be flagged
//! by the conformance oracle with the *expected* violation class — the
//! closed loop proving injector and oracle agree on what the spec says —
//! and (c) replay bit-for-bit: two same-seed quirked runs produce
//! byte-identical JSON reports, violations included.

use lumina_core::analyzers::{conformance, ConformanceOpts, ViolationClass};
use lumina_core::config::{EventSpec, QuirksSection, TestConfig};
use lumina_core::orchestrator::run_test;
use lumina_core::TestResults;
use lumina_rnic::{Quirk, QuirkKnobs, QuirkStats};

fn fig11() -> TestConfig {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/configs/fig11_noisy_neighbor.yaml"
    );
    let yaml = std::fs::read_to_string(path).expect("preset exists");
    TestConfig::from_yaml(&yaml).unwrap()
}

fn fig11_quirked(
    quirks: QuirksSection,
    tweak: impl FnOnce(&mut TestConfig),
) -> TestConfig {
    let mut cfg = fig11();
    tweak(&mut cfg);
    cfg.quirks = Some(quirks);
    cfg.validate().expect("quirked preset validates");
    cfg
}

/// Run twice with the same seed; the reports must match byte for byte.
fn run_replayed(cfg: &TestConfig) -> (TestResults, serde_json::Value) {
    let a = run_test(cfg).unwrap();
    let b = run_test(cfg).unwrap();
    let ja = a.report_json().unwrap();
    let jb = b.report_json().unwrap();
    assert_eq!(
        serde_json::to_string(&ja).unwrap(),
        serde_json::to_string(&jb).unwrap(),
        "same-seed quirked runs must replay bit-for-bit"
    );
    (a, ja)
}

/// The closed loop for one quirk kind: the counter fired, and the oracle
/// flagged at least one violation of the class this misbehavior maps to.
fn assert_detected(
    res: &TestResults,
    fired: impl Fn(&QuirkStats) -> u64,
    expect: ViolationClass,
) {
    let stats = res.quirk_stats.as_ref().expect("quirk plane installed");
    assert!(fired(stats) > 0, "quirk never fired: {stats:?}");
    let rep = res.conformance.as_ref().expect("oracle graded the run");
    assert!(!rep.compliant, "injected misbehavior must not grade clean");
    assert!(
        rep.violations.iter().any(|v| v.class == expect),
        "expected a {expect:?} violation, got {:?}",
        rep.class_counts()
    );
}

#[test]
fn wrong_ack_psn_is_flagged_as_ack_psn_invalid() {
    let cfg = fig11_quirked(
        QuirksSection {
            knobs: QuirkKnobs::default().with(Quirk::WrongAckPsn, 0.3),
            ..QuirksSection::default()
        },
        |c| c.traffic.rdma_verb = "write".into(),
    );
    let (res, _) = run_replayed(&cfg);
    assert_detected(&res, |s| s[Quirk::WrongAckPsn], ViolationClass::AckPsnInvalid);
}

#[test]
fn dropped_acks_are_flagged_as_unacked_delivery() {
    let cfg = fig11_quirked(
        QuirksSection {
            knobs: QuirkKnobs::default().with(Quirk::AckDrop, 0.3),
            ..QuirksSection::default()
        },
        |c| c.traffic.rdma_verb = "write".into(),
    );
    let (res, _) = run_replayed(&cfg);
    assert_detected(&res, |s| s[Quirk::AckDrop], ViolationClass::UnackedDelivery);
}

#[test]
fn coalesced_acks_are_flagged_as_ack_coalescing() {
    let cfg = fig11_quirked(
        QuirksSection {
            knobs: QuirkKnobs::default().with(Quirk::AckCoalesce, 0.35),
            ..QuirksSection::default()
        },
        |c| {
            c.traffic.rdma_verb = "write".into();
            // Several messages in flight per QP so a withheld ACK has
            // successors to fold into.
            c.traffic.tx_depth = 4;
        },
    );
    let (res, _) = run_replayed(&cfg);
    assert_detected(&res, |s| s[Quirk::AckCoalesce], ViolationClass::AckCoalescing);
}

#[test]
fn suppressed_cnps_are_flagged_as_missing_cnp() {
    let cfg = fig11_quirked(
        QuirksSection {
            knobs: QuirkKnobs::default().with(Quirk::CnpSuppress, 1.0),
            ..QuirksSection::default()
        },
        |c| {
            // Read traffic: data (read responses) flows responder →
            // requester, so the requester is the notification point.
            c.requester.dcqcn_np_enable = true;
            for qpn in [13, 14] {
                c.traffic.data_pkt_events.push(EventSpec {
                    qpn,
                    psn: 3,
                    r#type: "ecn".into(),
                    iter: 1,
                    every: 0,
                    delay_us: 0,
                    reorder_by: 0,
                });
            }
        },
    );
    let (res, _) = run_replayed(&cfg);
    assert_detected(&res, |s| s[Quirk::CnpSuppress], ViolationClass::MissingCnp);
}

#[test]
fn spurious_cnps_are_flagged() {
    let cfg = fig11_quirked(
        QuirksSection {
            knobs: QuirkKnobs::default().with(Quirk::CnpSpurious, 0.02),
            ..QuirksSection::default()
        },
        |_| {},
    );
    let (res, _) = run_replayed(&cfg);
    assert_detected(&res, |s| s[Quirk::CnpSpurious], ViolationClass::SpuriousCnp);
}

#[test]
fn ghost_retransmits_are_flagged_as_spurious_retransmit() {
    let cfg = fig11_quirked(
        QuirksSection {
            knobs: QuirkKnobs::default().with(Quirk::GhostRetransmit, 0.05),
            ..QuirksSection::default()
        },
        |_| {},
    );
    let (res, _) = run_replayed(&cfg);
    assert_detected(
        &res,
        |s| s[Quirk::GhostRetransmit],
        ViolationClass::SpuriousRetransmit,
    );
}

#[test]
fn stale_msn_is_flagged_as_msn_regression() {
    let cfg = fig11_quirked(
        QuirksSection {
            knobs: QuirkKnobs::default().with(Quirk::StaleMsn, 0.4),
            ..QuirksSection::default()
        },
        |_| {},
    );
    let (res, _) = run_replayed(&cfg);
    assert_detected(&res, |s| s[Quirk::StaleMsn], ViolationClass::MsnRegression);
}

#[test]
fn gbn_off_by_one_is_flagged_as_nack_psn_mismatch() {
    let cfg = fig11_quirked(
        QuirksSection {
            // Not 1.0: a NACK resets the retry timer, so a device that
            // *always* skews its NACKs traps the requester in a
            // NACK/retransmit livelock until the horizon. At 0.5 the
            // first honest NACK ends each loop, while the injected drops
            // still provoke plenty of skewed ones.
            knobs: QuirkKnobs::default().with(Quirk::GbnOffByOne, 0.5),
            ..QuirksSection::default()
        },
        // Write verb: the injected drops then provoke sequence-error
        // NACKs. Traffic may still struggle under this abuse; detection
        // is what's asserted, not completion.
        |c| c.traffic.rdma_verb = "write".into(),
    );
    let (res, _) = run_replayed(&cfg);
    assert_detected(&res, |s| s[Quirk::GbnOffByOne], ViolationClass::NackPsnMismatch);
}

#[test]
fn icrc_corruption_is_flagged_as_icrc_miscompute() {
    let cfg = fig11_quirked(
        QuirksSection {
            knobs: QuirkKnobs::default().with(Quirk::IcrcCorrupt, 0.05),
            ..QuirksSection::default()
        },
        |_| {},
    );
    let (res, _) = run_replayed(&cfg);
    assert_detected(&res, |s| s[Quirk::IcrcCorrupt], ViolationClass::IcrcMiscompute);
}

#[test]
fn quirk_seed_varies_misbehavior_without_touching_workload() {
    let mk = |quirk_seed| {
        fig11_quirked(
            QuirksSection {
                seed: Some(quirk_seed),
                knobs: QuirkKnobs::default().with(Quirk::GhostRetransmit, 0.05),
            },
            |_| {},
        )
    };
    let a = run_test(&mk(1)).unwrap();
    let b = run_test(&mk(2)).unwrap();
    // Same workload either way: the engine RNG never sees the quirk seed.
    assert_eq!(a.conns[0].requester.qpn, b.conns[0].requester.qpn);
    // But the misbehavior schedule differs.
    let (qa, qb) = (a.quirk_stats.unwrap(), b.quirk_stats.unwrap());
    assert_ne!(
        (qa[Quirk::GhostRetransmit], first_ghost_psn(&a)),
        (qb[Quirk::GhostRetransmit], first_ghost_psn(&b)),
        "different quirk seeds should misbehave differently"
    );
}

fn first_ghost_psn(res: &TestResults) -> Option<u32> {
    res.conformance
        .as_ref()
        .and_then(|r| r.violations.first())
        .and_then(|v| v.psn)
}

#[test]
fn noop_quirk_section_matches_a_pristine_run_byte_for_byte() {
    let pristine = fig11();
    let noop = fig11_quirked(QuirksSection::default(), |_| {});
    let a = run_test(&pristine).unwrap();
    let b = run_test(&noop).unwrap();
    assert_eq!(
        serde_json::to_string(&a.report_json().unwrap()).unwrap(),
        serde_json::to_string(&b.report_json().unwrap()).unwrap(),
        "an all-zero quirks: section must not perturb the run"
    );
    assert!(b.quirk_stats.is_none(), "no plane attached for a noop section");
    assert!(b.conformance.is_none(), "no oracle verdict for a noop section");
}

#[test]
fn quirk_free_runs_grade_fully_compliant() {
    // The oracle itself, replayed over pristine traffic: a well-behaved
    // device must produce zero violations, partial evidence included.
    let res = run_test(&fig11()).unwrap();
    let trace = res.trace.as_ref().expect("intact trace");
    let opts = ConformanceOpts::from_results(&res);
    let rep = conformance::analyze(trace, &res.conns, &opts);
    assert!(rep.compliant, "false positives on fig11: {:?}", rep.violations);
    assert!(rep.violations.is_empty());
    assert!(!rep.partial, "pristine fig11 must not degrade the oracle");
    assert_eq!(rep.checked_conns, 36);
}
