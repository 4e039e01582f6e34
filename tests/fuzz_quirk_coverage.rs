//! Coverage-guided campaigns against the quirk matrix: for every
//! DUT-misbehavior knob the `quirks:` section exposes, a short
//! coverage-guided campaign must reach the decision point that proves the
//! knob's violation class and surface it as a first-class finding (a
//! reproducer naming the class) — while a heuristic-scored campaign on the
//! *same budget and seed* reports nothing that names the class. The
//! fixed-budget acceptance test then holds coverage mode to the headline
//! claim: on a fig11-shaped base with the quirk-knob mutation dimension
//! enabled, it must surface at least twice as many distinct
//! violation-outcome decision points as the heuristic campaign, with every
//! violation reproducer re-triggering its class.

use lumina_core::analyzers::{Decision, ViolationClass};
use lumina_core::config::{EventSpec, QuirksSection, TestConfig};
use lumina_core::fuzz::coverage::{signal_of, violation_classes, CoverageParams};
use lumina_core::fuzz::mutate::EventMutator;
use lumina_core::fuzz::{fuzz, score, FuzzOutcome, FuzzParams};
use lumina_rnic::{Quirk, QuirkKnobs};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// The fig11 noisy-neighbor preset, trimmed to 2 messages per QP so a
/// campaign's worth of runs stays cheap; 36 connections and the large
/// messages survive, so every quirk still has thousands of data packets
/// to fire on.
fn fig11_short() -> TestConfig {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/configs/fig11_noisy_neighbor.yaml"
    );
    let yaml = std::fs::read_to_string(path).expect("preset exists");
    let mut cfg = TestConfig::from_yaml(&yaml).unwrap();
    cfg.traffic.num_msgs_per_qp = 2;
    cfg
}

/// One row of the matrix: a knob with its firing preconditions (mirroring
/// tests/quirk_matrix.rs) and the violation class the oracle maps it to.
fn knob_matrix() -> Vec<(&'static str, TestConfig, ViolationClass)> {
    let quirked = |quirks: QuirksSection, tweak: &dyn Fn(&mut TestConfig)| {
        let mut cfg = fig11_short();
        tweak(&mut cfg);
        cfg.quirks = Some(quirks);
        cfg.validate().expect("quirked preset validates");
        cfg
    };
    vec![
        (
            "wrong-ack-psn",
            quirked(
                QuirksSection {
                    knobs: QuirkKnobs::default().with(Quirk::WrongAckPsn, 0.3),
                    ..Default::default()
                },
                &|c| c.traffic.rdma_verb = "write".into(),
            ),
            ViolationClass::AckPsnInvalid,
        ),
        (
            "ack-drop",
            quirked(
                QuirksSection {
                    knobs: QuirkKnobs::default().with(Quirk::AckDrop, 0.3),
                    ..Default::default()
                },
                &|c| c.traffic.rdma_verb = "write".into(),
            ),
            ViolationClass::UnackedDelivery,
        ),
        (
            "ack-coalesce",
            quirked(
                QuirksSection {
                    knobs: QuirkKnobs::default().with(Quirk::AckCoalesce, 0.35),
                    ..Default::default()
                },
                &|c| {
                    c.traffic.rdma_verb = "write".into();
                    c.traffic.tx_depth = 4;
                },
            ),
            ViolationClass::AckCoalescing,
        ),
        (
            "cnp-suppress",
            quirked(
                QuirksSection {
                    knobs: QuirkKnobs::default().with(Quirk::CnpSuppress, 1.0),
                    ..Default::default()
                },
                &|c| {
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
            ),
            ViolationClass::MissingCnp,
        ),
        (
            "cnp-spurious",
            quirked(
                QuirksSection {
                    knobs: QuirkKnobs::default().with(Quirk::CnpSpurious, 0.02),
                    ..Default::default()
                },
                &|_| {},
            ),
            ViolationClass::SpuriousCnp,
        ),
        (
            "ghost-retransmit",
            quirked(
                QuirksSection {
                    knobs: QuirkKnobs::default().with(Quirk::GhostRetransmit, 0.05),
                    ..Default::default()
                },
                &|_| {},
            ),
            ViolationClass::SpuriousRetransmit,
        ),
        (
            "stale-msn",
            quirked(
                QuirksSection {
                    knobs: QuirkKnobs::default().with(Quirk::StaleMsn, 0.4),
                    ..Default::default()
                },
                &|_| {},
            ),
            ViolationClass::MsnRegression,
        ),
        (
            "gbn-off-by-one",
            quirked(
                QuirksSection {
                    knobs: QuirkKnobs::default().with(Quirk::GbnOffByOne, 0.5),
                    ..Default::default()
                },
                &|c| c.traffic.rdma_verb = "write".into(),
            ),
            ViolationClass::NackPsnMismatch,
        ),
        (
            "icrc-corrupt",
            quirked(
                QuirksSection {
                    knobs: QuirkKnobs::default().with(Quirk::IcrcCorrupt, 0.05),
                    ..Default::default()
                },
                &|_| {},
            ),
            ViolationClass::IcrcMiscompute,
        ),
    ]
}

/// The shared short budget: one generation of four candidates, serial.
fn short_budget(coverage: bool) -> FuzzParams {
    FuzzParams {
        pool_size: 2,
        iterations: 4,
        batch_size: 4,
        workers: 0,
        seed: 0xc070,
        coverage: coverage.then(|| CoverageParams {
            // Shrinking is proven elsewhere (shrink_prop, the coverage
            // differential); keep the 9-knob sweep cheap.
            shrink: false,
            ..Default::default()
        }),
        ..Default::default()
    }
}

#[test]
fn every_quirk_knob_is_reached_by_a_short_coverage_campaign() {
    for (name, base, class) in knob_matrix() {
        let mut m = EventMutator {
            events_only: true,
            ..Default::default()
        };
        let out = fuzz(
            &base,
            &mut m,
            score::default_score,
            &short_budget(true),
        );
        let cov = out.coverage.as_ref().expect("coverage mode on");

        // The campaign surfaced the knob's class as a first-class finding.
        let repro = cov
            .reproducers
            .iter()
            .find(|r| r.class == Some(class))
            .unwrap_or_else(|| {
                panic!(
                    "{name}: no {class:?} reproducer; campaign found {:?}",
                    cov.reproducers
                        .iter()
                        .map(|r| (r.class, r.desc.clone()))
                        .collect::<Vec<_>>()
                )
            });

        // And the finding is the expected decision: re-running the
        // reproducer covers the point that proves the class.
        let res = lumina_core::orchestrator::run_test(&repro.shrink.cfg).unwrap();
        let label = class.label();
        let point = Decision::ALL
            .iter()
            .find(|d| d.proves() == Some(class))
            .unwrap();
        assert!(
            signal_of(&res).contains(*point),
            "{name}: reproducer run does not cover {}",
            point.label()
        );

        // The heuristic scorer alone, on the same budget and seed, never
        // names the class: its anomaly stream is blind to the oracle.
        let mut m = EventMutator {
            events_only: true,
            ..Default::default()
        };
        let heuristic = fuzz(
            &base,
            &mut m,
            score::default_score,
            &short_budget(false),
        );
        assert!(
            heuristic.anomalies.iter().all(|(_, d)| !d.contains(label)),
            "{name}: heuristic campaign unexpectedly named {label}"
        );
    }
}

/// The violation outcomes among a run's decision points: the points that
/// prove an oracle class, and the Go-back-N view's flagged outcomes.
fn violation_points(res: &lumina_core::orchestrator::TestResults) -> BTreeSet<&'static str> {
    signal_of(res)
        .iter()
        .filter(|d| {
            d.proves().is_some()
                || matches!(
                    d,
                    Decision::GbnRoundOffNack
                        | Decision::GbnNackOutsideEpisode
                        | Decision::GbnNackRepeated
                        | Decision::GbnRereadOffExpected
                        | Decision::GbnAckRegressed
                )
        })
        .map(|d| d.label())
        .collect()
}

/// Distinct violation-outcome decision points across the configs a
/// campaign *reported* — corpus + reproducers for coverage mode, anomalies
/// for the heuristic — recorded while the campaign scored them, so the
/// comparison costs no extra simulation runs.
fn reported_points(seed: u64, coverage: bool) -> (usize, FuzzOutcome) {
    let base = fig11_short();
    // Baseline-relative anomaly bar: the untouched fig11 base already has
    // a large innocent completion time, so an absolute bar would flag
    // every candidate and the "reported findings" comparison would be
    // meaningless. A finding is a config whose noisy-neighbor objective is
    // clearly elevated (+25%) over the base — the bar a human triaging
    // the campaign would actually use.
    let base_res = lumina_core::orchestrator::run_test(&base).unwrap();
    let (baseline, _) = score::noisy_neighbor_score(&base, &base_res);
    // (config YAML → its violation-outcome points), filled by the scorer.
    type SeenPoints = Vec<(String, BTreeSet<&'static str>)>;
    let seen: RefCell<SeenPoints> = RefCell::new(Vec::new());
    let scorer = |cfg: &TestConfig, res: &lumina_core::orchestrator::TestResults| {
        seen.borrow_mut().push((cfg.to_yaml(), violation_points(res)));
        // The §6.2.2 noisy-neighbor objective: a pure performance
        // heuristic, structurally blind to spec violations — exactly the
        // scorer the paper drove its campaigns with.
        score::noisy_neighbor_score(cfg, res)
    };
    let params = FuzzParams {
        pool_size: 4,
        iterations: 24,
        batch_size: 4,
        workers: 0,
        seed,
        // The heuristic campaign's discoveries are exactly the configs it
        // reports over the baseline-relative bar; coverage mode also
        // reports every decision-novel config through its corpus and
        // per-class reproducers, which is where its edge comes from.
        anomaly_threshold: baseline * 1.25,
        coverage: coverage.then(|| CoverageParams {
            shrink_budget: 8,
            ..Default::default()
        }),
        ..Default::default()
    };
    let mut m = EventMutator {
        // Both campaigns may flip misbehavior knobs; what differs is
        // whether novelty keeps the resulting behaviors alive.
        mutate_quirks: true,
        ..Default::default()
    };
    let out = fuzz(&base, &mut m, scorer, &params);

    let seen = seen.into_inner();
    let points_for = |yaml: &str| -> BTreeSet<&'static str> {
        seen.iter()
            .rev()
            .find(|(y, _)| y == yaml)
            .map(|(_, p)| p.clone())
            .unwrap_or_default()
    };
    let mut discovered: BTreeSet<&'static str> = BTreeSet::new();
    match &out.coverage {
        Some(cov) => {
            for e in &cov.corpus.entries {
                discovered.extend(points_for(&e.config.to_yaml()));
            }
            for r in &cov.reproducers {
                discovered.extend(points_for(&r.shrink.cfg.to_yaml()));
            }
        }
        None => {
            for (scored, _) in &out.anomalies {
                discovered.extend(points_for(&scored.cfg.to_yaml()));
            }
        }
    }
    (discovered.len(), out)
}

#[test]
fn coverage_mode_doubles_discovered_violation_pairs_at_fixed_budget() {
    // Measured at this seed and budget: the coverage campaign reports 3
    // violation-outcome points (`cnp.spurious`, `msn.regressed`,
    // `gbn.reread-off-expected`), the heuristic one none — 3 against the
    // `max(1)` floor. The hashed journal-edge signal this replaced
    // reported 48 (edge, class) pairs against 0, spanning the same two
    // oracle classes.
    let seed = 0xf1611;
    let (with_coverage, cov_out) = reported_points(seed, true);
    let (heuristic_only, _) = reported_points(seed, false);
    assert!(
        with_coverage >= 3,
        "coverage campaign too weak to make the comparison meaningful: \
         {with_coverage} points"
    );
    assert!(
        with_coverage >= 2 * heuristic_only.max(1),
        "coverage mode must discover >=2x the violation-outcome points: \
         {with_coverage} vs {heuristic_only}"
    );

    // Acceptance's second half: every violation finding ships a shrunk
    // reproducer that re-triggers its class when re-run.
    let cov = cov_out.coverage.as_ref().expect("coverage mode on");
    let mut checked = 0;
    for r in &cov.reproducers {
        let Some(class) = r.class else { continue };
        assert!(r.shrink.reproduces, "{class:?} reproducer must reproduce");
        let res = lumina_core::orchestrator::run_test(&r.shrink.cfg).unwrap();
        assert!(
            violation_classes(&res).contains(&class),
            "shrunk reproducer lost {class:?}"
        );
        checked += 1;
    }
    assert!(checked >= 1, "campaign proved no violation class at all");
}
