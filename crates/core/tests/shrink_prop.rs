//! Property tests for the reproducer shrinker (coverage-guided fuzzing
//! PR, satellite 2): over randomized finding configurations, shrinking
//! must (a) never panic, (b) always return a *valid* configuration, and
//! (c) when it claims the finding reproduces, the shrunk config must
//! re-trigger the original violation class on an independent re-run.
//! The properties hold regardless of which knobs fire, how much event
//! debris the config carries, or how tight the run budget is.

use lumina_core::analyzers::ViolationClass;
use lumina_core::config::{EventSpec, QuirksSection, TestConfig};
use lumina_core::fuzz::coverage::violation_classes;
use lumina_core::fuzz::shrink::{shrink_violation, ShrinkParams};
use lumina_rnic::{Quirk, QuirkKnobs};
use proptest::prelude::*;

/// A base config sized so a run is fast but every shrink dimension has
/// something to chew on: spare connections, spare messages, debris events.
fn base(num_connections: u32, num_msgs: u32) -> TestConfig {
    let mut cfg = TestConfig::from_yaml(
        r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 1
  rdma-verb: read
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 4096
"#,
    )
    .unwrap();
    cfg.traffic.num_connections = num_connections;
    cfg.traffic.num_msgs_per_qp = num_msgs;
    cfg
}

/// The quirk knob under test: (section, class it proves on a read
/// workload). Ghost retransmits and stale MSNs both fire deterministically
/// at prob 1.0, so the "reproduces" leg of the property is non-vacuous.
fn firing_quirks(which: usize) -> (QuirksSection, ViolationClass) {
    match which % 2 {
        0 => (
            QuirksSection {
                knobs: QuirkKnobs::default().with(Quirk::GhostRetransmit, 1.0),
                ..Default::default()
            },
            ViolationClass::SpuriousRetransmit,
        ),
        _ => (
            QuirksSection {
                knobs: QuirkKnobs::default().with(Quirk::StaleMsn, 1.0),
                ..Default::default()
            },
            ViolationClass::MsnRegression,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// The full contract in one property: no panic, valid output, and a
    /// truthful `reproduces` flag backed by an actual re-run.
    #[test]
    fn shrinking_is_panic_free_valid_and_truthful(
        num_connections in 1u32..4,
        num_msgs in 1u32..4,
        which_quirk in 0usize..2,
        debris_knob in 0usize..2,
        debris_events in prop::collection::vec(0u32..15, 0..3),
        max_runs in 0usize..24,
    ) {
        let (quirks, class) = firing_quirks(which_quirk);
        let mut cfg = base(num_connections, num_msgs);
        let mut q = quirks;
        if debris_knob == 1 {
            // An irrelevant knob the shrinker should be able to clear.
            q.knobs[Quirk::CnpSpurious] = 0.02;
        }
        cfg.quirks = Some(q);
        for enc in debris_events {
            // One draw encodes (qpn, psn): the shim has no tuple strategy.
            let (qpn, psn) = (enc % 3 + 1, enc / 3 + 1);
            cfg.traffic.data_pkt_events.push(EventSpec {
                qpn: qpn.min(cfg.traffic.num_connections),
                psn,
                r#type: "ecn".into(),
                iter: 1,
                every: 0,
                delay_us: 0,
                reorder_by: 0,
            });
        }
        prop_assert!(cfg.validate().is_ok(), "precondition: base must be valid");

        let out = shrink_violation(
            &cfg,
            class,
            &ShrinkParams { max_runs, max_passes: 2 },
        );

        // (a) reaching here is the no-panic half; (b) output always valid.
        prop_assert!(out.cfg.validate().is_ok(), "{:?}", out.cfg.problems());
        prop_assert!(out.runs_used <= max_runs.max(1));

        if out.reproduces {
            // (c) the shrunk config must re-trigger the class when re-run.
            let res = lumina_core::orchestrator::run_test(&out.cfg).unwrap();
            prop_assert!(
                violation_classes(&res).contains(&class),
                "shrunk config lost {class:?}"
            );
        } else {
            // Not reproducing (e.g. zero budget) must mean "untouched".
            prop_assert_eq!(out.cfg.to_yaml(), cfg.to_yaml());
            prop_assert_eq!(out.removed(), 0);
        }
    }

    /// Shrinking a class the config can never prove is a bounded no-op:
    /// one verification run, original returned untouched.
    #[test]
    fn impossible_targets_cost_one_run(
        num_connections in 1u32..3,
        which_quirk in 0usize..2,
    ) {
        let (quirks, _) = firing_quirks(which_quirk);
        let mut cfg = base(num_connections, 1);
        cfg.quirks = Some(quirks);
        let out = shrink_violation(
            &cfg,
            ViolationClass::IcrcMiscompute, // never fires here
            &ShrinkParams::default(),
        );
        prop_assert!(!out.reproduces);
        prop_assert_eq!(out.runs_used, 1);
        prop_assert_eq!(out.cfg.to_yaml(), cfg.to_yaml());
    }
}
