//! Property coverage for the fuzzer's mutation operators: whatever
//! traffic shape the campaign starts from, `initial()`/`mutate()` must
//! never panic, and every output either validates cleanly or is counted
//! in the campaign's `rejected` tally — never silently lost.

use lumina_core::config::TestConfig;
use lumina_core::fuzz::mutate::{EventMutator, Mutator};
use lumina_core::fuzz::{fuzz, FuzzParams};
use lumina_sim::SimRng;
use proptest::prelude::*;

fn base_cfg(mtu: u32, msg_size: u32, conns: u32, msgs: u32, verb: &str) -> TestConfig {
    TestConfig::from_yaml(&format!(
        r#"
traffic:
  num-connections: {conns}
  rdma-verb: {verb}
  num-msgs-per-qp: {msgs}
  mtu: {mtu}
  message-size: {msg_size}
"#
    ))
    .unwrap()
}

proptest! {
    /// Mutation chains over arbitrary valid bases never panic, and every
    /// produced configuration is either valid or detectably invalid (so
    /// the campaign rejects it) — `validate()` itself must not panic.
    #[test]
    fn mutate_output_valid_or_rejectable(
        mtu in prop::sample::select(vec![256u32, 512, 1024, 4096]),
        msg_size in prop::sample::select(vec![256u32, 1024, 4096, 10_240]),
        conns in 1u32..8,
        msgs in 1u32..4,
        verb in prop::sample::select(vec!["write", "read", "send"]),
        seed in 0u64..1_000,
    ) {
        let base = base_cfg(mtu, msg_size, conns, msgs, verb);
        prop_assert!(base.problems().is_empty(), "{:?}", base.problems());
        let mut m = EventMutator::default();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut cfg = m.initial(&base, &mut rng);
        let _ = cfg.validate(); // must not panic regardless of verdict
        for _ in 0..40 {
            cfg = m.mutate(&cfg, &mut rng);
            let problems = cfg.problems();
            // The EventMutator is designed to stay within the valid
            // space; if that ever regresses, the campaign still has to
            // classify the output, so validate() must give a verdict.
            prop_assert!(problems.is_empty(), "mutation left valid space: {problems:?}");
        }
    }

    /// The degenerate corner the issue calls out: mtu=256, one message,
    /// one connection. Single-packet flows mean psn ranges collapse to
    /// [1,1]; no mutation may panic there.
    #[test]
    fn edge_config_never_panics(seed in 0u64..2_000) {
        let base = base_cfg(256, 256, 1, 1, "write");
        let mut m = EventMutator::default();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut cfg = m.initial(&base, &mut rng);
        for _ in 0..60 {
            cfg = m.mutate(&cfg, &mut rng);
            let _ = cfg.validate();
        }
    }

    /// Campaign-level conservation: every candidate the campaign draws is
    /// accounted for — scored into `history` or counted in `rejected`.
    #[test]
    fn campaign_accounts_for_every_candidate(seed in 0u64..50) {
        let base = base_cfg(1024, 4096, 2, 2, "write");
        let mut m = EventMutator::default();
        let params = FuzzParams {
            pool_size: 2,
            iterations: 5,
            batch_size: 2,
            workers: 0,
            seed,
            ..Default::default()
        };
        let out = fuzz(&base, &mut m, |_c, _r| (0.0, String::new()), &params);
        prop_assert_eq!(out.history.len() + out.rejections.len(), params.iterations);
    }
}

#[test]
fn events_only_edge_config_never_panics() {
    let base = base_cfg(256, 256, 1, 1, "send");
    let mut m = EventMutator {
        events_only: true,
        ..Default::default()
    };
    let mut rng = SimRng::seed_from_u64(99);
    let mut cfg = m.initial(&base, &mut rng);
    for _ in 0..200 {
        cfg = m.mutate(&cfg, &mut rng);
        assert!(cfg.problems().is_empty(), "{:?}", cfg.problems());
    }
}
