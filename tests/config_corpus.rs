//! Every shipped preset in `configs/` must parse, validate, and — except
//! the deliberately heavy ones — run green end to end.

use lumina_core::config::TestConfig;
use lumina_core::orchestrator::run_test;

fn corpus() -> Vec<(String, TestConfig)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/configs");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("configs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("yaml") {
            continue;
        }
        let yaml = std::fs::read_to_string(&path).unwrap();
        let cfg = TestConfig::from_yaml(&yaml)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        out.push((path.file_name().unwrap().to_string_lossy().into_owned(), cfg));
    }
    assert!(out.len() >= 8, "corpus shrank: {}", out.len());
    out
}

#[test]
fn all_presets_parse_and_validate() {
    for (name, cfg) in corpus() {
        let problems = cfg.problems();
        assert!(problems.is_empty(), "{name}: {problems:?}");
    }
}

#[test]
fn light_presets_run_green() {
    // The noisy-neighbor preset runs hundreds of ms of simulated
    // collapse; exclude it here (its behavior is asserted in
    // tests/figures_shape.rs) and run everything else end to end.
    // Presets declaring an active chaos schedule are also excluded:
    // wedging is their point (tests/chaos_soak.rs asserts it), so
    // "traffic completes" is exactly the wrong invariant for them.
    for (name, cfg) in corpus() {
        if name == "fig11_noisy_neighbor.yaml" || name == "fig10_ets_bug.yaml" {
            continue;
        }
        if cfg.chaos.as_ref().is_some_and(|c| !c.is_noop()) {
            continue;
        }
        let res = run_test(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(res.traffic_completed(), "{name}: traffic incomplete");
        assert!(res.integrity.passed(), "{name}: {:?}", res.integrity);
    }
}

#[test]
fn listing2_preset_reproduces_its_events() {
    let yaml = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/configs/listing2.yaml"
    ))
    .unwrap();
    let res = run_test(&TestConfig::from_yaml(&yaml).unwrap()).unwrap();
    assert_eq!(res.events_fired, 3);
    assert_eq!(res.switch_counters.injected_ecn, 1);
    assert_eq!(res.switch_counters.injected_drops, 2);
    assert_eq!(res.responder_counters.np_cnp_sent, 1);
}

fn preset(name: &str) -> TestConfig {
    let path = format!("{}/configs/{name}", env!("CARGO_MANIFEST_DIR"));
    TestConfig::from_yaml(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

/// A number that wraps or overflows the arithmetic it feeds is a config
/// error (exit 2) naming its section and field, on the dev profile (where
/// the overflow would panic) and on the release profile (where it would
/// wrap) alike: `just release-bytes` runs this suite under `--release`.
fn assert_rejected(cfg: &TestConfig, field: &str) {
    let e = cfg.validate().expect_err(field);
    assert_eq!(e.exit_code(), 2, "{e}");
    assert!(e.to_string().contains(field), "{field}: {e}");
    let e = run_test(cfg).err().expect(field);
    assert_eq!(e.exit_code(), 2, "{e}");
}

#[test]
fn hostile_cnp_interval_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.requester.min_time_between_cnps_us = u64::MAX;
    assert_rejected(&cfg, "requester: min-time-between-cnps-us");
}

#[test]
fn hostile_delay_is_a_config_error() {
    let mut cfg = preset("delay_reorder_demo.yaml");
    let ev = cfg.traffic.data_pkt_events.iter_mut().find(|e| e.r#type == "delay");
    ev.unwrap().delay_us = u64::MAX;
    assert_rejected(&cfg, "traffic: event 0: delay-us");
}

/// A delay that fits the clock on its own but not once it is added to a
/// late arrival: the switch's release timer would overflow.
#[test]
fn late_overflowing_delay_is_a_config_error() {
    let mut cfg = preset("delay_reorder_demo.yaml");
    let ev = cfg.traffic.data_pkt_events.iter_mut().find(|e| e.r#type == "delay");
    ev.unwrap().delay_us = u64::MAX / 1_000;
    assert_rejected(
        &cfg,
        "traffic: event 0: delay-us 18446744073709551 does not fit",
    );
}

/// The same for a chaos burst's reorder delay, which is added to the
/// arrival time of every frame it reorders.
#[test]
fn late_overflowing_reorder_delay_is_a_config_error() {
    let mut cfg = preset("chaos_demo.yaml");
    let burst = &mut cfg.chaos.as_mut().unwrap().links[0].bursts[0];
    burst.reorder_prob = 1.0;
    burst.reorder_delay_us = u64::MAX / 1_000;
    assert_rejected(
        &cfg,
        "chaos: link 0: burst 0: reorder-delay-us 18446744073709551 does not fit",
    );
}

#[test]
fn hostile_period_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.traffic.data_pkt_events[0].every = u32::MAX;
    assert_rejected(&cfg, "traffic: event 0: psn 4 + every 4294967295");
}

#[test]
fn hostile_packet_count_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.traffic.mtu = 1;
    cfg.traffic.message_size = u32::MAX;
    assert_rejected(&cfg, "traffic: num-msgs-per-qp 10 × message-size 4294967295");
}

#[test]
fn hostile_propagation_delay_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.network.propagation_delay_ns = u64::MAX;
    assert_rejected(&cfg, "network: propagation-delay-ns 18446744073709551615 exceeds");
}

#[test]
fn hostile_dumper_count_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.network.num_dumpers = usize::MAX;
    assert_rejected(&cfg, "network: num-dumpers 18446744073709551615 exceeds 65536");
}

#[test]
fn hostile_dumper_core_count_is_a_config_error() {
    let mut cfg = preset("listing2.yaml");
    cfg.network.dumper_cores = u32::MAX as usize;
    assert_rejected(&cfg, "network: dumper-cores 4294967295 × num-dumpers 3 exceeds 65536");
}
