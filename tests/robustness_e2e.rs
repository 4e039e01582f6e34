//! Degrade-don't-die, end to end: an under-provisioned capture pool
//! yields a *degraded* report (never an absent one), the event-budget
//! watchdog turns a runaway run into a typed error with its own exit
//! code, and `run_supervised` is a single attempt that leaves a clean run
//! untouched.

use lumina_core::config::TestConfig;
use lumina_core::orchestrator::{run_supervised, run_test, RetryPolicy};
use lumina_core::Error;

fn base_cfg() -> TestConfig {
    TestConfig::from_yaml(
        r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 4
  rdma-verb: write
  num-msgs-per-qp: 4
  mtu: 1024
  message-size: 10240
"#,
    )
    .unwrap()
}

#[test]
fn undersized_ring_degrades_instead_of_discarding_the_report() {
    // A small-MTU 64 KB workload bursts far faster than one dumper with a
    // 4-slot ring can drain; before degraded mode this discarded the
    // whole report.
    let mut cfg = base_cfg();
    cfg.traffic.mtu = 256;
    cfg.traffic.message_size = 65536;
    cfg.network.num_dumpers = 1;
    cfg.network.dumper_ring_capacity = 4;
    cfg.validate().unwrap();
    let res = run_test(&cfg).unwrap();

    // The workload itself is untouched by capture-side overflow.
    assert!(res.traffic_completed());

    // The trace survives in degraded form: present, explicit about gaps.
    let trace = res.trace.as_ref().expect("degraded, never absent");
    assert!(!trace.is_empty());
    assert!(!res.integrity.passed(), "overflow must not pass integrity");
    let deg = res
        .integrity
        .degraded
        .as_ref()
        .expect("ring overflow reports degraded mode");
    assert!(deg.missing > 0);
    assert!(deg.analyzable_fraction < 1.0);
    assert!(!deg.gaps.is_empty());

    // And the JSON report carries the same story for machine consumers.
    let report = res.report_json().unwrap();
    assert!(report["integrity"]["degraded"]["analyzable_fraction"]
        .as_f64()
        .is_some());
}

#[test]
fn event_budget_watchdog_is_a_typed_error_with_exit_code_7() {
    let mut cfg = base_cfg();
    cfg.network.max_events = Some(10);
    cfg.validate().unwrap();
    let err = match run_test(&cfg) {
        Err(e) => e,
        Ok(_) => panic!("10 events cannot finish anything"),
    };
    match &err {
        Error::Watchdog(msg) => assert!(msg.contains("event budget"), "{msg}"),
        other => panic!("expected Watchdog, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 7);
}

#[test]
fn run_supervised_passes_a_clean_run_through_untouched() {
    let cfg = base_cfg();
    let supervised = run_supervised(&cfg, &RetryPolicy::default()).unwrap();
    let direct = run_test(&cfg).unwrap();
    assert_eq!(
        serde_json::to_string(&supervised.report_json().unwrap()).unwrap(),
        serde_json::to_string(&direct.report_json().unwrap()).unwrap(),
        "supervision is transparent on the happy path"
    );
}
