//! Fault-injection matrix: every fault kind the `faults:` section knows,
//! exercised on the Figure-11 noisy-neighbor preset. Each kind must
//! (a) actually fire, (b) leave the run analyzable (degrade, not die),
//! and (c) be bit-for-bit replayable — two same-seed runs produce
//! byte-identical JSON reports, fault schedule included.

use lumina_core::config::{FaultsSection, FreezeSpec, StallSpec, TestConfig};
use lumina_core::orchestrator::run_test;
use lumina_core::TestResults;

fn fig11_with(faults: FaultsSection) -> TestConfig {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/configs/fig11_noisy_neighbor.yaml"
    );
    let yaml = std::fs::read_to_string(path).expect("preset exists");
    let mut cfg = TestConfig::from_yaml(&yaml).unwrap();
    cfg.faults = Some(faults);
    cfg.validate().expect("fault section validates");
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
        "same-seed fault runs must replay bit-for-bit"
    );
    (a, ja)
}

#[test]
fn mirror_loss_degrades_the_trace_deterministically() {
    let cfg = fig11_with(FaultsSection {
        mirror_loss_prob: 0.02,
        ..FaultsSection::default()
    });
    let (res, report) = run_replayed(&cfg);
    let dropped = report["faults"]["mirror_copies_dropped"].as_u64().unwrap();
    assert!(dropped > 0, "2% loss on a fig11-sized trace must fire");
    // The trace survives with explicit gaps instead of vanishing.
    let trace = res.trace.as_ref().expect("partial trace kept");
    assert!(!trace.is_empty());
    assert!(!res.integrity.passed());
    let deg = res.integrity.degraded.as_ref().expect("degraded block");
    assert!(deg.analyzable_fraction > 0.5 && deg.analyzable_fraction < 1.0);
    assert!(deg.missing > 0 && !deg.gaps.is_empty());
    assert!(res.traffic_completed(), "faults hit the mirror path only");
}

#[test]
fn mirror_duplication_is_deduped_and_reported() {
    let cfg = fig11_with(FaultsSection {
        mirror_dup_prob: 0.02,
        ..FaultsSection::default()
    });
    let (res, report) = run_replayed(&cfg);
    let duplicated = report["faults"]["mirror_copies_duplicated"]
        .as_u64()
        .unwrap();
    assert!(duplicated > 0);
    let deg = res.integrity.degraded.as_ref().expect("degraded block");
    assert_eq!(deg.duplicates, duplicated, "every extra copy deduped");
    assert_eq!(deg.missing, 0, "duplication alone loses nothing");
    assert_eq!(deg.analyzable_fraction, 1.0);
    assert!(res.traffic_completed());
}

#[test]
fn capture_bit_rot_is_counted_per_run() {
    let cfg = fig11_with(FaultsSection {
        capture_bit_rot_prob: 0.2,
        ..FaultsSection::default()
    });
    let (res, report) = run_replayed(&cfg);
    let corrupted = report["faults"]["captures_corrupted"].as_u64().unwrap();
    assert!(corrupted > 0, "20% bit-rot must corrupt some captures");
    let per_dumper = res.dumper_counts.iter().map(|c| c.captures_corrupted);
    assert_eq!(corrupted, per_dumper.sum::<u64>());
    assert!(res.traffic_completed());
    assert!(res.trace.is_some(), "flips never discard the whole trace");
}

#[test]
fn dumper_stall_inflates_service_and_can_overflow() {
    let cfg = fig11_with(FaultsSection {
        dumper_stalls: vec![StallSpec {
            index: None, // every dumper
            at_us: 0,
            duration_us: 200_000,
            slowdown: 50,
        }],
        ..FaultsSection::default()
    });
    let (res, report) = run_replayed(&cfg);
    let stalled = report["faults"]["service_ticks_stalled"].as_u64().unwrap();
    assert!(stalled > 0, "a 200 ms x50 stall must slow some service ticks");
    let per_dumper = res.dumper_counts.iter().map(|c| c.service_ticks_stalled);
    assert_eq!(stalled, per_dumper.sum::<u64>());
    assert!(res.traffic_completed(), "stalls never touch the data path");
}

#[test]
fn responder_freeze_recovers_through_retransmission() {
    let cfg = fig11_with(FaultsSection {
        freezes: vec![FreezeSpec {
            node: "responder".into(),
            index: 0,
            at_us: 50,
            duration_us: 200,
        }],
        ..FaultsSection::default()
    });
    let (res, report) = run_replayed(&cfg);
    let frozen = report["faults"]["frames_dropped_frozen"].as_u64().unwrap();
    assert!(frozen > 0, "a mid-run freeze must eat in-flight frames");
    assert!(
        res.traffic_completed(),
        "go-back-N must recover the frozen window"
    );
}

#[test]
fn fault_seed_varies_schedule_without_touching_workload() {
    let mk = |fault_seed| {
        fig11_with(FaultsSection {
            seed: Some(fault_seed),
            mirror_loss_prob: 0.02,
            ..FaultsSection::default()
        })
    };
    let a = run_test(&mk(1)).unwrap();
    let b = run_test(&mk(2)).unwrap();
    // Same workload either way: the engine RNG never sees the fault seed.
    assert_eq!(a.conns[0].requester.qpn, b.conns[0].requester.qpn);
    assert!(a.traffic_completed() && b.traffic_completed());
    // But the fault schedule differs.
    let (fa, fb) = (a.fault_stats.unwrap(), b.fault_stats.unwrap());
    assert_ne!(
        fa.mirror_copies_dropped, fb.mirror_copies_dropped,
        "different fault seeds should drop different copies"
    );
}

#[test]
fn noop_fault_section_matches_a_pristine_run_byte_for_byte() {
    let pristine = {
        let mut cfg = fig11_with(FaultsSection::default());
        cfg.faults = None;
        cfg
    };
    let noop = fig11_with(FaultsSection::default());
    let a = run_test(&pristine).unwrap();
    let b = run_test(&noop).unwrap();
    assert_eq!(
        serde_json::to_string(&a.report_json().unwrap()).unwrap(),
        serde_json::to_string(&b.report_json().unwrap()).unwrap(),
        "an all-zero faults: section must not perturb the run"
    );
    assert!(b.fault_stats.is_none(), "no plane attached for a noop section");
}

/// FNV-1a, 64 bit: small enough to pin whole reports and journals as
/// constants.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Both planes armed on one small WRITE run, every fate firing: mirror
/// loss + dup, a responder freeze inside the first flight, and on both host
/// links a loss/corrupt/reorder burst over that flight plus a pause and a
/// short flap over the post-RTO retry flight (≈ 67.16 ms).
const BOTH_PLANES_YAML: &str = "\
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 4
  rdma-verb: write
  num-msgs-per-qp: 16
  mtu: 1024
  message-size: 16384
network:
  seed: 7
  horizon-ms: 2000
faults:
  seed: 21
  mirror-loss-prob: 0.05
  mirror-dup-prob: 0.05
  freezes:
    - {node: responder, at-us: 30, duration-us: 30}
chaos:
  seed: 33
  links:
    - link: requester
      bursts:
        - {at-us: 5, duration-us: 30, loss-prob: 0.05, corrupt-prob: 0.05, reorder-prob: 0.1}
      pauses:
        - {at-us: 67170, duration-us: 10}
      flaps:
        - {at-us: 67200, duration-us: 4}
    - link: responder
      bursts:
        - {at-us: 5, duration-us: 30, loss-prob: 0.05, corrupt-prob: 0.05, reorder-prob: 0.1}
      pauses:
        - {at-us: 67170, duration-us: 10}
      flaps:
        - {at-us: 67200, duration-us: 4}
";

/// No golden has a `faults:` section and nothing else arms both planes, so
/// this is what pins the `"fault"` / `"chaos"` journal lines, the order of
/// the planes' RNG draws and the link busy-time they leave behind. The
/// constants were recorded before the planes' effects moved out of the
/// engine; a change to them is a behaviour change.
#[test]
fn both_planes_armed_pin_report_and_journal_bytes() {
    const REPORT: u64 = 0xd9d9_0a25_7c08_518b;
    const REPORT_TRACED: u64 = 0x454a_c059_cdca_9ded;
    const JOURNAL: u64 = 0x59cc_28dc_4bde_de58;

    let mut cfg = TestConfig::from_yaml(BOTH_PLANES_YAML).unwrap();
    cfg.validate().expect("both sections validate");
    for (traced, want_report) in [(false, REPORT), (true, REPORT_TRACED)] {
        cfg.trace = traced.then(lumina_core::config::TraceSection::default);
        let res = run_test(&cfg).unwrap();
        assert!(res.traffic_completed(), "go-back-N recovers every window");
        let f = res.fault_stats.expect("fault plane attached");
        let c = res.chaos_stats.expect("chaos plane attached");
        for (name, n) in [
            ("mirror_copies_dropped", f.mirror_copies_dropped),
            ("mirror_copies_duplicated", f.mirror_copies_duplicated),
            ("frames_dropped_frozen", f.frames_dropped_frozen),
            ("timers_deferred", f.timers_deferred),
            ("flap_drops", c.flap_drops),
            ("burst_drops", c.burst_drops),
            ("corruptions", c.corruptions),
            ("reorders", c.reorders),
            ("paused_frames", c.paused_frames),
        ] {
            assert!(n > 0, "{name} never fired (traced={traced}): {f:?} {c:?}");
        }
        let report = serde_json::to_string(&res.report_json().unwrap()).unwrap();
        let journal = res.telemetry.journal_jsonl();
        assert_eq!(
            (fnv1a64(report.as_bytes()), fnv1a64(journal.as_bytes())),
            (want_report, JOURNAL),
            "traced={traced}: report / journal FNV-64 moved"
        );
    }
}
