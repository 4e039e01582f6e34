//! Byte pins of everything a run's event log renders, each group folded
//! into one FNV-1a 64 constant. They were recorded while the journal and
//! the flight recorder were still two rings, before the two became one
//! log, and must never be re-recorded to fit a change:
//!
//! * (a) every `configs/` preset at seeds 1 and 2, untraced: the journal
//!   JSONL and the report's `telemetry` section;
//! * (b) every preset whose packet hops fit the default trace ring, at
//!   seed 1 with `trace: {}`: the journal JSONL, the hop JSONL, the
//!   Perfetto document and the whole report;
//! * (c) a run whose journal overflows its 65 536-record ring, untraced:
//!   the journal JSONL and both counts.
//!
//! A fourth group, (d), was recorded while the telemetry registry still
//! stored JSON copies of every component's counters, before the reports
//! read them from their owners: the report's `telemetry` section and both
//! renderings of `lumina-cli telemetry`, for every preset at seed 1, for
//! the noisy-neighbor preset with every dumper and engine fault armed, and
//! for one traced run.
//!
//! One model fix re-recorded (a), (b) and (d): a CNP that found a QP's
//! DCQCN rate timer stopped and its alpha timer still running restarts the
//! rate timer. Only `quirks_demo` moved: its run ends at ≈ 0.54 s instead of
//! the 60 s horizon, so its end time and its engine's `timers_fired` and
//! `events` changed; every other preset hashed as before.
//!
//! A failure prints the hash it saw.

use lumina_core::config::{FaultsSection, FreezeSpec, StallSpec, TestConfig, TraceSection};
use lumina_core::orchestrator::{run_test, TestResults};
use lumina_core::report::{TelemetryReport, TraceReport};
use std::path::PathBuf;

/// FNV-1a 64 over a sequence of byte strings, each one terminated, so
/// that moving a byte from one piece to the next changes the hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn piece(&mut self, bytes: impl AsRef<[u8]>) {
        for b in bytes.as_ref().iter().chain([&0u8]) {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every preset, by file stem, in name order.
fn presets() -> Vec<(String, TestConfig)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("configs");
    let mut out: Vec<(String, TestConfig)> = std::fs::read_dir(dir)
        .expect("configs/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "yaml"))
        .map(|p| {
            let yaml = std::fs::read_to_string(&p).expect("preset reads");
            let cfg =
                TestConfig::from_yaml(&yaml).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            let stem = p.file_stem().expect("stem").to_string_lossy().into_owned();
            (stem, cfg)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(out.len(), 11, "the pins cover exactly the eleven presets");
    out
}

fn run(name: &str, cfg: &TestConfig) -> TestResults {
    run_test(cfg).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn report(name: &str, res: &TestResults) -> serde_json::Value {
    res.report_json().unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The hop view of a traced run, one JSON object per line.
fn hop_jsonl(res: &TestResults) -> String {
    res.telemetry.hops_jsonl()
}

#[test]
fn untraced_journals_and_telemetry_sections_are_pinned() {
    let mut h = Fnv::new();
    for (name, mut cfg) in presets() {
        cfg.trace = None;
        for seed in [1, 2] {
            cfg.network.seed = seed;
            let res = run(&name, &cfg);
            h.piece(format!("{name}@{seed}"));
            h.piece(res.telemetry.journal_jsonl());
            h.piece(report(&name, &res)["telemetry"].to_string());
        }
    }
    assert_eq!(h.0, 0x98d8_ceb1_ffda_1ee5, "saw {:#018x}", h.0);
}

#[test]
fn traced_runs_that_fit_both_rings_are_pinned() {
    let mut h = Fnv::new();
    // `fig10_ets_bug` records 414 499 hops: the default ring evicts.
    for (name, mut cfg) in presets().into_iter().filter(|(n, _)| n != "fig10_ets_bug") {
        cfg.trace = Some(TraceSection::default());
        cfg.network.seed = 1;
        let res = run(&name, &cfg);
        h.piece(&name);
        h.piece(res.telemetry.journal_jsonl());
        h.piece(hop_jsonl(&res));
        h.piece(TraceReport::of(&res).perfetto().0);
        h.piece(report(&name, &res).to_string());
    }
    assert_eq!(h.0, 0x2212_1402_365b_0192, "saw {:#018x}", h.0);
}

#[test]
fn an_overflowing_journal_is_pinned() {
    // The `cli_e2e` overflow run: 66 x 1 MiB at MTU 1024 is 67 584 data
    // packets, one mirror record each.
    let cfg = TestConfig::from_yaml(
        "requester: { nic-type: cx6 }\nresponder: { nic-type: cx6 }\n\
         traffic:\n  num-connections: 1\n  rdma-verb: write\n  num-msgs-per-qp: 66\n  \
         mtu: 1024\n  message-size: 1048576\n",
    )
    .expect("config parses");
    let res = run("overflow", &cfg);
    let tel = &res.telemetry;
    assert!(tel.journal_dropped() > 0, "the ring must overflow");
    let mut h = Fnv::new();
    h.piece(tel.journal_jsonl());
    h.piece(tel.journal_len().to_string());
    h.piece(tel.journal_dropped().to_string());
    assert_eq!(h.0, 0xacd3_1b7d_3acf_4238, "saw {:#018x}", h.0);
}

/// The report's `telemetry` section and `TelemetryReport`'s JSON and human
/// renderings of one run; returns the section.
fn telemetry_views(h: &mut Fnv, name: &str, cfg: &TestConfig) -> serde_json::Value {
    let res = run(name, cfg);
    let view = TelemetryReport::of(&res);
    let section = report(name, &res)["telemetry"].clone();
    h.piece(name);
    h.piece(section.to_string());
    h.piece(view.to_json().unwrap_or_else(|e| panic!("{name}: {e}")).to_string());
    h.piece(view.render_human().unwrap_or_else(|e| panic!("{name}: {e}")));
    section
}

#[test]
fn telemetry_reports_are_pinned() {
    let mut h = Fnv::new();
    let mut presets = presets();
    for (name, cfg) in &mut presets {
        cfg.network.seed = 1;
        telemetry_views(&mut h, name, cfg);
    }
    // Node 2's `faults` set and the dumpers' two fault counts, which only
    // a fault-injected run renders.
    let (_, fig11) = presets
        .iter()
        .find(|(n, _)| n == "fig11_noisy_neighbor")
        .expect("fig11 preset");
    let mut faulted = fig11.clone();
    faulted.faults = Some(FaultsSection {
        seed: Some(7),
        mirror_loss_prob: 0.02,
        mirror_dup_prob: 0.02,
        capture_bit_rot_prob: 0.1,
        dumper_stalls: vec![StallSpec {
            index: None,
            at_us: 0,
            duration_us: 200_000,
            slowdown: 50,
        }],
        freezes: vec![FreezeSpec {
            node: "responder".into(),
            index: 0,
            at_us: 50,
            duration_us: 200,
        }],
    });
    faulted.validate().expect("fault section validates");
    let section = telemetry_views(&mut h, "fig11_noisy_neighbor+faults", &faulted);
    let dumper = &section["nodes"]["3"]["dumper"];
    assert!(dumper["captures_corrupted"].as_u64() > Some(0), "{dumper}");
    assert!(dumper["service_ticks_stalled"].as_u64() > Some(0), "{dumper}");
    assert!(section["nodes"]["2"]["faults"].as_object().is_some());
    // Node 2's `trace` set.
    let (_, listing2) = presets
        .iter()
        .find(|(n, _)| n == "listing2")
        .expect("listing2 preset");
    let mut traced = listing2.clone();
    traced.trace = Some(TraceSection::default());
    let section = telemetry_views(&mut h, "listing2+trace", &traced);
    assert!(section["nodes"]["2"]["trace"].as_object().is_some());
    assert_eq!(h.0, 0xb59c_4048_49ab_9434, "saw {:#018x}", h.0);
}
