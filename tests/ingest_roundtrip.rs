//! Pcap round-trip corpus (robustness PR, ingestion satellite).
//!
//! Every preset in `configs/` runs live, exports its trace as pcap, and
//! re-ingests through the offline pipeline (format parse → frame
//! recovery → streaming reconstruction → discovery-mode conformance).
//! The offline grade must match the live one: same compliant flag, same
//! violation classes, every connection rediscovered from the wire alone.
//!
//! One documented exception: receiver-side ICRC drops live only in NIC
//! counters, which a capture file cannot carry. Presets that corrupt
//! packets (`quirks_demo`) therefore lose the `icrc-miscompute` finding
//! offline and may gain `unacked-delivery` findings for retransmissions
//! the live oracle could justify against the counter. Both grades still
//! agree on the compliant flag.

use lumina_core::analyzers::conformance::{analyze, ConformanceOpts};
use lumina_core::config::{FaultsSection, TestConfig};
use lumina_core::orchestrator::run_test;
use lumina_core::{ingest_reader, IngestParams, IntegrityReport, Violation};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn corpus() -> Vec<(String, TestConfig)> {
    let dir = repo_root().join("configs");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("configs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("yaml") {
            continue;
        }
        let yaml = std::fs::read_to_string(&path).unwrap();
        let cfg =
            TestConfig::from_yaml(&yaml).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        out.push((stem, cfg));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(out.len() >= 8, "corpus shrank: {}", out.len());
    out
}

fn class_counts(violations: &[Violation]) -> BTreeMap<&'static str, usize> {
    let mut m = BTreeMap::new();
    for v in violations {
        *m.entry(v.class.label()).or_insert(0) += 1;
    }
    m
}

fn params_for(cfg: &TestConfig, retain: bool) -> IngestParams {
    IngestParams {
        context: Some(cfg.clone()),
        retain_trace: retain,
        progress: false,
        ..IngestParams::default()
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Each preset's exported capture: `(preset, length, FNV-1a 64)`, recorded
/// from the field-by-field writer the staged `PcapWriter` replaced.
const EXPORTS: &[(&str, usize, u64)] = &[
    ("adaptive_retrans", 1_330, 0x0e1e_4965_459d_589a),
    ("chaos_demo", 399_038, 0x3791_be70_7610_45b1),
    ("cnp_hidden_interval", 75_112, 0x9cd6_0aad_dfd1_c146),
    ("delay_reorder_demo", 2_292, 0xc46c_945e_a926_1cc1),
    ("fig08_retrans_probe", 11_740, 0x760e_1ce3_37dd_2ba0),
    ("fig10_ets_bug", 3_065_090, 0x7635_c9dd_5f0e_88a5),
    ("fig11_noisy_neighbor", 696_818, 0xb192_11aa_435b_f913),
    ("interop_migreq", 686_412, 0xd167_f9b1_125d_6442),
    ("listing2", 17_822, 0x50a5_d7da_ae0f_6243),
    ("matrix_demo", 3_444, 0x70e9_73b9_0127_f715),
    ("quirks_demo", 21_850, 0x7c42_7e30_5fe5_0aa6),
];

#[test]
fn every_preset_reingests_to_the_live_verdict() {
    let mut exports = Vec::new();
    for (name, cfg) in corpus() {
        let res = run_test(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let trace = res
            .trace
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: live run produced no trace"));
        let opts = ConformanceOpts::from_results(&res);
        let live = analyze(trace, &res.conns, &opts);

        let mut pcap = Vec::new();
        trace.write_pcap(&mut pcap).unwrap();
        exports.push((name.clone(), pcap.len(), fnv1a64(&pcap)));
        let out = ingest_reader(Cursor::new(&pcap[..]), &name, &params_for(&cfg, false))
            .unwrap_or_else(|e| panic!("{name}: ingest failed: {e}"));

        assert_eq!(out.records, trace.len() as u64, "{name}: record count");
        assert!(
            out.pristine(),
            "{name}: a pristine export must re-ingest pristine: {:?} {:?}",
            out.integrity,
            out.first_malformed
        );
        assert_eq!(
            out.conns_tracked,
            res.conns.len(),
            "{name}: discovery must find every live connection"
        );
        assert_eq!(out.unattributed, 0, "{name}: no packet left unattributed");
        assert_eq!(
            out.conformance.compliant, live.compliant,
            "{name}: verdict diverged (live {:?} vs ingest {:?})",
            live.violations, out.conformance.violations
        );

        let mut live_classes = class_counts(&live.violations);
        let mut ingest_classes = class_counts(&out.conformance.violations);
        let icrc =
            res.requester_counters.rx_icrc_errors + res.responder_counters.rx_icrc_errors;
        if icrc > 0 {
            // ICRC evidence is invisible offline (see module docs).
            for m in [&mut live_classes, &mut ingest_classes] {
                m.remove("icrc-miscompute");
                m.remove("unacked-delivery");
            }
        }
        assert_eq!(
            live_classes, ingest_classes,
            "{name}: violation classes diverged"
        );
    }
    let pinned: Vec<_> = EXPORTS
        .iter()
        .map(|&(name, len, fnv)| (name.to_string(), len, fnv))
        .collect();
    assert_eq!(exports, pinned, "exported bytes moved");
}

#[test]
fn reexported_capture_is_byte_identical() {
    // `emit()` is the canonical wire form, so export → ingest → export
    // must be a fixed point: same bytes, timestamps and claimed lengths.
    let yaml = std::fs::read_to_string(repo_root().join("configs/listing2.yaml")).unwrap();
    let cfg = TestConfig::from_yaml(&yaml).unwrap();
    let res = run_test(&cfg).unwrap();
    let trace = res.trace.as_ref().unwrap();

    let mut first = Vec::new();
    trace.write_pcap(&mut first).unwrap();
    let out = ingest_reader(Cursor::new(&first[..]), "listing2", &params_for(&cfg, true)).unwrap();
    let replayed = out.trace.expect("retain_trace keeps the merged trace");
    assert_eq!(replayed.len(), trace.len());

    let mut second = Vec::new();
    replayed.write_pcap(&mut second).unwrap();
    assert_eq!(first, second, "re-export is not a fixed point");
}

#[test]
fn truncated_copy_still_grades_the_prefix_under_a_memory_bound() {
    let yaml =
        std::fs::read_to_string(repo_root().join("configs/fig08_retrans_probe.yaml")).unwrap();
    let cfg = TestConfig::from_yaml(&yaml).unwrap();
    let res = run_test(&cfg).unwrap();
    let trace = res.trace.as_ref().unwrap();

    let mut pcap = Vec::new();
    trace.write_pcap(&mut pcap).unwrap();
    // Cut mid-record, deep enough that a meaningful prefix survives.
    let cut = pcap.len() * 2 / 5 + 13;
    let params = IngestParams {
        max_resident_bytes: 4096,
        ..params_for(&cfg, false)
    };
    let out = ingest_reader(Cursor::new(&pcap[..cut]), "fig08-cut", &params)
        .expect("mid-file damage must degrade, not error");

    assert!(out.records > 0, "the readable prefix must be graded");
    assert!(out.records < trace.len() as u64);
    let (offset, msg) = out
        .first_malformed
        .as_ref()
        .expect("the cut must be reported with its offset");
    assert!(*offset <= cut as u64, "offset {offset} past the cut {cut}");
    assert!(!msg.is_empty());
    assert!(!out.pristine());
    assert!(
        out.conformance.partial,
        "a truncated capture must grade as partial evidence"
    );
}

#[test]
fn degraded_live_run_reingests_to_the_same_condition_one() {
    // Live and offline read condition 1 off the same reconstructor
    // summary, so a damaged run's exported trace must grade the same:
    // same gaps, same fraction, same detail line. What the export cannot
    // carry is what reconstruction already removed — the discarded
    // duplicates and the copies that did not parse — so offline those two
    // counts (and their detail lines) are zero where live they are not.
    let yaml =
        std::fs::read_to_string(repo_root().join("configs/fig11_noisy_neighbor.yaml")).unwrap();
    let mut cfg = TestConfig::from_yaml(&yaml).unwrap();
    cfg.faults = Some(FaultsSection {
        seed: Some(7),
        mirror_loss_prob: 0.02,
        mirror_dup_prob: 0.02,
        capture_bit_rot_prob: 0.01,
        ..FaultsSection::default()
    });
    let res = run_test(&cfg).unwrap();
    let live = res.integrity.degraded.as_ref().expect("faults degrade the run");
    assert!(live.missing > 0 && live.duplicates > 0 && live.bad_captures > 0);

    let mut pcap = Vec::new();
    res.trace.as_ref().unwrap().write_pcap(&mut pcap).unwrap();
    let out = ingest_reader(Cursor::new(&pcap[..]), "fig11-faults", &params_for(&cfg, false)).unwrap();
    let offline = out.integrity.degraded.as_ref().expect("the gaps survive the export");

    assert_eq!(offline.analyzable_fraction, live.analyzable_fraction);
    assert_eq!(offline.present, live.present);
    assert_eq!(offline.missing, live.missing);
    assert_eq!(offline.gaps, live.gaps);
    assert_eq!(offline.gaps_truncated, live.gaps_truncated);
    assert_eq!((offline.duplicates, offline.bad_captures), (0, 0));

    let gap_lines = |r: &IntegrityReport| -> Vec<String> {
        let mut lines = r.details.clone();
        lines.retain(|d| d.contains("mirror copies missing"));
        lines
    };
    assert_eq!(gap_lines(&res.integrity).len(), 1);
    assert_eq!(
        out.integrity.details,
        gap_lines(&res.integrity),
        "offline: the live gap line and nothing else"
    );
    assert!(!out.integrity.seq_consecutive && !res.integrity.seq_consecutive);
}
