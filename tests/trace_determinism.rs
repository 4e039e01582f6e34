//! Lifecycle tracing is part of the deterministic surface: the event
//! log's hop view and its Perfetto export must be byte-identical across
//! same-seed runs, and — because provenance ids are normalized against a
//! baseline captured when the run is built — across threads whose provenance
//! counters start at different values (exactly the situation of parallel
//! fuzz workers, each of which replays candidates on its own thread).
//! The same baseline is taken by untraced runs, so a journal record names
//! its packet by the same id whether or not the run traced.

use lumina_core::config::{TestConfig, TraceSection};
use lumina_core::orchestrator::run_test;
use lumina_sim::telemetry::trace::perfetto_json;
use std::collections::BTreeMap;

const TRACED_YAML: &str = r#"
requester:
  nic-type: cx5
responder:
  nic-type: cx5
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 4
  mtu: 1024
  message-size: 4096
  tx-depth: 2
trace:
  capacity: 65536
"#;

/// Run the traced config and render both deterministic views.
fn trace_bytes() -> (String, String) {
    let cfg = TestConfig::from_yaml(TRACED_YAML).expect("config parses");
    let res = run_test(&cfg).expect("run succeeds");
    assert!(res.telemetry.is_tracing(), "trace section arms the hop view");
    let mut names = BTreeMap::new();
    for (id, name) in [(0u32, "requester"), (1, "responder"), (2, "switch"), (3, "dumper-0")] {
        names.insert(id, name.to_string());
    }
    res.telemetry.with_log(|log| {
        assert!(log.hops().next().is_some(), "instrumented hops recorded");
        let perfetto = serde_json::to_string(&perfetto_json(log, &names)).expect("serializes");
        (log.hops_jsonl(), perfetto)
    })
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (jsonl_a, perfetto_a) = trace_bytes();
    let (jsonl_b, perfetto_b) = trace_bytes();
    assert_eq!(jsonl_a, jsonl_b, "hop view differs across runs");
    assert_eq!(perfetto_a, perfetto_b, "Perfetto export differs across runs");
}

#[test]
fn worker_threads_with_different_id_baselines_agree() {
    // Advance this thread's provenance counter the way earlier fuzz
    // candidates would, then trace: the baseline captured at build time
    // must cancel the offset out.
    for _ in 0..3 {
        let _ = lumina_packet::Frame::from_vec(vec![0u8; 64]);
    }
    let (jsonl_main, perfetto_main) = trace_bytes();

    // A fresh worker thread starts its provenance counter from zero —
    // the same situation as a differently-sized fuzz worker pool
    // handing the candidate to a different thread.
    let handle = std::thread::spawn(trace_bytes);
    let (jsonl_worker, perfetto_worker) = handle.join().expect("worker thread");

    assert_eq!(
        jsonl_main, jsonl_worker,
        "hop view depends on which thread ran the test"
    );
    assert_eq!(
        perfetto_main, perfetto_worker,
        "Perfetto export depends on which thread ran the test"
    );
}

/// One connection, two one-packet messages, the second dropped once: the
/// first is acknowledged long before the timeout retransmits the second,
/// exactly once.
const JOIN_YAML: &str = r#"
requester: { nic-type: cx4, adaptive-retrans: false }
responder: { nic-type: cx4 }
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 1024
  min-retransmit-timeout: 14
  data-pkt-events:
    - {qpn: 1, psn: 2, type: drop, iter: 1}
"#;

/// `(kind, t, node, trace_id)` of every journal record that is also a
/// packet hop: the injected drop, the mirror copies, the retransmit.
type Joined = Vec<(&'static str, u64, u32, Option<u64>)>;

fn joined_records(traced: bool) -> Joined {
    let mut cfg = TestConfig::from_yaml(JOIN_YAML).expect("config parses");
    if traced {
        cfg.trace = Some(Default::default());
    }
    let res = run_test(&cfg).expect("run succeeds");
    let mut out = Vec::new();
    res.telemetry.for_each_event(|r| {
        if matches!(r.kind(), "drop" | "mirror.emit" | "retransmit") {
            out.push((r.kind(), r.t, r.node, r.trace_id()));
        }
    });
    let count = |kind| out.iter().filter(|j| j.0 == kind).count();
    assert_eq!((count("drop"), count("retransmit")), (1, 1), "{out:?}");
    out
}

#[test]
fn journal_records_carry_the_id_of_their_packets_hops() {
    let cfg = TestConfig::from_yaml(&format!("{JOIN_YAML}trace: {{}}\n")).expect("config parses");
    let res = run_test(&cfg).expect("run succeeds");
    // Every pure hop, by the place and time it was recorded.
    let mut pure: BTreeMap<(u64, u32), Vec<(&'static str, u64)>> = BTreeMap::new();
    res.telemetry.with_log(|log| {
        for (id, hop, r) in log.hops() {
            if hop.journal_kind().is_none() {
                pure.entry((r.t, r.node))
                    .or_default()
                    .push((hop.name(), id));
            }
        }
    });
    let joined = joined_records(true);
    for &(kind, t, node, id) in &joined {
        let id = id.unwrap_or_else(|| panic!("{kind} at {t} carries no trace_id"));
        // The switch decides on the frame the link just delivered; the
        // requester's retransmit is the frame it hands the engine.
        let arrival = if kind == "retransmit" {
            "gen.enqueue"
        } else {
            "link.ingress"
        };
        let here = pure.get(&(t, node)).map_or(&[][..], Vec::as_slice);
        assert!(
            here.contains(&(arrival, id)),
            "{kind} at ({t}, {node}) names packet {id}, hops there: {here:?}"
        );
    }
    // Untraced, the same records name the same packets, on this thread
    // (its provenance counter already advanced by the runs above) and on
    // a fresh one.
    assert_eq!(joined, joined_records(false));
    let worker = std::thread::spawn(|| joined_records(false));
    assert_eq!(joined, worker.join().expect("worker thread"));
}

/// `fig10_ets_bug` traced overflows the default ring: each view still
/// accounts for every record it was offered, retained or evicted — the
/// journal for what the untraced run journaled, the hop view for what a
/// ring large enough for the whole run keeps.
#[test]
fn an_overflowing_traced_run_counts_each_views_evictions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/fig10_ets_bug.yaml");
    let yaml = std::fs::read_to_string(path).expect("preset reads");
    let run = |trace: Option<TraceSection>| {
        let mut cfg = TestConfig::from_yaml(&yaml).expect("config parses");
        cfg.trace = trace;
        run_test(&cfg).expect("run succeeds")
    };
    let untraced = run(None);
    let traced = run(Some(TraceSection::default()));
    let whole = run(Some(TraceSection { capacity: 1 << 20, ..TraceSection::default() }));

    let (plain, tel) = (&untraced.telemetry, &traced.telemetry);
    assert_eq!(plain.journal_dropped(), 0);
    assert!(tel.journal_dropped() > 0, "the traced ring must evict journal events");
    assert_eq!(tel.journal_len() as u64 + tel.journal_dropped(), plain.journal_len() as u64);

    let (hops, all_hops) = (&traced.trace_summary, &whole.trace_summary);
    assert_eq!(all_hops.dropped, 0);
    assert!(hops.dropped > 0, "the traced ring must evict hops");
    assert_eq!(hops.records + hops.dropped, all_hops.records);
}
