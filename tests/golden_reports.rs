//! Golden-report regression corpus: every preset in `configs/` runs
//! through the orchestrator and its `report_json()` — including the
//! deterministic `telemetry` snapshot — must match the checked-in golden
//! byte for byte. The simulator is bit-deterministic, so any diff here is
//! a real behavior change (or an intentional one: regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test golden_reports`).

use lumina_core::analyzers::{cnp, retrans_perf};
use lumina_core::config::TestConfig;
use lumina_core::orchestrator::run_test;
use lumina_core::RunReport;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn golden_dir() -> PathBuf {
    repo_root().join("tests/golden")
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
        let cfg = TestConfig::from_yaml(&yaml)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        out.push((stem, cfg));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(out.len() >= 8, "corpus shrank: {}", out.len());
    out
}

fn render_report(cfg: &TestConfig, name: &str) -> String {
    let res = run_test(cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut s = serde_json::to_string_pretty(&res.report_json().unwrap()).unwrap();
    s.push('\n');
    s
}

fn updating() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

#[test]
fn reports_match_goldens() {
    let dir = golden_dir();
    if updating() {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut failures = Vec::new();
    for (name, cfg) in corpus() {
        let actual = render_report(&cfg, &name);
        let golden_path = dir.join(format!("{name}.json"));
        if updating() {
            std::fs::write(&golden_path, &actual).unwrap();
            eprintln!("golden updated: {}", golden_path.display());
            continue;
        }
        match std::fs::read_to_string(&golden_path) {
            Err(_) => failures.push(format!(
                "{name}: golden missing at {} (regenerate with UPDATE_GOLDEN=1)",
                golden_path.display()
            )),
            Ok(expected) if expected != actual => {
                failures.push(format!(
                    "{name}: report drifted from golden ({}); first divergence at byte {} — \
                     if intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test golden_reports",
                    golden_path.display(),
                    first_divergence(&expected, &actual),
                ));
            }
            Ok(_) => {}
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

fn first_divergence(a: &str, b: &str) -> usize {
    a.bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()))
}

#[test]
fn goldens_cover_whole_corpus() {
    // A deleted golden must fail loudly, not silently shrink coverage.
    if updating() {
        return;
    }
    let have: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden exists — regenerate with UPDATE_GOLDEN=1")
        .map(|e| e.unwrap().path().file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    for (name, _) in corpus() {
        assert!(
            have.contains(&name),
            "{name} has no golden; regenerate with UPDATE_GOLDEN=1"
        );
    }
}

#[test]
fn report_is_deterministic_across_runs() {
    // The property the goldens rest on: same config, same bytes.
    let (name, cfg) = corpus().swap_remove(0);
    assert_eq!(render_report(&cfg, &name), render_report(&cfg, &name));
}

#[test]
fn frame_plane_counters_stay_out_of_the_report() {
    // The zero-copy frame plane collects allocation/copy counters, but
    // they are surfaced through `TestResults::frame_stats` and the
    // telemetry subcommand only — never `report_json`, whose bytes the
    // goldens above pin. A "frames" key appearing here would silently
    // invalidate every golden.
    let (name, cfg) = corpus().swap_remove(0);
    let res = run_test(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    let s = serde_json::to_string(&res.report_json().unwrap()).unwrap();
    assert!(!s.contains("\"frames\":"), "{name}: report gained a frames section");
    // ...while the counters themselves are live: a real run shares
    // buffers across hops instead of copying them.
    assert!(res.frame_stats.frames_shared > 0, "{:?}", res.frame_stats);
    assert!(res.frame_stats.bytes_shared > 0, "{:?}", res.frame_stats);
}

#[test]
fn frame_ledger_and_event_count_are_pinned() {
    // The frame plane's byte ledger and the engine's event count are
    // counts, not timings: a change to how buffers are built, shared or
    // scheduled either leaves every one of them where it was or shows up
    // here. Recorded on the tree before the one-allocation wire buffer;
    // the timer / delivery split and the journal length on the tree before
    // the RNIC's QP table; the queue high-water mark on the tree before the
    // self-profile left the telemetry sink. `quirks_demo` (89 % of its
    // events DCQCN alpha ticks) was recorded whole on the tree before ticks
    // re-filed through the queue's FIFO lanes, which its depth counts.
    let pinned = [
        (
            "listing2",
            [470, 462_284, 476_820, 235, 1_114_998, 17],
            [1_177, 474, 703],
            258,
            38,
        ),
        (
            "fig11_noisy_neighbor",
            [18_530, 19_117_460, 19_729_662, 9_265, 43_201_106, 72],
            [53_816, 26_033, 27_783],
            9_791,
            3_025,
        ),
        (
            "quirks_demo",
            [565, 497_666, 514_634, 522, 1_471_020, 41],
            [7_702, 6_836, 866],
            532,
            50,
        ),
    ];
    let corpus = corpus();
    for (name, ledger, engine, journal_events, queue_depth_hwm) in pinned {
        let (_, cfg) = corpus.iter().find(|(n, _)| n == name).expect(name);
        let res = run_test(cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let fs = res.frame_stats;
        let got = [
            fs.frames_allocated,
            fs.bytes_allocated,
            fs.bytes_copied,
            fs.frames_shared,
            fs.bytes_shared,
            fs.peak_live_frames,
        ];
        assert_eq!(got, ledger, "{name}: frame ledger moved");
        let es = res.engine_stats;
        assert_eq!(
            [es.events, es.timers_fired, es.frames_delivered],
            engine,
            "{name}: event counts moved"
        );
        assert_eq!(res.telemetry.journal_len(), journal_events, "{name}: journal length moved");
        assert_eq!(
            res.profile.queue_depth_hwm, queue_depth_hwm,
            "{name}: queue high-water mark moved"
        );
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn run_reports_of_every_preset_are_pinned() {
    // The `run` report of every preset at seed 1, `--json` (pretty) and
    // human, as FNV-1a 64. The run goldens under `crates/core/tests/golden`
    // hold two presets; these hold where every other one puts its
    // `conformance` section. Recorded on the tree before every traced run
    // was graded in stage 5. A failure prints the hashes it saw.
    let pinned: [(&str, u64, u64); 11] = [
        ("adaptive_retrans", 0x81dc_23f6_55ed_fa87, 0x3d6a_7ccf_14c9_a1ae),
        ("chaos_demo", 0x5521_7e8a_8601_f6d2, 0x9d27_f1a3_f666_6d76),
        ("cnp_hidden_interval", 0xe38f_b4b7_a4e5_44d8, 0xd0b6_02ea_cd58_67ec),
        ("delay_reorder_demo", 0x8c41_4699_b8ad_ffc6, 0x5b09_bed8_262f_6cab),
        ("fig08_retrans_probe", 0x3438_6a67_ceb4_d9fa, 0xd8b4_a519_74ea_6b63),
        ("fig10_ets_bug", 0x046d_fbd0_6ce6_14ec, 0x22f5_b306_9e60_edc4),
        ("fig11_noisy_neighbor", 0x0179_f04b_932f_3451, 0x1a71_a4d3_1e84_8571),
        ("interop_migreq", 0x6b4d_5ab9_cc54_8231, 0xe67c_d9ac_6bf1_1cc9),
        ("listing2", 0xc57e_7632_a9c2_d05a, 0x29f1_939b_a5fa_c3d0),
        ("matrix_demo", 0x9242_8338_282e_6740, 0xc981_6104_a643_ed35),
        ("quirks_demo", 0x6d06_474f_c8e9_43ac, 0xd2db_1eec_25b0_e743),
    ];
    let mut got = Vec::new();
    for (name, mut cfg) in corpus() {
        cfg.network.seed = 1;
        let res = run_test(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Stage 5 graded the run exactly when it has a trace.
        assert_eq!(res.conformance.is_some(), res.trace.is_some(), "{name}");
        assert_eq!(res.replayed.is_some(), res.trace.is_some(), "{name}");
        // The report's §6 sections are views of that replay, and the public
        // analyzers the benchmark's traced walk calls report the same.
        if let (Some(trace), Some(views)) = (&res.trace, &res.replayed) {
            let to_string = |v| serde_json::to_string(v).unwrap();
            assert_eq!(
                to_string(&retrans_perf::analyze(trace, &res.conns)),
                to_string(&views.retransmissions),
                "{name}"
            );
            let cnp = cnp::analyze(trace);
            assert_eq!(
                (cnp.total_cnps as u64, cnp.total_ce_marked as u64),
                (views.cnp_total, views.ce_marked),
                "{name}"
            );
        }
        let report = RunReport::of(&res);
        let json = serde_json::to_string_pretty(&report.to_json().unwrap()).unwrap();
        got.push((
            name,
            fnv64(json.as_bytes()),
            fnv64(report.render_human().as_bytes()),
        ));
    }
    let want: Vec<(String, u64, u64)> = pinned
        .iter()
        .map(|&(n, j, h)| (n.to_string(), j, h))
        .collect();
    assert_eq!(got, want, "run reports moved: {got:#x?}");
}

/// One injected event per listed `(kind, qpn)`, as the benchmark places
/// them (`benchmark/src/workloads.rs`): the seed draws the message, the
/// offset inside it is fixed per slot, and a drop stays out of the last
/// message (a tail drop recovers by timeout, not NACK).
fn bench_events(seed: u64, kinds: &[(&str, u32)], msgs: u32, pkts_per_msg: u32) -> String {
    let mut rng = lumina_sim::SimRng::seed_from_u64(seed);
    let mut events = String::new();
    for (slot, &(kind, qpn)) in kinds.iter().enumerate() {
        let last = if kind == "drop" { msgs - 2 } else { msgs - 1 };
        let msg = rng.range_inclusive(0, u64::from(last)) as u32;
        let offset = 1 + (pkts_per_msg / 2 + slot as u32) % pkts_per_msg;
        let psn = msg * pkts_per_msg + offset;
        events.push_str(&format!("    - {{qpn: {qpn}, psn: {psn}, type: {kind}, iter: 1}}\n"));
    }
    events
}

/// The benchmark's `run_timers` shape: 256 DCQCN connections of 2 x 4 KiB
/// WRITE with one CE mark each.
fn many_qp_yaml(seed: u64) -> String {
    const QPS: u32 = 256;
    const MSGS: u32 = 2;
    let kinds: Vec<(&str, u32)> = (1..=QPS).map(|qpn| ("ecn", qpn)).collect();
    let events = bench_events(seed, &kinds, MSGS, 4);
    format!(
        "requester: {{ nic-type: cx6, dcqcn-rp-enable: true }}\n\
         responder: {{ nic-type: cx6, dcqcn-np-enable: true }}\n\
         traffic:\n  num-connections: {QPS}\n  rdma-verb: write\n  \
         num-msgs-per-qp: {MSGS}\n  mtu: 1024\n  message-size: 4096\n  \
         data-pkt-events:\n{events}network:\n  seed: {seed}\n"
    )
}

/// The benchmark's `run_packets` shape: 8 connections of 16 x 256 KiB
/// WRITE, a drop on each of the first four and a CE mark on each of the
/// last four.
fn packet_dense_yaml(seed: u64) -> String {
    const MSGS: u32 = 16;
    let kinds: Vec<(&str, u32)> = (1..=8)
        .map(|qpn| (if qpn <= 4 { "drop" } else { "ecn" }, qpn))
        .collect();
    let events = bench_events(seed, &kinds, MSGS, 256);
    format!(
        "requester: {{ nic-type: cx6 }}\n\
         responder: {{ nic-type: cx6, dcqcn-np-enable: true }}\n\
         traffic:\n  num-connections: 8\n  rdma-verb: write\n  \
         num-msgs-per-qp: {MSGS}\n  mtu: 1024\n  message-size: 262144\n  \
         data-pkt-events:\n{events}network:\n  seed: {seed}\n"
    )
}

#[test]
fn many_qp_scheduling_counts_are_pinned() {
    // 256 rate-limited QPs share one port: which QP the scheduler serves
    // next, and when each rate timer re-arms the transmit wheel, decide
    // every count below. Recorded on the tree before the RNIC's QP table;
    // the queue high-water mark on the tree before the self-profile left
    // the telemetry sink.
    let pinned = [
        (1, [467_969, 459_521, 8_448], [2_048, 256, 0], [768, 0, 256], 97_316_116, 1_086),
        (7, [467_969, 459_521, 8_448], [2_048, 256, 0], [768, 0, 256], 97_315_048, 1_087),
    ];
    for (seed, engine, requester, responder, end_time_ns, queue_depth_hwm) in pinned {
        let cfg = TestConfig::from_yaml(&many_qp_yaml(seed)).expect("many-QP config parses");
        let res = run_test(&cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let es = res.engine_stats;
        assert_eq!(
            [es.events, es.timers_fired, es.frames_delivered],
            engine,
            "seed {seed}: event counts moved"
        );
        let host = |c: &lumina_rnic::Counters| [c.tx_packets, c.rp_cnp_handled, c.np_cnp_sent];
        assert_eq!(host(&res.requester_counters), requester, "seed {seed}: requester");
        assert_eq!(host(&res.responder_counters), responder, "seed {seed}: responder");
        assert_eq!(res.outcome.end_time().as_nanos(), end_time_ns, "seed {seed}: end time moved");
        assert_eq!(
            res.profile.queue_depth_hwm, queue_depth_hwm,
            "seed {seed}: queue high-water mark moved"
        );
    }
}

#[test]
fn packet_dense_counts_are_pinned() {
    // 33 k data packets through the switch, the mirror and two dumpers,
    // with Go-back-N recovery on four connections and CNPs on four: the
    // event count, the frame ledger, what was retransmitted and when the
    // run ended are all decided by the order events pop in. Recorded on
    // the tree before the wheel's slab; the queue high-water mark on the
    // tree before the self-profile left the telemetry sink.
    let pinned = [
        (
            1,
            [164_681, 65_877, 98_804],
            [65_872, 71_000_256, 73_294_272, 32_936, 172_480_864, 45],
            32,
            69_862_954,
            170,
        ),
        (
            7,
            [164_681, 65_877, 98_804],
            [65_872, 71_000_256, 73_294_272, 32_936, 172_480_864, 44],
            32,
            69_873_106,
            170,
        ),
    ];
    for (seed, engine, ledger, retransmitted, end_time_ns, queue_depth_hwm) in pinned {
        let cfg = TestConfig::from_yaml(&packet_dense_yaml(seed)).expect("packet-dense config parses");
        let res = run_test(&cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let es = res.engine_stats;
        assert_eq!(
            [es.events, es.timers_fired, es.frames_delivered],
            engine,
            "seed {seed}: event counts moved"
        );
        let fs = res.frame_stats;
        let got = [
            fs.frames_allocated,
            fs.bytes_allocated,
            fs.bytes_copied,
            fs.frames_shared,
            fs.bytes_shared,
            fs.peak_live_frames,
        ];
        assert_eq!(got, ledger, "seed {seed}: frame ledger moved");
        assert_eq!(
            res.requester_counters.retransmitted_packets, retransmitted,
            "seed {seed}: retransmissions moved"
        );
        assert_eq!(res.outcome.end_time().as_nanos(), end_time_ns, "seed {seed}: end time moved");
        assert_eq!(
            res.profile.queue_depth_hwm, queue_depth_hwm,
            "seed {seed}: queue high-water mark moved"
        );
    }
}

#[test]
fn quirk_free_reports_never_gain_quirk_keys() {
    // The misbehavior plane is absent-by-default: a config without a
    // `quirks:` section must produce a report with no "quirks" or
    // "conformance" key at all — not even an empty one — or every
    // pre-quirk golden silently invalidates. The goldens are the pinned
    // bytes of real runs, so asserting on them asserts on the runs.
    if updating() {
        return;
    }
    let mut quirk_free = 0;
    let mut quirked = 0;
    for (name, cfg) in corpus() {
        let golden = std::fs::read_to_string(golden_dir().join(format!("{name}.json")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if cfg.quirks.as_ref().is_some_and(|q| !q.is_noop()) {
            quirked += 1;
            assert!(
                golden.contains("\"quirks\"") && golden.contains("\"conformance\""),
                "{name}: quirked preset lost its quirks/conformance report"
            );
        } else {
            quirk_free += 1;
            assert!(
                !golden.contains("\"quirks\""),
                "{name}: quirk-free report gained a quirks section"
            );
            assert!(
                !golden.contains("\"conformance\""),
                "{name}: quirk-free report gained a conformance section"
            );
        }
    }
    // Both sides of the protection must actually be exercised.
    assert!(quirk_free >= 8, "seed corpus shrank: {quirk_free}");
    assert!(quirked >= 1, "no quirked preset left in configs/");
}

#[test]
fn single_run_reports_never_gain_a_coverage_key() {
    // Coverage-guided fuzzing is a campaign-level feature: its map,
    // corpus and reproducers live in the fuzz outcome (and under
    // `--corpus-dir` on disk), never in a single run's report. If a
    // "coverage" key ever appears in a golden, campaign state leaked into
    // the per-run path and every pre-coverage golden silently invalidates.
    if updating() {
        return;
    }
    for (name, _) in corpus() {
        let golden = std::fs::read_to_string(golden_dir().join(format!("{name}.json")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            !golden.contains("\"coverage\""),
            "{name}: single-run report gained a coverage section"
        );
    }
}

#[test]
fn trace_free_reports_never_gain_a_trace_key() {
    // Lifecycle tracing is absent-by-default: a config without an active
    // `trace:` section must produce a report with no "trace" key at all
    // — not even an empty dissection — or every pre-tracing golden
    // silently invalidates. (The needle includes the colon because every
    // golden legitimately contains "trace_packets".)
    if updating() {
        return;
    }
    let mut trace_free = 0;
    for (name, cfg) in corpus() {
        let golden = std::fs::read_to_string(golden_dir().join(format!("{name}.json")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if cfg.trace.is_some() {
            assert!(
                golden.contains("\"trace\":"),
                "{name}: traced preset lost its trace dissection"
            );
        } else {
            trace_free += 1;
            assert!(
                !golden.contains("\"trace\":"),
                "{name}: trace-free report gained a trace section"
            );
        }
    }
    assert!(trace_free >= 8, "seed corpus shrank: {trace_free}");

    // The "on" side of the protection: the same config with tracing
    // enabled gains the dissection (so the absence above is a choice,
    // not a dead feature).
    let (name, mut cfg) = corpus().swap_remove(0);
    cfg.trace = Some(lumina_core::config::TraceSection::default());
    let res = run_test(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    let report = res.report_json().unwrap();
    let trace = report.get("trace").expect("traced run reports a dissection");
    assert!(trace["packets"].as_u64().unwrap_or(0) > 0, "{name}: empty dissection");
}

#[test]
fn chaos_free_reports_never_gain_chaos_keys() {
    // The data-path chaos plane is absent-by-default: a config without an
    // active `chaos:` section must produce a report with no "chaos" or
    // "recovery" key at all — not even an empty one — or every pre-chaos
    // golden silently invalidates. The other direction too: a chaos
    // preset must carry both the plane's stats and the liveness oracle's
    // verdict, so the keys cannot rot into a dead feature.
    if updating() {
        return;
    }
    let mut chaos_free = 0;
    let mut chaotic = 0;
    for (name, cfg) in corpus() {
        let golden = std::fs::read_to_string(golden_dir().join(format!("{name}.json")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if cfg.chaos.as_ref().is_some_and(|c| !c.is_noop()) {
            chaotic += 1;
            assert!(
                golden.contains("\"chaos\"") && golden.contains("\"recovery\""),
                "{name}: chaos preset lost its chaos/recovery report"
            );
        } else {
            chaos_free += 1;
            assert!(
                !golden.contains("\"chaos\""),
                "{name}: chaos-free report gained a chaos section"
            );
            assert!(
                !golden.contains("\"recovery\""),
                "{name}: chaos-free report gained a recovery section"
            );
        }
    }
    // Both sides of the protection must actually be exercised.
    assert!(chaos_free >= 8, "seed corpus shrank: {chaos_free}");
    assert!(chaotic >= 1, "no chaos preset left in configs/");
}

#[test]
fn device_free_reports_never_gain_a_device_key() {
    // The device registry is opt-in: a config without a `device:` section
    // must produce a report with no "device" key at all — not even an
    // empty one — or every pre-registry golden silently invalidates. The
    // other direction too: a preset that names devices must surface the
    // canonical registry names it resolved to, so the key cannot rot into
    // a dead feature.
    if updating() {
        return;
    }
    let mut device_free = 0;
    let mut pinned = 0;
    for (name, cfg) in corpus() {
        let golden = std::fs::read_to_string(golden_dir().join(format!("{name}.json")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if cfg.device.is_some() {
            pinned += 1;
            assert!(
                golden.contains("\"device\":"),
                "{name}: device-pinned preset lost its device section"
            );
        } else {
            device_free += 1;
            assert!(
                !golden.contains("\"device\":"),
                "{name}: device-free report gained a device section"
            );
        }
    }
    // Both sides of the protection must actually be exercised.
    assert!(device_free >= 8, "seed corpus shrank: {device_free}");
    assert!(pinned >= 1, "no device-pinned preset left in configs/");
}

#[test]
fn same_timestamp_timers_fire_in_schedule_order() {
    // The calendar-queue scheduler's FIFO contract, observed through the
    // public engine API: events sharing one timestamp pop in the order
    // they were scheduled, and the whole run replays identically.
    use lumina_sim::{Engine, Frame, Node, NodeCtx, PortId, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct TokenLog(Rc<RefCell<Vec<u64>>>);
    impl Node for TokenLog {
        fn on_frame(&mut self, _: PortId, _: Frame, _: &mut NodeCtx<'_>) {}
        fn on_timer(&mut self, token: u64, _: &mut NodeCtx<'_>) {
            self.0.borrow_mut().push(token);
        }
    }

    let run = || {
        let mut eng = Engine::new(7);
        let log = Rc::new(RefCell::new(Vec::new()));
        let node = eng.add_node(Box::new(TokenLog(log.clone())));
        // Two bursts at shared instants, scheduled interleaved so queue
        // insertion order differs from timestamp order.
        let (early, late) = (SimTime::from_micros(5), SimTime::from_micros(9));
        for token in 0..100u64 {
            eng.schedule_timer(node, late, 1000 + token);
            eng.schedule_timer(node, early, token);
        }
        eng.run(None);
        let tokens = log.borrow().clone();
        tokens
    };
    let first = run();
    let want: Vec<u64> = (0..100u64).chain(1000..1100).collect();
    assert_eq!(first, want, "FIFO order within a timestamp broke");
    assert_eq!(first, run(), "timer replay is not deterministic");
}
