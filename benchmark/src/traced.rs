//! The traced run: per-layer metrics of one workload.
//!
//! Three parts, all in this process:
//!
//! 1. a few untraced `lumina-cli` operations, interleaved with the walk,
//!    for the end-to-end wall the in-process numbers are compared against
//!    (`cli.*`);
//! 2. the *walk*: the stages the CLI walks for this workload's operation,
//!    called through the same public functions with a span around each,
//!    and its output checked byte for byte against the CLI's stdout;
//! 3. the *replays* of `layers.rs`, sized from the workload's primary
//!    config.
//!
//! Every timing is the fastest of its repetitions (see `stats::fastest`).
//! Every run reports every per-layer metric. A metric whose layer is not
//! on the workload's path (the campaign executor on `run_packets`) reads 0.

use crate::child::fnv1a64;
use crate::e2e::{self, Env, Measured, Prepared};
use crate::layers::{self, Replays};
use crate::report::RunResult;
use crate::stats::{fastest, ns_since};
use crate::trace::Tracer;
use crate::workloads::Kind;
use lumina_core::analyzers::{cnp, conformance, counter, gbn_fsm, retrans_perf};
use lumina_core::cli::{self, CommonOpts};
use lumina_core::config::TestConfig;
use lumina_core::fuzz::coverage::CoverageParams;
use lumina_core::fuzz::mutate::EventMutator;
use lumina_core::fuzz::{self, score, FuzzParams};
use lumina_core::matrix::{run_matrix, MatrixParams};
use lumina_core::orchestrator::{run_supervised, RetryPolicy, TestResults};
use lumina_core::soak::{self, SoakParams};
use lumina_core::{ingest_path, ingest_reader, IngestParams};
use std::time::Instant;

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// A `--json` report exactly as the CLI's `println!` leaves it on stdout.
fn pretty(doc: &serde_json::Value) -> Result<String, String> {
    let mut text = serde_json::to_string_pretty(doc).map_err(err("serialize"))?;
    text.push('\n');
    Ok(text)
}

/// The default subcommand's stages, as `run_cmd` in `lumina-cli.rs` walks
/// them for `<cfg> --json`. Returns the results and the exact stdout.
fn walk_run(args: &[String], tr: &mut Tracer) -> Result<(TestResults, String), String> {
    let whole = tr.begin("cli.run");

    let s = tr.begin("core.config.parse");
    let cfg = CommonOpts::parse(args)
        .and_then(|o| o.load())
        .map_err(err("config"))?;
    tr.end(s);

    let s = tr.begin("core.orchestrator.run_test");
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    let results = run_supervised(&cfg, &policy).map_err(err("run_test"))?;
    tr.end(s);
    let trace = results.trace.as_ref().ok_or("run produced no trace")?;

    let s = tr.begin("core.analyzers.conformance");
    let conformance_rep = results.conformance.clone().unwrap_or_else(|| {
        let opts = conformance::ConformanceOpts::from_results(&results);
        conformance::analyze(trace, &results.conns, &opts)
    });
    tr.end(s);

    let s = tr.begin("core.analyzers.gbn_fsm");
    let gbn = gbn_fsm::analyze(trace, &results.conns);
    tr.end(s);
    let s = tr.begin("core.analyzers.retrans_perf");
    let retrans = retrans_perf::analyze(trace, &results.conns);
    tr.end(s);
    let s = tr.begin("core.analyzers.cnp");
    let cnp_rep = cnp::analyze(trace);
    tr.end(s);
    let s = tr.begin("core.analyzers.counter");
    let findings = counter::analyze(&results);
    tr.end(s);

    // Same keys in the same order as the CLI, so the bytes can be
    // compared (the CLI interleaves the analyzers with these inserts).
    let s = tr.begin("core.report.build");
    let mut report = results.report_json().map_err(err("report_json"))?;
    report["gbn_compliant"] = serde_json::json!(gbn.compliant());
    report["gbn_violations"] = serde_json::json!(gbn.violations());
    report["retransmissions"] = serde_json::to_value(retrans).map_err(err("report"))?;
    report["cnp_total"] = serde_json::json!(cnp_rep.total_cnps);
    report["ce_marked"] = serde_json::json!(cnp_rep.total_ce_marked);
    report["counter_findings"] = serde_json::to_value(findings).map_err(err("report"))?;
    if report.get("conformance").is_none() {
        report["conformance"] = serde_json::to_value(&conformance_rep).map_err(err("report"))?;
    }
    if let Some(qs) = &results.quirk_stats {
        report["quirks"] = serde_json::to_value(qs).map_err(err("report"))?;
    }
    tr.end(s);

    let s = tr.begin("core.report.serialize");
    let text = pretty(&report)?;
    tr.end(s);

    tr.end(whole);
    Ok((results, text))
}

/// `lumina-cli ingest --pcap … --config … --json`.
fn walk_ingest(args: &[String], tr: &mut Tracer) -> Result<String, String> {
    let whole = tr.begin("cli.ingest");
    let pcap = cli::flag_value(args, "--pcap").ok_or("ingest args lack --pcap")?;
    let cfg_path = cli::flag_value(args, "--config").ok_or("ingest args lack --config")?;

    let s = tr.begin("core.ingest.load_config");
    let yaml = std::fs::read_to_string(cfg_path).map_err(err("config"))?;
    let cfg = TestConfig::from_yaml(&yaml).map_err(err("config"))?;
    cfg.validate().map_err(err("config"))?;
    tr.end(s);

    let defaults = IngestParams::default();
    let params = IngestParams {
        chunk_entries: cli::numeric_flag(args, "--chunk-events", defaults.chunk_entries)
            .map_err(err("args"))?,
        context: Some(cfg),
        retain_trace: false,
        progress: true,
        ..defaults
    };
    let s = tr.begin("core.ingest.ingest_path");
    let out = ingest_path(pcap, &params).map_err(err("ingest"))?;
    tr.end(s);
    let s = tr.begin("core.ingest.report_json");
    let doc = out.report_json().map_err(err("report"))?;
    tr.end(s);
    let s = tr.begin("core.ingest.serialize");
    let text = pretty(&doc)?;
    tr.end(s);
    tr.end(whole);
    Ok(text)
}

fn num<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    cli::flag_value(args, flag)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("operation args lack a numeric {flag}"))
}

/// `lumina-cli soak --configs … --json` on `workers` threads.
fn walk_soak(args: &[String], workers: usize, tr: &mut Tracer) -> Result<String, String> {
    let whole = tr.begin("cli.soak");
    let dir = cli::flag_value(args, "--configs").ok_or("soak args lack --configs")?;
    let params = SoakParams {
        scenarios_per_preset: num(args, "--scenarios")?,
        seed: num(args, "--seed")?,
        workers,
    };
    let s = tr.begin("core.soak.collect_presets");
    let presets = soak::collect_presets(dir).map_err(err("presets"))?;
    tr.end(s);
    let s = tr.begin("core.soak.sweep");
    let report = soak::sweep(&presets, &params).map_err(err("sweep"))?;
    tr.end(s);
    let s = tr.begin("core.soak.to_json");
    let doc = report.to_json().map_err(err("report"))?;
    tr.end(s);
    let s = tr.begin("core.soak.serialize");
    let text = pretty(&doc)?;
    tr.end(s);
    tr.end(whole);
    Ok(text)
}

/// `lumina-cli matrix --config … --json` on `workers` threads.
fn walk_matrix(args: &[String], workers: usize, tr: &mut Tracer) -> Result<String, String> {
    let whole = tr.begin("cli.matrix");
    let s = tr.begin("core.matrix.load_config");
    let opts = CommonOpts::parse(args).map_err(err("args"))?;
    let cfg = opts.load().map_err(err("config"))?;
    tr.end(s);
    let scenario = std::path::Path::new(&opts.config_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(opts.config_path.as_str())
        .to_string();
    let params = MatrixParams {
        workers,
        ..MatrixParams::default()
    };
    let s = tr.begin("core.matrix.run_matrix");
    let report = run_matrix(&cfg, &scenario, &params).map_err(err("matrix"))?;
    tr.end(s);
    let s = tr.begin("core.matrix.to_json");
    let doc = report.to_json().map_err(err("report"))?;
    tr.end(s);
    let s = tr.begin("core.matrix.serialize");
    let text = pretty(&doc)?;
    tr.end(s);
    tr.end(whole);
    Ok(text)
}

/// `lumina-cli fuzz --config … --coverage --no-shrink --events-only` on
/// `workers` threads; stdout is the anomaly / rejection / reproducer JSONL.
fn walk_fuzz(args: &[String], workers: usize, tr: &mut Tracer) -> Result<String, String> {
    use serde_json::{Map, Value};
    let whole = tr.begin("cli.fuzz");
    let s = tr.begin("core.fuzz.load_config");
    let opts = CommonOpts::parse(args).map_err(err("args"))?;
    let cfg = opts.load().map_err(err("config"))?;
    tr.end(s);
    let defaults = FuzzParams::default();
    let batch_size: usize = num(args, "--batch")?;
    let generations: usize = num(args, "--generations")?;
    let params = FuzzParams {
        iterations: generations.max(1) * batch_size.max(1),
        seed: opts.seed.unwrap_or(defaults.seed),
        batch_size,
        workers,
        coverage: Some(CoverageParams {
            shrink: false,
            ..CoverageParams::default()
        }),
        ..defaults
    };
    let mut mutator = EventMutator {
        events_only: true,
        ..EventMutator::default()
    };
    let line = |m: Map| serde_json::to_string(&Value::Object(m)).map_err(err("serialize"));
    let mut lines: Vec<Result<String, String>> = Vec::new();

    let s = tr.begin("core.fuzz.fuzz_observed");
    let out = fuzz::fuzz_observed(
        &cfg,
        &mut mutator,
        score::default_score,
        &params,
        &mut |candidate, scored, desc| {
            let mut m = Map::new();
            m.insert("candidate", Value::from(candidate));
            m.insert("score", Value::from(scored.score));
            m.insert("desc", Value::from(desc));
            m.insert(
                "config",
                serde_json::to_value(&scored.cfg).unwrap_or(Value::Null),
            );
            lines.push(line(m));
        },
    );
    tr.end(s);

    let s = tr.begin("core.fuzz.jsonl");
    for r in &out.rejections {
        let mut m = Map::new();
        m.insert("rejection", Value::from(r.candidate));
        m.insert("reason", Value::from(r.reason.label()));
        m.insert("detail", Value::from(r.detail.as_str()));
        lines.push(line(m));
    }
    for r in out.coverage.iter().flat_map(|c| &c.reproducers) {
        let mut m = Map::new();
        m.insert("reproducer", Value::from(r.candidate));
        m.insert(
            "class",
            r.class.map_or(Value::Null, |c| Value::from(c.label())),
        );
        m.insert("desc", Value::from(r.desc.as_str()));
        m.insert("reproduces", Value::from(r.shrink.reproduces));
        m.insert("removed", Value::from(r.shrink.removed() as u64));
        m.insert("shrink-runs", Value::from(r.shrink.runs_used as u64));
        m.insert(
            "config",
            serde_json::to_value(&r.shrink.cfg).unwrap_or(Value::Null),
        );
        lines.push(line(m));
    }
    let mut text = String::new();
    for l in lines {
        text.push_str(&l?);
        text.push('\n');
    }
    tr.end(s);
    tr.end(whole);
    Ok(text)
}

/// One in-process pass over the workload's CLI operation on `workers`
/// threads (ignored by the single-threaded subcommands).
fn walk_op(kind: Kind, args: &[String], workers: usize, tr: &mut Tracer) -> Result<String, String> {
    match kind {
        Kind::RunPackets | Kind::RunTimers => walk_run(args, tr).map(|(_, text)| text),
        Kind::Ingest => walk_ingest(&args[1..], tr),
        Kind::Soak => walk_soak(&args[1..], workers, tr),
        Kind::Fuzz => walk_fuzz(&args[1..], workers, tr),
        Kind::Matrix => walk_matrix(&args[1..], workers, tr),
    }
}

/// Runs (or cells) one campaign operation executes; 0 for the others.
fn campaign_runs(kind: Kind) -> f64 {
    match kind {
        Kind::Soak | Kind::Fuzz | Kind::Matrix => kind.planned_work(0).0,
        _ => 0.0,
    }
}

/// Fastest span of this name, ns; 0 when the walk never opened one.
fn span_ns(tr: &Tracer, name: &str) -> f64 {
    let d = tr.durations(name);
    if d.is_empty() {
        0.0
    } else {
        fastest(&d)
    }
}

/// The primary config walked config → report.
struct PrimaryWalk {
    results: TestResults,
    text: String,
    traced_ns: Vec<f64>,
    untraced_ns: Vec<f64>,
}

/// Walk the primary config for `budget` seconds (at least once),
/// alternating an untraced and a traced pass so the two can be compared.
/// When the primary run *is* the workload's operation, a CLI operation
/// goes before each pair, so both see the same machine conditions.
fn walk_primary(
    kind: Kind,
    prepared: &Prepared,
    env: &Env,
    budget: f64,
    tr: &mut Tracer,
    cli_ops: &mut Measured,
) -> Result<PrimaryWalk, String> {
    let args = vec![
        prepared.inputs.primary_path.display().to_string(),
        "--json".to_string(),
    ];
    let start = Instant::now();
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let mut last: Option<(TestResults, String)> = None;
    while last.is_none() || (start.elapsed().as_secs_f64() < budget && traced_ns.len() < 20) {
        // Free the previous pass first: no CLI process ever runs beside
        // the remains of an earlier run.
        drop(last.take());
        if kind.is_live_run() {
            cli_ops.one_op(prepared, env)?;
        }
        tr.set_enabled(false);
        let t = Instant::now();
        let (_, untraced_text) = walk_run(&args, tr)?;
        untraced_ns.push(ns_since(t));
        tr.set_enabled(true);
        let t = Instant::now();
        let pass = walk_run(&args, tr)?;
        traced_ns.push(ns_since(t));
        if pass.1 != untraced_text {
            return Err("two in-process passes over the primary config disagree".into());
        }
        last = Some(pass);
    }
    let (results, text) = last.expect("the loop runs at least once");
    Ok(PrimaryWalk {
        results,
        text,
        traced_ns,
        untraced_ns,
    })
}

/// The workload's own operation walked in-process.
struct OpWalk {
    text: String,
    /// Wall of each pass on one worker (the CLI's setting), ns.
    w1_ns: Vec<f64>,
    /// Campaigns only: wall of each pass on two workers, ns.
    w2_ns: Vec<f64>,
}

/// Walk the operation of a workload that is not a live run for `budget`
/// seconds (at least once): a CLI operation, a traced pass on one worker
/// and — for campaigns — an untraced pass on two, whose output must not
/// differ.
fn walk_operation(
    kind: Kind,
    prepared: &Prepared,
    env: &Env,
    budget: f64,
    tr: &mut Tracer,
    cli_ops: &mut Measured,
) -> Result<OpWalk, String> {
    let args = &prepared.inputs.op_args;
    let start = Instant::now();
    let (mut w1_ns, mut w2_ns) = (Vec::new(), Vec::new());
    let mut text = None;
    while text.is_none() || (start.elapsed().as_secs_f64() < budget && w1_ns.len() < 10) {
        cli_ops.one_op(prepared, env)?;
        let t = Instant::now();
        let one = walk_op(kind, args, 1, tr)?;
        w1_ns.push(ns_since(t));
        if campaign_runs(kind) > 0.0 {
            tr.set_enabled(false);
            let t = Instant::now();
            let two = walk_op(kind, args, 2, tr)?;
            w2_ns.push(ns_since(t));
            tr.set_enabled(true);
            if one != two {
                return Err("campaign output differs between one and two workers".into());
            }
        }
        text = Some(one);
    }
    Ok(OpWalk {
        text: text.expect("the loop runs at least once"),
        w1_ns,
        w2_ns,
    })
}

/// Whole-pipeline ingest of the primary run's own trace, in memory, ms.
fn reingest_ms(cfg: &TestConfig, results: &TestResults) -> Result<f64, String> {
    let trace = results.trace.as_ref().ok_or("primary run has no trace")?;
    let mut pcap = Vec::new();
    trace.write_pcap(&mut pcap).map_err(err("write_pcap"))?;
    let params = IngestParams {
        context: Some(cfg.clone()),
        ..IngestParams::default()
    };
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let out = ingest_reader(std::io::Cursor::new(&pcap[..]), "primary", &params)
            .map_err(err("ingest_reader"))?;
        best = best.min(ms(ns_since(t)));
        if out.records != trace.len() as u64 {
            return Err("re-ingest of the primary trace lost records".into());
        }
    }
    Ok(best)
}

pub fn run(kind: Kind, seed: u64, seconds: f64, env: &Env) -> Result<RunResult, String> {
    let prepared = e2e::set_up(kind, seed, env)?;
    let cfg = TestConfig::from_yaml(&prepared.inputs.primary_yaml).map_err(err("primary"))?;
    let mut tr = Tracer::new(true);
    let mut cli_ops = Measured::default();

    // The operation first, while the heap is still as small as a CLI
    // process's: the primary run of `ingest` leaves a 263 k-entry trace
    // behind, and everything after it runs measurably slower.
    let op = if kind.is_live_run() {
        None
    } else {
        let budget = seconds * 0.25;
        Some(walk_operation(
            kind,
            &prepared,
            env,
            budget,
            &mut tr,
            &mut cli_ops,
        )?)
    };
    let primary = walk_primary(kind, &prepared, env, seconds * 0.35, &mut tr, &mut cli_ops)?;
    let op = op.unwrap_or_else(|| OpWalk {
        text: primary.text.clone(),
        w1_ns: primary.traced_ns.clone(),
        w2_ns: Vec::new(),
    });
    let replays = layers::replay_all(&cfg, seed)?;
    let ingest_ms = reingest_ms(&cfg, &primary.results)?;

    if cli_ops.wall_ms.is_empty() {
        return Err("every CLI operation of the traced run failed".into());
    }
    let mut result = RunResult {
        attempted: cli_ops.attempted + 1,
        failed: cli_ops.failed,
        metrics: Vec::new(),
    };
    // The walk is faithful only if it prints what the CLI printed.
    let walk_fnv = fnv1a64(op.text.as_bytes());
    if walk_fnv != prepared.reference_fnv {
        result.failed += 1;
        eprintln!(
            "in-process walk output (fnv64 {walk_fnv:016x}) differs from lumina-cli stdout ({:016x})",
            prepared.reference_fnv
        );
    }
    Measurements {
        kind,
        cfg: &cfg,
        tr: &tr,
        primary: &primary,
        op: &op,
        rp: &replays,
        ingest_ms,
        cli_wall_ms: fastest(&cli_ops.wall_ms),
    }
    .tabulate(&mut result);

    let trace_path = env.dir.join("trace.json");
    tr.write_json(&trace_path, kind.name())?;
    eprintln!(
        "{}: traced run, seed {seed}: {} primary pass pairs, {} operation passes, {} spans → {}",
        kind.name(),
        primary.traced_ns.len(),
        op.w1_ns.len(),
        tr.len(),
        trace_path.display()
    );
    result.print_table("per layer");
    Ok(result)
}

/// Everything the traced run measured, ready to be tabulated.
#[derive(Clone, Copy)]
struct Measurements<'a> {
    kind: Kind,
    cfg: &'a TestConfig,
    tr: &'a Tracer,
    primary: &'a PrimaryWalk,
    op: &'a OpWalk,
    rp: &'a Replays,
    ingest_ms: f64,
    cli_wall_ms: f64,
}

impl Measurements<'_> {
    /// Every per-layer metric, in BENCHMARK.json's order.
    fn tabulate(&self, r: &mut RunResult) {
        let Measurements {
            kind,
            cfg,
            tr,
            primary,
            op,
            rp,
            ingest_ms,
            cli_wall_ms,
        } = *self;
        let results = &primary.results;
        let es = results.engine_stats;
        let fs = results.frame_stats;
        let sw = &results.switch_counters;
        let trace_packets = results.trace.as_ref().map_or(0, |t| t.len());
        let run_test_ns = span_ns(tr, "core.orchestrator.run_test");
        let journal_dropped = results.telemetry.journal_dropped() as f64;
        let journal_events = results.telemetry.journal_len() as f64 + journal_dropped;
        let retransmitted = results.requester_counters.retransmitted_packets
            + results.responder_counters.retransmitted_packets;
        let timeouts = results.requester_counters.local_ack_timeout_err
            + results.responder_counters.local_ack_timeout_err;
        let data_pkts = u64::from(cfg.traffic.num_connections)
            * u64::from(cfg.traffic.num_msgs_per_qp)
            * u64::from(cfg.traffic.pkts_per_msg())
            + retransmitted;

        // What the replays' unit costs, multiplied by the primary run's own
        // counts, explain of its `run_test` time. A coarse model for comparing
        // workloads: the rigs are not the run (the loopback posts every
        // message up front), so the shares need not sum to 100 %.
        let event_plane_ns = es.timers_fired as f64 * (rp.bare_timer_ns + rp.on_timer_ns)
            + es.frames_delivered as f64 * rp.bare_frame_ns
            + journal_events * rp.tel_emit_ns;
        // The switch rig dispatches three engine events per input frame (the
        // frame, its forwarded copy, its mirror copy) and the dumper rig two
        // per capture (the frame, its service tick); the event plane already
        // counts those.
        let switch_net = (rp.switch_ns - 3.0 * rp.bare_frame_ns).max(0.0);
        let dumper_net = (rp.dumper_ns - rp.bare_frame_ns - rp.bare_timer_ns).max(0.0);
        let frame_plane_ns = data_pkts as f64 * rp.loopback_write_ns
            + sw.roce_rx_total as f64 * switch_net
            + sw.mirrored_total as f64 * (dumper_net + rp.reconstruct_ns);
        let share = |ns: f64| {
            if run_test_ns > 0.0 {
                100.0 * ns / run_test_ns
            } else {
                0.0
            }
        };

        let op_wall_ns = fastest(&op.w1_ns);
        let runs = campaign_runs(kind);
        let (w1_rate, efficiency) = if op.w2_ns.is_empty() {
            (0.0, 0.0)
        } else {
            let w1 = runs / (op_wall_ns / 1e9);
            let w2 = runs / (fastest(&op.w2_ns) / 1e9);
            (w1, w2 / (2.0 * w1))
        };
        let traced = fastest(&primary.traced_ns);
        let untraced = fastest(&primary.untraced_ns);

        r.push("sim.events", es.events as f64, "count");
        r.push("sim.timers_fired", es.timers_fired as f64, "count");
        r.push("sim.frames_delivered", es.frames_delivered as f64, "count");
        r.push(
            "sim.run_ns_per_event",
            run_test_ns / es.events.max(1) as f64,
            "ns",
        );
        r.push("sim.engine.bare_ns_per_timer", rp.bare_timer_ns, "ns");
        r.push("sim.engine.bare_ns_per_frame", rp.bare_frame_ns, "ns");
        r.push("sim.wheel.push_pop_ns.55us", rp.wheel_55us_ns, "ns");
        r.push("sim.wheel.push_pop_ns.5ms", rp.wheel_5ms_ns, "ns");
        r.push("sim.pcap.read_mb_per_sec", rp.pcap_read_mb_per_sec, "MB/s");
        r.push(
            "telemetry.enabled_tax_ns_per_event",
            rp.telemetry_tax_ns,
            "ns",
        );
        r.push("telemetry.emit_ns", rp.tel_emit_ns, "ns");
        r.push("telemetry.inc_counter_ns", rp.tel_inc_ns, "ns");
        r.push("telemetry.journal_events", journal_events, "count");
        r.push("telemetry.journal_dropped", journal_dropped, "count");
        for (i, stage) in ["parse", "emit", "icrc"].into_iter().enumerate() {
            r.push(&format!("packet.{stage}_ns.0B"), rp.packet_0b_ns[i], "ns");
            r.push(&format!("packet.{stage}_ns.mtu"), rp.packet_mtu_ns[i], "ns");
        }
        r.push(
            "packet.frames_allocated",
            fs.frames_allocated as f64,
            "count",
        );
        r.push("packet.bytes_copied", fs.bytes_copied as f64, "B");
        r.push(
            "packet.bytes_copied_per_pkt",
            fs.bytes_copied as f64 / trace_packets.max(1) as f64,
            "B",
        );
        r.push(
            "packet.peak_live_frames",
            fs.peak_live_frames as f64,
            "count",
        );
        r.push("rnic.loopback_ns_per_pkt.write", rp.loopback_write_ns, "ns");
        r.push("rnic.loopback_ns_per_pkt.read", rp.loopback_read_ns, "ns");
        r.push("rnic.on_timer_ns", rp.on_timer_ns, "ns");
        r.push("rnic.retransmitted_packets", retransmitted as f64, "count");
        r.push("rnic.timeouts", timeouts as f64, "count");
        r.push("switch.pipeline_ns_per_frame", rp.switch_ns, "ns");
        r.push("switch.mirrored", sw.mirrored_total as f64, "count");
        r.push("switch.dropped", sw.injected_drops as f64, "count");
        r.push("dumper.node_ns_per_capture", rp.dumper_ns, "ns");
        r.push("dumper.reconstruct_ns_per_pkt", rp.reconstruct_ns, "ns");
        r.push("dumper.write_pcap_us", rp.write_pcap_us, "us");
        r.push("dumper.ingest.recover_ns_per_pkt", rp.recover_ns, "ns");
        r.push("dumper.ingest.stream_ns_per_pkt", rp.stream_ns, "ns");
        r.push("dumper.trace_packets", trace_packets as f64, "count");
        r.push("dumper.discards", results.dumper_discards as f64, "count");
        r.push(
            "core.config.parse_us",
            us(span_ns(tr, "core.config.parse")),
            "us",
        );
        r.push("core.config.clone_us", rp.config_clone_us, "us");
        r.push("core.orchestrator.run_test_ms", ms(run_test_ns), "ms");
        r.push("core.orchestrator.small_run_ms", rp.small_run_ms, "ms");
        r.push(
            "core.orchestrator.event_plane_share_pct",
            share(event_plane_ns),
            "%",
        );
        r.push(
            "core.orchestrator.frame_plane_share_pct",
            share(frame_plane_ns),
            "%",
        );
        r.push(
            "core.orchestrator.unattributed_ms",
            ms(run_test_ns - event_plane_ns - frame_plane_ns),
            "ms",
        );
        r.push("core.integrity.check_us", rp.integrity_check_us, "us");
        for name in ["conformance", "gbn_fsm", "retrans_perf", "cnp", "counter"] {
            let span = format!("core.analyzers.{name}");
            r.push(&format!("{span}_us"), us(span_ns(tr, &span)), "us");
        }
        r.push(
            "core.analyzers.conformance.discovery_ns_per_pkt",
            rp.discovery_ns,
            "ns",
        );
        r.push(
            "core.report.build_us",
            us(span_ns(tr, "core.report.build")),
            "us",
        );
        r.push(
            "core.report.serialize_us",
            us(span_ns(tr, "core.report.serialize")),
            "us",
        );
        r.push("core.report.bytes", op.text.len() as f64, "B");
        r.push("core.ingest.ingest_ms", ingest_ms, "ms");
        r.push("core.fuzz.mutate_us", rp.fuzz_mutate_us, "us");
        r.push("core.campaign.runs_per_sec_w1", w1_rate, "1/s");
        r.push("core.campaign.parallel_efficiency", efficiency, "ratio");
        r.push("cli.op_wall_ms", cli_wall_ms, "ms");
        r.push(
            "cli.process_overhead_ms",
            cli_wall_ms - ms(op_wall_ns),
            "ms",
        );
        r.push(
            "trace_overhead_pct",
            100.0 * (traced - untraced) / untraced,
            "%",
        );
    }
}
