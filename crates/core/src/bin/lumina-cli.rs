//! `lumina-cli` — run a Lumina test from a YAML file.
//!
//! ```text
//! lumina-cli test.yaml                 # run, print the human report
//! lumina-cli test.yaml --json          # print the JSON report instead
//! lumina-cli test.yaml --pcap out.pcap # also write the trace as pcap
//!                                      # (cannot write it: exit 3)
//! lumina-cli --validate test.yaml      # check the config, run nothing
//! lumina-cli telemetry --config test.yaml   # event journal + metrics
//! lumina-cli trace --config test.yaml --perfetto out.json
//! lumina-cli fuzz --config base.yaml --workers 4 --generations 16
//! lumina-cli ingest --pcap capture.pcap    # grade a real capture offline
//! lumina-cli soak --configs configs --scenarios 3  # randomized chaos sweep
//! ```
//!
//! All flag parsing lives in [`lumina_core::cli`]; `--config`, `--seed`
//! and `--json` mean the same thing to every subcommand, and `--help`
//! prints one usage text covering all of them.
//!
//! The `telemetry` subcommand prints the structured event journal (JSONL)
//! followed by the per-node metric registry and the frame-plane
//! allocation counters to stdout — all byte-identical across same-seed
//! runs — and the wall-clock self-profile to stderr.
//!
//! The `fuzz` subcommand runs a parallel genetic campaign (§4, Algorithm 1)
//! seeded from the given base configuration. Anomalies stream to stdout as
//! JSON Lines the moment they are found; the campaign summary and the
//! per-worker throughput profile go to stderr. For a fixed `--seed` and
//! `--batch`, the anomaly stream is byte-identical for every `--workers`
//! value.
//!
//! Exit codes follow [`lumina_core::Error::exit_code`]: 0 success, 1 test
//! ran but failed (integrity or incomplete traffic), 2 configuration,
//! 3 I/O, 4 translation, 5 engine, 6 reconstruction, 7 watchdog,
//! 8 internal, 9 spec-conformance violations proven by the oracle,
//! 10 unreadable capture (`ingest` found nothing to degrade into),
//! 11 proven liveness failure (the recovery oracle caught a wedge).

use lumina_core::analyzers::latency;
use lumina_core::cli::{self, CommonOpts};
use lumina_core::config::TestConfig;
use lumina_core::fuzz::{self, mutate::EventMutator, score, FuzzParams};
use lumina_core::matrix::{run_matrix, MatrixParams};
use lumina_core::orchestrator::{run_supervised, run_test, RetryPolicy};
use lumina_core::soak;
use lumina_core::{Error, RunReport};
use std::process::ExitCode;

/// Print a typed error and convert it to the process exit code. Called
/// once, by `main`: handlers return their errors.
fn fail(e: Error) -> ExitCode {
    let msg = e.to_string();
    // `Error::Config` with several problems ends its Display with a
    // newline; single-line variants do not.
    eprintln!("error: {}", msg.trim_end_matches('\n'));
    ExitCode::from(e.exit_code())
}

/// Exit 0, or the ran-but-failed exit 1.
fn passed(ok: bool) -> ExitCode {
    ExitCode::from(u8::from(!ok))
}

/// A `--json` document on stdout.
fn print_pretty(doc: &serde_json::Value) {
    println!("{}", serde_json::to_string_pretty(doc).unwrap());
}

/// Flatten one metrics subtree into `section.name : value` table lines.
fn print_metric_rows(prefix: &str, v: &serde_json::Value, indent: usize) {
    match v {
        serde_json::Value::Object(m) => {
            for (k, val) in m {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                print_metric_rows(&key, val, indent);
            }
        }
        other => println!("{:indent$}{prefix:<44} : {other}", ""),
    }
}

/// The frame-plane counters as a JSON object (also the table source).
fn frame_stats_json(fs: &lumina_sim::FrameStats) -> serde_json::Value {
    serde_json::json!({
        "frames_allocated": (fs.frames_allocated),
        "bytes_allocated": (fs.bytes_allocated),
        "bytes_copied": (fs.bytes_copied),
        "frames_shared": (fs.frames_shared),
        "bytes_shared": (fs.bytes_shared),
        "peak_live_frames": (fs.peak_live_frames),
    })
}

/// `lumina-cli telemetry --config <test.yaml>`: run the test and dump the
/// journal + registry (stdout, deterministic) and self-profile (stderr).
fn telemetry_cmd(args: &[String]) -> Result<ExitCode, Error> {
    let opts = CommonOpts::parse(args)?;
    let results = run_test(&opts.load()?)?;

    let tel = &results.telemetry;
    let snap = tel.deterministic_snapshot();
    if opts.json {
        // One machine-readable document: journal, metrics, frame plane.
        let journal: Vec<serde_json::Value> = tel
            .journal_jsonl()
            .lines()
            .filter_map(|l| serde_json::from_str(l).ok())
            .collect();
        let doc = serde_json::json!({
            "journal": journal,
            "metrics": snap,
            "frames": (frame_stats_json(&results.frame_stats)),
        });
        print_pretty(&doc);
    } else {
        // 1. The structured event journal, one JSON object per line.
        print!("{}", tel.journal_jsonl());

        // 2. Per-node metric registry as an aligned table.
        println!("--- metrics ---");
        if let Some(global) = snap.get("global").and_then(|g| g.as_object()) {
            for (kind, set) in global {
                println!("global [{kind}]");
                print_metric_rows("", set, 2);
            }
        }
        if let Some(nodes) = snap.get("nodes").and_then(|n| n.as_object()) {
            for (node, sections) in nodes {
                let Some(sections) = sections.as_object() else {
                    continue;
                };
                for (kind, set) in sections {
                    println!("node {node} [{kind}]");
                    print_metric_rows("", set, 2);
                }
            }
        }
        // 3. Frame-plane allocation/copy accounting (zero-copy plane).
        println!("global [frames]");
        print_metric_rows("", &frame_stats_json(&results.frame_stats), 2);
        if let Some(dropped) = snap
            .get("journal")
            .and_then(|j| j.get("dropped"))
            .and_then(|d| d.as_u64())
        {
            if dropped > 0 {
                println!("journal dropped : {dropped} (ring full)");
            }
        }
    }

    // 4. Wall-clock self-profile — non-deterministic, so stderr only.
    tel.with_profile(|p| p.finish());
    let profile = tel.with_profile(|p| p.to_json());
    eprintln!("self-profile: {}", serde_json::to_string(&profile).unwrap());
    // Headline numbers, so nobody has to eyeball the JSON blob: sustained
    // event rate plus the run's pressure gauges (journal queue high-water
    // mark and peak frames simultaneously alive in the packet plane).
    let stat = |k: &str| profile.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    eprintln!(
        "self-profile: {:.0} events/sec, queue-depth hwm {}, peak live frames {}",
        stat("events_per_sec"),
        stat("queue_depth_hwm") as u64,
        stat("peak_live_frames") as u64,
    );

    Ok(ExitCode::SUCCESS)
}

/// `lumina-cli trace --config <test.yaml> [--perfetto out.json]`: run the
/// test with lifecycle tracing forced on, print the per-hop latency
/// dissection, grade it against `trace.hop-budget-us`, and optionally
/// export the flight recorder as Chrome trace-event JSON for Perfetto.
fn trace_cmd(args: &[String]) -> Result<ExitCode, Error> {
    let opts = CommonOpts::parse(args)?;
    let mut cfg = opts.load()?;
    // Tracing is the whole point of this subcommand: force it on while
    // keeping the config's own capacity and budgets when a `trace:`
    // section is present.
    let mut tsec = cfg.trace.clone().unwrap_or_default();
    tsec.enabled = true;
    cfg.trace = Some(tsec.clone());

    let results = run_test(&cfg)?;
    let summary = results.trace_summary();
    let verdict = latency::analyze(&summary, &tsec.hop_budget_us);

    if opts.json {
        let mut report = results.report_json()?;
        if !tsec.hop_budget_us.is_empty() {
            report["latency"] = serde_json::to_value(&verdict).unwrap();
        }
        print_pretty(&report);
    } else {
        println!("test            : {}", opts.config_path);
        println!("trace packets   : {}", summary.packets());
        let (records, dropped) = results.telemetry.with_recorder(|r| (r.len(), r.dropped()));
        println!("trace records   : {records} retained, {dropped} evicted");
        println!(
            "{:<24} {:>8} {:>12} {:>12}",
            "hop", "count", "mean ns", "p99 ns"
        );
        let hops: Vec<&str> = summary.hop_names().collect();
        for hop in hops {
            if let Some(h) = summary.hop_histogram(hop) {
                let mean = if h.count() > 0 {
                    h.sum() / h.count()
                } else {
                    0
                };
                let p99 = h.quantile_lower_bound(0.99).unwrap_or(0);
                println!("{hop:<24} {:>8} {mean:>12} {p99:>12}", h.count());
            }
        }
        let e2e = summary.end_to_end();
        if e2e.count() > 0 {
            let mean = e2e.sum() / e2e.count();
            let p99 = e2e.quantile_lower_bound(0.99).unwrap_or(0);
            println!(
                "{:<24} {:>8} {mean:>12} {p99:>12}",
                "end_to_end",
                e2e.count()
            );
        }
        if !tsec.hop_budget_us.is_empty() {
            if verdict.passed() {
                println!("latency budgets : all within budget");
            }
            for v in verdict.violations() {
                println!(
                    "latency budgets : {} p99 {} ns OVER budget {} ns",
                    v.hop, v.p99_ns, v.budget_ns
                );
            }
            for hop in &verdict.unmatched {
                println!("latency budgets : {hop} has no samples (typo?)");
            }
        }
    }

    if let Some(out) = cli::flag_value(args, "--perfetto") {
        // One track per simulation node, named by orchestrator layout:
        // requester=0, responder=1, switch=2, dumpers from 3.
        let mut names = std::collections::BTreeMap::new();
        names.insert(0u32, "requester".to_string());
        names.insert(1u32, "responder".to_string());
        names.insert(2u32, "switch".to_string());
        for i in 0..cfg.network.num_dumpers.max(1) {
            names.insert(3 + i as u32, format!("dumper-{i}"));
        }
        let doc = results
            .telemetry
            .with_recorder(|r| lumina_sim::telemetry::trace::perfetto_json(r, &names));
        let text = serde_json::to_string(&doc).unwrap();
        std::fs::write(out, &text).map_err(Error::io(out))?;
        eprintln!(
            "wrote {} trace events to {out}",
            doc["traceEvents"].as_array().map_or(0, |a| a.len())
        );
    }

    Ok(passed(verdict.passed()))
}

/// `lumina-cli fuzz --config <base.yaml> [--workers N] [--generations G]
/// [--batch B] [--seed S] [--pool P] [--threshold T] [--score default|noisy]
/// [--events-only] [--coverage] [--corpus-dir D] [--no-shrink]
/// [--quirk-knobs]`: genetic campaign with the parallel executor. Anomaly
/// JSONL on stdout (reproducer JSONL after it in coverage mode), summary +
/// per-worker profile on stderr.
fn fuzz_cmd(args: &[String]) -> Result<ExitCode, Error> {
    let corpus_dir = cli::flag_value(args, "--corpus-dir").map(std::path::Path::new);
    let coverage_on = cli::has_flag(args, "--coverage")
        || cli::has_flag(args, "--shrink")
        || corpus_dir.is_some();
    let opts = CommonOpts::parse(args)?;
    let cfg = opts.load()?;
    let defaults = FuzzParams::default();
    let batch_size = cli::numeric_flag(args, "--batch", defaults.batch_size)?;
    let generations: usize = cli::numeric_flag(args, "--generations", 8)?;
    let coverage = if coverage_on {
        // A corpus from an earlier campaign seeds the pool and
        // pre-covers the map, so growth counts only new behavior.
        let mut cp = lumina_core::fuzz::coverage::CoverageParams {
            shrink: !cli::has_flag(args, "--no-shrink"),
            ..Default::default()
        };
        if let Some(path) = corpus_dir
            .map(|d| d.join("corpus.jsonl"))
            .filter(|p| p.exists())
        {
            let text = std::fs::read_to_string(&path).map_err(Error::io(path.display()))?;
            cp.seed_corpus = lumina_core::fuzz::coverage::Corpus::from_jsonl(&text)?;
            eprintln!(
                "fuzz: reloaded {} corpus entries from {}",
                cp.seed_corpus.len(),
                path.display()
            );
        }
        Some(cp)
    } else {
        None
    };
    let params = FuzzParams {
        pool_size: cli::numeric_flag(args, "--pool", defaults.pool_size)?,
        iterations: generations.max(1) * batch_size.max(1),
        anomaly_threshold: cli::numeric_flag(args, "--threshold", defaults.anomaly_threshold)?,
        // --seed drives the whole campaign: the config's network.seed
        // (already overridden by opts.load) and the mutation PRNG.
        seed: opts.seed.unwrap_or(defaults.seed),
        batch_size,
        workers: cli::numeric_flag(args, "--workers", fuzz::default_workers())?,
        coverage,
        ..defaults
    };
    let score_fn: fn(&TestConfig, &lumina_core::orchestrator::TestResults) -> (f64, String) =
        match cli::flag_value(args, "--score") {
            None | Some("default") => score::default_score,
            Some("noisy") => score::noisy_neighbor_score,
            Some("violations") => score::violation_score,
            Some(other) => {
                return Err(Error::config(format!(
                    "unknown --score {other:?} (want default|noisy|violations)"
                )))
            }
        };
    let mut mutator = EventMutator {
        events_only: cli::has_flag(args, "--events-only"),
        mutate_quirks: cli::has_flag(args, "--quirk-knobs"),
        ..EventMutator::default()
    };

    eprintln!(
        "fuzz: {} candidates ({} generations x batch {}), {} workers, seed {:#x}",
        params.iterations,
        params.iterations / params.batch_size.max(1),
        params.batch_size,
        params.workers,
        params.seed
    );
    let out = fuzz::fuzz_observed(
        &cfg,
        &mut mutator,
        score_fn,
        &params,
        &mut |candidate, scored, desc| {
            // One JSON line per anomaly, streamed as the merge finds them.
            let mut line = serde_json::Map::new();
            line.insert("candidate", serde_json::Value::from(candidate));
            line.insert("score", serde_json::Value::from(scored.score));
            line.insert("desc", serde_json::Value::from(desc));
            line.insert("config", serde_json::to_value(&scored.cfg).unwrap());
            println!(
                "{}",
                serde_json::to_string(&serde_json::Value::Object(line)).unwrap()
            );
        },
    );

    // One JSON line per rejected candidate, after the anomaly stream so
    // the anomaly JSONL stays byte-identical with earlier versions.
    for r in &out.rejections {
        let mut line = serde_json::Map::new();
        line.insert("rejection", serde_json::Value::from(r.candidate));
        line.insert("reason", serde_json::Value::from(r.reason.label()));
        line.insert("detail", serde_json::Value::from(r.detail.as_str()));
        println!(
            "{}",
            serde_json::to_string(&serde_json::Value::Object(line)).unwrap()
        );
    }

    // Coverage mode: one JSON line per finding's minimal reproducer,
    // after the rejection stream (a new key, so legacy consumers are
    // untouched), then corpus/reproducer persistence and the growth
    // summary on stderr.
    if let Some(cov) = &out.coverage {
        for r in &cov.reproducers {
            let mut line = serde_json::Map::new();
            line.insert("reproducer", serde_json::Value::from(r.candidate));
            line.insert(
                "class",
                match r.class {
                    Some(c) => serde_json::Value::from(c.label()),
                    None => serde_json::Value::Null,
                },
            );
            line.insert("desc", serde_json::Value::from(r.desc.as_str()));
            line.insert("reproduces", serde_json::Value::from(r.shrink.reproduces));
            line.insert(
                "removed",
                serde_json::Value::from(r.shrink.removed() as u64),
            );
            line.insert(
                "shrink-runs",
                serde_json::Value::from(r.shrink.runs_used as u64),
            );
            line.insert("config", serde_json::to_value(&r.shrink.cfg).unwrap());
            println!(
                "{}",
                serde_json::to_string(&serde_json::Value::Object(line)).unwrap()
            );
        }
        if let Some(dir) = corpus_dir {
            let write = |path: &std::path::Path, text: &str| {
                std::fs::write(path, text).map_err(Error::io(path.display()))
            };
            std::fs::create_dir_all(dir).map_err(Error::io(dir.display()))?;
            write(&dir.join("corpus.jsonl"), &cov.corpus.to_jsonl())?;
            for r in &cov.reproducers {
                let label = r.class.map_or("anomaly", |c| c.label());
                let name = format!("repro-{}-{}.yaml", r.candidate, label);
                write(&dir.join(name), &r.shrink.cfg.to_yaml())?;
            }
            eprintln!(
                "fuzz: persisted {} corpus entries, {} reproducers to {}",
                cov.corpus.len(),
                cov.reproducers.len(),
                dir.display()
            );
        }
        match (cov.growth.first(), cov.growth.last()) {
            (Some((_, first)), Some((at, last))) => eprintln!(
                "fuzz: coverage {} distinct slots ({} novel candidates, {first}->{last} by candidate {at}), corpus {} entries, {} reproducers",
                cov.map.distinct(),
                cov.growth.len(),
                cov.corpus.len(),
                cov.reproducers.len()
            ),
            _ => eprintln!(
                "fuzz: coverage {} distinct slots (no growth this campaign), corpus {} entries, {} reproducers",
                cov.map.distinct(),
                cov.corpus.len(),
                cov.reproducers.len()
            ),
        }
    }

    eprintln!(
        "fuzz: {} scored, {} rejected, {} anomalies >= {}",
        out.history.len(),
        out.rejected,
        out.anomalies.len(),
        params.anomaly_threshold
    );
    if !out.rejections.is_empty() {
        let mut by_reason: std::collections::BTreeMap<&str, u64> = Default::default();
        for r in &out.rejections {
            *by_reason.entry(r.reason.label()).or_default() += 1;
        }
        let breakdown: Vec<String> = by_reason
            .iter()
            .map(|(reason, n)| format!("{n} {reason}"))
            .collect();
        eprintln!("fuzz: rejections: {}", breakdown.join(", "));
    }
    if let Some(best) = &out.best {
        eprintln!("fuzz: best score {:.3}", best.score);
    }
    let profile = out.telemetry.with_profile(|p| p.to_json());
    let mut throughput = serde_json::Map::new();
    for key in ["workers", "campaign"] {
        if let Some(v) = profile.get(key) {
            throughput.insert(key, v.clone());
        }
    }
    eprintln!(
        "fuzz: profile {}",
        serde_json::to_string(&serde_json::Value::Object(throughput)).unwrap()
    );
    Ok(ExitCode::SUCCESS)
}

/// `lumina-cli matrix --config <test.yaml> [--devices a,b] [--workers N]
/// [--cell-reports] [--no-quirk-overlay]`: run the scenario once per
/// device profile (twice under an active quirk overlay), grade every cell
/// with the conformance oracle and print the cross-device behavior diffs.
/// The report is byte-identical for every `--workers` value.
fn matrix_cmd(args: &[String]) -> Result<ExitCode, Error> {
    let opts = CommonOpts::parse(args)?;
    let cfg = opts.load()?;
    let devices: Vec<String> = cli::flag_value(args, "--devices")
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default();
    let params = MatrixParams {
        devices,
        workers: cli::numeric_flag(args, "--workers", 1)?,
        quirk_overlay: !cli::has_flag(args, "--no-quirk-overlay"),
        include_reports: cli::has_flag(args, "--cell-reports"),
    };
    // The scenario label is the config file stem, as in saved reports.
    let scenario = std::path::Path::new(&opts.config_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(opts.config_path.as_str())
        .to_string();
    let report = run_matrix(&cfg, &scenario, &params)?;
    if opts.json {
        print_pretty(&report.to_json()?);
    } else {
        print!("{}", report.render_human());
    }
    // An error cell means part of the grid never ran: the sweep failed.
    Ok(passed(report.cells.iter().all(|c| c.error.is_none())))
}

/// `lumina-cli soak [--configs <dir>] [--scenarios N] [--seed N]
/// [--workers N] [--json]`: sweep every preset under seeded randomized
/// chaos schedules and grade each run with the liveness/recovery oracle.
/// The report is byte-identical for every `--workers` value; a proven
/// liveness failure exits 11, a scenario that fails to run exits 1.
fn soak_cmd(args: &[String]) -> Result<ExitCode, Error> {
    // The single-run flags are common to every subcommand's table but mean
    // nothing to a sweep; `--config` for `--configs` would otherwise soak
    // the default directory and exit 0.
    if let Some(flag) = ["--config", "--faults", "--quirks"]
        .into_iter()
        .find(|f| cli::has_flag(args, f))
    {
        return Err(Error::config(format!(
            "soak does not take {flag}: name the presets with --configs <dir> \
             (a single YAML file soaks just that preset)"
        )));
    }
    let dir = cli::flag_value(args, "--configs").unwrap_or("configs");
    let params = soak::SoakParams {
        scenarios_per_preset: cli::numeric_flag(args, "--scenarios", 3)?,
        seed: cli::numeric_flag(args, "--seed", 1)?,
        workers: cli::numeric_flag(args, "--workers", 1)?,
    };
    let report = soak::sweep(&soak::collect_presets(dir)?, &params)?;
    if cli::has_flag(args, "--json") {
        print_pretty(&report.to_json()?);
    } else {
        print!("{}", report.render_human());
    }
    if let Some(msg) = report.first_liveness_failure() {
        return Err(Error::Liveness(msg));
    }
    // A scenario that failed to run means the sweep is incomplete.
    Ok(passed(report.errors == 0))
}

/// `lumina-cli ingest --pcap <capture> [--config <test.yaml>]
/// [--chunk-events N] [--max-bytes N] [--json]`: stream a real capture
/// through recovery, chunked reconstruction and the conformance oracle.
/// Damage degrades the verdict instead of aborting; only a capture with
/// no readable prefix at all exits 10 ([`Error::Ingest`]).
fn ingest_cmd(args: &[String]) -> Result<ExitCode, Error> {
    let pcap = cli::flag_value(args, "--pcap")
        .ok_or_else(|| Error::config("ingest needs --pcap <capture>"))?;
    let defaults = lumina_core::IngestParams::default();
    let params = lumina_core::IngestParams {
        chunk_entries: cli::numeric_flag(args, "--chunk-events", defaults.chunk_entries)?,
        max_resident_bytes: cli::numeric_flag(args, "--max-bytes", defaults.max_resident_bytes)?,
        context: match cli::flag_value(args, "--config") {
            None => None,
            Some(_) => Some(CommonOpts::parse(args)?.load()?),
        },
        retain_trace: false,
        progress: true,
    };
    let out = lumina_core::ingest_path(pcap, &params)?;
    if cli::has_flag(args, "--json") {
        print_pretty(&out.report_json()?);
    } else {
        println!("capture         : {pcap}");
        print!("{}", out.render_human());
    }
    if !out.conformance.compliant {
        return Err(Error::Violations(out.conformance.class_summary()));
    }
    // Compliant but on damaged evidence: the degraded-report exit, same
    // class as a failed-but-completed test.
    Ok(passed(out.pristine()))
}

/// The default subcommand: run one test and report.
fn run_cmd(args: &[String]) -> Result<ExitCode, Error> {
    let opts = CommonOpts::parse(args).inspect_err(|_| eprint!("{}", cli::help()))?;
    let retries: u32 = cli::numeric_flag(args, "--retries", 0)?;

    let cfg = opts.load()?;
    if cli::has_flag(args, "--validate") {
        println!("{}: configuration valid", opts.config_path);
        return Ok(ExitCode::SUCCESS);
    }

    let policy = RetryPolicy {
        max_attempts: retries.saturating_add(1),
        ..RetryPolicy::default()
    };
    let results = run_supervised(&cfg, &policy)?;
    let report = RunReport::of(&results);

    if opts.json {
        print_pretty(&report.to_json()?);
    } else {
        println!("test            : {}", opts.config_path);
        print!("{}", report.render_human());
    }
    if let (Some(out), Some(trace)) = (cli::flag_value(args, "--pcap"), results.trace.as_ref()) {
        let file = std::fs::File::create(out).map_err(Error::io(out))?;
        let n = trace.write_pcap(file).map_err(Error::io(out))?;
        eprintln!("wrote {n} packets to {out}");
    }
    Ok(passed(report.verdict()?))
}

/// A subcommand implementation: the tail of argv, minus the subcommand.
type Handler = fn(&[String]) -> Result<ExitCode, Error>;

/// Handlers for the subcommands declared in [`cli::SUBCOMMANDS`] — the
/// names here must match the table (checked by `dispatch_covers_table`).
/// `run` is the fallback when the first argument is no subcommand.
const HANDLERS: &[(&str, Handler)] = &[
    ("telemetry", telemetry_cmd),
    ("trace", trace_cmd),
    ("fuzz", fuzz_cmd),
    ("ingest", ingest_cmd),
    ("matrix", matrix_cmd),
    ("soak", soak_cmd),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || cli::has_flag(&args, "--help") || cli::has_flag(&args, "-h") {
        print!("{}", cli::help());
        return if args.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    let (name, handler, rest) = match HANDLERS.iter().find(|(name, _)| *name == args[0]) {
        Some((name, handler)) => (*name, *handler, &args[1..]),
        None => ("run", run_cmd as Handler, &args[..]),
    };
    cli::reject_unknown_flags(name, rest)
        .and_then(|()| handler(rest))
        .unwrap_or_else(fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_covers_table() {
        // Every subcommand in the declarative table has a handler here
        // (run is the fallback arm), and no handler is unlisted.
        for spec in cli::SUBCOMMANDS {
            if spec.name == "run" {
                continue;
            }
            assert!(
                HANDLERS.iter().any(|(name, _)| *name == spec.name),
                "subcommand {} has no handler",
                spec.name
            );
        }
        for (name, _) in HANDLERS {
            assert!(
                cli::SUBCOMMANDS.iter().any(|s| s.name == *name),
                "handler {name} is not in the subcommand table"
            );
        }
    }
}
