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
//! Every handler is parse → one library call → print → exit code: the flag
//! tables live in [`lumina_core::cli`] (`--help` prints them), what is
//! printed in [`lumina_core::report`] and beside each campaign.
//!
//! Exit codes follow [`lumina_core::Error::exit_code`]: 0 success, 1 test
//! ran but failed (integrity or incomplete traffic), 2 configuration,
//! 3 I/O, 4 translation, 7 watchdog (the run exhausted its event budget,
//! `network.max-events`; 5 and 6 are unused), 8 internal,
//! 9 spec-conformance violations proven by the oracle,
//! 10 unreadable capture (`ingest` found nothing to degrade into),
//! 11 proven liveness failure (the recovery oracle caught a wedge).

use lumina_core::cli::{self, CommonOpts};
use lumina_core::fuzz::{self, coverage::CoverageParams, mutate::EventMutator, score, FuzzParams};
use lumina_core::matrix::{run_matrix, MatrixParams};
use lumina_core::orchestrator::{run_supervised, run_test, RetryPolicy};
use lumina_core::report::{anomaly_line, load_corpus, FuzzReport, TelemetryReport, TraceReport};
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

/// `lumina-cli telemetry --config <test.yaml>`: run the test and dump the
/// journal + per-node metrics (stdout, deterministic) and self-profile
/// (stderr).
fn telemetry_cmd(args: &[String]) -> Result<ExitCode, Error> {
    let opts = CommonOpts::parse(args)?;
    let results = run_test(&opts.load()?)?;
    let report = TelemetryReport::of(&results);
    if opts.json {
        print_pretty(&report.to_json()?);
    } else {
        print!("{}", report.render_human()?);
    }
    eprint!("{}", report.render_profile());
    Ok(ExitCode::SUCCESS)
}

/// `lumina-cli trace --config <test.yaml> [--perfetto out.json]`: run the
/// test with lifecycle tracing forced on, print the per-hop latency
/// dissection, grade it against `trace.hop-budget-us`, and optionally
/// export the event log's hop view as Chrome trace-event JSON for Perfetto.
fn trace_cmd(args: &[String]) -> Result<ExitCode, Error> {
    let opts = CommonOpts::parse(args)?;
    let mut cfg = opts.load()?;
    // Tracing is the whole point of this subcommand: force it on, keeping
    // the capacity and budgets of the config's own `trace:` section.
    cfg.trace.get_or_insert_with(Default::default);
    let results = run_test(&cfg)?;
    let report = TraceReport::of(&results);
    if opts.json {
        print_pretty(&report.to_json()?);
    } else {
        println!("test            : {}", opts.config_path);
        print!("{}", report.render_human());
    }
    if let Some(out) = cli::flag_value(args, "--perfetto") {
        let (doc, events) = report.perfetto();
        std::fs::write(out, doc).map_err(Error::io(out))?;
        eprintln!("wrote {events} trace events to {out}");
    }
    Ok(passed(report.passed()))
}

/// `lumina-cli fuzz --config <base.yaml> [--workers N] [--generations G]
/// [--batch B] [--seed S] [--pool P] [--threshold T] [--score default|noisy]
/// [--events-only] [--coverage] [--corpus-dir D] [--no-shrink]
/// [--quirk-knobs]`: genetic campaign with the parallel executor. Anomaly
/// JSONL on stdout as the merge finds them (rejections, then coverage-mode
/// reproducers, after it), summary + per-worker profile on stderr. For a
/// fixed `--seed` and `--batch`, stdout is byte-identical for every
/// `--workers` value.
fn fuzz_cmd(args: &[String]) -> Result<ExitCode, Error> {
    let corpus_dir = cli::flag_value(args, "--corpus-dir").map(std::path::Path::new);
    let coverage_on = cli::has_flag(args, "--coverage") || corpus_dir.is_some();
    let opts = CommonOpts::parse(args)?;
    let cfg = opts.load()?;
    let defaults = FuzzParams::default();
    let batch_size = cli::numeric_flag(args, "--batch", defaults.batch_size)?;
    let generations: usize = cli::numeric_flag(args, "--generations", 8)?;
    let coverage = if coverage_on {
        let mut cp = CoverageParams {
            shrink: !cli::has_flag(args, "--no-shrink"),
            ..Default::default()
        };
        // A corpus from an earlier campaign seeds the pool and
        // pre-covers the map, so growth counts only new decision points.
        if let Some((corpus, receipt)) = corpus_dir.map(load_corpus).transpose()?.flatten() {
            eprint!("{receipt}");
            cp.seed_corpus = corpus;
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
    let score_name = cli::flag_value(args, "--score").unwrap_or("default");
    let score_fn = score::by_name(score_name).ok_or_else(|| {
        Error::config(format!(
            "unknown --score {score_name:?} (want default|noisy|violations)"
        ))
    })?;
    let mut mutator = EventMutator {
        events_only: cli::has_flag(args, "--events-only"),
        mutate_quirks: cli::has_flag(args, "--quirk-knobs"),
        ..EventMutator::default()
    };

    eprint!("{}", FuzzReport::render_header(&params));
    let out = fuzz::fuzz_observed(
        &cfg,
        &mut mutator,
        score_fn,
        &params,
        &mut |candidate, scored, desc| println!("{}", anomaly_line(candidate, scored, desc)),
    );
    let report = FuzzReport::of(&out, &params);
    print!("{}", report.to_jsonl());
    if let Some(dir) = corpus_dir {
        eprint!("{}", report.persist(dir)?);
    }
    eprint!("{}", report.render_summary());
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
    let cfg = opts.load()?;
    if cli::has_flag(args, "--validate") {
        println!("{}: configuration valid", opts.config_path);
        return Ok(ExitCode::SUCCESS);
    }

    let results = run_supervised(&cfg, &RetryPolicy::default())?;
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
