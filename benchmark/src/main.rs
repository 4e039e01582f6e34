//! The repo benchmark. See README.md beside this package and
//! BENCHMARK.json at the repository root.
//!
//! ```text
//! lumina-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lumina-benchmark [--seed <n>] [--seconds <s>]            # every workload, both tables
//! lumina-benchmark --selfcheck [--workload <name>] [--seed <n>] [--seconds <s>]
//!                                                           # two sets, compared
//! ```
//!
//! A single-workload run prints diagnostics to stderr and, as the last
//! line of stdout, one JSON object `{correct, attempted, failed, metrics}`.

mod child;
mod e2e;
mod layers;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Kind;

/// `benchmark/`, fixed when the package is compiled (in the checkout it
/// is run from).
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The target directory this binary was built into: it sits at
/// `<target>/release/lumina-benchmark`. Building `lumina-cli` into the
/// same directory shares every compiled dependency, whichever way the
/// directory was chosen (CARGO_TARGET_DIR, `.cargo/config.toml`, default).
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

/// Build the program under test from the checkout's sources. This is the
/// one step that happens before any clock starts.
fn build_cli() -> Result<PathBuf, String> {
    let root = package_dir()
        .parent()
        .ok_or("benchmark/ has no parent directory")?;
    let manifest = root.join("Cargo.toml");
    let target = target_dir()?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "lumina-core", "--bin", "lumina-cli"])
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(&target)
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of lumina-cli failed ({status})"));
    }
    let cli = target.join("release").join("lumina-cli");
    if !cli.is_file() {
        return Err(format!("{} was not built", cli.display()));
    }
    Ok(cli)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let kind = match &args.workload {
        None => None,
        Some(name) => Some(Kind::from_name(name).ok_or_else(|| {
            let names: Vec<&str> = workloads::ALL.iter().map(|k| k.name()).collect();
            format!("unknown workload {name:?}; known: {}", names.join(", "))
        })?),
    };
    if args.selfcheck {
        return report::selfcheck(kind, args.seed, args.seconds);
    }
    let Some(kind) = kind else {
        return report::all_workloads(args.seed, args.seconds);
    };
    let env = e2e::Env {
        cli: build_cli()?,
        dir: package_dir().join("out").join(kind.name()),
    };
    let result = if args.trace {
        traced::run(kind, args.seed, args.seconds, &env)?
    } else {
        report::untraced(kind, args.seed, args.seconds, &env)?
    };
    println!("{}", result.to_json_line());
    Ok(result.correct())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lumina-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
