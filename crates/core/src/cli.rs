//! Command-line argument handling shared by every `lumina-cli` subcommand.
//!
//! Before this module each subcommand grew its own ad-hoc flag scanning,
//! and the same flag drifted: `--config` was required by `fuzz` but
//! positional for `run`, `--seed` meant different things, and parse
//! failures exited with whatever code the call site picked. Everything
//! funnels through here now:
//!
//! * [`flag_value`] / [`has_flag`] / [`numeric_flag`] are the only flag
//!   readers. A malformed value is an [`Error::Config`] naming the flag,
//!   so every subcommand exits with the same code for the same mistake.
//! * [`CommonOpts::parse`] resolves the flags every subcommand shares —
//!   the config path (positional or `--config`, interchangeably),
//!   `--seed` (overrides `network.seed`), `--json`, and the `--faults` /
//!   `--quirks` overlays.
//! * [`CommonOpts::load`] turns the path into a validated [`TestConfig`],
//!   mapping read failures to [`Error::Io`] and parse/validation
//!   failures to [`Error::Config`] — the typed errors the binary maps to
//!   distinct exit codes via [`Error::exit_code`].
//! * [`SUBCOMMANDS`] is the single declarative table of every subcommand —
//!   its name, usage line, flags and notes. The `--help` text
//!   ([`help`]) and the valued-flag set used by positional-argument
//!   resolution are both rendered from it, so a new flag or subcommand
//!   cannot drift out of the help or break positional parsing.
//! * [`reject_unknown_flags`] turns a `--flag` the invoked subcommand's
//!   row does not declare into an [`Error::Config`] naming it, so a typo
//!   is never a silently ignored argument.

use crate::config::{FaultsSection, QuirksSection, TestConfig};
use crate::error::Error;
use serde::Deserialize;
use std::sync::OnceLock;

/// One flag of a subcommand: its name, the value placeholder when it
/// consumes the next argument, and the help text (newlines become
/// aligned continuation lines).
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// The literal flag, e.g. `--pcap`.
    pub name: &'static str,
    /// Placeholder for the consumed value (`Some("<out>")`), or `None`
    /// for boolean flags.
    pub value: Option<&'static str>,
    /// Help text; embedded newlines continue at the help column.
    pub help: &'static str,
}

/// One subcommand of `lumina-cli`: everything the binary and the help
/// renderer need to know about it, in one place.
#[derive(Debug, Clone, Copy)]
pub struct SubcommandSpec {
    /// Dispatch name (`"run"` is the default when no subcommand matches).
    pub name: &'static str,
    /// The USAGE line, without the leading indent.
    pub usage: &'static str,
    /// One-line summary shown next to the usage line.
    pub summary: &'static str,
    /// The subcommand's own flags (common flags excluded).
    pub flags: &'static [FlagSpec],
    /// Free-text paragraph printed after the flags.
    pub notes: &'static [&'static str],
}

/// Flags every subcommand understands identically.
pub const COMMON_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--config",
        value: Some("<path>"),
        help: "test configuration YAML",
    },
    FlagSpec {
        name: "--seed",
        value: Some("<n>"),
        help: "override the config's network.seed",
    },
    FlagSpec {
        name: "--json",
        value: None,
        help: "machine-readable output on stdout",
    },
    FlagSpec {
        name: "--faults",
        value: Some("<path>"),
        help: "merge a fault-injection YAML (a bare `faults:`\nsection) into the test configuration",
    },
    FlagSpec {
        name: "--quirks",
        value: Some("<path>"),
        help: "merge a DUT-misbehavior YAML (a bare `quirks:`\nsection); the conformance oracle grades the result",
    },
    FlagSpec {
        name: "--help, -h",
        value: None,
        help: "this text",
    },
];

/// The declarative subcommand table: the single source for dispatch
/// names, the `--help` text and the valued-flag set.
pub const SUBCOMMANDS: &[SubcommandSpec] = &[
    SubcommandSpec {
        name: "run",
        usage: "lumina-cli <test.yaml> [OPTIONS]",
        summary: "run one test",
        flags: &[
            FlagSpec { name: "--validate", value: None, help: "check the configuration, run nothing" },
            FlagSpec {
                name: "--pcap",
                value: Some("<out>"),
                help: "also write the reconstructed trace as pcap\n(an unwritable <out> is an I/O error, exit 3)",
            },
        ],
        notes: &[
            "Every run with a trace is graded by the spec-conformance oracle;",
            "proven violations exit 9 (reproducible — same seed, same verdict).",
        ],
    },
    SubcommandSpec {
        name: "telemetry",
        usage: "lumina-cli telemetry --config <test.yaml>",
        summary: "event journal + metrics",
        flags: &[],
        notes: &[
            "Prints the structured event journal (JSONL) then the per-node",
            "metrics — both byte-identical across same-seed runs — plus the",
            "frame-plane allocation counters. With --json, one JSON document.",
        ],
    },
    SubcommandSpec {
        name: "trace",
        usage: "lumina-cli trace --config <test.yaml>",
        summary: "per-packet latency dissection",
        flags: &[FlagSpec {
            name: "--perfetto",
            value: Some("<out>"),
            help: "also write the run's packet-lifecycle hops as\nChrome trace-event JSON, loadable at ui.perfetto.dev",
        }],
        notes: &[
            "Runs the test with lifecycle tracing forced on and prints the",
            "per-hop / end-to-end latency dissection. Hops whose p99 exceeds a",
            "`trace.hop-budget-us` entry are flagged and exit 1.",
        ],
    },
    SubcommandSpec {
        name: "fuzz",
        usage: "lumina-cli fuzz --config <base.yaml>",
        summary: "genetic anomaly campaign",
        flags: &[
            FlagSpec { name: "--workers", value: Some("<n>"), help: "parallel workers (default: available cores)" },
            FlagSpec { name: "--generations", value: Some("<g>"), help: "generations to run (default 8)" },
            FlagSpec { name: "--batch", value: Some("<n>"), help: "candidates per generation" },
            FlagSpec { name: "--pool", value: Some("<n>"), help: "survivor pool size" },
            FlagSpec { name: "--threshold", value: Some("<t>"), help: "anomaly score threshold" },
            FlagSpec { name: "--score", value: Some("<name>"), help: "scoring function: default | noisy | violations" },
            FlagSpec { name: "--events-only", value: None, help: "mutate only the event list" },
            FlagSpec {
                name: "--coverage",
                value: None,
                help: "coverage-guided mode: novelty in the RC spec's\ndecision points steers selection; findings are\nauto-shrunk into minimal reproducer YAMLs on stdout",
            },
            FlagSpec {
                name: "--corpus-dir",
                value: Some("<d>"),
                help: "persist/reload the novel-config corpus (JSONL) and\nwrite reproducer YAMLs there (implies --coverage)",
            },
            FlagSpec { name: "--no-shrink", value: None, help: "record findings without shrinking them" },
            FlagSpec { name: "--quirk-knobs", value: None, help: "let the mutator flip DUT-misbehavior (quirks) knobs" },
        ],
        notes: &["(--seed seeds the campaign's mutation PRNG)"],
    },
    SubcommandSpec {
        name: "ingest",
        usage: "lumina-cli ingest --pcap <capture>",
        summary: "grade a real capture offline",
        flags: &[
            FlagSpec { name: "--pcap", value: Some("<capture>"), help: "the pcap/pcapng capture to grade (required)" },
            FlagSpec {
                name: "--chunk-events",
                value: Some("<n>"),
                help: "seal a reconstruction chunk after n entries\n(default 65536)",
            },
            FlagSpec {
                name: "--max-bytes",
                value: Some("<n>"),
                help: "memory bound on the resident reconstruction\nwindow in bytes (default 64 MiB)",
            },
        ],
        notes: &[
            "Streams a pcap/pcapng capture (classic or ng, either endianness)",
            "through mirror-metadata recovery and chunked reconstruction, then",
            "grades it with the conformance oracle in connection-discovery mode.",
            "--config supplies NP/MTU context; damage degrades the verdict to",
            "partial instead of aborting. Progress heartbeats go to stderr.",
        ],
    },
    SubcommandSpec {
        name: "soak",
        usage: "lumina-cli soak [--configs <dir>] [OPTIONS]",
        summary: "randomized chaos soak sweep",
        flags: &[
            FlagSpec {
                name: "--configs",
                value: Some("<dir>"),
                help: "preset directory to sweep (default: configs/);\na single YAML file soaks just that preset",
            },
            FlagSpec {
                name: "--scenarios",
                value: Some("<n>"),
                help: "randomized chaos schedules per preset (default 3)",
            },
            FlagSpec {
                name: "--workers",
                value: Some("<n>"),
                help: "parallel workers (default 1; the report is\nbyte-identical for every worker count)",
            },
        ],
        notes: &[
            "Sweeps every preset under seeded randomized chaos schedules",
            "(--seed seeds the schedule PRNG; same seed, same schedules), runs",
            "the liveness/recovery oracle on every scenario and prints a",
            "per-scenario recovery report. Proven liveness failures exit 11.",
            "A sweep has no single run to apply --config, --faults or --quirks",
            "to: they are rejected (exit 2) — presets come from --configs.",
        ],
    },
    SubcommandSpec {
        name: "matrix",
        usage: "lumina-cli matrix --config <test.yaml>",
        summary: "scenario × device behavior matrix",
        flags: &[
            FlagSpec {
                name: "--devices",
                value: Some("<list>"),
                help: "comma-separated registry names/prefixes to sweep\n(default: the config's device.matrix list, else\nevery registered profile)",
            },
            FlagSpec {
                name: "--workers",
                value: Some("<n>"),
                help: "parallel workers (default 1; the report is\nbyte-identical for every worker count)",
            },
            FlagSpec { name: "--cell-reports", value: None, help: "embed each cell's full run report in the JSON" },
            FlagSpec {
                name: "--no-quirk-overlay",
                value: None,
                help: "sweep only pristine devices even when the config\ncarries an active quirks: section",
            },
        ],
        notes: &[
            "Runs the scenario once per device profile, twice when a quirk",
            "overlay is active (pristine + quirked), grades every cell with the",
            "conformance oracle and prints the cross-device behavior diffs.",
        ],
    },
];

/// The exit-code legend, shared by every subcommand.
const EXIT_CODES: &str = "\
EXIT CODES:
    0  success          1  test ran but failed
    2  bad config       3  I/O error
    4  translation      5, 6  unused (nothing raises them)
    7  watchdog         8  internal        9  violations
    10 ingest (unreadable capture)
    11 liveness (recovery oracle proved a wedge)
";

/// True when `flag` consumes the next argument, per the table.
fn is_valued(flag: &str) -> bool {
    COMMON_FLAGS
        .iter()
        .chain(SUBCOMMANDS.iter().flat_map(|s| s.flags.iter()))
        .any(|f| f.name == flag && f.value.is_some())
}

/// Reject any `--flag` that neither [`COMMON_FLAGS`] nor subcommand
/// `sub`'s own table row declares: a typo such as `--worker 4` is a
/// configuration error naming the flag, not a silently ignored argument.
/// The argument after a valued flag is its value and is not inspected.
pub fn reject_unknown_flags(sub: &str, args: &[String]) -> Result<(), Error> {
    let own = SUBCOMMANDS
        .iter()
        .find(|s| s.name == sub)
        .map_or(&[][..], |s| s.flags);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match COMMON_FLAGS.iter().chain(own).find(|f| f.name == arg) {
            Some(f) if f.value.is_some() => {
                args.next();
            }
            Some(_) => {}
            None => {
                return Err(Error::config(format!(
                    "unknown flag {arg} for `{sub}` (see --help)"
                )))
            }
        }
    }
    Ok(())
}

impl FlagSpec {
    /// The flag as its help row shows it: `--pcap <out>`.
    fn head(&self) -> String {
        match self.value {
            Some(v) => format!("{} {v}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// Every flag the help text lists, common ones first.
fn all_flags() -> impl Iterator<Item = &'static FlagSpec> {
    COMMON_FLAGS
        .iter()
        .chain(SUBCOMMANDS.iter().flat_map(|s| s.flags))
}

/// Render one flag row plus aligned continuation lines, the help starting
/// at column `col`.
fn render_flag(out: &mut String, f: &FlagSpec, col: usize) {
    let head = f.head();
    for (i, line) in f.help.lines().enumerate() {
        let head = if i == 0 { head.as_str() } else { "" };
        out.push_str(&format!("    {head:<col$}{line}\n"));
    }
}

/// The full usage text, rendered from [`SUBCOMMANDS`] — printed for
/// `--help`/`-h` on any subcommand.
pub fn help() -> &'static str {
    static HELP: OnceLock<String> = OnceLock::new();
    HELP.get_or_init(|| {
        // Two spaces past the longest flag, so no flag runs into its help.
        let col = all_flags().map(|f| f.head().len()).max().unwrap_or(0) + 2;
        let mut out = String::new();
        out.push_str("lumina-cli — run Lumina tests against the simulated testbed\n\nUSAGE:\n");
        for s in SUBCOMMANDS {
            out.push_str(&format!("    {:<44}{}\n", s.usage, s.summary));
        }
        out.push_str(
            "\nThe config path may always be given either positionally or as\n`--config <path>`.\n",
        );
        out.push_str("\nCOMMON OPTIONS (all subcommands):\n");
        for f in COMMON_FLAGS {
            render_flag(&mut out, f, col);
        }
        for s in SUBCOMMANDS {
            let title = s.name.to_uppercase();
            if s.flags.is_empty() {
                out.push_str(&format!("\n{title}:\n"));
            } else {
                out.push_str(&format!("\n{title} OPTIONS:\n"));
                for f in s.flags {
                    render_flag(&mut out, f, col);
                }
            }
            if !s.notes.is_empty() {
                if !s.flags.is_empty() {
                    out.push('\n');
                }
                for line in s.notes {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
        out.push('\n');
        out.push_str(EXIT_CODES);
        out
    })
}

/// Value following `--flag`, if present.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// True when `--flag` appears anywhere in `args`.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parse `--flag <n>` with a default. A malformed value is a
/// configuration error naming the flag.
pub fn numeric_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, Error> {
    opt_numeric_flag(args, flag).map(|v| v.unwrap_or(default))
}

/// Parse `--flag <n>` into `Some(n)`, or `None` when absent.
pub fn opt_numeric_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, Error> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| Error::config(format!("{flag} wants a number, got {raw:?}"))),
    }
}

/// A standalone fault-injection file (`--faults`): one top-level
/// `faults:` section, same schema as inline in a test config.
#[derive(Debug, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
struct FaultsOverlay {
    faults: FaultsSection,
}

/// A standalone misbehavior file (`--quirks`): one top-level `quirks:`
/// section, same schema as inline in a test config.
#[derive(Debug, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
struct QuirksOverlay {
    quirks: QuirksSection,
}

/// The options every subcommand understands identically.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// Path to the test YAML (positional or `--config`).
    pub config_path: String,
    /// `--seed` override for `network.seed`, when given.
    pub seed: Option<u64>,
    /// `--json`: machine-readable output.
    pub json: bool,
    /// `--faults`: path to a fault-injection YAML merged over the test
    /// config's own `faults:` section.
    pub faults_path: Option<String>,
    /// `--quirks`: path to a DUT-misbehavior YAML merged over the test
    /// config's own `quirks:` section.
    pub quirks_path: Option<String>,
}

impl CommonOpts {
    /// Resolve the shared flags. The config path may be positional or
    /// `--config`; values consumed by known flags are never mistaken for
    /// the positional path.
    pub fn parse(args: &[String]) -> Result<CommonOpts, Error> {
        let config_path = match flag_value(args, "--config") {
            Some(p) => p.to_owned(),
            None => Self::positional(args).ok_or_else(|| {
                Error::config("missing test configuration (positional or --config)")
            })?,
        };
        Ok(CommonOpts {
            config_path,
            seed: opt_numeric_flag(args, "--seed")?,
            json: has_flag(args, "--json"),
            faults_path: flag_value(args, "--faults").map(str::to_owned),
            quirks_path: flag_value(args, "--quirks").map(str::to_owned),
        })
    }

    /// First argument that is neither a flag nor a flag's value. Which
    /// flags consume a value comes from the subcommand table, so a flag
    /// added there can never be mistaken for the config path.
    fn positional(args: &[String]) -> Option<String> {
        args.iter()
            .enumerate()
            .filter(|(i, a)| !a.starts_with("--") && (*i == 0 || !is_valued(args[i - 1].as_str())))
            .map(|(_, a)| a.clone())
            .next()
    }

    /// Read, parse and validate the configuration, applying the `--seed`
    /// override before validation so the error story is uniform.
    pub fn load(&self) -> Result<TestConfig, Error> {
        let yaml =
            std::fs::read_to_string(&self.config_path).map_err(Error::io(&self.config_path))?;
        let mut cfg = TestConfig::from_yaml(&yaml)?;
        if let Some(seed) = self.seed {
            cfg.network.seed = seed;
        }
        if let Some(path) = &self.faults_path {
            let yaml = std::fs::read_to_string(path).map_err(Error::io(path))?;
            let overlay: FaultsOverlay = serde_yaml::from_str(&yaml)
                .map_err(|e| Error::config(format!("--faults {path}: {e}")))?;
            cfg.faults = Some(overlay.faults);
        }
        if let Some(path) = &self.quirks_path {
            let yaml = std::fs::read_to_string(path).map_err(Error::io(path))?;
            let overlay: QuirksOverlay = serde_yaml::from_str(&yaml)
                .map_err(|e| Error::config(format!("--quirks {path}: {e}")))?;
            cfg.quirks = Some(overlay.quirks);
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumina_rnic::Quirk;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn positional_and_config_flag_are_interchangeable() {
        let a = CommonOpts::parse(&argv(&["test.yaml", "--json"])).unwrap();
        let b = CommonOpts::parse(&argv(&["--json", "--config", "test.yaml"])).unwrap();
        assert_eq!(a.config_path, b.config_path);
        assert!(a.json && b.json);
    }

    #[test]
    fn flag_values_are_not_positionals() {
        // "out.pcap" follows --pcap, so the positional is test.yaml.
        let o = CommonOpts::parse(&argv(&["--pcap", "out.pcap", "test.yaml"])).unwrap();
        assert_eq!(o.config_path, "test.yaml");
    }

    #[test]
    fn seed_parses_and_rejects_garbage() {
        let o = CommonOpts::parse(&argv(&["t.yaml", "--seed", "42"])).unwrap();
        assert_eq!(o.seed, Some(42));
        let err = CommonOpts::parse(&argv(&["t.yaml", "--seed", "many"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--seed"), "{err}");
    }

    #[test]
    fn missing_path_is_a_config_error() {
        let err = CommonOpts::parse(&argv(&["--json"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn load_maps_read_failure_to_io() {
        let o = CommonOpts::parse(&argv(&["/no/such/file.yaml"])).unwrap();
        let err = o.load().unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("/no/such/file.yaml"));
    }

    #[test]
    fn seed_override_lands_in_network_config() {
        // Round-trip through a real config file to exercise the full path.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/fig11_noisy_neighbor.yaml"
        );
        let o = CommonOpts::parse(&argv(&[path, "--seed", "7777"])).unwrap();
        let cfg = o.load().unwrap();
        assert_eq!(cfg.network.seed, 7777);
    }

    #[test]
    fn every_flag_row_leaves_two_spaces_before_its_help() {
        for f in all_flags() {
            let row = format!("    {}  ", f.head());
            let first = f.help.lines().next().unwrap_or_default();
            let line = help().lines().find(|l| l.starts_with(&row) && l.ends_with(first));
            assert!(line.is_some(), "{} runs into its help", f.name);
        }
    }

    #[test]
    fn help_names_every_subcommand_and_exit_code() {
        for needle in [
            "telemetry",
            "trace",
            "fuzz",
            "matrix",
            "--validate",
            "--pcap",
            "--perfetto",
            "hop-budget-us",
            "--seed",
            "--json",
            "--faults",
            "--quirks",
            "--coverage",
            "--corpus-dir",
            "--no-shrink",
            "--quirk-knobs",
            "--devices",
            "--cell-reports",
            "--no-quirk-overlay",
            "--chunk-events",
            "--max-bytes",
            "conformance oracle",
            "discovery mode",
            "5, 6  unused",
            "7  watchdog",
            "8  internal",
            "9  violations",
            "10 ingest",
            "11 liveness",
            "soak",
            "--configs",
            "--scenarios",
            "recovery oracle",
        ] {
            assert!(help().contains(needle), "help is missing {needle}");
        }
        // Every subcommand and flag in the table surfaces in the help —
        // the table IS the help, so nothing can drift out of it.
        for s in SUBCOMMANDS {
            assert!(help().contains(s.usage), "usage missing for {}", s.name);
            for f in s.flags {
                assert!(help().contains(f.name), "flag {} missing", f.name);
            }
        }
    }

    #[test]
    fn valued_flags_derive_from_the_table() {
        for flag in [
            "--config",
            "--seed",
            "--pcap",
            "--perfetto",
            "--workers",
            "--generations",
            "--batch",
            "--pool",
            "--threshold",
            "--score",
            "--faults",
            "--quirks",
            "--corpus-dir",
            "--devices",
            "--chunk-events",
            "--max-bytes",
            "--configs",
            "--scenarios",
        ] {
            assert!(is_valued(flag), "{flag} must consume its value");
        }
        for flag in [
            "--json",
            "--validate",
            "--coverage",
            "--cell-reports",
            "--no-quirk-overlay",
        ] {
            assert!(!is_valued(flag), "{flag} must not consume a value");
        }
    }

    #[test]
    fn matrix_flag_values_are_not_positionals() {
        let o = CommonOpts::parse(&argv(&["--devices", "cx5,e810", "test.yaml"])).unwrap();
        assert_eq!(o.config_path, "test.yaml");
    }

    #[test]
    fn faults_overlay_merges_into_config() {
        let dir = std::env::temp_dir().join("lumina-cli-faults-test");
        std::fs::create_dir_all(&dir).unwrap();
        let faults_path = dir.join("faults.yaml");
        std::fs::write(
            &faults_path,
            "faults:\n  mirror-loss-prob: 0.25\n  freezes:\n    - {node: responder, at-us: 10, duration-us: 5}\n",
        )
        .unwrap();
        let cfg_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/fig11_noisy_neighbor.yaml"
        );
        let o = CommonOpts::parse(&argv(&[
            cfg_path,
            "--faults",
            faults_path.to_str().unwrap(),
        ]))
        .unwrap();
        let cfg = o.load().unwrap();
        let f = cfg.faults.expect("overlay applied");
        assert_eq!(f.mirror_loss_prob, 0.25);
        assert_eq!(f.freezes.len(), 1);

        // Garbage overlay → config error naming the flag.
        std::fs::write(&faults_path, "faults:\n  not-a-knob: 1\n").unwrap();
        let err = o.load().unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--faults"), "{err}");
    }

    #[test]
    fn quirks_overlay_merges_into_config() {
        let dir = std::env::temp_dir().join("lumina-cli-quirks-test");
        std::fs::create_dir_all(&dir).unwrap();
        let quirks_path = dir.join("quirks.yaml");
        std::fs::write(
            &quirks_path,
            "quirks:\n  seed: 5\n  ghost-retransmit-prob: 0.05\n  stale-msn-prob: 0.2\n",
        )
        .unwrap();
        let cfg_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/fig11_noisy_neighbor.yaml"
        );
        let o = CommonOpts::parse(&argv(&[
            cfg_path,
            "--quirks",
            quirks_path.to_str().unwrap(),
        ]))
        .unwrap();
        let cfg = o.load().unwrap();
        let q = cfg.quirks.expect("overlay applied");
        assert_eq!(q.seed, Some(5));
        assert_eq!(q.knobs[Quirk::GhostRetransmit], 0.05);
        assert!(!q.is_noop());

        // Garbage overlay → config error naming the flag.
        std::fs::write(&quirks_path, "quirks:\n  not-a-knob: 1\n").unwrap();
        let err = o.load().unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--quirks"), "{err}");

        // Out-of-range probability caught by validation.
        std::fs::write(&quirks_path, "quirks:\n  ack-drop-prob: 2.0\n").unwrap();
        let err = o.load().unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("ack-drop-prob"), "{err}");
    }
}
