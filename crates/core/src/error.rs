//! The orchestrator's typed error API.
//!
//! Every failure `run_test` and its helpers can produce is one of a small
//! set of variants, each carrying enough context to say *which field* or
//! *which stage* went wrong. The CLI maps each variant to a distinct exit
//! code (see [`Error::exit_code`]) so scripted campaigns can tell a bad
//! configuration from an I/O problem without parsing stderr.

use std::fmt;

/// Anything that can go wrong while configuring, translating or running a
/// Lumina test.
#[derive(Debug)]
pub enum Error {
    /// The configuration failed to parse or validate. Each problem names
    /// the offending field.
    Config {
        /// One message per offending field.
        problems: Vec<String>,
    },
    /// Intent translation (§3.3) could not map an event onto the runtime
    /// traffic metadata.
    Translate(String),
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The run exhausted its event budget (`network.max-events`, else the
    /// engine's own safety limit): a livelock, not a result. Whether it
    /// fires depends on the config and seed alone.
    Watchdog(String),
    /// An invariant the orchestrator relies on was violated (a node
    /// downcast to the wrong type, a report that would not serialize).
    Internal(String),
    /// The run itself succeeded but the conformance oracle proved the
    /// device under test violated the RC specification.
    Violations(String),
    /// The recovery oracle proved a liveness failure: posted work neither
    /// completed nor was accounted with a typed reason, a QP wedged with
    /// unacked PSNs and no live timer, or retransmit amplification blew
    /// its per-window bound.
    Liveness(String),
    /// A capture file could not be ingested at all — the pcap header was
    /// unreadable or the very first record was malformed, so there is
    /// nothing to degrade into. Carries the byte offset of the first
    /// malformed structure so operators can inspect the file directly.
    Ingest {
        /// The capture file involved.
        path: String,
        /// Byte offset of the first malformed record or header.
        offset: u64,
        /// What was wrong there.
        msg: String,
    },
}

impl Error {
    /// Build a configuration error from a single problem message.
    pub fn config(problem: impl Into<String>) -> Error {
        Error::Config {
            problems: vec![problem.into()],
        }
    }

    /// Build an internal-invariant error.
    pub fn internal(msg: impl Into<String>) -> Error {
        Error::Internal(msg.into())
    }

    /// `map_err` adapter naming the file an I/O call was made on.
    pub fn io(path: impl fmt::Display) -> impl FnOnce(std::io::Error) -> Error {
        move |source| Error::Io {
            path: path.to_string(),
            source,
        }
    }

    /// The process exit code the CLI uses for this variant. Success is 0
    /// and a completed-but-failed test is 1, so errors start at 2. Codes 5
    /// and 6 are unused: nothing raised the engine and reconstruction
    /// errors that held them (a run the engine cannot finish is
    /// [`Error::Watchdog`]; reconstruction degrades, never fails).
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::Config { .. } => 2,
            Error::Io { .. } => 3,
            Error::Translate(_) => 4,
            Error::Watchdog(_) => 7,
            Error::Internal(_) => 8,
            Error::Violations(_) => 9,
            Error::Ingest { .. } => 10,
            Error::Liveness(_) => 11,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config { problems } => match problems.as_slice() {
                [one] => write!(f, "invalid configuration: {one}"),
                many => {
                    writeln!(f, "invalid configuration ({} problems):", many.len())?;
                    for p in many {
                        writeln!(f, "  - {p}")?;
                    }
                    Ok(())
                }
            },
            Error::Translate(msg) => write!(f, "event translation failed: {msg}"),
            Error::Io { path, source } => write!(f, "{path}: {source}"),
            Error::Watchdog(msg) => write!(f, "watchdog killed the run: {msg}"),
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
            Error::Violations(msg) => write!(f, "spec-conformance violations: {msg}"),
            Error::Liveness(msg) => write!(f, "liveness violation: {msg}"),
            Error::Ingest { path, offset, msg } => {
                write!(f, "{path}: unreadable capture at offset {offset}: {msg}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errs = [
            Error::config("x"),
            Error::Io {
                path: "p".into(),
                source: std::io::Error::other("nope"),
            },
            Error::Translate("t".into()),
            Error::Watchdog("w".into()),
            Error::internal("i"),
            Error::Violations("v".into()),
            Error::Ingest {
                path: "cap.pcap".into(),
                offset: 24,
                msg: "bad magic".into(),
            },
            Error::Liveness("qp 2 stuck".into()),
        ];
        let codes: Vec<u8> = errs.iter().map(|e| e.exit_code()).collect();
        let mut uniq = codes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), codes.len(), "{codes:?}");
        assert!(codes.iter().all(|&c| c >= 2));
    }

    #[test]
    fn display_names_every_problem() {
        let e = Error::Config {
            problems: vec!["mtu 0 out of range".into(), "unknown rdma-verb".into()],
        };
        let s = e.to_string();
        assert!(s.contains("mtu"));
        assert!(s.contains("rdma-verb"));
        assert!(s.contains("2 problems"));
    }

    #[test]
    fn liveness_gets_exit_code_11() {
        let e = Error::Liveness("1 message unaccounted on qp 1".into());
        assert_eq!(e.exit_code(), 11);
        let s = e.to_string();
        assert!(s.contains("liveness violation"), "{s}");
        assert!(s.contains("unaccounted"), "{s}");
    }

    #[test]
    fn ingest_error_names_file_and_offset() {
        let e = Error::Ingest {
            path: "bad.pcapng".into(),
            offset: 1028,
            msg: "block length 7 not a multiple of 4".into(),
        };
        assert_eq!(e.exit_code(), 10);
        let s = e.to_string();
        assert!(s.contains("bad.pcapng"), "{s}");
        assert!(s.contains("offset 1028"), "{s}");
        assert!(s.contains("multiple of 4"), "{s}");
    }

    #[test]
    fn io_error_exposes_source() {
        use std::error::Error as _;
        let e = Error::Io {
            path: "/nope".into(),
            source: std::io::Error::other("denied"),
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("/nope"));
    }
}
