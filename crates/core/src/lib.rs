//! Lumina proper: the paper's primary contribution.
//!
//! This crate ties the substrates together into the tool the paper
//! describes:
//!
//! * [`config`] — the YAML test schema of Listings 1–2;
//! * [`translate`] — intent → match-action translation (Figure 2);
//! * [`orchestrator`] — environment setup, execution, Table-1 result
//!   collection;
//! * [`integrity`] — the three-condition trace integrity check (§3.5);
//! * [`analyzers`] — the test suite (§4): Go-back-N FSM compliance,
//!   retransmission performance breakdown (Figure 5), CNP behavior and
//!   counter consistency;
//! * [`report`] — what `run`, `telemetry`, `trace` and `fuzz` print:
//!   one plain struct each, with its renderings and exit verdict;
//! * [`fuzz`] — the genetic test-case generation module (Algorithm 1).
//!
//! # Quickstart
//!
//! ```
//! use lumina_core::config::TestConfig;
//! use lumina_core::orchestrator::run_test;
//!
//! let cfg = TestConfig::from_yaml(r#"
//! requester: { nic-type: cx5 }
//! responder: { nic-type: cx5 }
//! traffic:
//!   num-connections: 1
//!   rdma-verb: write
//!   num-msgs-per-qp: 2
//!   mtu: 1024
//!   message-size: 4096
//!   data-pkt-events:
//!     - {qpn: 1, psn: 2, type: drop, iter: 1}
//! "#).unwrap();
//! let results = run_test(&cfg).unwrap();
//! assert!(results.integrity.passed());
//! assert!(results.traffic_completed());
//! assert_eq!(results.requester_counters.packet_seq_err, 1);
//! ```

pub mod analyzers;
mod campaign;
pub mod cli;
pub mod config;
pub mod error;
pub mod fuzz;
pub mod ingest;
pub mod integrity;
pub mod matrix;
pub mod orchestrator;
pub mod report;
pub mod soak;
pub mod translate;

pub use analyzers::{ConformanceOpts, ConformanceReport, Violation, ViolationClass};
pub use config::{FaultsSection, QuirksSection, TestConfig};
pub use error::Error;
pub use ingest::{ingest_path, ingest_reader, IngestOutcome, IngestParams};
pub use integrity::{DegradedMode, IntegrityReport};
pub use matrix::{run_matrix, BehaviorDiff, CellOutcome, MatrixParams, MatrixReport};
pub use orchestrator::{run_supervised, run_test, RetryPolicy, TestResults};
pub use report::RunReport;
pub use translate::ConnMeta;
