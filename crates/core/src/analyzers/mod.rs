//! The test suite (§4): built-in analyzers over reconstructed traces.

// The analyzers run over capture-derived data, where a panic forfeits the
// verdict. Lint levels are inherited, so every analyzer below is covered.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod cnp;
pub mod conformance;
pub mod counter;
pub mod gbn_fsm;
pub mod latency;
pub mod recovery;
pub mod retrans_perf;

pub use cnp::CnpReport;
pub use conformance::{
    ConformanceOpts, ConformanceReport, ConformanceStream, Violation, ViolationClass,
};
pub use counter::CounterFinding;
pub use gbn_fsm::GbnReport;
pub use latency::{HopVerdict, LatencyReport};
pub use recovery::{
    FlowAccount, LivenessViolation, QpEndState, RecoveryOpts, RecoveryReport, WindowRecovery,
};
pub use retrans_perf::{RetransBreakdown, RetransKind};
