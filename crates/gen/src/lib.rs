//! The traffic generator (§3.2 of the paper): a verbs-level application
//! driving the RNIC model, wrapped as a simulation node.
//!
//! One host is the *requester*, the other the *responder*. The requester
//! posts Write/Read/Send work requests over one or more QPs, honoring a
//! maximum number of outstanding messages (`tx-depth`) and optional
//! *barrier synchronization* (the next round is posted only after the
//! current round completed on **all** QPs). The responder pre-posts
//! receive WQEs for Send traffic. Goodput and per-message completion
//! times (MCT) are recorded, exactly the application metrics Table 1
//! collects from the real generator's logs.

pub mod host;
pub mod metrics;
pub mod spec;

pub use host::{HostNode, Role};
pub use metrics::{FlowMetrics, GenMetrics};
pub use spec::FlowPlan;
