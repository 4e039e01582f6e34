//! Behavioral models of the four RDMA NICs Lumina tested.
//!
//! The paper measured real silicon: NVIDIA ConnectX-4 Lx (40 GbE),
//! ConnectX-5 (100 GbE), ConnectX-6 Dx (100 GbE) and Intel E810 (100 GbE).
//! This crate replaces that silicon with a wire-accurate behavioral model of
//! an RoCEv2 Reliable-Connection transport engine:
//!
//! * requester and responder state machines with Go-back-N loss recovery,
//! * IB-specification retransmission timeouts (`4.096 µs × 2^timeout`,
//!   `retry_cnt`) plus NVIDIA's undocumented *adaptive retransmission*
//!   (§6.3 of the paper),
//! * DCQCN congestion control: notification-point CNP generation with the
//!   three vendor rate-limiting modes (per-destination-IP on CX4 Lx,
//!   per-QP on E810, per-port on CX5/CX6 Dx) and the reaction-point rate
//!   machine,
//! * an ETS egress scheduler (strict priority + DWRR) whose
//!   work-conservation can be disabled to reproduce the CX6 Dx bug
//!   (§6.2.1),
//! * vendor counters, including the E810 `cnpSent` and CX4 Lx
//!   `implied_nak_seq_err` counter bugs (§6.2.4),
//! * the CX4 Lx "noisy neighbor" shared-pipeline stall (§6.2.2) and the
//!   CX5 APM/MigReq slow path behind the CX5↔E810 interoperability bug
//!   (§6.2.3).
//!
//! Each quirk is a parameter of a [`profile::DeviceProfile`]; the four
//! shipped profiles are calibrated against the numbers the paper reports,
//! so the analyzers in `lumina-core` reproduce the paper's figures in
//! *shape* (who wins, by what order of magnitude, where behavior changes).
//!
//! The model is a pure, deterministic state machine: frames in, frames +
//! completions + timer requests out ([`device::Rnic`]). The `lumina-gen`
//! crate wraps it into a simulation node.

pub mod counters;
pub mod dcqcn;
pub mod device;
pub mod ets;
pub mod profile;
pub mod qp;
mod qp_table;
pub mod quirks;
pub mod timeout;
pub mod verbs;

pub use counters::Counters;
pub use device::{Action, Rnic, RnicBuilder};
pub use profile::{CnpLimitMode, DeviceProfile, DeviceRegistry, Vendor};
pub use quirks::{PerQuirk, Quirk, QuirkKnobs, QuirkPlane, QuirkStats};
pub use qp::{QpConfig, QpEndpoint};
pub use verbs::{Completion, CompletionStatus, Verb, WorkRequest};
