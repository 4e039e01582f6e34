//! The traffic-dumper pool: high-speed capture of mirrored packets
//! (§3.4 of the paper) and offline trace reconstruction (§3.5).
//!
//! Each dumper host receives mirror copies from the switch, spreads them
//! across CPU cores with RSS (which is why the switch randomizes the UDP
//! destination port — one flow would otherwise pin a single core), trims
//! every packet to its first 128 bytes (all protocol headers, no payload),
//! and buffers them in memory until the orchestrator's TERM, at which point
//! the original RoCEv2 destination port is restored and the capture is
//! flushed.
//!
//! A core that cannot keep up overflows its ring and the NIC counts
//! `rx_discards_phy` — the failure mode that capped the paper's
//! naive two-host design at a ~30 % capture success rate and motivated the
//! weighted-round-robin pool design (§3.4).

pub mod ingest;
pub mod node;
pub mod trace;

pub use ingest::{recover_entry, recover_frame, RecoveryStats};
pub use node::{CaptureHandle, DumperConfig, DumperFaults, DumperNode, StallWindow};
pub use trace::{
    reconstruct, reconstruct_lossy, CaptureBytes, CapturedPacket, GapSpan, ReconstructError,
    StreamOpts, StreamSummary, StreamingReconstructor, Trace, TraceEntry, TRIM_LEN,
};
