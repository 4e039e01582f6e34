//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! Each module owns one experiment: it builds the configurations, runs the
//! simulated testbed through `lumina-core`'s orchestrator, post-processes
//! with the analyzers, and returns a serializable series shaped like the
//! paper's plot. The `lumina-experiments` binary prints them and the
//! integration tests in the workspace root assert their shapes against the
//! paper's findings. Nothing here is a stopwatch: speed claims are made with
//! the repo benchmark (`benchmark/`, `just bench-pairs`).
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`fig03_iter`] | Figure 3 — ITER tracking walkthrough |
//! | [`fig07_overhead`] | Figure 7 — Lumina's impact on MCT |
//! | [`fig08_09_retrans`] | Figures 8 & 9 — NACK generation/reaction latency sweeps |
//! | [`fig10_ets`] | Figure 10 — ETS goodput under three settings (CX6 Dx bug) |
//! | [`fig11_noisy`] | Figure 11 — noisy neighbor on CX4 Lx |
//! | [`table2_bugs`] | Table 2 — bug & hidden-behavior detection suite |
//! | [`interop`] | §6.2.3 — CX5↔E810 MigReq interoperability |
//! | [`cnp_behavior`] | §6.3 — CNP intervals & rate-limiting modes |
//! | [`adaptive_retrans`] | §6.3 — adaptive retransmission timeouts |
//! | [`sec34_dumper`] | §3.4 — dumper load-balancing success ratio |
//! | [`ablations`] | beyond the paper — causal knobs for each modeled quirk |
//! | [`sec5_switch`] | §5 — injector capacity & latency accounting |

pub mod ablations;
pub mod adaptive_retrans;
pub mod cnp_behavior;
pub mod common;
pub mod fig03_iter;
pub mod fig07_overhead;
pub mod fig08_09_retrans;
pub mod fig10_ets;
pub mod fig11_noisy;
pub mod interop;
pub mod sec34_dumper;
pub mod sec5_switch;
pub mod table2_bugs;
