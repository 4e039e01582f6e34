//! Figure 3: the ITER tracking walkthrough, reproduced against the real
//! injector state machine.
//!
//! The scenario: four packets, drop PSN 2 in round 1 and PSN 3 in round 2.
//! The observed arrival sequence at the switch is
//! `1 2 3 4 | 2 3 4 | 3 4` with ITER `1 1 1 1 | 2 2 2 | 3 3`.

use lumina_switch::iter::{ConnKey, IterTracker};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// The figure's data: each observed packet with its assigned ITER.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Figure {
    /// `(psn, iter)` per arriving packet, in order.
    pub observations: Vec<(u32, u32)>,
}

/// Replay Figure 3's arrival sequence through the tracker.
pub fn run() -> Figure {
    let mut tracker = IterTracker::default();
    let key = ConnKey {
        src_ip: Ipv4Addr::new(10, 0, 0, 1),
        dst_ip: Ipv4Addr::new(10, 0, 0, 2),
        dst_qpn: 0xea,
    };
    let arrivals = [1u32, 2, 3, 4, 2, 3, 4, 3, 4];
    Figure {
        observations: arrivals
            .iter()
            .map(|&psn| (psn, tracker.observe(key, psn).1))
            .collect(),
    }
}

/// The ITER sequence the paper's figure shows.
pub const EXPECTED_ITERS: [u32; 9] = [1, 1, 1, 1, 2, 2, 2, 3, 3];

/// Print the figure.
pub fn print(fig: &Figure) {
    println!("\nFigure 3: ITER tracking (drop PSN 2 @ iter 1, PSN 3 @ iter 2)");
    let psns: Vec<String> = fig.observations.iter().map(|o| o.0.to_string()).collect();
    let iters: Vec<String> = fig.observations.iter().map(|o| o.1.to_string()).collect();
    println!("PSN : {}", psns.join(" "));
    println!("ITER: {}", iters.join(" "));
    let ok = fig
        .observations
        .iter()
        .map(|o| o.1)
        .eq(EXPECTED_ITERS.iter().copied());
    println!("matches paper: {}", if ok { "yes" } else { "NO" });
}
