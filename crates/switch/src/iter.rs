//! Per-connection ITER (retransmission round) tracking — Figure 3 of the
//! paper.
//!
//! `(PSN, ITER)` uniquely identifies every transmission of every packet of
//! a connection, which is what lets users say "drop the retransmission of
//! packet 5" (`iter: 2` in Listing 2). ITER starts at 1; whenever a data
//! packet's PSN is *not larger than* the connection's last observed PSN, a
//! new round has begun.

use lumina_packet::bth::psn_distance;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::net::Ipv4Addr;

/// Connection key as the data plane sees it: the direction matters, so the
/// key is (source IP, destination IP, destination QPN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConnKey {
    /// Source IP of the data packets.
    pub src_ip: Ipv4Addr,
    /// Destination IP of the data packets.
    pub dst_ip: Ipv4Addr,
    /// Destination QPN of the data packets.
    pub dst_qpn: u32,
}

#[derive(Debug, Clone, Copy)]
struct ConnState {
    iter: u32,
    last_psn: u32,
}

/// Tracks ITER per connection.
#[derive(Debug, Clone, Default)]
pub struct IterTracker {
    conns: HashMap<ConnKey, ConnState>,
}

impl IterTracker {
    /// Observe a data packet; returns the connection's ITER before the
    /// packet (1 if never seen) and the ITER the packet belongs to (after
    /// any new-round increment, so that events target the round the packet
    /// actually is in — see Figure 3). The two differ on a round's first
    /// packet.
    pub fn observe(&mut self, key: ConnKey, psn: u32) -> (u32, u32) {
        match self.conns.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(ConnState { iter: 1, last_psn: psn });
                (1, 1)
            }
            Entry::Occupied(slot) => {
                let state = slot.into_mut();
                let previous = state.iter;
                // "If its PSN is not larger than Last_PSN, the event
                // injector identifies this as a new round" — evaluated in
                // 24-bit PSN space.
                if psn_distance(state.last_psn, psn) <= 0 {
                    state.iter += 1;
                }
                state.last_psn = psn;
                (previous, state.iter)
            }
        }
    }

    /// Current ITER of a connection (1 if never seen).
    pub fn current_iter(&self, key: &ConnKey) -> u32 {
        self.conns.get(key).map(|s| s.iter).unwrap_or(1)
    }

    /// Number of tracked connections (for the §5 memory accounting).
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Approximate on-chip state: last PSN (3 B) + ITER (2 B) + key hash
    /// slot (8 B) per connection.
    pub fn memory_bytes(&self) -> usize {
        self.conns.len() * 13
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ConnKey {
        ConnKey {
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            dst_qpn: 0xea,
        }
    }

    #[test]
    fn figure3_walkthrough() {
        // The exact scenario of Figure 3: packets 1 2 3 4, retransmit from
        // 2, packets 2 3 4, retransmit from 3, packets 3 4.
        let mut t = IterTracker::default();
        let k = key();
        let observed: Vec<u32> = [1, 2, 3, 4, 2, 3, 4, 3, 4]
            .iter()
            .map(|&psn| t.observe(k, psn).1)
            .collect();
        assert_eq!(observed, vec![1, 1, 1, 1, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn equal_psn_starts_new_round() {
        // "not larger than": a repeat of the same PSN is a new round.
        let mut t = IterTracker::default();
        let k = key();
        assert_eq!(t.observe(k, 5), (1, 1));
        assert_eq!(t.observe(k, 5), (1, 2));
        assert_eq!(t.observe(k, 5), (2, 3));
    }

    #[test]
    fn connections_tracked_independently() {
        let mut t = IterTracker::default();
        let k1 = key();
        let k2 = ConnKey {
            dst_qpn: 0xeb,
            ..key()
        };
        t.observe(k1, 1);
        t.observe(k1, 2);
        t.observe(k1, 1); // k1 round 2
        assert_eq!(t.current_iter(&k1), 2);
        assert_eq!(t.current_iter(&k2), 1);
        assert_eq!(t.observe(k2, 1), (1, 1));
        assert_eq!(t.connections(), 2);
    }

    #[test]
    fn psn_wraparound_not_a_new_round() {
        // 0xffffff → 0x000000 is forward progress in 24-bit space.
        let mut t = IterTracker::default();
        let k = key();
        assert_eq!(t.observe(k, 0xff_fffe), (1, 1));
        assert_eq!(t.observe(k, 0xff_ffff), (1, 1));
        assert_eq!(t.observe(k, 0x00_0000), (1, 1));
        assert_eq!(t.observe(k, 0x00_0001), (1, 1));
        // Going back across the wrap is a retransmission.
        assert_eq!(t.observe(k, 0xff_ffff), (1, 2));
    }

    #[test]
    fn memory_accounting_10k_connections() {
        let mut t = IterTracker::default();
        for i in 0..10_000u32 {
            t.observe(
                ConnKey {
                    dst_qpn: i,
                    ..key()
                },
                1,
            );
        }
        // §5: connection state for 10K connections stays far under 1 MB.
        assert!(t.memory_bytes() < 200_000);
    }
}
