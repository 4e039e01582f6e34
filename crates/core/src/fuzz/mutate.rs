//! Configuration mutation operators for the fuzzer.

use crate::config::{EventSpec, TestConfig};
use lumina_rnic::Quirk;
use lumina_sim::SimRng;

/// Generates and perturbs configurations.
pub trait Mutator {
    /// Produce an initial pool member from the base configuration.
    fn initial(&mut self, base: &TestConfig, rng: &mut SimRng) -> TestConfig;
    /// Produce a mutated child.
    fn mutate(&mut self, parent: &TestConfig, rng: &mut SimRng) -> TestConfig;
}

/// The default mutator: perturbs basic traffic settings (QP count,
/// message size/count, verb) and event settings (inject/remove/move
/// drop/ECN events) — the two mutation families Algorithm 1 describes.
#[derive(Debug, Default)]
pub struct EventMutator {
    /// Upper bound on connections the mutator will configure.
    pub max_connections: Option<u32>,
    /// Restrict mutations to event changes (keep traffic shape fixed).
    pub events_only: bool,
    /// Add a mutation dimension that flips DUT misbehavior knobs
    /// ([`crate::config::QuirksSection`]), letting a coverage-guided
    /// campaign explore the oracle's violation classes. Off by default:
    /// a quirk-free campaign must stay quirk-free.
    pub mutate_quirks: bool,
}

impl EventMutator {
    fn random_event(cfg: &TestConfig, rng: &mut SimRng) -> EventSpec {
        let total_pkts = cfg.traffic.pkts_per_qp().unwrap_or(u32::MAX).max(1);
        EventSpec {
            qpn: rng.range_inclusive(1, cfg.traffic.num_connections as u64) as u32,
            psn: rng.range_inclusive(1, total_pkts as u64) as u32,
            r#type: if rng.chance(0.7) { "drop" } else { "ecn" }.to_string(),
            iter: if rng.chance(0.85) { 1 } else { 2 },
            every: 0,
            delay_us: 0,
            reorder_by: 1,
        }
    }
}

impl EventMutator {
    /// A "drop wave": the same-position drop across the first `k`
    /// connections — the loss pattern of synchronized incast congestion,
    /// which is what shook out the CX4 Lx noisy neighbor (§6.2.2).
    fn drop_wave(cfg: &mut TestConfig, rng: &mut SimRng) {
        let n = cfg.traffic.num_connections as u64;
        let k = rng.range_inclusive(1, n);
        let total = cfg.traffic.pkts_per_qp().unwrap_or(u32::MAX).max(1);
        let psn = rng.range_inclusive(1, total.min(cfg.traffic.pkts_per_msg()) as u64) as u32;
        cfg.traffic.data_pkt_events.clear();
        for q in 1..=k {
            cfg.traffic.data_pkt_events.push(EventSpec {
                qpn: q as u32,
                psn,
                r#type: "drop".into(),
                iter: 1,
                every: 0,
                delay_us: 0,
                reorder_by: 1,
            });
        }
    }
}

impl Mutator for EventMutator {
    fn initial(&mut self, base: &TestConfig, rng: &mut SimRng) -> TestConfig {
        let mut cfg = base.clone();
        if rng.chance(0.5) {
            // Half the pool starts from a synchronized drop wave…
            Self::drop_wave(&mut cfg, rng);
        } else {
            // …the rest from 0–2 scattered events.
            let extra = rng.below(3);
            for _ in 0..extra {
                let ev = Self::random_event(&cfg, rng);
                cfg.traffic.data_pkt_events.push(ev);
            }
        }
        cfg
    }

    fn mutate(&mut self, parent: &TestConfig, rng: &mut SimRng) -> TestConfig {
        let mut cfg = parent.clone();
        let dims: u64 = if self.events_only {
            4
        } else if self.mutate_quirks {
            8
        } else {
            7
        };
        if rng.below(dims) == dims - 1 {
            Self::drop_wave(&mut cfg, rng);
            return cfg;
        }
        match rng.below(dims - 1) {
            // --- event mutations ---
            0 => {
                let ev = Self::random_event(&cfg, rng);
                cfg.traffic.data_pkt_events.push(ev);
            }
            1 => {
                if !cfg.traffic.data_pkt_events.is_empty() {
                    let i = rng.index(cfg.traffic.data_pkt_events.len());
                    cfg.traffic.data_pkt_events.remove(i);
                }
            }
            2 => {
                if !cfg.traffic.data_pkt_events.is_empty() {
                    let i = rng.index(cfg.traffic.data_pkt_events.len());
                    let total = cfg.traffic.pkts_per_qp().unwrap_or(u32::MAX).max(1);
                    cfg.traffic.data_pkt_events[i].psn =
                        rng.range_inclusive(1, total as u64) as u32;
                }
            }
            // --- traffic-shape mutations ---
            3 => {
                let cap = self.max_connections.unwrap_or(36) as u64;
                cfg.traffic.num_connections = rng.range_inclusive(1, cap) as u32;
                // Drop events that now reference missing connections.
                let n = cfg.traffic.num_connections;
                cfg.traffic.data_pkt_events.retain(|e| e.qpn <= n);
                cfg.traffic.qp_traffic_class.truncate(n as usize);
            }
            4 => {
                let sizes = [1024u32, 4096, 10_240, 20_480, 102_400];
                cfg.traffic.message_size = sizes[rng.index(sizes.len())];
                let total = cfg.traffic.pkts_per_qp().unwrap_or(u32::MAX).max(1);
                cfg.traffic.data_pkt_events.retain(|e| e.psn <= total);
            }
            5 => {
                let verbs = ["write", "read", "send"];
                cfg.traffic.rdma_verb = verbs[rng.index(verbs.len())].to_string();
            }
            // --- quirk-knob mutation (reachable only with mutate_quirks) ---
            _ => {
                let quirk = Quirk::ALL[rng.index(Quirk::COUNT)];
                let q = cfg.quirks.get_or_insert_with(Default::default);
                if q.knobs[quirk] != 0.0 && rng.chance(0.4) {
                    q.knobs[quirk] = 0.0;
                } else {
                    // Quantized probabilities spanning "rare" to "always",
                    // matching the regimes the quirk matrix exercises.
                    let probs = [0.05, 0.3, 0.5, 1.0];
                    q.knobs[quirk] = probs[rng.index(probs.len())];
                }
                // An all-zero section is behavior-identical to none;
                // normalize so quirk-free configs stay byte-comparable.
                if q.is_noop() {
                    cfg.quirks = None;
                }
            }
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TestConfig {
        TestConfig::from_yaml(
            r#"
traffic:
  num-connections: 4
  rdma-verb: write
  num-msgs-per-qp: 3
  mtu: 1024
  message-size: 10240
"#,
        )
        .unwrap()
    }

    #[test]
    fn mutations_stay_valid() {
        let mut m = EventMutator::default();
        let mut rng = SimRng::seed_from_u64(11);
        let mut cfg = m.initial(&base(), &mut rng);
        for i in 0..200 {
            cfg = m.mutate(&cfg, &mut rng);
            let problems = cfg.problems();
            assert!(problems.is_empty(), "iteration {i}: {problems:?}");
        }
    }

    #[test]
    fn events_only_mode_preserves_traffic_shape() {
        let mut m = EventMutator {
            events_only: true,
            ..Default::default()
        };
        let mut rng = SimRng::seed_from_u64(3);
        let b = base();
        let mut cfg = b.clone();
        for _ in 0..50 {
            cfg = m.mutate(&cfg, &mut rng);
        }
        assert_eq!(cfg.traffic.num_connections, b.traffic.num_connections);
        assert_eq!(cfg.traffic.message_size, b.traffic.message_size);
        assert_eq!(cfg.traffic.rdma_verb, b.traffic.rdma_verb);
    }

    #[test]
    fn quirk_dimension_is_opt_in_and_stays_valid() {
        // Default mutator: a quirk-free lineage never gains a quirks
        // section.
        let mut m = EventMutator::default();
        let mut rng = SimRng::seed_from_u64(7);
        let mut cfg = base();
        for _ in 0..100 {
            cfg = m.mutate(&cfg, &mut rng);
            assert!(cfg.quirks.is_none());
        }

        // Opted in: the dimension flips knobs, keeps configs valid, and
        // normalizes all-zero sections back to none.
        let mut m = EventMutator {
            mutate_quirks: true,
            ..Default::default()
        };
        let mut rng = SimRng::seed_from_u64(7);
        let mut cfg = base();
        let mut saw_quirks = false;
        for i in 0..200 {
            cfg = m.mutate(&cfg, &mut rng);
            let problems = cfg.problems();
            assert!(problems.is_empty(), "iteration {i}: {problems:?}");
            if let Some(q) = cfg.quirks.as_ref() {
                saw_quirks = true;
                assert!(!q.is_noop(), "noop sections must normalize to none");
            }
        }
        assert!(saw_quirks, "200 mutations must hit the quirk dimension");
    }

    #[test]
    fn initial_configs_vary() {
        let mut m = EventMutator::default();
        let mut rng = SimRng::seed_from_u64(5);
        let b = base();
        let counts: Vec<usize> = (0..8)
            .map(|_| m.initial(&b, &mut rng).traffic.data_pkt_events.len())
            .collect();
        assert!(counts.iter().any(|&c| c > 0));
    }
}
