//! Enhanced Transmission Selection (IEEE 802.1Qaz) egress scheduling.
//!
//! ETS is a hierarchical scheduler: strict-priority traffic classes are
//! served first; the remaining classes share bandwidth by weight (a
//! weighted-fair/DWRR discipline with per-class guaranteed shares). The
//! specification requires *work conservation*: a class may exceed its
//! guarantee when others leave bandwidth idle.
//!
//! §6.2.1 of the paper shows the CX6 Dx violating exactly that: its ETS
//! queues are hard-capped at their guaranteed share regardless of other
//! queues' usage. The model reproduces both behaviors behind the
//! `work_conserving` flag: each weighted class owns a token bucket refilled
//! at its guaranteed rate; a non-work-conserving scheduler refuses to serve
//! a class without tokens even when the port is otherwise idle.

use lumina_sim::{Bandwidth, SimTime};
use serde::{Deserialize, Serialize};

/// Configuration of one traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcConfig {
    /// Strict-priority classes preempt all weighted classes.
    pub strict_priority: bool,
    /// Relative weight among non-strict classes (ignored for strict ones).
    pub weight: u32,
}

/// Configuration of the scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EtsConfig {
    /// Traffic classes, index = TC id.
    pub tcs: Vec<TcConfig>,
    /// Work conservation (spec behavior). `false` reproduces the CX6 Dx
    /// bug.
    pub work_conserving: bool,
}

impl EtsConfig {
    /// A single best-effort class — the degenerate "no QoS" configuration.
    pub fn single_queue() -> EtsConfig {
        EtsConfig {
            tcs: vec![TcConfig {
                strict_priority: false,
                weight: 100,
            }],
            work_conserving: true,
        }
    }

    /// `n` equally weighted classes.
    pub fn equal_weights(n: usize, work_conserving: bool) -> EtsConfig {
        EtsConfig {
            tcs: vec![
                TcConfig {
                    strict_priority: false,
                    weight: 1,
                };
                n
            ],
            work_conserving,
        }
    }
}

/// A transmit candidate offered to the scheduler: some queue in TC `tc`
/// has a head packet of `size` bytes that may leave at `eligible_at`
/// (DCQCN pacing) or later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxCandidate {
    /// Traffic class the candidate belongs to.
    pub tc: usize,
    /// Earliest instant the candidate may be transmitted.
    pub eligible_at: SimTime,
    /// Frame size in bytes (line occupancy).
    pub size: usize,
}

#[derive(Debug, Clone)]
struct TcState {
    tokens: f64,
    burst_cap: f64,
    rate_bytes_per_ns: f64,
    last_refill: SimTime,
}

/// The ETS scheduler state.
#[derive(Debug, Clone)]
pub struct EtsScheduler {
    cfg: EtsConfig,
    states: Vec<TcState>,
}

impl EtsScheduler {
    /// Build the scheduler for a port of `port_bw`, splitting the weighted
    /// share of the port among non-strict classes by weight.
    pub fn new(cfg: EtsConfig, port_bw: Bandwidth, burst_bytes: f64) -> EtsScheduler {
        let total_weight: u64 = cfg
            .tcs
            .iter()
            .filter(|t| !t.strict_priority)
            .map(|t| t.weight as u64)
            .sum();
        let states = cfg
            .tcs
            .iter()
            .map(|t| {
                let frac = if t.strict_priority || total_weight == 0 {
                    1.0
                } else {
                    t.weight as f64 / total_weight as f64
                };
                TcState {
                    tokens: burst_bytes,
                    burst_cap: burst_bytes,
                    rate_bytes_per_ns: frac * port_bw.bits_per_sec() as f64 / 8.0 / 1e9,
                    last_refill: SimTime::ZERO,
                }
            })
            .collect();
        EtsScheduler { cfg, states }
    }

    /// Number of traffic classes.
    pub fn tc_count(&self) -> usize {
        self.cfg.tcs.len()
    }

    /// Whether the scheduler is work conserving.
    pub fn work_conserving(&self) -> bool {
        self.cfg.work_conserving
    }

    fn refill(&mut self, now: SimTime) {
        for s in &mut self.states {
            let dt = now.saturating_since(s.last_refill).as_nanos() as f64;
            s.tokens = (s.tokens + dt * s.rate_bytes_per_ns).min(s.burst_cap);
            s.last_refill = now;
        }
    }

    /// Pick the index (into `candidates`) of the packet to transmit at
    /// `now`, or `None` if nothing may go yet. On success the winning TC's
    /// tokens are charged.
    ///
    /// Selection order:
    /// 1. strict-priority TCs, lowest TC id first;
    /// 2. weighted TCs holding enough tokens, most-underserved
    ///    (most tokens relative to burst) first;
    /// 3. if work conserving: any remaining eligible candidate.
    pub fn pick(&mut self, now: SimTime, candidates: &[TxCandidate]) -> Option<usize> {
        self.refill(now);
        let ready = |c: &TxCandidate| c.eligible_at <= now;

        // 1. Strict classes in priority order.
        for (tc_id, tc) in self.cfg.tcs.iter().enumerate() {
            if !tc.strict_priority {
                continue;
            }
            if let Some(i) = candidates
                .iter()
                .position(|c| c.tc == tc_id && ready(c))
            {
                return Some(i);
            }
        }

        // 2. Weighted classes with tokens: serve the class with the
        // largest token surplus (approximates DWRR fairness).
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in candidates.iter().enumerate() {
            if !ready(c) || self.cfg.tcs[c.tc].strict_priority {
                continue;
            }
            let s = &self.states[c.tc];
            if s.tokens >= c.size as f64 {
                let surplus = s.tokens / s.burst_cap.max(1.0);
                if best.is_none_or(|(_, b)| surplus > b) {
                    best = Some((i, surplus));
                }
            }
        }
        if let Some((i, _)) = best {
            self.states[candidates[i].tc].tokens -= candidates[i].size as f64;
            return Some(i);
        }

        // 3. Work conservation: borrow idle bandwidth. A non-work-conserving
        // scheduler (the CX6 Dx bug) stops here.
        if self.cfg.work_conserving {
            if let Some(i) = candidates
                .iter()
                .position(|c| ready(c) && !self.cfg.tcs[c.tc].strict_priority)
            {
                // Borrowing drives the class's bucket negative so its own
                // guarantee is honored later, floored at one burst so a
                // long borrow cannot starve the class indefinitely.
                let s = &mut self.states[candidates[i].tc];
                s.tokens = (s.tokens - candidates[i].size as f64).max(-s.burst_cap);
                return Some(i);
            }
        }
        None
    }

    /// Earliest future instant at which `pick` could succeed for the given
    /// candidates (ignoring strict classes, which are always immediate when
    /// ready). Returns `None` if no candidate can ever become eligible
    /// (e.g. non-work-conserving with no tokens accruing).
    pub fn next_opportunity(&self, now: SimTime, candidates: &[TxCandidate]) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for c in candidates {
            let pacing = c.eligible_at.max(now);
            let t = if self.cfg.tcs[c.tc].strict_priority || self.cfg.work_conserving {
                pacing
            } else {
                // Must also wait for tokens.
                let s = &self.states[c.tc];
                let dt_since = now.saturating_since(s.last_refill).as_nanos() as f64;
                let tokens_now = (s.tokens + dt_since * s.rate_bytes_per_ns).min(s.burst_cap);
                let deficit = c.size as f64 - tokens_now;
                if deficit <= 0.0 {
                    pacing
                } else if s.rate_bytes_per_ns <= 0.0 {
                    continue;
                } else {
                    let wait_ns = (deficit / s.rate_bytes_per_ns).ceil() as u64;
                    pacing.max(now + SimTime::from_nanos(wait_ns))
                }
            };
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(work_conserving: bool) -> EtsScheduler {
        EtsScheduler::new(
            EtsConfig::equal_weights(2, work_conserving),
            Bandwidth::gbps(100),
            3000.0,
        )
    }

    fn cand(tc: usize) -> TxCandidate {
        TxCandidate {
            tc,
            eligible_at: SimTime::ZERO,
            size: 1100,
        }
    }

    #[test]
    fn strict_priority_wins() {
        let cfg = EtsConfig {
            tcs: vec![
                TcConfig {
                    strict_priority: true,
                    weight: 0,
                },
                TcConfig {
                    strict_priority: false,
                    weight: 100,
                },
            ],
            work_conserving: true,
        };
        let mut s = EtsScheduler::new(cfg, Bandwidth::gbps(100), 3000.0);
        let cands = [cand(1), cand(0)];
        assert_eq!(s.pick(SimTime::ZERO, &cands), Some(1)); // strict TC 0
    }

    #[test]
    fn weighted_classes_alternate_roughly() {
        let mut s = sched(true);
        let mut served = [0u32; 2];
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let cands = [cand(0), cand(1)];
            let i = s.pick(now, &cands).unwrap();
            served[cands[i].tc] += 1;
            now += SimTime::from_nanos(88); // one packet time at 100G
        }
        // Equal weights → roughly equal service.
        assert!((served[0] as i32 - served[1] as i32).abs() <= 10, "{served:?}");
    }

    #[test]
    fn work_conserving_borrows_idle_bandwidth() {
        let mut s = sched(true);
        let mut now = SimTime::ZERO;
        let mut served = 0;
        // Only TC 1 has traffic; a work-conserving scheduler keeps serving
        // it at full line rate far beyond its 50% guarantee.
        for _ in 0..1000 {
            let cands = [cand(1)];
            if s.pick(now, &cands).is_some() {
                served += 1;
            }
            now += SimTime::from_nanos(88);
        }
        assert_eq!(served, 1000);
    }

    #[test]
    fn non_work_conserving_caps_at_guarantee() {
        // The CX6 Dx bug: TC 1 alone cannot exceed ~50% of the port even
        // though TC 0 is idle.
        let mut s = sched(false);
        let mut now = SimTime::ZERO;
        let mut served = 0usize;
        let n = 2000;
        for _ in 0..n {
            let cands = [cand(1)];
            if s.pick(now, &cands).is_some() {
                served += 1;
            }
            now += SimTime::from_nanos(88); // offered: line rate
        }
        let frac = served as f64 / n as f64;
        assert!(
            (0.40..=0.60).contains(&frac),
            "served fraction {frac} should be pinned near the 50% guarantee"
        );
    }

    #[test]
    fn next_opportunity_accounts_for_tokens() {
        let mut s = sched(false);
        // Drain TC 0's bucket.
        let now = SimTime::ZERO;
        loop {
            let cands = [cand(0)];
            if s.pick(now, &cands).is_none() {
                break;
            }
        }
        let t = s
            .next_opportunity(now, &[cand(0)])
            .expect("tokens accrue eventually");
        assert!(t > now);
        // At 50G guaranteed, 1100 bytes take 176 ns to earn.
        assert!(t <= now + SimTime::from_nanos(400));
    }

    #[test]
    fn next_opportunity_respects_pacing() {
        let s = sched(true);
        let later = SimTime::from_micros(7);
        let c = TxCandidate {
            tc: 0,
            eligible_at: later,
            size: 1100,
        };
        assert_eq!(s.next_opportunity(SimTime::ZERO, &[c]), Some(later));
    }

    #[test]
    fn pacing_respected() {
        let mut s = sched(true);
        let c = TxCandidate {
            tc: 0,
            eligible_at: SimTime::from_micros(5),
            size: 1100,
        };
        assert_eq!(s.pick(SimTime::ZERO, &[c]), None);
        assert_eq!(s.pick(SimTime::from_micros(5), &[c]), Some(0));
    }

    #[test]
    fn single_queue_always_serves() {
        let mut s = EtsScheduler::new(EtsConfig::single_queue(), Bandwidth::gbps(100), 3000.0);
        for _ in 0..100 {
            assert_eq!(s.pick(SimTime::ZERO, &[cand(0)]), Some(0));
        }
    }
}
