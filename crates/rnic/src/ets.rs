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

    /// Pick the index (in `candidates`' order) of the packet to transmit
    /// at `now`, or `None` if nothing may go yet. On success the winning
    /// TC's tokens are charged.
    ///
    /// Selection order:
    /// 1. strict-priority TCs, lowest TC id first;
    /// 2. weighted TCs holding enough tokens, most-underserved
    ///    (most tokens relative to burst) first;
    /// 3. if work conserving: any remaining eligible candidate.
    ///
    /// Each step reads `candidates` only as far as its answer: step 1 to
    /// the first ready candidate of a strict class, step 2 to the first
    /// candidate whose class holds the largest surplus of any weighted
    /// class (no later one can beat it), step 3 to the first ready one.
    pub fn pick<I>(&mut self, now: SimTime, candidates: I) -> Option<usize>
    where
        I: Iterator<Item = TxCandidate> + Clone,
    {
        self.refill(now);
        let ready = |c: &TxCandidate| c.eligible_at <= now;
        let tcs = &self.cfg.tcs;

        // 1. Strict classes in priority order.
        for (tc_id, tc) in tcs.iter().enumerate() {
            if !tc.strict_priority {
                continue;
            }
            if let Some(i) = candidates.clone().position(|c| c.tc == tc_id && ready(&c)) {
                return Some(i);
            }
        }

        // 2. Weighted classes with tokens: serve the class with the
        // largest token surplus (approximates DWRR fairness). The best is
        // only replaced by a strictly larger surplus, so a candidate of
        // the class with the largest surplus ends the scan.
        let surplus_of = |s: &TcState| s.tokens / s.burst_cap.max(1.0);
        let ceiling = tcs
            .iter()
            .zip(&self.states)
            .filter(|(tc, _)| !tc.strict_priority)
            .map(|(_, s)| surplus_of(s))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut best: Option<(usize, TxCandidate, f64)> = None;
        for (i, c) in candidates.clone().enumerate() {
            if !ready(&c) || tcs[c.tc].strict_priority {
                continue;
            }
            let s = &self.states[c.tc];
            if s.tokens >= c.size as f64 {
                let surplus = surplus_of(s);
                if best.is_none_or(|(_, _, b)| surplus > b) {
                    best = Some((i, c, surplus));
                    if surplus == ceiling {
                        break;
                    }
                }
            }
        }
        if let Some((i, c, _)) = best {
            self.states[c.tc].tokens -= c.size as f64;
            return Some(i);
        }

        // 3. Work conservation: borrow idle bandwidth. A non-work-conserving
        // scheduler (the CX6 Dx bug) stops here.
        if self.cfg.work_conserving {
            if let Some((i, c)) = candidates
                .enumerate()
                .find(|(_, c)| ready(c) && !tcs[c.tc].strict_priority)
            {
                // Borrowing drives the class's bucket negative so its own
                // guarantee is honored later, floored at one burst so a
                // long borrow cannot starve the class indefinitely.
                let s = &mut self.states[c.tc];
                s.tokens = (s.tokens - c.size as f64).max(-s.burst_cap);
                return Some(i);
            }
        }
        None
    }

    /// Earliest instant, `now` or later, at which `pick` could succeed for
    /// the given candidates (ignoring strict classes, which are always
    /// immediate when ready). Returns `None` if no candidate can ever
    /// become eligible (e.g. non-work-conserving with no tokens accruing).
    /// The first candidate that can go at `now` ends the scan.
    pub fn next_opportunity(
        &self,
        now: SimTime,
        candidates: impl Iterator<Item = TxCandidate>,
    ) -> Option<SimTime> {
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
                if t == now {
                    break;
                }
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
        assert_eq!(s.pick(SimTime::ZERO, cands.iter().copied()), Some(1)); // strict TC 0
    }

    #[test]
    fn weighted_classes_alternate_roughly() {
        let mut s = sched(true);
        let mut served = [0u32; 2];
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let cands = [cand(0), cand(1)];
            let i = s.pick(now, cands.iter().copied()).unwrap();
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
            if s.pick(now, cands.iter().copied()).is_some() {
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
            if s.pick(now, cands.iter().copied()).is_some() {
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
            if s.pick(now, cands.iter().copied()).is_none() {
                break;
            }
        }
        let t = s
            .next_opportunity(now, [cand(0)].into_iter())
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
        assert_eq!(s.next_opportunity(SimTime::ZERO, [c].into_iter()), Some(later));
    }

    #[test]
    fn pacing_respected() {
        let mut s = sched(true);
        let c = TxCandidate {
            tc: 0,
            eligible_at: SimTime::from_micros(5),
            size: 1100,
        };
        assert_eq!(s.pick(SimTime::ZERO, [c].into_iter()), None);
        assert_eq!(s.pick(SimTime::from_micros(5), [c].into_iter()), Some(0));
    }

    #[test]
    fn single_queue_always_serves() {
        let mut s = EtsScheduler::new(EtsConfig::single_queue(), Bandwidth::gbps(100), 3000.0);
        for _ in 0..100 {
            assert_eq!(s.pick(SimTime::ZERO, [cand(0)].into_iter()), Some(0));
        }
    }

    /// The scheduler as it was first written: every step scans the whole
    /// slice. The reference the early-exit scans are held to.
    impl EtsScheduler {
        fn pick_full_scan(&mut self, now: SimTime, candidates: &[TxCandidate]) -> Option<usize> {
            self.refill(now);
            let ready = |c: &TxCandidate| c.eligible_at <= now;
            for (tc_id, tc) in self.cfg.tcs.iter().enumerate() {
                if !tc.strict_priority {
                    continue;
                }
                if let Some(i) = candidates.iter().position(|c| c.tc == tc_id && ready(c)) {
                    return Some(i);
                }
            }
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
            if self.cfg.work_conserving {
                if let Some(i) = candidates
                    .iter()
                    .position(|c| ready(c) && !self.cfg.tcs[c.tc].strict_priority)
                {
                    let s = &mut self.states[candidates[i].tc];
                    s.tokens = (s.tokens - candidates[i].size as f64).max(-s.burst_cap);
                    return Some(i);
                }
            }
            None
        }

        fn next_opportunity_full_scan(
            &self,
            now: SimTime,
            candidates: &[TxCandidate],
        ) -> Option<SimTime> {
            let mut best: Option<SimTime> = None;
            for c in candidates {
                let pacing = c.eligible_at.max(now);
                let t = if self.cfg.tcs[c.tc].strict_priority || self.cfg.work_conserving {
                    pacing
                } else {
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

        /// Every bucket, bit for bit.
        fn token_state(&self) -> Vec<(u64, SimTime)> {
            self.states.iter().map(|s| (s.tokens.to_bits(), s.last_refill)).collect()
        }
    }

    /// A random candidate list for a scheduler of `n_tcs` classes: paced
    /// and ready candidates, sizes from a sliver to past any burst, and
    /// now and then one QP offering a request too big for its class's
    /// tokens right before a read response that fits.
    fn random_candidates(
        rng: &mut lumina_sim::SimRng,
        n_tcs: usize,
        now: SimTime,
    ) -> Vec<TxCandidate> {
        let len = [0, 1, 2, 3, 8, 40][rng.index(6)];
        let mut out = Vec::with_capacity(len + 2);
        while out.len() < len {
            let tc = rng.index(n_tcs);
            let eligible_at = if rng.chance(0.3) {
                now + SimTime::from_nanos(1 + rng.below(2_000))
            } else {
                SimTime::from_nanos(now.as_nanos().saturating_sub(rng.below(500)))
            };
            if rng.chance(0.15) {
                out.push(TxCandidate { tc, eligible_at, size: 5_000 + rng.below(4_000) as usize });
                out.push(TxCandidate { tc, eligible_at, size: 64 + rng.below(200) as usize });
            } else {
                let size = [64, 1_100, 2_900, 4_000, 9_000][rng.index(5)] + rng.below(64) as usize;
                out.push(TxCandidate { tc, eligible_at, size });
            }
        }
        out
    }

    /// Early exit changes how far `pick` and `next_opportunity` read, never
    /// what they answer: over random classes (strict and weighted, equal
    /// weights so surpluses tie, weight 0, work conserving or not) and
    /// random lists, the same index, the same buckets bit for bit, and the
    /// same opportunity as the full scans.
    #[test]
    fn early_exit_equals_the_full_scan() {
        let mut rng = lumina_sim::SimRng::seed_from_u64(7);
        let (mut picks, mut served, mut ties) = (0, 0, 0);
        for case in 0..400 {
            let n_tcs = 1 + rng.index(4);
            let equal = rng.chance(0.4);
            let tcs = (0..n_tcs)
                .map(|_| TcConfig {
                    strict_priority: rng.chance(0.2),
                    weight: if equal { 1 } else { rng.below(4) as u32 },
                })
                .collect();
            let cfg = EtsConfig { tcs, work_conserving: rng.chance(0.5) };
            let burst = [1_000.0, 3_000.0, 4_096.0][rng.index(3)];
            let mut fast = EtsScheduler::new(cfg, Bandwidth::gbps(100), burst);
            let mut full = fast.clone();
            let mut now = SimTime::ZERO;
            for step in 0..60 {
                now += SimTime::from_nanos(rng.below(3) * rng.below(400));
                let cands = random_candidates(&mut rng, n_tcs, now);
                let what = format!("case {case}, step {step}, {:?}, {cands:?}", fast.cfg);
                let surpluses: Vec<f64> =
                    fast.states.iter().map(|s| s.tokens / s.burst_cap.max(1.0)).collect();
                ties += usize::from(surpluses.windows(2).any(|w| w[0] == w[1]));
                assert_eq!(
                    fast.next_opportunity(now, cands.iter().copied()),
                    full.next_opportunity_full_scan(now, &cands),
                    "{what}"
                );
                let got = fast.pick(now, cands.iter().copied());
                assert_eq!(got, full.pick_full_scan(now, &cands), "{what}");
                assert_eq!(fast.token_state(), full.token_state(), "{what}");
                picks += 1;
                served += usize::from(got.is_some());
                assert_eq!(
                    fast.next_opportunity(now, cands.iter().copied()),
                    full.next_opportunity_full_scan(now, &cands),
                    "{what}, after the pick"
                );
            }
        }
        // Both answers were exercised, and surpluses tied across classes.
        assert!(served > picks / 4 && served < picks * 3 / 4, "{served} of {picks} served");
        assert!(ties > picks / 4, "{ties} of {picks} with tied surpluses");
    }

    /// A candidate sequence that counts how many candidates were read,
    /// across every clone of it.
    #[derive(Clone)]
    struct Counted<'a> {
        cands: std::slice::Iter<'a, TxCandidate>,
        reads: &'a std::cell::Cell<usize>,
    }

    impl Iterator for Counted<'_> {
        type Item = TxCandidate;
        fn next(&mut self) -> Option<TxCandidate> {
            let c = self.cands.next().copied();
            self.reads.set(self.reads.get() + usize::from(c.is_some()));
            c
        }
    }

    /// The many-QP case the device meets on every transmit tick: 256
    /// candidates of one class, all eligible. Each answer is the first
    /// candidate, and reading it is all either scan does.
    #[test]
    fn eligible_candidates_are_read_once() {
        let cands = vec![cand(0); 256];
        let reads = std::cell::Cell::new(0);
        let counted = || Counted { cands: cands.iter(), reads: &reads };
        for work_conserving in [true, false] {
            let mut s = EtsScheduler::new(
                EtsConfig::equal_weights(1, work_conserving),
                Bandwidth::gbps(100),
                3000.0,
            );
            reads.set(0);
            assert_eq!(s.next_opportunity(SimTime::ZERO, counted()), Some(SimTime::ZERO));
            assert_eq!(reads.get(), 1, "next_opportunity, work conserving {work_conserving}");
            reads.set(0);
            assert_eq!(s.pick(SimTime::ZERO, counted()), Some(0));
            assert_eq!(reads.get(), 1, "pick, work conserving {work_conserving}");
        }
    }
}
