//! Property tests on the RNIC building blocks: DCQCN rate bounds, ETS
//! proportional fairness, timeout-policy monotonicity.

use lumina_rnic::dcqcn::{DcqcnParams, ReactionPoint};
use lumina_rnic::ets::{EtsConfig, EtsScheduler, TcConfig, TxCandidate};
use lumina_rnic::profile::DeviceProfile;
use lumina_rnic::timeout::TimeoutPolicy;
use lumina_sim::{Bandwidth, SimTime};
use proptest::prelude::*;

proptest! {
    /// Whatever sequence of CNPs, timer ticks and byte-counter events
    /// arrives, the DCQCN rate stays within [min_rate, line_rate] and
    /// alpha within [0, 1].
    #[test]
    fn dcqcn_rate_always_bounded(ops in prop::collection::vec(0u8..4, 1..400)) {
        let line = Bandwidth::gbps(100);
        let params = DcqcnParams::default();
        let min = params.min_rate.bits_per_sec() as f64;
        let mut rp = ReactionPoint::new(line, params);
        for op in ops {
            match op {
                0 => rp.on_cnp(),
                1 => rp.on_alpha_timer(),
                2 => rp.on_rate_timer(),
                _ => rp.on_bytes_sent(64 * 1024),
            }
            prop_assert!(rp.rc >= min - 1.0, "rc {} under floor", rp.rc);
            prop_assert!(
                rp.rc <= line.bits_per_sec() as f64 + 1.0,
                "rc {} over line", rp.rc
            );
            prop_assert!((0.0..=1.0).contains(&rp.alpha), "alpha {}", rp.alpha);
            prop_assert!(rp.rt <= line.bits_per_sec() as f64 + 1.0);
        }
    }

    /// Two backlogged weighted classes share a work-conserving scheduler
    /// in proportion to their weights (within 10 %).
    #[test]
    fn ets_weighted_fairness(w0 in 1u32..8, w1 in 1u32..8) {
        let cfg = EtsConfig {
            tcs: vec![
                TcConfig { strict_priority: false, weight: w0 },
                TcConfig { strict_priority: false, weight: w1 },
            ],
            work_conserving: true,
        };
        let mut s = EtsScheduler::new(cfg, Bandwidth::gbps(100), 3000.0);
        let mut served = [0u64; 2];
        let mut now = SimTime::ZERO;
        let n = 2000;
        for _ in 0..n {
            let cands = [
                TxCandidate { tc: 0, eligible_at: SimTime::ZERO, size: 1100 },
                TxCandidate { tc: 1, eligible_at: SimTime::ZERO, size: 1100 },
            ];
            let i = s.pick(now, cands.iter().copied()).expect("work conserving, both ready");
            served[cands[i].tc] += 1;
            now += SimTime::from_nanos(88);
        }
        let expect0 = w0 as f64 / (w0 + w1) as f64;
        let got0 = served[0] as f64 / n as f64;
        prop_assert!(
            (got0 - expect0).abs() < 0.10,
            "weights {w0}:{w1} → share {got0:.3}, expected {expect0:.3}"
        );
    }

    /// A lone backlogged class under a NON-work-conserving scheduler never
    /// exceeds its guaranteed share (beyond one burst).
    #[test]
    fn ets_non_conserving_cap(weight_share in 1u32..4) {
        // weight_share out of 4 total.
        let cfg = EtsConfig {
            tcs: vec![
                TcConfig { strict_priority: false, weight: weight_share },
                TcConfig { strict_priority: false, weight: 4 - weight_share },
            ],
            work_conserving: false,
        };
        let mut s = EtsScheduler::new(cfg, Bandwidth::gbps(100), 3000.0);
        let mut served = 0u64;
        let mut now = SimTime::ZERO;
        let n = 4000u64;
        for _ in 0..n {
            let cands = [TxCandidate { tc: 0, eligible_at: SimTime::ZERO, size: 1100 }];
            if s.pick(now, cands.iter().copied()).is_some() {
                served += 1;
            }
            now += SimTime::from_nanos(88);
        }
        let frac = served as f64 / n as f64;
        let guarantee = weight_share as f64 / 4.0;
        prop_assert!(
            frac <= guarantee + 0.05,
            "share {weight_share}/4: served {frac:.3} > guarantee {guarantee:.3}"
        );
        // And it gets at least most of its guarantee.
        prop_assert!(frac >= guarantee * 0.85, "served {frac:.3} starved");
    }

    /// Adaptive timeout schedules are positive and eventually reach /
    /// exceed the spec value; spec mode is constant.
    #[test]
    fn timeout_policy_sane(code in 6u8..20, retry in 1u32..10, n in 0u32..20) {
        let spec = TimeoutPolicy { timeout_code: code, retry_cnt: retry, adaptive: None };
        prop_assert_eq!(spec.timeout_for(n), lumina_rnic::timeout::ib_timeout(code));
        prop_assert_eq!(spec.effective_retry_limit(), retry);

        let adaptive = TimeoutPolicy {
            timeout_code: code,
            retry_cnt: retry,
            adaptive: DeviceProfile::cx6_dx().adaptive_retrans,
        };
        let t = adaptive.timeout_for(n);
        prop_assert!(t > SimTime::ZERO);
        // Monotone beyond the dip at index 1.
        if n >= 1 {
            prop_assert!(adaptive.timeout_for(n + 1) >= adaptive.timeout_for(n));
        }
        prop_assert!(adaptive.effective_retry_limit() > retry);
    }

    /// Profile reaction-latency helpers are monotone in the in-flight
    /// count for every shipped profile.
    #[test]
    fn reaction_latency_monotone(a in 0u32..100, b in 0u32..100) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for p in DeviceProfile::all() {
            prop_assert!(p.nack_react_write(lo) <= p.nack_react_write(hi), "{}", p.name);
            prop_assert!(p.nack_react_read(lo) <= p.nack_react_read(hi), "{}", p.name);
        }
    }
}
