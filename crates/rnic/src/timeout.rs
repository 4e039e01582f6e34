//! Retransmission timeout computation.
//!
//! The IB specification derives the minimum retransmission timeout from a
//! 5-bit `timeout` field: `4.096 µs × 2^timeout`; `retry_cnt` bounds the
//! number of retries. NVIDIA's *adaptive retransmission* (§6.3 of the
//! paper) replaces both: timeouts follow an undocumented schedule that can
//! undershoot the configured minimum, and the device retries more times
//! than configured.

use crate::profile::{AdaptiveRetransModel, DeviceProfile};
use crate::qp::QpConfig;
use lumina_sim::SimTime;

/// Base unit of the IB timeout formula.
pub const IB_TIMEOUT_BASE_NS: u64 = 4_096;

/// `4.096 µs × 2^timeout` for a 5-bit timeout code.
///
/// `timeout = 14` gives 67.1 ms, the value the paper's experiments use
/// (`min-retransmit-timeout: 14` in Listing 2).
pub fn ib_timeout(code: u8) -> SimTime {
    assert!(code < 32, "IB timeout code is 5 bits");
    SimTime::from_nanos(IB_TIMEOUT_BASE_NS << code)
}

/// Resolves the timeout for the `n`-th consecutive retransmission timeout
/// (0-based) and the effective retry budget.
#[derive(Debug, Clone)]
pub struct TimeoutPolicy {
    /// Configured 5-bit timeout code.
    pub timeout_code: u8,
    /// Configured retry count.
    pub retry_cnt: u32,
    /// Adaptive model, if the device has one *and* the user enabled it.
    pub adaptive: Option<AdaptiveRetransModel>,
}

impl TimeoutPolicy {
    /// Policy for a QP on a given device: the profile's adaptive model
    /// applies only when the device has one *and* the QP opted in.
    pub fn for_profile(profile: &DeviceProfile, cfg: &QpConfig) -> TimeoutPolicy {
        let adaptive = profile.adaptive_retrans.as_ref();
        TimeoutPolicy {
            timeout_code: cfg.timeout_code,
            retry_cnt: cfg.retry_cnt,
            adaptive: adaptive.filter(|_| cfg.adaptive_retrans).cloned(),
        }
    }

    /// Timeout duration before the `n`-th consecutive timeout fires.
    pub fn timeout_for(&self, n: u32) -> SimTime {
        match &self.adaptive {
            None => {
                // Spec behavior: fixed minimum timeout, exponential backoff
                // is not mandated; real NICs use the configured value each
                // time, which is what the paper observes with adaptive
                // retransmission disabled ("all the retransmission
                // behaviors follow the IB specification").
                ib_timeout(self.timeout_code)
            }
            Some(model) => {
                let sched = &model.timeout_schedule;
                if sched.is_empty() {
                    return ib_timeout(self.timeout_code);
                }
                if (n as usize) < sched.len() {
                    sched[n as usize]
                } else {
                    // Beyond the table: keep doubling the last entry.
                    let last = sched[sched.len() - 1];
                    let extra = (n as usize - sched.len() + 1) as u32;
                    SimTime::from_nanos(last.as_nanos().saturating_mul(1u64 << extra.min(10)))
                }
            }
        }
    }

    /// Total retries allowed before the QP errors out.
    pub fn effective_retry_limit(&self) -> u32 {
        match &self.adaptive {
            None => self.retry_cnt,
            Some(model) => self.retry_cnt + model.extra_retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ib_formula_reference_points() {
        assert_eq!(ib_timeout(0), SimTime::from_nanos(4_096));
        assert_eq!(ib_timeout(1), SimTime::from_nanos(8_192));
        // timeout=14 → 4.096 µs × 2^14 = 67.108864 ms (paper: "0.0671 s").
        assert_eq!(ib_timeout(14), SimTime::from_nanos(4_096 << 14));
        assert!((ib_timeout(14).as_millis_f64() - 67.108864).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "5 bits")]
    fn timeout_code_must_be_5_bits() {
        ib_timeout(32);
    }

    #[test]
    fn spec_mode_uses_configured_timeout_every_time() {
        let p = TimeoutPolicy {
            timeout_code: 14,
            retry_cnt: 7,
            adaptive: None,
        };
        for n in 0..7 {
            assert_eq!(p.timeout_for(n), ib_timeout(14));
        }
        assert_eq!(p.effective_retry_limit(), 7);
    }

    #[test]
    fn adaptive_mode_follows_schedule_then_doubles() {
        let cx6 = DeviceProfile::cx6_dx();
        let p = TimeoutPolicy {
            timeout_code: 14,
            retry_cnt: 7,
            adaptive: cx6.adaptive_retrans.clone(),
        };
        // The first timeout undershoots the configured 67.1 ms minimum —
        // the §6.3 finding.
        assert!(p.timeout_for(0) < ib_timeout(14));
        assert_eq!(p.timeout_for(0), SimTime::from_micros(5_600));
        assert_eq!(p.timeout_for(1), SimTime::from_micros(4_100));
        assert_eq!(p.timeout_for(6), SimTime::from_micros(134_200));
        // Past the table the last value doubles.
        assert_eq!(p.timeout_for(7), SimTime::from_micros(268_400));
        assert_eq!(p.timeout_for(8), SimTime::from_micros(536_800));
        // Retry budget exceeds the configured 7 (paper: 8–13).
        assert_eq!(p.effective_retry_limit(), 13);
    }

    #[test]
    fn adaptive_budgets_span_paper_range() {
        let limits: Vec<u32> = [
            DeviceProfile::cx4_lx(),
            DeviceProfile::cx5(),
            DeviceProfile::cx6_dx(),
        ]
        .iter()
        .map(|prof| {
            TimeoutPolicy {
                timeout_code: 14,
                retry_cnt: 7,
                adaptive: prof.adaptive_retrans.clone(),
            }
            .effective_retry_limit()
        })
        .collect();
        for l in &limits {
            assert!((8..=13).contains(l), "retry limit {l} outside 8–13");
        }
    }
}
