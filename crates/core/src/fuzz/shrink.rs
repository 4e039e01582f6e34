//! Auto-shrinking of fuzzer findings into minimal reproducer configs.
//!
//! A campaign finding is only useful if a human can stare at it, and the
//! configs a genetic campaign evolves are full of mutation debris: event
//! lists where one entry matters, quirk sections where one knob fires,
//! traffic shapes far wider than the bug needs. The shrinker runs greedy
//! deletion passes — drop injected events, zero quirk knobs, trim
//! connections and messages — re-running the simulation after each step
//! and keeping a deletion only when the caller's predicate (typically
//! "the same [`ViolationClass`] is still proven") survives it. Passes and
//! re-runs are both bounded, every intermediate config is validated
//! before it runs, and a panicking run simply fails the step, so
//! shrinking can never panic or wedge a campaign.
//!
//! Determinism: the simulator is bit-deterministic per config and the
//! pass order is fixed, so the shrunk reproducer is a pure function of
//! (input config, predicate, bounds) — the coverage differential suite
//! holds shrinking to the same serial==parallel guarantee as the rest of
//! the executor.

// A panic here forfeits a verdict or a whole campaign.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::analyzers::ViolationClass;
use crate::campaign::run_caught;
use crate::config::TestConfig;
use crate::orchestrator::TestResults;
use lumina_rnic::Quirk;

/// Bounds for one shrink attempt.
#[derive(Debug, Clone)]
pub struct ShrinkParams {
    /// Simulation re-runs the attempt may spend (the verification run of
    /// the original config included).
    pub max_runs: usize,
    /// Greedy passes over the deletion dimensions; each pass stops early
    /// once nothing shrinks.
    pub max_passes: usize,
}

impl Default for ShrinkParams {
    fn default() -> Self {
        ShrinkParams {
            max_runs: 48,
            max_passes: 3,
        }
    }
}

/// What one shrink attempt achieved.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimal configuration found (the original, unchanged, when
    /// nothing could be removed or the original never reproduced).
    pub cfg: TestConfig,
    /// The original config did exhibit the target property when re-run.
    /// When false, `cfg` is the untouched original.
    pub reproduces: bool,
    /// Simulation runs spent.
    pub runs_used: usize,
    /// Injected events removed.
    pub events_dropped: usize,
    /// Quirk knobs zeroed.
    pub knobs_cleared: usize,
    /// Connections removed from the traffic shape.
    pub connections_trimmed: u32,
    /// Messages-per-QP removed from the traffic shape.
    pub msgs_trimmed: u32,
}

impl ShrinkOutcome {
    pub(crate) fn untouched(cfg: TestConfig) -> ShrinkOutcome {
        ShrinkOutcome {
            cfg,
            reproduces: false,
            runs_used: 0,
            events_dropped: 0,
            knobs_cleared: 0,
            connections_trimmed: 0,
            msgs_trimmed: 0,
        }
    }

    /// Total pieces removed, for summaries.
    pub fn removed(&self) -> usize {
        self.events_dropped
            + self.knobs_cleared
            + self.connections_trimmed as usize
            + self.msgs_trimmed as usize
    }
}

/// One budgeted verification run: false when the config is invalid, the
/// budget is spent, the run fails (panics included — `run_caught`
/// isolates them), or the property is gone.
fn still_reproduces(
    cfg: &TestConfig,
    keep: &dyn Fn(&TestConfig, &TestResults) -> bool,
    budget: &mut usize,
    runs_used: &mut usize,
) -> bool {
    if *budget == 0 || cfg.validate().is_err() {
        return false;
    }
    *budget -= 1;
    *runs_used += 1;
    match run_caught(cfg) {
        Ok(res) => keep(cfg, &res),
        Err(_) => false,
    }
}

/// Greedily shrink `cfg` while `keep(candidate, results)` stays true.
///
/// The result is always a *valid* configuration: every accepted deletion
/// passed `TestConfig::validate` and re-ran the simulation. When the
/// original config does not itself satisfy `keep` (or the budget is
/// already zero), the original comes back unchanged with
/// [`ShrinkOutcome::reproduces`] false.
pub fn shrink_config(
    cfg: &TestConfig,
    keep: &dyn Fn(&TestConfig, &TestResults) -> bool,
    params: &ShrinkParams,
) -> ShrinkOutcome {
    let mut out = ShrinkOutcome::untouched(cfg.clone());
    let mut budget = params.max_runs;

    // The original must reproduce, or there is nothing to preserve.
    if !still_reproduces(cfg, keep, &mut budget, &mut out.runs_used) {
        return out;
    }
    out.reproduces = true;

    let mut cur = cfg.clone();
    for _pass in 0..params.max_passes.max(1) {
        let mut progress = false;

        // 1. Drop injected events one at a time, last-to-first so the
        // remaining indices stay stable across accepted deletions.
        let mut i = cur.traffic.data_pkt_events.len();
        while i > 0 && budget > 0 {
            i -= 1;
            let mut cand = cur.clone();
            cand.traffic.data_pkt_events.remove(i);
            if still_reproduces(&cand, keep, &mut budget, &mut out.runs_used) {
                cur = cand;
                out.events_dropped += 1;
                progress = true;
            }
        }

        // 2. Zero quirk knobs one at a time.
        for quirk in Quirk::ALL {
            if budget == 0 {
                break;
            }
            let firing = cur.quirks.as_ref().is_some_and(|q| q.knobs[quirk] != 0.0);
            if !firing {
                continue;
            }
            let mut cand = cur.clone();
            if let Some(q) = cand.quirks.as_mut() {
                q.knobs[quirk] = 0.0;
            }
            if still_reproduces(&cand, keep, &mut budget, &mut out.runs_used) {
                cur = cand;
                out.knobs_cleared += 1;
                progress = true;
            }
        }

        // 3. Trim connections down to the highest QPN anything still
        // references (events target QPNs 1..=num_connections).
        let needed = cur
            .traffic
            .data_pkt_events
            .iter()
            .map(|e| e.qpn)
            .max()
            .unwrap_or(1)
            .max(1);
        if needed < cur.traffic.num_connections && budget > 0 {
            let mut cand = cur.clone();
            cand.traffic.num_connections = needed;
            cand.traffic.qp_traffic_class.truncate(needed as usize);
            if still_reproduces(&cand, keep, &mut budget, &mut out.runs_used) {
                out.connections_trimmed += cur.traffic.num_connections - needed;
                cur = cand;
                progress = true;
            }
        }

        // 4. Halve messages per QP toward 1, dropping events the shorter
        // flow can no longer carry.
        while cur.traffic.num_msgs_per_qp > 1 && budget > 0 {
            let mut cand = cur.clone();
            cand.traffic.num_msgs_per_qp = cur.traffic.num_msgs_per_qp / 2;
            let total = cand.traffic.pkts_per_qp().unwrap_or(u32::MAX).max(1);
            cand.traffic.data_pkt_events.retain(|e| e.psn <= total);
            if still_reproduces(&cand, keep, &mut budget, &mut out.runs_used) {
                out.msgs_trimmed += cur.traffic.num_msgs_per_qp - cand.traffic.num_msgs_per_qp;
                cur = cand;
                progress = true;
            } else {
                break;
            }
        }

        if !progress || budget == 0 {
            break;
        }
    }

    // An all-zero quirks section is behavior-identical to none (the quirk
    // matrix pins that byte-for-byte), so drop the noise without a re-run.
    if cur.quirks.as_ref().is_some_and(|q| q.is_noop()) {
        cur.quirks = None;
    }
    out.cfg = cur;
    out
}

/// [`shrink_config`] preserving one proven violation class: the shrunk
/// reproducer still makes the oracle flag `class` when re-run.
pub fn shrink_violation(
    cfg: &TestConfig,
    class: ViolationClass,
    params: &ShrinkParams,
) -> ShrinkOutcome {
    shrink_config(
        cfg,
        &move |_cand, res| super::coverage::violation_classes(res).contains(&class),
        params,
    )
}

/// One campaign finding with its minimal reproducer attached.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// Candidate index (evaluation order) of the discovering run.
    pub candidate: u64,
    /// The violation class the reproducer re-triggers; `None` for a
    /// heuristic anomaly, where the preserved property is "sanitized
    /// score still at or above the campaign's anomaly threshold".
    pub class: Option<ViolationClass>,
    /// The finding's description (scorer output or violation summary).
    pub desc: String,
    /// The shrink attempt, minimal config included.
    pub shrink: ShrinkOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EventSpec, QuirksSection};
    use lumina_rnic::QuirkKnobs;

    fn quirked_base() -> TestConfig {
        let mut cfg = TestConfig::from_yaml(
            r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 3
  rdma-verb: read
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 4096
"#,
        )
        .unwrap();
        cfg.quirks = Some(QuirksSection {
            knobs: QuirkKnobs::default()
                .with(Quirk::GhostRetransmit, 1.0)
                .with(Quirk::StaleMsn, 0.4),
            ..Default::default()
        });
        // Debris an evolved campaign config would carry.
        cfg.traffic.data_pkt_events.push(EventSpec {
            qpn: 1,
            psn: 2,
            r#type: "ecn".into(),
            iter: 1,
            every: 0,
            delay_us: 0,
            reorder_by: 0,
        });
        cfg
    }

    #[test]
    fn shrink_preserves_the_violation_and_removes_debris() {
        let cfg = quirked_base();
        let out = shrink_violation(
            &cfg,
            ViolationClass::SpuriousRetransmit,
            &ShrinkParams::default(),
        );
        assert!(out.reproduces);
        assert!(out.cfg.validate().is_ok());
        assert!(out.removed() > 0, "{out:?}");
        // The irrelevant knob is gone, the essential one survives.
        let q = out.cfg.quirks.as_ref().expect("quirks survive");
        assert_eq!(q.knobs[Quirk::StaleMsn], 0.0, "{q:?}");
        assert_eq!(q.knobs[Quirk::GhostRetransmit], 1.0, "{q:?}");
        // And the shrunk config still reproduces when re-run.
        let res = crate::orchestrator::run_test(&out.cfg).unwrap();
        assert!(super::super::coverage::violation_classes(&res)
            .contains(&ViolationClass::SpuriousRetransmit));
    }

    #[test]
    fn non_reproducing_target_returns_the_original_untouched() {
        let cfg = quirked_base();
        let out = shrink_violation(
            &cfg,
            ViolationClass::IcrcMiscompute, // never fires here
            &ShrinkParams::default(),
        );
        assert!(!out.reproduces);
        assert_eq!(out.runs_used, 1, "one verification run, then stop");
        assert_eq!(out.cfg.to_yaml(), cfg.to_yaml());
    }

    #[test]
    fn zero_budget_is_a_clean_no_op() {
        let cfg = quirked_base();
        let out = shrink_violation(
            &cfg,
            ViolationClass::SpuriousRetransmit,
            &ShrinkParams {
                max_runs: 0,
                max_passes: 1,
            },
        );
        assert!(!out.reproduces);
        assert_eq!(out.runs_used, 0);
    }
}
