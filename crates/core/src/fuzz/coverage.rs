//! Coverage signal for the guided fuzzer: the spec decision points a run's
//! RC replay took.
//!
//! The heuristic scores in [`super::score`] rank candidates by *how bad*
//! a run looked; they say nothing about whether the run reached behavior
//! the campaign had already seen. This module defines the orthogonal
//! novelty axis: every run is reduced to the [`Decisions`] its one RC
//! replay recorded — which `(rule, outcome)` points of the closed table in
//! [`crate::analyzers::conformance`] it exercised, violations and
//! abstentions included. The campaign's map is the union of those sets; a
//! candidate that adds a point is *novel* regardless of its heuristic
//! score, and the executor keeps it, boosts its selection energy, and
//! records it in a [`Corpus`] that persists as deterministic JSONL. Every
//! entry owns a point no earlier entry had, so a campaign adds at most
//! `Decision::ALL.len()` entries. The event log plays no part: adding a
//! journal line cannot change what a campaign explores.
//!
//! Everything here is a pure function of a finished run's results, so the
//! parallel executor can evaluate candidates on any number of workers and
//! fold signals into the map on the campaign thread in slot order — the
//! serial==parallel bit-identity guarantee is untouched.

// A panic here forfeits a verdict or a whole campaign.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::analyzers::{Decision, Decisions, ViolationClass};
use crate::config::TestConfig;
use crate::error::Error;
use crate::orchestrator::TestResults;
use serde::{Deserialize, Serialize, Value};

/// Tuning for the executor's coverage-guided mode.
#[derive(Debug, Clone)]
pub struct CoverageParams {
    /// Auto-shrink each finding into a minimal reproducer config.
    pub shrink: bool,
    /// Re-run budget per shrink attempt ([`super::shrink::ShrinkParams`]).
    pub shrink_budget: usize,
    /// Corpus reloaded from an earlier campaign: its configurations seed
    /// the pool and its decision points pre-populate the map, so the
    /// growth summary counts only coverage this campaign actually added.
    pub seed_corpus: Corpus,
}

impl Default for CoverageParams {
    fn default() -> Self {
        CoverageParams {
            shrink: true,
            shrink_budget: 24,
            seed_corpus: Corpus::default(),
        }
    }
}

/// The distinct violation classes the oracle proved on this run: the
/// proving outcomes among its decisions, in table order. Empty for
/// compliant (or traceless) runs.
pub fn violation_classes(res: &TestResults) -> Vec<ViolationClass> {
    signal_of(res).iter().filter_map(Decision::proves).collect()
}

/// Reduce a finished run to its coverage signal: the decision points its
/// RC replay took — the run's own replay when stage 5 graded it (a
/// quirk-injected run), one replay now otherwise. A traceless run covers
/// nothing.
pub fn signal_of(res: &TestResults) -> Decisions {
    let seen = match &res.conformance {
        Some(_) => res.replayed.as_ref().map(|(_, seen)| *seen),
        None => res.replay().map(|(_, (_, seen))| seen),
    };
    seen.unwrap_or_default()
}

/// One corpus member: a configuration that covered decision points nothing
/// before it had, with the selection energy it earned.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct CorpusEntry {
    /// Candidate index at discovery (evaluation order).
    pub candidate: u64,
    /// Post-novelty, sanitized score at discovery.
    pub score: f64,
    /// Decision points this entry covered first, as labels in table order.
    pub new_slots: Decisions,
    /// The configuration itself.
    pub config: TestConfig,
}

impl Serialize for Decisions {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(|d| Value::from(d.label())).collect())
    }
}

impl Deserialize for Decisions {
    fn deserialize(v: &Value) -> Result<Decisions, serde::Error> {
        let labels = v
            .as_array()
            .ok_or_else(|| serde::Error::custom(format!("expected decision labels, got {v}")))?;
        let mut set = Decisions::default();
        for label in labels {
            let known = label
                .as_str()
                .and_then(|l| Decision::ALL.iter().copied().find(|d| d.label() == l));
            set |= known
                .ok_or_else(|| serde::Error::custom(format!("unknown decision point {label}")))?;
        }
        Ok(set)
    }
}

/// Discovery-ordered set of novel configurations.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// The entries, in discovery order.
    pub entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// Render as deterministic JSON Lines, one entry per line in
    /// discovery order. Entries that fail to serialize are skipped (the
    /// config round-trips serde by construction, so this is theoretical).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            if let Ok(line) = serde_json::to_string(entry) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Parse a corpus back from [`Corpus::to_jsonl`] output. Any
    /// malformed line — an unknown decision label, or a numeric slot of a
    /// corpus written before decision coverage — is a hard error naming the
    /// line: a corpus file is machine-written, so damage means the wrong
    /// file, not a lenient-parse situation.
    pub fn from_jsonl(text: &str) -> Result<Corpus, Error> {
        let mut entries = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let entry: CorpusEntry = serde_json::from_str(line)
                .map_err(|e| Error::config(format!("corpus line {}: {e}", lineno + 1)))?;
            entries.push(entry);
        }
        Ok(Corpus { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::run_test;
    use lumina_rnic::{Quirk, QuirkKnobs};

    fn tiny(yaml_tail: &str) -> TestConfig {
        TestConfig::from_yaml(&format!(
            r#"
requester: {{ nic-type: cx5 }}
responder: {{ nic-type: cx5 }}
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 4096
{yaml_tail}"#
        ))
        .unwrap()
    }

    fn set(ds: &[Decision]) -> Decisions {
        let mut set = Decisions::default();
        ds.iter().for_each(|d| set |= *d);
        set
    }

    #[test]
    fn slots_are_stable_and_bounded() {
        // The table is closed: distinct labels, each a `rule.outcome`, at
        // most one bit each of a `u64`; a label names its point for good.
        assert!(Decision::ALL.len() <= 64);
        let labels: std::collections::BTreeSet<&str> =
            Decision::ALL.iter().map(|d| d.label()).collect();
        assert_eq!(labels.len(), Decision::ALL.len(), "labels are unique");
        for d in Decision::ALL {
            assert!(d.label().contains('.'), "{}", d.label());
            assert_eq!(set(&[*d]).iter().collect::<Vec<_>>(), [*d]);
        }
        assert_eq!(set(Decision::ALL).len(), Decision::ALL.len());
        // Each violation class is the outcome of exactly one point.
        let proving: Vec<ViolationClass> =
            Decision::ALL.iter().filter_map(|d| d.proves()).collect();
        assert_eq!(proving.len(), 9);
        for c in &proving {
            assert_eq!(proving.iter().filter(|p| *p == c).count(), 1, "{c:?}");
        }
    }

    #[test]
    fn signal_is_deterministic_and_verdict_sensitive() {
        let cfg = tiny("");
        let res = run_test(&cfg).unwrap();
        let a = signal_of(&res);
        assert_eq!(
            a,
            signal_of(&run_test(&cfg).unwrap()),
            "same config, same signal"
        );
        assert!(a.contains(Decision::RecvInOrder) && violation_classes(&res).is_empty());

        // A quirked run carries a violation verdict, and the decision that
        // proves it.
        let mut quirked = cfg.clone();
        quirked.quirks = Some(crate::config::QuirksSection {
            knobs: QuirkKnobs::default().with(Quirk::GhostRetransmit, 1.0),
            ..Default::default()
        });
        quirked.traffic.rdma_verb = "read".into();
        let res = run_test(&quirked).unwrap();
        let q = signal_of(&res);
        let classes = violation_classes(&res);
        assert!(classes.contains(&ViolationClass::SpuriousRetransmit));
        // The proving outcomes are the verdict's classes.
        let verdict = res.conformance.as_ref().unwrap();
        assert!(verdict
            .violations
            .iter()
            .all(|v| classes.contains(&v.class)));
        assert_eq!(classes.len(), verdict.class_counts().len());
        assert!(
            q.contains(Decision::RoundUnjustified),
            "{:?}",
            q.iter().collect::<Vec<_>>()
        );
        assert!(!a.contains(Decision::RoundUnjustified));

        // A traceless run covers nothing.
        let mut blind = cfg.clone();
        blind.network.switch_mode = crate::config::SwitchMode::LuminaNm;
        assert_eq!(signal_of(&run_test(&blind).unwrap()), Default::default());
    }

    #[test]
    fn map_merge_reports_only_fresh_slots() {
        let seen = set(&[Decision::AckDue, Decision::RecvGap, Decision::CnpSpurious]);
        let mut map = Decisions::default();
        assert_eq!(seen.without(map), seen);
        map |= seen;
        assert!(seen.without(map).is_empty());
        let more = set(&[Decision::RecvGap, Decision::RecvLost]);
        assert_eq!(
            more.without(map).iter().collect::<Vec<_>>(),
            [Decision::RecvLost]
        );
        map |= more;
        assert_eq!(map.len(), 4);
    }

    #[test]
    fn corpus_jsonl_round_trips_byte_identically() {
        let mut c = Corpus::default();
        c.entries.push(CorpusEntry {
            candidate: 7,
            score: 51.5,
            new_slots: set(&[Decision::RoundByNack, Decision::AckCoalesced]),
            config: tiny("  data-pkt-events:\n    - {qpn: 1, psn: 2, type: drop, iter: 1}\n"),
        });
        let text = c.to_jsonl();
        assert!(
            text.contains("\"new-slots\":[\"round.by-nack\",\"ack.coalesced\"]"),
            "{text}"
        );
        let back = Corpus::from_jsonl(&text).unwrap();
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0].candidate, 7);
        assert_eq!(back.entries[0].new_slots, c.entries[0].new_slots);
        assert_eq!(back.to_jsonl(), text, "round trip is byte-identical");

        let err = Corpus::from_jsonl("{\"not\": \"a corpus\"}").unwrap_err();
        assert!(err.to_string().contains("corpus line 1"), "{err}");
    }

    #[test]
    fn a_corpus_of_hashed_slots_or_unknown_labels_is_a_config_error() {
        let line = c_line(&tiny(""));
        // A corpus written before decision coverage: numeric slots.
        let old = line.replace("[\"recv.gap\"]", "[10,306,539,577]");
        let unknown = line.replace("recv.gap", "recv.teleported");
        for bad in [old, unknown] {
            let text = format!("{line}\n{bad}\n");
            let err = Corpus::from_jsonl(&text).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(err.to_string().contains("corpus line 2"), "{err}");
        }
    }

    /// One corpus line covering `recv.gap` first.
    fn c_line(cfg: &TestConfig) -> String {
        let mut c = Corpus::default();
        c.entries.push(CorpusEntry {
            candidate: 3,
            score: 25.0,
            new_slots: set(&[Decision::RecvGap]),
            config: cfg.clone(),
        });
        c.to_jsonl().trim_end().to_string()
    }
}
