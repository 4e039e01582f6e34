//! Coverage signal for the guided fuzzer: journal edges × oracle verdict.
//!
//! The heuristic scores in [`super::score`] rank candidates by *how bad*
//! a run looked; they say nothing about whether the run reached behavior
//! the campaign had already seen. This module defines the orthogonal
//! novelty axis: every run is reduced to the set of `(event-kind edge,
//! violation-class)` pairs it exhibited — the edges come from the
//! deterministic telemetry journal ([`lumina_sim::Telemetry::for_each_edge`]),
//! the verdict from the spec-conformance oracle — and each pair is hashed
//! into a bounded slot space. A campaign-wide [`CoverageMap`] remembers
//! which slots any candidate ever covered; a candidate covering a fresh
//! slot is *novel* regardless of its heuristic score, and the executor
//! keeps it, boosts its selection energy, and records it in a bounded
//! [`Corpus`] that persists as deterministic JSONL.
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

use crate::analyzers::ViolationClass;
use crate::config::TestConfig;
use crate::error::Error;
use crate::orchestrator::TestResults;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Coverage slots live in a `1 << MAP_BITS` space: bounded memory no
/// matter how long a campaign runs, at the cost of conflating pairs that
/// collide (the classic AFL trade).
pub const MAP_BITS: u32 = 16;

/// Tuning for the executor's coverage-guided mode.
#[derive(Debug, Clone)]
pub struct CoverageParams {
    /// Selection-energy bonus per newly covered slot, added to the
    /// heuristic score (and re-sanitized) before pool admission.
    pub novelty_weight: f64,
    /// Corpus bound; exceeding it evicts the entry that contributed the
    /// fewest new slots (oldest first among ties).
    pub corpus_cap: usize,
    /// Auto-shrink each finding into a minimal reproducer config.
    pub shrink: bool,
    /// Re-run budget per shrink attempt ([`super::shrink::ShrinkParams`]).
    pub shrink_budget: usize,
    /// Corpus reloaded from an earlier campaign: its configurations seed
    /// the pool and its slots pre-populate the map, so the growth summary
    /// counts only coverage this campaign actually added.
    pub seed_corpus: Corpus,
}

impl Default for CoverageParams {
    fn default() -> Self {
        CoverageParams {
            novelty_weight: 25.0,
            corpus_cap: 256,
            shrink: true,
            shrink_budget: 24,
            seed_corpus: Corpus::default(),
        }
    }
}

/// FNV-1a over the edge and verdict labels: a stable hash (unlike
/// `DefaultHasher`, which is free to change between toolchains), so a
/// persisted corpus re-loads into the same slots forever.
fn slot_of(prev: &str, kind: &str, verdict: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [prev, "\x1f", kind, "\x1f", verdict] {
        for b in part.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    (h ^ (h >> 32)) as u32 & ((1 << MAP_BITS) - 1)
}

/// The coverage signal of one finished run: every (edge, verdict) pair it
/// exhibited, as a deterministic set of slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Signal {
    slots: BTreeSet<u32>,
}

impl Signal {
    /// Slots this run covered, ascending.
    pub fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().copied()
    }

    /// Number of distinct slots (distinct pairs, modulo hash collisions).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the run produced no signal at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The distinct violation classes the oracle proved on this run, in first
/// appearance order. Empty for compliant (or traceless) runs.
pub fn violation_classes(res: &TestResults) -> Vec<ViolationClass> {
    let report = super::score::conformance_of(res);
    let mut out: Vec<ViolationClass> = Vec::new();
    for v in &report.violations {
        if !out.contains(&v.class) {
            out.push(v.class);
        }
    }
    out
}

/// The verdict labels a run's pairs carry: one per proven violation
/// class, or `"compliant"` when the oracle found nothing.
fn verdict_labels(res: &TestResults) -> Vec<&'static str> {
    let mut labels: Vec<&'static str> = violation_classes(res).iter().map(|c| c.label()).collect();
    labels.sort_unstable();
    if labels.is_empty() {
        labels.push("compliant");
    }
    labels
}

/// Reduce a finished run to its coverage signal. Pure function of the
/// results (journal + oracle verdict), both of which are bit-deterministic
/// for a given configuration.
pub fn signal_of(res: &TestResults) -> Signal {
    let verdicts = verdict_labels(res);
    let mut slots = BTreeSet::new();
    res.telemetry.for_each_edge(|_node, prev, kind| {
        for v in &verdicts {
            slots.insert(slot_of(prev, kind, v));
        }
    });
    // The bare verdict, so a run whose journal is empty (or whose edges
    // all collide with known ones) still registers a novel outcome.
    for v in &verdicts {
        slots.insert(slot_of("^", "$", v));
    }
    Signal { slots }
}

/// The un-hashed (edge, verdict) pairs of a run, deduplicated and sorted:
/// what [`signal_of`] sees before bounding. Tests and summaries use this
/// to name the behavior a campaign reached.
pub fn pairs_of(res: &TestResults) -> Vec<(String, &'static str)> {
    let verdicts = verdict_labels(res);
    let mut pairs = BTreeSet::new();
    res.telemetry.for_each_edge(|_node, prev, kind| {
        for v in &verdicts {
            pairs.insert((format!("{prev}>{kind}"), *v));
        }
    });
    for v in &verdicts {
        pairs.insert(("^>$".to_string(), *v));
    }
    pairs.into_iter().collect()
}

/// Campaign-wide coverage accounting: which slots any candidate ever
/// covered, and how often.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    hits: BTreeMap<u32, u64>,
}

impl CoverageMap {
    /// Distinct slots covered so far.
    pub fn distinct(&self) -> usize {
        self.hits.len()
    }

    /// Times the given slot was covered.
    pub fn hits(&self, slot: u32) -> u64 {
        self.hits.get(&slot).copied().unwrap_or(0)
    }

    /// Covered slots, ascending.
    pub fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.hits.keys().copied()
    }

    /// Mark slots as already covered (a reloaded corpus's contribution)
    /// without reporting them fresh: a resumed campaign's growth curve
    /// counts only what it adds itself.
    pub fn preload(&mut self, slots: impl IntoIterator<Item = u32>) {
        for slot in slots {
            let hits = self.hits.entry(slot).or_insert(0);
            *hits = hits.saturating_add(1);
        }
    }

    /// Fold one run's signal in; returns the slots this signal covered
    /// for the first time, ascending (empty = nothing novel).
    pub fn merge(&mut self, sig: &Signal) -> Vec<u32> {
        let mut fresh = Vec::new();
        for slot in &sig.slots {
            let hits = self.hits.entry(*slot).or_insert(0);
            if *hits == 0 {
                fresh.push(*slot);
            }
            *hits = hits.saturating_add(1);
        }
        fresh
    }
}

/// One corpus member: a configuration that covered slots nothing before
/// it had, with the selection energy it earned.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct CorpusEntry {
    /// Candidate index at discovery (evaluation order).
    pub candidate: u64,
    /// Post-novelty, sanitized score at discovery.
    pub score: f64,
    /// Slots this entry covered first, ascending.
    pub new_slots: Vec<u32>,
    /// The configuration itself.
    pub config: TestConfig,
}

/// Bounded, discovery-ordered set of novel configurations.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// Entries in discovery order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the corpus holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Admit an entry, then enforce `cap` by evicting the member that
    /// contributed the fewest new slots (oldest first among ties) — a
    /// deterministic rule, so same-seed campaigns keep identical corpora.
    pub fn admit(&mut self, entry: CorpusEntry, cap: usize) {
        self.entries.push(entry);
        while self.entries.len() > cap.max(1) {
            let evict = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(i, e)| (e.new_slots.len(), *i))
                .map(|(i, _)| i);
            match evict {
                Some(i) => {
                    self.entries.remove(i);
                }
                None => break,
            }
        }
    }

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
    /// malformed line is a hard error — a corpus file is machine-written,
    /// so damage means the wrong file, not a lenient-parse situation.
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

    #[test]
    fn slots_are_stable_and_bounded() {
        let a = slot_of("a", "b", "compliant");
        assert_eq!(a, slot_of("a", "b", "compliant"), "hash must be stable");
        assert!(a < (1 << MAP_BITS));
        // The separator matters: ("ab","c") must not equal ("a","bc").
        assert_ne!(slot_of("ab", "c", "v"), slot_of("a", "bc", "v"));
    }

    #[test]
    fn signal_is_deterministic_and_verdict_sensitive() {
        let cfg = tiny("");
        let a = signal_of(&run_test(&cfg).unwrap());
        let b = signal_of(&run_test(&cfg).unwrap());
        assert_eq!(a, b, "same config, same signal");
        assert!(!a.is_empty());

        // A quirked run carries a violation verdict: different pairs even
        // where the edge set overlaps.
        let mut quirked = cfg.clone();
        quirked.quirks = Some(crate::config::QuirksSection {
            ghost_retransmit_prob: 1.0,
            ..Default::default()
        });
        quirked.traffic.rdma_verb = "read".into();
        let res = run_test(&quirked).unwrap();
        assert!(
            violation_classes(&res).contains(&crate::analyzers::ViolationClass::SpuriousRetransmit)
        );
        let q = signal_of(&res);
        assert_ne!(a, q);
        let labels: Vec<&str> = pairs_of(&res).iter().map(|(_, v)| *v).collect();
        assert!(labels.contains(&"spurious-retransmit"), "{labels:?}");
    }

    #[test]
    fn map_merge_reports_only_fresh_slots() {
        let mut map = CoverageMap::default();
        let sig = Signal {
            slots: [3u32, 9, 17].into_iter().collect(),
        };
        assert_eq!(map.merge(&sig), vec![3, 9, 17]);
        assert_eq!(map.merge(&sig), Vec::<u32>::new());
        assert_eq!(map.distinct(), 3);
        assert_eq!(map.hits(9), 2);
    }

    #[test]
    fn corpus_evicts_smallest_contributor_first() {
        let entry = |candidate, slots: &[u32]| CorpusEntry {
            candidate,
            score: 1.0,
            new_slots: slots.to_vec(),
            config: tiny(""),
        };
        let mut c = Corpus::default();
        c.admit(entry(0, &[1, 2, 3]), 2);
        c.admit(entry(1, &[4]), 2);
        c.admit(entry(2, &[5, 6]), 2);
        let kept: Vec<u64> = c.entries().iter().map(|e| e.candidate).collect();
        assert_eq!(kept, vec![0, 2], "the one-slot entry goes first");
    }

    #[test]
    fn corpus_jsonl_round_trips_byte_identically() {
        let mut c = Corpus::default();
        c.admit(
            CorpusEntry {
                candidate: 7,
                score: 51.5,
                new_slots: vec![11, 42],
                config: tiny("  data-pkt-events:\n    - {qpn: 1, psn: 2, type: drop, iter: 1}\n"),
            },
            16,
        );
        let text = c.to_jsonl();
        let back = Corpus::from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.entries()[0].candidate, 7);
        assert_eq!(back.entries()[0].new_slots, vec![11, 42]);
        assert_eq!(back.to_jsonl(), text, "round trip is byte-identical");

        let err = Corpus::from_jsonl("{\"not\": \"a corpus\"}").unwrap_err();
        assert!(err.to_string().contains("corpus line 1"), "{err}");
    }
}
