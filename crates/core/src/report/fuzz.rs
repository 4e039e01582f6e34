//! `lumina-cli fuzz`: the JSON Lines a campaign prints — anomalies as the
//! merge finds them, then rejections, then (coverage mode) the minimal
//! reproducers — its stderr summary, and the corpus directory a later
//! campaign reloads.

use crate::error::Error;
use crate::fuzz::coverage::Corpus;
use crate::fuzz::{FuzzOutcome, FuzzParams, Scored};
use std::collections::BTreeMap;
use std::path::Path;

/// The novelty corpus inside a `--corpus-dir`.
const CORPUS_FILE: &str = "corpus.jsonl";

/// One stdout line per anomaly, for [`fuzz_observed`]'s observer. (Its
/// observer returns nothing, so the line is built infallibly.)
///
/// [`fuzz_observed`]: crate::fuzz::fuzz_observed
pub fn anomaly_line(candidate: u64, scored: &Scored, desc: &str) -> String {
    serde_json::json!({
        "candidate": candidate,
        "score": (scored.score),
        "desc": desc,
        "config": (scored.cfg),
    })
    .to_string()
}

/// The corpus an earlier campaign [`persist`](FuzzReport::persist)ed into
/// `dir`, with the stderr line that says so; `None` when `dir` holds none.
pub fn load_corpus(dir: &Path) -> Result<Option<(Corpus, String)>, Error> {
    let path = dir.join(CORPUS_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(Error::io(path.display()))?;
    let corpus = Corpus::from_jsonl(&text)?;
    let receipt = format!(
        "fuzz: reloaded {} corpus entries from {}\n",
        corpus.len(),
        path.display()
    );
    Ok(Some((corpus, receipt)))
}

/// Everything `lumina-cli fuzz` prints once the campaign is over.
pub struct FuzzReport<'a> {
    outcome: &'a FuzzOutcome,
    params: &'a FuzzParams,
}

impl<'a> FuzzReport<'a> {
    /// Report on `outcome`, the campaign `params` ran.
    pub fn of(outcome: &'a FuzzOutcome, params: &'a FuzzParams) -> FuzzReport<'a> {
        FuzzReport { outcome, params }
    }

    /// The stderr line that opens a campaign.
    pub fn render_header(params: &FuzzParams) -> String {
        format!(
            "fuzz: {} candidates ({} generations x batch {}), {} workers, seed {:#x}\n",
            params.iterations,
            params.iterations / params.batch_size.max(1),
            params.batch_size,
            params.workers,
            params.seed
        )
    }

    /// One line per rejected candidate, then one per finding's minimal
    /// reproducer — after the anomaly stream, under keys of their own, so
    /// a consumer of the anomaly lines alone is untouched.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.outcome.rejections {
            let row = serde_json::json!({
                "rejection": (r.candidate),
                "reason": (r.reason.label()),
                "detail": (r.detail),
            });
            out.push_str(&format!("{row}\n"));
        }
        for r in self.outcome.coverage.iter().flat_map(|c| &c.reproducers) {
            let row = serde_json::json!({
                "reproducer": (r.candidate),
                "class": (r.class.map(|c| c.label())),
                "desc": (r.desc),
                "reproduces": (r.shrink.reproduces),
                "removed": (r.shrink.removed()),
                "shrink-runs": (r.shrink.runs_used),
                "config": (r.shrink.cfg),
            });
            out.push_str(&format!("{row}\n"));
        }
        out
    }

    /// Write the corpus and one `repro-<candidate>-<class>.yaml` per
    /// reproducer into `dir` ([`load_corpus`] is the inverse), returning
    /// the stderr line that says so. Nothing to write outside coverage mode.
    pub fn persist(&self, dir: &Path) -> Result<String, Error> {
        let Some(cov) = &self.outcome.coverage else {
            return Ok(String::new());
        };
        let write = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(Error::io(path.display()))
        };
        std::fs::create_dir_all(dir).map_err(Error::io(dir.display()))?;
        write(CORPUS_FILE, &cov.corpus.to_jsonl())?;
        for r in &cov.reproducers {
            let label = r.class.map_or("anomaly", |c| c.label());
            let name = format!("repro-{}-{label}.yaml", r.candidate);
            write(&name, &r.shrink.cfg.to_yaml())?;
        }
        Ok(format!(
            "fuzz: persisted {} corpus entries, {} reproducers to {}\n",
            cov.corpus.len(),
            cov.reproducers.len(),
            dir.display()
        ))
    }

    /// The stderr summary: coverage growth, counts, the rejection
    /// breakdown, the best score and the per-worker throughput profile.
    pub fn render_summary(&self) -> String {
        let out = self.outcome;
        let mut s = String::new();
        if let Some(cov) = &out.coverage {
            let growth = match (cov.growth.first(), cov.growth.last()) {
                (Some((_, first)), Some((at, last))) => format!(
                    "{} novel candidates, {first}->{last} by candidate {at}",
                    cov.growth.len()
                ),
                _ => "no growth this campaign".to_string(),
            };
            s.push_str(&format!(
                "fuzz: coverage {} distinct slots ({growth}), corpus {} entries, {} reproducers\n",
                cov.map.distinct(),
                cov.corpus.len(),
                cov.reproducers.len()
            ));
        }
        s.push_str(&format!(
            "fuzz: {} scored, {} rejected, {} anomalies >= {}\n",
            out.history.len(),
            out.rejected,
            out.anomalies.len(),
            self.params.anomaly_threshold
        ));
        if !out.rejections.is_empty() {
            let mut by_reason: BTreeMap<&str, u64> = BTreeMap::new();
            for r in &out.rejections {
                *by_reason.entry(r.reason.label()).or_default() += 1;
            }
            let breakdown: Vec<String> = by_reason
                .iter()
                .map(|(reason, n)| format!("{n} {reason}"))
                .collect();
            s.push_str(&format!("fuzz: rejections: {}\n", breakdown.join(", ")));
        }
        if let Some(best) = &out.best {
            s.push_str(&format!("fuzz: best score {:.3}\n", best.score));
        }
        let profile = out.telemetry.with_profile(|p| p.to_json());
        let mut throughput = serde_json::Map::new();
        for key in ["workers", "campaign"] {
            if let Some(v) = profile.get(key) {
                throughput.insert(key, v.clone());
            }
        }
        s.push_str(&format!(
            "fuzz: profile {}\n",
            serde_json::Value::Object(throughput)
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestConfig;
    use crate::fuzz::coverage::CoverageParams;
    use crate::fuzz::mutate::EventMutator;
    use crate::fuzz::{fuzz_observed, score};
    use serde_json::Value;

    /// A four-candidate coverage campaign in which every scored candidate
    /// is an anomaly (threshold 0); returns its streamed anomaly lines too.
    fn tiny_campaign() -> (FuzzOutcome, FuzzParams, Vec<String>) {
        let base = TestConfig::from_yaml(
            r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 4096
  data-pkt-events:
    - {qpn: 1, psn: 2, type: drop, iter: 1}
"#,
        )
        .unwrap();
        let params = FuzzParams {
            pool_size: 2,
            iterations: 4,
            anomaly_threshold: 0.0,
            seed: 7,
            batch_size: 2,
            workers: 1,
            coverage: Some(CoverageParams {
                shrink: false,
                ..Default::default()
            }),
            ..FuzzParams::default()
        };
        let mut streamed = Vec::new();
        let outcome = fuzz_observed(
            &base,
            &mut EventMutator::default(),
            score::default_score,
            &params,
            &mut |candidate, scored, desc| streamed.push(anomaly_line(candidate, scored, desc)),
        );
        (outcome, params, streamed)
    }

    fn keys(row: &str) -> Vec<String> {
        let row: Value = serde_json::from_str(row).unwrap();
        row.as_object().unwrap().keys().cloned().collect()
    }

    #[test]
    fn jsonl_rows_keep_their_keys_and_order() {
        let (outcome, params, streamed) = tiny_campaign();
        assert_eq!(streamed.len(), outcome.anomalies.len());
        assert!(!streamed.is_empty());
        for line in &streamed {
            assert_eq!(keys(line), ["candidate", "score", "desc", "config"]);
        }
        let cov = outcome.coverage.as_ref().unwrap();
        assert!(!cov.reproducers.is_empty());
        let text = FuzzReport::of(&outcome, &params).to_jsonl();
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), outcome.rejections.len() + cov.reproducers.len());
        let (rejections, reproducers) = rows.split_at(outcome.rejections.len());
        for row in rejections {
            assert_eq!(keys(row), ["rejection", "reason", "detail"]);
        }
        let want = [
            "reproducer",
            "class",
            "desc",
            "reproduces",
            "removed",
            "shrink-runs",
            "config",
        ];
        for (row, r) in reproducers.iter().zip(&cov.reproducers) {
            assert_eq!(keys(row), want);
            let row: Value = serde_json::from_str(row).unwrap();
            assert_eq!(row["reproducer"], r.candidate);
            // An anomaly reproducer has no violation class: JSON null.
            assert_eq!(row["class"].is_null(), r.class.is_none());
            assert_eq!(row["reproduces"], true, "unshrunk findings reproduce");
        }
    }

    #[test]
    fn summary_counts_the_campaign() {
        let (outcome, params, _) = tiny_campaign();
        let header = FuzzReport::render_header(&params);
        assert_eq!(
            header,
            "fuzz: 4 candidates (2 generations x batch 2), 1 workers, seed 0x7\n"
        );
        let text = FuzzReport::of(&outcome, &params).render_summary();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("fuzz: coverage "), "{text}");
        let counts = format!(
            "fuzz: {} scored, {} rejected, {} anomalies >= 0",
            outcome.history.len(),
            outcome.rejected,
            outcome.anomalies.len()
        );
        assert_eq!(lines[1], counts);
        assert_eq!(outcome.history.len() + outcome.rejected, 4);
        let profile = lines
            .last()
            .unwrap()
            .strip_prefix("fuzz: profile ")
            .unwrap();
        assert_eq!(keys(profile), ["workers", "campaign"]);
    }

    #[test]
    fn persisted_corpus_loads_back() {
        let (outcome, params, _) = tiny_campaign();
        let dir = std::env::temp_dir().join(format!("lumina-fuzz-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            load_corpus(&dir).unwrap().is_none(),
            "nothing persisted yet"
        );

        let cov = outcome.coverage.as_ref().unwrap();
        let receipt = FuzzReport::of(&outcome, &params).persist(&dir).unwrap();
        let counts = format!(
            "fuzz: persisted {} corpus entries, {} reproducers to ",
            cov.corpus.len(),
            cov.reproducers.len()
        );
        assert!(receipt.starts_with(&counts), "{receipt}");
        let (corpus, receipt) = load_corpus(&dir).unwrap().expect("a corpus file");
        assert_eq!(corpus.to_jsonl(), cov.corpus.to_jsonl());
        assert!(!corpus.is_empty());
        let reloaded = format!("fuzz: reloaded {} corpus entries from ", corpus.len());
        assert!(receipt.starts_with(&reloaded), "{receipt}");
        // One YAML per reproducer, and each is a config that still parses.
        for r in &cov.reproducers {
            let label = r.class.map_or("anomaly", |c| c.label());
            let path = dir.join(format!("repro-{}-{label}.yaml", r.candidate));
            let yaml = std::fs::read_to_string(&path).unwrap();
            assert!(TestConfig::from_yaml(&yaml).is_ok(), "{}", path.display());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
