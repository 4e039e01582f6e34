//! Genetic test-case generation (§4, Algorithm 1).
//!
//! The fuzzer maintains a pool of configurations. Each generation draws a
//! batch of candidates from the pool, mutates them, runs Lumina on each,
//! scores the outcomes with a multi-objective anomaly function, and keeps
//! "high-quality" configurations (score ≥ pool median; low scorers survive
//! with probability `p`). This is the module that surfaced the CX4 Lx
//! noisy neighbor (§6.2.2).
//!
//! # Parallel campaign execution
//!
//! The campaign is *generation based*: every RNG decision for a
//! generation — parent pick, mutation draws, the accept-probability draw —
//! is made up front on the single campaign [`SimRng`], which turns the
//! batch's `run_test` calls into pure functions of their configuration.
//! They go to the campaign executor (`campaign::run_slots`, DESIGN.md
//! "Campaign executor") as one job list on [`FuzzParams::workers`] threads,
//! while scoring, selection and eviction stay on the calling thread in
//! batch order. The result: `history`, `best`, `anomalies`, `rejected` and
//! the final pool are **byte-identical for the same seed regardless of the
//! worker count**; `tests/fuzz_parallel_differential.rs` holds the
//! campaign to that.
//!
//! # Coverage-guided mode
//!
//! With [`FuzzParams::coverage`] set, candidate fitness combines the
//! heuristic score with *novelty*: each run is reduced to its
//! (journal-edge, violation-class) signal ([`coverage::signal_of`]) and
//! folded into a campaign-wide [`coverage::CoverageMap`] — on the
//! campaign thread, in slot order, so the bit-identity guarantee above
//! extends to the map, the corpus and every reproducer
//! (`tests/fuzz_coverage_differential.rs`). A candidate covering fresh
//! slots is kept regardless of the pool median, earns a selection-energy
//! bonus (re-sanitized, so a NaN/inf scorer cannot poison corpus energy),
//! and enters a bounded [`coverage::Corpus`]. Findings — proven violation
//! classes and threshold anomalies — are auto-shrunk into minimal
//! reproducer configs ([`shrink`]), one per class / anomaly description.

pub mod coverage;
pub mod mutate;
pub mod score;
pub mod shrink;

use crate::analyzers::ViolationClass;
use crate::campaign::{panic_message, run_slots, EvalFailure};
use crate::config::TestConfig;
use crate::error::Error;
use crate::orchestrator::{run_test, TestResults};
use coverage::CorpusEntry;
use lumina_sim::{SimRng, Telemetry};
use mutate::Mutator;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Fuzzing campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzParams {
    /// Initial pool size.
    pub pool_size: usize,
    /// Candidate evaluations (each = one simulation run or one rejection).
    pub iterations: usize,
    /// Probability of keeping a below-median configuration.
    pub accept_prob: f64,
    /// Score at or above which a configuration is recorded as an anomaly.
    pub anomaly_threshold: f64,
    /// Seed for the fuzzer's own randomness.
    pub seed: u64,
    /// Candidates drawn (and evaluated) per generation. All of a
    /// generation's RNG decisions happen before any of its runs execute,
    /// so parent picks within one generation see the pool as of the
    /// generation's start. Affects pool evolution; does NOT affect
    /// determinism across worker counts.
    pub batch_size: usize,
    /// Worker threads evaluating each generation's batch; `0` or `1`
    /// evaluates on the calling thread without spawning. The outcome is
    /// identical for every value given the same seed and batch size.
    pub workers: usize,
    /// Coverage-guided mode (see the module docs); `None` — the default —
    /// keeps the campaign byte-identical to the heuristic-only executor.
    pub coverage: Option<coverage::CoverageParams>,
}

impl Default for FuzzParams {
    fn default() -> Self {
        FuzzParams {
            pool_size: 8,
            iterations: 30,
            accept_prob: 0.25,
            anomaly_threshold: 10.0,
            seed: 0xf022,
            batch_size: 8,
            workers: default_workers(),
            coverage: None,
        }
    }
}

/// The default worker count: one per available hardware thread.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One scored pool member.
#[derive(Debug, Clone)]
pub struct Scored {
    /// The configuration.
    pub cfg: TestConfig,
    /// Its anomaly score.
    pub score: f64,
}

/// Why a candidate produced no score. Surfaced per rejection in
/// [`FuzzOutcome::rejections`] and as a `reason` field in the CLI's JSONL
/// stream, so a campaign log distinguishes a config the mutator broke
/// from a run the watchdog killed from a panic in the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The mutated configuration failed validation; never dispatched.
    InvalidConfig,
    /// The run (or the scorer) panicked; caught and isolated.
    Panic,
    /// The watchdog killed the run (event budget or wall clock).
    Watchdog,
    /// Trace reconstruction / integrity failed structurally.
    IntegrityFail,
    /// Any other `run_test` error.
    RunError,
}

impl RejectReason {
    /// Stable kebab-case label for machine-readable output.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::InvalidConfig => "invalid-config",
            RejectReason::Panic => "panic",
            RejectReason::Watchdog => "watchdog",
            RejectReason::IntegrityFail => "integrity-fail",
            RejectReason::RunError => "run-error",
        }
    }
}

/// One rejected candidate: which evaluation slot, why, and the message.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Candidate index in evaluation order (same space as the anomaly
    /// observer's index).
    pub candidate: u64,
    /// Classification.
    pub reason: RejectReason,
    /// The validation problem, error display, or panic message.
    pub detail: String,
}

/// Campaign outcome.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Highest-scoring configuration seen, with its score.
    pub best: Option<Scored>,
    /// Configurations that crossed the anomaly threshold, in discovery
    /// order, with a short description.
    pub anomalies: Vec<(Scored, String)>,
    /// Score of every evaluated configuration, in order.
    pub history: Vec<f64>,
    /// Runs whose configuration failed validation or execution
    /// (`rejections.len()`, kept as a count for quick summaries).
    pub rejected: usize,
    /// Why each rejected candidate was rejected, in evaluation order.
    pub rejections: Vec<Rejection>,
    /// The pool as it stood when the campaign ended.
    pub final_pool: Vec<Scored>,
    /// Campaign-level telemetry: the self-profile carries per-worker
    /// runs/sec and the campaign wall clock.
    pub telemetry: Telemetry,
    /// Coverage accounting, `Some` iff [`FuzzParams::coverage`] was set.
    pub coverage: Option<CoverageOutcome>,
}

/// What a coverage-guided campaign accumulated.
#[derive(Debug)]
pub struct CoverageOutcome {
    /// The campaign-wide coverage map.
    pub map: coverage::CoverageMap,
    /// Novel configurations, bounded and in discovery order.
    pub corpus: coverage::Corpus,
    /// Findings with their (shrunk) minimal reproducers: one per proven
    /// violation class plus one per distinct anomaly description.
    pub reproducers: Vec<shrink::Reproducer>,
    /// `(candidate index, cumulative distinct slots)` recorded each time
    /// the map grew — the coverage-growth curve.
    pub growth: Vec<(u64, usize)>,
}

/// Mutable campaign state for the coverage-guided mode.
struct CoverageState {
    params: coverage::CoverageParams,
    map: coverage::CoverageMap,
    corpus: coverage::Corpus,
    reproducers: Vec<shrink::Reproducer>,
    growth: Vec<(u64, usize)>,
    /// Violation classes already shipped with a reproducer.
    seen_classes: BTreeSet<&'static str>,
    /// Anomaly descriptions already shipped with a reproducer.
    seen_anomalies: BTreeSet<String>,
}

/// A candidate with its pre-drawn selection randomness. Building these is
/// the only part of a generation that touches the campaign RNG.
struct Candidate {
    cfg: TestConfig,
    /// Uniform `[0,1)` draw consumed by the below-median accept decision.
    accept_draw: f64,
    /// Why validation failed (`None` = runnable), computed before
    /// dispatch so workers only ever see runnable configurations.
    invalid: Option<String>,
}

impl EvalFailure {
    fn classify(self) -> (RejectReason, String) {
        match self {
            EvalFailure::Panic(msg) => (RejectReason::Panic, msg),
            EvalFailure::Error(e @ Error::Watchdog(_)) => (RejectReason::Watchdog, e.to_string()),
            EvalFailure::Error(e @ Error::Reconstruction(_)) => {
                (RejectReason::IntegrityFail, e.to_string())
            }
            EvalFailure::Error(e) => (RejectReason::RunError, e.to_string()),
        }
    }
}

/// Run Algorithm 1 with the executor described in the module docs.
///
/// `score` maps a finished run to an anomaly score (higher = more
/// anomalous) and an optional description used when the threshold is
/// crossed. Non-finite scores are clamped ([`sanitize_score`]) so a
/// misbehaving scorer cannot poison pool selection.
pub fn fuzz<S>(
    base: &TestConfig,
    mutator: &mut dyn Mutator,
    score: S,
    params: &FuzzParams,
) -> FuzzOutcome
where
    S: Fn(&TestConfig, &TestResults) -> (f64, String),
{
    fuzz_observed(base, mutator, score, params, &mut |_, _, _| {})
}

/// [`fuzz`], additionally invoking `on_anomaly(candidate_index, scored,
/// description)` the moment each anomaly is merged — the hook behind the
/// CLI's JSONL anomaly stream. Called on the campaign thread in
/// deterministic order.
pub fn fuzz_observed<S>(
    base: &TestConfig,
    mutator: &mut dyn Mutator,
    score: S,
    params: &FuzzParams,
    on_anomaly: &mut dyn FnMut(u64, &Scored, &str),
) -> FuzzOutcome
where
    S: Fn(&TestConfig, &TestResults) -> (f64, String),
{
    let campaign_start = Instant::now();
    let tel = Telemetry::enabled();
    let mut rng = SimRng::seed_from_u64(params.seed);
    let mut outcome = FuzzOutcome {
        best: None,
        anomalies: Vec::new(),
        history: Vec::new(),
        rejected: 0,
        rejections: Vec::new(),
        final_pool: Vec::new(),
        telemetry: tel.clone(),
        coverage: None,
    };
    // Coverage mode: the map starts pre-covered by the reloaded corpus,
    // so the growth curve counts only what this campaign adds.
    let mut cov = params.coverage.clone().map(|cp| {
        let mut map = coverage::CoverageMap::default();
        for e in cp.seed_corpus.entries() {
            map.preload(e.new_slots.iter().copied());
        }
        CoverageState {
            map,
            corpus: cp.seed_corpus.clone(),
            reproducers: Vec::new(),
            growth: Vec::new(),
            seen_classes: BTreeSet::new(),
            seen_anomalies: BTreeSet::new(),
            params: cp,
        }
    });

    // 1. Initialization: a pool of valid configurations derived from the
    // base.
    let mut pool: Vec<Scored> = Vec::new();
    for _ in 0..params.pool_size {
        let cfg = mutator.initial(base, &mut rng);
        if cfg.validate().is_ok() {
            pool.push(Scored { cfg, score: 0.0 });
        }
    }
    if pool.is_empty() {
        pool.push(Scored {
            cfg: base.clone(),
            score: 0.0,
        });
    }
    // A reloaded corpus seeds the pool too (no RNG draws, so the
    // cross-worker-count determinism is untouched).
    if let Some(cov) = cov.as_ref() {
        for e in cov.params.seed_corpus.entries() {
            if e.config.validate().is_ok() {
                pool.push(Scored {
                    cfg: e.config.clone(),
                    score: sanitize_score(e.score),
                });
            }
        }
    }

    let batch = params.batch_size.max(1);
    let mut done = 0usize;
    while done < params.iterations {
        let g = batch.min(params.iterations - done);
        // 2. Mutation — every RNG decision for the generation, up front.
        let cands: Vec<Candidate> = (0..g)
            .map(|_| {
                // Binary-tournament parent selection: selection energy —
                // heuristic score plus any novelty bonus — biases which
                // lineages get mutated, which is what makes the bonus
                // *guide* the campaign rather than just pad the pool.
                // Two draws regardless of outcome, so the RNG schedule
                // stays a pure function of (seed, batch sizes).
                let a = rng.index(pool.len());
                let b = rng.index(pool.len());
                let pick = if pool[b].score > pool[a].score { b } else { a };
                let parent = pool[pick].cfg.clone();
                let cfg = mutator.mutate(&parent, &mut rng);
                let accept_draw = rng.unit_f64();
                let invalid = cfg.validate().err().map(|e| e.to_string());
                Candidate {
                    cfg,
                    accept_draw,
                    invalid,
                }
            })
            .collect();

        // 3. Scoring — the independent simulation runs, on workers. Only
        // runnable configurations are dispatched.
        let runnable: Vec<&TestConfig> = cands
            .iter()
            .filter(|c| c.invalid.is_none())
            .map(|c| &c.cfg)
            .collect();
        let (evals, worker_rows) = run_slots(&runnable, params.workers, |cfg| run_test(cfg));
        tel.with_profile(|p| {
            for (w, (runs, wall_ns)) in worker_rows.iter().enumerate() {
                p.record_worker(w as u64, *runs, *wall_ns);
            }
        });
        let mut evals = evals.into_iter();

        // 4. Selection — merged in batch order, so pool evolution is
        // independent of which worker finished first.
        for (slot, cand) in cands.into_iter().enumerate() {
            let candidate = (done + slot) as u64;
            let reject = |outcome: &mut FuzzOutcome, reason, detail| {
                outcome.rejected += 1;
                outcome.rejections.push(Rejection {
                    candidate,
                    reason,
                    detail,
                });
            };
            if let Some(detail) = cand.invalid {
                reject(&mut outcome, RejectReason::InvalidConfig, detail);
                continue;
            }
            let results = match evals.next().expect("one eval per runnable candidate") {
                Ok(r) => r,
                Err(failure) => {
                    let (reason, detail) = failure.classify();
                    reject(&mut outcome, reason, detail);
                    continue;
                }
            };
            // The scorer is campaign-supplied code: isolate its panics
            // too, recording one as a first-class anomaly (the config
            // that breaks the scorer is often the most interesting one).
            let (raw, desc) = match catch_unwind(AssertUnwindSafe(|| score(&cand.cfg, &results))) {
                Ok(v) => v,
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    let desc = format!("scorer panic: {msg}");
                    let scored = Scored {
                        cfg: cand.cfg,
                        score: 0.0,
                    };
                    on_anomaly(candidate, &scored, &desc);
                    outcome.anomalies.push((scored, desc));
                    reject(&mut outcome, RejectReason::Panic, msg);
                    continue;
                }
            };
            let raw_s = sanitize_score(raw);
            let mut s = raw_s;
            let mut fresh_slots = 0usize;
            // Coverage merge: on the campaign thread, in slot order, so
            // the map/corpus/reproducers inherit the executor's
            // cross-worker-count bit-identity.
            if let Some(cov) = cov.as_mut() {
                let sig = coverage::signal_of(&results);
                let fresh = cov.map.merge(&sig);
                fresh_slots = fresh.len();
                if fresh_slots > 0 {
                    // Novelty is selection energy: a bonus per fresh
                    // slot, re-sanitized so a NaN/inf scorer cannot ride
                    // the bonus into the pool or the corpus.
                    s = sanitize_score(raw_s + cov.params.novelty_weight * fresh_slots as f64);
                    cov.growth.push((candidate, cov.map.distinct()));
                    cov.corpus.admit(
                        CorpusEntry {
                            candidate,
                            score: s,
                            new_slots: fresh,
                            config: cand.cfg.clone(),
                        },
                        cov.params.corpus_cap,
                    );
                }
                // Findings ship with a minimal reproducer: one per newly
                // proven violation class, and one per distinct
                // heuristic-anomaly description (violation-free runs whose
                // raw score crossed the threshold), which preserves "score
                // still over threshold".
                let classes = coverage::violation_classes(&results);
                let mut findings: Vec<(Option<ViolationClass>, String)> = classes
                    .iter()
                    .filter(|class| cov.seen_classes.insert(class.label()))
                    .map(|class| (Some(*class), format!("violation {}", class.label())))
                    .collect();
                if raw_s >= params.anomaly_threshold
                    && classes.is_empty()
                    && cov.seen_anomalies.insert(desc.clone())
                {
                    findings.push((None, desc.clone()));
                }
                let over_threshold = |c: &TestConfig, r: &TestResults| {
                    catch_unwind(AssertUnwindSafe(|| score(c, r)))
                        .is_ok_and(|(v, _)| sanitize_score(v) >= params.anomaly_threshold)
                };
                let budget = shrink::ShrinkParams {
                    max_runs: cov.params.shrink_budget,
                    ..Default::default()
                };
                for (class, desc) in findings {
                    let shrink = if !cov.params.shrink {
                        unshrunk(cand.cfg.clone())
                    } else if let Some(class) = class {
                        shrink::shrink_violation(&cand.cfg, class, &budget)
                    } else {
                        shrink::shrink_config(&cand.cfg, &over_threshold, &budget)
                    };
                    cov.reproducers.push(shrink::Reproducer {
                        candidate,
                        class,
                        desc,
                        shrink,
                    });
                }
            }
            outcome.history.push(s);
            let scored = Scored {
                cfg: cand.cfg,
                score: s,
            };
            if outcome.best.as_ref().is_none_or(|b| s > b.score) {
                outcome.best = Some(scored.clone());
            }
            // The anomaly verdict stays on the raw heuristic score: the
            // novelty bonus is selection energy, not anomaly evidence.
            if raw_s >= params.anomaly_threshold {
                on_anomaly(candidate, &scored, &desc);
                outcome.anomalies.push((scored.clone(), desc));
            }
            let median = median_score(&pool);
            // New coverage ⇒ keep, regardless of the pool median.
            if fresh_slots > 0 || s >= median || cand.accept_draw < params.accept_prob {
                pool.push(scored);
                // Bound the pool: evict the worst member.
                if pool.len() > params.pool_size * 4 {
                    let worst = pool
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.score.total_cmp(&b.1.score))
                        .map(|(i, _)| i)
                        .unwrap();
                    pool.swap_remove(worst);
                }
            }
        }
        done += g;
    }
    tel.with_profile(|p| {
        p.set_campaign_wall_ns(campaign_start.elapsed().as_nanos() as u64);
    });
    outcome.coverage = cov.map(|c| CoverageOutcome {
        map: c.map,
        corpus: c.corpus,
        reproducers: c.reproducers,
        growth: c.growth,
    });
    outcome.final_pool = pool;
    outcome
}

/// A reproducer recorded with shrinking disabled: the finding config
/// as-is, known to reproduce (the discovering run just did).
fn unshrunk(cfg: TestConfig) -> shrink::ShrinkOutcome {
    let mut out = shrink::ShrinkOutcome::untouched(cfg);
    out.reproduces = true;
    out
}

/// Clamp a scorer's output to a finite value: `NaN` → `0.0`, `+∞` →
/// `f64::MAX`, `-∞` → `f64::MIN`. A single NaN previously panicked the
/// whole campaign inside `partial_cmp().unwrap()` during eviction.
pub fn sanitize_score(s: f64) -> f64 {
    if s.is_finite() {
        s
    } else if s.is_nan() {
        0.0
    } else if s > 0.0 {
        f64::MAX
    } else {
        f64::MIN
    }
}

fn median_score(pool: &[Scored]) -> f64 {
    let mut scores: Vec<f64> = pool.iter().map(|s| s.score).collect();
    scores.sort_by(f64::total_cmp);
    if scores.is_empty() {
        0.0
    } else {
        scores[scores.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutate::EventMutator;

    fn tiny_base() -> TestConfig {
        TestConfig::from_yaml(
            r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 4096
"#,
        )
        .unwrap()
    }

    fn serial(params: &FuzzParams) -> FuzzParams {
        FuzzParams {
            workers: 0,
            ..params.clone()
        }
    }

    #[test]
    fn campaign_runs_and_scores() {
        let base = tiny_base();
        let mut mutator = EventMutator::default();
        let params = serial(&FuzzParams {
            pool_size: 3,
            iterations: 6,
            ..Default::default()
        });
        let out = fuzz(
            &base,
            &mut mutator,
            |_cfg, res| {
                let s = res.requester_counters.retransmitted_packets as f64;
                (s, "retransmissions".into())
            },
            &params,
        );
        assert_eq!(out.history.len() + out.rejected, 6);
        assert!(out.best.is_some());
        assert!(!out.final_pool.is_empty());
        // The serial path reports its runs under worker 0; it executed
        // every valid candidate (history counts the successful subset).
        let runs = out.telemetry.with_profile(|p| p.worker_runs(0)) as usize;
        assert!(runs >= out.history.len() && runs <= 6, "{runs}");
    }

    #[test]
    fn deterministic_given_seed() {
        let base = tiny_base();
        let params = serial(&FuzzParams {
            pool_size: 3,
            iterations: 5,
            ..Default::default()
        });
        let run = || {
            let mut m = EventMutator::default();
            fuzz(
                &base,
                &mut m,
                |_c, r| {
                    (
                        r.requester_counters.retransmitted_packets as f64,
                        String::new(),
                    )
                },
                &params,
            )
            .history
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn anomaly_threshold_collects() {
        let base = tiny_base();
        let mut m = EventMutator::default();
        let params = serial(&FuzzParams {
            pool_size: 2,
            iterations: 4,
            anomaly_threshold: -1.0, // everything is an anomaly
            ..Default::default()
        });
        let out = fuzz(&base, &mut m, |_c, _r| (0.0, "x".into()), &params);
        assert_eq!(out.anomalies.len(), out.history.len());
    }

    #[test]
    fn nan_scoring_closure_does_not_panic() {
        // Regression: a NaN anomaly score used to panic the campaign in
        // `partial_cmp().unwrap()` once the pool hit its eviction bound.
        let base = tiny_base();
        let mut m = EventMutator::default();
        let params = serial(&FuzzParams {
            pool_size: 1, // eviction bound = 4, reached quickly
            iterations: 8,
            accept_prob: 1.0, // every candidate enters the pool
            anomaly_threshold: f64::INFINITY,
            ..Default::default()
        });
        let out = fuzz(&base, &mut m, |_c, _r| (f64::NAN, "nan".into()), &params);
        // NaN clamps to 0.0: finite history, no spurious anomalies.
        assert!(out.history.iter().all(|s| *s == 0.0));
        assert!(out.anomalies.is_empty());
        assert!(out.final_pool.iter().all(|s| s.score.is_finite()));
    }

    #[test]
    fn nan_scorer_with_novelty_bonus_stays_sanitized() {
        // Regression: the novelty bonus is added *after* the first
        // sanitize; the sum must be re-sanitized or a NaN/inf scorer
        // rides the bonus into pool energy and corpus entries.
        let base = tiny_base();
        let mut m = EventMutator::default();
        let params = serial(&FuzzParams {
            pool_size: 2,
            iterations: 6,
            anomaly_threshold: f64::INFINITY,
            coverage: Some(coverage::CoverageParams::default()),
            ..Default::default()
        });
        let out = fuzz(&base, &mut m, |_c, _r| (f64::NAN, "nan".into()), &params);
        assert!(
            out.history.iter().all(|s| s.is_finite()),
            "{:?}",
            out.history
        );
        assert!(out.final_pool.iter().all(|s| s.score.is_finite()));
        let cov = out.coverage.expect("coverage mode on");
        assert!(cov.corpus.entries().iter().all(|e| e.score.is_finite()));

        // Same with an infinite scorer: the bonus must not overflow past
        // the clamp.
        let mut m = EventMutator::default();
        let out = fuzz(
            &base,
            &mut m,
            |_c, _r| (f64::INFINITY, "inf".into()),
            &params,
        );
        assert!(out.history.iter().all(|s| s.is_finite()));
        let cov = out.coverage.expect("coverage mode on");
        assert!(cov.corpus.entries().iter().all(|e| e.score.is_finite()));
    }

    #[test]
    fn coverage_findings_ship_reproducers() {
        // A base that proves a violation class on every run: the campaign
        // must ship exactly one reproducer for it, and the reproducer
        // must re-trigger the class.
        let mut base = tiny_base();
        base.quirks = Some(crate::config::QuirksSection {
            ghost_retransmit_prob: 1.0,
            ..Default::default()
        });
        base.traffic.rdma_verb = "read".into();
        let mut m = EventMutator {
            events_only: true,
            ..Default::default()
        };
        let params = serial(&FuzzParams {
            pool_size: 2,
            iterations: 4,
            coverage: Some(coverage::CoverageParams {
                shrink_budget: 12,
                ..Default::default()
            }),
            ..Default::default()
        });
        let out = fuzz(&base, &mut m, score::violation_score, &params);
        let cov = out.coverage.expect("coverage mode on");
        let repro: Vec<_> = cov
            .reproducers
            .iter()
            .filter(|r| r.class == Some(crate::analyzers::ViolationClass::SpuriousRetransmit))
            .collect();
        assert_eq!(repro.len(), 1, "one reproducer per class");
        assert!(repro[0].shrink.reproduces);
        let res = crate::orchestrator::run_test(&repro[0].shrink.cfg).unwrap();
        assert!(coverage::violation_classes(&res)
            .contains(&crate::analyzers::ViolationClass::SpuriousRetransmit));
    }

    #[test]
    fn infinite_scores_clamp_finite() {
        assert_eq!(sanitize_score(f64::INFINITY), f64::MAX);
        assert_eq!(sanitize_score(f64::NEG_INFINITY), f64::MIN);
        assert_eq!(sanitize_score(f64::NAN), 0.0);
        assert_eq!(sanitize_score(1.5), 1.5);
    }

    #[test]
    fn observer_sees_anomalies_in_order() {
        let base = tiny_base();
        let mut m = EventMutator::default();
        let params = serial(&FuzzParams {
            pool_size: 2,
            iterations: 4,
            anomaly_threshold: -1.0,
            ..Default::default()
        });
        let mut seen: Vec<u64> = Vec::new();
        let out = fuzz_observed(
            &base,
            &mut m,
            |_c, _r| (0.0, "x".into()),
            &params,
            &mut |i, _scored, desc| {
                assert_eq!(desc, "x");
                seen.push(i);
            },
        );
        assert_eq!(seen.len(), out.anomalies.len());
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
    }

    #[test]
    fn panicking_scorer_is_recorded_not_fatal() {
        let base = tiny_base();
        let mut m = EventMutator::default();
        let params = serial(&FuzzParams {
            pool_size: 2,
            iterations: 3,
            ..Default::default()
        });
        let out = fuzz(
            &base,
            &mut m,
            |_c, _r| -> (f64, String) { panic!("scorer exploded on purpose") },
            &params,
        );
        // Every evaluation panicked in the scorer: all rejected, each an
        // anomaly, campaign alive to the end.
        assert_eq!(out.rejected, 3);
        assert_eq!(out.rejections.len(), 3);
        assert!(out
            .rejections
            .iter()
            .all(|r| r.reason == RejectReason::Panic
                && r.detail.contains("scorer exploded on purpose")));
        assert_eq!(out.anomalies.len(), 3);
        assert!(out.anomalies[0].1.starts_with("scorer panic:"));
        assert!(out.history.is_empty());
    }

    #[test]
    fn rejection_reasons_label_invalid_configs() {
        // A mutator that always produces an invalid config.
        struct Breaker;
        impl Mutator for Breaker {
            fn initial(&mut self, base: &TestConfig, _rng: &mut SimRng) -> TestConfig {
                base.clone()
            }
            fn mutate(&mut self, parent: &TestConfig, _rng: &mut SimRng) -> TestConfig {
                let mut c = parent.clone();
                c.traffic.mtu = 0;
                c
            }
        }
        let base = tiny_base();
        let params = serial(&FuzzParams {
            pool_size: 1,
            iterations: 2,
            ..Default::default()
        });
        let out = fuzz(&base, &mut Breaker, |_c, _r| (0.0, String::new()), &params);
        assert_eq!(out.rejected, 2);
        for r in &out.rejections {
            assert_eq!(r.reason, RejectReason::InvalidConfig);
            assert_eq!(r.reason.label(), "invalid-config");
            assert!(r.detail.contains("mtu"), "{}", r.detail);
        }
    }

    #[test]
    fn watchdog_kills_are_classified() {
        // A mutator that gives every run an impossible event budget.
        struct Strangler;
        impl Mutator for Strangler {
            fn initial(&mut self, base: &TestConfig, _rng: &mut SimRng) -> TestConfig {
                base.clone()
            }
            fn mutate(&mut self, parent: &TestConfig, _rng: &mut SimRng) -> TestConfig {
                let mut c = parent.clone();
                c.network.max_events = Some(10);
                c
            }
        }
        let base = tiny_base();
        let params = serial(&FuzzParams {
            pool_size: 1,
            iterations: 2,
            ..Default::default()
        });
        let out = fuzz(
            &base,
            &mut Strangler,
            |_c, _r| (0.0, String::new()),
            &params,
        );
        assert_eq!(out.rejected, 2);
        for r in &out.rejections {
            assert_eq!(r.reason, RejectReason::Watchdog, "{}", r.detail);
            assert!(r.detail.contains("event budget"), "{}", r.detail);
        }
    }

    #[test]
    fn parallel_matches_serial_with_panicking_runs() {
        // Worker panic isolation must preserve the cross-worker-count
        // determinism guarantee: a panicking scorer run rejects the same
        // slots either way.
        let base = tiny_base();
        let params = FuzzParams {
            pool_size: 2,
            iterations: 4,
            batch_size: 4,
            workers: 0,
            ..Default::default()
        };
        let run = |workers: usize| {
            let mut m = EventMutator::default();
            let out = fuzz(
                &base,
                &mut m,
                |cfg, _r| {
                    if cfg.traffic.data_pkt_events.len() % 2 == 1 {
                        panic!("odd event count")
                    }
                    (1.0, String::new())
                },
                &FuzzParams {
                    workers,
                    ..params.clone()
                },
            );
            (
                out.history.clone(),
                out.rejections
                    .iter()
                    .map(|r| (r.candidate, r.reason, r.detail.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(0), run(3));
    }
}
