//! The deterministic chaos soak harness behind `lumina-cli soak`.
//!
//! Long-horizon robustness sweep: every preset in a directory is run
//! under `--scenarios` randomized chaos schedules (link flaps, PFC-style
//! pauses, loss/corruption/reorder bursts on the host↔switch links), and
//! the liveness/recovery oracle grades each run. The point is *Laminar*'s
//! (PAPERS.md) — transport correctness must hold under sustained load,
//! not just under the paper's single-probe events.
//!
//! Determinism contract, same as the fuzz and matrix campaigns:
//!
//! * Schedules are drawn up front on the campaign thread from a
//!   [`SimRng`] mixed per (preset, scenario) — iteration order never
//!   touches the RNG, so the schedule set depends only on `--seed`.
//! * Scenarios are one job list over the campaign executor
//!   (`campaign::run_slots`): each worker reduces its run to the event
//!   count and the oracle's verdict, and those come back in (preset,
//!   scenario) order, so the assembled report is byte-identical for any
//!   `--workers` value.
//! * The report carries no wall-clock numbers.
//!
//! Presets that already declare an active `chaos:` section (demos like
//! `chaos_demo.yaml`) are *skipped*, not swept: their schedule is the
//! point of the preset, and overwriting it with a generated one would
//! grade something else.

use crate::analyzers::RecoveryReport;
use crate::campaign::{run_slots, EvalFailure};
use crate::config::{ChaosBurstSpec, ChaosLinkSpec, ChaosSection, ChaosWindowSpec, TestConfig};
use crate::error::Error;
use crate::orchestrator::run_test;
use lumina_sim::SimRng;
use serde::Serialize;

/// Salt separating the soak schedule stream from every other consumer of
/// the user-facing seed.
pub const SOAK_SEED_SALT: u64 = 0x50ac_5eed_c0de_f011;

/// Parameters of one soak sweep.
#[derive(Debug, Clone)]
pub struct SoakParams {
    /// Randomized chaos schedules generated per preset.
    pub scenarios_per_preset: u32,
    /// Seed for the schedule PRNG (the presets' workload seeds are never
    /// touched).
    pub seed: u64,
    /// Worker threads; `<= 1` runs serially on the calling thread.
    pub workers: usize,
}

impl Default for SoakParams {
    fn default() -> Self {
        SoakParams {
            scenarios_per_preset: 3,
            seed: 1,
            workers: 1,
        }
    }
}

/// One preset × schedule cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioOutcome {
    /// Preset file stem.
    pub preset: String,
    /// Scenario index within the preset.
    pub scenario: u32,
    /// The chaos-plane seed this scenario ran under.
    pub chaos_seed: u64,
    /// `live`, `liveness` (oracle proved a wedge), `error` or `panic`.
    pub status: String,
    /// Violation summary or error message, when not `live`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub detail: Option<String>,
    /// The recovery oracle's full verdict, when the run finished.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub recovery: Option<RecoveryReport>,
}

/// The assembled sweep: scenarios in (preset, scenario) order.
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    /// Schedule-PRNG seed.
    pub seed: u64,
    /// Schedules generated per preset.
    pub scenarios_per_preset: u32,
    /// Preset stems swept, in order.
    pub presets: Vec<String>,
    /// Presets skipped because they already declare active chaos.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub skipped: Vec<String>,
    /// Every scenario outcome.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Scenarios the oracle proved live.
    pub live: usize,
    /// Scenarios with proven liveness violations.
    pub liveness_failures: usize,
    /// Scenarios that failed to run (typed error or panic).
    pub errors: usize,
    /// Engine events dispatched, summed over completed scenarios. A
    /// deterministic count (the sim is bit-deterministic), so it survives
    /// the byte-identical-across-workers contract; the bench gate divides
    /// it by wall time for `soak_events_per_sec`.
    pub events: u64,
}

impl SoakReport {
    /// Machine-readable form. Deterministic: field order fixed, no
    /// wall-clock values, so same-seed sweeps serialize byte-identically.
    pub fn to_json(&self) -> Result<serde_json::Value, Error> {
        serde_json::to_value(self)
            .map_err(|e| Error::internal(format!("soak report failed to serialize: {e}")))
    }

    /// Terminal rendering: the headline, then one row per scenario.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "soak: seed={} presets={} scenarios={} live={} liveness={} errors={}\n",
            self.seed,
            self.presets.len(),
            self.scenarios.len(),
            self.live,
            self.liveness_failures,
            self.errors,
        ));
        for s in &self.skipped {
            out.push_str(&format!("  (skipped {s}: preset declares its own chaos)\n"));
        }
        for sc in &self.scenarios {
            let windows = sc.recovery.as_ref().map_or(0, |r| r.windows.len());
            let retrans = sc.recovery.as_ref().map_or(0, |r| r.retransmits);
            out.push_str(&format!(
                "  {:<24} #{} seed={:#018x}: {:<8} windows={} retransmits={}\n",
                sc.preset, sc.scenario, sc.chaos_seed, sc.status, windows, retrans,
            ));
            if let Some(detail) = &sc.detail {
                out.push_str(&format!("    !! {detail}\n"));
            }
        }
        out
    }

    /// Summary of the first proven liveness failure, for `Error::Liveness`.
    pub fn first_liveness_failure(&self) -> Option<String> {
        self.scenarios
            .iter()
            .find(|s| s.status == "liveness")
            .map(|s| {
                format!(
                    "{} scenario {}: {}",
                    s.preset,
                    s.scenario,
                    s.detail.as_deref().unwrap_or("liveness violation")
                )
            })
    }
}

/// Load the presets a sweep covers: every `*.yaml` in `path` (sorted by
/// file name), or just `path` itself when it is a file.
pub fn collect_presets(path: &str) -> Result<Vec<(String, TestConfig)>, Error> {
    let meta = std::fs::metadata(path).map_err(Error::io(path))?;
    let mut files: Vec<std::path::PathBuf> = if meta.is_dir() {
        std::fs::read_dir(path)
            .map_err(Error::io(path))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "yaml" || x == "yml"))
            .collect()
    } else {
        vec![std::path::PathBuf::from(path)]
    };
    files.sort();
    let mut presets = Vec::with_capacity(files.len());
    for f in files {
        let stem = f
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| f.display().to_string());
        let yaml = std::fs::read_to_string(&f).map_err(Error::io(f.display()))?;
        let cfg = TestConfig::from_yaml(&yaml)
            .map_err(|e| Error::config(format!("{}: {e}", f.display())))?;
        cfg.validate()
            .map_err(|e| Error::config(format!("{}: {e}", f.display())))?;
        presets.push((stem, cfg));
    }
    if presets.is_empty() {
        return Err(Error::config(format!("{path}: no presets to soak")));
    }
    Ok(presets)
}

/// Per-(preset, scenario) schedule seed: order-free mixing so the
/// schedule set depends only on the user seed, never on sweep order.
fn scenario_seed(seed: u64, preset: u64, scenario: u64) -> u64 {
    (seed ^ SOAK_SEED_SALT)
        .wrapping_add(preset.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(scenario.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
}

/// Draw one randomized chaos schedule scaled to the preset's horizon.
/// Windows land in the first 30% of the horizon and stay short (≤ 2%),
/// leaving the stack ample room to recover before end-of-run: a soak
/// failure then means a real wedge, not a schedule that ate the horizon.
pub(crate) fn gen_schedule(rng: &mut SimRng, horizon_us: u64, chaos_seed: u64) -> ChaosSection {
    let h = horizon_us.max(1_000);
    let start_lo = h / 20;
    let start_hi = (h * 3 / 10).max(start_lo + 1);
    let max_dur = (h / 50).max(20);
    let afflicted: &[&str] = match rng.below(3) {
        0 => &["requester"],
        1 => &["responder"],
        _ => &["requester", "responder"],
    };
    let mut links = Vec::new();
    for link in afflicted {
        let mut spec = ChaosLinkSpec {
            link: (*link).to_string(),
            flaps: Vec::new(),
            pauses: Vec::new(),
            bursts: Vec::new(),
        };
        let n_windows = 1 + rng.below(2);
        for _ in 0..n_windows {
            let at_us = rng.range_inclusive(start_lo, start_hi);
            let duration_us = rng.range_inclusive(max_dur / 4 + 1, max_dur);
            match rng.below(3) {
                0 => spec.flaps.push(ChaosWindowSpec { at_us, duration_us }),
                1 => spec.pauses.push(ChaosWindowSpec { at_us, duration_us }),
                _ => spec.bursts.push(ChaosBurstSpec {
                    at_us,
                    duration_us,
                    // ≥ 1% loss so a burst window is never a silent noop.
                    loss_prob: (1 + rng.below(7)) as f64 / 100.0,
                    corrupt_prob: rng.below(4) as f64 / 100.0,
                    reorder_prob: rng.below(8) as f64 / 100.0,
                    reorder_delay_us: rng.range_inclusive(2, 12),
                }),
            }
        }
        links.push(spec);
    }
    ChaosSection {
        seed: Some(chaos_seed),
        links,
    }
}

struct SoakJob {
    preset: String,
    scenario: u32,
    chaos_seed: u64,
    cfg: TestConfig,
}

/// Run the sweep. Scenario schedules are generated up front (serial,
/// order-free seeding); execution fans out over `params.workers`.
pub fn sweep(presets: &[(String, TestConfig)], params: &SoakParams) -> Result<SoakReport, Error> {
    let scenarios = params.scenarios_per_preset.max(1);
    let mut jobs: Vec<SoakJob> = Vec::new();
    let mut swept = Vec::new();
    let mut skipped = Vec::new();
    let mut preset_index = 0u64;
    for (name, base) in presets {
        if base.chaos.as_ref().is_some_and(|c| !c.is_noop()) {
            skipped.push(name.clone());
            continue;
        }
        swept.push(name.clone());
        for s in 0..scenarios {
            let chaos_seed = scenario_seed(params.seed, preset_index, s as u64);
            let mut rng = SimRng::seed_from_u64(chaos_seed);
            let horizon_us = base.network.horizon_ms.saturating_mul(1_000);
            let mut cfg = base.clone();
            cfg.chaos = Some(gen_schedule(&mut rng, horizon_us, chaos_seed));
            jobs.push(SoakJob {
                preset: name.clone(),
                scenario: s,
                chaos_seed,
                cfg,
            });
        }
        preset_index += 1;
    }

    let (slots, _) = run_slots(&jobs, params.workers, |job| {
        run_test(&job.cfg).map(|res| (res.engine_stats.events, res.recovery))
    });

    let mut outcomes = Vec::with_capacity(jobs.len());
    let (mut live, mut liveness_failures, mut errors) = (0usize, 0usize, 0usize);
    let mut events = 0u64;
    for (job, slot) in jobs.iter().zip(slots) {
        let (status, detail, recovery) = match slot {
            Ok((run_events, rec)) => {
                events = events.saturating_add(run_events);
                match rec {
                    Some(rec) if !rec.live => {
                        liveness_failures += 1;
                        ("liveness", Some(rec.violation_summary()), Some(rec))
                    }
                    rec => {
                        live += 1;
                        ("live", None, rec)
                    }
                }
            }
            Err(EvalFailure::Error(e)) => {
                errors += 1;
                ("error", Some(e.to_string()), None)
            }
            Err(EvalFailure::Panic(msg)) => {
                errors += 1;
                ("panic", Some(msg), None)
            }
        };
        outcomes.push(ScenarioOutcome {
            preset: job.preset.clone(),
            scenario: job.scenario,
            chaos_seed: job.chaos_seed,
            status: status.into(),
            detail,
            recovery,
        });
    }

    Ok(SoakReport {
        seed: params.seed,
        scenarios_per_preset: scenarios,
        presets: swept,
        skipped,
        scenarios: outcomes,
        live,
        liveness_failures,
        errors,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 4
  mtu: 1024
  message-size: 4096
network:
  seed: 7
  horizon-ms: 1000
"#;

    fn presets() -> Vec<(String, TestConfig)> {
        vec![("base".to_string(), TestConfig::from_yaml(BASE).unwrap())]
    }

    #[test]
    fn schedules_depend_only_on_seed_not_order() {
        let a = scenario_seed(1, 0, 0);
        let b = scenario_seed(1, 0, 1);
        let c = scenario_seed(1, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, scenario_seed(1, 0, 0));
    }

    #[test]
    fn generated_schedules_validate_and_are_never_noop() {
        for seed in 0..32u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let section = gen_schedule(&mut rng, 1_000_000, seed);
            assert!(!section.is_noop(), "seed {seed} drew a noop schedule");
            let mut cfg = TestConfig::from_yaml(BASE).unwrap();
            cfg.chaos = Some(section);
            assert!(
                cfg.problems().is_empty(),
                "seed {seed}: {:?}",
                cfg.problems()
            );
        }
    }

    #[test]
    fn sweep_is_byte_identical_for_any_worker_count() {
        let presets = presets();
        let params = |workers| SoakParams {
            scenarios_per_preset: 2,
            seed: 11,
            workers,
        };
        let serial = sweep(&presets, &params(1)).unwrap();
        let two = sweep(&presets, &params(2)).unwrap();
        let four = sweep(&presets, &params(4)).unwrap();
        let bytes = |r: &SoakReport| serde_json::to_string(&r.to_json().unwrap()).unwrap();
        assert_eq!(bytes(&serial), bytes(&two));
        assert_eq!(bytes(&serial), bytes(&four));
        assert_eq!(serial.scenarios.len(), 2);
    }

    #[test]
    fn presets_with_active_chaos_are_skipped() {
        let mut cfg = TestConfig::from_yaml(BASE).unwrap();
        cfg.chaos = Some(ChaosSection {
            seed: None,
            links: vec![ChaosLinkSpec {
                link: "requester".into(),
                flaps: vec![ChaosWindowSpec {
                    at_us: 10,
                    duration_us: 5,
                }],
                pauses: Vec::new(),
                bursts: Vec::new(),
            }],
        });
        let presets = vec![
            ("demo".to_string(), cfg),
            ("base".to_string(), TestConfig::from_yaml(BASE).unwrap()),
        ];
        let rep = sweep(
            &presets,
            &SoakParams {
                scenarios_per_preset: 1,
                ..SoakParams::default()
            },
        )
        .unwrap();
        assert_eq!(rep.skipped, vec!["demo".to_string()]);
        assert_eq!(rep.presets, vec!["base".to_string()]);
        assert!(rep.scenarios.iter().all(|s| s.preset == "base"));
    }
}
