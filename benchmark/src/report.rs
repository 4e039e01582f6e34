//! Result lines, the human tables, and the multi-run modes (every
//! workload; `--selfcheck`).

use crate::e2e::{self, Env};
use crate::package_dir;
use crate::stats::{fastest, median, percentile, quartiles};
use crate::workloads::{self, Kind};
use std::process::Command;
use std::time::Instant;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest measured operations per run, whatever `--seconds` says.
const MIN_OPS: u64 = 5;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity; a degenerate ratio reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The one-line JSON object the driver reads.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn print_table(&self, title: &str) {
        eprintln!("--- {title} ---");
        for m in &self.metrics {
            eprintln!("  {:<52} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
}

/// One untraced run of one workload: set up `SETUP_REPEATS` times, then
/// measure operations for `seconds`.
pub fn untraced(kind: Kind, seed: u64, seconds: f64, env: &Env) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        prepared = Some(e2e::set_up(kind, seed, env)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUP_REPEATS > 0");
    let m = e2e::measure(&prepared, env, seconds, MIN_OPS)?;
    if m.wall_ms.is_empty() {
        return Err(format!("all {} operations failed", m.attempted));
    }

    let wall = fastest(&m.wall_ms);
    let mut result = RunResult {
        attempted: m.attempted,
        failed: m.failed,
        metrics: Vec::new(),
    };
    result.push("op_wall_ms", wall, "ms");
    // The mean, not the median: `ru_maxrss` is kilobyte-granular and the
    // median of 50 near-equal peaks is the very same number run after run.
    let rss = m.peak_rss_mb.iter().sum::<f64>() / m.peak_rss_mb.len() as f64;
    result.push("peak_rss_mb", rss, "MB");
    result.push("setup_s", median(&setup_s), "s");

    // Diagnostics: not gated, not part of the result line.
    let (work, unit) = kind.planned_work(prepared.pcap_bytes);
    eprintln!(
        "{}: seed {seed}, {} ops in {:.1} s, {} failed, report_fnv64 {:016x}, exit {}",
        kind.name(),
        m.attempted,
        m.wall_ms.iter().sum::<f64>() / 1e3,
        m.failed,
        prepared.reference_fnv,
        prepared.reference_exit,
    );
    eprintln!(
        "  op_wall_ms min {:.3}  p25 {:.3}  p50 {:.3}  p75 {:.3}  p90 {:.3}  max {:.3}  (n = {})",
        wall,
        percentile(&m.wall_ms, 25.0),
        median(&m.wall_ms),
        percentile(&m.wall_ms, 75.0),
        percentile(&m.wall_ms, 90.0),
        percentile(&m.wall_ms, 100.0),
        m.wall_ms.len(),
    );
    eprintln!(
        "  throughput {:.3} {unit} (planned work ÷ fastest wall)",
        work / (wall / 1e3)
    );
    eprintln!("  setup_s samples {setup_s:.3?}");
    result.print_table("end to end");
    Ok(result)
}

// ---------------------------------------------------------------------
// Multi-run modes: each single run is a child of this same executable, so
// at most one harness child (and its one lumina-cli child) is ever alive.
// ---------------------------------------------------------------------

/// `name → (value, unit)` of one child run, plus its correctness.
struct ChildRun {
    correct: bool,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn self: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{} run printed no result (status {})",
            kind.name(),
            out.status
        )
    })?;
    let v: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("{} result line: {e}", kind.name()))?;
    let mut metrics = Vec::new();
    if let Some(map) = v.get("metrics").and_then(|m| m.as_object()) {
        for (name, m) in map.iter() {
            metrics.push((
                name.clone(),
                m.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0),
                m.get("unit")
                    .and_then(|x| x.as_str())
                    .unwrap_or("")
                    .to_string(),
            ));
        }
    }
    Ok(ChildRun {
        correct: v.get("correct").and_then(|c| c.as_bool()) == Some(true) && out.status.success(),
        metrics,
    })
}

fn print_grid(title: &str, runs: &[(Kind, ChildRun)]) {
    println!("\n== {title} ==");
    print!("{:<52} {:<6}", "metric", "unit");
    for (k, _) in runs {
        print!(" {:>14}", k.name());
    }
    println!();
    let Some((_, first)) = runs.first() else {
        return;
    };
    for (i, (name, _, unit)) in first.metrics.iter().enumerate() {
        print!("{name:<52} {unit:<6}");
        for (_, run) in runs {
            match run.metrics.get(i) {
                Some((_, v, _)) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// The single command of the acceptance criteria: build, run every
/// workload untraced then traced, print both tables by metric name with
/// units, fail on any incorrect operation.
pub fn all_workloads(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    for (trace, title) in [
        (false, "end to end (untraced lumina-cli children)"),
        (true, "per layer (traced in-process run)"),
    ] {
        let mut runs = Vec::new();
        for kind in workloads::ALL {
            let run = run_child(kind, seed, seconds, trace)?;
            ok &= run.correct;
            runs.push((kind, run));
        }
        print_grid(title, &runs);
    }
    println!("\nall operations correct: {ok}");
    Ok(ok)
}

/// Bounds of the end-to-end metrics, read from BENCHMARK.json so the
/// self-check and the driver can never disagree.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = package_dir()
        .parent()
        .ok_or("benchmark/ has no parent directory")?
        .join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = v
        .get("end_to_end")
        .and_then(|l| l.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or("metric without name")?;
            let lower = m.get("better").and_then(|b| b.as_str()) == Some("lower");
            let bound = m
                .get("bound")
                .and_then(|b| b.as_f64())
                .ok_or("metric without bound")?;
            Ok((name.to_string(), lower, bound))
        })
        .collect()
}

/// Two full sets of `RUNS` untraced runs per workload — all of them, or
/// `only` the one named with `--workload` — (seeds `seed`,
/// `seed+1`, …, the same seeds in both sets). Prints median and quartiles
/// per (metric, workload); fails if a spread exceeds a third of its
/// bound (`setup_s` excepted, as in the driver) or the second set's
/// median is worse than the first's by more than the bound.
pub fn selfcheck(only: Option<Kind>, seed: u64, seconds: f64) -> Result<bool, String> {
    const RUNS: u64 = 10;
    let bounds = bounds()?;
    let mut ok = true;
    println!(
        "{:<12} {:<12} {:>3} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "set", "q1", "median", "q3", "spread", "bound/3", "drift"
    );
    for kind in workloads::ALL
        .into_iter()
        .filter(|k| only.is_none_or(|o| o == *k))
    {
        // sets[set][metric] = values across seeds
        let mut sets: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); bounds.len()]; 2];
        for set in sets.iter_mut() {
            for i in 0..RUNS {
                let run = run_child(kind, seed + i, seconds, false)?;
                ok &= run.correct;
                for (slot, (name, _, _)) in bounds.iter().enumerate() {
                    let v = run
                        .metrics
                        .iter()
                        .find(|(n, _, _)| n == name)
                        .map(|(_, v, _)| *v)
                        .ok_or_else(|| format!("{} run lacks metric {name}", kind.name()))?;
                    set[slot].push(v);
                }
            }
        }
        for (slot, (name, lower, bound)) in bounds.iter().enumerate() {
            let med: Vec<f64> = sets.iter().map(|s| median(&s[slot])).collect();
            // Positive drift = the second set is worse.
            let drift = if *lower {
                (med[1] - med[0]) / med[0]
            } else {
                (med[0] - med[1]) / med[0]
            };
            for (i, set) in sets.iter().enumerate() {
                let [q1, q2, q3] = quartiles(&set[slot]);
                let spread = (q3 - q1) / q2;
                let spread_ok = name == "setup_s" || spread <= bound / 3.0;
                let drift_ok = drift <= *bound;
                ok &= spread_ok && drift_ok;
                println!(
                    "{:<12} {:<12} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>7.2}%  {}",
                    kind.name(),
                    name,
                    i + 1,
                    q1,
                    q2,
                    q3,
                    spread * 100.0,
                    bound / 3.0 * 100.0,
                    drift * 100.0,
                    if spread_ok && drift_ok {
                        "ok"
                    } else {
                        "OUT OF BOUND"
                    },
                );
            }
        }
    }
    println!("selfcheck: {}", if ok { "pass" } else { "FAIL" });
    Ok(ok)
}
