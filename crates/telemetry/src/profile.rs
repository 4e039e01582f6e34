//! Wall-clock self-profile of one run or one fuzz campaign.
//!
//! Everything here measures *real* time, so none of it enters the
//! telemetry sink, whose bytes must stay identical across same-seed runs.
//! A profile is plain data carried by whoever measured it — a run's
//! `TestResults::profile`, a campaign's `FuzzOutcome::profile` — and holds
//! only what no other mechanism owns: the wall clock, the engine queue's
//! high-water mark and the per-worker campaign rows. The counts the CLI
//! prints beside it are read from their owners (the journal, `EngineStats`,
//! `FrameStats`).

use std::collections::BTreeMap;
use std::time::Instant;

/// Wall-clock accounting for one campaign worker thread (the parallel
/// fuzz executor reports one entry per worker per generation).
#[derive(Debug, Default, Clone)]
struct WorkerStats {
    runs: u64,
    wall_ns: u64,
}

/// Wall-clock accounting for one run or one campaign.
#[derive(Debug, Clone)]
pub struct SelfProfile {
    /// Wall clock from [`SelfProfile::start`] to the last
    /// [`SelfProfile::finish`]; 0 until then.
    pub wall_ns: u64,
    /// Engine event-queue high-water mark of the run.
    pub queue_depth_hwm: u64,
    started: Instant,
    workers: BTreeMap<u64, WorkerStats>,
}

/// `n` per second of `wall_ns`; 0 before any time has passed.
fn per_sec(n: u64, wall_ns: u64) -> f64 {
    let secs = wall_ns as f64 / 1e9;
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

impl SelfProfile {
    /// A profile whose wall clock starts now.
    pub fn start() -> SelfProfile {
        SelfProfile {
            wall_ns: 0,
            queue_depth_hwm: 0,
            started: Instant::now(),
            workers: BTreeMap::new(),
        }
    }

    /// Stop the wall clock: [`SelfProfile::wall_ns`] becomes the time
    /// since [`SelfProfile::start`].
    pub fn finish(&mut self) {
        self.wall_ns = self.started.elapsed().as_nanos() as u64;
    }

    /// Fold one worker-thread stint (`runs` simulations over `wall_ns` of
    /// wall clock) into the per-worker totals.
    pub fn record_worker(&mut self, worker: u64, runs: u64, wall_ns: u64) {
        let w = self.workers.entry(worker).or_default();
        w.runs += runs;
        w.wall_ns += wall_ns;
    }

    /// Simulations executed by `worker` so far.
    pub fn worker_runs(&self, worker: u64) -> u64 {
        self.workers.get(&worker).map_or(0, |w| w.runs)
    }

    /// The campaign view as JSON: `workers` (per-worker runs, wall clock
    /// and rate; omitted when no worker ran) and `campaign` (the finished
    /// wall clock, total runs and rate).
    pub fn campaign_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        if !self.workers.is_empty() {
            let mut workers = serde_json::Map::new();
            for (id, w) in &self.workers {
                let mut wj = serde_json::Map::new();
                wj.insert("runs", serde_json::Value::from(w.runs));
                wj.insert("wall_ns", serde_json::Value::from(w.wall_ns));
                wj.insert(
                    "runs_per_sec",
                    serde_json::Value::from(per_sec(w.runs, w.wall_ns)),
                );
                workers.insert(id.to_string(), serde_json::Value::Object(wj));
            }
            m.insert("workers", serde_json::Value::Object(workers));
        }
        let runs = self.workers.values().map(|w| w.runs).sum();
        let mut cj = serde_json::Map::new();
        cj.insert("wall_ns", serde_json::Value::from(self.wall_ns));
        cj.insert("runs", serde_json::Value::from(runs));
        cj.insert(
            "runs_per_sec",
            serde_json::Value::from(per_sec(runs, self.wall_ns)),
        );
        m.insert("campaign", serde_json::Value::Object(cj));
        serde_json::Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_and_campaign_stats_export() {
        let mut p = SelfProfile::start();
        p.record_worker(0, 5, 1_000_000_000);
        p.record_worker(0, 5, 1_000_000_000);
        p.record_worker(1, 3, 500_000_000);
        p.wall_ns = 2_000_000_000;
        assert_eq!(p.worker_runs(0), 10);
        let j = p.campaign_json();
        assert_eq!(j["workers"]["0"]["runs"], 10u64);
        assert_eq!(j["workers"]["0"]["runs_per_sec"].as_f64().unwrap(), 5.0);
        assert_eq!(j["workers"]["1"]["wall_ns"], 500_000_000u64);
        assert_eq!(j["campaign"]["wall_ns"], 2_000_000_000u64);
        assert_eq!(j["campaign"]["runs"], 13u64);
        assert_eq!(j["campaign"]["runs_per_sec"].as_f64().unwrap(), 6.5);
        // No worker ran: the campaign row alone.
        let keys: Vec<String> = SelfProfile::start()
            .campaign_json()
            .as_object()
            .unwrap()
            .keys()
            .cloned()
            .collect();
        assert_eq!(keys, ["campaign"]);
    }

    #[test]
    fn finish_freezes_wall_clock() {
        let mut p = SelfProfile::start();
        assert_eq!(p.wall_ns, 0, "nothing is read before finish");
        p.finish();
        let a = p.campaign_json()["campaign"]["wall_ns"].clone();
        let b = p.campaign_json()["campaign"]["wall_ns"].clone();
        assert_eq!(a, b);
        assert_eq!(a, p.wall_ns);
    }
}
