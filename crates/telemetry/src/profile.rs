//! Wall-clock self-profile of the telemetry layer and the run it
//! observed.
//!
//! Everything here measures *real* time and therefore never enters the
//! event journal (which must stay byte-identical across same-seed
//! runs). The CLI prints this block so users can see what observability
//! itself cost: events recorded per wall-clock second and engine queue
//! high-water marks.

use std::collections::BTreeMap;
use std::time::Instant;

/// Wall-clock accounting for one campaign worker thread (the parallel
/// fuzz executor reports one entry per worker per generation).
#[derive(Debug, Default, Clone)]
struct WorkerStats {
    runs: u64,
    wall_ns: u64,
}

/// Aggregated wall-clock accounting for one run.
#[derive(Debug)]
pub struct SelfProfile {
    /// Journal events recorded (including later-evicted ones).
    pub events_recorded: u64,
    /// Engine event-queue high-water mark, reported by the engine.
    pub queue_depth_hwm: u64,
    /// Simulation events dispatched, reported by the engine.
    pub sim_events_dispatched: u64,
    /// High-water mark of concurrently live frame buffers, reported by
    /// the engine from the frame-plane ledger.
    pub peak_live_frames: u64,
    started: Instant,
    wall_ns: Option<u64>,
    workers: BTreeMap<u64, WorkerStats>,
    campaign_wall_ns: Option<u64>,
}

impl Default for SelfProfile {
    fn default() -> Self {
        SelfProfile {
            events_recorded: 0,
            queue_depth_hwm: 0,
            sim_events_dispatched: 0,
            peak_live_frames: 0,
            started: Instant::now(),
            wall_ns: None,
            workers: BTreeMap::new(),
            campaign_wall_ns: None,
        }
    }
}

impl SelfProfile {
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

    /// Total simulations executed across all workers.
    pub fn total_worker_runs(&self) -> u64 {
        self.workers.values().map(|w| w.runs).sum()
    }

    /// Freeze the campaign's end-to-end wall clock (idempotent).
    pub fn set_campaign_wall_ns(&mut self, wall_ns: u64) {
        if self.campaign_wall_ns.is_none() {
            self.campaign_wall_ns = Some(wall_ns);
        }
    }

    /// Freeze the total wall-clock duration (idempotent; first call wins).
    pub fn finish(&mut self) {
        if self.wall_ns.is_none() {
            self.wall_ns = Some(self.started.elapsed().as_nanos() as u64);
        }
    }

    fn total_wall_ns(&self) -> u64 {
        self.wall_ns
            .unwrap_or_else(|| self.started.elapsed().as_nanos() as u64)
    }

    /// Render as JSON (wall-clock numbers; excluded from the journal).
    pub fn to_json(&self) -> serde_json::Value {
        let wall_ns = self.total_wall_ns();
        let secs = wall_ns as f64 / 1e9;
        let mut m = serde_json::Map::new();
        m.insert("wall_ns", serde_json::Value::from(wall_ns));
        m.insert("events_recorded", serde_json::Value::from(self.events_recorded));
        m.insert(
            "events_per_sec",
            serde_json::Value::from(if secs > 0.0 {
                self.events_recorded as f64 / secs
            } else {
                0.0
            }),
        );
        m.insert(
            "sim_events_dispatched",
            serde_json::Value::from(self.sim_events_dispatched),
        );
        m.insert("queue_depth_hwm", serde_json::Value::from(self.queue_depth_hwm));
        m.insert(
            "peak_live_frames",
            serde_json::Value::from(self.peak_live_frames),
        );
        if !self.workers.is_empty() {
            let mut workers = serde_json::Map::new();
            for (id, w) in &self.workers {
                let wsecs = w.wall_ns as f64 / 1e9;
                let mut wj = serde_json::Map::new();
                wj.insert("runs", serde_json::Value::from(w.runs));
                wj.insert("wall_ns", serde_json::Value::from(w.wall_ns));
                wj.insert(
                    "runs_per_sec",
                    serde_json::Value::from(if wsecs > 0.0 {
                        w.runs as f64 / wsecs
                    } else {
                        0.0
                    }),
                );
                workers.insert(id.to_string(), serde_json::Value::Object(wj));
            }
            m.insert("workers", serde_json::Value::Object(workers));
        }
        if let Some(cw) = self.campaign_wall_ns {
            let csecs = cw as f64 / 1e9;
            let runs = self.total_worker_runs();
            let mut cj = serde_json::Map::new();
            cj.insert("wall_ns", serde_json::Value::from(cw));
            cj.insert("runs", serde_json::Value::from(runs));
            cj.insert(
                "runs_per_sec",
                serde_json::Value::from(if csecs > 0.0 { runs as f64 / csecs } else { 0.0 }),
            );
            m.insert("campaign", serde_json::Value::Object(cj));
        }
        serde_json::Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_and_campaign_stats_export() {
        let mut p = SelfProfile::default();
        p.record_worker(0, 5, 1_000_000_000);
        p.record_worker(0, 5, 1_000_000_000);
        p.record_worker(1, 3, 500_000_000);
        p.set_campaign_wall_ns(2_000_000_000);
        p.set_campaign_wall_ns(9); // idempotent: first call wins
        assert_eq!(p.worker_runs(0), 10);
        assert_eq!(p.total_worker_runs(), 13);
        let j = p.to_json();
        assert_eq!(j["workers"]["0"]["runs"], 10u64);
        assert_eq!(j["workers"]["0"]["runs_per_sec"].as_f64().unwrap(), 5.0);
        assert_eq!(j["workers"]["1"]["wall_ns"], 500_000_000u64);
        assert_eq!(j["campaign"]["wall_ns"], 2_000_000_000u64);
        assert_eq!(j["campaign"]["runs"], 13u64);
    }

    #[test]
    fn finish_freezes_wall_clock() {
        let mut p = SelfProfile::default();
        p.finish();
        let a = p.to_json()["wall_ns"].clone();
        let b = p.to_json()["wall_ns"].clone();
        assert_eq!(a, b);
    }
}
