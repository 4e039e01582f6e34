//! The six workloads: how each turns `--seed` into input files, which
//! `lumina-cli` command line is one operation, and what a correct
//! operation looks like.
//!
//! The harness only writes files; the program under test only reads them.
//! The seed places the injected events and sets `network.seed` (QPNs,
//! PSNs, RSS ports). It never changes the amount of traffic and it does
//! not reach the campaign PRNGs (chaos schedules, fuzz mutations, quirk
//! draws), so a workload costs the same on every seed and runs on
//! different seeds can be compared.

use lumina_sim::SimRng;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RunPackets,
    RunTimers,
    Ingest,
    Soak,
    Fuzz,
    Matrix,
}

pub const ALL: [Kind; 6] = [
    Kind::RunPackets,
    Kind::RunTimers,
    Kind::Ingest,
    Kind::Soak,
    Kind::Fuzz,
    Kind::Matrix,
];

// ---- sizing (see README.md for the measurements behind each number) ----

/// `run_packets`: 8 QPs × 16 × 256 KiB WRITE at MTU 1024 ≈ 33 k mirrored
/// packets, ≈ 5 engine events per packet.
const PACKETS_QPS: u32 = 8;
const PACKETS_MSGS: u32 = 16;
const PACKETS_MSG_BYTES: u32 = 262_144;
/// `run_timers`: 256 DCQCN QPs × 2 × 4 KiB, one CE mark each ≈ 468 k
/// events of which 98 % are timers, 2.8 k mirrored packets.
const TIMERS_QPS: u32 = 256;
const TIMERS_MSGS: u32 = 2;
const TIMERS_MSG_BYTES: u32 = 4096;
/// `ingest`: the `run_packets` shape with 128 messages per QP, exported
/// once ≈ 263 k records / 19.5 MB of pcap.
const INGEST_MSGS: u32 = 128;
/// `soak`: scenarios per preset (× 4 presets = runs per operation).
pub const SOAK_SCENARIOS: u32 = 2;
pub const SOAK_PRESETS: u32 = 4;
/// `fuzz`: generations × batch = candidates per operation.
pub const FUZZ_GENERATIONS: u32 = 8;
pub const FUZZ_BATCH: u32 = 16;
/// `matrix`: the five registry devices × {pristine, quirked}.
pub const MATRIX_CELLS: u32 = 10;

const MTU: u32 = 1024;

/// Everything one set-up leaves on disk, plus what the checks need.
pub struct Inputs {
    /// The config the per-layer replays are sized from (for campaigns,
    /// the base / first preset).
    pub primary_yaml: String,
    pub primary_path: PathBuf,
    /// Command line of one operation. The campaigns run on one worker:
    /// on the two-vCPU sandbox the second vCPU comes and goes, and a
    /// two-worker sweep's wall swung 14 % between runs of the same code.
    /// Their parallel path is measured by the traced run instead.
    pub op_args: Vec<String>,
}

/// One injected event per listed connection. The seed picks *which
/// message* of the connection is hit; the offset inside the message is
/// fixed per event slot. Every message of a connection is the same size,
/// so the recovery a drop triggers costs the same wherever it lands.
/// Drops stay out of the last message: a tail drop recovers by timeout
/// instead of NACK, which moves the simulated end time by a whole RTO.
fn events(rng: &mut SimRng, kinds: &[(&str, u32)], msgs: u32, pkts_per_msg: u32) -> String {
    let mut out = String::new();
    for (slot, &(kind, qpn)) in kinds.iter().enumerate() {
        let last = if kind == "drop" {
            msgs.saturating_sub(2)
        } else {
            msgs - 1
        };
        let msg = rng.range_inclusive(0, u64::from(last)) as u32;
        let offset = 1 + (pkts_per_msg / 2 + slot as u32) % pkts_per_msg;
        let psn = msg * pkts_per_msg + offset;
        out.push_str(&format!(
            "    - {{qpn: {qpn}, psn: {psn}, type: {kind}, iter: 1}}\n"
        ));
    }
    out
}

fn write_heavy_yaml(seed: u64, msgs: u32) -> String {
    let mut rng = SimRng::seed_from_u64(seed);
    let per_msg = PACKETS_MSG_BYTES / MTU;
    let ev = events(
        &mut rng,
        &[
            ("drop", 1),
            ("drop", 2),
            ("drop", 3),
            ("drop", 4),
            ("ecn", 5),
            ("ecn", 6),
            ("ecn", 7),
            ("ecn", 8),
        ],
        msgs,
        per_msg,
    );
    format!(
        "requester: {{ nic-type: cx6 }}\n\
         responder: {{ nic-type: cx6, dcqcn-np-enable: true }}\n\
         traffic:\n  num-connections: {PACKETS_QPS}\n  rdma-verb: write\n  \
         num-msgs-per-qp: {msgs}\n  mtu: {MTU}\n  message-size: {PACKETS_MSG_BYTES}\n  \
         data-pkt-events:\n{ev}network:\n  seed: {seed}\n"
    )
}

fn timers_yaml(seed: u64) -> String {
    let mut rng = SimRng::seed_from_u64(seed);
    let per_msg = TIMERS_MSG_BYTES / MTU;
    let kinds: Vec<(&str, u32)> = (1..=TIMERS_QPS).map(|qpn| ("ecn", qpn)).collect();
    let ev = events(&mut rng, &kinds, TIMERS_MSGS, per_msg);
    format!(
        "requester: {{ nic-type: cx6, dcqcn-rp-enable: true }}\n\
         responder: {{ nic-type: cx6, dcqcn-np-enable: true }}\n\
         traffic:\n  num-connections: {TIMERS_QPS}\n  rdma-verb: write\n  \
         num-msgs-per-qp: {TIMERS_MSGS}\n  mtu: {MTU}\n  message-size: {TIMERS_MSG_BYTES}\n  \
         data-pkt-events:\n{ev}network:\n  seed: {seed}\n"
    )
}

/// The four small soak presets: WRITE+drop, READ+drop (fig11-style),
/// SEND+recv and DCQCN+ECN. Horizons are 2 ms so the generated chaos
/// windows (5–30 % of the horizon) land on live traffic; the fast RTO
/// (`min-retransmit-timeout: 5` ≈ 131 µs) lets most schedules recover.
fn soak_presets(seed: u64) -> [(&'static str, String); 4] {
    let mut rng = SimRng::seed_from_u64(seed);
    let tail = format!("network:\n  seed: {seed}\n  horizon-ms: 2\n");
    let write = format!(
        "requester: {{ nic-type: cx4 }}\nresponder: {{ nic-type: cx4 }}\n\
         traffic:\n  num-connections: 4\n  rdma-verb: write\n  num-msgs-per-qp: 12\n  \
         mtu: {MTU}\n  message-size: 65536\n  min-retransmit-timeout: 5\n  data-pkt-events:\n{}{tail}",
        events(&mut rng, &[("drop", 1), ("drop", 3)], 12, 64),
    );
    let read = format!(
        "requester: {{ nic-type: cx4 }}\nresponder: {{ nic-type: cx4 }}\n\
         traffic:\n  num-connections: 12\n  rdma-verb: read\n  num-msgs-per-qp: 12\n  \
         mtu: {MTU}\n  message-size: 20480\n  min-retransmit-timeout: 5\n  data-pkt-events:\n{}{tail}",
        events(&mut rng, &[("drop", 1), ("drop", 2), ("drop", 3)], 12, 20),
    );
    let send = format!(
        "requester: {{ nic-type: cx5 }}\nresponder: {{ nic-type: cx5 }}\n\
         traffic:\n  num-connections: 4\n  rdma-verb: send\n  num-msgs-per-qp: 48\n  \
         mtu: {MTU}\n  message-size: 32768\n  min-retransmit-timeout: 5\n  data-pkt-events:\n{}{tail}",
        events(&mut rng, &[("drop", 2)], 48, 32),
    );
    let dcqcn = format!(
        "requester: {{ nic-type: cx6, dcqcn-rp-enable: true }}\n\
         responder: {{ nic-type: cx6, dcqcn-np-enable: true }}\n\
         traffic:\n  num-connections: 4\n  rdma-verb: write\n  num-msgs-per-qp: 24\n  \
         mtu: {MTU}\n  message-size: 65536\n  min-retransmit-timeout: 5\n  data-pkt-events:\n{}{tail}",
        events(&mut rng, &[("ecn", 1), ("ecn", 2), ("ecn", 3)], 24, 64),
    );
    [
        ("a_write_drop", write),
        ("b_read_drop", read),
        ("c_send_recv", send),
        ("d_dcqcn_ecn", dcqcn),
    ]
}

/// Base of the `fuzz` and `matrix` campaigns: a small lossy, marked WRITE
/// scenario with a mild quirk overlay, so the conformance oracle has
/// classes to find (fuzz coverage) and the matrix runs quirked twins.
/// DCQCN's reaction point stays off: an RP alpha timer can idle to the
/// horizon and make the run's event count bimodal across seeds. The
/// quirk plane's own seed is fixed: its draws decide how many ACKs vanish
/// and so how much is retransmitted, which must not follow `--seed`.
fn campaign_base_yaml(seed: u64, msgs: u32, msg_bytes: u32) -> String {
    let mut rng = SimRng::seed_from_u64(seed);
    let per_msg = msg_bytes / MTU;
    let ev = events(&mut rng, &[("drop", 1), ("ecn", 2)], msgs, per_msg);
    format!(
        "requester: {{ nic-type: cx6 }}\n\
         responder: {{ nic-type: cx6, dcqcn-np-enable: true }}\n\
         traffic:\n  num-connections: 4\n  rdma-verb: write\n  num-msgs-per-qp: {msgs}\n  \
         mtu: {MTU}\n  message-size: {msg_bytes}\n  data-pkt-events:\n{ev}\
         network:\n  seed: {seed}\n\
         quirks:\n  seed: 99\n  wrong-ack-psn-prob: 0.05\n  ack-drop-prob: 0.02\n  \
         cnp-suppress-prob: 0.5\n  gbn-off-by-one-prob: 0.1\n"
    )
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn strs(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_string()).collect()
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::RunPackets => "run_packets",
            Kind::RunTimers => "run_timers",
            Kind::Ingest => "ingest",
            Kind::Soak => "soak",
            Kind::Fuzz => "fuzz",
            Kind::Matrix => "matrix",
        }
    }

    /// True when one operation is one live run of the primary config.
    pub fn is_live_run(self) -> bool {
        matches!(self, Kind::RunPackets | Kind::RunTimers)
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Exit codes a correct operation may end with. `soak` exits 11 when
    /// the recovery oracle proves a wedge under one of its generated
    /// schedules — a verdict, not a failed operation (see README.md).
    pub fn expected_exit(self) -> &'static [i32] {
        match self {
            Kind::Soak => &[0, 11],
            _ => &[0],
        }
    }

    /// Work items in one operation and their unit, for the diagnostic
    /// throughput line (`work ÷ median wall`). Input-defined, so the rate
    /// is exactly reciprocal to `op_wall_ms`.
    pub fn planned_work(self, pcap_bytes: u64) -> (f64, &'static str) {
        match self {
            Kind::RunPackets => (f64::from(PACKETS_QPS * PACKETS_MSGS), "msgs/s"),
            Kind::RunTimers => (f64::from(TIMERS_QPS * TIMERS_MSGS), "msgs/s"),
            Kind::Ingest => (pcap_bytes as f64 / 1e6, "MB/s"),
            Kind::Soak => (f64::from(SOAK_PRESETS * SOAK_SCENARIOS), "runs/s"),
            Kind::Fuzz => (f64::from(FUZZ_GENERATIONS * FUZZ_BATCH), "runs/s"),
            Kind::Matrix => (f64::from(MATRIX_CELLS), "cells/s"),
        }
    }

    /// Data packets the ingest export is planned to produce (before
    /// retransmissions and ACKs): the ±1 % shape invariant's anchor.
    pub fn planned_ingest_records() -> u64 {
        // Every data packet and, at MTU 1024 on these devices, one ACK
        // per message are mirrored.
        let data = u64::from(PACKETS_QPS * INGEST_MSGS * (PACKETS_MSG_BYTES / MTU));
        data + u64::from(PACKETS_QPS * INGEST_MSGS)
    }

    /// Write this workload's input files for `seed` into `dir` (which
    /// exists and is empty).
    pub fn generate(self, seed: u64, dir: &Path) -> Result<Inputs, String> {
        let p = |name: &str| dir.join(name);
        let s = |path: &Path| path.display().to_string();
        match self {
            Kind::RunPackets | Kind::RunTimers => {
                let yaml = if self == Kind::RunPackets {
                    write_heavy_yaml(seed, PACKETS_MSGS)
                } else {
                    timers_yaml(seed)
                };
                let cfg = p("config.yaml");
                write_file(&cfg, &yaml)?;
                let op_args = vec![s(&cfg), "--json".into()];
                Ok(Inputs {
                    primary_yaml: yaml,
                    primary_path: cfg,
                    op_args,
                })
            }
            Kind::Ingest => {
                let yaml = write_heavy_yaml(seed, INGEST_MSGS);
                let cfg = p("config.yaml");
                write_file(&cfg, &yaml)?;
                let pcap = s(&p("capture.pcap"));
                // 8 192-entry chunks instead of the default 65 536: the
                // default first-touches 24 MB in a 0.1 s operation, and on
                // the sandbox the cost of those 6 000 page faults swings
                // 10×, taking the operation's wall with it (± 25 %).
                // Smaller chunks also seal 33 of them instead of 5.
                let op_args = vec![
                    "ingest".into(),
                    "--pcap".into(),
                    pcap,
                    "--config".into(),
                    s(&cfg),
                    "--chunk-events".into(),
                    "8192".into(),
                    "--json".into(),
                ];
                Ok(Inputs {
                    primary_yaml: yaml,
                    primary_path: cfg,
                    op_args,
                })
            }
            Kind::Soak => {
                let presets = p("presets");
                std::fs::create_dir(&presets).map_err(|e| format!("{}: {e}", s(&presets)))?;
                let files = soak_presets(seed);
                for (stem, yaml) in &files {
                    write_file(&presets.join(format!("{stem}.yaml")), yaml)?;
                }
                let mut op_args = strs(&["soak", "--configs"]);
                op_args.push(s(&presets));
                // The schedule seed is fixed: different chaos schedules
                // are different amounts of retransmission (± 10 % wall),
                // and cost must not follow `--seed`.
                op_args.extend(strs(&[
                    "--scenarios",
                    &SOAK_SCENARIOS.to_string(),
                    "--seed",
                    "1",
                    "--workers",
                    "1",
                    "--json",
                ]));
                Ok(Inputs {
                    primary_yaml: files[0].1.clone(),
                    primary_path: presets.join("a_write_drop.yaml"),
                    op_args,
                })
            }
            Kind::Fuzz => {
                let yaml = campaign_base_yaml(seed, 4, 16_384);
                let cfg = p("base.yaml");
                write_file(&cfg, &yaml)?;
                let mut op_args = strs(&["fuzz", "--config"]);
                op_args.push(s(&cfg));
                // --events-only keeps every candidate at the base's
                // traffic shape; without it the mutator resizes the
                // workload. No --seed: the campaign PRNG stays at its
                // default, so the same lineage of mutations is evaluated
                // on every benchmark seed and the operation's cost does
                // not follow it.
                op_args.extend(strs(&[
                    "--coverage",
                    "--no-shrink",
                    "--events-only",
                    "--workers",
                    "1",
                    "--generations",
                    &FUZZ_GENERATIONS.to_string(),
                    "--batch",
                    &FUZZ_BATCH.to_string(),
                ]));
                Ok(Inputs {
                    primary_yaml: yaml,
                    primary_path: cfg,
                    op_args,
                })
            }
            Kind::Matrix => {
                let yaml = campaign_base_yaml(seed, 8, 65_536);
                let cfg = p("base.yaml");
                write_file(&cfg, &yaml)?;
                let mut op_args = strs(&["matrix", "--config"]);
                op_args.push(s(&cfg));
                op_args.extend(strs(&["--workers", "1", "--json"]));
                Ok(Inputs {
                    primary_yaml: yaml,
                    primary_path: cfg,
                    op_args,
                })
            }
        }
    }
}

fn json(stdout: &[u8]) -> Result<serde_json::Value, String> {
    let text = std::str::from_utf8(stdout).map_err(|e| format!("stdout is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("stdout is not JSON: {e}"))
}

fn u(v: &serde_json::Value, path: &[&str]) -> Result<u64, String> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("report has no {}", path.join(".")))?;
    }
    cur.as_u64()
        .ok_or_else(|| format!("report {} is not a count", path.join(".")))
}

fn require(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// What the reference operation of a live run revealed about its shape.
struct LiveShape {
    events: u64,
    timers_fired: u64,
    mirrored: u64,
}

fn live_shape(report: &serde_json::Value) -> Result<LiveShape, String> {
    Ok(LiveShape {
        events: u(report, &["telemetry", "global", "engine", "events"])?,
        timers_fired: u(report, &["telemetry", "global", "engine", "timers_fired"])?,
        mirrored: u(report, &["switch", "mirrored_total"])?,
    })
}

fn live_ok(report: &serde_json::Value) -> Result<(), String> {
    for key in ["traffic_completed", "integrity_passed"] {
        require(
            report.get(key).and_then(|v| v.as_bool()) == Some(true),
            || format!("{key} is not true"),
        )?;
    }
    Ok(())
}

impl Kind {
    /// Semantic check of the reference operation's output, plus the
    /// workload-shape invariants: a seed must not silently change which
    /// layer a workload stresses. `exported` is the packet count the
    /// ingest set-up wrote (0 for the other workloads); `stderr` is the
    /// reference operation's stderr.
    pub fn check_reference(self, stdout: &[u8], stderr: &str, exported: u64) -> Result<(), String> {
        match self {
            Kind::RunPackets => {
                let report = json(stdout)?;
                live_ok(&report)?;
                let s = live_shape(&report)?;
                require(s.mirrored > 0 && s.events <= 8 * s.mirrored, || {
                    format!(
                        "shape: run_packets must be packet-dense, got {} events for {} mirrored packets (> 8 per packet)",
                        s.events, s.mirrored
                    )
                })
            }
            Kind::RunTimers => {
                let report = json(stdout)?;
                live_ok(&report)?;
                let s = live_shape(&report)?;
                require(s.timers_fired as f64 >= 0.95 * s.events as f64, || {
                    format!(
                            "shape: run_timers must be timer-dominated, got {} timers of {} events (< 95 %)",
                            s.timers_fired, s.events
                        )
                })?;
                require(s.mirrored > 0 && s.events >= 100 * s.mirrored, || {
                    format!(
                        "shape: run_timers must be packet-sparse, got {} events for {} mirrored packets (< 100 per packet)",
                        s.events, s.mirrored
                    )
                })
            }
            Kind::Ingest => {
                let report = json(stdout)?;
                let records = u(&report, &["records"])?;
                require(records == exported, || {
                    format!("ingest read {records} records, the export wrote {exported}")
                })?;
                let plan = Kind::planned_ingest_records();
                require(records.abs_diff(plan) * 100 <= plan, || {
                    format!("shape: ingest capture holds {records} records, plan is {plan} ± 1 %")
                })?;
                require(
                    report
                        .get("conformance")
                        .and_then(|c| c.get("compliant"))
                        .and_then(|v| v.as_bool())
                        == Some(true),
                    || "ingest verdict is not compliant".to_string(),
                )
            }
            Kind::Soak => {
                let report = json(stdout)?;
                let planned = u64::from(SOAK_PRESETS * SOAK_SCENARIOS);
                let ran = report
                    .get("scenarios")
                    .and_then(|s| s.as_array())
                    .map_or(0, |a| a.len() as u64);
                require(ran == planned, || {
                    format!("soak ran {ran} scenarios, planned {planned}")
                })?;
                require(u(&report, &["errors"])? == 0, || {
                    "soak scenarios failed to run".to_string()
                })
            }
            Kind::Fuzz => {
                // `fuzz: N scored, R rejected, …` on stderr.
                let planned = u64::from(FUZZ_GENERATIONS * FUZZ_BATCH);
                let line = stderr
                    .lines()
                    .find(|l| l.starts_with("fuzz: ") && l.contains(" scored, "))
                    .ok_or("fuzz printed no campaign summary")?;
                let nums: Vec<u64> = line
                    .split(|c: char| !c.is_ascii_digit())
                    .filter_map(|t| t.parse().ok())
                    .collect();
                require(nums.len() >= 2 && nums[0] + nums[1] == planned, || {
                    format!("fuzz evaluated {line:?}, planned {planned} candidates")
                })?;
                require(nums[1] == 0, || format!("fuzz rejected candidates: {line}"))
            }
            Kind::Matrix => {
                let report = json(stdout)?;
                let cells = report
                    .get("cells")
                    .and_then(|c| c.as_array())
                    .ok_or("matrix report has no cells")?;
                require(cells.len() as u64 == u64::from(MATRIX_CELLS), || {
                    format!("matrix ran {} cells, planned {MATRIX_CELLS}", cells.len())
                })?;
                require(
                    cells
                        .iter()
                        .all(|c| c.get("error").is_none_or(|e| e.is_null())),
                    || "matrix has error cells".to_string(),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in ALL {
            assert_eq!(Kind::from_name(k.name()), Some(k));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_and_every_config_validates() {
        use lumina_core::config::TestConfig;
        let check = |yaml: &str| {
            TestConfig::from_yaml(yaml)
                .and_then(|c| c.validate())
                .unwrap_or_else(|e| panic!("{e}\n{yaml}"));
        };
        for seed in [1u64, 7, 123_456_789] {
            assert_eq!(write_heavy_yaml(seed, 16), write_heavy_yaml(seed, 16));
            check(&write_heavy_yaml(seed, PACKETS_MSGS));
            check(&timers_yaml(seed));
            check(&campaign_base_yaml(seed, 4, 16_384));
            for (_, yaml) in soak_presets(seed) {
                check(&yaml);
            }
        }
        assert_ne!(timers_yaml(1), timers_yaml(2));
    }
}
