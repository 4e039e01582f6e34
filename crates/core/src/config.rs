//! Test configuration: the YAML schema of Listings 1 and 2 of the paper,
//! plus a `network` section describing the simulated substrate (which the
//! real Lumina gets from physical hardware).

use crate::error::Error;
use lumina_rnic::Verb;
use lumina_sim::SimTime;
use serde::{Deserialize, Serialize};

/// NIC settings of one host (Listing 1's `nic` + `roce-parameters`).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct HostConfig {
    /// NIC model: `cx4`, `cx5`, `cx6`, `e810`.
    pub nic_type: String,
    /// DCQCN reaction point (rate reduction on CNPs) enabled.
    #[serde(default)]
    pub dcqcn_rp_enable: bool,
    /// DCQCN notification point (CNP generation) enabled.
    #[serde(default)]
    pub dcqcn_np_enable: bool,
    /// Configured minimum interval between CNPs, in microseconds.
    #[serde(default)]
    pub min_time_between_cnps_us: u64,
    /// NVIDIA adaptive retransmission.
    #[serde(default)]
    pub adaptive_retrans: bool,
    /// Ablation override: replace the profile's recovery-context count
    /// (the CX4 Lx noisy-neighbor knob).
    #[serde(default)]
    pub override_recovery_contexts: Option<usize>,
    /// Ablation override: force ETS work conservation on/off ("fix" the
    /// CX6 Dx or break a healthy NIC).
    #[serde(default)]
    pub override_ets_work_conserving: Option<bool>,
    /// Ablation override: APM slow-path queue capacity (the CX5 interop
    /// knob).
    #[serde(default)]
    pub override_apm_queue_capacity: Option<usize>,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            nic_type: "cx5".into(),
            dcqcn_rp_enable: false,
            dcqcn_np_enable: false,
            min_time_between_cnps_us: 4,
            adaptive_retrans: false,
            override_recovery_contexts: None,
            override_ets_work_conserving: None,
            override_apm_queue_capacity: None,
        }
    }
}

impl HostConfig {
    /// Resolve the device profile with any ablation overrides applied.
    pub fn resolved_profile(&self) -> Option<lumina_rnic::DeviceProfile> {
        let mut p = lumina_rnic::DeviceProfile::by_name(&self.nic_type)?;
        self.apply_overrides(&mut p);
        Some(p)
    }

    /// Apply this host's ablation overrides to an already-resolved profile
    /// (the `device:` section path resolves through the registry first).
    pub fn apply_overrides(&self, p: &mut lumina_rnic::DeviceProfile) {
        if let Some(n) = self.override_recovery_contexts {
            match p.noisy_neighbor.as_mut() {
                Some(m) => m.recovery_contexts = n,
                None => {
                    p.noisy_neighbor = Some(lumina_rnic::profile::NoisyNeighborModel {
                        recovery_contexts: n,
                    })
                }
            }
        }
        if let Some(wc) = self.override_ets_work_conserving {
            p.ets_work_conserving = wc;
        }
        if let Some(cap) = self.override_apm_queue_capacity {
            if let Some(apm) = p.apm_slowpath_on_migreq0.as_mut() {
                apm.queue_capacity = cap;
            }
        }
    }
}

/// One injection event (Listing 2's `data-pkt-events` entries). QPN and
/// PSN are *relative*: `qpn: 1` is the first connection, `psn: 4` the
/// fourth data packet, `iter: 2` its first retransmission.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct EventSpec {
    /// 1-based connection index.
    pub qpn: u32,
    /// 1-based data-packet index within the connection.
    pub psn: u32,
    /// Event type: `drop`, `ecn`, `corrupt`, `set-mig-0`, `set-mig-1`,
    /// `delay`, `reorder` (the last two implement §7's future-work list).
    pub r#type: String,
    /// 1-based transmission round (1 = first transmission).
    #[serde(default = "one")]
    pub iter: u32,
    /// Extension: repeat the event every `every` data packets starting at
    /// `psn` (used for "mark one of every 50 packets" scenarios like the
    /// Figure 10 ETS experiment). 0 = no repetition.
    #[serde(default)]
    pub every: u32,
    /// For `type: delay` — extra hold time in microseconds.
    #[serde(default)]
    pub delay_us: u64,
    /// For `type: reorder` — release the packet after this many subsequent
    /// data packets of the connection have passed.
    #[serde(default = "one")]
    pub reorder_by: u32,
}

fn one() -> u32 {
    1
}

/// Traffic shape (Listing 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct TrafficConfig {
    /// Number of QP connections.
    pub num_connections: u32,
    /// Verb: `write`, `read` or `send` — or a `+`-separated combination
    /// (e.g. `send+read`), cycled across messages, which generates the
    /// bi-directional data traffic §3.2 describes.
    pub rdma_verb: String,
    /// Messages per QP.
    pub num_msgs_per_qp: u32,
    /// Path MTU.
    pub mtu: u32,
    /// Message size in bytes.
    pub message_size: u32,
    /// Give each connection its own source IP (GID), emulating traffic
    /// from multiple hosts.
    #[serde(default)]
    pub multi_gid: bool,
    /// Barrier synchronization across QPs.
    #[serde(default)]
    pub barrier_sync: bool,
    /// Maximum outstanding messages per QP.
    #[serde(default = "one")]
    pub tx_depth: u32,
    /// IB timeout code (`4.096 µs × 2^code`).
    #[serde(default = "default_timeout")]
    pub min_retransmit_timeout: u8,
    /// IB retry count.
    #[serde(default = "default_retry")]
    pub max_retransmit_retry: u32,
    /// Events to inject on data packets.
    #[serde(default)]
    pub data_pkt_events: Vec<EventSpec>,
    /// ETS traffic class of each connection (index into `ets.queues`);
    /// empty = all class 0.
    #[serde(default)]
    pub qp_traffic_class: Vec<usize>,
}

fn default_timeout() -> u8 {
    14
}
fn default_retry() -> u32 {
    7
}

impl TrafficConfig {
    /// Primary verb: the first of the (possibly combined) verb list. Event
    /// intents target this verb's data direction.
    pub fn verb(&self) -> Result<Verb, Error> {
        Ok(self.verbs()?[0])
    }

    /// All verbs of the (possibly `+`-combined) `rdma-verb` field.
    pub fn verbs(&self) -> Result<Vec<Verb>, Error> {
        let out: Result<Vec<Verb>, Error> = self
            .rdma_verb
            .split('+')
            .map(|part| {
                Verb::from_config_str(part.trim())
                    .ok_or_else(|| Error::config(format!("unknown rdma-verb {part:?}")))
            })
            .collect();
        let out = out?;
        if out.is_empty() {
            return Err(Error::config("empty rdma-verb"));
        }
        Ok(out)
    }

    /// Data packets per message at this MTU. A zero MTU (caught by
    /// validation, but callable before it) counts as one packet per
    /// message rather than dividing by zero.
    pub fn pkts_per_msg(&self) -> u32 {
        if self.message_size == 0 || self.mtu == 0 {
            1
        } else {
            self.message_size.div_ceil(self.mtu)
        }
    }
}

/// One ETS queue (traffic class).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct EtsQueueConfig {
    /// Weight among non-strict queues.
    pub weight: u32,
    /// Strict priority.
    #[serde(default)]
    pub strict: bool,
}

/// ETS configuration (defaults to one best-effort queue).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct EtsSection {
    /// The queues.
    pub queues: Vec<EtsQueueConfig>,
}

impl Default for EtsSection {
    fn default() -> Self {
        EtsSection {
            queues: vec![EtsQueueConfig {
                weight: 100,
                strict: false,
            }],
        }
    }
}

/// Which switch program runs — the Figure 7 variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
#[derive(Default)]
pub enum SwitchMode {
    /// Full Lumina: injection + mirroring.
    #[default]
    Lumina,
    /// Lumina without mirroring ("Lumina-nm").
    LuminaNm,
    /// Lumina without event injection ("Lumina-ne").
    LuminaNe,
    /// Plain L2 forwarding baseline.
    L2Forward,
}

/// The simulated substrate (our stand-in for the physical testbed).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct NetworkConfig {
    /// Deterministic seed; same seed + same config = identical trace.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// One-way propagation delay per link, nanoseconds.
    #[serde(default = "default_prop")]
    pub propagation_delay_ns: u64,
    /// Number of traffic-dumper hosts.
    #[serde(default = "default_dumpers")]
    pub num_dumpers: usize,
    /// CPU cores per dumper.
    #[serde(default = "default_cores")]
    pub dumper_cores: usize,
    /// Per-core dumper service rate, packets per second.
    #[serde(default = "default_core_rate")]
    pub dumper_core_rate_pps: u64,
    /// Switch program variant.
    #[serde(default)]
    pub switch_mode: SwitchMode,
    /// Disable the switch's UDP-port randomization for dumper RSS (the
    /// §3.4 ablation).
    #[serde(default)]
    pub no_dport_randomization: bool,
    /// Mirror per ingress port instead of WRR pooling (the §3.4 ablation).
    #[serde(default)]
    pub per_port_mirroring: bool,
    /// Simulation horizon in milliseconds (safety stop).
    #[serde(default = "default_horizon")]
    pub horizon_ms: u64,
    /// Per-core dumper RX ring capacity, packets.
    #[serde(default = "default_ring_capacity")]
    pub dumper_ring_capacity: usize,
    /// Watchdog: abort the run (exit code 7) after this many simulation
    /// events. Absent = the engine's own 500 M safety limit.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_events: Option<u64>,
    /// Watchdog: abort the run (exit code 7) after this much host wall
    /// time, milliseconds. Absent = no wall-clock limit.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_wall_ms: Option<u64>,
}

fn default_seed() -> u64 {
    1
}
fn default_prop() -> u64 {
    500
}
fn default_dumpers() -> usize {
    3
}
fn default_cores() -> usize {
    8
}
fn default_core_rate() -> u64 {
    2_500_000
}
fn default_horizon() -> u64 {
    30_000
}
fn default_ring_capacity() -> usize {
    1024
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            seed: default_seed(),
            propagation_delay_ns: default_prop(),
            num_dumpers: default_dumpers(),
            dumper_cores: default_cores(),
            dumper_core_rate_pps: default_core_rate(),
            switch_mode: SwitchMode::default(),
            no_dport_randomization: false,
            per_port_mirroring: false,
            horizon_ms: default_horizon(),
            dumper_ring_capacity: default_ring_capacity(),
            max_events: None,
            max_wall_ms: None,
        }
    }
}

/// A dumper core stall in the `faults:` section: for `duration-us` starting
/// at `at-us`, the affected dumper's service loop runs `slowdown`× slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct StallSpec {
    /// Which dumper host (0-based); absent = every dumper.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub index: Option<usize>,
    /// Stall start, microseconds of simulation time.
    pub at_us: u64,
    /// Stall length, microseconds (≥ 1).
    pub duration_us: u64,
    /// Service-interval multiplier (≥ 1).
    #[serde(default = "default_slowdown")]
    pub slowdown: u32,
}

fn default_slowdown() -> u32 {
    10
}

/// A mid-run node outage in the `faults:` section: the node loses arriving
/// frames and defers its timers until the window ends (freeze + restart).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct FreezeSpec {
    /// Which node: `requester`, `responder`, `switch` or `dumper`.
    pub node: String,
    /// For `node: dumper` — which dumper host (0-based).
    #[serde(default)]
    pub index: usize,
    /// Freeze start, microseconds of simulation time.
    pub at_us: u64,
    /// Outage length, microseconds (≥ 1).
    pub duration_us: u64,
}

/// Deterministic infrastructure fault injection (`faults:`). Absent — the
/// default — means a pristine testbed and byte-identical behavior to every
/// pre-fault-plane release.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct FaultsSection {
    /// Fault-schedule seed; absent = derived from `network.seed`. Separate
    /// so campaigns can sweep fault schedules while holding the workload
    /// fixed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Probability each switch→dumper mirror copy is dropped in flight.
    #[serde(default)]
    pub mirror_loss_prob: f64,
    /// Probability each switch→dumper mirror copy is delivered twice.
    #[serde(default)]
    pub mirror_dup_prob: f64,
    /// Probability each stored capture has one bit flipped.
    #[serde(default)]
    pub capture_bit_rot_prob: f64,
    /// Dumper core stall windows.
    #[serde(default)]
    pub dumper_stalls: Vec<StallSpec>,
    /// Node freeze/restart windows.
    #[serde(default)]
    pub freezes: Vec<FreezeSpec>,
}

impl FaultsSection {
    /// True when the section injects nothing — the orchestrator then skips
    /// building a fault plane entirely, keeping the run on the pristine
    /// code path.
    pub fn is_noop(&self) -> bool {
        self.mirror_loss_prob == 0.0
            && self.mirror_dup_prob == 0.0
            && self.capture_bit_rot_prob == 0.0
            && self.dumper_stalls.is_empty()
            && self.freezes.is_empty()
    }
}

/// DUT misbehavior injection (`quirks:`): makes the RNIC models emit
/// spec-violating traffic on demand so the conformance oracle can be
/// exercised closed-loop. Absent — the default — means spec-faithful
/// devices and byte-identical behavior to every pre-quirk release.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct QuirksSection {
    /// Quirk-schedule seed; absent = derived from `network.seed`.
    /// Separate so campaigns can sweep misbehavior while holding the
    /// workload fixed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Probability an ACK carries a PSN the requester never sent.
    #[serde(default)]
    pub wrong_ack_psn_prob: f64,
    /// Probability a due ACK is silently swallowed.
    #[serde(default)]
    pub ack_drop_prob: f64,
    /// Probability a due ACK is withheld and folded into the next one.
    #[serde(default)]
    pub ack_coalesce_prob: f64,
    /// Probability a spec-mandated CNP is suppressed at the NP.
    #[serde(default)]
    pub cnp_suppress_prob: f64,
    /// Probability a data packet triggers a CNP with no CE mark behind it.
    #[serde(default)]
    pub cnp_spurious_prob: f64,
    /// Probability a data packet is followed by an unprovoked duplicate
    /// of the QP's previous data packet.
    #[serde(default)]
    pub ghost_retransmit_prob: f64,
    /// Probability an AETH carries a regressed (stale) MSN.
    #[serde(default)]
    pub stale_msn_prob: f64,
    /// Probability a Go-back-N NACK names ePSN+1 instead of ePSN.
    #[serde(default)]
    pub gbn_off_by_one_prob: f64,
    /// Probability an emitted data frame carries a miscomputed ICRC.
    #[serde(default)]
    pub icrc_corrupt_prob: f64,
}

impl QuirksSection {
    /// True when the section injects nothing — the orchestrator then skips
    /// installing quirk planes entirely, keeping the run on the pristine
    /// code path (zero extra RNG draws, byte-identical reports).
    pub fn is_noop(&self) -> bool {
        !self.knobs().any()
    }

    /// The per-device knob block handed to the RNIC misbehavior plane.
    pub fn knobs(&self) -> lumina_rnic::QuirkKnobs {
        lumina_rnic::QuirkKnobs {
            wrong_ack_psn: self.wrong_ack_psn_prob,
            ack_drop: self.ack_drop_prob,
            ack_coalesce: self.ack_coalesce_prob,
            cnp_suppress: self.cnp_suppress_prob,
            cnp_spurious: self.cnp_spurious_prob,
            ghost_retransmit: self.ghost_retransmit_prob,
            stale_msn: self.stale_msn_prob,
            gbn_off_by_one: self.gbn_off_by_one_prob,
            icrc_corrupt: self.icrc_corrupt_prob,
        }
    }
}

/// Packet-lifecycle tracing (`trace:`): turns on the flight recorder so
/// every instrumented hop appends a `(trace_id, hop, sim_time)` record,
/// the report gains a `"trace"` latency dissection, and the `trace`
/// subcommand can export a Perfetto timeline. Absent — the default —
/// means no recorder, no extra report keys, and byte-identical goldens.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct TraceSection {
    /// Master switch; present-but-disabled keeps the run pristine.
    #[serde(default = "default_true")]
    pub enabled: bool,
    /// Flight-recorder ring capacity, records (oldest evicted when full).
    #[serde(default = "default_trace_capacity")]
    pub capacity: usize,
    /// Per-hop p99 latency budgets for the `latency` analyzer,
    /// microseconds — e.g. `link.ingress: 10`. Empty = no budget checks.
    #[serde(default, skip_serializing_if = "std::collections::BTreeMap::is_empty")]
    pub hop_budget_us: std::collections::BTreeMap<String, u64>,
}

impl Default for TraceSection {
    fn default() -> Self {
        TraceSection {
            enabled: true,
            capacity: default_trace_capacity(),
            hop_budget_us: std::collections::BTreeMap::new(),
        }
    }
}

impl TraceSection {
    /// True when the section records nothing — the orchestrator then
    /// leaves the recorder off, keeping the run on the pristine path.
    pub fn is_noop(&self) -> bool {
        !self.enabled
    }
}

fn default_true() -> bool {
    true
}

fn default_trace_capacity() -> usize {
    262_144
}

/// Device selection (`device:`): pick both NICs from the typed
/// [`lumina_rnic::DeviceRegistry`] by canonical name and declare which
/// registry columns `lumina-cli matrix` sweeps. Absent — the default —
/// means the per-host `nic-type` fields select the devices, byte-identical
/// to every pre-registry release (no new report keys).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct DeviceSection {
    /// Requester NIC, a registry name (`cx4`, `CX6-Dx`, `e810`, `cx8`,
    /// …). Overrides `requester.nic-type`; ablation overrides still apply.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub requester: Option<String>,
    /// Responder NIC, a registry name. Overrides `responder.nic-type`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub responder: Option<String>,
    /// Device columns for the `matrix` subcommand; empty = the whole
    /// registry.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub matrix: Vec<String>,
}

impl DeviceSection {
    /// True when the section selects nothing.
    pub fn is_noop(&self) -> bool {
        self.requester.is_none() && self.responder.is_none() && self.matrix.is_empty()
    }
}

/// A chaos window in the `chaos:` section: `[at-us, at-us + duration-us)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct ChaosWindowSpec {
    /// Window start, microseconds of simulation time.
    pub at_us: u64,
    /// Window length, microseconds (≥ 1).
    pub duration_us: u64,
}

impl ChaosWindowSpec {
    /// Lower the schema window into the sim-layer representation.
    pub fn to_window(self) -> lumina_sim::ChaosWindow {
        lumina_sim::ChaosWindow {
            from: SimTime::from_micros(self.at_us),
            until: SimTime::from_micros(self.at_us + self.duration_us),
        }
    }
}

/// A sustained seeded burst regime in the `chaos:` section: while the
/// window is open, every frame handed to the covered link independently
/// risks loss, tail-byte corruption, or a fixed reorder delay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct ChaosBurstSpec {
    /// Burst start, microseconds of simulation time.
    pub at_us: u64,
    /// Burst length, microseconds (≥ 1).
    pub duration_us: u64,
    /// Per-frame drop probability inside the window.
    #[serde(default)]
    pub loss_prob: f64,
    /// Per-frame tail-byte bit-flip probability inside the window.
    #[serde(default)]
    pub corrupt_prob: f64,
    /// Per-frame extra-delay (reorder) probability inside the window.
    #[serde(default)]
    pub reorder_prob: f64,
    /// Extra arrival delay applied to reordered frames, microseconds.
    #[serde(default = "default_reorder_delay_us")]
    pub reorder_delay_us: u64,
}

fn default_reorder_delay_us() -> u64 {
    5
}

impl ChaosBurstSpec {
    /// Lower the schema burst into the sim-layer representation.
    pub fn to_regime(self) -> lumina_sim::BurstRegime {
        lumina_sim::BurstRegime {
            window: lumina_sim::ChaosWindow {
                from: SimTime::from_micros(self.at_us),
                until: SimTime::from_micros(self.at_us + self.duration_us),
            },
            loss_prob: self.loss_prob,
            corrupt_prob: self.corrupt_prob,
            reorder_prob: self.reorder_prob,
            reorder_delay: SimTime::from_micros(self.reorder_delay_us),
        }
    }
}

/// Per-link chaos schedule in the `chaos:` section. `link` names a
/// host↔switch data link; the schedule covers both directions.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct ChaosLinkSpec {
    /// Which data link: `requester` (requester↔switch) or `responder`
    /// (responder↔switch).
    pub link: String,
    /// Link-flap windows: in-flight and arriving frames are dropped.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub flaps: Vec<ChaosWindowSpec>,
    /// PFC-style pause windows: serialization stalls, nothing drops.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub pauses: Vec<ChaosWindowSpec>,
    /// Sustained seeded loss/corruption/reorder burst regimes.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub bursts: Vec<ChaosBurstSpec>,
}

impl ChaosLinkSpec {
    /// Lower the schema schedule into the sim-layer representation.
    pub fn to_chaos(&self) -> lumina_sim::LinkChaos {
        lumina_sim::LinkChaos {
            flaps: self.flaps.iter().map(|w| w.to_window()).collect(),
            pauses: self.pauses.iter().map(|w| w.to_window()).collect(),
            bursts: self.bursts.iter().map(|b| b.to_regime()).collect(),
        }
    }
}

/// Data-path chaos injection (`chaos:`): sustained fault regimes — link
/// flaps, PFC-style pauses, seeded loss/corruption/reorder bursts — on the
/// host↔switch data links, paired with the liveness/recovery oracle.
/// Absent — the default — means a pristine data path, zero extra RNG
/// draws, and byte-identical behavior to every pre-chaos release.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct ChaosSection {
    /// Chaos-schedule seed; absent = derived from `network.seed`.
    /// Separate so soak campaigns can sweep chaos schedules while holding
    /// the workload fixed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Retransmit-amplification bound per chaos window: retransmitted
    /// frames may not exceed `limit × dropped` + a small constant slack.
    /// Absent = the recovery oracle's built-in default.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub amplification_limit: Option<f64>,
    /// Per-link chaos schedules.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub links: Vec<ChaosLinkSpec>,
}

impl ChaosSection {
    /// True when the section injects nothing — the orchestrator then skips
    /// building a chaos plane entirely, keeping the run on the pristine
    /// code path (zero extra RNG draws, byte-identical reports).
    pub fn is_noop(&self) -> bool {
        self.links.iter().all(|l| l.to_chaos().is_noop())
    }

    /// Every chaos window (flap/pause/burst) across all links, sorted —
    /// the recovery oracle keys its per-window histograms to these.
    pub fn windows(&self) -> Vec<lumina_sim::ChaosWindow> {
        let mut out: Vec<lumina_sim::ChaosWindow> = Vec::new();
        for l in &self.links {
            out.extend(l.flaps.iter().map(|w| w.to_window()));
            out.extend(l.pauses.iter().map(|w| w.to_window()));
            out.extend(l.bursts.iter().map(|b| b.to_regime().window));
        }
        out.sort_by_key(|w| (w.from, w.until));
        out.dedup();
        out
    }
}

/// Most connections one run can carry: connection `i` (1-based) sends from
/// UDP source port `49152 + i`, and 65 535 is the last port.
const MAX_CONNECTIONS: u32 = 16_383;

/// True when `value`, counted in units of `unit_ns` nanoseconds, is a time
/// [`SimTime`] can hold — the lowering into the sim layer multiplies
/// unchecked.
fn fits_clock(value: u64, unit_ns: u64) -> bool {
    value.checked_mul(unit_ns).is_some()
}

/// What is wrong with a `[at-us, at-us + duration-us)` window, if anything:
/// it must be non-empty and end at an instant that [`fits_clock`].
fn window_problem(at_us: u64, duration_us: u64) -> Option<&'static str> {
    if duration_us == 0 {
        return Some("duration-us must be ≥ 1");
    }
    match at_us.checked_add(duration_us) {
        Some(end_us) if fits_clock(end_us, 1_000) => None,
        _ => Some("at-us + duration-us does not fit the simulation clock"),
    }
}

/// A complete test configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct TestConfig {
    /// Requester host (Listing 1).
    #[serde(default)]
    pub requester: HostConfig,
    /// Responder host.
    #[serde(default)]
    pub responder: HostConfig,
    /// Traffic and events (Listing 2).
    pub traffic: TrafficConfig,
    /// ETS queues.
    #[serde(default)]
    pub ets: EtsSection,
    /// Simulated substrate.
    #[serde(default)]
    pub network: NetworkConfig,
    /// Infrastructure fault injection; absent = pristine testbed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultsSection>,
    /// DUT misbehavior injection; absent = spec-faithful devices.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub quirks: Option<QuirksSection>,
    /// Packet-lifecycle tracing; absent = recorder off, pristine report.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<TraceSection>,
    /// Registry-based device selection; absent = `nic-type` fields apply.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub device: Option<DeviceSection>,
    /// Data-path chaos injection; absent = pristine data path.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub chaos: Option<ChaosSection>,
}

impl TestConfig {
    /// Parse from YAML. Schema errors (wrong type, unknown field, missing
    /// section) surface as [`Error::Config`] naming the offending field.
    pub fn from_yaml(s: &str) -> Result<TestConfig, Error> {
        serde_yaml::from_str(s).map_err(|e| Error::config(e.to_string()))
    }

    /// Serialize to YAML.
    pub fn to_yaml(&self) -> String {
        serde_yaml::to_string(self).expect("config serializes")
    }

    /// Configured minimum CNP interval of the responder NP.
    pub fn min_cnp_interval(&self, responder_side: bool) -> SimTime {
        let host = if responder_side {
            &self.responder
        } else {
            &self.requester
        };
        SimTime::from_micros(host.min_time_between_cnps_us)
    }

    /// The device query string selecting a role's NIC: the `device:`
    /// section override when present, the host's `nic-type` otherwise.
    pub fn device_query(&self, responder_side: bool) -> &str {
        let section = self.device.as_ref().and_then(|d| {
            if responder_side {
                d.responder.as_deref()
            } else {
                d.requester.as_deref()
            }
        });
        section.unwrap_or(if responder_side {
            &self.responder.nic_type
        } else {
            &self.requester.nic_type
        })
    }

    /// Resolve a role's device through the registry (honoring the
    /// `device:` section), then apply that host's ablation overrides.
    pub fn resolved_device(&self, responder_side: bool) -> Option<lumina_rnic::DeviceProfile> {
        let reg = lumina_rnic::DeviceRegistry::builtin();
        let mut p = reg.get(self.device_query(responder_side))?;
        let host = if responder_side {
            &self.responder
        } else {
            &self.requester
        };
        host.apply_overrides(&mut p);
        Some(p)
    }

    /// Validate the configuration: the orchestrator's entry point. Every
    /// problem found is reported at once, each naming its field.
    pub fn validate(&self) -> Result<(), Error> {
        let problems = self.problems();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(Error::Config { problems })
        }
    }

    /// Basic sanity checks; returns a list of problems (empty = valid).
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.traffic.num_connections == 0 {
            problems.push("num-connections must be ≥ 1".into());
        }
        if self.traffic.num_connections > MAX_CONNECTIONS {
            problems.push(format!(
                "traffic: num-connections {} exceeds {MAX_CONNECTIONS} (one UDP source port per connection from 49152)",
                self.traffic.num_connections
            ));
        }
        if self.traffic.mtu == 0 || self.traffic.mtu > 4096 {
            problems.push(format!("mtu {} out of range (1..=4096)", self.traffic.mtu));
        }
        if self.traffic.verb().is_err() {
            problems.push(format!("unknown rdma-verb {:?}", self.traffic.rdma_verb));
        }
        // Device resolution: the `device:` section override wins per role;
        // either way an unresolvable name lists what the registry offers.
        let registry = lumina_rnic::DeviceRegistry::builtin();
        let available = registry.names().join(", ");
        for responder_side in [false, true] {
            let role = if responder_side {
                "responder"
            } else {
                "requester"
            };
            let query = self.device_query(responder_side);
            if registry.get(query).is_none() {
                problems.push(format!(
                    "unknown {role} nic {query:?} (available: {available})"
                ));
            }
        }
        if let Some(dev) = &self.device {
            for (i, name) in dev.matrix.iter().enumerate() {
                if registry.get(name).is_none() {
                    problems.push(format!(
                        "device: matrix entry {i}: unknown device {name:?} (available: {available})"
                    ));
                }
            }
        }
        if !fits_clock(self.network.horizon_ms, 1_000_000) {
            problems.push(format!(
                "network: horizon-ms {} does not fit the simulation clock",
                self.network.horizon_ms
            ));
        }
        if self.traffic.min_retransmit_timeout >= 32 {
            problems.push("min-retransmit-timeout must be a 5-bit code".into());
        }
        let ppm = self.traffic.pkts_per_msg();
        for (i, ev) in self.traffic.data_pkt_events.iter().enumerate() {
            if ev.qpn == 0 || ev.qpn > self.traffic.num_connections {
                problems.push(format!("event {i}: qpn {} out of range", ev.qpn));
            }
            if ev.psn == 0 || (ev.every == 0 && ev.psn > ppm * self.traffic.num_msgs_per_qp) {
                problems.push(format!("event {i}: psn {} out of range", ev.psn));
            }
            if ev.iter == 0 {
                problems.push(format!("event {i}: iter must be ≥ 1"));
            }
            if !matches!(
                ev.r#type.as_str(),
                "drop" | "ecn" | "corrupt" | "set-mig-0" | "set-mig-1" | "delay" | "reorder"
            ) {
                problems.push(format!("event {i}: unknown type {:?}", ev.r#type));
            }
            if ev.r#type == "delay" && ev.delay_us == 0 {
                problems.push(format!("event {i}: delay requires delay-us ≥ 1"));
            }
            if ev.r#type == "reorder" && ev.reorder_by == 0 {
                problems.push(format!("event {i}: reorder-by must be ≥ 1"));
            }
        }
        for (i, &tc) in self.traffic.qp_traffic_class.iter().enumerate() {
            if tc >= self.ets.queues.len() {
                problems.push(format!("qp {i}: traffic class {tc} out of range"));
            }
        }
        if self.network.dumper_ring_capacity == 0 {
            problems.push("dumper-ring-capacity must be ≥ 1".into());
        }
        if self.network.max_events == Some(0) {
            problems.push("max-events must be ≥ 1".into());
        }
        if let Some(faults) = &self.faults {
            let prob = |name: &str, p: f64, problems: &mut Vec<String>| {
                if !(0.0..=1.0).contains(&p) {
                    problems.push(format!("faults: {name} {p} not a probability"));
                }
            };
            prob("mirror-loss-prob", faults.mirror_loss_prob, &mut problems);
            prob("mirror-dup-prob", faults.mirror_dup_prob, &mut problems);
            prob(
                "capture-bit-rot-prob",
                faults.capture_bit_rot_prob,
                &mut problems,
            );
            for (i, s) in faults.dumper_stalls.iter().enumerate() {
                if let Some(p) = window_problem(s.at_us, s.duration_us) {
                    problems.push(format!("faults: stall {i}: {p}"));
                }
                if s.slowdown == 0 {
                    problems.push(format!("faults: stall {i}: slowdown must be ≥ 1"));
                }
                if let Some(idx) = s.index {
                    if idx >= self.network.num_dumpers {
                        problems.push(format!(
                            "faults: stall {i}: dumper index {idx} out of range (num-dumpers {})",
                            self.network.num_dumpers
                        ));
                    }
                }
            }
            for (i, fz) in faults.freezes.iter().enumerate() {
                if let Some(p) = window_problem(fz.at_us, fz.duration_us) {
                    problems.push(format!("faults: freeze {i}: {p}"));
                }
                match fz.node.as_str() {
                    "requester" | "responder" | "switch" => {}
                    "dumper" => {
                        if fz.index >= self.network.num_dumpers {
                            problems.push(format!(
                                "faults: freeze {i}: dumper index {} out of range (num-dumpers {})",
                                fz.index, self.network.num_dumpers
                            ));
                        }
                    }
                    other => {
                        problems.push(format!("faults: freeze {i}: unknown node {other:?}"));
                    }
                }
            }
        }
        if let Some(quirks) = &self.quirks {
            let prob = |name: &str, p: f64, problems: &mut Vec<String>| {
                if !(0.0..=1.0).contains(&p) {
                    problems.push(format!("quirks: {name} {p} not a probability"));
                }
            };
            prob(
                "wrong-ack-psn-prob",
                quirks.wrong_ack_psn_prob,
                &mut problems,
            );
            prob("ack-drop-prob", quirks.ack_drop_prob, &mut problems);
            prob("ack-coalesce-prob", quirks.ack_coalesce_prob, &mut problems);
            prob("cnp-suppress-prob", quirks.cnp_suppress_prob, &mut problems);
            prob("cnp-spurious-prob", quirks.cnp_spurious_prob, &mut problems);
            prob(
                "ghost-retransmit-prob",
                quirks.ghost_retransmit_prob,
                &mut problems,
            );
            prob("stale-msn-prob", quirks.stale_msn_prob, &mut problems);
            prob(
                "gbn-off-by-one-prob",
                quirks.gbn_off_by_one_prob,
                &mut problems,
            );
            prob("icrc-corrupt-prob", quirks.icrc_corrupt_prob, &mut problems);
        }
        if let Some(chaos) = &self.chaos {
            if chaos.amplification_limit.is_some_and(|l| l <= 0.0 || l.is_nan()) {
                problems.push(format!(
                    "chaos: amplification-limit {} must be > 0",
                    chaos.amplification_limit.unwrap_or(0.0)
                ));
            }
            for (i, l) in chaos.links.iter().enumerate() {
                if !matches!(l.link.as_str(), "requester" | "responder") {
                    problems.push(format!("chaos: link {i}: unknown link {:?}", l.link));
                }
                for (kind, windows) in [("flap", &l.flaps), ("pause", &l.pauses)] {
                    for (j, w) in windows.iter().enumerate() {
                        if let Some(p) = window_problem(w.at_us, w.duration_us) {
                            problems.push(format!("chaos: link {i}: {kind} {j}: {p}"));
                        }
                    }
                }
                for (j, b) in l.bursts.iter().enumerate() {
                    if let Some(p) = window_problem(b.at_us, b.duration_us) {
                        problems.push(format!("chaos: link {i}: burst {j}: {p}"));
                    }
                    let prob = |name: &str, p: f64, problems: &mut Vec<String>| {
                        if !(0.0..=1.0).contains(&p) {
                            problems.push(format!(
                                "chaos: link {i}: burst {j}: {name} {p} not a probability"
                            ));
                        }
                    };
                    prob("loss-prob", b.loss_prob, &mut problems);
                    prob("corrupt-prob", b.corrupt_prob, &mut problems);
                    prob("reorder-prob", b.reorder_prob, &mut problems);
                    if !fits_clock(b.reorder_delay_us, 1_000) {
                        problems.push(format!(
                            "chaos: link {i}: burst {j}: reorder-delay-us {} does not fit \
                             the simulation clock",
                            b.reorder_delay_us
                        ));
                    }
                }
            }
        }
        if let Some(trace) = &self.trace {
            if trace.capacity == 0 {
                problems.push("trace: capacity must be ≥ 1".into());
            }
            for (hop, &budget) in &trace.hop_budget_us {
                if budget == 0 {
                    problems.push(format!("trace: hop-budget-us {hop:?} must be ≥ 1"));
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Listing 2, adapted to this schema.
    const LISTING2: &str = r#"
requester:
  nic-type: cx4
  dcqcn-rp-enable: false
  dcqcn-np-enable: true
  min-time-between-cnps-us: 0
  adaptive-retrans: false
responder:
  nic-type: cx4
  dcqcn-np-enable: true
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 10
  mtu: 1024
  message-size: 10240
  multi-gid: true
  barrier-sync: true
  tx-depth: 1
  min-retransmit-timeout: 14
  max-retransmit-retry: 7
  data-pkt-events:
    # Mark ECN on the 4th pkt of the 1st QP conn
    - {qpn: 1, psn: 4, type: ecn, iter: 1}
    # Drop the 5th pkt of the 2nd QP conn
    - {qpn: 2, psn: 5, type: drop, iter: 1}
    # Drop the retransmitted 5th pkt of the 2nd QP conn
    - {qpn: 2, psn: 5, type: drop, iter: 2}
"#;

    #[test]
    fn parses_listing2() {
        let cfg = TestConfig::from_yaml(LISTING2).unwrap();
        assert_eq!(cfg.requester.nic_type, "cx4");
        assert!(cfg.requester.dcqcn_np_enable);
        assert!(!cfg.requester.dcqcn_rp_enable);
        assert_eq!(cfg.traffic.num_connections, 2);
        assert_eq!(cfg.traffic.verb().unwrap(), Verb::Write);
        assert!(cfg.traffic.barrier_sync);
        assert_eq!(cfg.traffic.data_pkt_events.len(), 3);
        let ev = &cfg.traffic.data_pkt_events[2];
        assert_eq!((ev.qpn, ev.psn, ev.iter), (2, 5, 2));
        assert_eq!(ev.r#type, "drop");
        assert!(cfg.validate().is_ok(), "{:?}", cfg.problems());
    }

    #[test]
    fn yaml_roundtrip() {
        let cfg = TestConfig::from_yaml(LISTING2).unwrap();
        let cfg2 = TestConfig::from_yaml(&cfg.to_yaml()).unwrap();
        assert_eq!(cfg2.traffic.message_size, 10240);
        assert_eq!(cfg2.traffic.data_pkt_events.len(), 3);
    }

    #[test]
    fn validation_catches_errors() {
        let mut cfg = TestConfig::from_yaml(LISTING2).unwrap();
        cfg.traffic.num_connections = 0;
        cfg.traffic.rdma_verb = "bogus".into();
        cfg.requester.nic_type = "cx9".into();
        cfg.traffic.data_pkt_events[0].qpn = 99;
        let problems = cfg.problems();
        assert!(problems.len() >= 4, "{problems:?}");
        let err = cfg.validate().unwrap_err().to_string();
        assert!(
            err.contains("rdma-verb") && err.contains("num-connections"),
            "{err}"
        );

        // One UDP source port per connection: 16 383 is the last that fits.
        let mut cfg = TestConfig::from_yaml(LISTING2).unwrap();
        cfg.traffic.num_connections = 16_383;
        assert_eq!(cfg.problems(), Vec::<String>::new());
        cfg.traffic.num_connections = 20_000;
        assert_eq!(
            cfg.problems(),
            ["traffic: num-connections 20000 exceeds 16383 (one UDP source port per connection from 49152)"]
        );
    }

    #[test]
    fn defaults_are_sane() {
        let minimal = r#"
traffic:
  num-connections: 1
  rdma-verb: read
  num-msgs-per-qp: 5
  mtu: 1024
  message-size: 4096
"#;
        let cfg = TestConfig::from_yaml(minimal).unwrap();
        assert_eq!(cfg.traffic.tx_depth, 1);
        assert_eq!(cfg.traffic.min_retransmit_timeout, 14);
        assert_eq!(cfg.traffic.max_retransmit_retry, 7);
        assert_eq!(cfg.network.num_dumpers, 3);
        assert_eq!(cfg.network.switch_mode, SwitchMode::Lumina);
        assert_eq!(cfg.ets.queues.len(), 1);
        assert_eq!(cfg.traffic.pkts_per_msg(), 4);
        assert!(cfg.validate().is_ok());
    }

    /// Malformed-YAML inputs must produce errors that name the offending
    /// field, so a fuzz campaign (or a human) can fix the config from the
    /// message alone.
    #[test]
    fn errors_name_the_offending_field() {
        // Structurally valid YAML, semantically bad PSN (0 is 1-based).
        let bad_psn = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
  data-pkt-events:
    - {qpn: 1, psn: 0, type: drop}
"#;
        let err = TestConfig::from_yaml(bad_psn)
            .unwrap()
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("psn"), "{err}");

        let zero_mtu = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 0
  message-size: 1024
"#;
        let err = TestConfig::from_yaml(zero_mtu)
            .unwrap()
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("mtu"), "{err}");

        let bad_type = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
  data-pkt-events:
    - {qpn: 1, psn: 1, type: explode}
"#;
        let err = TestConfig::from_yaml(bad_type)
            .unwrap()
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("type") && err.contains("explode"), "{err}");
    }

    #[test]
    fn faults_section_parses_and_round_trips() {
        let yaml = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 5
  mtu: 1024
  message-size: 4096
faults:
  mirror-loss-prob: 0.05
  mirror-dup-prob: 0.01
  capture-bit-rot-prob: 0.002
  dumper-stalls:
    - {at-us: 100, duration-us: 500, slowdown: 8, index: 1}
    - {at-us: 700, duration-us: 100}
  freezes:
    - {node: dumper, index: 0, at-us: 200, duration-us: 50}
    - {node: responder, at-us: 400, duration-us: 25}
"#;
        let cfg = TestConfig::from_yaml(yaml).unwrap();
        let faults = cfg.faults.as_ref().unwrap();
        assert!(!faults.is_noop());
        assert_eq!(faults.mirror_loss_prob, 0.05);
        assert_eq!(faults.dumper_stalls[0].index, Some(1));
        assert_eq!(faults.dumper_stalls[1].index, None, "absent = all dumpers");
        assert_eq!(faults.dumper_stalls[1].slowdown, 10, "default slowdown");
        assert_eq!(faults.freezes[1].node, "responder");
        assert!(cfg.validate().is_ok(), "{:?}", cfg.problems());
        let cfg2 = TestConfig::from_yaml(&cfg.to_yaml()).unwrap();
        assert_eq!(cfg2.faults.unwrap().dumper_stalls.len(), 2);
    }

    #[test]
    fn absent_faults_section_stays_absent() {
        let cfg = TestConfig::from_yaml(LISTING2).unwrap();
        assert!(cfg.faults.is_none());
        assert!(
            !cfg.to_yaml().contains("faults"),
            "skip-serializing must keep pristine configs pristine"
        );
        assert!(FaultsSection::default().is_noop());
    }

    #[test]
    fn fault_validation_catches_bad_values() {
        let yaml = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
faults:
  mirror-loss-prob: 1.5
  dumper-stalls:
    - {at-us: 0, duration-us: 0, slowdown: 0, index: 99}
  freezes:
    - {node: marsrover, at-us: 0, duration-us: 1}
    - {node: dumper, index: 44, at-us: 0, duration-us: 0}
"#;
        let problems = TestConfig::from_yaml(yaml).unwrap().problems();
        let all = problems.join("\n");
        assert!(all.contains("mirror-loss-prob"), "{all}");
        assert!(all.contains("stall 0: duration-us"), "{all}");
        assert!(all.contains("stall 0: slowdown"), "{all}");
        assert!(all.contains("index 99 out of range"), "{all}");
        assert!(all.contains("unknown node \"marsrover\""), "{all}");
        assert!(all.contains("index 44 out of range"), "{all}");
    }

    #[test]
    fn windows_ending_past_the_clock_are_config_errors() {
        // `at-us + duration-us` wraps u64 in the first two, its nanoseconds
        // do in the others; all four lowering sites are covered.
        let yaml = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
faults:
  dumper-stalls:
    - {at-us: 18446744073709551615, duration-us: 2}
  freezes:
    - {node: responder, at-us: 2, duration-us: 18446744073709551615}
chaos:
  links:
    - link: requester
      flaps:
        - {at-us: 10, duration-us: 5}
        - {at-us: 18446744073709551, duration-us: 1000}
      bursts:
        - {at-us: 18446744073709552, duration-us: 1, loss-prob: 0.1}
"#;
        let cfg = TestConfig::from_yaml(yaml).unwrap();
        let problems = cfg.problems();
        let all = problems.join("\n");
        for site in [
            "faults: stall 0",
            "faults: freeze 0",
            "link 0: flap 1",
            "link 0: burst 0",
        ] {
            let want = format!("{site}: at-us + duration-us does not fit the simulation clock");
            assert!(all.contains(&want), "{site}: {all}");
        }
        assert_eq!(problems.len(), 4, "the in-range flap is fine: {all}");
        assert_eq!(cfg.validate().unwrap_err().exit_code(), 2);
        // The last representable microsecond is still a valid end.
        assert_eq!(window_problem(18_446_744_073_709_550, 1), None);
        assert!(window_problem(18_446_744_073_709_551, 1).is_some());
    }

    #[test]
    fn spans_past_the_clock_are_config_errors() {
        // The two plain spans lowered by multiplication: both wrap u64
        // nanoseconds by one unit; one unit less is fine.
        let yaml = |horizon_ms: u64, delay_us: u64| {
            format!(
                r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
network:
  horizon-ms: {horizon_ms}
chaos:
  links:
    - link: requester
      bursts:
        - {{at-us: 1, duration-us: 1, reorder-prob: 0.1, reorder-delay-us: {delay_us}}}
"#
            )
        };
        let (ms, us) = (u64::MAX / 1_000_000, u64::MAX / 1_000);
        let cfg = TestConfig::from_yaml(&yaml(ms, us)).unwrap();
        assert_eq!(cfg.problems(), Vec::<String>::new());
        let cfg = TestConfig::from_yaml(&yaml(ms + 1, us + 1)).unwrap();
        let want = [
            format!(
                "network: horizon-ms {} does not fit the simulation clock",
                ms + 1
            ),
            format!(
                "chaos: link 0: burst 0: reorder-delay-us {} does not fit the simulation clock",
                us + 1
            ),
        ];
        assert_eq!(cfg.problems(), want);
        assert_eq!(cfg.validate().unwrap_err().exit_code(), 2);
    }

    #[test]
    fn quirks_section_parses_and_round_trips() {
        let yaml = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 5
  mtu: 1024
  message-size: 4096
quirks:
  seed: 99
  wrong-ack-psn-prob: 0.1
  ack-coalesce-prob: 0.25
  icrc-corrupt-prob: 0.01
"#;
        let cfg = TestConfig::from_yaml(yaml).unwrap();
        let quirks = cfg.quirks.as_ref().unwrap();
        assert!(!quirks.is_noop());
        assert_eq!(quirks.seed, Some(99));
        assert_eq!(quirks.wrong_ack_psn_prob, 0.1);
        assert_eq!(quirks.ack_drop_prob, 0.0, "unset knobs default to 0");
        let knobs = quirks.knobs();
        assert!(knobs.any());
        assert_eq!(knobs.ack_coalesce, 0.25);
        assert!(cfg.validate().is_ok(), "{:?}", cfg.problems());
        let cfg2 = TestConfig::from_yaml(&cfg.to_yaml()).unwrap();
        assert_eq!(cfg2.quirks.unwrap().icrc_corrupt_prob, 0.01);
    }

    #[test]
    fn absent_quirks_section_stays_absent() {
        let cfg = TestConfig::from_yaml(LISTING2).unwrap();
        assert!(cfg.quirks.is_none());
        assert!(
            !cfg.to_yaml().contains("quirks"),
            "skip-serializing must keep pristine configs pristine"
        );
        assert!(QuirksSection::default().is_noop());
    }

    #[test]
    fn absent_trace_section_stays_absent() {
        let cfg = TestConfig::from_yaml(LISTING2).unwrap();
        assert!(cfg.trace.is_none());
        assert!(
            !cfg.to_yaml().contains("trace:"),
            "skip-serializing must keep pristine configs pristine"
        );
        // Default section = tracing on; explicit `enabled: false` = noop.
        assert!(!TraceSection::default().is_noop());
    }

    #[test]
    fn trace_section_parses_and_validates() {
        let yaml = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
trace:
  capacity: 4096
  hop-budget-us:
    link.ingress: 10
    switch.forward: 2
"#;
        let cfg = TestConfig::from_yaml(yaml).unwrap();
        let trace = cfg.trace.as_ref().unwrap();
        assert!(trace.enabled, "enabled defaults to true when present");
        assert_eq!(trace.capacity, 4096);
        assert_eq!(trace.hop_budget_us["link.ingress"], 10);
        assert!(cfg.problems().is_empty());

        let bad = TestConfig::from_yaml(
            r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
trace:
  capacity: 0
  hop-budget-us:
    link.ingress: 0
"#,
        )
        .unwrap();
        let problems = bad.problems();
        assert!(
            problems.iter().any(|p| p.contains("capacity")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("hop-budget-us")),
            "{problems:?}"
        );
        let off = TraceSection {
            enabled: false,
            ..TraceSection::default()
        };
        assert!(off.is_noop());
    }

    #[test]
    fn quirk_validation_catches_bad_probabilities() {
        let yaml = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
quirks:
  ack-drop-prob: 1.5
  gbn-off-by-one-prob: -0.25
"#;
        let problems = TestConfig::from_yaml(yaml).unwrap().problems();
        let all = problems.join("\n");
        assert!(all.contains("quirks: ack-drop-prob 1.5"), "{all}");
        assert!(all.contains("quirks: gbn-off-by-one-prob -0.25"), "{all}");
    }

    #[test]
    fn watchdog_limits_parse_and_validate() {
        let yaml = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
network:
  max-events: 1000000
  max-wall-ms: 5000
  dumper-ring-capacity: 64
"#;
        let cfg = TestConfig::from_yaml(yaml).unwrap();
        assert_eq!(cfg.network.max_events, Some(1_000_000));
        assert_eq!(cfg.network.max_wall_ms, Some(5_000));
        assert_eq!(cfg.network.dumper_ring_capacity, 64);
        assert!(cfg.validate().is_ok());
        let mut bad = cfg.clone();
        bad.network.dumper_ring_capacity = 0;
        bad.network.max_events = Some(0);
        let all = bad.problems().join("\n");
        assert!(all.contains("dumper-ring-capacity"), "{all}");
        assert!(all.contains("max-events"), "{all}");
    }

    #[test]
    fn unknown_fields_rejected() {
        let bad = r#"
traffic:
  num-connections: 1
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 1024
  bogus-field: 7
"#;
        assert!(TestConfig::from_yaml(bad).is_err());
    }
}
