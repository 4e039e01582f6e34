//! Test configuration: the YAML schema of Listings 1 and 2 of the paper,
//! plus a `network` section describing the simulated substrate (which the
//! real Lumina gets from physical hardware).

use crate::error::Error;
use lumina_rnic::{Quirk, QuirkKnobs, Verb};
use lumina_sim::{SimTime, Window};
use serde::{Deserialize, Map, Serialize, Value};
use std::any::{Any, TypeId};
use std::fmt;
use std::iter::zip;

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
    /// Apply this host's ablation overrides to a profile
    /// [`TestConfig::resolved_device`] resolved.
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

    /// Data packets each QP sends (`pkts_per_msg × num-msgs-per-qp`), or
    /// `None` when that overflows `u32` — a config
    /// [`TestConfig::problems`] rejects.
    pub fn pkts_per_qp(&self) -> Option<u32> {
        self.pkts_per_msg().checked_mul(self.num_msgs_per_qp)
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
    /// True when the section injects nothing — the orchestrator then arms
    /// no faults at all, keeping the run on the pristine code path.
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
#[derive(Debug, Clone, Default)]
pub struct QuirksSection {
    /// Quirk-schedule seed; absent = derived from `network.seed`.
    /// Separate so campaigns can sweep misbehavior while holding the
    /// workload fixed.
    pub seed: Option<u64>,
    /// Each quirk's firing probability, keyed in YAML by
    /// [`Quirk::config_key`]; an absent key is 0.
    pub knobs: QuirkKnobs,
}

impl QuirksSection {
    /// True when the section injects nothing — the orchestrator then skips
    /// installing quirk planes entirely, keeping the run on the pristine
    /// code path (zero extra RNG draws, byte-identical reports).
    pub fn is_noop(&self) -> bool {
        !self.knobs.any()
    }
}

/// Written as a derive with `skip_serializing_if` on `seed` would: `seed`
/// when set, then every quirk's key in [`Quirk::ALL`] order.
impl Serialize for QuirksSection {
    fn serialize(&self) -> Value {
        let mut m = Map::new();
        if let Some(seed) = self.seed {
            m.insert("seed", seed.serialize());
        }
        for q in Quirk::ALL {
            m.insert(q.config_key(), self.knobs[q].serialize());
        }
        Value::Object(m)
    }
}

/// Read as a `deny_unknown_fields` derive with `default` fields would.
impl Deserialize for QuirksSection {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let m = v.as_object().ok_or_else(|| {
            serde::Error::custom(format!("expected map for QuirksSection, got {v}"))
        })?;
        let known = |k: &str| k == "seed" || Quirk::ALL.iter().any(|q| q.config_key() == k);
        if let Some(k) = m.keys().find(|k| !known(k)) {
            return Err(serde::Error::custom(format!(
                "unknown field `{k}` in QuirksSection"
            )));
        }
        let mut out = QuirksSection::default();
        if let Some(x) = m.get("seed") {
            out.seed = Deserialize::deserialize(x).map_err(|e| e.at("seed"))?;
        }
        for q in Quirk::ALL {
            if let Some(x) = m.get(q.config_key()) {
                out.knobs[q] = f64::deserialize(x).map_err(|e| e.at(q.config_key()))?;
            }
        }
        Ok(out)
    }
}

/// Packet-lifecycle tracing (`trace:`): turns on the event log's hop view
/// so every instrumented hop appends a `(trace_id, hop, sim_time)` record,
/// the report gains a `"trace"` latency dissection, and the `trace`
/// subcommand can export a Perfetto timeline. Absent — the default —
/// means no hop view, no extra report keys, and byte-identical goldens.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct TraceSection {
    /// Room the event log adds for packet hops, records: the ring holds
    /// the journal's 65 536 plus this, evicting the oldest when full.
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
            capacity: default_trace_capacity(),
            hop_budget_us: std::collections::BTreeMap::new(),
        }
    }
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
        let windows = |ws: &[ChaosWindowSpec]| -> Vec<Window> {
            ws.iter().map(|w| window(w.at_us, w.duration_us)).collect()
        };
        lumina_sim::LinkChaos {
            flaps: windows(&self.flaps),
            pauses: windows(&self.pauses),
            bursts: self
                .bursts
                .iter()
                .map(|b| lumina_sim::BurstRegime {
                    window: window(b.at_us, b.duration_us),
                    loss_prob: b.loss_prob,
                    corrupt_prob: b.corrupt_prob,
                    reorder_prob: b.reorder_prob,
                    reorder_delay: SimTime::from_micros(b.reorder_delay_us),
                })
                .collect(),
        }
    }

    /// True when this schedule can never touch a frame.
    pub fn is_noop(&self) -> bool {
        self.flaps.is_empty()
            && self.pauses.is_empty()
            && self
                .bursts
                .iter()
                .all(|b| b.loss_prob <= 0.0 && b.corrupt_prob <= 0.0 && b.reorder_prob <= 0.0)
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
    /// Per-link chaos schedules.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub links: Vec<ChaosLinkSpec>,
}

impl ChaosSection {
    /// True when the section injects nothing — the orchestrator then arms
    /// no chaos at all, keeping the run on the pristine code path (zero
    /// extra RNG draws, byte-identical reports).
    pub fn is_noop(&self) -> bool {
        self.links.iter().all(ChaosLinkSpec::is_noop)
    }

    /// Every chaos window (flap/pause/burst) across all links, sorted and
    /// deduplicated — the recovery oracle keys its per-window histograms
    /// to these.
    pub fn windows(&self) -> Vec<Window> {
        let mut out = Vec::new();
        for l in &self.links {
            let spans = l.flaps.iter().chain(&l.pauses).map(|w| (w.at_us, w.duration_us));
            let bursts = l.bursts.iter().map(|b| (b.at_us, b.duration_us));
            out.extend(spans.chain(bursts).map(|(at_us, duration_us)| window(at_us, duration_us)));
        }
        out.sort_by_key(|w| (w.from, w.until));
        out.dedup();
        out
    }
}

/// Most connections one run can carry: connection `i` (1-based) sends from
/// UDP source port `49152 + i`, and 65 535 is the last port.
const MAX_CONNECTIONS: u32 = 16_383;

/// Most dumper cores one run builds, `num-dumpers × dumper-cores`: each is
/// a receive ring and a packet counter (48 B) allocated when the run is
/// built, 3 MiB at the bound, and a dumper has at least one.
const MAX_DUMPER_CORES: usize = 1 << 16;

/// Longest one-way propagation delay a run with horizon `horizon_ns` can
/// carry: a round trip — four link crossings and the 760 ns of switch and
/// line time the retransmission analyzer adds to them — must fit the
/// simulation clock past the horizon.
fn max_propagation_ns(horizon_ns: u64) -> u64 {
    (u64::MAX - 760).saturating_sub(horizon_ns) / 4
}

/// The latest instant a frame of a run with horizon `horizon_ns` arrives,
/// to the bound [`max_propagation_ns`] keeps: a round trip past the horizon.
fn latest_arrival_ns(horizon_ns: u64, propagation_ns: u64) -> Option<u64> {
    propagation_ns
        .checked_mul(4)?
        .checked_add(760)?
        .checked_add(horizon_ns)
}

/// The `[at-us, at-us + duration-us)` window a `faults:` or `chaos:` entry
/// names — a freeze, a stall, a flap, a pause or a burst — in simulation
/// time. Call it on a validated config: [`TestConfig::problems`] rejects a
/// window whose end does not fit the clock.
pub fn window(at_us: u64, duration_us: u64) -> Window {
    Window {
        from: SimTime::from_micros(at_us),
        until: SimTime::from_micros(at_us + duration_us),
    }
}

/// A value a row of the config's field table reads or sets: an integer of
/// any width, widened to `u64`, or a probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// An integer field's value.
    Int(u64),
    /// A probability field's value.
    Prob(f64),
}

/// A type a row's field can have. Setting narrows to the field's width, so
/// `u64::MAX` sets a field to its type's maximum; an optional field left
/// out has nothing to check, and setting it makes it present.
trait Numeric {
    fn num(&self) -> Option<Num>;
    fn set_num(&mut self, v: Num);
}

macro_rules! numeric {
    ($($t:ty => $num:ident),*) => {$(impl Numeric for $t {
        fn num(&self) -> Option<Num> { Some(Num::$num(*self as _)) }
        fn set_num(&mut self, v: Num) { *self = match v { Num::Int(n) => n as _, Num::Prob(p) => p as _ } }
    })*};
}
numeric!(u8 => Int, u32 => Int, u64 => Int, usize => Int, f64 => Prob);

impl<T: Numeric + Default> Numeric for Option<T> {
    fn num(&self) -> Option<Num> {
        self.as_ref()?.num()
    }
    fn set_num(&mut self, v: Num) {
        self.get_or_insert_with(T::default).set_num(v);
    }
}

/// The end of every message about a time the simulation clock cannot hold.
const FITS: &str = "does not fit the simulation clock";

/// How a row's field is bounded.
#[derive(Clone, Copy)]
enum Bound {
    /// At least 1.
    Positive,
    /// At most `.0`, for the reason `.1`; with no reason, the range `1..=.0`.
    AtMost(u64, Option<&'static str>),
    /// A time in units of `.0` ns that the clock holds: the lowering into
    /// the sim layer multiplies unchecked.
    Clock(u64),
    /// Microseconds added to an arrival: they must fit the clock past the
    /// latest one ([`latest_arrival_ns`]).
    PastArrival,
    /// A probability: the only bound of a [`Num::Prob`] field.
    Probability,
    /// A code of `.0` bits.
    Code(u32),
    /// An index, from `.1`, into the `.0` entries of another field, which
    /// `.2` names in the message.
    Below(fn(&TestConfig) -> u64, u64, Option<&'static str>),
}

impl Bound {
    /// What is wrong with `v`, said after the field's name, if anything.
    /// `latest` is the latest arrival in ns, `None` when that does not fit
    /// the clock either (a problem reported on its own).
    fn problem(self, v: Num, cfg: &TestConfig, latest: Option<u64>) -> Option<String> {
        let n = match v {
            Num::Prob(p) => return (!(0.0..=1.0).contains(&p)).then(|| format!("{p} not a probability")),
            Num::Int(n) => n,
        };
        match self {
            Bound::Positive => (n == 0).then(|| "must be ≥ 1".into()),
            Bound::AtMost(max, Some(why)) => (n > max).then(|| format!("{n} exceeds {max} ({why})")),
            Bound::AtMost(max, None) => (n == 0 || n > max).then(|| format!("{n} out of range (1..={max})")),
            Bound::Clock(unit_ns) => n.checked_mul(unit_ns).is_none().then(|| format!("{n} {FITS}")),
            Bound::PastArrival => {
                let max = (u64::MAX - latest.unwrap_or(0)) / 1_000;
                let past = "once added to an arrival a round trip past horizon-ms";
                (n > max).then(|| format!("{n} {FITS} {past} (at most {max})"))
            }
            Bound::Probability => None,
            Bound::Code(bits) => (n >> bits != 0).then(|| format!("must be a {bits}-bit code")),
            Bound::Below(count, from, named) => {
                let count = count(cfg);
                (n < from || n - from >= count).then(|| match named {
                    Some(field) => format!("{n} out of range ({field} {count})"),
                    None => format!("{n} out of range"),
                })
            }
        }
    }
}

/// A row of [`FIELDS`]: a numeric field of entry type `ty`, its key as the
/// messages spell it, and its bound. `get` reads the field of an entry of
/// that type (`None`: an optional field left out) and `set` writes it, both
/// through the one place [`field!`] names.
struct Field {
    ty: TypeId,
    key: &'static str,
    get: fn(&dyn Any) -> Option<Num>,
    set: fn(&mut dyn Any, Num),
    bound: Bound,
}

/// The row for field `$field` of entry type `$ty` (the entry itself when no
/// field is named).
macro_rules! field {
    ($ty:ty $(, $field:ident)?: $key:literal, $bound:expr) => {
        Field {
            ty: TypeId::of::<$ty>(),
            key: $key,
            get: |e| e.downcast_ref::<$ty>()? $(.$field)?.num(),
            set: |e, v| e.downcast_mut::<$ty>().into_iter().for_each(|e| e $(.$field)?.set_num(v)),
            bound: $bound,
        }
    };
}

/// Every bounded numeric field of the schema, grouped by the entry type
/// that holds it, in the order [`TestConfig::problems`] reports them. A key
/// with two bounds has two rows. A quirk's knob is named by its quirk; the
/// numbers of the `qp-traffic-class` list and the `hop-budget-us` map are
/// entries of their own.
#[rustfmt::skip]
const FIELDS: &[Field] = {
    use Bound::*;
    let connections = "one UDP source port per connection from 49152";
    let contexts = "the most connections a run carries, each in at most one recovery";
    let dumpers = "the most dumper cores a run builds; each dumper has at least one";
    &[
        field!(HostConfig, min_time_between_cnps_us: "min-time-between-cnps-us", Clock(1_000)),
        field!(HostConfig, override_recovery_contexts: "override-recovery-contexts", AtMost(MAX_CONNECTIONS as u64, Some(contexts))),
        field!(TrafficConfig, num_connections: "num-connections", Positive),
        field!(TrafficConfig, num_connections: "num-connections", AtMost(MAX_CONNECTIONS as u64, Some(connections))),
        field!(TrafficConfig, mtu: "mtu", AtMost(4096, None)),
        field!(TrafficConfig, num_msgs_per_qp: "num-msgs-per-qp", Positive),
        field!(TrafficConfig, tx_depth: "tx-depth", Positive),
        field!(TrafficConfig, min_retransmit_timeout: "min-retransmit-timeout", Code(5)),
        field!(EventSpec, qpn: "qpn", Below(|c| c.traffic.num_connections.into(), 1, None)),
        field!(EventSpec, iter: "iter", Positive),
        field!(EventSpec, delay_us: "delay-us", PastArrival),
        field!(usize: "traffic class", Below(|c| c.ets.queues.len() as u64, 0, None)),
        field!(NetworkConfig, horizon_ms: "horizon-ms", Clock(1_000_000)),
        field!(NetworkConfig, dumper_ring_capacity: "dumper-ring-capacity", Positive),
        field!(NetworkConfig, dumper_cores: "dumper-cores", Positive),
        field!(NetworkConfig, num_dumpers: "num-dumpers", Positive),
        field!(NetworkConfig, num_dumpers: "num-dumpers", AtMost(MAX_DUMPER_CORES as u64, Some(dumpers))),
        field!(NetworkConfig, dumper_core_rate_pps: "dumper-core-rate-pps", Positive),
        field!(NetworkConfig, max_events: "max-events", Positive),
        field!(FaultsSection, mirror_loss_prob: "mirror-loss-prob", Probability),
        field!(FaultsSection, mirror_dup_prob: "mirror-dup-prob", Probability),
        field!(FaultsSection, capture_bit_rot_prob: "capture-bit-rot-prob", Probability),
        field!(StallSpec, at_us: "at-us", Clock(1_000)),
        field!(StallSpec, duration_us: "duration-us", Positive),
        field!(StallSpec, slowdown: "slowdown", Positive),
        field!(StallSpec, index: "dumper index", Below(|c| c.network.num_dumpers as u64, 0, Some("num-dumpers"))),
        field!(FreezeSpec, at_us: "at-us", Clock(1_000)),
        field!(FreezeSpec, duration_us: "duration-us", Positive),
        field!(f64: "", Probability),
        field!(ChaosWindowSpec, at_us: "at-us", Clock(1_000)),
        field!(ChaosWindowSpec, duration_us: "duration-us", Positive),
        field!(ChaosBurstSpec, at_us: "at-us", Clock(1_000)),
        field!(ChaosBurstSpec, duration_us: "duration-us", Positive),
        field!(ChaosBurstSpec, loss_prob: "loss-prob", Probability),
        field!(ChaosBurstSpec, corrupt_prob: "corrupt-prob", Probability),
        field!(ChaosBurstSpec, reorder_prob: "reorder-prob", Probability),
        field!(ChaosBurstSpec, reorder_delay_us: "reorder-delay-us", PastArrival),
        field!(TraceSection, capacity: "capacity", Positive),
        field!(u64: "hop-budget-us", Positive),
    ]
};

/// Call `$f(site, key, entry)` on every entry of config `$c` whose fields
/// the rows of [`FIELDS`] read — each section, list entry, quirk knob and
/// hop budget — borrowed shared, or exclusive after a trailing `mut`. A
/// field is named `{site}: {key}`, the key the row's unless `key` is given.
macro_rules! entries {
    ($c:expr, $f:ident $(, $m:tt)?) => {{
        let c = $c;
        $f(format_args!("requester"), None, & $($m)? c.requester);
        $f(format_args!("responder"), None, & $($m)? c.responder);
        $f(format_args!("traffic"), None, & $($m)? c.traffic);
        let events = zip(0.., & $($m)? c.traffic.data_pkt_events);
        events.for_each(|(i, e)| $f(format_args!("traffic: event {i}"), None, e));
        let classes = zip(0.., & $($m)? c.traffic.qp_traffic_class);
        classes.for_each(|(i, e)| $f(format_args!("traffic: qp {i}"), None, e));
        $f(format_args!("network"), None, & $($m)? c.network);
        if let Some(faults) = & $($m)? c.faults {
            $f(format_args!("faults"), None, & $($m)? *faults);
            let stalls = zip(0.., & $($m)? faults.dumper_stalls);
            stalls.for_each(|(i, e)| $f(format_args!("faults: stall {i}"), None, e));
            let freezes = zip(0.., & $($m)? faults.freezes);
            freezes.for_each(|(i, e)| $f(format_args!("faults: freeze {i}"), None, e));
        }
        if let Some(quirks) = & $($m)? c.quirks {
            for q in Quirk::ALL {
                $f(format_args!("quirks"), Some(&q.config_key()), & $($m)? quirks.knobs[q]);
            }
        }
        if let Some(chaos) = & $($m)? c.chaos {
            for (i, link) in zip(0.., & $($m)? chaos.links) {
                let flaps = zip(0.., & $($m)? link.flaps);
                flaps.for_each(|(j, e)| $f(format_args!("chaos: link {i}: flap {j}"), None, e));
                let pauses = zip(0.., & $($m)? link.pauses);
                pauses.for_each(|(j, e)| $f(format_args!("chaos: link {i}: pause {j}"), None, e));
                let bursts = zip(0.., & $($m)? link.bursts);
                bursts.for_each(|(j, e)| $f(format_args!("chaos: link {i}: burst {j}"), None, e));
            }
        }
        if let Some(trace) = & $($m)? c.trace {
            $f(format_args!("trace"), None, & $($m)? *trace);
            for (hop, e) in & $($m)? trace.hop_budget_us {
                $f(format_args!("trace"), Some(&format_args!("hop-budget-us {hop:?}")), e);
            }
        }
    }};
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
    /// Packet-lifecycle tracing; absent = hop view off, pristine report.
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

    /// The device query string selecting a role's NIC: the `device:`
    /// section override when present, the host's `nic-type` otherwise.
    pub fn device_query(&self, responder_side: bool) -> &str {
        self.device_override(responder_side).unwrap_or(if responder_side {
            &self.responder.nic_type
        } else {
            &self.requester.nic_type
        })
    }

    /// The `device:` section's name for a role's NIC, if it gives one.
    fn device_override(&self, responder_side: bool) -> Option<&str> {
        let d = self.device.as_ref()?;
        if responder_side {
            d.responder.as_deref()
        } else {
            d.requester.as_deref()
        }
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

    /// Call `f(name, value, set)` on every bounded numeric field of this
    /// config: its name as its messages give it (`chaos: link 0: burst 1:
    /// loss-prob`), its value (`None`: an optional field left out), and a
    /// setter that narrows to the field's width, so that `u64::MAX` is the
    /// field's maximum, and makes an optional field present. A key with two
    /// bounds is called twice.
    pub fn numeric_fields(&mut self, mut f: impl FnMut(&str, Option<Num>, &mut dyn FnMut(Num))) {
        let mut each = |site: fmt::Arguments<'_>, key: Option<&dyn fmt::Display>, entry: &mut dyn Any| {
            let ty = (*entry).type_id();
            for row in FIELDS.iter().filter(|r| r.ty == ty) {
                let name = format!("{site}: {}", key.unwrap_or(&row.key));
                f(&name, (row.get)(entry), &mut |v| (row.set)(entry, v));
            }
        };
        entries!(self, each, mut);
    }

    /// Basic sanity checks; returns a list of problems (empty = valid).
    /// Each numeric field is held to its row of the field table, and a
    /// window's end to the clock; then the rules that relate fields run.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let (traffic, net) = (&self.traffic, &self.network);
        let horizon_ns = net.horizon_ms.checked_mul(1_000_000);
        let latest = horizon_ns.and_then(|h| latest_arrival_ns(h, net.propagation_delay_ns));
        let mut check = |site: fmt::Arguments<'_>, key: Option<&dyn fmt::Display>, entry: &dyn Any| {
            let ty = (*entry).type_id();
            let rows = FIELDS.iter().filter(|r| r.ty == ty);
            for row in rows.clone() {
                let p = (row.get)(entry).and_then(|v| row.bound.problem(v, self, latest));
                if let Some(p) = p {
                    problems.push(format!("{site}: {} {p}", key.unwrap_or(&row.key)));
                }
            }
            let read = |key| rows.clone().find(|r| r.key == key).and_then(|r| (r.get)(entry));
            if let (Some(Num::Int(at)), Some(Num::Int(span))) = (read("at-us"), read("duration-us")) {
                if at.checked_add(span).and_then(|end| end.checked_mul(1_000)).is_none() {
                    problems.push(format!("{site}: at-us + duration-us {FITS}"));
                }
            }
        };
        entries!(self, check);

        if traffic.verb().is_err() {
            problems.push(format!("traffic: unknown rdma-verb {:?}", traffic.rdma_verb));
        }
        let total = traffic.pkts_per_qp();
        if total.is_none() {
            problems.push(format!(
                "traffic: num-msgs-per-qp {} × message-size {} / mtu {} data packets overflow u32",
                traffic.num_msgs_per_qp, traffic.message_size, traffic.mtu
            ));
        }
        for (i, ev) in traffic.data_pkt_events.iter().enumerate() {
            if ev.psn == 0 || (ev.every == 0 && total.is_some_and(|t| ev.psn > t)) {
                problems.push(format!("traffic: event {i}: psn {} out of range", ev.psn));
            }
            if ev.psn.checked_add(ev.every).is_none() {
                let (psn, every) = (ev.psn, ev.every);
                problems.push(format!("traffic: event {i}: psn {psn} + every {every} overflows u32"));
            }
            let known = ["drop", "ecn", "corrupt", "set-mig-0", "set-mig-1", "delay", "reorder"];
            if !known.contains(&ev.r#type.as_str()) {
                problems.push(format!("traffic: event {i}: unknown type {:?}", ev.r#type));
            }
            if ev.r#type == "delay" && ev.delay_us == 0 {
                problems.push(format!("traffic: event {i}: delay requires delay-us ≥ 1"));
            }
            if ev.r#type == "reorder" && ev.reorder_by == 0 {
                problems.push(format!("traffic: event {i}: reorder-by must be ≥ 1"));
            }
        }
        if self.ets.queues.is_empty() {
            problems.push("ets: queues must not be empty".into());
        }
        // Device resolution: the `device:` section override wins per role;
        // either way an unresolvable name lists what the registry offers.
        let registry = lumina_rnic::DeviceRegistry::builtin();
        let available = || registry.names().join(", ");
        for (responder_side, role) in [(false, "requester"), (true, "responder")] {
            let query = self.device_query(responder_side);
            let key = match self.device_override(responder_side) {
                Some(_) => format_args!("device: {role}"),
                None => format_args!("{role}: nic-type"),
            };
            if registry.get(query).is_none() {
                let available = available();
                problems.push(format!("{key}: unknown {role} nic {query:?} (available: {available})"));
            }
        }
        for (i, name) in self.device.iter().flat_map(|d| d.matrix.iter().enumerate()) {
            if registry.get(name).is_none() {
                let available = available();
                problems.push(format!("device: matrix entry {i}: unknown device {name:?} (available: {available})"));
            }
        }
        let cores = net.dumper_cores.saturating_mul(net.num_dumpers);
        if (1..=MAX_DUMPER_CORES).contains(&net.num_dumpers) && cores > MAX_DUMPER_CORES {
            problems.push(format!(
                "network: dumper-cores {} × num-dumpers {} exceeds {MAX_DUMPER_CORES} (the most dumper cores a run builds, each a receive ring and a counter)",
                net.dumper_cores, net.num_dumpers
            ));
        }
        let max = horizon_ns.map_or(u64::MAX, max_propagation_ns);
        if net.propagation_delay_ns > max {
            problems.push(format!(
                "network: propagation-delay-ns {} exceeds {max} (a round trip, four crossings + 760 ns, past horizon-ms must fit the simulation clock)",
                net.propagation_delay_ns
            ));
        }
        for (i, fz) in self.faults.iter().flat_map(|f| f.freezes.iter().enumerate()) {
            match fz.node.as_str() {
                "requester" | "responder" | "switch" => {}
                "dumper" if fz.index < net.num_dumpers => {}
                "dumper" => problems.push(format!(
                    "faults: freeze {i}: dumper index {} out of range (num-dumpers {})",
                    fz.index, net.num_dumpers
                )),
                other => problems.push(format!("faults: freeze {i}: unknown node {other:?}")),
            }
        }
        for (i, l) in self.chaos.iter().flat_map(|c| c.links.iter().enumerate()) {
            if !matches!(l.link.as_str(), "requester" | "responder") {
                problems.push(format!("chaos: link {i}: unknown link {:?}", l.link));
            }
            // A paused frame leaves when its pause ends: like an injected
            // delay, the end must fit the clock past the latest arrival.
            for (j, w) in l.pauses.iter().enumerate() {
                let end = w.at_us.checked_add(w.duration_us).filter(|e| e.checked_mul(1_000).is_some());
                if let Some(p) = end.and_then(|e| Bound::PastArrival.problem(Num::Int(e), self, latest)) {
                    problems.push(format!("chaos: link {i}: pause {j}: at-us + duration-us {p}"));
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
        // A start past the clock is also a problem of its own; the in-range
        // flap is fine.
        let start = |site: &str, at_us: u64| {
            format!("{site}: at-us {at_us} does not fit the simulation clock")
        };
        let end = |site: &str| format!("{site}: at-us + duration-us does not fit the simulation clock");
        let want = [
            start("faults: stall 0", u64::MAX),
            end("faults: stall 0"),
            end("faults: freeze 0"),
            end("chaos: link 0: flap 1"),
            start("chaos: link 0: burst 0", 18_446_744_073_709_552),
            end("chaos: link 0: burst 0"),
        ];
        assert_eq!(cfg.problems(), want);
        assert_eq!(cfg.validate().unwrap_err().exit_code(), 2);
        // The last representable microsecond is still a valid end.
        let mut cfg = TestConfig::from_yaml(LISTING2).unwrap();
        let stall = |at_us| StallSpec {
            index: None,
            at_us,
            duration_us: 1,
            slowdown: 2,
        };
        let faults = cfg.faults.insert(FaultsSection::default());
        faults.dumper_stalls.push(stall(18_446_744_073_709_550));
        assert_eq!(cfg.problems(), Vec::<String>::new());
        cfg.faults.as_mut().unwrap().dumper_stalls[0] = stall(18_446_744_073_709_551);
        assert_eq!(cfg.problems(), [end("faults: stall 0")]);
    }

    #[test]
    fn spans_past_the_clock_are_config_errors() {
        // The horizon is lowered by multiplication and wraps u64
        // nanoseconds by one unit; one unit less is fine. A reorder delay
        // is added to an arrival a round trip past the horizon, so the
        // longest one is what the clock has left after that arrival.
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
        let latest = latest_arrival_ns(1_000_000, default_prop()).unwrap();
        let max_us = (u64::MAX - latest) / 1_000;
        for fits in [yaml(ms, 0), yaml(1, max_us)] {
            let cfg = TestConfig::from_yaml(&fits).unwrap();
            assert_eq!(cfg.problems(), Vec::<String>::new());
        }
        let reorder = |delay_us: u64, max_us: u64| {
            format!(
                "chaos: link 0: burst 0: reorder-delay-us {delay_us} does not fit the simulation \
                 clock once added to an arrival a round trip past horizon-ms (at most {max_us})"
            )
        };
        let cfg = TestConfig::from_yaml(&yaml(1, max_us + 1)).unwrap();
        assert_eq!(cfg.problems(), [reorder(max_us + 1, max_us)]);
        // A delay that fits the clock alone, past the longest horizon.
        let cfg = TestConfig::from_yaml(&yaml(ms, us)).unwrap();
        let latest = latest_arrival_ns(ms * 1_000_000, default_prop()).unwrap();
        assert_eq!(cfg.problems(), [reorder(us, (u64::MAX - latest) / 1_000)]);
        let cfg = TestConfig::from_yaml(&yaml(ms + 1, us + 1)).unwrap();
        let want = [
            format!(
                "network: horizon-ms {} does not fit the simulation clock",
                ms + 1
            ),
            reorder(us + 1, us),
        ];
        assert_eq!(cfg.problems(), want);
        assert_eq!(cfg.validate().unwrap_err().exit_code(), 2);
        // The amplification bound is a constant, not a key: even `1e400`,
        // which parses as +∞, is an unknown field.
        let knob = yaml(ms, 0).replace("chaos:\n", "chaos:\n  amplification-limit: 1e400\n");
        let err = TestConfig::from_yaml(&knob).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("amplification-limit"), "{err}");
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
        assert_eq!(quirks.knobs[Quirk::WrongAckPsn], 0.1);
        assert_eq!(quirks.knobs[Quirk::AckDrop], 0.0, "unset knobs default to 0");
        assert!(quirks.knobs.any());
        assert_eq!(quirks.knobs[Quirk::AckCoalesce], 0.25);
        assert!(cfg.validate().is_ok(), "{:?}", cfg.problems());
        let cfg2 = TestConfig::from_yaml(&cfg.to_yaml()).unwrap();
        assert_eq!(cfg2.quirks.unwrap().knobs[Quirk::IcrcCorrupt], 0.01);
    }

    /// A seeded section with every knob set, in the YAML and JSON the
    /// derived impls wrote (recorded before the section became a table).
    const ALL_KNOBS: &str = "{\"seed\":7,\"wrong-ack-psn-prob\":0.1,\"ack-drop-prob\":0.2,\
        \"ack-coalesce-prob\":0.25,\"cnp-suppress-prob\":1.0,\"cnp-spurious-prob\":0.02,\
        \"ghost-retransmit-prob\":0.05,\"stale-msn-prob\":0.4,\"gbn-off-by-one-prob\":0.5,\
        \"icrc-corrupt-prob\":0.01}";

    #[test]
    fn quirks_section_bytes_are_pinned() {
        let yaml = "traffic:\n  num-connections: 1\n  rdma-verb: write\n  num-msgs-per-qp: 1\n  \
            mtu: 1024\n  message-size: 1024\nquirks:\n  seed: 7\n  wrong-ack-psn-prob: 0.1\n  \
            ack-drop-prob: 0.2\n  ack-coalesce-prob: 0.25\n  cnp-suppress-prob: 1.0\n  \
            cnp-spurious-prob: 0.02\n  ghost-retransmit-prob: 0.05\n  stale-msn-prob: 0.4\n  \
            gbn-off-by-one-prob: 0.5\n  icrc-corrupt-prob: 0.01\n";
        let cfg = TestConfig::from_yaml(yaml).unwrap();
        let quirks = cfg.quirks.as_ref().unwrap();
        assert!(cfg.to_yaml().ends_with(&format!(",\"quirks\":{ALL_KNOBS}}}\n")));
        assert_eq!(serde_yaml::to_string(quirks).unwrap(), format!("{ALL_KNOBS}\n"));
        assert_eq!(serde_json::to_string(quirks).unwrap(), ALL_KNOBS);
        // Unseeded: no `seed` key, the knobs still all written.
        let unseeded = QuirksSection {
            seed: None,
            ..quirks.clone()
        };
        let json = serde_json::to_string(&unseeded).unwrap();
        assert_eq!(json, ALL_KNOBS.replace("\"seed\":7,", ""));
        let back: QuirksSection = serde_json::from_str(&json).unwrap();
        assert_eq!((back.seed, back.knobs), (None, quirks.knobs));
    }

    #[test]
    fn misspelled_quirk_key_is_named() {
        let yaml = "traffic:\n  num-connections: 1\n  rdma-verb: write\n  num-msgs-per-qp: 1\n  \
                    mtu: 1024\n  message-size: 1024\nquirks:\n  ack-drop-prop: 0.5\n";
        let e = TestConfig::from_yaml(yaml).unwrap_err().to_string();
        assert!(
            e.contains("unknown field `ack-drop-prop` in QuirksSection"),
            "{e}"
        );
        let bad = yaml.replace("ack-drop-prop: 0.5", "ack-drop-prob: x");
        let e = TestConfig::from_yaml(&bad).unwrap_err().to_string();
        assert!(e.contains("ack-drop-prob: expected number"), "{e}");
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
  dumper-ring-capacity: 64
"#;
        let cfg = TestConfig::from_yaml(yaml).unwrap();
        assert_eq!(cfg.network.max_events, Some(1_000_000));
        assert_eq!(cfg.network.dumper_ring_capacity, 64);
        assert!(cfg.validate().is_ok());
        let mut bad = cfg.clone();
        bad.network.dumper_ring_capacity = 0;
        bad.network.max_events = Some(0);
        bad.network.dumper_cores = 0;
        bad.network.dumper_core_rate_pps = 0;
        bad.network.num_dumpers = 0;
        let all = bad.problems().join("\n");
        assert!(all.contains("network: dumper-ring-capacity"), "{all}");
        assert!(all.contains("network: max-events"), "{all}");
        assert!(all.contains("network: dumper-cores must be ≥ 1"), "{all}");
        assert!(
            all.contains("network: dumper-core-rate-pps must be ≥ 1"),
            "{all}"
        );
        assert!(all.contains("network: num-dumpers must be ≥ 1"), "{all}");
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
