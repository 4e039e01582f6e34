//! Device profiles: the calibrated behavioral parameters of the four RNICs.
//!
//! Every quirk the paper reports is a field here, so a test can (a) run
//! against a faithful model of a given NIC, or (b) toggle a single quirk to
//! produce an ablation (e.g. a "fixed" CX6 Dx with work-conserving ETS).
//! Calibration sources are cited per field; see DESIGN.md §3 for the table
//! of paper-reported numbers and §12 for the registry/matrix layer.
//!
//! Profiles start from [`DeviceProfile::baseline`] and are looked up through
//! the [`DeviceRegistry`], which holds the four paper NICs plus the
//! hypothetical next-generation `CX8NEXT` used for "what would a fixed NIC
//! look like" matrix columns.

use crate::dcqcn::DcqcnParams;
use lumina_sim::{Bandwidth, SimTime};
use serde::{Deserialize, Serialize};

/// NIC vendor; selects counter naming and some default behaviors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    /// NVIDIA (Mellanox ConnectX family).
    Nvidia,
    /// Intel (E810).
    Intel,
}

/// Granularity at which the notification point rate-limits CNP generation
/// (§6.3: "Different CNP rate limiting modes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CnpLimitMode {
    /// One limiter per destination IP of the CNP (CX4 Lx).
    PerDestinationIp,
    /// One limiter per QP (E810).
    PerQp,
    /// One limiter for the whole NIC port (CX5, CX6 Dx).
    PerPort,
}

/// Parameters of the APM (automatic path migration) slow path that CX5
/// enters when receiving packets with `MigReq = 0` from an E810 (§6.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApmModel {
    /// Per-packet service time of the APM processing logic.
    pub service_time: SimTime,
    /// Queue depth in packets; arrivals beyond this are discarded
    /// (`rx_discards_phy`).
    pub queue_capacity: usize,
    /// Number of slow-path packets after which a connection is considered
    /// "resolved" and returns to the fast path.
    pub resolve_after_packets: u64,
}

/// Parameters of the CX4 Lx shared-pipeline stall behind the "noisy
/// neighbor" bug (§6.2.2): concurrent loss-recovery slow paths beyond the
/// context pool stall the whole RX pipeline, discarding packets of
/// unrelated connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoisyNeighborModel {
    /// Hardware recovery contexts available. The paper observes innocent
    /// flows surviving 8 concurrent drop-recoveries but collapsing at 12.
    pub recovery_contexts: usize,
}

/// NVIDIA's adaptive retransmission (§6.3): with the feature on, actual
/// timeouts ignore the configured `4.096 µs × 2^timeout` minimum and the
/// device retries more times than `retry_cnt`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdaptiveRetransModel {
    /// Consecutive-timeout schedule. Entry `i` is the value of the `i`-th
    /// consecutive timeout for the same outstanding data; beyond the table
    /// the last entry doubles. The CX6 Dx table is the sequence the paper
    /// measured: 5.6, 4.1, 8.4, 16.7, 25.1, 67.1, 134.2 ms.
    pub timeout_schedule: Vec<SimTime>,
    /// Extra retries granted beyond the configured `retry_cnt`
    /// ("retry 8–13 times when retry_cnt = 7").
    pub extra_retries: u32,
}

/// Counter bugs (§6.2.4), modeled as "the event happens but the counter
/// does not move".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterBugs {
    /// Intel E810: `cnpSent` stays zero although CNPs are on the wire.
    pub cnp_sent_stuck: bool,
    /// NVIDIA CX4 Lx: `implied_nak_seq_err` does not increment on
    /// out-of-order read responses.
    pub implied_nak_frozen: bool,
}

/// The full behavioral description of one RNIC model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Short name ("CX4LX", "CX5", "CX6DX", "E810", "CX8NEXT").
    pub name: String,
    /// Vendor, selects counter naming.
    pub vendor: Vendor,
    /// Port speed: 40 Gbps for CX4 Lx, 100 Gbps for the others.
    pub port_bandwidth: Bandwidth,
    /// Fixed ingress processing latency for fast-path packets.
    pub rx_latency: SimTime,

    // ---- Retransmission micro-behaviors (Figures 8 & 9) ----
    /// Responder-side NACK generation latency for Write/Send traffic:
    /// out-of-order data packet in → NACK out.
    pub nack_gen_write: SimTime,
    /// Requester-side "NACK" generation latency for Read traffic: OOO read
    /// response in → re-issued read request out. This is the slow path that
    /// takes ~150 µs on CX4 Lx and ~83 ms on E810 (Figure 8b).
    pub nack_gen_read: SimTime,
    /// Requester-side NACK reaction latency for Write/Send: NACK in →
    /// first retransmitted packet handed to the scheduler (base term).
    pub nack_react_write_base: SimTime,
    /// PSN-dependent term of the Write reaction latency: added once per
    /// packet that was in flight beyond the lost one (pipeline rollback
    /// cost). Zero for NICs with flat reaction latency.
    pub nack_react_write_per_pkt: SimTime,
    /// Responder-side reaction latency for Read: re-issued read request in
    /// → first retransmitted response out (base term).
    pub nack_react_read_base: SimTime,
    /// PSN-dependent term of the Read reaction latency.
    pub nack_react_read_per_pkt: SimTime,

    // ---- Interop (§6.2.3) ----
    /// Value of the BTH MigReq bit this NIC transmits (NVIDIA: 1,
    /// Intel: 0).
    pub mig_req_bit: bool,
    /// If set, received packets with `MigReq = 0` on unresolved connections
    /// take the APM slow path.
    pub apm_slowpath_on_migreq0: Option<ApmModel>,

    // ---- DCQCN / CNP (§6.3) ----
    /// Rate-limiting granularity for CNP generation.
    pub cnp_mode: CnpLimitMode,
    /// Hidden hardware minimum CNP interval that applies regardless of
    /// configuration (E810: ~50 µs). `None` means only the configured
    /// `min_time_between_cnps` applies.
    pub cnp_hidden_min_interval: Option<SimTime>,
    /// Default of the configurable `min_time_between_cnps` (NVIDIA: 4 µs).
    pub min_time_between_cnps_default: SimTime,
    /// DCQCN reaction-point constants this device ships with. All four
    /// paper NICs use the calibrated commodity defaults; a profile built
    /// on the baseline may sweep them.
    #[serde(default)]
    pub dcqcn: DcqcnParams,

    // ---- Adaptive retransmission (§6.3) ----
    /// Present on NVIDIA NICs; `None` on Intel.
    pub adaptive_retrans: Option<AdaptiveRetransModel>,

    // ---- ETS (§6.2.1) ----
    /// True if the ETS scheduler may give a queue more than its guaranteed
    /// share when others are idle. False reproduces the CX6 Dx bug.
    pub ets_work_conserving: bool,

    // ---- Noisy neighbor (§6.2.2) ----
    /// Present on CX4 Lx.
    pub noisy_neighbor: Option<NoisyNeighborModel>,

    // ---- Counter bugs (§6.2.4) ----
    /// Which counters lie.
    pub counter_bugs: CounterBugs,
}

impl DeviceProfile {
    /// The quirk-free, spec-following baseline every profile starts from
    /// (100 GbE, flat fast NACK paths, per-port CNP limiting, no hidden
    /// intervals, work-conserving ETS, honest counters), so each named
    /// profile states only where its device deviates:
    /// `DeviceProfile { …, ..DeviceProfile::baseline(name, vendor) }`.
    pub fn baseline(name: &str, vendor: Vendor) -> DeviceProfile {
        DeviceProfile {
            name: name.to_string(),
            vendor,
            port_bandwidth: Bandwidth::gbps(100),
            rx_latency: SimTime::from_nanos(400),
            nack_gen_write: SimTime::from_nanos(2_000),
            nack_gen_read: SimTime::from_nanos(2_000),
            nack_react_write_base: SimTime::from_nanos(2_000),
            nack_react_write_per_pkt: SimTime::ZERO,
            nack_react_read_base: SimTime::from_nanos(2_000),
            nack_react_read_per_pkt: SimTime::ZERO,
            mig_req_bit: true,
            apm_slowpath_on_migreq0: None,
            cnp_mode: CnpLimitMode::PerPort,
            cnp_hidden_min_interval: None,
            min_time_between_cnps_default: SimTime::from_micros(4),
            dcqcn: DcqcnParams::default(),
            adaptive_retrans: None,
            ets_work_conserving: true,
            noisy_neighbor: None,
            counter_bugs: CounterBugs::default(),
        }
    }

    /// NVIDIA ConnectX-4 Lx, 40 GbE.
    ///
    /// Calibration: NACK generation ≈ a few µs for Write, ≈ 150 µs for
    /// Read; NACK reaction in the hundreds of µs (the paper's ~200 µs
    /// retransmission delay ≈ 100 base RTTs); per-destination-IP CNP
    /// limiting; noisy-neighbor pipeline stall; frozen
    /// `implied_nak_seq_err`.
    pub fn cx4_lx() -> DeviceProfile {
        DeviceProfile {
            port_bandwidth: Bandwidth::gbps(40),
            rx_latency: SimTime::from_nanos(600),
            nack_gen_write: SimTime::from_nanos(3_500),
            nack_gen_read: SimTime::from_micros(150),
            nack_react_write_base: SimTime::from_micros(120),
            nack_react_write_per_pkt: SimTime::from_nanos(800),
            nack_react_read_base: SimTime::from_micros(110),
            nack_react_read_per_pkt: SimTime::from_nanos(700),
            cnp_mode: CnpLimitMode::PerDestinationIp,
            adaptive_retrans: Some(AdaptiveRetransModel {
                timeout_schedule: vec![
                    SimTime::from_micros(4_700),
                    SimTime::from_micros(3_900),
                    SimTime::from_micros(7_600),
                    SimTime::from_micros(15_800),
                    SimTime::from_micros(24_000),
                    SimTime::from_micros(67_100),
                    SimTime::from_micros(134_200),
                ],
                extra_retries: 1, // retries 8 times with retry_cnt = 7
            }),
            noisy_neighbor: Some(NoisyNeighborModel {
                recovery_contexts: 10,
            }),
            counter_bugs: CounterBugs {
                cnp_sent_stuck: false,
                implied_nak_frozen: true,
            },
            ..DeviceProfile::baseline("CX4LX", Vendor::Nvidia)
        }
    }

    /// NVIDIA ConnectX-5, 100 GbE.
    ///
    /// Calibration: best-in-class retransmission (NACK generation ≈ 2 µs,
    /// reaction 2–6 µs); per-port CNP limiting; APM slow path when peered
    /// with a `MigReq = 0` sender (§6.2.3).
    pub fn cx5() -> DeviceProfile {
        DeviceProfile {
            nack_gen_write: SimTime::from_nanos(1_900),
            nack_gen_read: SimTime::from_nanos(2_100),
            nack_react_write_base: SimTime::from_nanos(2_200),
            nack_react_write_per_pkt: SimTime::from_nanos(38),
            nack_react_read_base: SimTime::from_nanos(2_000),
            nack_react_read_per_pkt: SimTime::from_nanos(20),
            // Calibrated to §6.2.3: ~500 RX discards when 16 QPs start
            // simultaneously from an E810, no discards at ≤ 8 QPs, drops
            // concentrated on each QP's first message.
            apm_slowpath_on_migreq0: Some(ApmModel {
                service_time: SimTime::from_nanos(900),
                queue_capacity: 1024,
                resolve_after_packets: 128,
            }),
            adaptive_retrans: Some(AdaptiveRetransModel {
                timeout_schedule: vec![
                    SimTime::from_micros(5_100),
                    SimTime::from_micros(4_000),
                    SimTime::from_micros(8_100),
                    SimTime::from_micros(16_300),
                    SimTime::from_micros(24_800),
                    SimTime::from_micros(67_100),
                    SimTime::from_micros(134_200),
                ],
                extra_retries: 3, // retries 10 times with retry_cnt = 7
            }),
            ..DeviceProfile::baseline("CX5", Vendor::Nvidia)
        }
    }

    /// NVIDIA ConnectX-6 Dx, 100 GbE.
    ///
    /// Calibration: retransmission like CX5; per-port CNP limiting;
    /// **non-work-conserving ETS** (§6.2.1); the adaptive-retransmission
    /// timeout table is exactly the sequence the paper measured.
    pub fn cx6_dx() -> DeviceProfile {
        DeviceProfile {
            nack_gen_write: SimTime::from_nanos(2_000),
            nack_gen_read: SimTime::from_nanos(2_200),
            nack_react_write_base: SimTime::from_nanos(2_000),
            nack_react_write_per_pkt: SimTime::from_nanos(30),
            nack_react_read_base: SimTime::from_nanos(1_800),
            nack_react_read_per_pkt: SimTime::from_nanos(15),
            adaptive_retrans: Some(AdaptiveRetransModel {
                // §6.3: 0.0056, 0.0041, 0.0084, 0.0167, 0.0251, 0.0671,
                // 0.1342 seconds.
                timeout_schedule: vec![
                    SimTime::from_micros(5_600),
                    SimTime::from_micros(4_100),
                    SimTime::from_micros(8_400),
                    SimTime::from_micros(16_700),
                    SimTime::from_micros(25_100),
                    SimTime::from_micros(67_100),
                    SimTime::from_micros(134_200),
                ],
                extra_retries: 6, // retries 13 times with retry_cnt = 7
            }),
            ets_work_conserving: false,
            ..DeviceProfile::baseline("CX6DX", Vendor::Nvidia)
        }
    }

    /// Intel E810, 100 GbE.
    ///
    /// Calibration: Write NACK generation ≈ 10 µs but Read ≈ 83 ms
    /// (Figure 8b); reaction latency in the 100 µs band (Figure 9);
    /// `MigReq = 0` on the wire; per-QP CNP limiting with a hidden ~50 µs
    /// minimum interval; `cnpSent` counter stuck.
    pub fn e810() -> DeviceProfile {
        DeviceProfile {
            rx_latency: SimTime::from_nanos(500),
            nack_gen_write: SimTime::from_micros(10),
            nack_gen_read: SimTime::from_millis(83),
            nack_react_write_base: SimTime::from_micros(95),
            nack_react_write_per_pkt: SimTime::from_nanos(500),
            nack_react_read_base: SimTime::from_micros(90),
            nack_react_read_per_pkt: SimTime::from_nanos(400),
            mig_req_bit: false,
            cnp_mode: CnpLimitMode::PerQp,
            cnp_hidden_min_interval: Some(SimTime::from_micros(50)),
            min_time_between_cnps_default: SimTime::ZERO,
            counter_bugs: CounterBugs {
                cnp_sent_stuck: true,
                implied_nak_frozen: false,
            },
            ..DeviceProfile::baseline("E810", Vendor::Intel)
        }
    }

    /// Hypothetical next-generation NIC ("CX8NEXT"): what Table 2 would
    /// look like if every misbehavior the paper reports were fixed.
    ///
    /// Fastest NACK paths of the family with *flat* (PSN-independent)
    /// reaction latency, per-port CNP limiting with no hidden interval,
    /// spec-following retransmission (no adaptive table, so the configured
    /// `4.096 µs × 2^timeout` minimum is honored), work-conserving ETS,
    /// honest counters, and no interop or noisy-neighbor slow paths. It is
    /// the matrix's control column: any violation the oracle reports
    /// against it is a harness bug, not a modeled quirk.
    pub fn cx8_next() -> DeviceProfile {
        DeviceProfile {
            port_bandwidth: Bandwidth::gbps(200),
            rx_latency: SimTime::from_nanos(300),
            nack_gen_write: SimTime::from_nanos(1_500),
            nack_gen_read: SimTime::from_nanos(1_600),
            nack_react_write_base: SimTime::from_nanos(1_500),
            nack_react_read_base: SimTime::from_nanos(1_400),
            ..DeviceProfile::baseline("CX8NEXT", Vendor::Nvidia)
        }
    }

    /// Look a profile up by the names used in Lumina configs
    /// (`cx4`, `cx5`, `cx6`, `e810`, …) under the built-in registry's
    /// matching rules: case/separator-insensitive, unique prefixes allowed.
    pub fn by_name(name: &str) -> Option<DeviceProfile> {
        DeviceRegistry::builtin().get(name)
    }

    /// The four shipped paper profiles, in the order the paper lists them.
    /// (The hypothetical `CX8NEXT` lives only in the registry.)
    pub fn all() -> Vec<DeviceProfile> {
        vec![Self::cx4_lx(), Self::cx5(), Self::cx6_dx(), Self::e810()]
    }

    /// Write/Send NACK reaction latency for a loss with `pkts_beyond`
    /// packets in flight past the dropped one.
    pub fn nack_react_write(&self, pkts_beyond: u32) -> SimTime {
        self.nack_react_write_base
            + SimTime::from_nanos(self.nack_react_write_per_pkt.as_nanos() * pkts_beyond as u64)
    }

    /// Read NACK reaction latency (responder side).
    pub fn nack_react_read(&self, pkts_beyond: u32) -> SimTime {
        self.nack_react_read_base
            + SimTime::from_nanos(self.nack_react_read_per_pkt.as_nanos() * pkts_beyond as u64)
    }
}

/// Named collection of device profiles, the lookup surface behind config
/// `device:` sections, `--devices` lists and `nic-type` fields.
#[derive(Debug, Clone)]
pub struct DeviceRegistry {
    profiles: Vec<DeviceProfile>,
}

impl DeviceRegistry {
    /// The built-in registry: the four paper NICs in paper order, plus the
    /// hypothetical `CX8NEXT` control profile.
    pub fn builtin() -> DeviceRegistry {
        DeviceRegistry {
            profiles: vec![
                DeviceProfile::cx4_lx(),
                DeviceProfile::cx5(),
                DeviceProfile::cx6_dx(),
                DeviceProfile::e810(),
                DeviceProfile::cx8_next(),
            ],
        }
    }

    /// Registered canonical names, in registry order.
    pub fn names(&self) -> Vec<&str> {
        self.profiles.iter().map(|p| p.name.as_str()).collect()
    }

    /// Iterate the registered profiles in order.
    pub fn iter(&self) -> impl Iterator<Item = &DeviceProfile> {
        self.profiles.iter()
    }

    /// Resolve a query to a profile. Matching ignores case and separators
    /// (`"CX6-Dx"` ≡ `"cx6dx"`): an exact normalized name wins, otherwise a
    /// prefix that selects exactly one registered profile (`"cx4"` →
    /// `CX4LX`). Ambiguous (`"cx"`) or unknown (`"cx7"`) queries return
    /// `None`.
    pub fn get(&self, query: &str) -> Option<DeviceProfile> {
        let q = normalize(query);
        if q.is_empty() {
            return None;
        }
        if let Some(p) = self.profiles.iter().find(|p| normalize(&p.name) == q) {
            return Some(p.clone());
        }
        let mut hits = self.profiles.iter().filter(|p| normalize(&p.name).starts_with(&q));
        match (hits.next(), hits.next()) {
            (Some(p), None) => Some(p.clone()),
            _ => None,
        }
    }
}

/// Lowercased alphanumerics only: the equivalence under which config names,
/// CLI arguments and canonical profile names are compared.
fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_profiles_exist() {
        let all = DeviceProfile::all();
        assert_eq!(all.len(), 4);
        let names: Vec<_> = all.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names, ["CX4LX", "CX5", "CX6DX", "E810"]);
    }

    #[test]
    fn lookup_by_config_name() {
        assert_eq!(DeviceProfile::by_name("cx4").unwrap().name, "CX4LX");
        assert_eq!(DeviceProfile::by_name("CX6-Dx").unwrap().name, "CX6DX");
        assert_eq!(DeviceProfile::by_name("e810").unwrap().name, "E810");
        assert!(DeviceProfile::by_name("cx7").is_none());
    }

    #[test]
    fn registry_holds_paper_nics_plus_control() {
        let reg = DeviceRegistry::builtin();
        assert_eq!(reg.names(), ["CX4LX", "CX5", "CX6DX", "E810", "CX8NEXT"]);
        // The registry agrees with the paper-order constructors.
        for (reg_p, ctor_p) in reg.iter().zip(DeviceProfile::all()) {
            assert_eq!(*reg_p, ctor_p);
        }
    }

    #[test]
    fn registry_lookup_rules() {
        let reg = DeviceRegistry::builtin();
        // Exact normalized match beats prefixing.
        assert_eq!(reg.get("cx8next").unwrap().name, "CX8NEXT");
        assert_eq!(reg.get("CX8-Next").unwrap().name, "CX8NEXT");
        // Unique prefixes resolve.
        assert_eq!(reg.get("cx8").unwrap().name, "CX8NEXT");
        assert_eq!(reg.get("cx4lx").unwrap().name, "CX4LX");
        // Ambiguous, unknown and empty queries do not.
        assert!(reg.get("cx").is_none());
        assert!(reg.get("cx7").is_none());
        assert!(reg.get("").is_none());
        assert!(reg.get("--").is_none());
    }

    #[test]
    fn baseline_is_quirk_free() {
        let p = DeviceProfile::baseline("TEST", Vendor::Nvidia);
        assert!(p.ets_work_conserving);
        assert!(p.adaptive_retrans.is_none());
        assert!(p.noisy_neighbor.is_none());
        assert!(p.apm_slowpath_on_migreq0.is_none());
        assert!(p.cnp_hidden_min_interval.is_none());
        assert_eq!(p.counter_bugs, CounterBugs::default());
        assert_eq!(p.dcqcn, DcqcnParams::default());
    }

    #[test]
    fn registry_profiles_are_pinned() {
        // FNV-1a of each registry profile's serde JSON: any calibrated
        // value that moves, moves its hash.
        let fnv = |text: String| {
            text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let got: Vec<(String, u64)> = DeviceRegistry::builtin()
            .iter()
            .map(|p| (p.name.clone(), fnv(serde_json::to_string(p).unwrap())))
            .collect();
        let want = [
            ("CX4LX", 0x40fd_ed55_5a6e_783c),
            ("CX5", 0xff53_a219_da02_8658),
            ("CX6DX", 0x401c_637f_9353_f2dc),
            ("E810", 0xff8a_5c42_0a2f_00f1),
            ("CX8NEXT", 0x7afa_0863_100f_226b),
        ];
        let want: Vec<(String, u64)> = want.iter().map(|&(n, h)| (n.to_string(), h)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cx8_control_profile_is_clean_and_fast() {
        let cx8 = DeviceProfile::cx8_next();
        assert_eq!(cx8.name, "CX8NEXT");
        // Fixed: every Table-2 misbehavior is absent.
        assert!(cx8.ets_work_conserving);
        assert!(cx8.noisy_neighbor.is_none());
        assert!(cx8.adaptive_retrans.is_none());
        assert!(cx8.cnp_hidden_min_interval.is_none());
        assert_eq!(cx8.counter_bugs, CounterBugs::default());
        // Faster than the best paper NIC, with flat reaction latency.
        let cx5 = DeviceProfile::cx5();
        assert!(cx8.nack_gen_write < cx5.nack_gen_write);
        assert_eq!(cx8.nack_react_write(90), cx8.nack_react_write(0));
    }

    #[test]
    fn paper_headline_orderings_hold() {
        let cx4 = DeviceProfile::cx4_lx();
        let cx5 = DeviceProfile::cx5();
        let cx6 = DeviceProfile::cx6_dx();
        let e810 = DeviceProfile::e810();
        // CX5/CX6 have the fastest retransmission paths (§6.1).
        assert!(cx5.nack_gen_write < cx4.nack_gen_write);
        assert!(cx6.nack_gen_write < e810.nack_gen_write);
        assert!(cx5.nack_react_write(0) < cx4.nack_react_write(0));
        // Read slow paths: CX4 ~150 µs, E810 ~83 ms (Figure 8b).
        assert!(cx4.nack_gen_read >= SimTime::from_micros(100));
        assert!(e810.nack_gen_read >= SimTime::from_millis(50));
        // CNP limiting modes (§6.3).
        assert_eq!(cx4.cnp_mode, CnpLimitMode::PerDestinationIp);
        assert_eq!(e810.cnp_mode, CnpLimitMode::PerQp);
        assert_eq!(cx5.cnp_mode, CnpLimitMode::PerPort);
        assert_eq!(cx6.cnp_mode, CnpLimitMode::PerPort);
        // Only CX6 Dx fails work conservation (§6.2.1).
        assert!(!cx6.ets_work_conserving);
        assert!(cx4.ets_work_conserving && cx5.ets_work_conserving && e810.ets_work_conserving);
        // MigReq on the wire (§6.2.3).
        assert!(cx5.mig_req_bit);
        assert!(!e810.mig_req_bit);
        // Counter bugs (§6.2.4).
        assert!(e810.counter_bugs.cnp_sent_stuck);
        assert!(cx4.counter_bugs.implied_nak_frozen);
        assert!(!cx5.counter_bugs.implied_nak_frozen);
    }

    #[test]
    fn cx6_adaptive_schedule_matches_paper() {
        let cx6 = DeviceProfile::cx6_dx();
        let sched = &cx6.adaptive_retrans.as_ref().unwrap().timeout_schedule;
        let ms: Vec<f64> = sched.iter().map(|t| t.as_millis_f64()).collect();
        assert_eq!(ms, vec![5.6, 4.1, 8.4, 16.7, 25.1, 67.1, 134.2]);
    }

    #[test]
    fn psn_dependent_reaction() {
        let cx4 = DeviceProfile::cx4_lx();
        assert!(cx4.nack_react_write(90) > cx4.nack_react_write(0));
        let flatish = DeviceProfile::cx6_dx();
        let spread = flatish.nack_react_write(98) - flatish.nack_react_write(0);
        assert!(spread < SimTime::from_micros(4));
    }
}
