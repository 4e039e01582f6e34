//! End-to-end tests for the chaos plane, the liveness/recovery oracle and
//! the conformance interaction guard (chaos PR, satellites 2–3).
//!
//! Three contracts are nailed down here:
//!
//! 1. **Absent-by-default, byte-for-byte.** A `chaos:` section that
//!    schedules nothing is indistinguishable from no section at all —
//!    the full `report_json()` matches the pristine run exactly, because
//!    a noop plane makes zero RNG draws and installs zero hooks.
//! 2. **Chaos is never blamed on the DUT.** Environment-injected loss
//!    must not flip conformance verdicts; device-injected quirks must
//!    keep flipping them even under chaos. The 2×2 cross-matrix pivots on
//!    the `wrong-ack-psn` quirk because its violation class
//!    (`ack-psn-invalid`) is provable from mirror evidence no amount of
//!    chaos can fake: every frame the responder ACKs passed the switch.
//! 3. **The oracle proves wedges and survives garbage.** The shipped
//!    `chaos_demo.yaml` preset must keep producing its typed
//!    `unaccounted` liveness violation, and `recovery::analyze` must be
//!    panic-free on arbitrary hostile accounting + degraded traces, fed
//!    through the RC replay's recovery view as stage 5 feeds them.

use lumina_core::analyzers::recovery::{
    self, FlowAccount, LivenessViolation, QpEndState, RecoveryOpts,
};
use lumina_core::analyzers::{conformance, ConformanceOpts, ConformanceStream};
use lumina_core::config::TestConfig;
use lumina_core::orchestrator::run_test;
use lumina_dumper::{reconstruct_lossy, CapturedPacket};
use lumina_packet::aeth::{Aeth, AethSyndrome};
use lumina_packet::builder::DataPacketBuilder;
use lumina_packet::opcode::Opcode;
use lumina_packet::reth::Reth;
use lumina_sim::{SimTime, Window};
use lumina_switch::events::EventType;
use lumina_switch::mirror;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A small deterministic write workload; `chaos` appends a loss-burst
/// schedule, `quirks` appends a device-misbehavior plane.
fn matrix_yaml(chaos: bool, quirks: bool) -> String {
    let mut y = String::from(
        "requester:\n  nic-type: cx5\n\
         responder:\n  nic-type: cx5\n\
         traffic:\n\
         \x20 num-connections: 4\n\
         \x20 rdma-verb: write\n\
         \x20 num-msgs-per-qp: 4\n\
         \x20 mtu: 1024\n\
         \x20 message-size: 8192\n\
         network:\n\
         \x20 seed: 7\n\
         \x20 horizon-ms: 60000\n",
    );
    if chaos {
        y.push_str(
            "chaos:\n\
             \x20 seed: 33\n\
             \x20 links:\n\
             \x20   - link: requester\n\
             \x20     bursts:\n\
             \x20       - {at-us: 20, duration-us: 600, loss-prob: 0.25}\n",
        );
    }
    if quirks {
        y.push_str(
            "quirks:\n\
             \x20 seed: 99\n\
             \x20 wrong-ack-psn-prob: 0.50\n",
        );
    }
    y
}

fn run_yaml(yaml: &str) -> lumina_core::orchestrator::TestResults {
    let cfg = TestConfig::from_yaml(yaml).expect("test yaml parses");
    run_test(&cfg).expect("run completes")
}

fn report_string(yaml: &str) -> String {
    let res = run_yaml(yaml);
    serde_json::to_string_pretty(&res.report_json().expect("report renders"))
        .expect("report is json")
}

// ---------------------------------------------------------------------
// 1. Noop chaos section == pristine run, byte for byte.
// ---------------------------------------------------------------------

#[test]
fn noop_chaos_section_is_byte_identical_to_pristine() {
    let base = "requester:\n  nic-type: cx5\n\
                responder:\n  nic-type: cx5\n\
                traffic:\n\
                \x20 num-connections: 2\n\
                \x20 rdma-verb: write\n\
                \x20 num-msgs-per-qp: 4\n\
                \x20 mtu: 1024\n\
                \x20 message-size: 4096\n\
                network:\n\
                \x20 seed: 7\n\
                \x20 horizon-ms: 1000\n";
    // A `chaos:` section with a seed but no windows anywhere: parses,
    // validates, and must schedule nothing.
    let noop = format!(
        "{base}chaos:\n\
         \x20 seed: 12345\n\
         \x20 links:\n\
         \x20   - link: requester\n\
         \x20   - link: responder\n"
    );
    let pristine = report_string(base);
    let with_noop = report_string(&noop);
    assert!(
        !pristine.contains("\"chaos\""),
        "pristine run must not report a chaos section"
    );
    assert_eq!(
        pristine, with_noop,
        "a noop chaos section must leave the full report byte-identical"
    );
}

// ---------------------------------------------------------------------
// 2. The shipped chaos demo keeps proving its liveness failure.
// ---------------------------------------------------------------------

#[test]
fn chaos_demo_preset_trips_the_liveness_oracle() {
    let yaml = std::fs::read_to_string(repo_root().join("configs/chaos_demo.yaml"))
        .expect("chaos_demo.yaml exists");
    let res = run_yaml(&yaml);

    let rec = res.recovery.as_ref().expect("chaos run computes recovery");
    assert!(!rec.live, "the flap-to-horizon must wedge the run");
    assert!(
        !rec.violations.is_empty()
            && rec
                .violations
                .iter()
                .all(|v| matches!(v, LivenessViolation::Unaccounted { .. })),
        "the wedge manifests as typed unaccounted-message violations: {:?}",
        rec.violations
    );
    // One recoverable burst + one wedging flap = two histogram-keyed
    // windows, exactly one of which never recovers.
    assert_eq!(rec.windows.len(), 2, "burst + flap = two chaos windows");
    assert!(
        rec.windows[0].time_to_recovery_us.is_some(),
        "the early loss burst must be recovered from"
    );
    assert!(
        rec.windows[1].time_to_recovery_us.is_none(),
        "the flap runs to the horizon and never recovers"
    );
    assert_eq!(rec.ttr_histogram.unrecovered, 1);
    assert!(
        rec.ttr_histogram.buckets.iter().sum::<u64>() == 1,
        "exactly one window lands in the recovery histogram"
    );
}

// ---------------------------------------------------------------------
// 3. Chaos × quirks cross-matrix: verdicts flip only when quirks are on.
// ---------------------------------------------------------------------

#[test]
fn conformance_verdicts_flip_only_when_quirks_are_on() {
    for (chaos, quirks) in [(false, false), (true, false), (false, true), (true, true)] {
        let res = run_yaml(&matrix_yaml(chaos, quirks));
        let opts = ConformanceOpts::from_results(&res);
        if chaos {
            let drops = res
                .chaos_stats
                .as_ref()
                .map_or(0, |cs| cs.data_drops() + cs.corruptions + cs.reorders);
            assert!(drops > 0, "the burst must actually destroy frames");
            assert!(
                opts.external_loss,
                "chaos destruction must surface as external loss"
            );
        } else {
            assert!(!opts.external_loss);
        }
        let trace = res.trace.as_ref().expect("run produced a trace");
        let rep = conformance::analyze(trace, &res.conns, &opts);
        let classes: Vec<&str> = rep.violations.iter().map(|v| v.class.label()).collect();
        if quirks {
            // The wrong-ack-psn quirk must stay detectable with and
            // without chaos: an ACK beyond the mirror-seen frontier is
            // provably the DUT's doing.
            assert!(
                !rep.compliant && classes.contains(&"ack-psn-invalid"),
                "chaos={chaos} quirks={quirks}: expected ack-psn-invalid, got {classes:?}"
            );
        } else {
            // No quirks: compliant, chaos or not. Environment-injected
            // loss alone may never be graded as a DUT violation.
            assert!(
                rep.compliant,
                "chaos={chaos} quirks={quirks}: chaos was blamed on the DUT: {classes:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 4. The recovery oracle is panic-free on hostile inputs.
// ---------------------------------------------------------------------

/// One plausibly-shaped mirror capture (data or ACK) with an arbitrary
/// PSN, so hostile traces exercise the oracle's wire walk.
fn hostile_capture(seq: u64, flavor: u8, psn: u32, qpn: u32) -> CapturedPacket {
    let req_ip = Ipv4Addr::new(10, 0, 0, 1);
    let rsp_ip = Ipv4Addr::new(10, 0, 0, 2);
    let b = DataPacketBuilder::new();
    let frame = match flavor % 4 {
        0 => b
            .opcode(Opcode::RdmaWriteFirst)
            .dest_qp(qpn)
            .psn(psn)
            .reth(Reth {
                vaddr: 0x1000,
                rkey: 7,
                dma_len: 4096,
            })
            .payload_len(1024)
            .build(),
        1 => b
            .opcode(Opcode::RdmaWriteLast)
            .dest_qp(qpn)
            .psn(psn)
            .ack_req(true)
            .payload_len(256)
            .build(),
        2 => b
            .src_ip(rsp_ip)
            .dst_ip(req_ip)
            .opcode(Opcode::Acknowledge)
            .dest_qp(qpn)
            .psn(psn)
            .aeth(Aeth {
                syndrome: AethSyndrome::Ack { credit: 31 },
                msn: psn & 0xff_ffff,
            })
            .build(),
        _ => b
            .opcode(Opcode::RdmaWriteMiddle)
            .dest_qp(qpn)
            .psn(psn)
            .payload_len(1024)
            .build(),
    };
    let mut buf = frame.emit().to_vec();
    mirror::embed(
        &mut buf,
        seq,
        SimTime::from_nanos(seq.wrapping_mul(977)),
        EventType::None,
        Some((seq % 65_536) as u16),
    );
    mirror::restore_dport(&mut buf);
    let orig_len = buf.len() as u32;
    CapturedPacket {
        rx_time: SimTime::ZERO,
        orig_len,
        bytes: buf.as_slice().into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Arbitrary accounting, inconsistent QP end-states, inverted and
    /// overlapping chaos windows, and a bit-rotted trace — the verdict on garbage is unspecified, but the
    /// oracle must produce one without panicking and keep its shape
    /// invariants.
    #[test]
    fn recovery_oracle_never_panics_on_hostile_inputs(
        flow_words in prop::collection::vec(any::<u64>(), 0..32),
        qp_words in prop::collection::vec(any::<u64>(), 0..8),
        window_words in prop::collection::vec(any::<u64>(), 0..6),
        destroyed in any::<u64>(),
        n_frames in 0usize..40,
        rot_mask in any::<u64>(),
        rot_xor in any::<u8>(),
        with_trace in any::<bool>(),
    ) {
        // Chunks of four arbitrary words become one flow each; the counts
        // are full-range u64s, so completed+failed routinely exceeds (or
        // overflows past) planned.
        let flows: Vec<FlowAccount> = flow_words
            .chunks_exact(4)
            .map(|c| FlowAccount {
                qpn: c[0] as u32,
                planned: c[1],
                completed: c[2],
                failed: c[3],
            })
            .collect();
        // One word per QP: low bits drive every boolean combination,
        // including the contradictory ones (errored + timer armed, …).
        let qps: Vec<QpEndState> = qp_words
            .iter()
            .map(|w| QpEndState {
                qpn: (w >> 32) as u32,
                requester: w & 1 != 0,
                errored: w & 2 != 0,
                unacked: w & 4 != 0,
                timer_armed: w & 8 != 0,
            })
            .collect();
        // Windows are deliberately unsorted, overlapping, and sometimes
        // inverted (until < from).
        let windows: Vec<Window> = window_words
            .iter()
            .map(|w| Window {
                from: SimTime::from_micros(*w >> 32),
                until: SimTime::from_micros(*w & 0xffff_ffff),
            })
            .collect();
        let opts = RecoveryOpts { windows, destroyed };

        let mut caps: Vec<CapturedPacket> = (0..n_frames as u64)
            .map(|s| {
                let psn = (s as u32).wrapping_mul(2_654_435_761) & 0xff_ffff;
                hostile_capture(s, (s % 4) as u8, psn, 0x22)
            })
            .collect();
        for (i, c) in caps.iter_mut().enumerate() {
            if rot_mask >> (i % 64) & 1 == 1 && rot_xor != 0 {
                let off = i % c.bytes.len().max(1);
                if let Some(b) = c.bytes.get_mut(off) {
                    *b ^= rot_xor;
                }
            }
        }
        let (trace, _) = reconstruct_lossy(&[caps]);
        let armed = ConformanceOpts {
            recovery: true,
            ..ConformanceOpts::default()
        };
        let wire = with_trace.then(|| {
            let mut stream = ConformanceStream::discovering(&armed);
            stream.observe_trace(&trace);
            stream.finish_views().1.recovery
        });

        let rep = recovery::analyze(wire.flatten().as_ref(), &flows, &qps, &opts);
        prop_assert_eq!(rep.windows.len(), opts.windows.len());
        prop_assert!(rep.amplification_limit.is_finite() && rep.amplification_limit > 0.0);
        prop_assert_eq!(rep.live, rep.violations.is_empty());
        for w in &rep.windows {
            prop_assert!((0.0..=f64::MAX).contains(&w.goodput_ratio));
        }
        // The verdict must serialize (it lands in report_json and its
        // telemetry section on every chaos run).
        prop_assert!(serde_json::to_string(&rep).is_ok());
    }
}
