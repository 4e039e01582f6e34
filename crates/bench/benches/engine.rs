//! Criterion microbenchmarks of the substrates: packet codec, ICRC, the
//! RNIC transmit tick, event-injector pipeline, and end-to-end simulation
//! throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lumina_packet::builder::DataPacketBuilder;
use lumina_packet::frame::{icrc_check, RoceFrame};
use lumina_packet::opcode::Opcode;
use lumina_packet::Frame;
use std::hint::black_box;

fn sample_frame_bytes(payload: usize) -> Frame {
    DataPacketBuilder::new()
        .opcode(Opcode::RdmaWriteMiddle)
        .psn(1234)
        .dest_qp(0xea)
        .payload_len(payload)
        .build()
        .emit()
}

fn bench_codec(c: &mut Criterion) {
    let wire = sample_frame_bytes(1024);
    let mut g = c.benchmark_group("packet_codec");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("parse_1024B", |b| {
        b.iter(|| black_box(RoceFrame::parse(&wire).unwrap()))
    });
    let parsed = RoceFrame::parse(&wire).unwrap();
    g.bench_function("emit_1024B", |b| b.iter(|| black_box(parsed.emit())));
    g.bench_function("icrc_check_1024B", |b| {
        b.iter(|| black_box(icrc_check(&wire)))
    });
    g.bench_function("parse_headers_trimmed", |b| {
        b.iter(|| black_box(RoceFrame::parse_headers(&wire[..128]).unwrap()))
    });
    // Headers only: the fixed cost every ACK, NAK and CNP pays.
    let bare = sample_frame_bytes(0);
    g.throughput(Throughput::Bytes(bare.len() as u64));
    g.bench_function("icrc_check_0B", |b| b.iter(|| black_box(icrc_check(&bare))));
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let data = vec![0xa5u8; 4096];
    let mut g = c.benchmark_group("crc32");
    // 64 B is four wide steps and no tail; 1 KiB and 4 KiB are the MTUs.
    for (name, len) in [("crc32_64B", 64), ("crc32_1k", 1024), ("crc32_4k", 4096)] {
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(name, |b| {
            b.iter(|| black_box(lumina_packet::icrc::crc32(&data[..len])))
        });
    }
    g.finish();
}

/// One transmit-wheel tick of a device whose every QP has data queued:
/// build the candidate list, let ETS pick, emit one packet, re-arm. The
/// candidate walk is O(QPs), which is what separates the two rows.
fn bench_rnic_tx(c: &mut Criterion) {
    use lumina_packet::MacAddr;
    use lumina_rnic::device::token;
    use lumina_rnic::ets::EtsConfig;
    use lumina_rnic::profile::DeviceProfile;
    use lumina_rnic::qp::{QpConfig, QpEndpoint};
    use lumina_rnic::verbs::{Verb, WorkRequest};
    use lumina_rnic::{Action, Rnic};
    use lumina_sim::SimTime;
    use std::net::Ipv4Addr;

    let tx_wheel = token::pack(token::TX_WHEEL, 0, 0);
    let mut g = c.benchmark_group("rnic");
    for qps in [8u32, 256] {
        let mut rnic = Rnic::new(
            DeviceProfile::cx6_dx(),
            EtsConfig::single_queue(),
            MacAddr::local(1),
        );
        for qpn in 1..=qps {
            rnic.create_qp(QpConfig {
                local: QpEndpoint {
                    ip: Ipv4Addr::new(10, 0, 0, 1),
                    qpn,
                    ipsn: 0,
                },
                remote: QpEndpoint {
                    ip: Ipv4Addr::new(10, 0, 0, 2),
                    qpn,
                    ipsn: 0,
                },
                remote_mac: MacAddr::local(2),
                mtu: 256,
                timeout_code: 14,
                retry_cnt: 7,
                adaptive_retrans: false,
                traffic_class: 0,
                dcqcn_rp: false,
                dcqcn_np: false,
                min_time_between_cnps: SimTime::from_micros(4),
                udp_src_port: 49152,
            });
            // 16 M packets per QP: the queue outlasts any sample count.
            rnic.post_send(
                qpn,
                WorkRequest {
                    wr_id: qpn as u64,
                    verb: Verb::Write,
                    len: u32::MAX,
                },
                SimTime::ZERO,
            );
        }
        let mut now = SimTime::ZERO;
        g.bench_function(format!("rnic_tx_tick_{qps}qp"), |b| {
            b.iter(|| {
                let actions = rnic.on_timer(tx_wheel, now);
                let mut emitted = false;
                for action in &actions {
                    match action {
                        Action::ArmTimer { at, token } if *token == tx_wheel => now = *at,
                        Action::Emit(_) => emitted = true,
                        _ => {}
                    }
                }
                assert!(emitted, "every tick emits one data packet");
                actions
            })
        });
    }
    g.finish();
}

fn bench_injector(c: &mut Criterion) {
    use lumina_switch::iter::{ConnKey, IterTracker};
    use lumina_switch::table::{InjectionKey, InjectionTable};
    let key = ConnKey {
        src_ip: std::net::Ipv4Addr::new(10, 0, 0, 1),
        dst_ip: std::net::Ipv4Addr::new(10, 0, 0, 2),
        dst_qpn: 0xea,
    };
    let mut g = c.benchmark_group("injector");
    g.bench_function("iter_observe", |b| {
        let mut t = IterTracker::default();
        let mut psn = 0u32;
        b.iter(|| {
            psn = (psn + 1) & 0xff_ffff;
            black_box(t.observe(key, psn))
        })
    });
    g.bench_function("table_lookup_miss", |b| {
        let mut t = InjectionTable::default();
        for i in 0..10_000 {
            t.insert(
                InjectionKey {
                    conn: key,
                    psn: i,
                    iter: 1,
                },
                lumina_switch::events::EventAction::Drop,
            );
        }
        b.iter(|| {
            black_box(t.lookup(&InjectionKey {
                conn: key,
                psn: 0xfff_fff,
                iter: 1,
            }))
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    // Simulated-seconds-per-wall-second: a full orchestrated run moving
    // ~4 MB through the testbed.
    let mut g = c.benchmark_group("end_to_end_sim");
    g.sample_size(10);
    g.bench_function("orchestrated_4MB_write", |b| {
        let cfg = lumina_core::config::TestConfig::from_yaml(
            r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 2
  mtu: 1024
  message-size: 1048576
  tx-depth: 2
"#,
        )
        .unwrap();
        b.iter(|| black_box(lumina_core::orchestrator::run_test(&cfg).unwrap()))
    });
    g.finish();
}

criterion_group!(
    engine,
    bench_codec,
    bench_crc,
    bench_rnic_tx,
    bench_injector,
    bench_end_to_end
);
criterion_main!(engine);
