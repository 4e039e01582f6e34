//! Criterion microbenchmarks of the substrates: packet codec, ICRC, the
//! timer-event path (wheel, engine dispatch, the RNIC's DCQCN timer), the
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

/// The timer shape of a 256-QP DCQCN run: 256 concurrent 55 µs timers,
/// 200 ns apart, each re-armed one period on when it fires.
const TIMERS: u64 = 256;
const PERIOD_NS: u64 = 55_000;

fn timer_start_ns(i: u64) -> u64 {
    1 + i * 200
}

/// What one timer event costs below the RNIC: the bare wheel (one pop and
/// one push), then the same through `Engine::run` with an echo node (one
/// lap of the 256 timers per iteration).
fn bench_timer_events(c: &mut Criterion) {
    use lumina_sim::wheel::{Entry, TimerWheel};
    use lumina_sim::{Engine, Node, NodeCtx, PortId, SimTime};

    struct TimerEcho;
    impl Node for TimerEcho {
        fn on_frame(&mut self, _port: PortId, _frame: Frame, _ctx: &mut NodeCtx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(SimTime::from_nanos(PERIOD_NS), token);
        }
    }

    let mut g = c.benchmark_group("timer_events");
    let mut wheel = TimerWheel::new();
    for i in 0..TIMERS {
        wheel.push(Entry { time: timer_start_ns(i), seq: i, value: i });
    }
    let mut seq = TIMERS;
    g.bench_function("wheel_push_pop_periodic_256", |b| {
        b.iter(|| {
            let e = wheel.pop().expect("wheel never drains");
            wheel.push(Entry { time: e.time + PERIOD_NS, seq, value: e.value });
            seq += 1;
        })
    });

    let mut eng = Engine::new(1);
    let node = eng.add_node(Box::new(TimerEcho));
    for i in 0..TIMERS {
        eng.schedule_timer(node, SimTime::from_nanos(timer_start_ns(i)), i);
    }
    eng.event_limit = 0;
    g.throughput(Throughput::Elements(TIMERS));
    g.bench_function("engine_timer_echo_256", |b| {
        b.iter(|| {
            eng.event_limit += TIMERS;
            black_box(eng.run(None))
        })
    });
    g.finish();
}

/// A cx6-dx device with QPs `1..=qps`, as both RNIC rows need it.
fn bench_rnic(qps: u32, dcqcn_rp: bool) -> lumina_rnic::Rnic {
    use lumina_packet::MacAddr;
    use lumina_rnic::qp::{QpConfig, QpEndpoint};
    use lumina_sim::SimTime;
    use std::net::Ipv4Addr;

    let mut rnic = lumina_rnic::Rnic::new(
        lumina_rnic::profile::DeviceProfile::cx6_dx(),
        lumina_rnic::ets::EtsConfig::single_queue(),
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
            dcqcn_rp,
            dcqcn_np: false,
            min_time_between_cnps: SimTime::from_micros(4),
            udp_src_port: 49152,
        });
    }
    rnic
}

/// One transmit-wheel tick of a device whose every QP has data queued:
/// build the candidate list, let ETS pick, emit one packet, re-arm from
/// the patched list, hand the action buffer back as the host does. The
/// candidate walk is O(QPs), which is what separates the two rows.
fn bench_rnic_tx(c: &mut Criterion) {
    use lumina_rnic::device::token;
    use lumina_rnic::verbs::{Verb, WorkRequest};
    use lumina_rnic::Action;
    use lumina_sim::SimTime;

    let tx_wheel = token::pack(token::TX_WHEEL, 0, 0);
    let mut g = c.benchmark_group("rnic");
    for qps in [8u32, 256] {
        let mut rnic = bench_rnic(qps, false);
        for qpn in 1..=qps {
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
                rnic.recycle(actions);
            })
        });
    }
    g.finish();
}

/// The commonest event of a DCQCN run: one QP's alpha timer fires and
/// re-arms itself. 256 reaction points, one CNP each, no rate timers — so
/// the rate never recovers and every tick re-arms.
fn bench_rnic_dcqcn_timer(c: &mut Criterion) {
    use lumina_packet::builder::cnp_frame;
    use lumina_rnic::device::token;
    use lumina_sim::SimTime;
    use std::net::Ipv4Addr;

    const QPS: u32 = 256;
    let mut rnic = bench_rnic(QPS, true);
    let mut now = SimTime::from_micros(1);
    for qpn in 1..=QPS {
        let cnp = cnp_frame(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 0, 0, 1), qpn).emit();
        let armed = rnic.on_frame(cnp, now);
        assert_eq!(armed.len(), 2, "alpha + rate timers: {armed:?}");
    }
    let mut qpn = 0;
    let mut g = c.benchmark_group("rnic");
    g.bench_function("rnic_dcqcn_alpha_timer_256qp", |b| {
        b.iter(|| {
            qpn = qpn % QPS + 1;
            now += SimTime::from_nanos(200);
            let actions = rnic.on_timer(token::pack(token::DCQCN_ALPHA, qpn, 1), now);
            assert_eq!(actions.len(), 1, "the tick re-arms itself");
            rnic.recycle(actions);
        })
    });
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
    bench_timer_events,
    bench_rnic_tx,
    bench_rnic_dcqcn_timer,
    bench_injector,
    bench_end_to_end
);
criterion_main!(engine);
