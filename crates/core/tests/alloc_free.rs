//! Exact heap-allocation counts on the ingest path and a ceiling on the
//! live path, under a counting global allocator (the sibling of
//! `lumina-sim`'s and `lumina-rnic`'s `tests/alloc_free.rs`): what a pcap
//! record costs in `malloc` calls is part of the ingest budget (DESIGN.md
//! §13), and it either is zero or the test fails; what a mirrored packet
//! of a live run costs is part of the per-packet budget (DESIGN.md §5).

use lumina_core::config::TestConfig;
use lumina_core::orchestrator::run_test;
use lumina_core::{ingest_reader, IngestParams};
use lumina_dumper::TRIM_LEN;
use lumina_packet::builder::DataPacketBuilder;
use lumina_packet::frame::{RoceFrame, RoceHeaders};
use lumina_packet::opcode::Opcode;
use lumina_sim::pcap::PcapWriter;
use lumina_sim::SimTime;
use lumina_switch::events::EventType;
use lumina_switch::mirror;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread (tests run on parallel threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counter is a
// `const`-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor can observe a torn-down slot.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// One mirror copy as a dumper stores it: metadata embedded, RSS dport
/// still randomized, trimmed. Returns the capture and its wire length.
fn mirror_copy(seq: u64) -> (Vec<u8>, usize) {
    let mut buf = DataPacketBuilder::new()
        .opcode(Opcode::RdmaWriteMiddle)
        .dest_qp(0x22)
        .psn(seq as u32 & 0xff_ffff)
        .payload_len(1024)
        .build()
        .emit()
        .to_vec();
    let ts = SimTime::from_nanos(seq * 100);
    mirror::embed(
        &mut buf,
        seq,
        ts,
        EventType::None,
        Some(0xc000 | seq as u16),
    );
    let wire_len = buf.len();
    buf.truncate(TRIM_LEN);
    (buf, wire_len)
}

/// A pristine capture of `n` mirror copies of one WRITE stream.
fn pristine_pcap(n: u64) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), TRIM_LEN as u32).unwrap();
    for seq in 0..n {
        let (buf, wire_len) = mirror_copy(seq);
        w.write_packet(SimTime::from_nanos(seq * 100), &buf, wire_len)
            .unwrap();
    }
    w.finish().unwrap()
}

/// Four times the records, four times the chunks, not one more allocator
/// call: after the first window has grown its buffers, a record costs no
/// allocation (reader, recovery, decode, push) and neither does a chunk
/// (seal, oracle replay, hand-back).
#[test]
fn ingest_allocates_per_capture_not_per_record_or_chunk() {
    const N: u64 = 2_048;
    let params = IngestParams {
        chunk_entries: 64,
        ..IngestParams::default()
    };
    let ingest = |bytes: &[u8]| {
        let (calls, out) = allocations(|| ingest_reader(bytes, "alloc", &params).unwrap());
        assert!(out.pristine(), "{out:?}");
        (calls, out.records, out.stream.chunks)
    };
    let (small, large) = (pristine_pcap(N), pristine_pcap(4 * N));
    let (calls_n, records_n, chunks_n) = ingest(&small);
    let (calls_4n, records_4n, chunks_4n) = ingest(&large);
    assert_eq!((records_n, records_4n), (N, 4 * N));
    assert_eq!(chunks_4n, 4 * chunks_n);
    assert_eq!(calls_4n, calls_n, "{records_n} vs {records_4n} records");
}

/// Header-parsing a trimmed capture never reaches the allocator, and what
/// it returns owns nothing: the headers are plain values.
#[test]
fn parse_headers_allocates_nothing() {
    let (buf, _) = mirror_copy(7);
    let (calls, frame) = allocations(|| RoceFrame::parse_headers(&buf));
    let frame = frame.unwrap();
    assert_eq!(calls, 0);
    assert_eq!(frame.bth.psn, 7);
    assert!(!std::mem::needs_drop::<RoceHeaders>());
}

/// What one more mirrored packet of a live run costs in allocator calls:
/// the benchmark's `run_packets` shape (8 WRITE QPs, four drops, four CE
/// marks) at N and at 2 N messages per QP, so per-run set-up, the report
/// and every buffer that only grows once cancel out of the quotient.
/// Measured 2.02 in the dev and the release profile alike (3.02 while a
/// journal record owned an attribute `Vec`, 4.02 while a stored capture
/// was a `Vec`, 4.96 while the wheel's slots were vectors that regrew
/// after a cascade); the ceiling leaves one call of room.
#[test]
fn live_run_allocator_calls_per_mirrored_packet() {
    const N: u32 = 4;
    let run = |msgs: u32| {
        let events: String = (1..=8)
            .map(|qpn| {
                let kind = if qpn <= 4 { "drop" } else { "ecn" };
                format!("    - {{qpn: {qpn}, psn: {}, type: {kind}, iter: 1}}\n", 32 + qpn)
            })
            .collect();
        let cfg = TestConfig::from_yaml(&format!(
            "requester: {{ nic-type: cx6 }}\n\
             responder: {{ nic-type: cx6, dcqcn-np-enable: true }}\n\
             traffic:\n  num-connections: 8\n  rdma-verb: write\n  \
             num-msgs-per-qp: {msgs}\n  mtu: 1024\n  message-size: 65536\n  \
             data-pkt-events:\n{events}network:\n  seed: 1\n"
        ))
        .unwrap();
        let (calls, res) = allocations(|| run_test(&cfg).unwrap());
        assert!(res.traffic_completed() && res.integrity.passed());
        (calls, res.switch_counters.mirrored_total)
    };
    let (calls_n, mirrored_n) = run(N);
    let (calls_2n, mirrored_2n) = run(2 * N);
    assert!(mirrored_2n > mirrored_n + 1_000, "{mirrored_n} vs {mirrored_2n}");
    let per_packet = (calls_2n - calls_n) as f64 / (mirrored_2n - mirrored_n) as f64;
    assert!(per_packet <= 3.0, "{per_packet:.2} allocator calls per mirrored packet");
}
