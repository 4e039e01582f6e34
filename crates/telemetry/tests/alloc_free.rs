//! Exact heap-allocation counts on the recording path, under a counting
//! global allocator (the sibling of `lumina-sim`'s and `lumina-rnic`'s
//! `tests/alloc_free.rs`): a journal record is one fixed-size value held in
//! the ring, so once the ring has wrapped, recording one costs no allocator
//! call whatever its shape, and a disabled sink never reaches the
//! allocator at all (DESIGN.md §5).

use lumina_telemetry::trace::hops;
use lumina_telemetry::{tev, Hop, Telemetry};
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
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// One `tev!` of each arity, 0 to 3 — the widest with a `&'static str`
/// value, one in the `hop(..)` form — and one pure hop.
fn record_each_shape(tel: &Telemetry, i: u64) {
    tev!(tel, i, 0, "gen", "flow.done");
    tev!(tel, i, 1, "rnic", "cnp.tx", qpn = i as u32);
    tev!(tel, i, 2, "switch", hop(Hop::Mirror, i), seq = i, port = 3usize);
    tev!(tel, i, 1, "rnic", "gbn.rollback", qpn = 1u32, to_lin = -(i as i64), reason = "nack");
    tel.record_hop(i, hops::LINK_EGRESS, 0, i);
}

/// After the ring has wrapped (the string table has its entry and the ring
/// its full length), 10 000 more `tev!` calls and 2 500 pure hops of a
/// traced sink make no allocator call.
#[test]
fn recording_into_a_wrapped_ring_allocates_nothing() {
    const ROOM: usize = 1_024;
    let tel = Telemetry::enabled();
    tel.enable_tracing(ROOM, 0);
    let mut i = 0;
    while tel.journal_dropped() == 0 {
        record_each_shape(&tel, i);
        i += 1;
    }
    let calls = allocations(|| {
        for _ in 0..2_500 {
            record_each_shape(&tel, i);
            i += 1;
        }
    });
    assert_eq!(calls, 0);
}

/// Every recording call on a disabled sink, and the two counts, return
/// before the allocator.
#[test]
fn a_disabled_sink_allocates_nothing() {
    let tel = Telemetry::disabled();
    let calls = allocations(|| {
        for i in 0..1_000 {
            record_each_shape(&tel, i);
            tel.inc_counter(1, "tx_packets", 1);
            assert_eq!((tel.journal_len(), tel.journal_dropped()), (0, 0));
        }
    });
    assert_eq!(calls, 0);
}
