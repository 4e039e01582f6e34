//! Exact heap-allocation counts on the timer-event path, under a counting
//! global allocator: what a timer costs in `malloc` calls is part of the
//! event plane's budget (DESIGN.md §5), and it either repeats exactly or
//! the test fails.
//!
//! The wheel's buffers are its slab and its lanes' rings, each of which
//! grows only while it is deeper than it has ever been; slots are index
//! pairs and a cascade re-links cells. So once a run's depth has peaked,
//! the count is zero for any shape — lone entries, crowded slots or a
//! lane, bare wheel or through `Engine::run`.

use lumina_sim::wheel::{Entry, TimerWheel};
use lumina_sim::{Engine, Frame, Node, NodeCtx, PortId, SimTime};
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

const PERIOD_NS: u64 = 55_000;
const TIMERS: u64 = 256;
const MEASURED: u64 = 10_000;

/// Pop the earliest entry and re-file it one period on, `pairs` times.
fn spin(wheel: &mut TimerWheel<u64>, seq: &mut u64, pairs: u64) {
    for _ in 0..pairs {
        let e = wheel.pop().expect("wheel never drains");
        wheel.push(Entry {
            time: e.time + PERIOD_NS,
            seq: *seq,
            value: e.value,
        });
        *seq += 1;
    }
}

/// One 55 µs timer is alone in every slot it ever sits in and pops
/// straight from levels 1–5: its first push made the slab's one cell, and
/// every pop + push after that reuses it.
#[test]
fn a_lone_periodic_timer_allocates_nothing() {
    let mut wheel = TimerWheel::new();
    let mut seq = 1;
    wheel.push(Entry { time: 1, seq: 0, value: 0u64 });
    assert_eq!(allocations(|| spin(&mut wheel, &mut seq, MEASURED)), 0);
}

/// 256 concurrent 55 µs timers re-filed through their FIFO lane, as the
/// engine re-files ticks: after one warm-up lap the ring has held every
/// timer, and 10 000 pops and pushes make no allocator call.
#[test]
fn a_lane_of_periodic_timers_allocates_nothing() {
    let mut wheel = TimerWheel::new();
    for i in 0..TIMERS {
        wheel.push(Entry { time: 1 + i * 200, seq: i, value: i });
    }
    let mut seq = TIMERS;
    let mut spin = |wheel: &mut TimerWheel<u64>, pairs: u64| {
        for _ in 0..pairs {
            let e = wheel.pop().expect("wheel never drains");
            let next = Entry { time: e.time + PERIOD_NS, seq, value: e.value };
            wheel.push_lane(PERIOD_NS, next);
            seq += 1;
        }
    };
    spin(&mut wheel, TIMERS);
    assert_eq!(allocations(|| spin(&mut wheel, MEASURED)), 0);
}

/// Re-arms its timer forever: pure dispatch + wheel.
struct TimerEcho;

impl Node for TimerEcho {
    fn on_frame(&mut self, _port: PortId, _frame: Frame, _ctx: &mut NodeCtx<'_>) {}
    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(SimTime::from_nanos(PERIOD_NS), token);
    }
}

/// 256 concurrent 55 µs timers — the DCQCN alpha timers of a 256-QP run —
/// share level-2 slots, which cascade about once per 20 events. After one
/// warm-up lap (every timer fired once, so the slab and the engine's
/// `Effects` have seen the deepest queue), 10 000 events make no allocator
/// call at all, on the bare wheel and through `Engine::run` alike. (The
/// slot vectors this replaced regrew after every cascade; before the
/// engine-owned `Effects` every timer re-arm was one more.)
#[test]
fn engine_dispatch_adds_no_allocation_to_the_wheels() {
    let start = |i: u64| 1 + i * 200;

    let mut wheel = TimerWheel::new();
    for i in 0..TIMERS {
        wheel.push(Entry { time: start(i), seq: i, value: i });
    }
    let mut seq = TIMERS;
    spin(&mut wheel, &mut seq, TIMERS);
    assert_eq!(allocations(|| spin(&mut wheel, &mut seq, MEASURED)), 0);

    let mut eng = Engine::new(1);
    let node = eng.add_node(Box::new(TimerEcho));
    for i in 0..TIMERS {
        eng.schedule_timer(node, SimTime::from_nanos(start(i)), i);
    }
    eng.event_limit = TIMERS;
    eng.run(None);
    eng.event_limit = TIMERS + MEASURED;
    let through_engine = allocations(|| {
        eng.run(None);
    });
    assert_eq!(eng.stats().timers_fired, TIMERS + MEASURED);
    assert_eq!(through_engine, 0);
}
