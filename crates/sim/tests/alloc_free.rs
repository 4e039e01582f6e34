//! Exact heap-allocation counts on the timer-event path, under a counting
//! global allocator: what a timer costs in `malloc` calls is part of the
//! event plane's budget (DESIGN.md §5), and it either repeats exactly or
//! the test fails.
//!
//! The wheel's slot vectors are the only buffers on this path. A slot
//! grows the first time it is filed into and again after it cascades
//! (it gives its buffer up, and only the last one given up is handed on),
//! so a shape with multi-entry slots is never allocation-free; the two
//! tests pin down everything else.

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

/// One 55 µs timer is alone in every slot it ever sits in, so it pops
/// straight from levels 1–5 and no slot ever cascades: once the slots it
/// files into have grown, pop + push allocates nothing. (Before the
/// lone-entry pop each of its three cascades per period freed a buffer and
/// grew the next.)
#[test]
fn a_lone_periodic_timer_allocates_nothing() {
    let mut wheel = TimerWheel::new();
    let mut seq = 1;
    wheel.push(Entry { time: 1, seq: 0, value: 0u64 });
    // Warm-up: one full turn of level 4 (64 × 16.8 ms ≈ 19 522 periods)
    // and the step into the next level-5 slot, so every slot the measured
    // window files into — it stays inside that level-5 slot — has grown.
    spin(&mut wheel, &mut seq, 20_000);
    assert_eq!(allocations(|| spin(&mut wheel, &mut seq, MEASURED)), 0);
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
/// share level-2 slots, which cascade and grow again. `Engine::run` must
/// add nothing to that: after a warm-up lap, 10 000 events through the
/// engine make exactly the allocator calls the bare wheel makes for the
/// same pushes and pops. (Before the engine-owned `Effects` every timer
/// re-arm was one more.)
#[test]
fn engine_dispatch_adds_no_allocation_to_the_wheels() {
    let start = |i: u64| 1 + i * 200;

    let mut wheel = TimerWheel::new();
    for i in 0..TIMERS {
        wheel.push(Entry { time: start(i), seq: i, value: i });
    }
    let mut seq = TIMERS;
    spin(&mut wheel, &mut seq, TIMERS);
    let wheel_alone = allocations(|| spin(&mut wheel, &mut seq, MEASURED));

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

    assert_eq!(through_engine, wheel_alone);
    // The lone-entry pop shows here too: these timers sit 200 ns apart,
    // alone in their level-1 slots, so only level 2 cascades — one buffer
    // given up and regrown per ≈ 20 events, not one per event.
    assert!(wheel_alone * 4 < MEASURED, "{wheel_alone} allocations");
}
