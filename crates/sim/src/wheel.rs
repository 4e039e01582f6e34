//! Hierarchical timer wheel: the engine's event queue.
//!
//! A calendar queue in the style of kernel/tokio timer wheels: eleven
//! levels of 64 slots each, 6 bits of the nanosecond timestamp per level
//! (66 bits — the full `u64` range), so any future `SimTime` maps to
//! exactly one slot. Level 0 slots are one nanosecond wide. A higher-level
//! slot holding several events *cascades* — when the wheel advances into
//! it, its events are re-filed into lower levels — until they pop from
//! level 0. A higher-level slot holding a single event does not: that
//! event pops straight from where it sits.
//!
//! Events live in one slab and never move in it. A cell holds an event's
//! `(time, seq)`, its payload and the index of the next cell; a slot is
//! the `{head, tail}` pair of a singly linked chain through the slab. Push
//! writes the payload into a cell once and links the cell behind its
//! slot's tail; a cascade re-links cell indices and touches no payload;
//! pop unlinks one cell and reads the payload out once.
//!
//! Pop order is the engine's contract: strictly `(time, seq)`, where
//! `seq` is the monotonic sequence number the engine assigned at push.
//! All events in one level-0 slot share one timestamp (the slot is 1 ns
//! wide and the wheel's invariant pins the high bits), so the tie-break
//! is a min-`seq` scan of that slot's chain. The scan is what makes
//! re-linking safe: a cascade can link an *older* (lower-seq) event behind
//! a newer one already in the slot, and a FIFO slot would then pop them
//! out of order. The position of a cell in its chain therefore carries no
//! meaning, and no step has to preserve it.
//!
//! The lone-entry pop is order-safe for the same reason the lowest
//! occupied slot is the earliest: every stored event sits at exactly
//! `level_for(elapsed, time)`, so equal timestamps always share a slot,
//! and an event alone in the first occupied slot of the lowest occupied
//! level has neither an earlier nor an equal-time rival anywhere.
//!
//! Push and pop are O(levels) amortized — no comparison-heap log factor.
//! A popped cell goes on a LIFO free list and the next push takes it from
//! there, so the slab grows only when every cell is live: it holds exactly
//! as many cells as the wheel was deep at its deepest, and a run whose
//! depth has peaked allocates nothing more, whatever its slots do.
//!
//! Beside the wheel sit up to four FIFO *lanes*
//! ([`push_lane`](TimerWheel::push_lane)). A lane holds entries filed one
//! fixed `delay` after the pusher's clock — a periodic timer re-arming
//! itself — so it is already sorted by `(time, seq)`: the clock never runs
//! backwards and `seq` only grows. A lane push is an append and a lane pop
//! takes the head, with no slot to file under and no cascade. An entry
//! that would not extend its lane's tail, or whose delay finds no lane
//! when all are taken, files in the wheel instead. `pop` takes the smaller
//! `(time, seq)` of the earliest lane head and the wheel's minimum, under
//! two rules that keep the wheel's invariant:
//!
//! - a lane pop leaves `elapsed` alone, so every wheel entry stays at
//!   `level_for(elapsed, time)`;
//! - a cascade moves `elapsed` to its slot's base time only when no lane
//!   head is earlier: one that is pops first. Every entry popped from then
//!   on is at or after the base, so every later push is too.

use std::collections::VecDeque;
use std::fmt;

/// Bits of the timestamp consumed per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels: ⌈64 / 6⌉ = 11 covers the whole u64 nanosecond range.
const LEVELS: usize = 64usize.div_ceil(LEVEL_BITS as usize);
/// "No cell": ends a slot's chain and the free list.
const NIL: u32 = u32::MAX;
/// Most FIFO lanes a wheel keeps; a further delay files in the wheel.
const LANES: usize = 4;

/// One entry in the wheel: an opaque payload ordered by `(time, seq)`.
pub struct Entry<T> {
    /// Absolute nanosecond timestamp.
    pub time: u64,
    /// Engine-assigned monotonic tie-break.
    pub seq: u64,
    /// The payload.
    pub value: T,
}

/// One slab cell: an event queued in the wheel, linked into its slot's
/// chain, or a free cell (`value` is `None`) linked into the free list.
struct Cell<T> {
    time: u64,
    seq: u64,
    next: u32,
    value: Option<T>,
}

/// A slot's chain of cells; both `NIL` when the slot is empty.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot { head: NIL, tail: NIL };

/// Entries filed `delay` after their pusher's clock, in push order.
struct Lane<T> {
    delay: u64,
    entries: VecDeque<Entry<T>>,
}

/// The hierarchical wheel. Generic over the payload so the determinism
/// tests can drive it with plain markers.
pub struct TimerWheel<T> {
    cells: Vec<Cell<T>>,
    /// Head of the free list: the cell popped last.
    free: u32,
    slots: Box<[[Slot; SLOTS]; LEVELS]>,
    /// Bit `i` of `occupied[level]` set ⇔ `slots[level][i]` is non-empty.
    occupied: [u64; LEVELS],
    /// The wheel's notion of "now": the timestamp of the last pop (or the
    /// base of the last cascaded slot). All stored events satisfy
    /// `time >= elapsed` and sit at `level_for(elapsed, time)`: they agree
    /// with `elapsed` on every bit group above their level and, above
    /// level 0, differ from it in their own — the invariant that makes
    /// "lowest occupied slot" mean "earliest event".
    elapsed: u64,
    /// FIFO lanes, made on first use, at most [`LANES`].
    lanes: Vec<Lane<T>>,
    /// Entries queued in the wheel and the lanes together.
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel at time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            cells: Vec::new(),
            free: NIL,
            slots: Box::new([[EMPTY; SLOTS]; LEVELS]),
            occupied: [0; LEVELS],
            elapsed: 0,
            lanes: Vec::new(),
            len: 0,
        }
    }

    /// Number of queued entries, lanes included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Level an event at `when` files under, given the current `elapsed`:
    /// the highest 6-bit group in which the two differ (0 when equal).
    fn level_for(elapsed: u64, when: u64) -> usize {
        let masked = elapsed ^ when;
        if masked == 0 {
            0
        } else {
            (63 - masked.leading_zeros()) as usize / LEVEL_BITS as usize
        }
    }

    fn slot_for(when: u64, level: usize) -> usize {
        ((when >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
    }

    /// Queue an entry. `time` must not precede the last popped time; a
    /// stale timestamp is clamped to `elapsed` (matching what a
    /// comparison heap would do: pop it next).
    pub fn push(&mut self, entry: Entry<T>) {
        let Entry { mut time, seq, value } = entry;
        if time < self.elapsed {
            debug_assert!(false, "event scheduled in the past");
            time = self.elapsed;
        }
        let at = if self.free == NIL {
            assert!(self.cells.len() < NIL as usize, "timer wheel slab is full");
            self.cells.push(Cell { time, seq, next: NIL, value: Some(value) });
            (self.cells.len() - 1) as u32
        } else {
            let at = self.free;
            let cell = &mut self.cells[at as usize];
            self.free = cell.next;
            cell.time = time;
            cell.seq = seq;
            cell.value = Some(value);
            at
        };
        self.link(at);
        self.len += 1;
    }

    /// Queue an entry filed `delay` after the pusher's clock: appended to
    /// that delay's lane when it extends the lane's tail, else filed in
    /// the wheel as [`push`](Self::push) files it. Pop order is the same
    /// either way.
    pub fn push_lane(&mut self, delay: u64, entry: Entry<T>) {
        let lane = match self.lanes.iter().position(|l| l.delay == delay) {
            Some(i) => i,
            None if self.lanes.len() < LANES => {
                self.lanes.push(Lane {
                    delay,
                    entries: VecDeque::new(),
                });
                self.lanes.len() - 1
            }
            None => return self.push(entry),
        };
        let entries = &mut self.lanes[lane].entries;
        if entries
            .back()
            .is_some_and(|tail| (tail.time, tail.seq) > (entry.time, entry.seq))
        {
            return self.push(entry);
        }
        entries.push_back(entry);
        self.len += 1;
    }

    /// The lane whose head is earliest by `(time, seq)`, with that key.
    fn first_lane(&self) -> Option<(usize, (u64, u64))> {
        let heads = self.lanes.iter().enumerate();
        let keyed = heads.filter_map(|(i, l)| l.entries.front().map(|e| (i, (e.time, e.seq))));
        keyed.min_by_key(|&(_, key)| key)
    }

    /// Pop lane `i`'s head; `elapsed` stays where it is.
    fn pop_lane(&mut self, i: usize) -> Option<Entry<T>> {
        self.len -= 1;
        self.lanes[i].entries.pop_front()
    }

    /// Link cell `at` behind the tail of the slot its time files under.
    fn link(&mut self, at: u32) {
        let cell = &mut self.cells[at as usize];
        cell.next = NIL;
        let level = Self::level_for(self.elapsed, cell.time);
        let slot = Self::slot_for(cell.time, level);
        let chain = &mut self.slots[level][slot];
        if chain.head == NIL {
            chain.head = at;
            self.occupied[level] |= 1 << slot;
        } else {
            self.cells[chain.tail as usize].next = at;
        }
        chain.tail = at;
    }

    /// Remove and return the earliest entry by `(time, seq)`.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        if self.len == 0 {
            return None;
        }
        let lane = self.first_lane();
        loop {
            // The lowest level with any occupancy holds the next event:
            // by the invariant, occupied slots sit at-or-ahead of the
            // current position within this rotation, and anything filed
            // at a higher level is strictly later than everything below.
            let Some(level) = self.occupied.iter().position(|&bits| bits != 0) else {
                return self.pop_lane(lane?.0);
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            let Slot { head, tail } = self.slots[level][slot];
            // Alone in the earliest slot = the earliest event outright:
            // pop it here instead of walking it down a level at a time.
            // Nothing is left in the slot and every lower level is empty,
            // so moving `elapsed` to its time keeps the invariant.
            if level == 0 || head == tail {
                // One L0 slot = one timestamp; tie-break by minimum seq.
                let first = &self.cells[head as usize];
                let (mut min, mut min_seq, mut before_min) = (head, first.seq, NIL);
                let (mut before, mut at) = (head, first.next);
                while at != NIL {
                    let cell = &self.cells[at as usize];
                    if cell.seq < min_seq {
                        (min, min_seq, before_min) = (at, cell.seq, before);
                    }
                    (before, at) = (at, cell.next);
                }
                let cell = &mut self.cells[min as usize];
                if let Some((i, _)) = lane.filter(|&(_, key)| key < (cell.time, min_seq)) {
                    return self.pop_lane(i);
                }
                let after_min = cell.next;
                let entry = Entry {
                    time: cell.time,
                    seq: cell.seq,
                    value: cell.value.take().expect("a linked cell holds its payload"),
                };
                cell.next = self.free;
                self.free = min;
                let chain = &mut self.slots[level][slot];
                if before_min == NIL {
                    chain.head = after_min;
                } else {
                    self.cells[before_min as usize].next = after_min;
                }
                if min == tail {
                    chain.tail = before_min;
                }
                if chain.head == NIL {
                    self.occupied[level] &= !(1 << slot);
                }
                self.len -= 1;
                debug_assert!(entry.time >= self.elapsed);
                self.elapsed = entry.time;
                return Some(entry);
            }
            // Cascade: advance to the slot's base time and re-link its
            // cells one level (or more) down.
            let shift = LEVEL_BITS as usize * level;
            // Bits above this level's group (the top level has none — its
            // group reaches past bit 63, so the mask would overshoot).
            let high = if shift + LEVEL_BITS as usize >= 64 {
                0
            } else {
                self.elapsed & !((1u64 << (shift + LEVEL_BITS as usize)) - 1)
            };
            let slot_base = high | ((slot as u64) << shift);
            debug_assert!(slot_base >= self.elapsed);
            // A lane head before the base pops first: moving `elapsed`
            // past it would strand a push between the two.
            if let Some((i, _)) = lane.filter(|&(_, (time, _))| time < slot_base) {
                return self.pop_lane(i);
            }
            self.elapsed = slot_base;
            self.slots[level][slot] = EMPTY;
            self.occupied[level] &= !(1 << slot);
            let mut at = head;
            while at != NIL {
                let next = self.cells[at as usize].next;
                self.link(at);
                at = next;
            }
        }
    }
}

impl<T> fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimerWheel")
            .field("len", &self.len)
            .field("elapsed", &self.elapsed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.time, e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
        for (seq, &t) in [500u64, 3, 0, 1_000_000_007, 64, 63, 4096].iter().enumerate() {
            w.push(Entry {
                time: t,
                seq: seq as u64,
                value: 0u32,
            });
        }
        let popped = drain(&mut w);
        let times: Vec<u64> = popped.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![0, 3, 63, 64, 500, 4096, 1_000_000_007]);
    }

    #[test]
    fn same_timestamp_pops_in_push_order() {
        // The FIFO guarantee the engine's golden reports rest on.
        let mut w = TimerWheel::new();
        for seq in 0..100u64 {
            w.push(Entry {
                time: 777,
                seq,
                value: 0u32,
            });
        }
        let popped = drain(&mut w);
        assert_eq!(
            popped.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cascaded_ties_still_pop_by_seq() {
        // An early-pushed event parked at a high level cascades into the
        // same L0 slot as a later-pushed event with the same timestamp —
        // the min-seq scan must still pop the older one first.
        let mut w = TimerWheel::new();
        w.push(Entry { time: 100_000, seq: 0, value: 0u32 }); // files high
        w.push(Entry { time: 5, seq: 1, value: 0u32 });
        let first = w.pop().unwrap();
        assert_eq!((first.time, first.seq), (5, 1));
        // Now elapsed = 5; push a same-time rival with a later seq.
        w.push(Entry { time: 100_000, seq: 2, value: 0u32 });
        let a = w.pop().unwrap();
        let b = w.pop().unwrap();
        assert_eq!((a.time, a.seq), (100_000, 0));
        assert_eq!((b.time, b.seq), (100_000, 2));
    }

    #[test]
    fn interleaved_push_pop_advances_monotonically() {
        let mut w = TimerWheel::new();
        w.push(Entry { time: 10, seq: 0, value: 0u32 });
        assert_eq!(w.pop().unwrap().time, 10);
        // Pushing "now" after advancing is legal and pops immediately.
        w.push(Entry { time: 10, seq: 1, value: 0u32 });
        w.push(Entry { time: 11, seq: 2, value: 0u32 });
        assert_eq!(w.pop().unwrap().seq, 1);
        assert_eq!(w.pop().unwrap().seq, 2);
        assert!(w.is_empty());
    }

    /// Reference implementation: sort by `(time, seq)`.
    #[test]
    fn matches_reference_on_random_workloads() {
        let mut rng = SimRng::seed_from_u64(0x5eed);
        for _ in 0..50 {
            let mut w = TimerWheel::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut popped = Vec::new();
            for _ in 0..400 {
                if rng.below(3) > 0 || reference.is_empty() {
                    // Push: times cluster near `now` with occasional
                    // far-future spikes to exercise high levels.
                    let t = if rng.below(10) == 0 {
                        now + rng.below(10_000_000_000)
                    } else {
                        now + rng.below(2_000)
                    };
                    w.push(Entry { time: t, seq, value: 0u32 });
                    reference.push((t, seq));
                    seq += 1;
                } else {
                    let got = w.pop().unwrap();
                    reference.sort();
                    let want = reference.remove(0);
                    assert_eq!((got.time, got.seq), want);
                    now = got.time;
                    popped.push(want);
                }
            }
            let mut rest = drain(&mut w);
            reference.sort();
            rest.sort();
            assert_eq!(rest, reference);
        }
    }

    /// `Some(level)` when the next pop takes the lone-entry path above
    /// level 0.
    fn lone_level(w: &TimerWheel<u32>) -> Option<usize> {
        let level = (1..LEVELS).find(|&l| w.occupied[l] != 0)?;
        let first = w.slots[level][w.occupied[level].trailing_zeros() as usize];
        (w.occupied[0] == 0 && first.head == first.tail).then_some(level)
    }

    /// Pop once from both and compare; returns the popped time.
    fn pop_both(w: &mut TimerWheel<u32>, reference: &mut Vec<(u64, u64)>) -> u64 {
        let got = w.pop().unwrap();
        reference.sort();
        assert_eq!((got.time, got.seq), reference.remove(0));
        got.time
    }

    /// A few periodic timers, far apart in sim-time: the shape of DCQCN's
    /// 55 µs timers, where almost every event is alone in its slot.
    #[test]
    fn sparse_periodic_timers_match_reference_on_the_lone_entry_path() {
        let mut rng = SimRng::seed_from_u64(0x10ae);
        let mut lone_pops = [0u32; LEVELS];
        for round in 0..40 {
            let mut w = TimerWheel::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            // Periods filing at levels 1, 2 and 3 respectively.
            let periods = [70 + rng.below(3_000), 55_000, 300_000 + rng.below(1 << 20)];
            let timers = 1 + round % 5;
            let mut seq = 0u64;
            for _ in 0..timers {
                let t = rng.below(100_000);
                w.push(Entry { time: t, seq, value: 0u32 });
                reference.push((t, seq));
                seq += 1;
            }
            for _ in 0..600 {
                if let Some(level) = lone_level(&w) {
                    lone_pops[level] += 1;
                }
                let t = pop_both(&mut w, &mut reference) + periods[rng.below(3) as usize];
                w.push(Entry { time: t, seq, value: 0u32 });
                reference.push((t, seq));
                seq += 1;
            }
            reference.sort();
            assert_eq!(drain(&mut w), reference);
        }
        assert!(
            lone_pops[1..=3].iter().all(|&n| n > 100),
            "lone pops by level: {lone_pops:?}"
        );
    }

    /// Equal timestamps pushed under different `elapsed` values must
    /// still meet in one slot and pop by `seq`.
    #[test]
    fn equal_timestamps_pushed_at_different_elapsed_pop_by_seq() {
        let mut rng = SimRng::seed_from_u64(0xe9a1);
        for _ in 0..50 {
            let mut w = TimerWheel::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let targets: Vec<u64> = (0..4).map(|_| 1_000 + rng.below(3_000_000)).collect();
            let mut seq = 0u64;
            let mut now = 0u64;
            for _ in 0..500 {
                let t = match rng.below(4) {
                    // A rival for a target timestamp still ahead of `now`.
                    0 => targets[rng.below(4) as usize].max(now),
                    // Filler that moves `elapsed` on, by either path.
                    1 => now + rng.below(5_000),
                    _ if reference.is_empty() => now,
                    _ => {
                        now = pop_both(&mut w, &mut reference);
                        continue;
                    }
                };
                w.push(Entry { time: t, seq, value: 0u32 });
                reference.push((t, seq));
                seq += 1;
            }
            reference.sort();
            assert_eq!(drain(&mut w), reference);
        }
    }

    /// The wheel against a sorted `(time, seq)` model over 150 000 mixed
    /// operations whose depth swings between a few entries and a few
    /// thousand: far-future spikes, same-instant pushes, and rivals for a
    /// handful of target timestamps pushed under ever-different `elapsed`.
    /// Every payload must come back with the `(time, seq)` it was pushed
    /// under however often its cell was re-linked, `len()` must track the
    /// model, and the slab must never hold more cells than the queue was
    /// deep at its deepest — every later push reuses a popped cell.
    #[test]
    fn differential_against_a_sorted_model_reuses_cells_within_peak_depth() {
        use std::collections::BTreeSet;
        const OPS: usize = 150_000;
        let mut rng = SimRng::seed_from_u64(0xd1ff);
        let mut w: TimerWheel<u64> = TimerWheel::new();
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut targets = [0u64; 4];
        let (mut seq, mut now, mut peak) = (0u64, 0u64, 0usize);
        for op in 0..OPS {
            // Alternate filling and draining phases so the depth swings.
            let push_odds = if (op / 6_000) % 2 == 0 { 7 } else { 3 };
            if model.is_empty() || rng.below(10) < push_odds {
                let time = match rng.below(16) {
                    0 => now + rng.below(10_000_000_000),
                    1 => now,
                    2..=4 => {
                        let target = &mut targets[rng.below(4) as usize];
                        if *target <= now {
                            *target = now + 1_000 + rng.below(3_000_000);
                        }
                        *target
                    }
                    _ => now + rng.below(60_000),
                };
                w.push(Entry { time, seq, value: !seq });
                model.insert((time, seq));
                seq += 1;
            } else {
                let got = w.pop().unwrap();
                assert_eq!(Some((got.time, got.seq)), model.pop_first(), "op {op}");
                assert_eq!(got.value, !got.seq);
                now = got.time;
            }
            peak = peak.max(model.len());
            assert_eq!(w.len(), model.len());
            assert!(w.cells.len() <= peak, "{} cells, peak depth {peak}", w.cells.len());
        }
        assert!(peak > 2_000, "peak depth {peak}");
        assert!(seq > 20 * w.cells.len() as u64, "{seq} pushes, {} cells", w.cells.len());
        while let Some(got) = w.pop() {
            assert_eq!(Some((got.time, got.seq)), model.pop_first());
            assert_eq!(got.value, !got.seq);
        }
        assert!(model.is_empty() && w.is_empty());
    }

    /// Entries queued in the lanes.
    fn lane_len(w: &TimerWheel<u64>) -> usize {
        w.lanes.iter().map(|l| l.entries.len()).sum()
    }

    /// The wheel with its lanes against a sorted `(time, seq)` model over
    /// 120 000 mixed operations. Lane pushes one delay ahead of `now` meet
    /// wheel pushes at the same instants (ties across the two, both ways
    /// round in `seq`), pushes that would go backwards in their lane, six
    /// delays for four lanes, far-future spikes that make the wheel
    /// cascade while lane heads wait, and wheel pushes just after `now`,
    /// which a cascade past a lane head would strand in the past. Pops
    /// interleave with pushes in filling and draining phases.
    #[test]
    fn differential_of_lanes_and_wheel_against_a_sorted_model() {
        use std::collections::BTreeSet;
        const OPS: usize = 120_000;
        const DELAYS: [u64; 6] = [55_000, 50, 75, 640, 4_096, 1 << 20];
        let mut rng = SimRng::seed_from_u64(0x1a9e5);
        let mut w: TimerWheel<u64> = TimerWheel::new();
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        let (mut seq, mut now, mut peak) = (0u64, 0u64, 0usize);
        let (mut into_lanes, mut turned_away, mut lane_pops, mut ties) = (0, 0, 0, 0);
        for op in 0..OPS {
            let push_odds = if (op / 5_000) % 2 == 0 { 7 } else { 3 };
            if model.is_empty() || rng.below(10) < push_odds {
                let delay = DELAYS[rng.below(DELAYS.len() as u64) as usize];
                let before = lane_len(&w);
                let (time, lane) = match rng.below(16) {
                    0..=6 => (now + delay, true),
                    // Under its lane's tail, most of the time.
                    7 => (now + rng.below(delay), true),
                    // A rival in the wheel for a lane's instant.
                    8..=10 => (now + delay, false),
                    11..=13 => (now + rng.below(100), false),
                    14 => (now + rng.below(60_000), false),
                    _ => (now + rng.below(10_000_000_000), false),
                };
                let entry = Entry {
                    time,
                    seq,
                    value: !seq,
                };
                if lane {
                    w.push_lane(delay, entry);
                    if lane_len(&w) > before {
                        into_lanes += 1;
                    } else {
                        turned_away += 1;
                    }
                } else {
                    w.push(entry);
                }
                model.insert((time, seq));
                seq += 1;
            } else {
                let before = lane_len(&w);
                let got = w.pop().unwrap();
                assert_eq!(Some((got.time, got.seq)), model.pop_first(), "op {op}");
                assert_eq!(got.value, !got.seq);
                lane_pops += usize::from(lane_len(&w) < before);
                ties += usize::from(model.first().is_some_and(|&(t, _)| t == got.time));
                now = got.time;
            }
            peak = peak.max(model.len());
            assert_eq!(w.len(), model.len());
            assert!(w.cells.len() <= peak, "{} cells, peak depth {peak}", w.cells.len());
        }
        assert_eq!(w.lanes.len(), LANES);
        assert!(
            into_lanes > 12_000 && lane_pops > 12_000,
            "{into_lanes} in, {lane_pops} out"
        );
        assert!(
            turned_away > 8_000 && ties > 10_000,
            "{turned_away} turned away, {ties} ties"
        );
        while let Some(got) = w.pop() {
            assert_eq!(Some((got.time, got.seq)), model.pop_first());
            assert_eq!(got.value, !got.seq);
        }
        assert!(model.is_empty() && w.is_empty());
    }

    #[test]
    fn far_future_and_max_times() {
        let mut w = TimerWheel::new();
        w.push(Entry { time: u64::MAX, seq: 0, value: 0u32 });
        w.push(Entry { time: u64::MAX - 1, seq: 1, value: 0u32 });
        w.push(Entry { time: 1, seq: 2, value: 0u32 });
        assert_eq!(w.pop().unwrap().time, 1);
        assert_eq!(w.pop().unwrap().time, u64::MAX - 1);
        assert_eq!(w.pop().unwrap().time, u64::MAX);
        assert!(w.pop().is_none());
    }
}
