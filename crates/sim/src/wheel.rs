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
//! Pop order is the engine's contract: strictly `(time, seq)`, where
//! `seq` is the monotonic sequence number the engine assigned at push.
//! All events in one level-0 slot share one timestamp (the slot is 1 ns
//! wide and the wheel's invariant pins the high bits), so the tie-break
//! is a min-`seq` scan of that slot. The scan is what makes cascading
//! safe: re-filing can append an *older* (lower-seq) event behind a
//! newer one, and a FIFO slot would then pop them out of order.
//!
//! The lone-entry pop is order-safe for the same reason the lowest
//! occupied slot is the earliest: every stored event sits at exactly
//! `level_for(elapsed, time)`, so equal timestamps always share a slot,
//! and an event alone in the first occupied slot of the lowest occupied
//! level has neither an earlier nor an equal-time rival anywhere.
//!
//! Push and pop are O(levels) amortized — no comparison-heap log factor.
//! The only allocations are the slot vectors': a slot keeps its buffer
//! across level-0 and lone-entry pops and gives it up when it cascades.
//! The buffer given up last is kept as the one `spare`, and the next slot
//! filed into from nothing takes it over; any other empty slot grows a
//! buffer of its own on reuse.

use std::fmt;

/// Bits of the timestamp consumed per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels: ⌈64 / 6⌉ = 11 covers the whole u64 nanosecond range.
const LEVELS: usize = 64usize.div_ceil(LEVEL_BITS as usize);

/// One entry in the wheel: an opaque payload ordered by `(time, seq)`.
pub struct Entry<T> {
    /// Absolute nanosecond timestamp.
    pub time: u64,
    /// Engine-assigned monotonic tie-break.
    pub seq: u64,
    /// The payload.
    pub value: T,
}

struct Level<T> {
    slots: Vec<Vec<Entry<T>>>,
    /// Bit `i` set ⇔ `slots[i]` is non-empty.
    occupied: u64,
}

impl<T> Level<T> {
    fn new() -> Level<T> {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: 0,
        }
    }
}

/// The hierarchical wheel. Generic over the payload so the determinism
/// tests can drive it with plain markers.
pub struct TimerWheel<T> {
    levels: Vec<Level<T>>,
    /// The wheel's notion of "now": the timestamp of the last pop (or the
    /// base of the last cascaded slot). All stored events satisfy
    /// `time >= elapsed` and sit at `level_for(elapsed, time)`: they agree
    /// with `elapsed` on every bit group above their level and, above
    /// level 0, differ from it in their own — the invariant that makes
    /// "lowest occupied slot" mean "earliest event".
    elapsed: u64,
    len: usize,
    /// The buffer of the slot that cascaded last, empty: the next slot
    /// filed into from nothing takes it over instead of allocating. One
    /// buffer, not a pool — the wheel holds no capacity it has no use for.
    spare: Vec<Entry<T>>,
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
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            elapsed: 0,
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Number of queued entries.
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
    pub fn push(&mut self, mut entry: Entry<T>) {
        if entry.time < self.elapsed {
            debug_assert!(false, "event scheduled in the past");
            entry.time = self.elapsed;
        }
        self.file(entry);
        self.len += 1;
    }

    fn file(&mut self, entry: Entry<T>) {
        let level = Self::level_for(self.elapsed, entry.time);
        let slot = Self::slot_for(entry.time, level);
        let lv = &mut self.levels[level];
        let bucket = &mut lv.slots[slot];
        if bucket.capacity() == 0 {
            *bucket = std::mem::take(&mut self.spare);
        }
        bucket.push(entry);
        lv.occupied |= 1 << slot;
    }

    /// Remove and return the earliest entry by `(time, seq)`.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        if self.len == 0 {
            return None;
        }
        loop {
            // The lowest level with any occupancy holds the next event:
            // by the invariant, occupied slots sit at-or-ahead of the
            // current position within this rotation, and anything filed
            // at a higher level is strictly later than everything below.
            let level = (0..LEVELS).find(|&l| self.levels[l].occupied != 0)?;
            let lv = &mut self.levels[level];
            let slot = lv.occupied.trailing_zeros() as usize;
            let bucket = &mut lv.slots[slot];
            // Alone in the earliest slot = the earliest event outright:
            // pop it here instead of walking it down a level at a time.
            // Nothing is left in the slot and every lower level is empty,
            // so moving `elapsed` to its time keeps the invariant.
            if level == 0 || bucket.len() == 1 {
                // One L0 slot = one timestamp; tie-break by minimum seq.
                let min = bucket
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.seq)
                    .map(|(i, _)| i)
                    .expect("occupied slot is non-empty");
                let entry = bucket.swap_remove(min);
                if bucket.is_empty() {
                    lv.occupied &= !(1 << slot);
                }
                self.len -= 1;
                debug_assert!(entry.time >= self.elapsed);
                self.elapsed = entry.time;
                return Some(entry);
            }
            // Cascade: advance to the slot's base time and re-file its
            // events one level (or more) down.
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
            self.elapsed = slot_base;
            let mut drained = std::mem::take(&mut self.levels[level].slots[slot]);
            self.levels[level].occupied &= !(1 << slot);
            for e in drained.drain(..) {
                self.file(e);
            }
            self.spare = drained;
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
        let level = (1..LEVELS).find(|&l| w.levels[l].occupied != 0)?;
        let lv = &w.levels[level];
        let first = &lv.slots[lv.occupied.trailing_zeros() as usize];
        (w.levels[0].occupied == 0 && first.len() == 1).then_some(level)
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
