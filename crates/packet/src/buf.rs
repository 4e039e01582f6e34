//! The packet-plane memory model: [`Frame`], a cheaply-clonable handle
//! over immutable shared bytes, plus the thread-local allocation/copy
//! accounting behind the engine's `FrameStats`.
//!
//! A simulated packet is serialized exactly once ([`crate::RoceFrame::emit`])
//! and the resulting buffer then travels the whole pipeline — engine queue,
//! switch, mirror fan-out, dumper rings, RNIC — by reference. `Frame::clone`
//! is an `Arc` bump; anything that must change bytes in flight (ECN marking,
//! corruption, mirror-metadata scavenging) goes through [`Frame::make_mut`],
//! which mutates in place when the buffer is uniquely owned and copies
//! otherwise. The old design gave every hop its own `Vec<u8>`; the counters
//! here measure both what the new plane actually copies (`bytes_copied`)
//! and what the owned-vector design would have copied at each point we now
//! share (`bytes_shared`), so the ledger pinned in `tests/golden_reports.rs`
//! states the reduction without keeping the old code alive.
//!
//! A wire buffer is one allocator call: [`crate::RoceFrame::emit`] writes
//! into a `BytesMut` whose allocation already holds the reference count,
//! [`Frame::from_buf`] shares it as it is, and a copy-on-write detach is
//! one `Arc<[u8]>` copy. Nothing else about a frame lives on the heap —
//! the live/peak ledger is kept by the handles themselves (see [`Frame`]).
//!
//! Counters are thread-local: a simulation runs on one thread, so the
//! numbers are exact and deterministic per run; parallel fuzz workers each
//! see their own counters and never race.

use bytes::{Bytes, BytesMut};
use std::cell::Cell;
use std::ops::{Deref, RangeBounds};

thread_local! {
    static FRAMES_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static BYTES_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static BYTES_COPIED: Cell<u64> = const { Cell::new(0) };
    static FRAMES_SHARED: Cell<u64> = const { Cell::new(0) };
    static BYTES_SHARED: Cell<u64> = const { Cell::new(0) };
    static LIVE_FRAMES: Cell<u64> = const { Cell::new(0) };
    static PEAK_LIVE_FRAMES: Cell<u64> = const { Cell::new(0) };
    static NEXT_TRACE_ID: Cell<u64> = const { Cell::new(0) };
}

/// Point-in-time reading of this thread's frame-plane counters.
/// Consumers (the engine) subtract a baseline snapshot to get per-run
/// deltas; see `lumina_sim::engine::FrameStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Distinct frame buffers created.
    pub frames_allocated: u64,
    /// Bytes backing those buffers.
    pub bytes_allocated: u64,
    /// Bytes actually memcpy'd: serialization payload copies, CoW
    /// mutations of shared buffers, trimmed capture copies.
    pub bytes_copied: u64,
    /// `Frame::clone` calls — hand-offs that share instead of copying.
    pub frames_shared: u64,
    /// Bytes passed by reference (or scanned in place) where the
    /// owned-`Vec<u8>`-per-hop design copied: clones, zero-copy payload
    /// parses, streamed ICRC scans, ring hand-offs. `bytes_copied +
    /// bytes_shared` is therefore the old design's copy bill.
    pub bytes_shared: u64,
    /// Distinct buffers alive right now on this thread.
    pub live_frames: u64,
    /// High-water mark of `live_frames` since the last [`reset_peak`].
    pub peak_live_frames: u64,
}

/// Read this thread's counters.
pub fn counters() -> CounterSnapshot {
    CounterSnapshot {
        frames_allocated: FRAMES_ALLOCATED.get(),
        bytes_allocated: BYTES_ALLOCATED.get(),
        bytes_copied: BYTES_COPIED.get(),
        frames_shared: FRAMES_SHARED.get(),
        bytes_shared: BYTES_SHARED.get(),
        live_frames: LIVE_FRAMES.get(),
        peak_live_frames: PEAK_LIVE_FRAMES.get(),
    }
}

/// Restart the live-frame high-water mark at the current live count.
/// The engine calls this when it is constructed so each run's peak
/// measures that run's buffers, not a predecessor's leftovers.
pub fn reset_peak() {
    PEAK_LIVE_FRAMES.set(LIVE_FRAMES.get());
}

/// Record `n` bytes physically copied outside `Frame`'s own methods
/// (e.g. the payload memcpy inside `RoceFrame::emit`, or the dumper's
/// trimmed-capture copy).
pub fn note_copied(n: usize) {
    BYTES_COPIED.set(BYTES_COPIED.get() + n as u64);
}

/// Record `n` bytes read in place where the previous design materialized
/// a copy (zero-copy payload parse, streamed ICRC scan).
pub fn note_shared(n: usize) {
    BYTES_SHARED.set(BYTES_SHARED.get() + n as u64);
}

/// The provenance id the next new [`Frame`] on this thread will be
/// stamped with. A run's event log reads this when the run is built and
/// stores subsequent ids relative to it, so same-seed runs produce
/// identical traces regardless of how many frames earlier runs on this
/// thread (or other fuzz workers) already minted.
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.get()
}

/// Count one more distinct buffer alive on this thread.
fn note_born() {
    let live = LIVE_FRAMES.get() + 1;
    LIVE_FRAMES.set(live);
    if live > PEAK_LIVE_FRAMES.get() {
        PEAK_LIVE_FRAMES.set(live);
    }
}

/// An immutable, shared wire-format packet buffer.
///
/// `Clone` is an `Arc` bump (counted as a share); mutation goes through
/// [`Frame::make_mut`], which is in-place when unique and copy-on-write
/// when shared. There is deliberately no constructor taking a borrowed
/// slice on the hot path: frames enter the plane exactly once, serialized
/// in place into the buffer [`Frame::from_buf`] then shares.
///
/// The handle is the buffer and nothing else: bytes and reference count
/// are one allocation, and the live/peak ledger rides on that count — a
/// buffer is born in a constructor or a copy-on-write detach and counts
/// as dead when a handle drops while it is the buffer's only owner.
/// Clones and slices are owners, and so is a payload view a parse handed
/// out ([`Frame::as_bytes`]): such a view is meant to be dropped before
/// the frame it reads, or the buffer stays on the ledger.
#[derive(Debug)]
pub struct Frame {
    bytes: Bytes,
    trace_id: u64,
}

impl Frame {
    /// Share a buffer that was just serialized in place — zero-copy, one
    /// allocation in all; counts one. The entry point of the hot path.
    pub fn from_buf(buf: BytesMut) -> Frame {
        Frame::born(buf.freeze())
    }

    /// Move an owned vector's bytes into a new frame; counts one
    /// allocation. Test/tooling convenience: a vector has no room for the
    /// reference count, so the bytes move house once on the way in.
    pub fn from_vec(buf: Vec<u8>) -> Frame {
        Frame::born(Bytes::from(buf))
    }

    fn born(bytes: Bytes) -> Frame {
        FRAMES_ALLOCATED.set(FRAMES_ALLOCATED.get() + 1);
        BYTES_ALLOCATED.set(BYTES_ALLOCATED.get() + bytes.len() as u64);
        let trace_id = NEXT_TRACE_ID.get();
        NEXT_TRACE_ID.set(trace_id.wrapping_add(1));
        note_born();
        Frame { bytes, trace_id }
    }

    /// The provenance id stamped when this packet entered the plane.
    /// Clones, slices and copy-on-write detaches all keep the id: it names
    /// the *packet*, not the allocation, so the lifecycle tracer can follow
    /// one packet across mirror copies and in-flight mutations. Ids are a
    /// per-thread monotonic counter — meaningful only relative to
    /// [`next_trace_id`] read at trace start.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Copy a borrowed slice into a new frame. Test/tooling convenience —
    /// the copy is counted.
    pub fn copy_from_slice(data: &[u8]) -> Frame {
        BYTES_COPIED.set(BYTES_COPIED.get() + data.len() as u64);
        Frame::born(Bytes::copy_from_slice(data))
    }

    /// Length of the viewed bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// A sub-view sharing the same allocation; counts the viewed bytes
    /// as shared — the old design copied them out.
    pub fn slice(&self, range: impl RangeBounds<usize> + Clone) -> Frame {
        let view = self.bytes.slice(range);
        FRAMES_SHARED.set(FRAMES_SHARED.get() + 1);
        BYTES_SHARED.set(BYTES_SHARED.get() + view.len() as u64);
        Frame {
            bytes: view,
            trace_id: self.trace_id,
        }
    }

    /// The underlying shared buffer, for zero-copy interop with `Bytes`
    /// consumers (e.g. parsed payloads view into it).
    pub fn as_bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// Copy out an owned vector (counted).
    pub fn to_vec(&self) -> Vec<u8> {
        BYTES_COPIED.set(BYTES_COPIED.get() + self.len() as u64);
        self.bytes.to_vec()
    }

    /// Mutable access with copy-on-write semantics: in place when this
    /// handle uniquely owns the buffer, otherwise the view is copied into
    /// a fresh allocation first (counted) and this handle re-points at it.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if !self.bytes.is_unique() {
            let len = self.len() as u64;
            BYTES_COPIED.set(BYTES_COPIED.get() + len);
            FRAMES_ALLOCATED.set(FRAMES_ALLOCATED.get() + 1);
            BYTES_ALLOCATED.set(BYTES_ALLOCATED.get() + len);
            self.bytes = Bytes::copy_from_slice(&self.bytes);
            note_born();
        }
        self.bytes
            .get_mut()
            .expect("frame buffer is uniquely owned after copy-on-write")
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        // The last owner takes the buffer with it.
        if self.bytes.is_unique() {
            LIVE_FRAMES.set(LIVE_FRAMES.get().saturating_sub(1));
        }
    }
}

impl Clone for Frame {
    fn clone(&self) -> Frame {
        FRAMES_SHARED.set(FRAMES_SHARED.get() + 1);
        BYTES_SHARED.set(BYTES_SHARED.get() + self.len() as u64);
        Frame {
            bytes: self.bytes.clone(),
            trace_id: self.trace_id,
        }
    }
}

impl Deref for Frame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Frame {}

impl PartialEq<[u8]> for Frame {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Frame {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta<R>(f: impl FnOnce() -> R) -> (CounterSnapshot, R) {
        let before = counters();
        let r = f();
        let after = counters();
        (
            CounterSnapshot {
                frames_allocated: after.frames_allocated - before.frames_allocated,
                bytes_allocated: after.bytes_allocated - before.bytes_allocated,
                bytes_copied: after.bytes_copied - before.bytes_copied,
                frames_shared: after.frames_shared - before.frames_shared,
                bytes_shared: after.bytes_shared - before.bytes_shared,
                live_frames: after.live_frames,
                peak_live_frames: after.peak_live_frames,
            },
            r,
        )
    }

    #[test]
    fn clone_shares_instead_of_copying() {
        let f = Frame::from_vec(vec![1u8; 100]);
        let (d, clones) = delta(|| (f.clone(), f.clone()));
        assert_eq!(d.bytes_copied, 0);
        assert_eq!(d.frames_shared, 2);
        assert_eq!(d.bytes_shared, 200);
        assert_eq!(clones.0.as_slice(), f.as_slice());
    }

    #[test]
    fn make_mut_is_in_place_when_unique() {
        let mut f = Frame::from_vec(vec![0u8; 64]);
        let (d, ()) = delta(|| f.make_mut()[3] = 9);
        assert_eq!(d.bytes_copied, 0, "unique owner must not copy");
        assert_eq!(f[3], 9);
    }

    #[test]
    fn make_mut_copies_when_shared_and_detaches() {
        let mut f = Frame::from_vec(vec![1u8; 64]);
        let original = f.clone();
        let (d, ()) = delta(|| f.make_mut()[0] = 7);
        assert_eq!(d.bytes_copied, 64, "shared buffer copies on write");
        assert_eq!(d.frames_allocated, 1);
        assert_eq!(f[0], 7);
        assert_eq!(original[0], 1, "the shared original is untouched");
        // Now unique again: a second write is free.
        let (d2, ()) = delta(|| f.make_mut()[1] = 8);
        assert_eq!(d2.bytes_copied, 0);
    }

    #[test]
    fn slice_views_same_allocation() {
        let f = Frame::from_vec((0u8..32).collect());
        let (d, s) = delta(|| f.slice(4..8));
        assert_eq!(d.bytes_copied, 0);
        assert_eq!(d.bytes_shared, 4);
        assert_eq!(s.as_slice(), &[4, 5, 6, 7]);
    }

    #[test]
    fn live_tracking_counts_buffers_not_handles() {
        let base = counters().live_frames;
        let f = Frame::from_vec(vec![0u8; 8]);
        let c = f.clone();
        assert_eq!(counters().live_frames, base + 1, "clone is the same buffer");
        drop(f);
        assert_eq!(counters().live_frames, base + 1, "clone keeps it alive");
        drop(c);
        assert_eq!(counters().live_frames, base);
    }

    #[test]
    fn trace_id_names_the_packet_across_clone_slice_and_cow() {
        let base = next_trace_id();
        let mut f = Frame::from_vec(vec![1u8; 32]);
        let g = Frame::from_vec(vec![2u8; 32]);
        assert_eq!(f.trace_id(), base);
        assert_eq!(g.trace_id(), base + 1, "ids are monotonic per thread");
        let c = f.clone();
        let s = f.slice(4..8);
        assert_eq!(c.trace_id(), f.trace_id(), "clone keeps the id");
        assert_eq!(s.trace_id(), f.trace_id(), "slice keeps the id");
        f.make_mut()[0] = 9; // shared → copy-on-write detach
        assert_eq!(f.trace_id(), c.trace_id(), "CoW detach keeps the id");
        assert_eq!(next_trace_id(), base + 2, "CoW mints no new id");
    }

    #[test]
    fn peak_tracks_high_water_and_resets() {
        reset_peak();
        let base = counters().live_frames;
        let frames: Vec<Frame> = (0..5).map(|_| Frame::from_vec(vec![0u8; 4])).collect();
        assert_eq!(counters().peak_live_frames, base + 5);
        drop(frames);
        assert_eq!(counters().peak_live_frames, base + 5, "peak survives drops");
        reset_peak();
        assert_eq!(counters().peak_live_frames, base);
    }
}
