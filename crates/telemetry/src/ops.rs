//! Low-rate operational telemetry for long-running offline jobs.
//!
//! The ingest pipeline can chew through multi-gigabyte captures; an
//! operator watching it wants a heartbeat — how far along, how fast,
//! how much was skipped — without the firehose of the event journal.
//! [`OpsReporter`] provides exactly that: a rate-limited progress line
//! writer that emits at most one line per configured interval (default
//! 1 Hz), plus a final summary line on [`OpsReporter::finish`].
//!
//! Unlike the rest of this crate, the reporter deals in *wall-clock*
//! time by design: it describes the ingest process itself, not the
//! simulated world, and its output goes to stderr where it never
//! contaminates deterministic stdout artifacts. Tests drive it through
//! an injected clock so they stay instant and deterministic.

use std::io::Write;
use std::time::{Duration, Instant};

/// Progress counters one heartbeat line reports.
///
/// The caller owns the counters (they usually live in its recovery
/// stats) and tells [`OpsReporter::tick`] how to snapshot them; the
/// reporter decides *when* to print, asks for the snapshot only then, and
/// computes rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpsSnapshot {
    /// Frames examined so far (recovered + skipped).
    pub frames_seen: u64,
    /// Frames skipped (foreign, unparseable, or missing metadata).
    pub frames_skipped: u64,
    /// Frames whose capture was shorter than their wire length.
    pub frames_truncated: u64,
    /// Capture bytes consumed so far.
    pub bytes_seen: u64,
    /// High-water mark of resident reconstruction-window bytes.
    pub peak_resident_bytes: u64,
}

/// Rate-limited stderr heartbeat for the ingest pipeline.
///
/// ```
/// use lumina_telemetry::ops::{OpsReporter, OpsSnapshot};
/// let mut out = Vec::new();
/// let mut rep = OpsReporter::new(&mut out, std::time::Duration::ZERO);
/// rep.tick(|| OpsSnapshot { frames_seen: 10, bytes_seen: 1280, ..Default::default() });
/// rep.finish(OpsSnapshot { frames_seen: 20, bytes_seen: 2560, ..Default::default() });
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.contains("frames=10"));
/// assert!(text.contains("ingest done"));
/// ```
pub struct OpsReporter<W: Write> {
    out: W,
    interval: Duration,
    started: Instant,
    last_emit: Option<Instant>,
    lines_emitted: u64,
    /// [`OpsReporter::tick`] calls left before the next clock read.
    ticks_to_clock: u32,
}

/// [`OpsReporter::tick`] reads the clock on every this-many-th call: a
/// `clock_gettime` per pcap record was 15 % of `lumina-cli ingest`. At the
/// ingest rate (≈ 7 M records/s) a stride is ≈ 0.15 ms, far inside the 1 Hz
/// line rate.
const CLOCK_STRIDE: u32 = 1024;

impl<W: Write> OpsReporter<W> {
    /// A reporter writing heartbeat lines to `out` at most once per
    /// `interval`. Use [`Duration::ZERO`] to emit on every clock read
    /// (tests) or one second for interactive runs.
    pub fn new(out: W, interval: Duration) -> OpsReporter<W> {
        let now = Instant::now();
        OpsReporter {
            out,
            interval,
            started: now,
            last_emit: None,
            lines_emitted: 0,
            ticks_to_clock: 0,
        }
    }

    /// Heartbeat lines emitted so far (excluding the final summary).
    pub fn lines_emitted(&self) -> u64 {
        self.lines_emitted
    }

    /// Offer progress; prints one line if the interval has elapsed since
    /// the previous line, otherwise does nothing. Meant to be called per
    /// record: the first call and every 1 024th after it (`CLOCK_STRIDE`)
    /// read the clock, the rest cost a decrement, and `snap` runs only
    /// when a line is due.
    pub fn tick(&mut self, snap: impl FnOnce() -> OpsSnapshot) {
        if self.ticks_to_clock > 0 {
            self.ticks_to_clock -= 1;
            return;
        }
        self.ticks_to_clock = CLOCK_STRIDE - 1;
        self.line_at(snap, Instant::now());
    }

    /// One [`OpsReporter::tick`] clock read with an injected clock, for
    /// tests: no stride, the interval alone decides.
    pub fn tick_at(&mut self, snap: OpsSnapshot, now: Instant) {
        self.line_at(|| snap, now);
    }

    fn line_at(&mut self, snap: impl FnOnce() -> OpsSnapshot, now: Instant) {
        let due = match self.last_emit {
            None => true,
            Some(prev) => now.saturating_duration_since(prev) >= self.interval,
        };
        if !due {
            return;
        }
        let snap = snap();
        self.last_emit = Some(now);
        self.lines_emitted += 1;
        let elapsed = now.saturating_duration_since(self.started);
        let _ = writeln!(
            self.out,
            "ingest: frames={} skipped={} truncated={} bytes={} ({}/s) peak-window={}",
            snap.frames_seen,
            snap.frames_skipped,
            snap.frames_truncated,
            snap.bytes_seen,
            human_bytes(rate(snap.bytes_seen, elapsed)),
            human_bytes(snap.peak_resident_bytes),
        );
    }

    /// Print the final summary line unconditionally and flush.
    pub fn finish(&mut self, snap: OpsSnapshot) {
        self.finish_at(snap, Instant::now());
    }

    /// [`OpsReporter::finish`] with an injected clock, for tests.
    pub fn finish_at(&mut self, snap: OpsSnapshot, now: Instant) {
        let elapsed = now.saturating_duration_since(self.started);
        let _ = writeln!(
            self.out,
            "ingest done: frames={} skipped={} truncated={} bytes={} in {:.3}s ({}/s) peak-window={}",
            snap.frames_seen,
            snap.frames_skipped,
            snap.frames_truncated,
            snap.bytes_seen,
            elapsed.as_secs_f64(),
            human_bytes(rate(snap.bytes_seen, elapsed)),
            human_bytes(snap.peak_resident_bytes),
        );
        let _ = self.out.flush();
    }
}

/// Bytes per second, rounded down; 0 when no time has elapsed yet
/// (avoids a nonsense rate on the first instantaneous tick).
fn rate(bytes: u64, elapsed: Duration) -> u64 {
    let ns = elapsed.as_nanos();
    if ns == 0 {
        return 0;
    }
    ((bytes as u128).saturating_mul(1_000_000_000) / ns) as u64
}

/// Render a byte count with a binary-unit suffix (B, KiB, MiB, GiB).
fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = n as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n}{}", UNITS[0])
    } else {
        format!("{value:.1}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(frames: u64, bytes: u64) -> OpsSnapshot {
        OpsSnapshot {
            frames_seen: frames,
            bytes_seen: bytes,
            ..Default::default()
        }
    }

    #[test]
    fn rate_limits_to_one_line_per_interval() {
        let mut out = Vec::new();
        let mut rep = OpsReporter::new(&mut out, Duration::from_secs(1));
        let t0 = Instant::now();
        rep.tick_at(snap(1, 100), t0); // first tick always prints
        rep.tick_at(snap(2, 200), t0 + Duration::from_millis(100)); // suppressed
        rep.tick_at(snap(3, 300), t0 + Duration::from_millis(900)); // suppressed
        rep.tick_at(snap(4, 400), t0 + Duration::from_millis(1100)); // prints
        assert_eq!(rep.lines_emitted(), 2);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("frames=1 "));
        assert!(text.contains("frames=4 "));
        assert!(!text.contains("frames=2 "));
    }

    #[test]
    fn finish_always_prints_summary() {
        let mut out = Vec::new();
        let mut rep = OpsReporter::new(&mut out, Duration::from_secs(3600));
        let t0 = Instant::now();
        rep.tick_at(snap(1, 128), t0);
        rep.finish_at(snap(9, 1152), t0 + Duration::from_millis(1));
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("ingest done: frames=9"), "{text}");
        assert!(text.contains("bytes=1152"), "{text}");
    }

    #[test]
    fn zero_interval_prints_every_tick() {
        let mut out = Vec::new();
        let mut rep = OpsReporter::new(&mut out, Duration::ZERO);
        let t0 = Instant::now();
        for i in 0..5u64 {
            rep.tick_at(snap(i, i * 10), t0 + Duration::from_nanos(i));
        }
        assert_eq!(rep.lines_emitted(), 5);
    }

    #[test]
    fn tick_reads_the_clock_on_a_stride_and_snapshots_only_when_due() {
        let mut out = Vec::new();
        let mut rep = OpsReporter::new(&mut out, Duration::ZERO);
        let mut snapshots = 0u64;
        for i in 1..=2 * CLOCK_STRIDE as u64 + 1 {
            rep.tick(|| {
                snapshots += 1;
                snap(i, i * 10)
            });
        }
        // Calls 1, 1025 and 2049 read the clock; a zero interval makes
        // each of them a line.
        assert_eq!(rep.lines_emitted(), 3);
        assert_eq!(snapshots, 3);
        let text = String::from_utf8(out).unwrap();
        let firsts: Vec<&str> = text.lines().map(|l| l.split(' ').nth(1).unwrap()).collect();
        assert_eq!(firsts, ["frames=1", "frames=1025", "frames=2049"]);

        // Under a real interval only the immediate first line appears.
        let mut out = Vec::new();
        let mut rep = OpsReporter::new(&mut out, Duration::from_secs(3600));
        let mut snapshots = 0u64;
        for i in 1..=4 * CLOCK_STRIDE as u64 {
            rep.tick(|| {
                snapshots += 1;
                snap(i, i)
            });
        }
        assert_eq!((rep.lines_emitted(), snapshots), (1, 1));
    }

    #[test]
    fn rate_is_zero_before_time_elapses() {
        assert_eq!(rate(1_000_000, Duration::ZERO), 0);
        assert_eq!(rate(1_000, Duration::from_secs(1)), 1_000);
        assert_eq!(rate(2_048, Duration::from_millis(500)), 4_096);
    }

    #[test]
    fn human_bytes_picks_sane_units() {
        assert_eq!(human_bytes(0), "0B");
        assert_eq!(human_bytes(999), "999B");
        assert_eq!(human_bytes(2048), "2.0KiB");
        assert_eq!(human_bytes(64 << 20), "64.0MiB");
        assert_eq!(human_bytes(3 << 30), "3.0GiB");
    }

    #[test]
    fn truncated_and_peak_fields_render() {
        let mut out = Vec::new();
        let mut rep = OpsReporter::new(&mut out, Duration::ZERO);
        rep.finish_at(
            OpsSnapshot {
                frames_seen: 5,
                frames_skipped: 2,
                frames_truncated: 1,
                bytes_seen: 640,
                peak_resident_bytes: 4096,
            },
            Instant::now(),
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("skipped=2"), "{text}");
        assert!(text.contains("truncated=1"), "{text}");
        assert!(text.contains("peak-window=4.0KiB"), "{text}");
    }
}
