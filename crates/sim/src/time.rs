//! Simulated time and bandwidth.
//!
//! The clock is a nanosecond counter — the same resolution as the hardware
//! timestamps the Tofino embeds into mirrored packets (§3.4 of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since the start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since time zero, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds since time zero, as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds since time zero, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating difference `self - earlier`.
    pub fn saturating_since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A half-open `[from, until)` span of simulated time: when a freeze,
/// stall, flap, pause or burst is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant inside (inclusive).
    pub from: SimTime,
    /// First instant past the end (exclusive).
    pub until: SimTime,
}

impl Window {
    /// True when `at` falls inside the window.
    pub fn contains(&self, at: SimTime) -> bool {
        at >= self.from && at < self.until
    }
}

/// Link or port bandwidth in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Construct from gigabits per second.
    pub const fn gbps(g: u64) -> Bandwidth {
        Bandwidth(g * 1_000_000_000)
    }

    /// Construct from megabits per second.
    pub const fn mbps(m: u64) -> Bandwidth {
        Bandwidth(m * 1_000_000)
    }

    /// Bits per second.
    pub const fn bits_per_sec(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` onto this link (rounded up to whole ns).
    ///
    /// Exact in `u64` while `bytes × 8 × 10⁹` fits (frames of up to
    /// ≈ 2.3 GB); beyond that the same quotient in `u128`.
    pub fn serialization_time(self, bytes: usize) -> SimTime {
        debug_assert!(self.0 > 0, "zero bandwidth");
        const BIT_NS: u64 = 8 * 1_000_000_000;
        match (bytes as u64).checked_mul(BIT_NS) {
            Some(bit_ns) => SimTime(bit_ns.div_ceil(self.0)),
            None => SimTime((bytes as u128 * BIT_NS as u128).div_ceil(self.0 as u128) as u64),
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{}Gbps", self.0 / 1_000_000_000)
        } else {
            write!(f, "{}Mbps", self.0 / 1_000_000)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(5) + SimTime::from_nanos(500);
        assert_eq!(t.as_nanos(), 5_500);
        assert_eq!((t - SimTime::from_nanos(500)).as_nanos(), 5_000);
        assert_eq!(
            SimTime::from_nanos(3).saturating_since(SimTime::from_nanos(10)),
            SimTime::ZERO
        );
    }

    #[test]
    fn serialization_time_100g() {
        // 1250 bytes at 100 Gbps = 10000 bits / 100 bits-per-ns = 100 ns.
        assert_eq!(
            Bandwidth::gbps(100).serialization_time(1250),
            SimTime::from_nanos(100)
        );
        // 1 byte rounds up to 1 ns at 100 Gbps (0.08 ns true).
        assert_eq!(
            Bandwidth::gbps(100).serialization_time(1),
            SimTime::from_nanos(1)
        );
    }

    #[test]
    fn serialization_time_40g() {
        // 1000 bytes at 40 Gbps = 8000 bits / 40 bits-per-ns = 200 ns.
        assert_eq!(
            Bandwidth::gbps(40).serialization_time(1000),
            SimTime::from_nanos(200)
        );
    }

    #[test]
    fn serialization_time_at_the_u64_overflow_boundary() {
        // The quotient as it is defined: bits × 10⁹ / bps, rounded up, in
        // `u128`, truncated to the `u64` nanoseconds a `SimTime` holds.
        let wide = |bw: Bandwidth, bytes: usize| {
            SimTime((bytes as u128 * 8 * 1_000_000_000).div_ceil(bw.0 as u128) as u64)
        };
        // 2 305 843 009 B × 8 × 10⁹ is the last product below 2⁶⁴.
        let last_fit = (u64::MAX / 8_000_000_000) as usize;
        assert_eq!(last_fit, 2_305_843_009);
        let bws = [1, 3, 40_000_000_000, 100_000_000_000, u64::MAX].map(Bandwidth);
        for bw in bws {
            for bytes in [last_fit - 1, last_fit, last_fit + 1, last_fit * 2, usize::MAX] {
                assert_eq!(bw.serialization_time(bytes), wide(bw, bytes), "{bw:?}, {bytes} B");
            }
        }
        assert_eq!(
            Bandwidth::gbps(100).serialization_time(last_fit + 1),
            SimTime::from_nanos(184_467_441)
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimTime::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimTime::from_secs(4).to_string(), "4.000000s");
        assert_eq!(Bandwidth::gbps(100).to_string(), "100Gbps");
        assert_eq!(Bandwidth::mbps(250).to_string(), "250Mbps");
    }
}
