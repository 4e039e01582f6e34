//! libpcap trace files: the nanosecond writer and its panic-free inverse.
//!
//! The orchestrator writes reconstructed packet traces in the standard
//! pcap format (magic `0xa1b23c4d`, the nanosecond-resolution variant) so
//! they can be opened in Wireshark/tcpdump, mirroring how Lumina's users
//! analyze dumped traffic offline.
//!
//! [`PcapReader`] is the other direction: the first byte stream the engine
//! does not control. It accepts classic pcap (both endiannesses, both the
//! microsecond and nanosecond magics) and pcapng (Section Header /
//! Interface Description / Enhanced and Simple Packet Blocks, per-interface
//! `if_tsresol`), under a strict degrade-don't-die contract:
//!
//! * **panic-free** — no `unwrap`/`expect`/unchecked indexing; the lints
//!   at the top of this file have clippy deny them;
//! * **bounded** — a record claiming more than [`MAX_RECORD_BYTES`] or a
//!   block over [`MAX_BLOCK_BYTES`] is a lying header, reported as a typed
//!   error instead of an allocation;
//! * **offset-carrying** — every [`PcapReadError`] names the absolute file
//!   offset of the record that killed the framing, so callers can say
//!   exactly where a capture went bad and keep everything before it.

// A panic here forfeits a verdict or a whole campaign.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::time::SimTime;
use std::io::{self, Read, Write};

/// Nanosecond-resolution pcap magic number.
pub const PCAP_MAGIC_NS: u32 = 0xa1b2_3c4d;
/// Microsecond-resolution pcap magic number (classic tcpdump).
pub const PCAP_MAGIC_US: u32 = 0xa1b2_c3d4;
/// Link type: Ethernet.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Sanity cap on one record's capture length. Jumbo frames top out around
/// 9 KiB; a record claiming more than this is a lying header, not data.
pub const MAX_RECORD_BYTES: u32 = 1 << 20;
/// Sanity cap on one pcapng block (a block wraps a record plus options).
pub const MAX_BLOCK_BYTES: u32 = 1 << 24;

const PCAPNG_SHB: [u8; 4] = [0x0a, 0x0d, 0x0d, 0x0a];
const PCAPNG_BOM: u32 = 0x1a2b_3c4d;
const PCAPNG_IDB: u32 = 1;
const PCAPNG_SPB: u32 = 3;
const PCAPNG_EPB: u32 = 6;
const OPT_ENDOFOPT: u16 = 0;
const OPT_IF_TSRESOL: u16 = 9;

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    out: W,
    packets: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header. `snaplen` is the
    /// maximum capture length recorded in the header (Lumina's dumpers trim
    /// mirrored packets to 128 bytes).
    pub fn new(mut out: W, snaplen: u32) -> io::Result<PcapWriter<W>> {
        out.write_all(&PCAP_MAGIC_NS.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&snaplen.to_le_bytes())?;
        out.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapWriter { out, packets: 0 })
    }

    /// Append one packet. `orig_len` is the original wire length before any
    /// trimming; `data` is the (possibly trimmed) capture.
    pub fn write_packet(&mut self, ts: SimTime, data: &[u8], orig_len: usize) -> io::Result<()> {
        let ns = ts.as_nanos();
        let secs = (ns / 1_000_000_000) as u32;
        let nanos = (ns % 1_000_000_000) as u32;
        self.out.write_all(&secs.to_le_bytes())?;
        self.out.write_all(&nanos.to_le_bytes())?;
        self.out.write_all(&(data.len() as u32).to_le_bytes())?;
        self.out.write_all(&(orig_len as u32).to_le_bytes())?;
        self.out.write_all(data)?;
        self.packets += 1;
        Ok(())
    }

    /// Number of packets written so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Which container format a capture file uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcapFormat {
    /// Classic libpcap (24-byte global header, 16-byte record headers).
    Classic,
    /// pcapng (block-structured, per-interface timestamp resolution).
    PcapNg,
}

impl PcapFormat {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PcapFormat::Classic => "pcap",
            PcapFormat::PcapNg => "pcapng",
        }
    }
}

/// Why reading a capture file stopped, and where.
#[derive(Debug)]
pub struct PcapReadError {
    /// Absolute file offset of the header or record that failed.
    pub offset: u64,
    /// What went wrong there.
    pub kind: PcapReadErrorKind,
}

/// The failure classes of [`PcapReader`].
#[derive(Debug)]
pub enum PcapReadErrorKind {
    /// The underlying reader failed.
    Io(io::Error),
    /// The first bytes match no supported capture format.
    BadMagic(u32),
    /// Structurally invalid framing; the message names the field.
    Malformed(&'static str),
    /// A record or block claims a length beyond the sanity cap.
    Oversized {
        /// The length the header claims.
        claimed: u32,
        /// The cap it exceeded.
        cap: u32,
    },
    /// The file ends in the middle of the named structure.
    Truncated(&'static str),
}

impl std::fmt::Display for PcapReadErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapReadErrorKind::Io(e) => write!(f, "read failed: {e}"),
            PcapReadErrorKind::BadMagic(m) => {
                write!(f, "magic {m:#010x} is neither pcap nor pcapng")
            }
            PcapReadErrorKind::Malformed(what) => write!(f, "malformed {what}"),
            PcapReadErrorKind::Oversized { claimed, cap } => {
                write!(f, "length field claims {claimed} bytes (cap {cap})")
            }
            PcapReadErrorKind::Truncated(what) => write!(f, "file ends inside {what}"),
        }
    }
}

impl std::fmt::Display for PcapReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "offset {}: {}", self.offset, self.kind)
    }
}

impl std::error::Error for PcapReadError {}

/// One packet record read back from a capture file. Also the caller-owned
/// buffer [`PcapReader::read_record`] fills: `data` keeps its capacity from
/// one record to the next.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PcapRecord {
    /// Absolute file offset of the record's header.
    pub offset: u64,
    /// Capture timestamp, normalized to nanoseconds.
    pub ts: SimTime,
    /// Original wire length the header claims.
    pub orig_len: u32,
    /// The captured bytes (at most `caplen`).
    pub data: Vec<u8>,
}

impl PcapRecord {
    /// True when the capture holds fewer bytes than the wire carried.
    pub fn truncated(&self) -> bool {
        (self.data.len() as u32) < self.orig_len
    }
}

/// Per-interface metadata a pcapng section declares.
#[derive(Debug, Clone, Copy)]
struct Interface {
    /// Timestamp ticks per second (from `if_tsresol`; default 10^6).
    ticks_per_sec: u64,
    /// Declared snap length (0 = unlimited).
    snaplen: u32,
}

/// Streaming, panic-free reader for classic pcap and pcapng files — the
/// inverse of [`PcapWriter`]. Yields records until clean EOF or the first
/// structural error (one final `Err` carrying the file offset, then EOF
/// forever: a broken framing cannot be resynced).
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    inner: R,
    offset: u64,
    format: PcapFormat,
    big_endian: bool,
    /// Classic only: sub-second field unit.
    frac_is_nanos: bool,
    /// Classic header snaplen (informational).
    snaplen: u32,
    /// Classic header link type (informational; pcapng: first IDB's).
    linktype: u32,
    /// pcapng interfaces of the current section.
    interfaces: Vec<Interface>,
    blocks_skipped: u64,
    records: u64,
    done: bool,
}

impl<R: Read> PcapReader<R> {
    /// Open a capture stream: parses the global header (classic) or the
    /// leading Section Header Block (pcapng). Fails with the offset of the
    /// first malformed byte when the stream is neither.
    pub fn new(inner: R) -> Result<PcapReader<R>, PcapReadError> {
        let mut r = PcapReader {
            inner,
            offset: 0,
            format: PcapFormat::Classic,
            big_endian: false,
            frac_is_nanos: false,
            snaplen: 0,
            linktype: 0,
            interfaces: Vec::new(),
            blocks_skipped: 0,
            records: 0,
            done: false,
        };
        let mut magic = [0u8; 4];
        r.fill(&mut magic, "file header")?;
        if magic == PCAPNG_SHB {
            r.format = PcapFormat::PcapNg;
            let mut len_raw = [0u8; 4];
            r.fill(&mut len_raw, "section header")?;
            r.read_shb_body(0, len_raw)?;
            return Ok(r);
        }
        let raw = u32::from_le_bytes(magic);
        (r.big_endian, r.frac_is_nanos) = match raw {
            PCAP_MAGIC_US => (false, false),
            PCAP_MAGIC_NS => (false, true),
            m if m == PCAP_MAGIC_US.swap_bytes() => (true, false),
            m if m == PCAP_MAGIC_NS.swap_bytes() => (true, true),
            m => {
                return Err(PcapReadError {
                    offset: 0,
                    kind: PcapReadErrorKind::BadMagic(m),
                })
            }
        };
        let mut rest = [0u8; 20];
        r.fill(&mut rest, "file header")?;
        // version(4) thiszone(4) sigfigs(4) snaplen(4) linktype(4).
        r.snaplen = r.u32_at(&rest, 12).unwrap_or(0);
        r.linktype = r.u32_at(&rest, 16).unwrap_or(0);
        Ok(r)
    }

    /// Container format detected from the magic.
    pub fn format(&self) -> PcapFormat {
        self.format
    }

    /// True when the current section is big-endian.
    pub fn big_endian(&self) -> bool {
        self.big_endian
    }

    /// Declared snap length (classic header; 0 when unknown).
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Declared link type (classic header or first pcapng interface).
    pub fn linktype(&self) -> u32 {
        self.linktype
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Records successfully yielded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// pcapng blocks of unknown type skipped so far.
    pub fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped
    }

    /// Read the next record into `rec`, reusing its `data` allocation:
    /// `Ok(true)` when `rec` was filled, `Ok(false)` at clean EOF; one final
    /// `Err` (then `Ok(false)`) when the framing breaks mid-file. Unless it
    /// returns `Ok(true)`, what `rec` holds is unspecified (pcapng block
    /// bodies are staged in `rec.data`).
    pub fn read_record(&mut self, rec: &mut PcapRecord) -> Result<bool, PcapReadError> {
        if self.done {
            return Ok(false);
        }
        let step = match self.format {
            PcapFormat::Classic => self.next_classic(rec),
            PcapFormat::PcapNg => self.next_pcapng(rec),
        };
        match step {
            Ok(true) => self.records += 1,
            Ok(false) | Err(_) => self.done = true,
        }
        step
    }

    /// [`Self::read_record`] into a fresh record: `None` at clean EOF; one
    /// final `Err` (then `None`) when the framing breaks mid-file.
    pub fn next_record(&mut self) -> Option<Result<PcapRecord, PcapReadError>> {
        let mut rec = PcapRecord::default();
        match self.read_record(&mut rec) {
            Ok(true) => Some(Ok(rec)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }

    // ---- byte-level helpers -------------------------------------------

    fn err(&self, offset: u64, kind: PcapReadErrorKind) -> PcapReadError {
        PcapReadError { offset, kind }
    }

    /// Read exactly `buf.len()` bytes or fail, naming `what`.
    fn fill(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), PcapReadError> {
        let start = self.offset;
        if !self.read_or_eof(buf, what)? {
            return Err(self.err(start, PcapReadErrorKind::Truncated(what)));
        }
        Ok(())
    }

    /// Read exactly `buf.len()` bytes; `Ok(false)` on clean EOF before the
    /// first byte, an error if the stream ends partway through.
    fn read_or_eof(&mut self, buf: &mut [u8], what: &'static str) -> Result<bool, PcapReadError> {
        let start = self.offset;
        let mut got = 0usize;
        while let Some(rest) = buf.get_mut(got..).filter(|rest| !rest.is_empty()) {
            match self.inner.read(rest) {
                Ok(0) => {
                    if got == 0 {
                        return Ok(false);
                    }
                    return Err(self.err(start, PcapReadErrorKind::Truncated(what)));
                }
                Ok(n) => {
                    got += n;
                    self.offset += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(self.err(self.offset, PcapReadErrorKind::Io(e))),
            }
        }
        Ok(true)
    }

    /// Decode a u32 at `off` in the current section's byte order.
    fn u32_at(&self, buf: &[u8], off: usize) -> Option<u32> {
        let s = buf.get(off..off.checked_add(4)?)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(s);
        Some(self.decode32(a))
    }

    /// Decode a u16 at `off` in the current section's byte order.
    fn u16_at(&self, buf: &[u8], off: usize) -> Option<u16> {
        let s = buf.get(off..off.checked_add(2)?)?;
        let a = <[u8; 2]>::try_from(s).ok()?;
        Some(if self.big_endian {
            u16::from_be_bytes(a)
        } else {
            u16::from_le_bytes(a)
        })
    }

    fn decode32(&self, a: [u8; 4]) -> u32 {
        if self.big_endian {
            u32::from_be_bytes(a)
        } else {
            u32::from_le_bytes(a)
        }
    }

    // ---- classic pcap -------------------------------------------------

    fn next_classic(&mut self, rec: &mut PcapRecord) -> Result<bool, PcapReadError> {
        let rec_off = self.offset;
        let mut hdr = [0u8; 16];
        if !self.read_or_eof(&mut hdr, "record header")? {
            return Ok(false);
        }
        let secs = self.u32_at(&hdr, 0).unwrap_or(0);
        let frac = self.u32_at(&hdr, 4).unwrap_or(0);
        let caplen = self.u32_at(&hdr, 8).unwrap_or(0);
        let orig_len = self.u32_at(&hdr, 12).unwrap_or(0);
        if caplen > MAX_RECORD_BYTES {
            return Err(self.err(
                rec_off,
                PcapReadErrorKind::Oversized {
                    claimed: caplen,
                    cap: MAX_RECORD_BYTES,
                },
            ));
        }
        rec.data.resize(caplen as usize, 0);
        if let Err(mut e) = self.fill(&mut rec.data, "record data") {
            // Anchor mid-record truncation to the record's own offset.
            if matches!(e.kind, PcapReadErrorKind::Truncated(_)) {
                e.offset = rec_off;
            }
            return Err(e);
        }
        let frac_ns = if self.frac_is_nanos {
            frac as u64
        } else {
            (frac as u64).saturating_mul(1_000)
        };
        let ns = (secs as u64)
            .saturating_mul(1_000_000_000)
            .saturating_add(frac_ns);
        rec.offset = rec_off;
        rec.ts = SimTime::from_nanos(ns);
        rec.orig_len = orig_len;
        Ok(true)
    }

    // ---- pcapng -------------------------------------------------------

    /// After the SHB block type was consumed: read the rest of a Section
    /// Header Block, switching the section's endianness.
    fn read_shb_body(&mut self, block_off: u64, len_raw: [u8; 4]) -> Result<(), PcapReadError> {
        let mut bom = [0u8; 4];
        self.fill(&mut bom, "section header")?;
        self.big_endian = match u32::from_le_bytes(bom) {
            PCAPNG_BOM => false,
            m if m == PCAPNG_BOM.swap_bytes() => true,
            _ => {
                return Err(self.err(
                    block_off,
                    PcapReadErrorKind::Malformed("byte-order magic"),
                ))
            }
        };
        let total = self.decode32(len_raw);
        if total < 28 || !total.is_multiple_of(4) {
            return Err(self.err(block_off, PcapReadErrorKind::Malformed("section block length")));
        }
        if total > MAX_BLOCK_BYTES {
            return Err(self.err(
                block_off,
                PcapReadErrorKind::Oversized {
                    claimed: total,
                    cap: MAX_BLOCK_BYTES,
                },
            ));
        }
        // type(4) + length(4) + bom(4) consumed; the rest ends with a copy
        // of the block length.
        let mut rest = vec![0u8; total as usize - 12];
        self.fill(&mut rest, "section header block")?;
        let tail_off = rest.len() - 4;
        if self.u32_at(&rest, tail_off) != Some(total) {
            return Err(self.err(
                block_off,
                PcapReadErrorKind::Malformed("trailing block length"),
            ));
        }
        // A new section: its interfaces start fresh.
        self.interfaces.clear();
        Ok(())
    }

    /// Every block body is read into `rec.data`; a packet block then
    /// shifts its capture to the front of that buffer in place.
    fn next_pcapng(&mut self, rec: &mut PcapRecord) -> Result<bool, PcapReadError> {
        loop {
            let block_off = self.offset;
            let mut head = [0u8; 8];
            if !self.read_or_eof(&mut head, "block header")? {
                return Ok(false);
            }
            if head[0..4] == PCAPNG_SHB {
                // The length field is in the NEW section's byte order,
                // which read_shb_body derives from the byte-order magic.
                let len_raw = [head[4], head[5], head[6], head[7]];
                self.read_shb_body(block_off, len_raw)?;
                continue;
            }
            let btype = self.u32_at(&head, 0).unwrap_or(0);
            let total = self.u32_at(&head, 4).unwrap_or(0);
            if total < 12 || !total.is_multiple_of(4) {
                return Err(self.err(block_off, PcapReadErrorKind::Malformed("block length")));
            }
            if total > MAX_BLOCK_BYTES {
                return Err(self.err(
                    block_off,
                    PcapReadErrorKind::Oversized {
                        claimed: total,
                        cap: MAX_BLOCK_BYTES,
                    },
                ));
            }
            rec.data.resize(total as usize - 12, 0);
            self.fill(&mut rec.data, "block body")?;
            let mut tail = [0u8; 4];
            self.fill(&mut tail, "block trailer")?;
            if self.decode32(tail) != total {
                return Err(self.err(
                    block_off,
                    PcapReadErrorKind::Malformed("trailing block length"),
                ));
            }
            match btype {
                PCAPNG_IDB => self.parse_idb(block_off, &rec.data)?,
                PCAPNG_EPB => return self.parse_epb(block_off, rec).map(|()| true),
                PCAPNG_SPB => return self.parse_spb(block_off, rec).map(|()| true),
                _ => self.blocks_skipped += 1,
            }
        }
    }

    fn parse_idb(&mut self, block_off: u64, body: &[u8]) -> Result<(), PcapReadError> {
        if body.len() < 8 {
            return Err(self.err(block_off, PcapReadErrorKind::Malformed("interface block")));
        }
        let linktype = self.u16_at(body, 0).unwrap_or(0) as u32;
        let snaplen = self.u32_at(body, 4).unwrap_or(0);
        if self.interfaces.is_empty() {
            self.linktype = linktype;
            self.snaplen = snaplen;
        }
        // Walk options for if_tsresol; anything malformed ends the walk
        // and leaves the spec default (microseconds) in place.
        let mut ticks_per_sec = 1_000_000u64;
        let mut off = 8usize;
        while let (Some(code), Some(olen)) = (self.u16_at(body, off), self.u16_at(body, off + 2)) {
            if code == OPT_ENDOFOPT {
                break;
            }
            if code == OPT_IF_TSRESOL && olen == 1 {
                if let Some(&v) = body.get(off + 4) {
                    ticks_per_sec = if v & 0x80 != 0 {
                        1u64.checked_shl((v & 0x7f) as u32).unwrap_or(ticks_per_sec)
                    } else {
                        10u64.checked_pow(v as u32).unwrap_or(ticks_per_sec)
                    };
                }
            }
            let padded = (olen as usize).div_ceil(4) * 4;
            off = match off.checked_add(4 + padded) {
                Some(next) => next,
                None => break,
            };
        }
        self.interfaces.push(Interface {
            ticks_per_sec,
            snaplen,
        });
        Ok(())
    }

    /// `rec.data` holds the block body on entry, the capture on return.
    fn parse_epb(&self, block_off: u64, rec: &mut PcapRecord) -> Result<(), PcapReadError> {
        let body = rec.data.as_slice();
        if body.len() < 20 {
            return Err(self.err(block_off, PcapReadErrorKind::Malformed("packet block")));
        }
        let iface = self.u32_at(body, 0).unwrap_or(0) as usize;
        let ts_hi = self.u32_at(body, 4).unwrap_or(0) as u64;
        let ts_lo = self.u32_at(body, 8).unwrap_or(0) as u64;
        let caplen = self.u32_at(body, 12).unwrap_or(0);
        let orig_len = self.u32_at(body, 16).unwrap_or(0);
        let Some(intf) = self.interfaces.get(iface) else {
            return Err(self.err(
                block_off,
                PcapReadErrorKind::Malformed("packet block interface id"),
            ));
        };
        if caplen > MAX_RECORD_BYTES {
            return Err(self.err(
                block_off,
                PcapReadErrorKind::Oversized {
                    claimed: caplen,
                    cap: MAX_RECORD_BYTES,
                },
            ));
        }
        let caplen = caplen as usize;
        if body.len() < 20 + caplen {
            return Err(self.err(
                block_off,
                PcapReadErrorKind::Malformed("packet block capture length"),
            ));
        }
        let ticks = (ts_hi << 32) | ts_lo;
        let tps = intf.ticks_per_sec.max(1);
        let ns = ((ticks as u128).saturating_mul(1_000_000_000) / tps as u128) as u64;
        rec.data.copy_within(20..20 + caplen, 0);
        rec.data.truncate(caplen);
        rec.offset = block_off;
        rec.ts = SimTime::from_nanos(ns);
        rec.orig_len = orig_len;
        Ok(())
    }

    /// `rec.data` holds the block body on entry, the capture on return.
    fn parse_spb(&self, block_off: u64, rec: &mut PcapRecord) -> Result<(), PcapReadError> {
        let body = rec.data.as_slice();
        let Some(intf) = self.interfaces.first().copied() else {
            return Err(self.err(
                block_off,
                PcapReadErrorKind::Malformed("simple packet block before any interface"),
            ));
        };
        if body.len() < 4 {
            return Err(self.err(
                block_off,
                PcapReadErrorKind::Malformed("simple packet block"),
            ));
        }
        let orig_len = self.u32_at(body, 0).unwrap_or(0);
        // Captured length is implicit: min(orig_len, snaplen), bounded by
        // what the block physically holds.
        let mut caplen = orig_len.min(MAX_RECORD_BYTES) as usize;
        if intf.snaplen > 0 {
            caplen = caplen.min(intf.snaplen as usize);
        }
        caplen = caplen.min(body.len() - 4);
        rec.data.copy_within(4..4 + caplen, 0);
        rec.data.truncate(caplen);
        rec.offset = block_off;
        // Simple Packet Blocks carry no timestamp.
        rec.ts = SimTime::ZERO;
        rec.orig_len = orig_len;
        Ok(())
    }
}

impl<R: Read> Iterator for PcapReader<R> {
    type Item = Result<PcapRecord, PcapReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_layout() {
        let w = PcapWriter::new(Vec::new(), 128).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf.len(), 24);
        assert_eq!(u32::from_le_bytes(buf[0..4].try_into().unwrap()), PCAP_MAGIC_NS);
        assert_eq!(u16::from_le_bytes(buf[4..6].try_into().unwrap()), 2);
        assert_eq!(u16::from_le_bytes(buf[6..8].try_into().unwrap()), 4);
        assert_eq!(u32::from_le_bytes(buf[16..20].try_into().unwrap()), 128);
        assert_eq!(
            u32::from_le_bytes(buf[20..24].try_into().unwrap()),
            LINKTYPE_ETHERNET
        );
    }

    #[test]
    fn packet_record_layout() {
        let mut w = PcapWriter::new(Vec::new(), 128).unwrap();
        let ts = SimTime::from_secs(3) + SimTime::from_nanos(42);
        w.write_packet(ts, &[0xaa; 60], 1024).unwrap();
        assert_eq!(w.packets(), 1);
        let buf = w.finish().unwrap();
        let rec = &buf[24..];
        assert_eq!(u32::from_le_bytes(rec[0..4].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(rec[4..8].try_into().unwrap()), 42);
        assert_eq!(u32::from_le_bytes(rec[8..12].try_into().unwrap()), 60);
        assert_eq!(u32::from_le_bytes(rec[12..16].try_into().unwrap()), 1024);
        assert_eq!(&rec[16..76], &[0xaa; 60]);
    }

    #[test]
    fn multiple_packets_append() {
        let mut w = PcapWriter::new(Vec::new(), 65535).unwrap();
        for i in 0..5u64 {
            w.write_packet(SimTime::from_micros(i), &[i as u8; 10], 10)
                .unwrap();
        }
        assert_eq!(w.packets(), 5);
        let buf = w.finish().unwrap();
        assert_eq!(buf.len(), 24 + 5 * (16 + 10));
    }

    #[test]
    fn reader_inverts_writer() {
        let mut w = PcapWriter::new(Vec::new(), 128).unwrap();
        let ts0 = SimTime::from_secs(1) + SimTime::from_nanos(999_999_999);
        w.write_packet(ts0, &[1, 2, 3], 1500).unwrap();
        w.write_packet(SimTime::from_nanos(7), &[0xff; 128], 128).unwrap();
        let buf = w.finish().unwrap();

        let mut r = PcapReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.format(), PcapFormat::Classic);
        assert!(!r.big_endian());
        assert_eq!(r.snaplen(), 128);
        assert_eq!(r.linktype(), LINKTYPE_ETHERNET);

        let a = r.next_record().unwrap().unwrap();
        assert_eq!(a.ts, ts0);
        assert_eq!(a.data, vec![1, 2, 3]);
        assert_eq!(a.orig_len, 1500);
        assert!(a.truncated());
        let b = r.next_record().unwrap().unwrap();
        assert_eq!(b.ts, SimTime::from_nanos(7));
        assert_eq!(b.orig_len, 128);
        assert!(!b.truncated());
        assert!(r.next_record().is_none());
        assert_eq!(r.records(), 2);
    }

    /// Hand-build a classic big-endian microsecond capture.
    fn be_us_capture() -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&PCAP_MAGIC_US.to_be_bytes());
        f.extend_from_slice(&2u16.to_be_bytes());
        f.extend_from_slice(&4u16.to_be_bytes());
        f.extend_from_slice(&0u32.to_be_bytes()); // thiszone
        f.extend_from_slice(&0u32.to_be_bytes()); // sigfigs
        f.extend_from_slice(&65535u32.to_be_bytes());
        f.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        // One record: t = 2s + 5µs, 4 bytes captured of 90.
        f.extend_from_slice(&2u32.to_be_bytes());
        f.extend_from_slice(&5u32.to_be_bytes());
        f.extend_from_slice(&4u32.to_be_bytes());
        f.extend_from_slice(&90u32.to_be_bytes());
        f.extend_from_slice(&[9, 8, 7, 6]);
        f
    }

    #[test]
    fn big_endian_microsecond_classic() {
        let f = be_us_capture();
        let mut r = PcapReader::new(f.as_slice()).unwrap();
        assert!(r.big_endian());
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.ts.as_nanos(), 2_000_005_000);
        assert_eq!(rec.data, vec![9, 8, 7, 6]);
        assert_eq!(rec.orig_len, 90);
        assert!(r.next_record().is_none());
    }

    /// Hand-build a little-endian pcapng file: SHB + IDB (nanosecond
    /// tsresol) + one EPB.
    fn pcapng_capture(tsresol: Option<u8>, payload: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        // SHB: type, len=28, BOM, version 1.0, section len -1, trailer.
        f.extend_from_slice(&PCAPNG_SHB);
        f.extend_from_slice(&28u32.to_le_bytes());
        f.extend_from_slice(&PCAPNG_BOM.to_le_bytes());
        f.extend_from_slice(&1u16.to_le_bytes());
        f.extend_from_slice(&0u16.to_le_bytes());
        f.extend_from_slice(&u64::MAX.to_le_bytes());
        f.extend_from_slice(&28u32.to_le_bytes());
        // IDB: linktype 1, snaplen 0, optional if_tsresol option.
        let opt_len = if tsresol.is_some() { 8 } else { 0 };
        let idb_len = 20 + opt_len;
        f.extend_from_slice(&PCAPNG_IDB.to_le_bytes());
        f.extend_from_slice(&(idb_len as u32).to_le_bytes());
        f.extend_from_slice(&1u16.to_le_bytes());
        f.extend_from_slice(&0u16.to_le_bytes());
        f.extend_from_slice(&0u32.to_le_bytes());
        if let Some(v) = tsresol {
            f.extend_from_slice(&OPT_IF_TSRESOL.to_le_bytes());
            f.extend_from_slice(&1u16.to_le_bytes());
            f.extend_from_slice(&[v, 0, 0, 0]);
        }
        f.extend_from_slice(&(idb_len as u32).to_le_bytes());
        push_epb(&mut f, payload);
        f
    }

    /// Append a little-endian EPB: iface 0, ts hi/lo, caplen = origlen =
    /// payload.len().
    fn push_epb(f: &mut Vec<u8>, payload: &[u8]) {
        let padded = payload.len().div_ceil(4) * 4;
        let epb_len = 32 + padded;
        let ts: u64 = 5_000_000_123;
        f.extend_from_slice(&PCAPNG_EPB.to_le_bytes());
        f.extend_from_slice(&(epb_len as u32).to_le_bytes());
        f.extend_from_slice(&0u32.to_le_bytes());
        f.extend_from_slice(&((ts >> 32) as u32).to_le_bytes());
        f.extend_from_slice(&(ts as u32).to_le_bytes());
        f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        f.extend_from_slice(payload);
        f.extend_from_slice(&vec![0u8; padded - payload.len()]);
        f.extend_from_slice(&(epb_len as u32).to_le_bytes());
    }

    #[test]
    fn pcapng_nanosecond_interface() {
        // tsresol 9 → ticks are nanoseconds.
        let f = pcapng_capture(Some(9), &[1, 2, 3, 4, 5]);
        let mut r = PcapReader::new(f.as_slice()).unwrap();
        assert_eq!(r.format(), PcapFormat::PcapNg);
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.ts.as_nanos(), 5_000_000_123);
        assert_eq!(rec.data, vec![1, 2, 3, 4, 5]);
        assert!(r.next_record().is_none());
    }

    #[test]
    fn pcapng_default_microsecond_interface() {
        // No tsresol option → ticks are microseconds.
        let f = pcapng_capture(None, &[0xaa; 3]);
        let mut r = PcapReader::new(f.as_slice()).unwrap();
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.ts.as_nanos(), 5_000_000_123_000);
    }

    #[test]
    fn bad_magic_carries_offset_zero() {
        let e = PcapReader::new(&[0xde, 0xad, 0xbe, 0xef, 0, 0][..]).unwrap_err();
        assert_eq!(e.offset, 0);
        assert!(matches!(e.kind, PcapReadErrorKind::BadMagic(_)), "{e}");
    }

    #[test]
    fn truncated_record_names_its_offset() {
        let mut w = PcapWriter::new(Vec::new(), 128).unwrap();
        w.write_packet(SimTime::ZERO, &[1; 10], 10).unwrap();
        w.write_packet(SimTime::ZERO, &[2; 10], 10).unwrap();
        let mut buf = w.finish().unwrap();
        buf.truncate(buf.len() - 3); // cut into the second record's data
        let mut r = PcapReader::new(buf.as_slice()).unwrap();
        assert!(r.next_record().unwrap().is_ok());
        let e = r.next_record().unwrap().unwrap_err();
        assert_eq!(e.offset, 24 + 16 + 10, "second record's offset");
        assert!(matches!(e.kind, PcapReadErrorKind::Truncated(_)), "{e}");
        assert!(r.next_record().is_none(), "reader latches done after error");
    }

    #[test]
    fn oversized_caplen_is_rejected_not_allocated() {
        let mut f = Vec::new();
        f.extend_from_slice(&PCAP_MAGIC_NS.to_le_bytes());
        f.extend_from_slice(&[0u8; 20]);
        f.extend_from_slice(&0u32.to_le_bytes());
        f.extend_from_slice(&0u32.to_le_bytes());
        f.extend_from_slice(&u32::MAX.to_le_bytes()); // caplen: 4 GiB lie
        f.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = PcapReader::new(f.as_slice()).unwrap();
        let e = r.next_record().unwrap().unwrap_err();
        assert!(matches!(e.kind, PcapReadErrorKind::Oversized { .. }), "{e}");
        assert_eq!(e.offset, 24);
    }

    #[test]
    fn pcapng_skips_unknown_blocks() {
        let mut f = pcapng_capture(Some(9), &[1, 2, 3, 4]);
        // Append an unknown block type (0x99) then a valid EPB-less EOF.
        f.extend_from_slice(&0x99u32.to_le_bytes());
        f.extend_from_slice(&16u32.to_le_bytes());
        f.extend_from_slice(&[0u8; 4]);
        f.extend_from_slice(&16u32.to_le_bytes());
        let mut r = PcapReader::new(f.as_slice()).unwrap();
        assert!(r.next_record().unwrap().is_ok());
        assert!(r.next_record().is_none());
        assert_eq!(r.blocks_skipped(), 1);
    }

    /// Everything a reader yields, drained through `next`: the records,
    /// the terminal error as text (`PcapReadErrorKind` holds an
    /// `io::Error`, so it has no `==`), and the reader's own count.
    fn drain<R: Read>(
        r: Result<PcapReader<R>, PcapReadError>,
        mut next: impl FnMut(&mut PcapReader<R>) -> Option<Result<PcapRecord, PcapReadError>>,
    ) -> (Vec<PcapRecord>, Option<String>, u64) {
        let mut r = match r {
            Ok(r) => r,
            Err(e) => return (Vec::new(), Some(format!("{e} / {:?}", e.kind)), 0),
        };
        let mut recs = Vec::new();
        let mut terminal = None;
        while let Some(step) = next(&mut r) {
            match step {
                Ok(rec) => recs.push(rec),
                Err(e) => terminal = Some(format!("{e} / {:?}", e.kind)),
            }
        }
        assert!(next(&mut r).is_none(), "latched after the end");
        (recs, terminal, r.records())
    }

    #[test]
    fn read_record_into_a_reused_buffer_equals_next_record() {
        let mut classic = PcapWriter::new(Vec::new(), 128).unwrap();
        for (ts, data, orig_len) in [(7, &[0xff; 128][..], 1500), (8, &[], 0), (9, &[1, 2, 3], 3)] {
            classic
                .write_packet(SimTime::from_nanos(ts), data, orig_len)
                .unwrap();
        }
        let classic = classic.finish().unwrap();

        let mut be_us = be_us_capture();
        for (caplen, fill) in [(0u32, 0u8), (7, 0x55)] {
            be_us.extend_from_slice(&3u32.to_be_bytes());
            be_us.extend_from_slice(&999_999u32.to_be_bytes());
            be_us.extend_from_slice(&caplen.to_be_bytes());
            be_us.extend_from_slice(&64u32.to_be_bytes());
            be_us.extend_from_slice(&vec![fill; caplen as usize]);
        }

        // EPB, an unknown block, a longer EPB, then a Simple Packet Block.
        let mut ng = pcapng_capture(Some(9), &[1, 2, 3, 4, 5]);
        ng.extend_from_slice(&0x99u32.to_le_bytes());
        ng.extend_from_slice(&16u32.to_le_bytes());
        ng.extend_from_slice(&[0u8; 4]);
        ng.extend_from_slice(&16u32.to_le_bytes());
        push_epb(&mut ng, &[0xab; 61]);
        ng.extend_from_slice(&PCAPNG_SPB.to_le_bytes());
        ng.extend_from_slice(&20u32.to_le_bytes());
        ng.extend_from_slice(&3u32.to_le_bytes());
        ng.extend_from_slice(&[7, 8, 9, 0]);
        ng.extend_from_slice(&20u32.to_le_bytes());

        for (name, file) in [("classic", classic), ("be-us", be_us), ("pcapng", ng)] {
            for cut in 0..=file.len() {
                let input = &file[..cut];
                let fresh = drain(PcapReader::new(input), |r| r.next_record());
                // One caller-owned record for the whole file, dirty on
                // entry: nothing of a previous record may show through.
                let mut rec = PcapRecord {
                    offset: u64::MAX,
                    ts: SimTime::from_secs(9),
                    orig_len: u32::MAX,
                    data: vec![0xee; 300],
                };
                let reused = drain(PcapReader::new(input), |r| match r.read_record(&mut rec) {
                    Ok(true) => Some(Ok(rec.clone())),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                });
                assert_eq!(fresh, reused, "{name} cut at {cut}");
                if cut == file.len() {
                    assert_eq!((fresh.0.len(), &fresh.1, fresh.2), (3, &None, 3), "{name}");
                }
            }
        }
    }

    #[test]
    fn empty_input_fails_with_truncation() {
        let e = PcapReader::new(&[][..]).unwrap_err();
        assert!(matches!(e.kind, PcapReadErrorKind::Truncated(_)), "{e}");
    }
}
