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

/// One packet record, borrowed from the reader's block: what
/// [`PcapReader::next_view`] hands out, valid until the next read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Absolute file offset of the record's header.
    pub offset: u64,
    /// Capture timestamp, normalized to nanoseconds.
    pub ts: SimTime,
    /// Original wire length the header claims.
    pub orig_len: u32,
    /// The captured bytes (at most `caplen`), in place.
    pub data: &'a [u8],
}

/// Per-interface metadata a pcapng section declares.
#[derive(Debug, Clone, Copy)]
struct Interface {
    /// Timestamp ticks per second (from `if_tsresol`; default 10^6).
    ticks_per_sec: u64,
    /// Declared snap length (0 = unlimited).
    snaplen: u32,
}

/// A record's framing decoded, its capture located in the block.
struct Located {
    offset: u64,
    ts: SimTime,
    orig_len: u32,
    /// The capture is `block[start..start + caplen]`.
    start: usize,
    caplen: usize,
}

/// Bytes the reader asks its source for at a time, and holds.
const BLOCK_BYTES: usize = 64 << 10;

/// Streaming, panic-free reader for classic pcap and pcapng files — the
/// inverse of [`PcapWriter`]. Yields records until clean EOF or the first
/// structural error (one final `Err` carrying the file offset, then EOF
/// forever: a broken framing cannot be resynced).
///
/// The reader buffers: it fills one block from `R` in large reads and
/// decodes both formats' framing in it, so hand it the `File` itself, not a
/// `BufReader` around one.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    inner: R,
    /// `block[pos..filled]` is read from `inner` and not yet consumed;
    /// `block[..pos]` still holds the last record handed out.
    block: Vec<u8>,
    pos: usize,
    filled: usize,
    /// Absolute offset of `block[pos]`.
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
            block: vec![0; BLOCK_BYTES],
            pos: 0,
            filled: 0,
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
        let have = r.want(4)?;
        let Some(magic) = r.peek::<4>() else {
            return Err(r.cut_short(have, 0, "file header"));
        };
        if magic == PCAPNG_SHB {
            r.format = PcapFormat::PcapNg;
            let have = r.want(8)?;
            if have < 8 {
                return Err(r.cut_short(have, 4, "section header"));
            }
            r.read_shb(0)?;
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
        // magic(4) version(4) thiszone(4) sigfigs(4) snaplen(4) linktype(4).
        let have = r.want(24)?;
        let Some(header) = r.peek::<24>() else {
            return Err(r.cut_short(have, 4, "file header"));
        };
        r.snaplen = r.u32_at(&header, 16).unwrap_or(0);
        r.linktype = r.u32_at(&header, 20).unwrap_or(0);
        r.advance(24);
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

    /// The next record, in place: its `data` borrows the reader's block
    /// and is valid until the next read. `Ok(None)` at clean EOF; one
    /// final `Err` (then `Ok(None)`) when the framing breaks mid-file.
    pub fn next_view(&mut self) -> Result<Option<RecordView<'_>>, PcapReadError> {
        if self.done {
            return Ok(None);
        }
        let step = match self.format {
            PcapFormat::Classic => self.next_classic(),
            PcapFormat::PcapNg => self.next_pcapng(),
        };
        // Clean EOF and the one error both latch.
        self.done = !matches!(step, Ok(Some(_)));
        let Some(at) = step? else {
            return Ok(None);
        };
        self.records += 1;
        Ok(Some(RecordView {
            offset: at.offset,
            ts: at.ts,
            orig_len: at.orig_len,
            data: self
                .block
                .get(at.start..at.start + at.caplen)
                .unwrap_or_default(),
        }))
    }

    /// [`Self::next_view`] copied into `rec`, reusing its `data`
    /// allocation: `Ok(true)` when `rec` was filled, `Ok(false)` at clean
    /// EOF; one final `Err` (then `Ok(false)`) when the framing breaks
    /// mid-file. Unless it returns `Ok(true)`, `rec` is untouched.
    pub fn read_record(&mut self, rec: &mut PcapRecord) -> Result<bool, PcapReadError> {
        let Some(view) = self.next_view()? else {
            return Ok(false);
        };
        rec.offset = view.offset;
        rec.ts = view.ts;
        rec.orig_len = view.orig_len;
        rec.data.clear();
        rec.data.extend_from_slice(view.data);
        Ok(true)
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

    /// Make `n` contiguous bytes available at the cursor and say how many
    /// are: fewer than `n` only when the input ended first. The one place
    /// the inner reader is read. The unread tail moves to the front of the
    /// block, which is then refilled in as few reads as `R` allows; the
    /// block grows only for a record or pcapng block larger than it (the
    /// callers cap `n` at [`MAX_RECORD_BYTES`] / [`MAX_BLOCK_BYTES`]), and
    /// only as the bytes actually arrive — a lying length in a short file
    /// allocates nothing.
    fn want(&mut self, n: usize) -> Result<usize, PcapReadError> {
        if self.filled - self.pos >= n {
            return Ok(self.filled - self.pos);
        }
        self.block.copy_within(self.pos..self.filled, 0);
        self.filled -= self.pos;
        self.pos = 0;
        while self.filled < n {
            if self.filled == self.block.len() {
                let grown = self.block.len().saturating_mul(2).min(n);
                self.block.resize(grown, 0);
            }
            let Some(room) = self.block.get_mut(self.filled..) else {
                break;
            };
            match self.inner.read(room) {
                Ok(0) => break,
                Ok(got) => self.filled += got,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Where the stream failed: behind everything it delivered.
                Err(e) => {
                    return Err(self.err(self.offset + self.filled as u64, PcapReadErrorKind::Io(e)))
                }
            }
        }
        Ok(self.filled)
    }

    /// The next `N` available bytes, copied out (`want` them first).
    fn peek<const N: usize>(&self) -> Option<[u8; N]> {
        let unread = self.block.get(self.pos..self.filled)?;
        unread.first_chunk().copied()
    }

    /// Consume `n` available bytes.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        self.offset += n as u64;
    }

    /// The input ended `have` bytes past the cursor, inside `what`, which
    /// began at `at`: consume what there was and word the error.
    fn cut_short(&mut self, have: usize, at: u64, what: &'static str) -> PcapReadError {
        self.advance(have);
        self.err(at, PcapReadErrorKind::Truncated(what))
    }

    /// Decode a u32 at `off` in the current section's byte order.
    fn u32_at(&self, buf: &[u8], off: usize) -> Option<u32> {
        let a = buf.get(off..)?.first_chunk()?;
        Some(self.decode32(*a))
    }

    /// Decode a u16 at `off` in the current section's byte order.
    fn u16_at(&self, buf: &[u8], off: usize) -> Option<u16> {
        let a = *buf.get(off..)?.first_chunk()?;
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

    fn next_classic(&mut self) -> Result<Option<Located>, PcapReadError> {
        let rec_off = self.offset;
        let have = self.want(16)?;
        let Some(hdr) = self.peek::<16>() else {
            if have == 0 {
                return Ok(None);
            }
            return Err(self.cut_short(have, rec_off, "record header"));
        };
        let secs = self.u32_at(&hdr, 0).unwrap_or(0);
        let frac = self.u32_at(&hdr, 4).unwrap_or(0);
        let caplen = self.u32_at(&hdr, 8).unwrap_or(0);
        let orig_len = self.u32_at(&hdr, 12).unwrap_or(0);
        if caplen > MAX_RECORD_BYTES {
            self.advance(16);
            return Err(self.err(
                rec_off,
                PcapReadErrorKind::Oversized {
                    claimed: caplen,
                    cap: MAX_RECORD_BYTES,
                },
            ));
        }
        let caplen = caplen as usize;
        let have = self.want(16 + caplen)?;
        if have < 16 + caplen {
            // Anchor mid-record truncation to the record's own offset.
            return Err(self.cut_short(have, rec_off, "record data"));
        }
        let frac_ns = if self.frac_is_nanos {
            frac as u64
        } else {
            (frac as u64).saturating_mul(1_000)
        };
        let ns = (secs as u64)
            .saturating_mul(1_000_000_000)
            .saturating_add(frac_ns);
        let start = self.pos + 16;
        self.advance(16 + caplen);
        Ok(Some(Located {
            offset: rec_off,
            ts: SimTime::from_nanos(ns),
            orig_len,
            start,
            caplen,
        }))
    }

    // ---- pcapng -------------------------------------------------------

    /// Read a Section Header Block whose type and length words (8 bytes)
    /// are available at the cursor, switching the section's endianness.
    fn read_shb(&mut self, block_off: u64) -> Result<(), PcapReadError> {
        let have = self.want(12)?;
        let Some(head) = self.peek::<12>() else {
            return Err(self.cut_short(have, block_off + 8, "section header"));
        };
        self.advance(12);
        let [_, _, _, _, l0, l1, l2, l3, b0, b1, b2, b3] = head;
        self.big_endian = match u32::from_le_bytes([b0, b1, b2, b3]) {
            PCAPNG_BOM => false,
            m if m == PCAPNG_BOM.swap_bytes() => true,
            _ => return Err(self.err(block_off, PcapReadErrorKind::Malformed("byte-order magic"))),
        };
        // The length word is in the NEW section's byte order.
        let total = self.decode32([l0, l1, l2, l3]);
        if total < 28 || !total.is_multiple_of(4) {
            return Err(self.err(
                block_off,
                PcapReadErrorKind::Malformed("section block length"),
            ));
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
        let rest = total as usize - 12;
        let have = self.want(rest)?;
        if have < rest {
            return Err(self.cut_short(have, block_off + 12, "section header block"));
        }
        let tail = self.u32_at(&self.block, self.pos + rest - 4);
        self.advance(rest);
        if tail != Some(total) {
            return Err(self.err(
                block_off,
                PcapReadErrorKind::Malformed("trailing block length"),
            ));
        }
        // A new section: its interfaces start fresh.
        self.interfaces.clear();
        Ok(())
    }

    fn next_pcapng(&mut self) -> Result<Option<Located>, PcapReadError> {
        loop {
            let block_off = self.offset;
            let have = self.want(8)?;
            let Some(head) = self.peek::<8>() else {
                if have == 0 {
                    return Ok(None);
                }
                return Err(self.cut_short(have, block_off, "block header"));
            };
            if head.starts_with(&PCAPNG_SHB) {
                self.read_shb(block_off)?;
                continue;
            }
            self.advance(8);
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
            // The body, then a copy of the block length.
            let body_len = total as usize - 12;
            let have = self.want(body_len + 4)?;
            if have < body_len {
                return Err(self.cut_short(have, block_off + 8, "block body"));
            }
            if have < body_len + 4 {
                let trailer_off = block_off + 8 + body_len as u64;
                return Err(self.cut_short(have, trailer_off, "block trailer"));
            }
            let body_at = self.pos;
            self.advance(body_len + 4);
            if self.u32_at(&self.block, body_at + body_len) != Some(total) {
                return Err(self.err(
                    block_off,
                    PcapReadErrorKind::Malformed("trailing block length"),
                ));
            }
            let body = self
                .block
                .get(body_at..body_at + body_len)
                .unwrap_or_default();
            let packet = match btype {
                PCAPNG_IDB => {
                    let (linktype, intf) = self.parse_idb(block_off, body)?;
                    if self.interfaces.is_empty() {
                        self.linktype = linktype;
                        self.snaplen = intf.snaplen;
                    }
                    self.interfaces.push(intf);
                    continue;
                }
                PCAPNG_EPB => self.parse_epb(block_off, body)?,
                PCAPNG_SPB => self.parse_spb(block_off, body)?,
                _ => {
                    self.blocks_skipped += 1;
                    continue;
                }
            };
            return Ok(Some(Located {
                start: body_at + packet.start,
                ..packet
            }));
        }
    }

    /// The link type and interface an Interface Description Block declares.
    fn parse_idb(&self, block_off: u64, body: &[u8]) -> Result<(u32, Interface), PcapReadError> {
        if body.len() < 8 {
            return Err(self.err(block_off, PcapReadErrorKind::Malformed("interface block")));
        }
        let linktype = self.u16_at(body, 0).unwrap_or(0) as u32;
        let snaplen = self.u32_at(body, 4).unwrap_or(0);
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
        Ok((
            linktype,
            Interface {
                ticks_per_sec,
                snaplen,
            },
        ))
    }

    /// An Enhanced Packet Block's record; `start` is relative to `body`.
    fn parse_epb(&self, block_off: u64, body: &[u8]) -> Result<Located, PcapReadError> {
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
        Ok(Located {
            offset: block_off,
            ts: SimTime::from_nanos(ns),
            orig_len,
            start: 20,
            caplen,
        })
    }

    /// A Simple Packet Block's record; `start` is relative to `body`.
    fn parse_spb(&self, block_off: u64, body: &[u8]) -> Result<Located, PcapReadError> {
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
        Ok(Located {
            offset: block_off,
            // Simple Packet Blocks carry no timestamp.
            ts: SimTime::ZERO,
            orig_len,
            start: 4,
            caplen,
        })
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
        assert_eq!(r.block.len(), BLOCK_BYTES);
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

    // ---- the reader under hostile reads ---------------------------------

    /// A `Read` that hands out 1, 2, … `k`, 1, 2, … bytes per call, however
    /// much room the caller offers: what a pipe or a socket may do.
    struct Dribble<'a> {
        data: &'a [u8],
        k: usize,
        calls: usize,
    }

    fn dribble(data: &[u8], k: usize) -> Dribble<'_> {
        Dribble { data, k, calls: 0 }
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (self.calls % self.k + 1)
                .min(buf.len())
                .min(self.data.len());
            self.calls += 1;
            let (head, rest) = self.data.split_at(n);
            buf[..n].copy_from_slice(head);
            self.data = rest;
            Ok(n)
        }
    }

    /// Everything a caller can see of one pass over a capture.
    #[derive(Debug, PartialEq)]
    struct Transcript {
        /// Format, byte order, snaplen and link type as opened.
        header: Option<(PcapFormat, bool, u32, u32)>,
        /// `(offset, ts, orig_len, data)` of every record yielded.
        records: Vec<(u64, SimTime, u32, Vec<u8>)>,
        /// `(offset, kind.to_string())` of the one error, from `new` or
        /// from the read that hit it.
        terminal: Option<(u64, String)>,
        counted: u64,
        skipped: u64,
        end_offset: u64,
    }

    /// How the records are taken from the reader.
    #[derive(Debug, Clone, Copy)]
    enum Via {
        /// `next_record`: a fresh `PcapRecord` each.
        Fresh,
        /// `read_record` into one caller-owned record, dirty on entry.
        Reused,
        /// `next_view`: the record borrowed from the reader's block.
        InPlace,
    }

    fn transcript<R: Read>(input: R, via: Via) -> Transcript {
        let mut t = Transcript {
            header: None,
            records: Vec::new(),
            terminal: None,
            counted: 0,
            skipped: 0,
            end_offset: 0,
        };
        let mut r = match PcapReader::new(input) {
            Ok(r) => r,
            Err(e) => {
                t.terminal = Some((e.offset, e.kind.to_string()));
                return t;
            }
        };
        t.header = Some((r.format(), r.big_endian(), r.snaplen(), r.linktype()));
        let mut rec = PcapRecord {
            offset: u64::MAX,
            ts: SimTime::from_secs(9),
            orig_len: u32::MAX,
            data: vec![0xee; 300],
        };
        loop {
            let step = match via {
                Via::Fresh => r
                    .next_record()
                    .transpose()
                    .map(|o| o.map(|rec| (rec.offset, rec.ts, rec.orig_len, rec.data))),
                Via::Reused => r.read_record(&mut rec).map(|filled| {
                    filled.then(|| (rec.offset, rec.ts, rec.orig_len, rec.data.clone()))
                }),
                Via::InPlace => r.next_view().map(|o| {
                    o.map(|view| (view.offset, view.ts, view.orig_len, view.data.to_vec()))
                }),
            };
            match step {
                Ok(Some(record)) => t.records.push(record),
                Ok(None) => break,
                Err(e) => {
                    assert!(
                        t.terminal.is_none(),
                        "a second error after {:?}",
                        t.terminal
                    );
                    t.terminal = Some((e.offset, e.kind.to_string()));
                }
            }
        }
        assert!(r.next_record().is_none(), "latched after the end");
        t.counted = r.records();
        t.skipped = r.blocks_skipped();
        t.end_offset = r.offset();
        t
    }

    const VIAS: [Via; 3] = [Via::Fresh, Via::Reused, Via::InPlace];

    /// One pcapng block in the given byte order: type, total length, body
    /// (padded to 32 bits), total length again.
    fn ng_block(be: bool, btype: u32, body: &[u8]) -> Vec<u8> {
        let w = |v: u32| if be { v.to_be_bytes() } else { v.to_le_bytes() };
        let padded = body.len().div_ceil(4) * 4;
        let total = w(12 + padded as u32);
        let mut b = Vec::new();
        b.extend_from_slice(&w(btype));
        b.extend_from_slice(&total);
        b.extend_from_slice(body);
        b.resize(8 + padded, 0);
        b.extend_from_slice(&total);
        b
    }

    /// A pcapng section in the given byte order: SHB, IDB (nanosecond
    /// ticks, snaplen 96), an unknown block, two EPBs and an SPB.
    fn ng_section(be: bool) -> Vec<u8> {
        let w = |v: u32| if be { v.to_be_bytes() } else { v.to_le_bytes() };
        let h = |v: u16| if be { v.to_be_bytes() } else { v.to_le_bytes() };
        let mut shb = Vec::new();
        shb.extend_from_slice(&w(PCAPNG_BOM));
        shb.extend_from_slice(&h(1));
        shb.extend_from_slice(&h(0));
        shb.extend_from_slice(&[0xff; 8]);
        let mut f = ng_block(be, u32::from_le_bytes(PCAPNG_SHB), &shb);

        let mut idb = Vec::new();
        idb.extend_from_slice(&h(1)); // linktype
        idb.extend_from_slice(&h(0));
        idb.extend_from_slice(&w(96)); // snaplen
        idb.extend_from_slice(&h(OPT_IF_TSRESOL));
        idb.extend_from_slice(&h(1));
        idb.extend_from_slice(&[9, 0, 0, 0]);
        idb.extend_from_slice(&h(OPT_ENDOFOPT));
        idb.extend_from_slice(&h(0));
        f.extend(ng_block(be, PCAPNG_IDB, &idb));

        f.extend(ng_block(be, 0x99, &[1, 2, 3, 4, 5]));
        for (ts, payload) in [(5_000_000_123u64, &[0xab; 61][..]), (5_000_000_456, &[])] {
            let mut epb = Vec::new();
            epb.extend_from_slice(&w(0)); // interface
            epb.extend_from_slice(&w((ts >> 32) as u32));
            epb.extend_from_slice(&w(ts as u32));
            epb.extend_from_slice(&w(payload.len() as u32));
            epb.extend_from_slice(&w(1500));
            epb.extend_from_slice(payload);
            f.extend(ng_block(be, PCAPNG_EPB, &epb));
        }
        let mut spb = Vec::new();
        spb.extend_from_slice(&w(7)); // orig_len
        spb.extend_from_slice(&[7, 8, 9, 10, 11, 12, 13]);
        f.extend(ng_block(be, PCAPNG_SPB, &spb));
        f
    }

    /// Hand-build a classic capture: either byte order, either magic,
    /// records of 0, 3 and 70 captured bytes.
    fn classic_capture(be: bool, magic: u32) -> Vec<u8> {
        let w = |v: u32| if be { v.to_be_bytes() } else { v.to_le_bytes() };
        let mut f = Vec::new();
        f.extend_from_slice(&w(magic));
        f.extend_from_slice(&[0u8; 12]); // version, thiszone, sigfigs
        f.extend_from_slice(&w(128));
        f.extend_from_slice(&w(LINKTYPE_ETHERNET));
        for (caplen, fill) in [(0u32, 0u8), (3, 0x55), (70, 0xa7)] {
            f.extend_from_slice(&w(3));
            f.extend_from_slice(&w(999_999));
            f.extend_from_slice(&w(caplen));
            f.extend_from_slice(&w(1082));
            f.extend_from_slice(&vec![fill; caplen as usize]);
        }
        f
    }

    /// Classic µs and ns in both byte orders, one pcapng section of each
    /// byte order, and a little-endian section followed by a big-endian one.
    fn corpus() -> Vec<(&'static str, Vec<u8>)> {
        let mut two_sections = ng_section(false);
        two_sections.extend(ng_section(true));
        vec![
            ("classic-us", classic_capture(false, PCAP_MAGIC_US)),
            ("classic-ns", classic_capture(false, PCAP_MAGIC_NS)),
            ("classic-be-us", classic_capture(true, PCAP_MAGIC_US)),
            ("classic-be-ns", classic_capture(true, PCAP_MAGIC_NS)),
            ("pcapng", ng_section(false)),
            ("pcapng-be", ng_section(true)),
            ("pcapng-le-then-be", two_sections),
        ]
    }

    #[test]
    fn the_corpus_reads_whole() {
        for (name, file) in corpus() {
            let t = transcript(file.as_slice(), Via::Fresh);
            let sections = if name == "pcapng-le-then-be" { 2 } else { 1 };
            assert_eq!(t.terminal, None, "{name}");
            assert_eq!(t.counted, 3 * sections, "{name}");
            assert_eq!(t.end_offset, file.len() as u64, "{name}");
            if name.starts_with("pcapng") {
                assert_eq!(t.skipped, sections, "{name}");
                let lens: Vec<_> = t
                    .records
                    .iter()
                    .map(|r| (r.1.as_nanos(), r.3.len()))
                    .collect();
                assert_eq!(
                    lens[..3],
                    [(5_000_000_123, 61), (5_000_000_456, 0), (0, 7)],
                    "{name}"
                );
            } else {
                let ns = if name.ends_with("ns") {
                    3_000_999_999
                } else {
                    3_999_999_000
                };
                assert!(
                    t.records
                        .iter()
                        .all(|r| r.1.as_nanos() == ns && r.2 == 1082),
                    "{name}"
                );
                let lens: Vec<_> = t.records.iter().map(|r| r.3.len()).collect();
                assert_eq!(lens, [0, 3, 70], "{name}");
            }
        }
    }

    /// Cut at every offset, read a byte at a time and in ragged pieces: the
    /// same records, the same terminal error at the same offset, the same
    /// counters as reading the slice whole — through every way of taking
    /// records.
    #[test]
    fn every_truncation_reads_the_same_in_pieces() {
        for (name, file) in corpus() {
            for cut in 0..=file.len() {
                let input = &file[..cut];
                let whole = transcript(input, Via::Fresh);
                for via in VIAS {
                    for k in [1, 3, 50] {
                        let pieces = transcript(dribble(input, k), via);
                        assert_eq!(whole, pieces, "{name} cut at {cut}, {via:?}, k = {k}");
                    }
                    assert_eq!(
                        whole,
                        transcript(input, via),
                        "{name} cut at {cut}, {via:?}"
                    );
                }
            }
        }
    }

    /// One byte of the file rotted — every length word in turn claims too
    /// much, too little, or nonsense; magics and block types go foreign.
    #[test]
    fn every_rotted_byte_reads_the_same_in_pieces() {
        for (name, file) in corpus() {
            for at in 0..file.len() {
                for xor in [0x01, 0x10, 0x80, 0xff] {
                    let mut rot = file.clone();
                    rot[at] ^= xor;
                    let whole = transcript(rot.as_slice(), Via::Fresh);
                    for via in VIAS {
                        let pieces = transcript(dribble(&rot, 1), via);
                        assert_eq!(whole, pieces, "{name} byte {at} ^ {xor:#x}, {via:?}");
                        assert_eq!(
                            whole,
                            transcript(rot.as_slice(), via),
                            "{name} byte {at} ^ {xor:#x}, {via:?}"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 400,
            ..proptest::ProptestConfig::default()
        })]

        /// Rot, cut and piece size together.
        #[test]
        fn hostile_reads_equal_the_whole_slice(
            which in 0usize..7,
            rots in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 0..4),
            cut in 0usize..10_000,
            k in 1usize..40,
        ) {
            let (name, mut file) = corpus().swap_remove(which);
            for rot in rots {
                let at = (rot >> 8) as usize % file.len();
                file[at] ^= (rot as u8).max(1);
            }
            // Three cases in four keep the whole (rotted) file.
            let cut = if cut % 4 == 0 { cut * file.len() / 10_000 } else { file.len() };
            let input = &file[..cut];
            let whole = transcript(input, Via::Fresh);
            for via in VIAS {
                let pieces = transcript(dribble(input, k), via);
                proptest::prop_assert!(whole == pieces, "{} {:?} k = {}:\n{:?}\n{:?}", name, via, k, whole, pieces);
            }
        }
    }

    /// A record larger than anything the reader holds by default, between
    /// two small ones: its bytes arrive intact, whole or in pieces.
    #[test]
    fn a_record_larger_than_the_block() {
        let big: Vec<u8> = (0..100_000u32).map(|i| ((i * 31) >> 3) as u8).collect();
        let mut w = PcapWriter::new(Vec::new(), 1 << 20).unwrap();
        w.write_packet(SimTime::from_nanos(1), &[1; 60], 60)
            .unwrap();
        w.write_packet(SimTime::from_nanos(2), &big, big.len())
            .unwrap();
        w.write_packet(SimTime::from_nanos(3), &[3; 60], 60)
            .unwrap();
        let file = w.finish().unwrap();
        let whole = transcript(file.as_slice(), Via::Fresh);
        assert_eq!(whole.terminal, None);
        assert_eq!(whole.records.len(), 3);
        assert!(whole.records[1].3 == big, "bytes intact");
        assert_eq!(whole.records[2].3, [3; 60]);
        for via in VIAS {
            for k in [1, 4096, 1 << 20] {
                let pieces = transcript(dribble(&file, k), via);
                assert!(whole == pieces, "{via:?}, k = {k}");
            }
        }
        // The same record, cut short: anchored to its own header.
        let cut = &file[..file.len() - 80];
        let t = transcript(dribble(cut, 4096), Via::Reused);
        assert_eq!(
            t.terminal,
            Some((24 + 76, "file ends inside record data".to_string()))
        );
        assert_eq!(t.counted, 1);

        // The block grows once, to that record and its header, and stays.
        let mut r = PcapReader::new(file.as_slice()).unwrap();
        assert_eq!(r.next_view().unwrap().unwrap().data, [1; 60]);
        assert_eq!(r.block.len(), BLOCK_BYTES);
        assert!(r.next_view().unwrap().unwrap().data == big);
        assert_eq!(r.block.len(), 16 + big.len());
        assert_eq!(r.next_view().unwrap().unwrap().data, [3; 60]);
        assert_eq!(r.next_view().unwrap(), None);
        assert_eq!(r.block.len(), 16 + big.len());
    }

    /// A length the file does not back allocates nothing: the block
    /// grows as bytes arrive, not as headers claim.
    #[test]
    fn a_lying_length_in_a_short_file_allocates_nothing() {
        let mut classic = classic_capture(false, PCAP_MAGIC_NS);
        classic.extend_from_slice(&[0; 8]);
        classic.extend_from_slice(&MAX_RECORD_BYTES.to_le_bytes()); // caplen: the cap itself
        classic.extend_from_slice(&MAX_RECORD_BYTES.to_le_bytes());
        classic.extend_from_slice(&[0xaa; 100]);
        let mut ng = ng_section(false);
        ng.extend_from_slice(&PCAPNG_EPB.to_le_bytes());
        ng.extend_from_slice(&MAX_BLOCK_BYTES.to_le_bytes()); // block length: the cap itself
        ng.extend_from_slice(&[0xaa; 100]);
        for (file, what) in [(classic, "record data"), (ng, "block body")] {
            let mut r = PcapReader::new(file.as_slice()).unwrap();
            let e = loop {
                match r.next_view() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("{what}: clean EOF"),
                    Err(e) => break e,
                }
            };
            assert_eq!(e.kind.to_string(), format!("file ends inside {what}"));
            assert_eq!(r.block.len(), BLOCK_BYTES, "{what}");
            assert_eq!(r.offset(), file.len() as u64);
        }
    }

    #[test]
    fn empty_input_fails_with_truncation() {
        let e = PcapReader::new(&[][..]).unwrap_err();
        assert!(matches!(e.kind, PcapReadErrorKind::Truncated(_)), "{e}");
    }
}
