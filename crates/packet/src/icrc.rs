//! Invariant CRC (ICRC) for RoCEv2.
//!
//! Every RoCEv2 packet ends with a 4-byte CRC computed with the Ethernet
//! CRC-32 polynomial over the fields that do not change in flight. Mutable
//! fields are replaced by ones for the computation, per the RoCEv2 annex:
//!
//! * an 8-byte pseudo-LRH of 0xff,
//! * IPv4 TOS (DSCP+ECN), TTL and header checksum masked to 0xff,
//! * UDP checksum masked to 0xff,
//! * BTH `resv8a` (byte 4) masked to 0xff.
//!
//! Masking the ECN bits is what allows the switch to mark CE without
//! breaking the ICRC — and conversely, the `corrupt` injection event flips a
//! *payload* byte, which is covered, so the receiver must detect it.
//!
//! The 32-bit result is appended little-endian (the convention used by
//! software RoCE implementations such as Linux `rxe`).
//!
//! One table-driven loop (`update`, slicing-by-16) is behind [`crc32`],
//! [`Crc32`] and [`icrc_over_masked`]. The last of these also knows that a
//! region usually ends in zeros — every payload this simulator sends — and
//! steps the state over that run with `ZERO_RUN` instead of walking it,
//! after reading every byte of it to know that it is one.

/// CRC-32 (IEEE 802.3, reflected, init all-ones, final xor all-ones).
pub fn crc32(data: &[u8]) -> u32 {
    update(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Streaming CRC-32 with the same parameters as [`crc32`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Start a new computation.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finish and return the CRC value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

/// IPv4 (20 bytes, no options) followed by UDP: the only layout RoCEv2
/// frames here carry below the BTH.
const L3_L4_LEN: usize = 20 + 8;

/// 0xff at the IPv4 + UDP bytes the ICRC reads as ones, zero elsewhere:
/// IPv4 TOS (byte 1), TTL (byte 8), checksum (bytes 10-11); UDP checksum
/// (bytes 6-7 of the UDP header at byte 20).
const L3_L4_ONES: [u8; L3_L4_LEN] = {
    let masked = [1, 8, 10, 11, 20 + 6, 20 + 7];
    let mut ones = [0; L3_L4_LEN];
    let mut i = 0;
    while i < masked.len() {
        ones[masked[i]] = 0xff;
        i += 1;
    }
    ones
};

/// Compute the RoCEv2 ICRC over a frame laid out as
/// `ip_header ++ udp_header ++ ib_headers_and_payload` (Ethernet header and
/// trailing ICRC excluded). `bth_offset` is the offset of the BTH within
/// that region (i.e. IP header length + UDP header length).
///
/// Total: a region too short to hold one of the masked fields has nothing
/// to mask there, and the result is the CRC of what is present.
pub fn icrc_over_masked(l3_and_up: &[u8], bth_offset: usize) -> u32 {
    // The region is scanned in place where this routine used to
    // materialize a masked scratch copy — credit the avoided copy.
    crate::buf::note_shared(l3_and_up.len());
    let (l3_l4, mut ib) = l3_and_up.split_at(l3_and_up.len().min(L3_L4_LEN));
    // Only the pseudo-LRH (8 bytes of ones) and the masked IPv4 + UDP
    // headers are staged, 36 bytes; the rest is read where it lies. The
    // mask is OR-ed in on the way so the stage is written in whole words
    // (byte stores over it would stall the word loads that follow).
    let mut head = [0xff; 8 + L3_L4_LEN];
    for ((staged, &byte), &ones) in head[8..].iter_mut().zip(l3_l4).zip(&L3_L4_ONES) {
        *staged = byte | ones;
    }
    let mut crc = update(0xffff_ffff, &head[..8 + l3_l4.len()]);
    // BTH resv8a (byte 4) reads as ones; everything after it — the
    // payload — reaches the wide loop as one run.
    let resv8a = bth_offset.saturating_add(4).checked_sub(L3_L4_LEN);
    if let Some(resv8a) = resv8a.filter(|&at| at < ib.len()) {
        crc = step(update(crc, &ib[..resv8a]), 0xff);
        ib = &ib[resv8a + 1..];
    }
    update_over_zero_tail(crc, ib) ^ 0xffff_ffff
}

/// [`update`] for data that may end in a long run of zeros. The run is
/// found by reading it — whole 16-byte words compared from the end, so one
/// set bit anywhere ends it there — and only what precedes it goes through
/// the table loop; the run's effect on the state is applied as one
/// [`ZERO_RUN`] operator per set bit of its length. Runs under 64 bytes
/// are not worth an operator and stay in the table loop.
fn update_over_zero_tail(crc: u32, data: &[u8]) -> u32 {
    let words = data
        .rchunks_exact(16)
        .take((1 << ZERO_RUN.len()) - 1)
        .take_while(|word| **word == [0; 16])
        .count();
    if words < 4 {
        return update(crc, data);
    }
    let mut crc = update(crc, &data[..data.len() - 16 * words]);
    for (k, run) in ZERO_RUN.iter().enumerate() {
        if words >> k & 1 != 0 {
            crc = advance(run, crc);
        }
    }
    crc
}

/// `ZERO_RUN[k]` is `update(_, zeros(16 << k))` as a 32 × 32 bit matrix:
/// the kernel carries no init or final xor, so a zero byte advances the raw
/// state by shifts and table xors alone — a GF(2)-linear map of the state —
/// and so does any number of them. Column `i` is where state bit `i` ends
/// up; a run of `2ⁿ` words is the run of `2ⁿ⁻¹` applied twice.
static ZERO_RUN: [[u32; 32]; 16] = {
    let mut runs = [[0u32; 32]; 16];
    let mut i = 0;
    while i < 32 {
        // One word of zeros, a bit at a time: the definition, not the kernel.
        let mut crc = 1u32 << i;
        let mut bit = 0;
        while bit < 16 * 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        runs[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < runs.len() {
        let mut i = 0;
        while i < 32 {
            runs[k][i] = advance(&runs[k - 1], runs[k - 1][i]);
            i += 1;
        }
        k += 1;
    }
    runs
};

/// Matrix × state: the xor of the columns whose state bit is set.
const fn advance(run: &[u32; 32], crc: u32) -> u32 {
    let mut out = 0;
    let mut i = 0;
    while i < 32 {
        out ^= run[i] & (crc >> i & 1).wrapping_neg();
        i += 1;
    }
    out
}

/// The one CRC kernel: advance the raw (un-inverted) state over `data`,
/// slicing-by-16 — sixteen table lookups fold sixteen input bytes per
/// step — with a bytewise tail.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        // The running state folds into the block's first four bytes; byte
        // `i` then has `15 - i` bytes of the block still behind it.
        let mut next = 0;
        for (i, &byte) in block.iter().enumerate() {
            let folded = if i < 4 {
                byte ^ (crc >> (8 * i)) as u8
            } else {
                byte
            };
            next ^= CRC_TABLES[15 - i][folded as usize];
        }
        crc = next;
    }
    blocks.remainder().iter().fold(crc, |crc, &b| step(crc, b))
}

/// One byte through the classic bytewise table.
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xff) as usize]
}

/// Slicing tables for the reflected IEEE polynomial 0xEDB88320:
/// `CRC_TABLES[0]` is the classic bytewise table, `CRC_TABLES[k][b]` the
/// CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello icrc world, this is a longer buffer";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn icrc_invariant_under_mutable_fields() {
        // Build a minimal IPv4+UDP+BTH region and check that flipping the
        // masked fields does not change the ICRC, while flipping a covered
        // byte does.
        let mut region = vec![0u8; 20 + 8 + 12 + 16];
        region[0] = 0x45;
        let base = icrc_over_masked(&region, 28);

        let mut ecn_marked = region.clone();
        ecn_marked[1] |= 0x03; // set ECN CE
        assert_eq!(icrc_over_masked(&ecn_marked, 28), base);

        let mut ttl_changed = region.clone();
        ttl_changed[8] = 63;
        assert_eq!(icrc_over_masked(&ttl_changed, 28), base);

        let mut udp_csum = region.clone();
        udp_csum[26] = 0xaa;
        assert_eq!(icrc_over_masked(&udp_csum, 28), base);

        region[20 + 8 + 12] ^= 0x01; // payload byte
        assert_ne!(icrc_over_masked(&region, 28), base);
    }

    #[test]
    fn icrc_covers_psn_and_qpn() {
        let mut region = vec![0u8; 20 + 8 + 12];
        region[0] = 0x45;
        let base = icrc_over_masked(&region, 28);
        let mut psn_changed = region.clone();
        psn_changed[20 + 8 + 11] ^= 1; // PSN low byte
        assert_ne!(icrc_over_masked(&psn_changed, 28), base);
        let mut qp_changed = region;
        qp_changed[20 + 8 + 7] ^= 1; // destQP low byte
        assert_ne!(icrc_over_masked(&qp_changed, 28), base);
    }
}
