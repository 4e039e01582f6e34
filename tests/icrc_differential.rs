//! Differential and known-answer tests for the CRC-32 / ICRC kernel.
//!
//! Every mirrored packet pays the ICRC twice (emit and receive check), so
//! the kernel is wide (sliced, 16 bytes per step) and `icrc_over_masked`
//! steps over a zero tail — every payload the simulator sends — with one
//! matrix product per set bit of its length instead of walking it. These
//! tests pin both from outside the crate: against a bit-at-a-time
//! reference over every length and source alignment the wide loop, its
//! tail and the zero step can meet, against itself across streaming
//! splits, against ICRC values recorded from the bytewise implementation it
//! replaced — one frame of every family the simulator emits — and, bit by
//! bit, that the zero step still reads every byte it steps over.

use lumina_packet::aeth::AethSyndrome;
use lumina_packet::builder::{ack_frame, cnp_frame, nack_frame, DataPacketBuilder};
use lumina_packet::frame::{icrc_check, ICRC_LEN};
use lumina_packet::icrc::{crc32, icrc_over_masked, Crc32};
use lumina_packet::{Aeth, Opcode, Reth, RoceFrame};
use std::net::Ipv4Addr;

/// Advance a raw (un-inverted) CRC-32 state by one byte, one bit at a time.
fn reference_step(mut state: u32, byte: u8) -> u32 {
    state ^= byte as u32;
    for _ in 0..8 {
        state = if state & 1 != 0 {
            (state >> 1) ^ 0xedb8_8320
        } else {
            state >> 1
        };
    }
    state
}

fn reference_crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0, |s, &b| reference_step(s, b))
}

/// Deterministic non-repeating filler (period 251 is coprime to 16, so
/// every 16-byte block of a long buffer differs).
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ (i >> 8) as u8).collect()
}

#[test]
fn reference_matches_standard_vectors() {
    assert_eq!(reference_crc32(b""), 0);
    assert_eq!(reference_crc32(b"123456789"), 0xcbf4_3926);
}

#[test]
fn crc32_matches_reference_at_every_length_and_alignment() {
    const MAX_LEN: usize = 4200;
    let buf = pattern(MAX_LEN + 16);
    for align in 0..16 {
        // The reference state is carried from length to length, so the
        // slow side of the comparison stays linear.
        let mut state = !0u32;
        for len in 0..=MAX_LEN {
            assert_eq!(
                crc32(&buf[align..align + len]),
                !state,
                "len {len} at alignment {align}"
            );
            state = reference_step(state, buf[align + len]);
        }
    }
}

#[test]
fn streaming_matches_oneshot_at_every_split() {
    let buf = pattern(300);
    let want = reference_crc32(&buf);
    for split in 0..=buf.len() {
        let mut c = Crc32::new();
        c.update(&buf[..split]);
        c.update(&buf[split..]);
        assert_eq!(c.finish(), want, "split at {split}");
    }
    // Byte-at-a-time feeding never reaches the wide loop at all.
    let mut c = Crc32::new();
    for b in &buf {
        c.update(std::slice::from_ref(b));
    }
    assert_eq!(c.finish(), want);
}

/// The ICRC by its definition: the CRC-32 of eight bytes of ones followed
/// by the region with its mutable fields set to ones, a bit at a time.
fn reference_icrc(region: &[u8]) -> u32 {
    let mut image = [&[0xff; 8], region].concat();
    for masked in MASKED {
        if let Some(byte) = image.get_mut(8 + masked) {
            *byte = 0xff;
        }
    }
    reference_crc32(&image)
}

/// TOS, TTL, IP checksum, UDP checksum, BTH resv8a — offsets into the
/// region `icrc_over_masked` takes, for a BTH at byte 28.
const MASKED: [usize; 7] = [1, 8, 10, 11, 26, 27, 32];

#[test]
fn zero_tails_match_reference_at_every_length_prefix_and_alignment() {
    const MAX_TAIL: usize = 4200;
    // IPv4 + UDP + BTH, then a non-zero prefix, then the zero run.
    let headers = &pattern(140)[100..];
    for prefix_len in [0, 1, 15, 16, 66] {
        let prefix: Vec<u8> = (0..prefix_len).map(|i| 0x80 | i as u8).collect();
        let body = [headers, &prefix[..]].concat();
        let mut image = [&[0xff; 8], &body[..]].concat();
        for masked in MASKED {
            image[8 + masked] = 0xff;
        }
        let before_tail = image.iter().fold(!0, |s, &b| reference_step(s, b));
        for align in 0..16 {
            let mut buf = vec![0; align + body.len() + MAX_TAIL];
            buf[align..align + body.len()].copy_from_slice(&body);
            let mut state = before_tail;
            for tail in 0..=MAX_TAIL {
                assert_eq!(
                    icrc_over_masked(&buf[align..align + body.len() + tail], 28),
                    !state,
                    "{tail} zeros behind a {prefix_len}-byte prefix at alignment {align}"
                );
                state = reference_step(state, 0);
            }
        }
    }
}

#[test]
fn zero_runs_elsewhere_and_all_zero_regions_match_reference() {
    // A zero run that does not reach the end is ordinary data.
    let mut region = [&pattern(140)[100..], &[0; 2049][..]].concat();
    *region.last_mut().unwrap() = 1;
    assert_eq!(icrc_over_masked(&region, 28), reference_icrc(&region));
    // Nothing but zeros, shorter and longer than the staged headers, the
    // shortest run that takes the step, and one past every operator.
    for len in [0, 1, 27, 28, 33, 40, 91, 92, 103, 104, 1064, 4136, (16 << 16) + 57] {
        let zeros = vec![0; len];
        assert_eq!(icrc_over_masked(&zeros, 28), reference_icrc(&zeros), "{len} zeros");
    }
    // Two tail lengths taking turns: nothing is remembered between calls.
    let (mtu, last) = (vec![0; 40 + 1024], vec![0; 40 + 328]);
    let want = (reference_icrc(&mtu), reference_icrc(&last));
    for _ in 0..20 {
        assert_eq!((icrc_over_masked(&mtu, 28), icrc_over_masked(&last, 28)), want);
    }
}

#[test]
fn streaming_splits_inside_a_zero_run_match_oneshot() {
    let buf = [&pattern(70)[..], &[0; 600][..]].concat();
    let want = reference_crc32(&buf);
    assert_eq!(crc32(&buf), want);
    for split in 60..=buf.len() {
        let mut c = Crc32::new();
        c.update(&buf[..split]);
        c.update(&buf[split..]);
        assert_eq!(c.finish(), want, "split at {split}");
    }
}

/// The zero step reads what it steps over: a frame whose payload is all
/// zeros takes it on emit and on receive, and there is no covered bit —
/// BTH, RETH, payload, pad — whose flip the receive check misses.
#[test]
fn every_covered_bit_of_a_zero_payload_frame_has_teeth() {
    for payload_len in [1024, 1022] {
        let wire = DataPacketBuilder::new()
            .opcode(Opcode::RdmaWriteOnly)
            .reth(reth(payload_len as u32))
            .payload_len(payload_len)
            .build()
            .emit();
        assert_eq!(wire[wire.len() - ICRC_LEN - 1], 0, "ends in payload or pad");
        let mut wire = wire.to_vec();
        assert!(icrc_check(&wire));
        let bth = 14 + 28;
        for at in (bth..wire.len() - ICRC_LEN).filter(|&at| at != bth + 4) {
            for bit in 0..8 {
                wire[at] ^= 1 << bit;
                assert!(!icrc_check(&wire), "bit {bit} of byte {at} flipped unseen");
                wire[at] ^= 1 << bit;
            }
            assert!(icrc_check(&wire), "byte {at} restored");
        }
    }
}

fn data(opcode: Opcode, payload_len: usize) -> DataPacketBuilder {
    DataPacketBuilder::new()
        .src_ip(Ipv4Addr::new(10, 0, 0, 1))
        .dst_ip(Ipv4Addr::new(10, 0, 0, 2))
        .src_port(0xc123)
        .dest_qp(0x12_34ea)
        .psn(0x00_fffe)
        .opcode(opcode)
        .payload(pattern(payload_len).into())
}

fn reth(dma_len: u32) -> Reth {
    Reth {
        vaddr: 0x2000_0000,
        rkey: 0x2_00ea,
        dma_len,
    }
}

/// One frame per family, with the ICRC the bytewise kernel stamped on it
/// (recorded at the commit before the sliced kernel landed).
fn known_answers() -> Vec<(&'static str, RoceFrame, u32)> {
    let ip_a = Ipv4Addr::new(10, 0, 0, 2);
    let ip_b = Ipv4Addr::new(10, 0, 0, 1);
    let mut out = Vec::new();
    for (mtu, [first, middle, last, only]) in [
        (256, [0x017c_2c6b, 0xe5e3_7440, 0x07ea_bbe4, 0x2d19_c742]),
        (1024, [0x63cb_3c91, 0x0ca6_0711, 0x7e8c_cb54, 0x0162_3fa8]),
        (4096, [0x0563_679d, 0xf493_e968, 0x1e30_49ca, 0xc90a_7cfe]),
    ] {
        let len = mtu as u32;
        out.push((
            "write first",
            data(Opcode::RdmaWriteFirst, mtu)
                .reth(reth(4 * len))
                .build(),
            first,
        ));
        out.push((
            "write middle",
            data(Opcode::RdmaWriteMiddle, mtu).build(),
            middle,
        ));
        out.push((
            "write last",
            data(Opcode::RdmaWriteLast, mtu).ack_req(true).build(),
            last,
        ));
        out.push((
            "write only",
            data(Opcode::RdmaWriteOnly, mtu)
                .reth(reth(len))
                .ack_req(true)
                .build(),
            only,
        ));
    }
    out.push((
        "send only, padded",
        data(Opcode::SendOnly, 1022).build(),
        0xa4f0_8413,
    ));
    out.push((
        "read request",
        data(Opcode::RdmaReadRequest, 0).reth(reth(10240)).build(),
        0xbe48_a9ea,
    ));
    out.push((
        "read response",
        data(Opcode::RdmaReadResponseOnly, 1024)
            .aeth(Aeth {
                syndrome: AethSyndrome::Ack { credit: 31 },
                msn: 7,
            })
            .build(),
        0x49f8_4ad5,
    ));
    out.push((
        "ack",
        ack_frame(ip_a, ip_b, 0xfe, 1001, AethSyndrome::Ack { credit: 31 }, 3),
        0xc291_52c3,
    ));
    out.push(("nak", nack_frame(ip_a, ip_b, 0xfe, 1005, 2), 0x734a_745f));
    out.push(("cnp", cnp_frame(ip_a, ip_b, 0xfe), 0x8260_1fff));
    out
}

#[test]
fn emitted_icrcs_match_recorded_answers() {
    for (name, frame, want) in known_answers() {
        let wire = frame.emit();
        let got = u32::from_le_bytes(wire[wire.len() - ICRC_LEN..].try_into().unwrap());
        assert_eq!(got, want, "{name}, {} payload bytes", frame.payload.len());
        assert!(icrc_check(&wire), "{name}: receive check");
        let mut corrupted = wire.to_vec();
        let last_covered = wire.len() - ICRC_LEN - 1;
        corrupted[last_covered] ^= 0x80;
        assert!(!icrc_check(&corrupted), "{name}: corruption detected");
    }
}

#[test]
fn icrc_ignores_exactly_the_masked_fields() {
    let wire = data(Opcode::RdmaWriteMiddle, 1024).build().emit();
    let region = &wire[14..wire.len() - ICRC_LEN];
    let base = icrc_over_masked(region, 28);
    for off in 0..region.len() {
        let mut changed = region.to_vec();
        changed[off] ^= 0x5a;
        assert_eq!(
            icrc_over_masked(&changed, 28) == base,
            MASKED.contains(&off),
            "byte {off}"
        );
    }
}

#[test]
fn icrc_over_masked_is_total_on_short_regions() {
    let wire = data(Opcode::RdmaWriteMiddle, 64).build().emit();
    let region = &wire[14..wire.len() - ICRC_LEN];
    for len in 0..=region.len() {
        icrc_over_masked(&region[..len], 28);
    }
    icrc_over_masked(region, usize::MAX);
    // A frame cut short of its BTH fails the check instead of panicking.
    for len in 0..wire.len() {
        assert!(!icrc_check(&wire[..len]), "truncated to {len}");
    }
}
