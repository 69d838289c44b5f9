//! Seeded byte-mutation hardening of [`Frame::from_wire`]: whatever the
//! channel delivers — truncations, random corruption, length-field lies,
//! pure noise — the parser must return a [`FrameError`], never panic and
//! never allocate beyond the input buffer.

use ulp_link::{crc16, Frame, FrameError, FRAME_OVERHEAD};
use ulp_rng::gen::byte_vec;
use ulp_rng::XorShiftRng;

fn sample_frames(rng: &mut XorShiftRng) -> Vec<Frame> {
    let payload = byte_vec(rng, 0..=511);
    vec![
        Frame::Write {
            addr: rng.gen(),
            data: payload,
        },
        Frame::Read {
            addr: rng.gen(),
            len: rng.gen_range(0u32..0x00FF_FFFF),
        },
        Frame::SetEntry { entry: rng.gen() },
        Frame::Ack {
            seq: rng.gen_range(0u8..16),
        },
        Frame::Nack {
            seq: rng.gen_range(0u8..16),
        },
    ]
}

/// Parsing must be total: any input yields `Ok` or a `FrameError`.
/// (Reaching the end of this function without a panic is the assertion;
/// the match exists so new error variants must be considered here.)
fn assert_total(bytes: &[u8]) {
    match Frame::from_wire(bytes) {
        Ok(_) => {}
        Err(
            FrameError::Truncated
            | FrameError::BadCommand(_)
            | FrameError::BadLength { .. }
            | FrameError::BadChecksum,
        ) => {}
    }
}

#[test]
fn truncations_at_every_length_error_cleanly() {
    let mut rng = XorShiftRng::seed_from_u64(0x7121);
    for frame in sample_frames(&mut rng) {
        let wire = frame.to_wire_seq(5);
        for cut in 0..wire.len() {
            let head = &wire[..cut];
            assert_total(head);
            if cut < FRAME_OVERHEAD {
                assert_eq!(Frame::from_wire(head), Err(FrameError::Truncated));
            } else {
                assert!(Frame::from_wire(head).is_err(), "cut at {cut} parsed");
            }
        }
    }
}

#[test]
fn random_corruption_never_panics_and_is_flagged() {
    let mut rng = XorShiftRng::seed_from_u64(0xC0FE);
    for round in 0..200 {
        for frame in sample_frames(&mut rng) {
            let mut wire = frame.to_wire_seq(rng.gen_range(0u8..16));
            let flips = rng.gen_range(1usize..8);
            for _ in 0..flips {
                let byte = rng.gen_range(0..wire.len());
                let bit = rng.gen_range(0u8..8);
                wire[byte] ^= 1 << bit;
            }
            // Either the CRC catches it (overwhelmingly likely) or the
            // mutation cancelled itself out / produced another valid frame;
            // what it must never do is panic.
            assert_total(&wire);
            let _ = round;
        }
    }
}

#[test]
fn pure_noise_never_panics() {
    let mut rng = XorShiftRng::seed_from_u64(0x015E);
    for _ in 0..2000 {
        assert_total(&byte_vec(&mut rng, 0..=255));
    }
}

#[test]
fn length_field_lies_never_over_allocate() {
    let mut rng = XorShiftRng::seed_from_u64(0x11E5);
    for _ in 0..500 {
        // A frame whose 24-bit length field claims up to 16 MiB while the
        // buffer holds a few dozen bytes, re-CRC'd so only the length check
        // can reject it. A parser that trusted the field would allocate
        // megabytes (or slice out of bounds); ours must return BadLength.
        let actual = rng.gen_range(0usize..64);
        let claimed: usize = rng.gen_range(0usize..0x00FF_FFFF);
        let mut wire = Vec::with_capacity(8 + actual + 2);
        wire.push(0x1 | rng.gen_range(0u8..16) << 4);
        wire.extend_from_slice(&rng.gen::<u32>().to_le_bytes());
        wire.extend_from_slice(&(claimed as u32).to_le_bytes()[..3]);
        for _ in 0..actual {
            wire.push(rng.gen());
        }
        let crc = crc16(&wire);
        wire.extend_from_slice(&crc.to_be_bytes());
        match Frame::from_wire(&wire) {
            Ok(Frame::Write { data, .. }) => {
                assert_eq!(claimed, actual);
                assert_eq!(data.len(), actual);
            }
            Err(FrameError::BadLength {
                expected,
                actual: got,
            }) => {
                assert_eq!(expected, claimed);
                assert_eq!(got, actual);
            }
            other => panic!("unexpected parse result {other:?}"),
        }
    }
}

#[test]
fn roundtrip_survives_the_mutation_campaign_when_unmutated() {
    // Sanity anchor for the campaign above: unmutated frames always parse.
    let mut rng = XorShiftRng::seed_from_u64(0xAB1E);
    for _ in 0..100 {
        for frame in sample_frames(&mut rng) {
            let seq = rng.gen_range(0u8..16);
            let (got_seq, got) = Frame::from_wire_seq(&frame.to_wire_seq(seq)).unwrap();
            assert_eq!(got_seq, seq);
            assert_eq!(got, frame);
        }
    }
}
