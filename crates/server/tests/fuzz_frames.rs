//! Deterministic fuzz smoke for the wire codec, run by plain `cargo test`.
//!
//! Three generators feed `decode_frame` / `Request::decode` /
//! `Response::decode`: pure random bytes (mostly dies at the magic
//! check), *mutated valid frames* (encode a real message, flip a few
//! seeded bytes — reaches past the CRC only when the flips land in it),
//! and random-prefix truncations of valid frames. The invariant:
//! decoding returns `Ok` or a typed [`FrameError`], and never panics — in
//! particular hostile rectangle bytes must never reach `Rect::new`'s debug
//! assertions.
//!
//! The regression corpus at the bottom pins the hand-minimized inputs the
//! ISSUE calls out: truncated frames, bad CRC, oversized length, unknown
//! version.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rtree_geom::Rect;
use rtree_server::wire::{
    decode_frame, encode_frame, FrameError, Request, Response, StatsReply, HEADER_LEN, MAX_PAYLOAD,
};

/// The fuzz invariant: every decoder is total on arbitrary bytes.
fn decode_all(bytes: &[u8]) {
    if let Ok(Some((payload, used))) = decode_frame(bytes) {
        assert!(used <= bytes.len(), "consumed more than offered");
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }
    // Payload decoders must also be total on unframed bytes.
    let _ = Request::decode(bytes);
    let _ = Response::decode(bytes);
}

fn sample_frames() -> Vec<Vec<u8>> {
    let rect = Rect::new(0.1, 0.2, 0.3, 0.4);
    let mut frames: Vec<Vec<u8>> = [
        Request::Query(rect).encode(),
        Request::Point(0.5, 0.5).encode(),
        Request::Count(rect).encode(),
        Request::Stats.encode(),
        Request::Shutdown.encode(),
        Response::Matches(vec![1, 2, 3]).encode(),
        Response::Count(7).encode(),
        Response::Stats(StatsReply::default()).encode(),
        Response::Overloaded.encode(),
        Response::Error("boom".into()).encode(),
        // Longer than the 1 024-byte cap, with the cut inside a `é`.
        Response::Error("x".repeat(1023) + "é tail").encode(),
        Response::ShuttingDown.encode(),
    ]
    .iter()
    .map(|p| encode_frame(p))
    .collect();
    frames.push(encode_frame(&[]));
    frames
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xF7A3_0001);
    for len in [0usize, 1, 2, 3, 11, 12, 13, 33, 45, 64, 257] {
        for _ in 0..500 {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            decode_all(&buf);
        }
    }
}

#[test]
fn random_bytes_behind_a_valid_header_never_panic() {
    // Force decoding past the magic/version gate: valid header, random
    // payload with a *correct* CRC, so the payload decoders are reached.
    let mut rng = StdRng::seed_from_u64(0xF7A3_0002);
    for _ in 0..2_000 {
        let len = rng.gen_range(0..128usize);
        let mut payload = vec![0u8; len];
        rng.fill_bytes(&mut payload);
        decode_all(&encode_frame(&payload));
    }
}

#[test]
fn mutated_valid_frames_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xF7A3_0003);
    let frames = sample_frames();
    for _ in 0..5_000 {
        let mut frame = frames[rng.gen_range(0..frames.len())].clone();
        for _ in 0..rng.gen_range(1..=4usize) {
            let i = rng.gen_range(0..frame.len());
            frame[i] ^= 1 << rng.gen_range(0..8u32);
        }
        decode_all(&frame);
    }
}

#[test]
fn truncations_are_incomplete_or_typed_errors() {
    for frame in sample_frames() {
        for cut in 0..frame.len() {
            // A prefix of a valid frame is never a *complete* decode.
            if let Ok(Some(_)) = decode_frame(&frame[..cut]) {
                panic!("truncated frame decoded at cut {cut}");
            }
        }
        // ...and the whole of one is a message (or the empty payload).
        let (payload, _) = decode_frame(&frame).unwrap().unwrap();
        assert!(
            payload.is_empty()
                || Request::decode(&payload).is_ok()
                || Response::decode(&payload).is_ok(),
            "seed frame does not decode"
        );
    }
}

// ---- regression corpus ---------------------------------------------------

#[test]
fn regression_truncated_header() {
    // 5 bytes of valid header: incomplete, not an error.
    let frame = encode_frame(&Request::Stats.encode());
    assert_eq!(decode_frame(&frame[..5]), Ok(None));
}

#[test]
fn regression_truncated_payload() {
    // Full header, payload one byte short: incomplete.
    let frame = encode_frame(&Request::Query(Rect::new(0.0, 0.0, 1.0, 1.0)).encode());
    assert_eq!(decode_frame(&frame[..frame.len() - 1]), Ok(None));
}

#[test]
fn regression_bad_crc() {
    let mut frame = encode_frame(&Request::Stats.encode());
    let last = frame.len() - 1;
    frame[last] ^= 0x01;
    assert!(matches!(
        decode_frame(&frame),
        Err(FrameError::BadCrc { .. })
    ));
}

#[test]
fn regression_oversized_length() {
    // Length field claims 16 MiB: rejected before any allocation.
    let mut frame = encode_frame(&[]);
    frame[4..8].copy_from_slice(&(16u32 << 20).to_le_bytes());
    assert_eq!(decode_frame(&frame), Err(FrameError::Oversized(16 << 20)));
}

#[test]
fn regression_length_at_cap_is_accepted() {
    // Boundary: exactly MAX_PAYLOAD is legal.
    let payload = vec![0u8; MAX_PAYLOAD];
    let frame = encode_frame(&payload);
    let (decoded, used) = decode_frame(&frame).unwrap().unwrap();
    assert_eq!(decoded.len(), MAX_PAYLOAD);
    assert_eq!(used, HEADER_LEN + MAX_PAYLOAD);
}

#[test]
fn regression_unknown_version() {
    let mut frame = encode_frame(&Request::Stats.encode());
    frame[2..4].copy_from_slice(&7u16.to_le_bytes());
    assert_eq!(decode_frame(&frame), Err(FrameError::BadVersion(7)));
}

#[test]
fn regression_bad_magic_fails_fast() {
    // Garbage magic must error even before a full header arrives, so a
    // desynced stream tears down instead of waiting forever.
    assert!(matches!(decode_frame(b"XY"), Err(FrameError::BadMagic(_))));
    assert!(matches!(decode_frame(b"Q"), Err(FrameError::BadMagic(_))));
}

#[test]
fn regression_inverted_rect_is_bad_payload() {
    // tag 1 (Query) + hi < lo rectangle: must be BadPayload, not a panic
    // inside Rect::new.
    let mut p = vec![1u8];
    for v in [0.9f64, 0.9, 0.1, 0.1] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    assert!(matches!(
        Request::decode(&p),
        Err(FrameError::BadPayload(_))
    ));
}

#[test]
fn regression_nan_point_is_bad_payload() {
    let mut p = vec![2u8];
    for v in [f64::NAN, 0.5] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    assert!(matches!(
        Request::decode(&p),
        Err(FrameError::BadPayload(_))
    ));
}

#[test]
fn regression_matches_count_overflow() {
    // Matches reply announcing u32::MAX ids with a 5-byte body: typed
    // error, no multiplication overflow, no giant allocation.
    let mut p = vec![1u8];
    p.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Response::decode(&p),
        Err(FrameError::BadPayload(_))
    ));
}

#[test]
fn regression_empty_payload_in_valid_frame() {
    let frame = encode_frame(&[]);
    let (payload, _) = decode_frame(&frame).unwrap().unwrap();
    assert!(matches!(
        Request::decode(&payload),
        Err(FrameError::BadPayload(_))
    ));
}
