//! Deterministic fuzz smoke for the WAL tail scanner, run by plain
//! `cargo test`.
//!
//! The scanner's contract on *any* byte string: terminate, never panic,
//! decode a (possibly empty) record prefix, report `valid_len <= len`,
//! and report `clean` exactly when the whole input was consumed. Random
//! bytes probe the frame parser; mutated valid logs probe the CRC and
//! payload validation; truncations probe the torn-tail classification.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rtree_wal::{scan, WalRecord};

fn check(bytes: &[u8]) -> rtree_wal::ScanResult {
    let result = scan(bytes);
    assert!(result.valid_len <= bytes.len());
    assert_eq!(result.clean, result.valid_len == bytes.len());
    result
}

fn sample_log() -> Vec<u8> {
    let mut log = Vec::new();
    for lsn in 1..=20u64 {
        let rec = match lsn % 5 {
            0 => WalRecord::Commit { lsn },
            4 => WalRecord::Checkpoint { lsn },
            _ => WalRecord::PageImage {
                lsn,
                page_id: lsn * 3,
                before: vec![lsn as u8; 128],
                after: vec![!(lsn as u8); 128],
            },
        };
        log.extend_from_slice(&rec.encode());
    }
    log
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x5CA7_FA11);
    for _ in 0..10_000 {
        let mut bytes = vec![0u8; rng.gen_range(0..512usize)];
        rng.fill_bytes(&mut bytes);
        check(&bytes);
    }
}

#[test]
fn mutated_valid_logs_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x106F_1175);
    let log = sample_log();
    for _ in 0..10_000 {
        let mut bytes = log.clone();
        for _ in 0..rng.gen_range(1..=6usize) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
        }
        check(&bytes);
    }
}

#[test]
fn every_truncation_is_a_clean_stop() {
    let log = sample_log();
    let full = check(&log);
    assert!(full.clean);
    for cut in 0..log.len() {
        let r = check(&log[..cut]);
        // A truncated log yields a (possibly shorter) prefix of the full
        // record sequence — never different records.
        assert!(r.records.len() <= full.records.len());
        assert_eq!(r.records[..], full.records[..r.records.len()]);
    }
}

// ---- Regression inputs (minimized from the generators above). ----------

/// A frame whose length field is `u32::MAX` must be treated as a torn
/// tail, not allocated.
#[test]
fn regression_huge_len_prefix() {
    let mut bytes = vec![0xFFu8, 0xFF, 0xFF, 0xFF];
    bytes.extend_from_slice(&[0u8; 12]);
    let r = check(&bytes);
    assert!(r.records.is_empty());
    assert!(!r.clean);
    assert_eq!(r.valid_len, 0);
}

/// A PageImage payload whose `data_len` claims more than the payload holds
/// must fail payload validation (scan stops), not slice out of bounds.
#[test]
fn regression_data_len_overflow() {
    let rec = WalRecord::PageImage {
        lsn: 1,
        page_id: 9,
        before: vec![1; 16],
        after: vec![2; 16],
    };
    let mut bytes = rec.encode();
    // Patch data_len (payload offset 17 = 8B frame + 1B kind + 8B lsn + 8B
    // page_id) to an absurd value and fix the CRC so the frame passes and
    // the *payload decoder* has to cope.
    let payload_start = 8;
    bytes[payload_start + 17..payload_start + 21].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = rtree_wal::crc32::checksum(&bytes[payload_start..]);
    bytes[4..8].copy_from_slice(&crc.to_le_bytes());
    let r = check(&bytes);
    assert!(r.records.is_empty());
    assert!(!r.clean);
}

/// An unknown record kind with a valid frame stops the scan at that record.
#[test]
fn regression_unknown_kind() {
    let mut good = WalRecord::Commit { lsn: 1 }.encode();
    let payload = vec![0x7Fu8, 0, 0, 0, 0, 0, 0, 0, 0]; // kind 0x7F, lsn 0
    let mut bad = Vec::new();
    bad.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bad.extend_from_slice(&rtree_wal::crc32::checksum(&payload).to_le_bytes());
    bad.extend_from_slice(&payload);
    let prefix_len = good.len();
    good.extend_from_slice(&bad);
    let r = check(&good);
    assert_eq!(r.records.len(), 1);
    assert_eq!(r.valid_len, prefix_len);
}
