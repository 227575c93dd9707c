//! Log record encoding: length- and CRC-framed, LSN-stamped.
//!
//! On-log layout of one record:
//!
//! ```text
//! +------------+-------------+----------------------+
//! | len: u32   | crc32: u32  | payload (len bytes)  |
//! +------------+-------------+----------------------+
//! ```
//!
//! All integers little-endian. The CRC covers only the payload; a record with
//! a short frame or a CRC mismatch marks the *end* of the usable log — that is
//! exactly what a torn append at crash time looks like, so the scanner treats
//! it as a clean stop, not an error.
//!
//! Payload layout by kind byte:
//!
//! ```text
//! kind 1 (PageImage):  1B kind | 8B lsn | 8B page_id | 4B data_len | before | after
//! kind 2 (Commit):     1B kind | 8B lsn
//! kind 3 (Checkpoint): 1B kind | 8B lsn
//! kind 4 (OpInsert):   1B kind | 8B lsn | 4×8B rect (lo.x lo.y hi.x hi.y) | 8B item
//! kind 5 (OpDelete):   1B kind | 8B lsn | 4×8B rect (lo.x lo.y hi.x hi.y) | 8B item
//! ```
//!
//! One log, two record families: kind 1 is a checkpoint's *physical* page
//! images (redone or undone by recovery), kinds 4–5 the writer's *logical*
//! ops (re-applied by recovery). Kinds 2–3, the commit and checkpoint
//! markers, close either family.

use crate::crc32;

/// Log sequence number: strictly increasing, 1-based (0 = "before any record").
pub type Lsn = u64;

const KIND_PAGE_IMAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_CHECKPOINT: u8 = 3;
const KIND_OP_INSERT: u8 = 4;
const KIND_OP_DELETE: u8 = 5;

/// One decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Physical page update: full before- and after-images.
    PageImage {
        /// Sequence number of this record.
        lsn: Lsn,
        /// The page the images describe.
        page_id: u64,
        /// Page contents before the update (undo image).
        before: Vec<u8>,
        /// Page contents after the update (redo image).
        after: Vec<u8>,
    },
    /// All records up to `lsn` are part of a committed operation.
    Commit {
        /// Sequence number of this record.
        lsn: Lsn,
    },
    /// All committed state up to `lsn` has been flushed to the page store;
    /// recovery may ignore everything before this record.
    Checkpoint {
        /// Sequence number of this record.
        lsn: Lsn,
    },
    /// Logical redo: insert `(rect, item)` into the index.
    OpInsert {
        /// Sequence number of this record.
        lsn: Lsn,
        /// Rectangle as `[lo.x, lo.y, hi.x, hi.y]`.
        rect: [f64; 4],
        /// The item id inserted.
        item: u64,
    },
    /// Logical redo: delete `(rect, item)` from the index.
    OpDelete {
        /// Sequence number of this record.
        lsn: Lsn,
        /// Rectangle as `[lo.x, lo.y, hi.x, hi.y]`.
        rect: [f64; 4],
        /// The item id deleted.
        item: u64,
    },
}

impl WalRecord {
    /// The record's sequence number.
    pub fn lsn(&self) -> Lsn {
        match *self {
            WalRecord::PageImage { lsn, .. }
            | WalRecord::Commit { lsn }
            | WalRecord::Checkpoint { lsn }
            | WalRecord::OpInsert { lsn, .. }
            | WalRecord::OpDelete { lsn, .. } => lsn,
        }
    }

    /// Serializes the record into its framed wire form.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(8 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32::checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn encode_payload(&self) -> Vec<u8> {
        match self {
            WalRecord::PageImage {
                lsn,
                page_id,
                before,
                after,
            } => {
                assert_eq!(
                    before.len(),
                    after.len(),
                    "page images must be the same size"
                );
                let mut p = Vec::with_capacity(21 + before.len() * 2);
                p.push(KIND_PAGE_IMAGE);
                p.extend_from_slice(&lsn.to_le_bytes());
                p.extend_from_slice(&page_id.to_le_bytes());
                p.extend_from_slice(&(before.len() as u32).to_le_bytes());
                p.extend_from_slice(before);
                p.extend_from_slice(after);
                p
            }
            WalRecord::Commit { lsn } => {
                let mut p = Vec::with_capacity(9);
                p.push(KIND_COMMIT);
                p.extend_from_slice(&lsn.to_le_bytes());
                p
            }
            WalRecord::Checkpoint { lsn } => {
                let mut p = Vec::with_capacity(9);
                p.push(KIND_CHECKPOINT);
                p.extend_from_slice(&lsn.to_le_bytes());
                p
            }
            WalRecord::OpInsert { lsn, rect, item } => encode_op(KIND_OP_INSERT, *lsn, rect, *item),
            WalRecord::OpDelete { lsn, rect, item } => encode_op(KIND_OP_DELETE, *lsn, rect, *item),
        }
    }

    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let (&kind, rest) = payload.split_first()?;
        let lsn = Lsn::from_le_bytes(rest.get(..8)?.try_into().ok()?);
        let rest = &rest[8..];
        match kind {
            KIND_PAGE_IMAGE => {
                let page_id = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
                let data_len = u32::from_le_bytes(rest.get(8..12)?.try_into().ok()?) as usize;
                let images = rest.get(12..)?;
                if images.len() != data_len * 2 {
                    return None;
                }
                Some(WalRecord::PageImage {
                    lsn,
                    page_id,
                    before: images[..data_len].to_vec(),
                    after: images[data_len..].to_vec(),
                })
            }
            KIND_COMMIT if rest.is_empty() => Some(WalRecord::Commit { lsn }),
            KIND_CHECKPOINT if rest.is_empty() => Some(WalRecord::Checkpoint { lsn }),
            KIND_OP_INSERT => {
                let (rect, item) = decode_op(rest)?;
                Some(WalRecord::OpInsert { lsn, rect, item })
            }
            KIND_OP_DELETE => {
                let (rect, item) = decode_op(rest)?;
                Some(WalRecord::OpDelete { lsn, rect, item })
            }
            _ => None,
        }
    }
}

fn encode_op(kind: u8, lsn: Lsn, rect: &[f64; 4], item: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(49);
    p.push(kind);
    p.extend_from_slice(&lsn.to_le_bytes());
    for c in rect {
        p.extend_from_slice(&c.to_le_bytes());
    }
    p.extend_from_slice(&item.to_le_bytes());
    p
}

/// Decodes the post-LSN tail of an op record: 4 coordinates + item id.
fn decode_op(rest: &[u8]) -> Option<([f64; 4], u64)> {
    if rest.len() != 40 {
        return None;
    }
    let mut rect = [0.0f64; 4];
    for (i, c) in rect.iter_mut().enumerate() {
        *c = f64::from_le_bytes(rest[i * 8..i * 8 + 8].try_into().ok()?);
    }
    let item = u64::from_le_bytes(rest[32..40].try_into().ok()?);
    Some((rect, item))
}

/// Result of scanning a log image.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// Records decoded in log order.
    pub records: Vec<WalRecord>,
    /// `false` if the scan stopped early at a torn/corrupt frame (the bytes
    /// from that point on were discarded).
    pub clean: bool,
    /// Byte offset of the first unusable byte (== `bytes.len()` when clean).
    pub valid_len: usize,
}

/// Decodes as many whole, checksum-valid records as the byte image holds.
///
/// A short frame, an implausible length, a CRC mismatch, or an undecodable
/// payload all end the scan at that point — everything before it is kept.
pub fn scan(bytes: &[u8]) -> ScanResult {
    let mut records = Vec::new();
    let mut off = 0usize;
    let clean = loop {
        if off == bytes.len() {
            break true;
        }
        let Some(header) = bytes.get(off..off + 8) else {
            break false;
        };
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let Some(payload) = bytes.get(off + 8..off + 8 + len) else {
            break false;
        };
        if crc32::checksum(payload) != crc {
            break false;
        }
        let Some(record) = WalRecord::decode_payload(payload) else {
            break false;
        };
        records.push(record);
        off += 8 + len;
    };
    ScanResult {
        records,
        clean,
        valid_len: off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<WalRecord> {
        vec![
            WalRecord::PageImage {
                lsn: 1,
                page_id: 42,
                before: vec![0u8; 32],
                after: vec![7u8; 32],
            },
            WalRecord::Commit { lsn: 2 },
            WalRecord::Checkpoint { lsn: 3 },
            WalRecord::OpInsert {
                lsn: 4,
                rect: [0.25, 0.5, 0.75, 1.0],
                item: 0xDEAD_BEEF,
            },
            WalRecord::OpDelete {
                lsn: 5,
                rect: [-1.5, 0.0, 2.5, 3.25],
                item: 7,
            },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        records.iter().flat_map(|r| r.encode()).collect()
    }

    #[test]
    fn round_trip() {
        let records = sample();
        let scan = scan(&encode_all(&records));
        assert!(scan.clean);
        assert_eq!(scan.records, records);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let records = sample();
        let bytes = encode_all(&records);
        for cut in 1..bytes.len() {
            let result = scan(&bytes[..bytes.len() - cut]);
            assert!(result.records.len() < records.len() || result.clean);
            assert_eq!(result.records, records[..result.records.len()]);
            assert!(result.valid_len <= bytes.len() - cut);
        }
    }

    #[test]
    fn corrupt_payload_stops_scan() {
        let records = sample();
        let mut bytes = encode_all(&records);
        // Flip a byte inside the first record's payload.
        bytes[12] ^= 0xFF;
        let result = scan(&bytes);
        assert!(!result.clean);
        assert!(result.records.is_empty());
        assert_eq!(result.valid_len, 0);
    }

    #[test]
    fn valid_prefix_survives_corrupt_suffix() {
        let records = sample();
        let mut bytes = encode_all(&records);
        let last_len = records[records.len() - 1].encode().len();
        let tail = bytes.len() - last_len + 9;
        bytes[tail] ^= 0x01;
        let result = scan(&bytes);
        assert!(!result.clean);
        assert_eq!(result.records, records[..records.len() - 1]);
    }

    #[test]
    fn lsn_accessor() {
        for (i, r) in sample().iter().enumerate() {
            assert_eq!(r.lsn(), i as u64 + 1);
        }
    }
}
