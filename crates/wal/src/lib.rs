//! Write-ahead log for the disk R-trees: one front-end, [`GroupWal`], two
//! record families, one commit and poison protocol.
//!
//! *Logical* [`WalRecord::OpInsert`] / [`WalRecord::OpDelete`] records
//! are the tree writer's, one per operation; its dirty pages reach the
//! store only at a checkpoint, and recovery re-applies committed ops.
//! *Physical* [`WalRecord::PageImage`]s carry a page's full before- and
//! after-image: the checkpoint stages one per page it writes and
//! [`GroupWal::flush`]es them before the first page reaches the store, and
//! recovery redoes committed after-images and undoes the rest — a
//! checkpoint that died part-way — which also repairs a torn page write. Both share the LSN
//! sequence, group commit, checkpoints and the poison rule (a failed flush
//! fails every later call until the log is reopened); [`commit_horizon`] is
//! the one reading of what a recovery applies.

#![warn(missing_docs)]

pub mod crc32;

mod backend;
mod group;
mod record;

pub use backend::{CrashSwitch, FaultLog, FileLog, LogBackend, MemLog, StagedLog};
pub use group::{GroupCommitStats, GroupWal, LogPoisoned};
pub use record::{scan, Lsn, ScanResult, WalRecord};

use std::io;

/// The log's older name, kept because the stand-alone `rtree-perf`
/// benchmark still opens it as `Wal`; it is [`GroupWal`].
pub type Wal = GroupWal;

/// The LSN a log opened over `image` continues at.
///
/// New records are appended behind the whole byte image, and every scan
/// stops at the first unusable byte — so behind a torn tail they would be
/// unreachable to recovery, acknowledged commits included. An image that
/// does not scan clean is therefore refused with `InvalidData`: the caller
/// recovers what the log holds and reopens over a truncated or fresh one.
fn resume_lsn(image: &[u8]) -> io::Result<Lsn> {
    let scanned = record::scan(image);
    if !scanned.clean {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "log image is torn: valid_len {} of {} bytes; recover and truncate it first",
                scanned.valid_len,
                image.len()
            ),
        ));
    }
    Ok(scanned.records.last().map_or(1, |r| r.lsn() + 1))
}

/// What a recovery may apply from scanned `records`: the records after the
/// last [`WalRecord::Checkpoint`] (which asserts that everything before it
/// is in the page store), and the highest LSN a durable `Commit` or
/// `Checkpoint` covers (`None` when the log holds neither). A record of
/// that suffix at or below the horizon belongs to a committed operation;
/// one above it was never acknowledged.
pub fn commit_horizon(records: &[WalRecord]) -> (&[WalRecord], Option<Lsn>) {
    let (mut start, mut horizon) = (0, None);
    for (i, record) in records.iter().enumerate() {
        match *record {
            WalRecord::Commit { lsn } => horizon = Some(lsn),
            WalRecord::Checkpoint { lsn } => (start, horizon) = (i + 1, Some(lsn)),
            _ => {}
        }
    }
    (&records[start..], horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; 64]
    }

    fn image(lsn: Lsn, page_id: u64, before: u8, after: u8) -> WalRecord {
        WalRecord::PageImage {
            lsn,
            page_id,
            before: page(before),
            after: page(after),
        }
    }

    #[test]
    fn wal_assigns_increasing_lsns_and_round_trips() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        assert_eq!(wal.next_lsn(), 1);
        let a = wal.log_page_image(5, &page(0), &page(1)).unwrap();
        wal.commit(a).unwrap();
        let c = wal.log_page_image(6, &page(0), &page(2)).unwrap();
        assert_eq!((a, wal.durable_lsn(), c), (1, 2, 3));
        wal.flush().unwrap();
        let scan = scan(&log.read_all().unwrap());
        assert!(scan.clean);
        assert_eq!(
            scan.records,
            [
                image(1, 5, 0, 1),
                WalRecord::Commit { lsn: 2 },
                image(3, 6, 0, 2)
            ]
        );
    }

    #[test]
    fn wal_open_resumes_lsn_sequence() {
        let log = MemLog::new();
        {
            let wal = GroupWal::open(log.clone()).unwrap();
            let lsn = wal.log_page_image(1, &page(0), &page(1)).unwrap();
            wal.commit(lsn).unwrap();
        }
        let wal = GroupWal::open(log).unwrap();
        assert_eq!(wal.next_lsn(), 3);
    }

    #[test]
    fn open_refuses_a_torn_log_instead_of_appending_behind_it() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        let lsn = wal.log_page_image(1, &page(0), &page(1)).unwrap();
        wal.commit(lsn).unwrap();
        let valid = log.len();
        let mut torn = log.clone();
        torn.append(&[0xAB; 5]).unwrap();
        let Err(err) = resume_lsn(&log.read_all().unwrap()) else {
            panic!("a commit logged behind the garbage would be lost to recovery");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&format!("valid_len {valid}")));
    }

    /// The images at or below the horizon are redone, the rest undone.
    #[test]
    fn plan_redoes_committed_and_undoes_uncommitted() {
        let records = [
            image(1, 10, 0, 1),
            WalRecord::Commit { lsn: 2 },
            image(3, 11, 0, 9),
            image(4, 10, 1, 8),
        ];
        let (suffix, horizon) = commit_horizon(&records);
        assert_eq!((suffix, horizon), (&records[..], Some(2)));
    }

    #[test]
    fn plan_skips_records_before_last_checkpoint() {
        let records = [
            image(1, 1, 0, 1),
            WalRecord::Commit { lsn: 2 },
            WalRecord::Checkpoint { lsn: 3 },
            image(4, 2, 0, 2),
            WalRecord::Commit { lsn: 5 },
        ];
        assert_eq!(commit_horizon(&records), (&records[3..], Some(5)));
        // A checkpoint is a horizon too: nothing after it, all of it durable.
        assert_eq!(commit_horizon(&records[..3]), (&[][..], Some(3)));
    }

    #[test]
    fn plan_with_no_commit_undoes_everything() {
        let records = [image(1, 3, 0, 5), image(2, 4, 0, 6)];
        assert_eq!(commit_horizon(&records), (&records[..], None));
    }

    #[test]
    fn truncate_resets_but_keeps_lsn_monotonic() {
        let wal = GroupWal::open(MemLog::new()).unwrap();
        let lsn = wal.log_page_image(1, &page(0), &page(1)).unwrap();
        wal.commit(lsn).unwrap();
        wal.checkpoint().unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.next_lsn(), 4, "LSNs keep counting after truncation");
        let lsn = wal.log_page_image(2, &page(0), &page(3)).unwrap();
        wal.commit(lsn).unwrap();
        let scan = scan(&wal.read_all().unwrap());
        assert_eq!(
            scan.records,
            [image(4, 2, 0, 3), WalRecord::Commit { lsn: 5 }]
        );
    }
}
