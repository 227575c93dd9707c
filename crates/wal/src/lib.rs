//! Write-ahead log for the disk R-tree.
//!
//! The pager's write path follows the classic WAL protocol: before a dirty
//! page may reach the page store (on eviction or checkpoint), a
//! [`WalRecord::PageImage`] carrying its full before- and after-image must be
//! durable in the log. Each mutating tree operation (one insert or delete) is
//! a single-op transaction closed by a [`WalRecord::Commit`]; a
//! [`WalRecord::Checkpoint`] asserts that all committed state has been
//! flushed, letting recovery skip everything before it.
//!
//! Recovery is physical redo + undo over full page images (see
//! [`plan_recovery`]): redo committed after-images in LSN order, then undo
//! uncommitted before-images in reverse. Because operations are applied one
//! at a time and pages only reach the store after logging, the store is
//! always a subset of the logged state, so this restores the exact tree as of
//! the last commit — no matter where the crash landed.

#![warn(missing_docs)]

pub mod crc32;

mod backend;
mod group;
mod record;

pub use backend::{CrashSwitch, FaultLog, FileLog, LogBackend, MemLog, StagedLog};
pub use group::{GroupCommitStats, GroupWal, LogPoisoned};
pub use record::{scan, Lsn, ScanResult, WalRecord};

use std::io;

/// The write-ahead log: an LSN allocator over a [`LogBackend`].
pub struct Wal {
    backend: Box<dyn LogBackend>,
    next_lsn: Lsn,
    /// Appended-but-not-yet-synced bytes exist.
    dirty: bool,
}

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

impl Wal {
    /// Opens a WAL over `backend`, continuing after the records already in
    /// the log.
    ///
    /// # Errors
    /// `InvalidData` if the existing log ends in a torn or corrupt tail
    /// (see [`scan`]); run recovery and start from a truncated log.
    pub fn open(backend: impl LogBackend + 'static) -> io::Result<Self> {
        let next_lsn = resume_lsn(&backend.read_all()?)?;
        Ok(Wal {
            backend: Box::new(backend),
            next_lsn,
            dirty: false,
        })
    }

    /// The LSN the next record will get.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Appends a page-image record (not yet durable — call [`Wal::sync`] or
    /// log a commit).
    pub fn log_page_image(&mut self, page_id: u64, before: &[u8], after: &[u8]) -> io::Result<Lsn> {
        self.append(WalRecord::PageImage {
            lsn: self.next_lsn,
            page_id,
            before: before.to_vec(),
            after: after.to_vec(),
        })
    }

    /// Appends a commit marker and syncs: the operation is now durable.
    pub fn log_commit(&mut self) -> io::Result<Lsn> {
        let lsn = self.append(WalRecord::Commit { lsn: self.next_lsn })?;
        self.sync()?;
        Ok(lsn)
    }

    /// Appends a checkpoint marker and syncs. The *caller* must have flushed
    /// all dirty pages to the store first — the record is an assertion, not
    /// an action.
    pub fn log_checkpoint(&mut self) -> io::Result<Lsn> {
        let lsn = self.append(WalRecord::Checkpoint { lsn: self.next_lsn })?;
        self.sync()?;
        Ok(lsn)
    }

    fn append(&mut self, record: WalRecord) -> io::Result<Lsn> {
        let lsn = record.lsn();
        debug_assert_eq!(lsn, self.next_lsn);
        self.backend.append(&record.encode())?;
        self.next_lsn += 1;
        self.dirty = true;
        Ok(lsn)
    }

    /// Forces appended records to durable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            self.backend.sync()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Scans the whole log image.
    pub fn read_records(&self) -> io::Result<ScanResult> {
        Ok(record::scan(&self.backend.read_all()?))
    }

    /// Drops all log contents (valid only right after a checkpoint).
    pub fn truncate(&mut self) -> io::Result<()> {
        self.backend.truncate()?;
        self.dirty = false;
        Ok(())
    }

    /// Bytes currently in the log (write-amplification accounting).
    pub fn len(&self) -> u64 {
        self.backend.len()
    }

    /// True when the log holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.backend.len() == 0
    }
}

/// The page writes recovery must apply, in order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// `(page_id, image)` pairs to write to the store, in apply order
    /// (redo in LSN order, then undo in reverse LSN order).
    pub writes: Vec<(u64, Vec<u8>)>,
    /// LSN of the last commit record, if any.
    pub last_commit: Option<Lsn>,
    /// Number of redo images in `writes`.
    pub redone: usize,
    /// Number of undo images in `writes`.
    pub undone: usize,
}

/// Computes the physical page writes that bring a store back to the state as
/// of the last committed operation.
///
/// Records strictly before the last checkpoint are skipped (the checkpoint
/// asserts they are already in the store). Page images at or after it are
/// redone (after-image) when covered by a commit, and undone (before-image,
/// reverse order) when not. The caller applies `writes` in order and then
/// flushes the store.
pub fn plan_recovery(records: &[WalRecord]) -> RecoveryPlan {
    let start = records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Checkpoint { .. }))
        .map_or(0, |i| i + 1);
    let last_commit = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Commit { lsn } => Some(*lsn),
            _ => None,
        })
        .next_back();
    let committed = last_commit.unwrap_or(0);

    let mut plan = RecoveryPlan {
        last_commit,
        ..RecoveryPlan::default()
    };
    let mut undo = Vec::new();
    for record in &records[start..] {
        if let WalRecord::PageImage {
            lsn,
            page_id,
            before,
            after,
        } = record
        {
            if *lsn <= committed {
                plan.writes.push((*page_id, after.clone()));
                plan.redone += 1;
            } else {
                undo.push((*page_id, before.clone()));
                plan.undone += 1;
            }
        }
    }
    undo.reverse();
    plan.writes.extend(undo);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; 64]
    }

    #[test]
    fn wal_assigns_increasing_lsns_and_round_trips() {
        let mut wal = Wal::open(MemLog::new()).unwrap();
        assert_eq!(wal.next_lsn(), 1);
        let a = wal.log_page_image(5, &page(0), &page(1)).unwrap();
        let b = wal.log_commit().unwrap();
        let c = wal.log_page_image(6, &page(0), &page(2)).unwrap();
        assert_eq!((a, b, c), (1, 2, 3));
        let scan = wal.read_records().unwrap();
        assert!(scan.clean);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2].lsn(), 3);
    }

    #[test]
    fn wal_open_resumes_lsn_sequence() {
        let log = MemLog::new();
        {
            let mut wal = Wal::open(log.clone()).unwrap();
            wal.log_page_image(1, &page(0), &page(1)).unwrap();
            wal.log_commit().unwrap();
        }
        let wal = Wal::open(log).unwrap();
        assert_eq!(wal.next_lsn(), 3);
    }

    #[test]
    fn open_refuses_a_torn_log_instead_of_appending_behind_it() {
        let log = MemLog::new();
        let mut wal = Wal::open(log.clone()).unwrap();
        wal.log_page_image(1, &page(0), &page(1)).unwrap();
        wal.log_commit().unwrap();
        let valid = log.len();
        let mut torn = log.clone();
        torn.append(&[0xAB; 5]).unwrap();
        let Err(err) = Wal::open(log.clone()) else {
            panic!("a commit logged behind the garbage would be lost to recovery");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&format!("valid_len {valid}")));
    }

    #[test]
    fn plan_redoes_committed_and_undoes_uncommitted() {
        let records = vec![
            WalRecord::PageImage {
                lsn: 1,
                page_id: 10,
                before: page(0),
                after: page(1),
            },
            WalRecord::Commit { lsn: 2 },
            WalRecord::PageImage {
                lsn: 3,
                page_id: 11,
                before: page(0),
                after: page(9),
            },
            WalRecord::PageImage {
                lsn: 4,
                page_id: 10,
                before: page(1),
                after: page(8),
            },
        ];
        let plan = plan_recovery(&records);
        assert_eq!(plan.last_commit, Some(2));
        assert_eq!(plan.redone, 1);
        assert_eq!(plan.undone, 2);
        // Redo of page 10's committed image, then undo in reverse order.
        assert_eq!(
            plan.writes,
            vec![(10, page(1)), (10, page(1)), (11, page(0))]
        );
    }

    #[test]
    fn plan_skips_records_before_last_checkpoint() {
        let records = vec![
            WalRecord::PageImage {
                lsn: 1,
                page_id: 1,
                before: page(0),
                after: page(1),
            },
            WalRecord::Commit { lsn: 2 },
            WalRecord::Checkpoint { lsn: 3 },
            WalRecord::PageImage {
                lsn: 4,
                page_id: 2,
                before: page(0),
                after: page(2),
            },
            WalRecord::Commit { lsn: 5 },
        ];
        let plan = plan_recovery(&records);
        assert_eq!(plan.redone, 1);
        assert_eq!(plan.undone, 0);
        assert_eq!(plan.writes, vec![(2, page(2))]);
    }

    #[test]
    fn plan_with_no_commit_undoes_everything() {
        let records = vec![
            WalRecord::PageImage {
                lsn: 1,
                page_id: 3,
                before: page(0),
                after: page(5),
            },
            WalRecord::PageImage {
                lsn: 2,
                page_id: 4,
                before: page(0),
                after: page(6),
            },
        ];
        let plan = plan_recovery(&records);
        assert_eq!(plan.last_commit, None);
        assert_eq!(plan.writes, vec![(4, page(0)), (3, page(0))]);
    }

    #[test]
    fn truncate_resets_but_keeps_lsn_monotonic() {
        let mut wal = Wal::open(MemLog::new()).unwrap();
        wal.log_page_image(1, &page(0), &page(1)).unwrap();
        wal.log_commit().unwrap();
        wal.log_checkpoint().unwrap();
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.next_lsn(), 4, "LSNs keep counting after truncation");
        wal.log_commit().unwrap();
        let scan = wal.read_records().unwrap();
        assert_eq!(scan.records, vec![WalRecord::Commit { lsn: 4 }]);
    }
}
