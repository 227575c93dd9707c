//! Crash recovery: replays a write-ahead log against a page store.
//!
//! Both procedures, [`recover`] for page images and [`replay_committed`]
//! for logical ops, read the log the same way
//! ([`rtree_wal::commit_horizon`]): scan the surviving bytes
//! tail-tolerantly, skip everything up to the last checkpoint, and treat as
//! committed only what a durable commit covers. Every restart is the same
//! three steps: [`recover`] the store, open it writable
//! ([`crate::ConcurrentDiskRTree::open_writable`]), [`replay_committed`].
//!
//! [`recover`] is the classical physical redo/undo over full page images:
//! redo every committed after-image in LSN order, then undo uncommitted
//! before-images in reverse order. The one in-place page write, the
//! checkpoint's, logs its images *before* the store is touched (the WAL
//! rule), so the store after a crash is a mix of old and logged states, and
//! rewriting full images lands it on the last committed state even over a
//! torn page. A checkpoint's images stay uncommitted up to its `Checkpoint`
//! record, so one that died part-way is undone to the previous checkpoint.

use crate::{PageStore, PAGE_SIZE};
use rtree_buffer::PageId;
use rtree_geom::Rect;
use rtree_wal::{Lsn, WalRecord};
use std::io;

/// What [`recover`] did, for logging and assertions in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed after-images rewritten.
    pub pages_redone: usize,
    /// Uncommitted before-images rolled back.
    pub pages_undone: usize,
    /// Highest LSN covered by a durable `Commit`/`Checkpoint` record
    /// (`None` when the log held neither).
    pub last_commit: Option<Lsn>,
    /// False when the log ended in a torn or corrupt record (expected after
    /// a crash mid-append; the torn tail is ignored).
    pub clean_log: bool,
}

/// Replays `log_bytes` (the surviving contents of a [`rtree_wal`] log)
/// against `store`, restoring the last committed state.
///
/// Pages referenced by the log but missing from the store (the crash hit
/// before an allocation reached disk) are allocated first. The store is
/// flushed before returning, so a recovered tree is durable immediately.
pub fn recover<S: PageStore>(store: &S, log_bytes: &[u8]) -> io::Result<RecoveryReport> {
    let scan = rtree_wal::scan(log_bytes);
    let (records, horizon) = rtree_wal::commit_horizon(&scan.records);
    let put = |page_id: u64, image: &[u8]| {
        debug_assert_eq!(image.len(), PAGE_SIZE);
        while store.page_count() <= page_id {
            store.allocate_shared()?;
        }
        store.write_page_shared(PageId(page_id), image)
    };
    let mut undo = Vec::new();
    let mut pages_redone = 0;
    for record in records {
        if let WalRecord::PageImage {
            lsn,
            page_id,
            before,
            after,
        } = record
        {
            if horizon.is_some_and(|h| *lsn <= h) {
                put(*page_id, after)?;
                pages_redone += 1;
            } else {
                undo.push((*page_id, before));
            }
        }
    }
    for (page_id, before) in undo.iter().rev() {
        put(*page_id, before)?;
    }
    store.flush_shared()?;
    Ok(RecoveryReport {
        pages_redone,
        pages_undone: undo.len(),
        last_commit: horizon,
        clean_log: scan.clean,
    })
}

/// What [`replay_committed`] applied.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Committed logical inserts applied to the tree.
    pub applied_inserts: u64,
    /// Committed logical deletes applied to the tree.
    pub applied_deletes: u64,
    /// Highest LSN covered by a durable `Commit`/`Checkpoint` record
    /// (`None` when the log held neither).
    pub last_commit: Option<Lsn>,
    /// `false` when the scan stopped at a torn frame (everything before it
    /// was still replayed).
    pub clean_log: bool,
}

/// Logical redo: replays the *committed* suffix of a group-commit WAL onto
/// a freshly opened writable tree.
///
/// The writer is no-steal, so the page store, once [`recover`]ed, holds the
/// last checkpoint image; everything after it lives only as `OpInsert` /
/// `OpDelete` records. Replay applies, in log order, every op record that (a) follows
/// the last `Checkpoint` (earlier ops are already inside the image) and
/// (b) is covered by a `Commit` — a batch whose leader never fsynced loses
/// all of its ops together, never a prefix (the none-or-all guarantee the
/// WAL crash tests pin down).
///
/// Replay is idempotent, for an image that holds some ops already (a crashed
/// checkpoint's, opened without [`recover`]): an insert whose exact
/// `(rect, item)` is present is skipped and not counted.
///
/// The target tree logs the replayed ops into its own WAL as a side effect,
/// which keeps them durable going forward; checkpoint afterwards to start
/// from a clean log.
pub fn replay_committed<S: PageStore>(
    log_bytes: &[u8],
    tree: &crate::ConcurrentDiskRTree<S>,
) -> io::Result<ReplaySummary> {
    let scan = rtree_wal::scan(log_bytes);
    let (records, horizon) = rtree_wal::commit_horizon(&scan.records);
    let mut summary = ReplaySummary {
        last_commit: horizon,
        clean_log: scan.clean,
        ..ReplaySummary::default()
    };
    let Some(horizon) = horizon else {
        return Ok(summary);
    };
    for record in records {
        match record {
            WalRecord::OpInsert { lsn, rect, item } if *lsn <= horizon => {
                let rect = Rect::new(rect[0], rect[1], rect[2], rect[3]);
                if !tree.contains(&rect, *item)? {
                    tree.insert(&rect, *item)?;
                    summary.applied_inserts += 1;
                }
            }
            WalRecord::OpDelete { lsn, rect, item } if *lsn <= horizon => {
                tree.delete(&Rect::new(rect[0], rect[1], rect[2], rect[3]), *item)?;
                summary.applied_deletes += 1;
            }
            _ => {}
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use rtree_wal::{GroupWal, LogBackend, MemLog};

    fn page(fill: u8) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = fill;
        buf
    }

    fn store_with_pages(n: usize) -> MemStore {
        let mut store = MemStore::new();
        for i in 0..n {
            let id = store.allocate().unwrap();
            store.write_page(id, &page(i as u8)).unwrap();
        }
        store
    }

    #[test]
    fn committed_writes_are_redone() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        let lsn = wal.log_page_image(1, &page(1), &page(0xAA)).unwrap();
        wal.commit(lsn).unwrap();
        // Crash before any write-back: the store still has the old image.
        let mut store = store_with_pages(3);
        let report = recover(&store, &log.read_all().unwrap()).unwrap();
        assert_eq!(report.pages_redone, 1);
        assert_eq!(report.pages_undone, 0);
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[0], 0xAA);
    }

    #[test]
    fn uncommitted_writes_are_undone() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        let lsn = wal.log_page_image(1, &page(1), &page(0xAA)).unwrap();
        wal.commit(lsn).unwrap();
        // Second write: logged and flushed, written back, never committed.
        wal.log_page_image(2, &page(2), &page(0xBB)).unwrap();
        wal.flush().unwrap();
        let mut store = store_with_pages(3);
        store.write_page(PageId(1), &page(0xAA)).unwrap();
        store.write_page(PageId(2), &page(0xBB)).unwrap();
        let report = recover(&store, &log.read_all().unwrap()).unwrap();
        assert_eq!(report.pages_redone, 1);
        assert_eq!(report.pages_undone, 1);
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(2), &mut buf).unwrap();
        assert_eq!(buf[0], 2, "uncommitted write rolled back");
        store.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[0], 0xAA, "committed write preserved");
    }

    /// Two uncommitted images of one page: undo must run newest first, so
    /// the page ends on the older before-image.
    #[test]
    fn undo_runs_in_reverse_lsn_order() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        let lsn = wal.log_page_image(1, &page(1), &page(0xAA)).unwrap();
        wal.commit(lsn).unwrap();
        wal.log_page_image(1, &page(0xAA), &page(0xBB)).unwrap();
        wal.log_page_image(1, &page(0xBB), &page(0xCC)).unwrap();
        wal.flush().unwrap();
        let mut store = store_with_pages(3);
        let report = recover(&store, &log.read_all().unwrap()).unwrap();
        assert_eq!((report.pages_redone, report.pages_undone), (1, 2));
        assert_eq!(report.last_commit, Some(2));
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[0], 0xAA, "the committed image, not an undone one");
    }

    #[test]
    fn missing_pages_are_allocated() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        let lsn = wal.log_page_image(5, &page(0), &page(0x5A)).unwrap();
        wal.commit(lsn).unwrap();
        let mut store = store_with_pages(2);
        recover(&store, &log.read_all().unwrap()).unwrap();
        assert_eq!(store.page_count(), 6);
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(5), &mut buf).unwrap();
        assert_eq!(buf[0], 0x5A);
    }

    #[test]
    fn torn_log_tail_is_tolerated() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        let lsn = wal.log_page_image(1, &page(1), &page(0xAA)).unwrap();
        wal.commit(lsn).unwrap();
        wal.log_page_image(2, &page(2), &page(0xBB)).unwrap();
        wal.flush().unwrap();
        let mut bytes = log.read_all().unwrap();
        bytes.truncate(bytes.len() - 7); // tear the last record
        let mut store = store_with_pages(3);
        let report = recover(&store, &bytes).unwrap();
        assert!(!report.clean_log);
        assert_eq!(report.pages_redone, 1);
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(2), &mut buf).unwrap();
        assert_eq!(buf[0], 2, "torn record ignored");
    }

    /// End-to-end crash durability for the concurrent writer: a crash
    /// that loses the OS write cache keeps every group-committed batch
    /// (fsynced) and loses unsynced appends none-or-all; replaying the
    /// surviving log over the last checkpoint image reproduces exactly
    /// the committed operations.
    #[test]
    fn group_committed_batches_survive_crash_and_replay() {
        use crate::ConcurrentDiskRTree;
        use rtree_buffer::LruPolicy;
        use rtree_wal::{GroupWal, MemLog, StagedLog};

        let rect_of = |id: u64| {
            let x = (id as f64 * 0.137) % 0.9;
            Rect::new(x, x, x + 0.005, x + 0.005)
        };

        // The durable medium: bytes reach `durable` only on sync, so its
        // contents after a crash are exactly what an fsynced disk keeps.
        let durable = MemLog::new();
        let store = MemStore::new();
        let tree = ConcurrentDiskRTree::create_writable(
            store,
            8,
            3,
            16,
            LruPolicy::new(),
            GroupWal::open(StagedLog::new(durable.clone())).unwrap(),
        )
        .unwrap();
        for id in 0..60u64 {
            tree.insert(&rect_of(id), id).unwrap();
        }
        for id in (0..60u64).step_by(4) {
            assert!(tree.delete(&rect_of(id), id).unwrap());
        }
        tree.checkpoint().unwrap();
        let image_at_checkpoint = tree.store().snapshot();

        // Post-checkpoint window: committed ops live only in the WAL (the
        // overlay never reaches the store before the next checkpoint).
        for id in 100..130u64 {
            tree.insert(&rect_of(id), id).unwrap();
        }
        assert!(tree.delete(&rect_of(100), 100).unwrap());

        // Crash: drop the tree; the durable log image is what survives.
        drop(tree);
        let survived = durable.read_all().unwrap();

        let store = MemStore::from_bytes(image_at_checkpoint);
        recover(&store, &survived).unwrap();
        let recovered = ConcurrentDiskRTree::open_writable(
            store,
            16,
            LruPolicy::new(),
            GroupWal::open(MemLog::new()).unwrap(),
        )
        .unwrap();
        let summary = replay_committed(&survived, &recovered).unwrap();
        assert_eq!(summary.applied_inserts, 30);
        assert_eq!(summary.applied_deletes, 1);
        assert!(summary.clean_log);
        assert!(summary.last_commit.is_some());

        let mut got = recovered.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();
        got.sort_unstable();
        let mut want: Vec<u64> = (0..60).filter(|id| id % 4 != 0).collect();
        want.extend(101..130);
        assert_eq!(got, want, "checkpoint image + committed redo = exact state");
        assert_eq!(recovered.live_items(), want.len() as u64);
    }

    /// An empty or checkpoint-only log replays nothing.
    #[test]
    fn replay_with_no_committed_ops_is_a_no_op() {
        use crate::ConcurrentDiskRTree;
        use rtree_buffer::LruPolicy;
        use rtree_wal::{GroupWal, MemLog};

        let tree = ConcurrentDiskRTree::create_writable(
            MemStore::new(),
            8,
            3,
            8,
            LruPolicy::new(),
            GroupWal::open(MemLog::new()).unwrap(),
        )
        .unwrap();
        let summary = replay_committed(&[], &tree).unwrap();
        assert_eq!(
            summary,
            ReplaySummary {
                clean_log: true,
                ..Default::default()
            }
        );
        assert_eq!(tree.live_items(), 0);
    }
}
