//! Crash recovery: replays a write-ahead log against a page store.
//!
//! The protocol is the classical physical redo/undo over full page images
//! (see `rtree_wal::plan_recovery`): scan the surviving log bytes
//! tail-tolerantly, redo every committed after-image past the last
//! checkpoint in LSN order, then undo uncommitted before-images in reverse
//! order. Because every buffered write logs its images *before* the store
//! can be touched (the WAL rule enforced by [`crate::BufferManager`]), the
//! store after a crash is always a mix of old and logged states — so
//! rewriting full images lands it exactly on the last committed state, even
//! when the crash tore a page write in half.

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
    /// LSN of the last commit found in the log, if any.
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
pub fn recover<S: PageStore>(store: &mut S, log_bytes: &[u8]) -> io::Result<RecoveryReport> {
    let scan = rtree_wal::scan(log_bytes);
    let plan = rtree_wal::plan_recovery(&scan.records);
    for (page_id, image) in &plan.writes {
        debug_assert_eq!(image.len(), PAGE_SIZE);
        while store.page_count() <= *page_id {
            store.allocate()?;
        }
        store.write_page(PageId(*page_id), image)?;
    }
    store.flush()?;
    Ok(RecoveryReport {
        pages_redone: plan.redone,
        pages_undone: plan.undone,
        last_commit: plan.last_commit,
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

/// Logical redo for the concurrent writer: replays the *committed* suffix
/// of a group-commit WAL onto a freshly opened writable tree.
///
/// The writer is no-steal, so the page store always holds exactly the last
/// checkpoint image; everything after it lives only as `OpInsert`/`OpDelete`
/// records. Replay applies, in log order, every op record that (a) follows
/// the last `Checkpoint` (earlier ops are already inside the image) and
/// (b) is covered by a `Commit` — a batch whose leader never fsynced loses
/// all of its ops together, never a prefix (the none-or-all guarantee the
/// WAL crash tests pin down).
///
/// Replay is idempotent — a checkpoint that died between flushing its image
/// and truncating the log leaves ops the image already holds — so an insert
/// whose exact `(rect, item)` is present is skipped and not counted.
///
/// The target tree logs the replayed ops into its own WAL as a side effect,
/// which keeps them durable going forward; checkpoint afterwards to start
/// from a clean log.
pub fn replay_committed<S: crate::ConcurrentPageStore>(
    log_bytes: &[u8],
    tree: &crate::ConcurrentDiskRTree<S>,
) -> io::Result<ReplaySummary> {
    let scan = rtree_wal::scan(log_bytes);
    let mut last_commit = None;
    let mut checkpoint_at = None;
    for (i, record) in scan.records.iter().enumerate() {
        match record {
            WalRecord::Commit { lsn } => last_commit = Some(*lsn),
            WalRecord::Checkpoint { lsn } => {
                last_commit = Some(*lsn);
                checkpoint_at = Some(i);
            }
            _ => {}
        }
    }
    let mut summary = ReplaySummary {
        last_commit,
        clean_log: scan.clean,
        ..ReplaySummary::default()
    };
    let Some(horizon) = last_commit else {
        return Ok(summary);
    };
    let start = checkpoint_at.map_or(0, |i| i + 1);
    for record in &scan.records[start..] {
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
    use crate::{BufferManager, MemStore};
    use rtree_buffer::LruPolicy;
    use rtree_wal::{LogBackend, MemLog, Wal};

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
        let mut m = BufferManager::new(store_with_pages(3), 8, LruPolicy::new());
        m.attach_wal(Wal::open(log.clone()).unwrap());
        m.write_buffered(PageId(1), &page(0xAA)).unwrap();
        m.commit().unwrap();
        // Crash before any write-back: the store still has the old image.
        let mut store = store_with_pages(3);
        let report = recover(&mut store, &log.read_all().unwrap()).unwrap();
        assert_eq!(report.pages_redone, 1);
        assert_eq!(report.pages_undone, 0);
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[0], 0xAA);
    }

    #[test]
    fn uncommitted_writes_are_undone() {
        let log = MemLog::new();
        let mut m = BufferManager::new(store_with_pages(3), 2, LruPolicy::new());
        m.attach_wal(Wal::open(log.clone()).unwrap());
        m.write_buffered(PageId(1), &page(0xAA)).unwrap();
        m.commit().unwrap();
        // Second op: logged, partially written back (eviction), never
        // committed.
        m.write_buffered(PageId(2), &page(0xBB)).unwrap();
        m.flush_all().unwrap();
        let mut store = std::mem::replace(m.store_mut(), MemStore::new());
        let report = recover(&mut store, &log.read_all().unwrap()).unwrap();
        assert_eq!(report.pages_redone, 1);
        assert_eq!(report.pages_undone, 1);
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(2), &mut buf).unwrap();
        assert_eq!(buf[0], 2, "uncommitted write rolled back");
        store.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[0], 0xAA, "committed write preserved");
    }

    #[test]
    fn missing_pages_are_allocated() {
        let log = MemLog::new();
        let mut wal = Wal::open(log.clone()).unwrap();
        wal.log_page_image(5, &page(0), &page(0x5A)).unwrap();
        wal.log_commit().unwrap();
        let mut store = store_with_pages(2);
        recover(&mut store, &log.read_all().unwrap()).unwrap();
        assert_eq!(store.page_count(), 6);
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(5), &mut buf).unwrap();
        assert_eq!(buf[0], 0x5A);
    }

    #[test]
    fn torn_log_tail_is_tolerated() {
        let log = MemLog::new();
        let mut wal = Wal::open(log.clone()).unwrap();
        wal.log_page_image(1, &page(1), &page(0xAA)).unwrap();
        wal.log_commit().unwrap();
        wal.log_page_image(2, &page(2), &page(0xBB)).unwrap();
        wal.sync().unwrap();
        let mut bytes = log.read_all().unwrap();
        bytes.truncate(bytes.len() - 7); // tear the last record
        let mut store = store_with_pages(3);
        let report = recover(&mut store, &bytes).unwrap();
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

        let recovered = ConcurrentDiskRTree::open_writable(
            MemStore::from_bytes(image_at_checkpoint),
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
