//! Group commit: many writers, one fsync.
//!
//! [`GroupWal`] is the workspace's one log front-end, shared and
//! thread-safe. It carries both record families (see the crate docs): the
//! writer's *logical* op records ([`crate::WalRecord::OpInsert`] /
//! [`crate::WalRecord::OpDelete`]) and a checkpoint's *physical* page
//! images ([`crate::WalRecord::PageImage`]), under one LSN sequence and one
//! commit, flush and poison protocol. Writers stage their records and
//! then call [`GroupWal::commit`]. Staging lands in an in-memory **log
//! buffer** under a short critical section; the durability barrier runs
//! with that mutex *released*, so new appends keep flowing while the leader
//! syncs — that overlap is the whole amortization:
//!
//! ```text
//!   writer A ── stage op ──┐
//!   writer B ── stage op ──┼─▶ state lock ─▶ first committer whose lsn is
//!   writer C ── stage op ──┘    not yet durable and finds no sync running
//!                               becomes the LEADER:
//!                                 stage Commit(lsn = next), take the buffer,
//!                                 mark syncing, RELEASE the state lock,
//!                                 backend.append(buffer) + sync()  ← ONE fsync
//!                                 (writers D, E… stage ops meanwhile)
//!                                 retake lock: durable_lsn = commit lsn,
//!                                 notify waiters
//!                               committers who find a sync in flight wait on
//!                               the condvar; on wake-up either their lsn is
//!                               covered (follower: return) or one of them
//!                               leads the next batch — which covers every op
//!                               staged during the previous sync
//! ```
//!
//! The state machine per commit attempt is `Pending → (Leader | Follower) →
//! Durable`: a caller whose lsn is already covered returns immediately
//! (follower); otherwise it leads one batch covering *every* record staged
//! so far — its own and all concurrently appended ops — with a single
//! durability barrier for the whole batch. [`GroupWal::flush`] runs the
//! same barrier without a `Commit`: the checkpoint's rule that a page's
//! images are durable before the page overwrites the store.
//!
//! Crash semantics of the buffer: staged-but-unflushed records live only in
//! memory, exactly like appended-but-unsynced bytes in a volatile file
//! cache — a crash loses none-or-all of a batch either way, and nothing is
//! acknowledged durable before its covering commit's fsync returns. A
//! failed `append`, `sync` or `truncate` poisons the log (after a failed
//! fsync the kernel may have dropped the very pages it was to write): the
//! flushing call returns the backend's error, and every later call returns
//! [`LogPoisoned`] until the log is reopened and recovered.
//!
//! Checkpoint ordering is correct by construction: [`GroupWal::checkpoint`]
//! excludes concurrent syncs via the same leader token, first commits any
//! staged-but-uncovered ops (one `Commit` ahead of the `Checkpoint` record),
//! and only truncates after its own sync — so truncation never discards an
//! un-fsynced append.

use crate::{LogBackend, Lsn, WalRecord};
use std::fmt;
use std::io;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Cumulative counters of the group-commit protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Durability barriers issued (the denominator group commit shrinks).
    pub fsyncs: u64,
    /// Commit batches led (each one `Commit` record + one fsync).
    pub commit_batches: u64,
    /// Op records covered by a durable commit.
    pub committed_ops: u64,
    /// Largest number of ops a single commit batch covered.
    pub max_batch: u64,
    /// Bytes flushed to the backend, across checkpoint truncations.
    pub bytes: u64,
}

/// The error every call on a [`GroupWal`] returns after a flush failed;
/// reopen the log to go on (see the module docs).
#[derive(Debug)]
pub struct LogPoisoned;

impl fmt::Display for LogPoisoned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("the WAL is poisoned by an earlier failed flush; reopen it")
    }
}

impl std::error::Error for LogPoisoned {}

struct GroupState {
    /// The log buffer: records staged but not yet flushed to the backend.
    /// Appends land here so a running sync never blocks them.
    staged: Vec<u8>,
    next_lsn: Lsn,
    /// Highest lsn covered by a durable commit or checkpoint.
    durable_lsn: Lsn,
    /// Op records staged or flushed after the last durable commit.
    pending_ops: u64,
    /// A leader is flushing + syncing with the state lock released.
    syncing: bool,
    /// A flush failed; nothing more is staged or flushed.
    poisoned: bool,
    stats: GroupCommitStats,
}

struct WalInner {
    state: Mutex<GroupState>,
    /// Signalled when a sync finishes (leader handoff).
    synced: Condvar,
    /// Held only while flushing the buffer and syncing; ordered after
    /// `state` (a thread never takes `state` while holding `backend`).
    backend: Mutex<Box<dyn LogBackend>>,
    /// Microseconds a leader holds the leader token before draining the
    /// buffer, so a burst of near-simultaneous writers lands in one batch
    /// (the `commit_delay` knob of classical group commit). Zero — the
    /// default — drains immediately.
    commit_delay_us: AtomicU64,
}

/// A shared group-commit WAL; cloning shares the log. See the module docs
/// for the protocol.
#[derive(Clone)]
pub struct GroupWal {
    inner: Arc<WalInner>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl GroupState {
    fn check_poisoned(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(LogPoisoned));
        }
        Ok(())
    }

    /// Stages the record `make` builds at the next LSN; returns that LSN.
    fn push(&mut self, make: impl FnOnce(Lsn) -> WalRecord) -> Lsn {
        let lsn = self.next_lsn;
        self.staged.extend_from_slice(&make(lsn).encode());
        self.next_lsn += 1;
        lsn
    }

    /// Counts one durable `Commit` record covering `covered` op records.
    fn count_commit(&mut self, covered: u64) {
        self.stats.commit_batches += 1;
        self.stats.committed_ops += covered;
        self.stats.max_batch = self.stats.max_batch.max(covered);
    }
}

impl GroupWal {
    /// Opens a group-commit WAL over `backend`, resuming the LSN sequence
    /// after the records already in the log.
    ///
    /// # Errors
    /// `InvalidData` if the existing log ends in a torn or corrupt tail:
    /// records appended behind it would be lost to every later scan.
    /// Replay what the log holds and reopen over a truncated or fresh one.
    pub fn open(backend: impl LogBackend + 'static) -> io::Result<Self> {
        let next_lsn = crate::resume_lsn(&backend.read_all()?)?;
        Ok(GroupWal {
            inner: Arc::new(WalInner {
                state: Mutex::new(GroupState {
                    staged: Vec::new(),
                    next_lsn,
                    durable_lsn: next_lsn - 1,
                    pending_ops: 0,
                    syncing: false,
                    poisoned: false,
                    stats: GroupCommitStats::default(),
                }),
                synced: Condvar::new(),
                backend: Mutex::new(Box::new(backend)),
                commit_delay_us: AtomicU64::new(0),
            }),
        })
    }

    /// Sets how long a commit leader waits before closing its batch,
    /// giving a burst of concurrent writers time to stage into one fsync.
    /// Zero (the default) closes immediately. Only [`GroupWal::commit`]
    /// leaders wait; `checkpoint` never does.
    pub fn set_commit_delay(&self, delay: Duration) {
        self.inner
            .commit_delay_us
            .store(delay.as_micros() as u64, Ordering::Relaxed);
    }

    /// Appends a logical insert record (not yet durable) and returns its LSN.
    pub fn log_insert(&self, rect: [f64; 4], item: u64) -> io::Result<Lsn> {
        self.log_op(|lsn| WalRecord::OpInsert { lsn, rect, item })
    }

    /// Appends a logical delete record (not yet durable) and returns its LSN.
    pub fn log_delete(&self, rect: [f64; 4], item: u64) -> io::Result<Lsn> {
        self.log_op(|lsn| WalRecord::OpDelete { lsn, rect, item })
    }

    fn log_op(&self, make: impl FnOnce(Lsn) -> WalRecord) -> io::Result<Lsn> {
        let mut s = lock(&self.inner.state);
        s.check_poisoned()?;
        s.pending_ops += 1;
        Ok(s.push(make))
    }

    /// Appends a physical page-image record (not yet durable) and returns
    /// its LSN. A commit covers it but does not count it: it is part of an
    /// operation, not one.
    pub fn log_page_image(&self, page_id: u64, before: &[u8], after: &[u8]) -> io::Result<Lsn> {
        let mut s = lock(&self.inner.state);
        s.check_poisoned()?;
        Ok(s.push(|lsn| WalRecord::PageImage {
            lsn,
            page_id,
            before: before.to_vec(),
            after: after.to_vec(),
        }))
    }

    /// Blocks until no sync is in flight, then returns the guard. The
    /// caller holds the leader token once it sets `syncing`.
    fn wait_not_syncing(&self) -> io::Result<MutexGuard<'_, GroupState>> {
        let mut s = lock(&self.inner.state);
        while s.syncing {
            s = self
                .inner
                .synced
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
        s.check_poisoned()?;
        Ok(s)
    }

    /// Makes the record at `lsn` durable, returning the number of op records
    /// in the batch this call led (appended the `Commit` record, performed
    /// the fsync): 0 when a concurrent leader already covered `lsn`, or
    /// when the batch held page images only.
    pub fn commit(&self, lsn: Lsn) -> io::Result<u64> {
        let mut s = lock(&self.inner.state);
        loop {
            if s.durable_lsn >= lsn {
                return Ok(0);
            }
            s.check_poisoned()?;
            if !s.syncing {
                break;
            }
            // A leader is syncing with the lock released. Our op is staged,
            // but its covering commit may be the NEXT batch — wait for the
            // handoff instead of queueing a second sync.
            s = self
                .inner
                .synced
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.lead(s)
    }

    /// Leads one commit batch: stages the `Commit` record and flushes the
    /// buffer with the state lock released, so concurrent appends keep
    /// staging. Called with the state lock held and no sync in flight. The
    /// leader first holds the token for the configured commit delay (lock
    /// released) so the rest of a write burst stages before the batch
    /// closes. Returns the batch size.
    fn lead<'a>(&'a self, mut s: MutexGuard<'a, GroupState>) -> io::Result<u64> {
        s.syncing = true;
        let us = self.inner.commit_delay_us.load(Ordering::Relaxed);
        if us > 0 {
            drop(s);
            std::thread::sleep(Duration::from_micros(us));
            s = lock(&self.inner.state);
        }
        let commit_lsn = s.push(|lsn| WalRecord::Commit { lsn });
        let covered = mem::take(&mut s.pending_ops);
        self.write_out(s, false, |s| {
            s.durable_lsn = commit_lsn;
            s.count_commit(covered);
        })?;
        Ok(covered)
    }

    /// Makes every staged record durable (one append, one sync) without a
    /// `Commit`: the records stay uncommitted and `durable_lsn` does not
    /// move. A checkpoint calls this before its first page may overwrite
    /// the store. A failure poisons the log, as a failed commit does.
    pub fn flush(&self) -> io::Result<()> {
        let s = self.wait_not_syncing()?;
        if s.staged.is_empty() {
            return Ok(());
        }
        self.write_out(s, false, |_| {})
    }

    /// The one flush path. Called with the state lock held and no sync in
    /// flight: takes the leader token (`syncing`) and the staged buffer,
    /// then with the state lock released appends it, syncs, and for a
    /// checkpoint truncates. Success counts the fsync and the bytes, and
    /// runs `done` under the state lock; failure poisons the log. Either way the token is
    /// handed back and every waiter woken, so after an error each of them
    /// finds the log poisoned.
    fn write_out<'a>(
        &'a self,
        mut s: MutexGuard<'a, GroupState>,
        truncate: bool,
        done: impl FnOnce(&mut GroupState),
    ) -> io::Result<()> {
        s.syncing = true;
        let bytes = mem::take(&mut s.staged);
        drop(s);
        let flushed = {
            let mut b = lock(&self.inner.backend);
            let synced = b.append(&bytes).and_then(|()| b.sync());
            if truncate {
                synced.and_then(|()| b.truncate())
            } else {
                synced
            }
        };
        let mut s = lock(&self.inner.state);
        s.syncing = false;
        s.poisoned = flushed.is_err();
        if flushed.is_ok() {
            s.stats.fsyncs += 1;
            s.stats.bytes += bytes.len() as u64;
            done(&mut s);
        }
        drop(s);
        self.inner.synced.notify_all();
        flushed
    }

    /// Commits any staged appends, writes a checkpoint record, syncs, and
    /// truncates the log. The caller must have flushed all dirty pages to
    /// the page store first (the record is an assertion, not an action).
    ///
    /// Holds the leader token for the whole flush-sync-truncate sequence,
    /// so no commit can interleave and appended-but-unsynced ops are
    /// committed (not truncated away). Ops staged by concurrent writers
    /// *during* the truncation stay in the buffer and flush later, after
    /// it — their LSNs are beyond the checkpoint's.
    pub fn checkpoint(&self) -> io::Result<()> {
        let mut s = self.wait_not_syncing()?;
        let covered = mem::take(&mut s.pending_ops);
        if covered > 0 {
            s.push(|lsn| WalRecord::Commit { lsn });
        }
        let ck_lsn = s.push(|lsn| WalRecord::Checkpoint { lsn });
        self.write_out(s, true, |s| {
            s.durable_lsn = ck_lsn;
            if covered > 0 {
                s.count_commit(covered);
            }
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GroupCommitStats {
        lock(&self.inner.state).stats
    }

    /// The LSN the next record will get.
    pub fn next_lsn(&self) -> Lsn {
        lock(&self.inner.state).next_lsn
    }

    /// Highest lsn covered by a durable commit or checkpoint.
    pub fn durable_lsn(&self) -> Lsn {
        lock(&self.inner.state).durable_lsn
    }

    /// Reads the entire flushed log image (for recovery and tests).
    /// Staged-but-unflushed records are volatile by design and excluded —
    /// this is exactly the image a post-crash recovery would see.
    pub fn read_all(&self) -> io::Result<Vec<u8>> {
        lock(&self.inner.backend).read_all()
    }

    /// Bytes currently in the log: flushed image plus the staged buffer.
    pub fn len(&self) -> u64 {
        // Lock order: state before backend, as everywhere.
        let s = lock(&self.inner.state);
        let staged = s.staged.len() as u64;
        drop(s);
        lock(&self.inner.backend).len() + staged
    }

    /// True when the log holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan, CrashSwitch, FaultLog, MemLog, StagedLog};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    fn rect(i: u64) -> [f64; 4] {
        let x = i as f64 / 100.0;
        [x, x, x + 0.01, x + 0.01]
    }

    #[test]
    fn single_writer_commits_and_replays() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        let a = wal.log_insert(rect(1), 1).unwrap();
        let b = wal.log_insert(rect(2), 2).unwrap();
        assert_eq!(wal.commit(b).unwrap(), 2, "first committer leads both");
        assert_eq!(wal.commit(a).unwrap(), 0, "already durable: follower");
        let records = scan(&log.read_all().unwrap()).records;
        assert_eq!(records.len(), 3);
        assert!(matches!(records[2], WalRecord::Commit { lsn: 3 }));
        let s = wal.stats();
        assert_eq!((s.fsyncs, s.commit_batches, s.committed_ops), (1, 1, 2));
    }

    #[test]
    fn concurrent_writers_share_fsyncs() {
        // 8 writers × 16 ops each with a real handoff window: the leader
        // count must be strictly less than the op count (batching happened)
        // and every op must end durable.
        let wal = GroupWal::open(MemLog::new()).unwrap();
        let (led, covered) = (AtomicU64::new(0), AtomicU64::new(0));
        thread::scope(|scope| {
            for t in 0..8u64 {
                let wal = wal.clone();
                let (led, covered) = (&led, &covered);
                scope.spawn(move || {
                    for i in 0..16u64 {
                        let lsn = wal.log_insert(rect(t * 16 + i), t * 16 + i).unwrap();
                        let batch = wal.commit(lsn).unwrap();
                        led.fetch_add(u64::from(batch > 0), Ordering::Relaxed);
                        covered.fetch_add(batch, Ordering::Relaxed);
                    }
                });
            }
        });
        let s = wal.stats();
        assert_eq!(s.committed_ops, 128, "every op covered by a commit");
        assert_eq!(
            covered.load(Ordering::Relaxed),
            s.committed_ops,
            "each leader reports exactly its own batch"
        );
        assert_eq!(s.commit_batches, led.load(Ordering::Relaxed));
        assert_eq!(s.fsyncs, s.commit_batches);
        assert!(s.fsyncs <= 128);
        let records = scan(&wal.read_all().unwrap()).records;
        let last_commit = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { lsn } => Some(*lsn),
                _ => None,
            })
            .next_back()
            .unwrap();
        for r in &records {
            if matches!(r, WalRecord::OpInsert { .. }) {
                assert!(r.lsn() <= last_commit, "every op durably committed");
            }
        }
    }

    #[test]
    fn commit_delay_coalesces_a_burst_into_few_fsyncs() {
        // 8 writers fire at once; the leader holds the batch open for far
        // longer than the spawn stagger, so the burst must land in a
        // handful of fsyncs rather than one each.
        let wal = GroupWal::open(MemLog::new()).unwrap();
        wal.set_commit_delay(std::time::Duration::from_millis(25));
        thread::scope(|scope| {
            for t in 0..8u64 {
                let wal = wal.clone();
                scope.spawn(move || {
                    let lsn = wal.log_insert(rect(t), t).unwrap();
                    wal.commit(lsn).unwrap();
                });
            }
        });
        let s = wal.stats();
        assert_eq!(s.committed_ops, 8, "every op durable");
        assert!(s.fsyncs <= 4, "burst coalesced, got {} fsyncs", s.fsyncs);
        assert!(s.max_batch >= 2, "at least one real batch formed");
    }

    #[test]
    fn open_refuses_a_torn_log_instead_of_appending_behind_it() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        let lsn = wal.log_insert(rect(1), 1).unwrap();
        wal.commit(lsn).unwrap();
        let valid = log.len();
        let mut torn = log.clone();
        torn.append(&[0xAB; 5]).unwrap();
        // Opening here and committing item 2 would acknowledge a write no
        // scan, replay or recovery can ever reach.
        let Err(err) = GroupWal::open(log.clone()) else {
            panic!("opened over a torn tail");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&format!("valid_len {valid}")));
        let scanned = scan(&log.read_all().unwrap());
        assert_eq!((scanned.records.len(), scanned.clean), (2, false));
    }

    #[test]
    fn crash_between_append_and_sync_loses_none_or_all_of_a_batch() {
        // Satellite: the batch appended through a StagedLog is atomic with
        // respect to a crash before the leader's sync — recovery sees none
        // of it; after the sync it sees all of it.
        let durable = MemLog::new();
        let wal = GroupWal::open(StagedLog::new(durable.clone())).unwrap();
        let l1 = wal.log_insert(rect(1), 1).unwrap();
        let l2 = wal.log_insert(rect(2), 2).unwrap();
        wal.commit(l2).unwrap();
        // Batch 2: appended, never synced.
        wal.log_insert(rect(3), 3).unwrap();
        wal.log_insert(rect(4), 4).unwrap();
        // Crash: the staged (unsynced) bytes vanish; the durable image holds
        // exactly batch 1 and its commit.
        let records = scan(&durable.read_all().unwrap()).records;
        assert_eq!(records.len(), 3, "ops 1,2 + commit — none of batch 2");
        assert!(records
            .iter()
            .all(|r| !matches!(r, WalRecord::OpInsert { item: 3 | 4, .. })));
        assert!(matches!(records[2], WalRecord::Commit { .. }));
        let _ = l1;
    }

    #[test]
    fn a_failed_sync_poisons_the_log_instead_of_writing_the_batch_twice() {
        let log = MemLog::new();
        let backend = FaultLog::new(log.clone(), CrashSwitch::new()).fail_sync_at(1);
        let wal = GroupWal::open(backend).unwrap();
        let lsn = wal.log_insert(rect(7), 7).unwrap();
        let first = wal.commit(lsn).unwrap_err();
        assert!(first.to_string().contains("injected"), "{first}");

        // Retrying would append the failed batch a second time and make
        // durable the write whose caller was told it failed.
        let poisoned = |r: io::Result<()>| {
            let e = r.expect_err("the log must stay poisoned");
            assert!(e.get_ref().is_some_and(|e| e.is::<LogPoisoned>()), "{e}");
        };
        poisoned(wal.log_insert(rect(8), 8).map(drop));
        poisoned(wal.log_page_image(1, &[0; 8], &[1; 8]).map(drop));
        poisoned(wal.commit(lsn).map(drop));
        poisoned(wal.flush());
        poisoned(wal.checkpoint());

        // The log holds the failed batch once, in strictly rising LSNs.
        let lsns: Vec<Lsn> = scan(&log.read_all().unwrap())
            .records
            .iter()
            .map(WalRecord::lsn)
            .collect();
        assert_eq!(lsns, [1, 2]);
        assert_eq!(wal.stats(), GroupCommitStats::default());

        // Reopening replays what reached the device and resumes after it.
        let reopened = GroupWal::open(log).unwrap();
        let next = reopened.log_insert(rect(9), 9).unwrap();
        assert_eq!(next, 3);
        assert_eq!(reopened.commit(next).unwrap(), 1);
    }

    #[test]
    fn checkpoint_commits_pending_before_truncating() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        let lsn = wal.log_insert(rect(1), 1).unwrap();
        wal.commit(lsn).unwrap();
        wal.log_insert(rect(2), 2).unwrap(); // appended, uncommitted
        wal.checkpoint().unwrap();
        assert!(wal.is_empty(), "checkpoint truncated");
        let s = wal.stats();
        assert_eq!(s.committed_ops, 2, "the pending op was committed first");
        // New appends keep the LSN sequence monotonic.
        let next = wal.log_insert(rect(3), 3).unwrap();
        assert_eq!(next, wal.durable_lsn() + 1);
    }

    #[test]
    fn no_checkpoint_record_ever_splits_a_batch() {
        // Hammer commits from writer threads while a checkpointer runs
        // concurrently, against a StagedLog (so unsynced appends are
        // volatile). Invariant on the final durable image: scanning from the
        // start, every op record is covered by a Commit *before* any later
        // Checkpoint — i.e. a checkpoint never landed between a batch's
        // appends and its fsync.
        let durable = MemLog::new();
        let wal = GroupWal::open(StagedLog::new(durable.clone())).unwrap();
        thread::scope(|scope| {
            for t in 0..4u64 {
                let wal = wal.clone();
                scope.spawn(move || {
                    for i in 0..32u64 {
                        let id = t * 32 + i;
                        let lsn = wal.log_insert(rect(id), id).unwrap();
                        wal.commit(lsn).unwrap();
                    }
                });
            }
            let ck = wal.clone();
            scope.spawn(move || {
                for _ in 0..16 {
                    ck.checkpoint().unwrap();
                    thread::yield_now();
                }
            });
        });
        // After the threads join the log may hold a post-checkpoint tail;
        // scan whatever survived and check the covering invariant.
        let records = scan(&wal.read_all().unwrap()).records;
        let mut uncovered: Vec<Lsn> = Vec::new();
        for r in &records {
            match r {
                WalRecord::OpInsert { lsn, .. } | WalRecord::OpDelete { lsn, .. } => {
                    uncovered.push(*lsn);
                }
                WalRecord::Commit { lsn } => uncovered.retain(|op| op > lsn),
                WalRecord::Checkpoint { .. } => {
                    assert!(
                        uncovered.is_empty(),
                        "checkpoint record landed between a batch's appends and its commit"
                    );
                }
                WalRecord::PageImage { .. } => {}
            }
        }
    }
}
