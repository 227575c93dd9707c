//! The execution back-ends a [`crate::MicroBatcher`] drives.
//!
//! A [`QueryEngine`] takes a closed micro-batch of query rectangles and
//! returns one result vector per query; the scheduler never sees pages,
//! buffers, or locks. Two implementations, one per tree flavor:
//!
//! * [`SequentialEngine`] — one `DiskRTree` behind a mutex, executed with
//!   [`BatchExecutor`] so the batch's page-level dedup and readahead
//!   engage (the lever ISSUE 6 is built to demonstrate).
//! * [`WriterEngine`] — a `ConcurrentDiskRTree`, read-only or writable:
//!   queries run with `query_batch` across its shards, and [`WriteOp`]
//!   batches fan out over threads so their latch-crabbing inserts overlap
//!   and their WAL commits coalesce into group-commit batches.

use rtree_exec::{BatchConfig, BatchExecutor};
use rtree_geom::Rect;
use rtree_pager::{ConcurrentDiskRTree, ConcurrentPageStore, DiskRTree, IoStats, PageStore};
use std::io;
use std::sync::Mutex;

/// One mutation, as it travels from the wire through the scheduler to a
/// write-capable engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WriteOp {
    /// Insert `(rect, id)`.
    Insert(Rect, u64),
    /// Delete the entry matching `(rect, id)` exactly.
    Delete(Rect, u64),
}

/// Cumulative write-side counters of an engine. All zero for read-only
/// engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Applied logical writes (inserts plus deletes that found their
    /// entry).
    pub writes: u64,
    /// WAL fsyncs issued.
    pub wal_fsyncs: u64,
    /// Group-commit batches flushed.
    pub commit_batches: u64,
}

/// A batch execution back-end for the scheduler.
///
/// `execute` must return exactly one `Vec<u64>` per input rectangle, in
/// input order — the batcher demultiplexes results back to waiting
/// connections by position. `execute_writes` follows the same positional
/// contract for mutations; engines that cannot write keep the default
/// (one `Unsupported` error per op), so read-only servers answer write
/// requests with a typed error instead of wedging the connection.
pub trait QueryEngine: Send + Sync + 'static {
    /// Executes a closed batch, returning matching ids per query.
    fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>>;

    /// Cumulative physical I/O counters of the underlying tree.
    fn io_stats(&self) -> IoStats;

    /// Applies a closed batch of mutations, one durably committed result
    /// per op in input order (`true` = applied, `false` = delete found no
    /// entry).
    fn execute_writes(&self, ops: &[WriteOp]) -> Vec<io::Result<bool>> {
        ops.iter()
            .map(|_| {
                Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "this engine is read-only",
                ))
            })
            .collect()
    }

    /// Cumulative write counters (defaults to all-zero for read-only
    /// engines).
    fn write_stats(&self) -> WriteStats {
        WriteStats::default()
    }
}

/// One `DiskRTree` behind a mutex, batches executed via [`BatchExecutor`].
///
/// Queries inside a batch share the executor's page-request dedup and
/// level-ordered readahead, so k concurrent clients cost fewer demand
/// reads than k sequential queries — the serving-side analogue of the
/// paper's buffering result.
pub struct SequentialEngine<S: PageStore + Send + 'static> {
    tree: Mutex<DiskRTree<S>>,
    executor: BatchExecutor,
}

impl<S: PageStore + Send + 'static> SequentialEngine<S> {
    /// Wraps `tree`, executing batches with `prefetch_window` pages of
    /// readahead (0 disables readahead but keeps dedup).
    pub fn new(tree: DiskRTree<S>, prefetch_window: usize) -> Self {
        SequentialEngine {
            tree: Mutex::new(tree),
            executor: BatchExecutor::with_config(BatchConfig { prefetch_window }),
        }
    }

    /// Runs `f` with the locked tree — for setup (pinning, trace sinks)
    /// and test assertions, not the serving path.
    pub fn with_tree<R>(&self, f: impl FnOnce(&mut DiskRTree<S>) -> R) -> R {
        let mut tree = self
            .tree
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut tree)
    }
}

impl<S: PageStore + Send + 'static> QueryEngine for SequentialEngine<S> {
    fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
        let mut tree = self
            .tree
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Ok(self.executor.execute(&mut tree, queries)?.results)
    }

    fn io_stats(&self) -> IoStats {
        self.tree
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .io_stats()
    }
}

/// A `ConcurrentDiskRTree` serving reads and — when it was opened through
/// a writable constructor — writes.
///
/// Query batches fan out over `threads` workers with `query_batch`. Write
/// batches fan out over up to `write_threads` scoped threads, one op per
/// thread at a time: each insert/delete crabs its own latch path and then
/// joins the WAL's group commit, so a batch of k writes typically costs
/// one fsync instead of k. With `group_commit` disabled the ops run one at
/// a time — every commit is a batch of one, the per-op-fsync baseline the
/// `server_throughput` experiment compares against. On a read-only tree
/// every write op answers a typed `PermissionDenied`.
pub struct WriterEngine<S: ConcurrentPageStore + Send + 'static> {
    tree: ConcurrentDiskRTree<S>,
    threads: usize,
    write_threads: usize,
    group_commit: bool,
}

impl<S: ConcurrentPageStore + Send + 'static> WriterEngine<S> {
    /// Wraps `tree`. Queries fan out over `threads`; write batches over
    /// `write_threads` when `group_commit` is on, serially when it is off.
    pub fn new(
        tree: ConcurrentDiskRTree<S>,
        threads: usize,
        write_threads: usize,
        group_commit: bool,
    ) -> Self {
        WriterEngine {
            tree,
            threads: threads.max(1),
            write_threads: write_threads.max(1),
            group_commit,
        }
    }

    /// The wrapped tree, for setup and assertions.
    pub fn tree(&self) -> &ConcurrentDiskRTree<S> {
        &self.tree
    }

    fn apply(&self, op: &WriteOp) -> io::Result<bool> {
        match op {
            WriteOp::Insert(r, item) => self.tree.insert(r, *item).map(|()| true),
            WriteOp::Delete(r, item) => self.tree.delete(r, *item),
        }
    }
}

impl<S: ConcurrentPageStore + Send + 'static> QueryEngine for WriterEngine<S> {
    fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
        self.tree.query_batch(queries, self.threads)
    }

    fn io_stats(&self) -> IoStats {
        self.tree.io_stats()
    }

    fn execute_writes(&self, ops: &[WriteOp]) -> Vec<io::Result<bool>> {
        if !self.group_commit || ops.len() == 1 {
            // Serial application: no two commits overlap, so every op
            // leads its own batch and pays its own fsync.
            return ops.iter().map(|op| self.apply(op)).collect();
        }
        // Overlap the ops so their commits coalesce: the first to reach
        // the WAL becomes the batch leader and fsyncs for the rest.
        let chunk = ops.len().div_ceil(self.write_threads);
        std::thread::scope(|scope| {
            let workers: Vec<_> = ops
                .chunks(chunk)
                .map(|slice| {
                    scope.spawn(move || slice.iter().map(|op| self.apply(op)).collect::<Vec<_>>())
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("write worker panicked"))
                .collect()
        })
    }

    fn write_stats(&self) -> WriteStats {
        let g = self.tree.group_commit_stats().unwrap_or_default();
        WriteStats {
            writes: self.tree.logical_writes(),
            wal_fsyncs: g.fsyncs,
            commit_batches: g.commit_batches,
        }
    }
}
