//! Concurrent disk-backed query execution over a **sharded** buffer cache.
//!
//! A database serves many clients at once; this module provides a
//! shared-ownership [`ConcurrentDiskRTree`] that multiple threads can query
//! concurrently. The buffer is N *shards*: each [`PageId`] hashes to exactly
//! one shard, and each shard is the [`BufferManager`] the sequential tree
//! owns, with a slice of the capacity, behind its own short
//! [`parking_lot::Mutex`]. Threads querying disjoint subtrees therefore
//! touch disjoint latches and never contend; a fetch clones the frame's
//! `Arc<[u8]>` so decoding and geometry tests — the CPU-heavy part of a
//! query — run outside every lock, and the store itself is read through
//! [`SharedPageStore`] (`&self`), so even misses in different shards
//! proceed in parallel.
//!
//! Counters live inside the shards; [`ConcurrentDiskRTree::io_stats`] and
//! [`ConcurrentDiskRTree::buffer_stats`] sum them under the shard latches
//! (statistics requests and exit summaries read them, never an operation).
//!
//! # Accounting rules
//!
//! - A **physical read** (`IoStats::reads`) is any page transfer performed
//!   on behalf of a charged buffer-pool access: a miss fill, a bypass read
//!   against a fully pinned shard, or the one-time load of a pinned page.
//! - The **root peek** is *uncharged*, mirroring the model semantics where
//!   a node is accessed iff its MBR intersects the query. The peeked root
//!   frame is cached once per tree (only read-only trees peek, and their
//!   root never changes); if the root was not resident the transfer is
//!   surfaced in `IoStats::peek_reads` instead of being silently dropped.
//! - With `shards = 1` the access sequence seen by the pool is exactly the
//!   sequential [`crate::DiskRTree`] sequence, so single-threaded physical
//!   read counts reproduce the paper's numbers bit for bit.

use crate::disk_tree::{materialize, materialize_empty};
use crate::latch::{LatchSet, LatchTable, META_LATCH};
use crate::mutate::{insert_entry, remove_entry};
use crate::page::{decode_free_page, PageError};
use crate::seam::{PageRead, PageWrite};
use crate::store::{ConcurrentPageStore, SharedPageStore};
use crate::trace::{EventKind, Span, TreeTrace};
use crate::walk::{self, find_leaf, BatchOutput};
use crate::{BufferManager, IoStats, NodePage, PageMeta, PageStore, PageView, PAGE_SIZE};
use parking_lot::{Mutex, MutexGuard, RwLock};
use rtree_buffer::{BufferStats, PageId, ReplacementPolicy};
use rtree_geom::{Point, Rect};
use rtree_index::{Neighbor, RTree};
use rtree_wal::{GroupCommitStats, GroupWal, Lsn};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Fibonacci multiplier for the page → shard hash.
const HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shards' handle on the tree's one store. Reads take the `&self`
/// path; a shard never holds a dirty page (writers keep theirs in the
/// overlay), so nothing is written or allocated through it.
pub(crate) struct SharedReads<S>(Arc<S>);

impl<S: SharedPageStore> PageStore for SharedReads<S> {
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.0.read_page_shared(id, buf)
    }
    fn write_page(&mut self, _id: PageId, _buf: &[u8]) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }
    fn allocate(&mut self) -> io::Result<PageId> {
        Err(io::ErrorKind::Unsupported.into())
    }
    fn page_count(&self) -> u64 {
        self.0.page_count()
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One latch domain: the buffer cache over a slice of the capacity, to be
/// kept behind its own `Mutex`.
type Shard<S> = BufferManager<SharedReads<S>>;

/// A policy factory for the single-shard constructors: yields `policy` the
/// one time it is called.
fn once<P>(policy: P) -> impl FnMut() -> P {
    let mut policy = Some(policy);
    move || policy.take().expect("one shard takes the policy once")
}

/// Mutable-tree state attached by the writable constructors: everything a
/// latch-crabbing writer needs beyond the read path's shard pools.
///
/// The write path is **no-steal**: a dirty page lives in `overlay` (shadowing
/// both the shard pools and the store) and reaches the store only at a
/// [`ConcurrentDiskRTree::checkpoint`], by which point its operations are
/// group-committed in the WAL. Recovery is therefore logical redo only —
/// replay committed [`rtree_wal::WalRecord::OpInsert`]/`OpDelete` records on
/// top of the last checkpoint image (see [`crate::replay_committed`]).
struct WriterState {
    /// Per-page latches; see [`crate::latch`] for the deadlock-freedom
    /// argument (strict top-down acquisition).
    latches: LatchTable,
    /// Operation gate: crabbing inserts/deletes and queries hold it shared;
    /// checkpoints and the exclusive delete fallback hold it exclusively.
    op_gate: RwLock<()>,
    /// Live metadata (root, height, counters). The open-time snapshot in
    /// `ConcurrentDiskRTree::meta` is *not* updated by writes (its node
    /// capacities, minimum fill and page layouts never change).
    meta: Mutex<PageMeta>,
    /// Dirty-page overlay: page id → latest image. Checked before the shard
    /// pools on every writer-mode load.
    overlay: RwLock<HashMap<u64, Arc<[u8]>>>,
    /// Session-local free list of dissolved pages, seeded at open from the
    /// image's on-disk list (not persisted: a checkpointed meta page stores
    /// `free_head = 0`, so pages still free at the last checkpoint leak on
    /// reopen — a documented trade for keeping the on-disk free list out
    /// of the latch protocol).
    free: Mutex<Vec<u64>>,
    /// Group-commit write-ahead log (logical redo records).
    wal: GroupWal,
    /// Latch acquisitions that had to wait (contention signal).
    latch_waits: AtomicU64,
    /// Physical page writes (checkpoint flushes).
    page_writes: AtomicU64,
    /// Applied logical operations (inserts + deletes that found their entry).
    logical_writes: AtomicU64,
}

impl WriterState {
    fn new(meta: PageMeta, free: Vec<u64>, wal: GroupWal) -> Self {
        WriterState {
            latches: LatchTable::new(),
            op_gate: RwLock::new(()),
            meta: Mutex::new(meta),
            overlay: RwLock::new(HashMap::new()),
            free: Mutex::new(free),
            wal,
            latch_waits: AtomicU64::new(0),
            page_writes: AtomicU64::new(0),
            logical_writes: AtomicU64::new(0),
        }
    }
}

/// Resolves a shard-count request against the buffer capacity: `0` means
/// "one per hardware thread", everything is rounded to a power of two, and
/// the count never exceeds the capacity (each shard needs ≥ 1 frame).
fn resolve_shards(requested: usize, capacity: usize) -> usize {
    assert!(capacity > 0, "buffer capacity must be positive");
    let requested = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    requested.next_power_of_two().min(1 << capacity.ilog2())
}

/// A disk-backed R-tree that can be queried from many threads at once
/// (`&self` queries; wrap in an `Arc` to share).
///
/// [`ConcurrentDiskRTree::create`] / [`ConcurrentDiskRTree::open`] build a
/// **single-shard** tree whose replacement decisions and physical read
/// counts are exactly those of the sequential [`crate::DiskRTree`] — the
/// configuration every paper experiment uses. The `_sharded` constructors
/// split the capacity across N latch-disjoint shards for multi-threaded
/// throughput.
pub struct ConcurrentDiskRTree<S> {
    store: Arc<S>,
    pub(crate) shards: Box<[Mutex<Shard<S>>]>,
    /// `64 - log2(shard count)`: shift for the Fibonacci hash.
    shard_shift: u32,
    /// Cached root frame for the uncharged MBR peek (only read-only trees
    /// peek, so the root page never changes).
    root_frame: OnceLock<Arc<[u8]>>,
    meta: PageMeta,
    /// Span ids, query metrics and the tracer of latch and group-commit
    /// events (the shards trace their own).
    pub(crate) trace: TreeTrace,
    /// Present iff the tree was opened writable.
    writer: Option<WriterState>,
}

impl<S: SharedPageStore> ConcurrentDiskRTree<S> {
    /// Serializes `tree` into `store` and returns a shareable single-shard
    /// handle with the paper's exact sequential accounting.
    ///
    /// # Panics
    /// Panics if the tree is empty or its node capacity exceeds
    /// [`crate::MAX_ENTRIES_PER_PAGE`].
    pub fn create(
        store: S,
        tree: &RTree,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        Self::create_sharded(store, tree, buffer_capacity, 1, once(policy))
    }

    /// Serializes `tree` into `store` and returns a sharded handle:
    /// `shards` is rounded to a power of two and capped by the capacity;
    /// `0` means one shard per hardware thread. `policy` is invoked once
    /// per shard.
    ///
    /// # Panics
    /// Panics if the tree is empty or its node capacity exceeds
    /// [`crate::MAX_ENTRIES_PER_PAGE`].
    pub fn create_sharded<P: ReplacementPolicy + 'static>(
        mut store: S,
        tree: &RTree,
        buffer_capacity: usize,
        shards: usize,
        policy: impl FnMut() -> P,
    ) -> io::Result<Self> {
        let meta = materialize(&mut store, tree, false)?;
        Ok(Self::assemble(store, meta, buffer_capacity, shards, policy))
    }

    /// Opens a previously materialized tree with a single shard.
    pub fn open(
        store: S,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        Self::open_sharded(store, buffer_capacity, 1, once(policy))
    }

    /// Opens a previously materialized tree with a sharded pool (see
    /// [`ConcurrentDiskRTree::create_sharded`] for the shard semantics).
    pub fn open_sharded<P: ReplacementPolicy + 'static>(
        mut store: S,
        buffer_capacity: usize,
        shards: usize,
        policy: impl FnMut() -> P,
    ) -> io::Result<Self> {
        let meta = Self::read_meta(&mut store)?;
        Ok(Self::assemble(store, meta, buffer_capacity, shards, policy))
    }

    fn read_meta(store: &mut S) -> io::Result<PageMeta> {
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(0), &mut buf)?;
        Ok(PageMeta::decode(&buf)?)
    }

    /// Builds the shard array: the capacity is split evenly over the
    /// resolved shard count, the first `capacity % n` shards taking one
    /// extra frame.
    fn assemble<P: ReplacementPolicy + 'static>(
        store: S,
        meta: PageMeta,
        capacity: usize,
        shards: usize,
        mut policy: impl FnMut() -> P,
    ) -> Self {
        let n = resolve_shards(shards, capacity);
        let store = Arc::new(store);
        let shards = (0..n)
            .map(|i| {
                let slice = capacity / n + usize::from(i < capacity % n);
                let mut cache =
                    BufferManager::new(SharedReads(Arc::clone(&store)), slice, policy());
                // Checksums are verified once, at page-in, so the walks
                // decode the frames a shard serves without re-checking.
                cache.set_verify_reads(true);
                Mutex::new(cache)
            })
            .collect();
        ConcurrentDiskRTree {
            store,
            shards,
            shard_shift: u64::BITS - n.trailing_zeros(),
            root_frame: OnceLock::new(),
            meta,
            trace: TreeTrace::default(),
            writer: None,
        }
    }

    /// Latches the shard owning `id`.
    fn latch(&self, id: PageId) -> MutexGuard<'_, Shard<S>> {
        // One shard: the shift is the full 64 bits, which selects shard 0.
        let hash = id.0.wrapping_mul(HASH).checked_shr(self.shard_shift);
        self.shards[hash.unwrap_or(0) as usize].lock()
    }

    /// The stored metadata.
    pub fn meta(&self) -> &PageMeta {
        &self.meta
    }

    /// Number of shards the buffer capacity is split across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Physical I/O counters so far (all threads): the shards' reads and
    /// peek reads plus, on a writable tree, the page writes of its
    /// checkpoints. The shape matches [`crate::BufferManager::io_stats`]
    /// so benches report one thing.
    pub fn io_stats(&self) -> IoStats {
        let mut total = IoStats {
            writes: self
                .writer
                .as_ref()
                .map_or(0, |w| w.page_writes.load(Ordering::Relaxed)),
            ..IoStats::default()
        };
        for shard in self.shards.iter() {
            let io = shard.lock().io_stats();
            total.reads += io.reads;
            total.peek_reads += io.peek_reads;
        }
        total
    }

    /// Physical page reads so far (all threads).
    pub fn physical_reads(&self) -> u64 {
        self.io_stats().reads
    }

    /// Root-peek reads so far (all threads). At most one per tree lifetime
    /// between counter resets — the peeked frame is cached.
    pub fn peek_reads(&self) -> u64 {
        self.io_stats().peek_reads
    }

    /// Pool access statistics summed across shards.
    pub fn buffer_stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for shard in self.shards.iter() {
            total += shard.lock().pool().stats();
        }
        total
    }

    /// Resets the I/O counters and pool statistics (takes each shard latch
    /// once; the cached root frame is state, not a counter, and survives).
    pub fn reset_counters(&self) {
        for shard in self.shards.iter() {
            shard.lock().reset_counters();
        }
    }

    /// Pins the top `p` levels (reads each page once, into its shard).
    /// Pinned pages are distributed across shards like any other page and
    /// are exempt from replacement in their shard.
    ///
    /// # Errors
    /// `InvalidInput` if `p` exceeds the tree height or the level table is
    /// stale; `OutOfMemory` if a shard's capacity slice cannot hold its
    /// share of the pinned pages.
    pub fn pin_top_levels(&self, p: usize) -> io::Result<()> {
        for page in self.meta.top_level_pages(p)? {
            let mut cache = self.latch(PageId(page));
            let level = self.meta.onpage_level_of(page);
            cache.tracer.at_level(&Span::default(), level);
            cache.pin(PageId(page))?;
        }
        Ok(())
    }

    /// Unpins every pinned page across all shards. Frames stay resident
    /// and re-enter replacement in their shard; no I/O is performed.
    pub fn unpin_all(&self) {
        for shard in self.shards.iter() {
            shard.lock().unpin_all();
        }
    }

    /// Re-targets pinning at the top `p` levels: unpins everything, then
    /// pins (see [`ConcurrentDiskRTree::pin_top_levels`]). `p = 0` just
    /// unpins.
    pub fn set_pinned_levels(&self, p: usize) -> io::Result<()> {
        self.unpin_all();
        if p > 0 {
            self.pin_top_levels(p)?;
        }
        Ok(())
    }

    /// Number of currently pinned pages across all shards.
    pub fn pinned_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().pinned_count()).sum()
    }

    /// Total buffer capacity in frames (sum of the shard slices).
    pub fn buffer_capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().pool().capacity()).sum()
    }

    /// Re-partitions the buffer across the existing shards at a new total
    /// `capacity`: each shard is resized to `capacity / n` frames (the
    /// first `capacity % n` shards one extra, mirroring construction) under
    /// a fresh policy from one call to `policy`. Pinned pages stay pinned
    /// with their frames; unpinned frames are dropped, so the cache starts
    /// cold. As on the sequential tree, the pool access statistics restart
    /// and the cumulative [`IoStats`] survive.
    ///
    /// On a writable tree the operation gate is held exclusively, so no
    /// query or writer is in flight while the pools swap; dirty pages live
    /// in the overlay, never in shard frames, so dropping frames loses
    /// nothing.
    ///
    /// # Errors
    /// `InvalidInput` if `capacity` is smaller than the shard count (every
    /// shard needs ≥ 1 frame) or any shard's new slice cannot hold that
    /// shard's currently pinned pages. The pools are untouched on error.
    pub fn resize_buffer<P: ReplacementPolicy + 'static>(
        &self,
        capacity: usize,
        mut policy: impl FnMut() -> P,
    ) -> io::Result<()> {
        let n = self.shards.len();
        let slice = |i: usize| capacity / n + usize::from(i < capacity % n);
        let _gate = self.writer.as_ref().map(|w| w.op_gate.write());
        let mut shards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        // Checked for every shard before any is touched.
        if capacity < n || (0..n).any(|i| slice(i) < shards[i].pinned_count()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cannot resize to {capacity} frames across {n} shards: every shard needs a \
                     frame, and one for each page it has pinned"
                ),
            ));
        }
        for (i, shard) in shards.iter_mut().enumerate() {
            shard.resize(slice(i), policy())?;
        }
        Ok(())
    }

    /// The root frame for the uncharged MBR peek: taken from the root's
    /// shard (or, if not resident there, read from the store) at most once
    /// per tree and cached outside the pool, so the peek neither charges
    /// nor perturbs replacement state.
    fn root_frame(&self) -> io::Result<Arc<[u8]>> {
        if let Some(frame) = self.root_frame.get() {
            return Ok(Arc::clone(frame));
        }
        let (root, level) = (PageId(self.meta.root), self.meta.root_level());
        // Two racing threads may both read; both transfers really happened,
        // so both count, but only one frame is kept.
        let frame = {
            let mut cache = self.latch(root);
            cache.tracer.at_level(&Span::default(), level as i16);
            Arc::clone(cache.fetch_uncharged(root)?)
        };
        Ok(Arc::clone(self.root_frame.get_or_init(|| frame)))
    }

    /// The root's MBR from the uncharged peek (`None` for an empty tree) —
    /// model semantics: a node is accessed iff its MBR intersects the query.
    fn root_mbr(&self) -> io::Result<Option<Rect>> {
        Ok(PageView::new(&self.root_frame()?, self.meta.root_level())?.mbr()?)
    }

    /// Runs `f` on the live metadata: the writer's when writable (updated
    /// by every insert/delete), the open-time snapshot otherwise.
    fn with_meta<R>(&self, f: impl FnOnce(&PageMeta) -> R) -> R {
        match &self.writer {
            Some(w) => f(&w.meta.lock()),
            None => f(&self.meta),
        }
    }

    /// Executes a region query; safe to call from many threads. On a
    /// writable tree it is a batch of one (see
    /// [`ConcurrentDiskRTree::query_batch`]).
    pub fn query(&self, query: &Rect) -> io::Result<Vec<u64>> {
        if let Some(w) = &self.writer {
            return Ok(self.query_latched(w, &[*query])?.swap_remove(0));
        }
        let (root, level) = (self.meta.root, self.meta.root_level());
        let mut cursor = Cursor::new(self);
        match self.root_mbr()? {
            Some(mbr) if mbr.intersects(query) => walk::region(&mut cursor, root, level, query),
            _ => Ok(Vec::new()),
        }
    }

    /// Point query: item ids whose rectangle contains `p` (boundary
    /// inclusive). Runs as a degenerate region query, so it follows the
    /// same dispatched SIMD kernel and, on writable trees, the same reader
    /// latch protocol.
    pub fn query_point(&self, p: &Point) -> io::Result<Vec<u64>> {
        self.query(&Rect { lo: *p, hi: *p })
    }

    /// The `k` items nearest to `p` (closest first; ties broken
    /// arbitrarily), best-first over pages with the dispatched SIMD
    /// distance kernel pruning against the current k-th-best bound. On a
    /// writable tree the search runs under the exclusive operation gate
    /// (no concurrent mutation mid-search); on read-optimized trees it is
    /// freely concurrent.
    pub fn nearest_neighbors(&self, p: &Point, k: usize) -> io::Result<Vec<Neighbor>> {
        let _gate = self.writer.as_ref().map(|w| w.op_gate.write());
        let (root, level, items) = self.with_meta(|m| (m.root, m.root_level(), m.items));
        walk::nearest(&mut Cursor::new(self), root, level, items, p, k)
    }

    /// Runs a batch of region queries sharded across `threads` worker
    /// threads (contiguous sub-batches; `0` means one per hardware
    /// thread). `results[i]` holds the ids matching `queries[i]`.
    ///
    /// Each worker traverses its sub-batch **level-synchronously with page
    /// dedup**: a page needed by k of its queries is fetched once, each
    /// level is visited in ascending page order (sequential under the
    /// bulk-loaded layout), and per-node filtering runs the dispatched
    /// kernel on the frame in place ([`PageView`]). The root peek is shared and
    /// uncharged, exactly as in [`ConcurrentDiskRTree::query`]. With
    /// `threads = 1` the traversal runs inline on the caller's thread.
    /// On a writable tree the batch is one such walk on the caller's thread,
    /// from the live root with no peek, under the reader latch protocol.
    pub fn query_batch(&self, queries: &[Rect], threads: usize) -> io::Result<Vec<Vec<u64>>>
    where
        S: Send + Sync,
    {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(w) = &self.writer {
            return self.query_latched(w, queries);
        }
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        }
        .min(queries.len());

        // Shared uncharged root peek; workers reuse the MBR.
        let Some(root_mbr) = self.root_mbr()? else {
            return Ok(vec![Vec::new(); queries.len()]);
        };
        let (root, level) = (self.meta.root, self.meta.root_level());
        // One worker's walk over its contiguous slice of the batch.
        let worker = |slice: &[Rect]| -> io::Result<Vec<Vec<u64>>> {
            let mut out = BatchOutput::new(slice.len());
            let mut cursor = Cursor::new(self);
            walk::frontier(
                &mut cursor,
                root,
                level,
                Some(&root_mbr),
                slice,
                0,
                &mut out,
            )?;
            Ok(out.results)
        };
        if threads == 1 {
            return worker(queries);
        }
        let chunk = queries.len().div_ceil(threads);
        let outputs: Vec<io::Result<Vec<Vec<u64>>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = queries
                .chunks(chunk)
                .map(|slice| scope.spawn(|| worker(slice)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("batch worker panicked"))
                .collect()
        });
        let mut results = Vec::with_capacity(queries.len());
        for out in outputs {
            results.extend(out?);
        }
        Ok(results)
    }
}

/// One operation's view of the tree: the read seam of a traversal and, on
/// a writable tree, the write seam of a structure change. A traversal's
/// cursor is also its span: its events carry one id, and its totals land
/// in the tree's query metrics when it drops.
struct Cursor<'a, S: SharedPageStore> {
    tree: &'a ConcurrentDiskRTree<S>,
    /// Latches held under the reader protocol (shared, coupled between
    /// levels: queries and the optimistic delete's FindLeaf) or the insert
    /// descent (exclusive, crabbed); `None` makes every latch hook inert —
    /// nothing can change underneath (read-only tree, exclusive gate held).
    latches: Option<LatchSet<'a>>,
    /// The frame the last fetch returned, kept alive for its borrower.
    frame: Option<Arc<[u8]>>,
    span: Span<'a>,
}

impl<'a, S: SharedPageStore> Cursor<'a, S> {
    /// A traversal's cursor: opens a span.
    fn new(tree: &'a ConcurrentDiskRTree<S>) -> Self {
        Cursor {
            span: tree.trace.span(),
            ..Cursor::writer(tree, None)
        }
    }

    /// A write operation's cursor: no span, so its buffer traffic shows up
    /// in the trace stream like any other (span 0, at the page's level) and
    /// the miss ledger stays reconcilable on a read-write server.
    fn writer(tree: &'a ConcurrentDiskRTree<S>, latches: Option<LatchSet<'a>>) -> Self {
        Cursor {
            tree,
            latches,
            frame: None,
            span: Span::default(),
        }
    }

    /// The state behind the write seam.
    fn w(&self) -> &'a WriterState {
        let w = self.tree.writer.as_ref();
        w.expect("a write view exists only over a writable tree")
    }
}

impl<S: SharedPageStore> PageRead for Cursor<'_, S> {
    /// On a writable tree the dirty overlay shadows both the shards and the
    /// store (no-steal — the store never holds a page newer than the
    /// overlay) and costs nothing; otherwise the access is charged to the
    /// page's shard and to the span.
    fn fetch(&mut self, page: u64, level: u16) -> io::Result<&[u8]> {
        let (id, level) = (PageId(page), level as i16);
        let w = self.tree.writer.as_ref();
        let frame = match w.and_then(|w| w.overlay.read().get(&page).cloned()) {
            Some(frame) => frame,
            None => Arc::clone(self.tree.latch(id).fetch_in(id, level, &mut self.span)?),
        };
        Ok(self.frame.insert(frame))
    }

    /// Shared-latch *coupling*: every page of the next level is latched
    /// before the level above is released, so a concurrent split can never
    /// move an entry past the traversal. (Depth-first coupling would
    /// re-acquire upward while backtracking and deadlock; level order keeps
    /// every wait edge pointing down the tree.)
    fn level_done(&mut self, next: impl Iterator<Item = u64>) {
        if let (Some(set), Some(w)) = (&mut self.latches, &self.tree.writer) {
            let mut coupled = 0;
            for pid in next {
                self.tree.latch_acquire(w, set, pid, false);
                coupled += 1;
            }
            set.release_all_but_last(coupled);
        }
    }
}

/// The write seam: stores land in the dirty overlay, never straight in the
/// store (no-steal); dissolved pages go on the session free list. Only
/// CondenseTree frees, under the exclusive gate, so latched operations
/// never race a page recycling.
impl<S: ConcurrentPageStore> PageWrite for Cursor<'_, S> {
    fn meta<R>(&mut self, f: impl FnOnce(&mut PageMeta) -> R) -> R {
        f(&mut self.w().meta.lock())
    }

    fn store(&mut self, id: u64, node: &NodePage) -> io::Result<()> {
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode_with(&mut buf, self.tree.meta.layout_at(node.level));
        let frame = Arc::from(buf.into_boxed_slice());
        self.w().overlay.write().insert(id, frame);
        Ok(())
    }

    fn alloc(&mut self) -> io::Result<u64> {
        if let Some(id) = self.w().free.lock().pop() {
            return Ok(id);
        }
        Ok(self.tree.store.allocate_shared()?.0)
    }

    fn free(&mut self, id: u64) -> io::Result<()> {
        self.w().overlay.write().remove(&id);
        self.w().free.lock().push(id);
        Ok(())
    }

    /// Crabbing: the child is latched exclusively while its parent still is.
    fn latch(&mut self, child: u64) {
        if let (Some(set), Some(w)) = (&mut self.latches, &self.tree.writer) {
            self.tree.latch_acquire(w, set, child, true);
        }
    }

    /// Crabbing: only the split-safe node's own latch is kept.
    fn split_safe(&mut self) {
        if let Some(set) = &mut self.latches {
            set.release_all_but_last(1);
        }
    }
}

/// Flattens a rectangle into the WAL's logical-record payload layout.
fn rect_key(r: &Rect) -> [f64; 4] {
    [r.lo.x, r.lo.y, r.hi.x, r.hi.y]
}

/// Outcome of one optimistic (latched fast-path) delete attempt.
enum FastDelete {
    /// Entry found and removed; carries the LSN awaiting group commit.
    Deleted(Lsn),
    /// The entry is provably absent (every candidate leaf was scanned
    /// while shared-latched, so nothing could slip past the traversal).
    Absent,
    /// Lost the latch-trade race or the leaf would underflow: retry, then
    /// escalate to the exclusive path.
    Contended,
}

impl<S: SharedPageStore> ConcurrentDiskRTree<S> {
    /// The underlying page store (chaos and recovery tests snapshot it;
    /// remember that dirty writer pages live in the overlay, not here,
    /// until a checkpoint).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Live item count (tracks every insert/delete on a writable tree).
    pub fn live_items(&self) -> u64 {
        self.with_meta(|m| m.items)
    }

    /// Group-commit counters of the attached WAL (writable trees only).
    pub fn group_commit_stats(&self) -> Option<GroupCommitStats> {
        self.writer.as_ref().map(|w| w.wal.stats())
    }

    /// Latch acquisitions that had to block (contention signal).
    pub fn latch_waits(&self) -> u64 {
        self.writer
            .as_ref()
            .map_or(0, |w| w.latch_waits.load(Ordering::Relaxed))
    }

    /// Applied logical operations: inserts plus deletes that found their
    /// entry.
    pub fn logical_writes(&self) -> u64 {
        self.writer
            .as_ref()
            .map_or(0, |w| w.logical_writes.load(Ordering::Relaxed))
    }

    /// Acquires a latch into `set`, counting (and tracing) blocked
    /// acquisitions.
    fn latch_acquire(&self, w: &WriterState, set: &mut LatchSet<'_>, id: u64, exclusive: bool) {
        if set.acquire(id, exclusive) {
            w.latch_waits.fetch_add(1, Ordering::Relaxed);
            self.trace.tracer.emit(PageId(id), EventKind::LatchWait);
        }
    }

    /// Enters the tree: the live root and its level, read under the meta
    /// latch, and both latched in one mode. A reader lets the meta latch go
    /// at once; a writer keeps it until its descent proves split-safe.
    fn enter<'w>(&self, w: &'w WriterState, exclusive: bool) -> (LatchSet<'w>, u64, u16) {
        let mut set = LatchSet::new(&w.latches);
        self.latch_acquire(w, &mut set, META_LATCH, exclusive);
        let (root, level) = self.with_meta(|m| (m.root, m.root_level()));
        self.latch_acquire(w, &mut set, root, exclusive);
        if !exclusive {
            set.release_all_but_last(1);
        }
        (set, root, level)
    }

    /// The writable tree's read path: one level-synchronous walk over the
    /// whole batch from the live root, the cursor coupling shared latches
    /// between levels (see [`Cursor::level_done`]).
    fn query_latched(&self, w: &WriterState, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
        let _gate = w.op_gate.read();
        let (set, root, level) = self.enter(w, false);
        let mut cursor = Cursor {
            latches: Some(set),
            ..Cursor::new(self)
        };
        let mut out = BatchOutput::new(queries.len());
        walk::frontier(&mut cursor, root, level, None, queries, 0, &mut out)?;
        Ok(out.results)
    }
}

impl<S: ConcurrentPageStore> ConcurrentDiskRTree<S> {
    /// Creates an empty writable tree: a meta page, an empty root leaf,
    /// and an attached group-commit WAL. Writes go through per-page latch
    /// crabbing; dirty pages stay in a private overlay until
    /// [`ConcurrentDiskRTree::checkpoint`] (no-steal), so recovery is
    /// logical redo of committed WAL records over the last checkpoint
    /// image (see [`crate::replay_committed`]).
    ///
    /// # Panics
    /// Panics if the capacities are out of range (Guttman's
    /// `1 <= m <= M/2`).
    pub fn create_writable(
        mut store: S,
        max_entries: usize,
        min_entries: usize,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
        wal: GroupWal,
    ) -> io::Result<Self> {
        // In-place updates invalidate the bulk-load layout immediately, so
        // the level table starts out empty.
        let meta = materialize_empty(&mut store, max_entries, min_entries, false)?;
        let mut tree = Self::assemble(store, meta.clone(), buffer_capacity, 1, once(policy));
        tree.writer = Some(WriterState::new(meta, Vec::new(), wal));
        Ok(tree)
    }

    /// Opens a previously checkpointed tree for writing. The caller is
    /// responsible for replaying any committed WAL records that postdate
    /// the image (see [`crate::replay_committed`]).
    pub fn open_writable(
        mut store: S,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
        wal: GroupWal,
    ) -> io::Result<Self> {
        let meta = Self::read_meta(&mut store)?;
        // A `DiskRTree` may have left dissolved pages on the image's free
        // list: walk it into the session list, head last so pages are
        // reused in the order the sequential tree would reuse them.
        let mut free = Vec::new();
        let (mut next, mut buf) = (meta.free_head, vec![0u8; PAGE_SIZE]);
        while next != 0 {
            if free.len() as u64 >= store.page_count() {
                return Err(PageError::InconsistentMeta("free list cycles").into());
            }
            store.read_page(PageId(next), &mut buf)?;
            free.push(next);
            next = decode_free_page(&buf)?;
        }
        free.reverse();
        let mut live = meta.clone();
        live.level_starts.clear();
        let mut tree = Self::assemble(store, meta, buffer_capacity, 1, once(policy));
        tree.writer = Some(WriterState::new(live, free, wal));
        Ok(tree)
    }

    /// The writer state, or `PermissionDenied` on a read-only tree.
    fn writer_state(&self) -> io::Result<&WriterState> {
        self.writer.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::PermissionDenied,
                "tree was opened read-only; use a writable constructor",
            )
        })
    }

    /// Makes `lsn` durable through the group-commit protocol; when this
    /// thread led the batch, a flush event carries the batch size.
    fn group_commit(&self, w: &WriterState, lsn: Lsn) -> io::Result<()> {
        let batch = w.wal.commit(lsn)?;
        if batch > 0 {
            let flush = EventKind::GroupCommitFlush;
            self.trace.tracer.emit(PageId(batch), flush);
        }
        Ok(())
    }

    /// Inserts an item. Thread-safe: the structure change runs under
    /// latch crabbing, durability under group commit (the WAL record is
    /// appended once the change is in place, its leaf still latched, and
    /// fsynced — possibly by another thread's batch leader — after it). An
    /// insert that fails leaves no record, so it never becomes durable.
    ///
    /// The descent is [`insert_entry`] over a cursor that enters holding
    /// the meta and root latches exclusively and crabs down one path; the
    /// moment a node proves split-safe every latch above it goes — the
    /// meta latch too, since the root id can then no longer change.
    pub fn insert(&self, rect: &Rect, item: u64) -> io::Result<()> {
        debug_assert!(rect.is_valid(), "inserting an invalid rectangle");
        let w = self.writer_state()?;
        let gate = w.op_gate.read();
        let (set, _, _) = self.enter(w, true);
        let mut pages = Cursor::writer(self, Some(set));
        insert_entry(&mut pages, (*rect, item), 0)?;
        let lsn = w.wal.log_insert(rect_key(rect), item)?;
        drop(pages);
        w.meta.lock().items += 1;
        w.logical_writes.fetch_add(1, Ordering::Relaxed);
        drop(gate);
        self.group_commit(w, lsn)
    }

    /// Whether the exact `(rect, item)` entry is in the tree: FindLeaf with
    /// every other operation quiesced.
    pub(crate) fn contains(&self, rect: &Rect, item: u64) -> io::Result<bool> {
        let w = self.writer_state()?;
        let _gate = w.op_gate.write();
        let (root, level) = self.with_meta(|m| (m.root, m.root_level()));
        let mut pages = Cursor::writer(self, None);
        Ok(find_leaf(&mut pages, root, level, rect, item)?.is_some())
    }

    /// Deletes one `(rect, item)` entry; returns whether it was found.
    ///
    /// Fast path: FindLeaf over a cursor that couples shared latches
    /// between levels, as queries do, locates the leaf; then an exclusive
    /// leaf latch removes the entry in place — valid only while the leaf
    /// stays at or above minimum fill, because that path frees no page
    /// and tightens no ancestor rectangle (loose MBRs are correct, merely
    /// less selective). Underflow — or losing the shared→exclusive
    /// latch trade to a concurrent split — escalates to a full retry
    /// under the exclusive side of the operation gate, where Guttman's
    /// CondenseTree runs exactly as on the sequential tree (the same code).
    /// Either way the entry is logged only once it is verified present.
    pub fn delete(&self, rect: &Rect, item: u64) -> io::Result<bool> {
        let w = self.writer_state()?;
        for _ in 0..3 {
            let gate = w.op_gate.read();
            let outcome = self.delete_fast(w, rect, item)?;
            drop(gate);
            match outcome {
                FastDelete::Deleted(lsn) => {
                    self.group_commit(w, lsn)?;
                    return Ok(true);
                }
                FastDelete::Absent => return Ok(false),
                FastDelete::Contended => {}
            }
        }
        self.delete_quiesced(w, rect, item)
    }

    /// One optimistic delete attempt (see [`ConcurrentDiskRTree::delete`]).
    fn delete_fast(&self, w: &WriterState, rect: &Rect, item: u64) -> io::Result<FastDelete> {
        let (set, root, level) = self.enter(w, false);
        let mut pages = Cursor::writer(self, Some(set));
        let Some((leaf, _)) = find_leaf(&mut pages, root, level, rect, item)? else {
            return Ok(FastDelete::Absent);
        };
        // No shared→exclusive upgrade exists (two upgraders would
        // deadlock): drop every shared latch, re-latch the leaf
        // exclusively, and re-verify. The page cannot have been freed in
        // the gap — frees need the exclusive gate, and we hold its read
        // side — but a concurrent split may have moved the entry.
        pages.latches = None;
        let mut xset = LatchSet::new(&w.latches);
        self.latch_acquire(w, &mut xset, leaf, true);
        let mut node = pages.load(leaf, 0)?;
        let found = node
            .entries
            .iter()
            .position(|(r, p)| *p == item && r == rect);
        let Some(pos) = found else {
            return Ok(FastDelete::Contended);
        };
        // A root leaf may legally underflow; anything else escalates.
        let is_root = w.meta.lock().root == leaf;
        if node.entries.len() <= self.meta.min_entries as usize && !is_root {
            return Ok(FastDelete::Contended);
        }
        // Logged only now, with the entry verified present under the
        // exclusive latch: a delete record in the WAL always replays.
        let lsn = w.wal.log_delete(rect_key(rect), item)?;
        node.entries.remove(pos);
        pages.store(leaf, &node)?;
        w.meta.lock().items -= 1;
        w.logical_writes.fetch_add(1, Ordering::Relaxed);
        Ok(FastDelete::Deleted(lsn))
    }

    /// Slow-path delete: quiesces every other operation through the write
    /// side of the operation gate, then runs the shared FindLeaf /
    /// CondenseTree / ShrinkTree over a latch-free cursor (orphans go back
    /// in through [`insert_entry`], its hooks inert). Holding the gate for
    /// the whole operation means no reader or writer can observe the window
    /// where orphaned entries are detached from the tree.
    fn delete_quiesced(&self, w: &WriterState, rect: &Rect, item: u64) -> io::Result<bool> {
        let gate = w.op_gate.write();
        let (root, level) = self.with_meta(|m| (m.root, m.root_level()));
        let mut pages = Cursor::writer(self, None);
        let Some(found) = find_leaf(&mut pages, root, level, rect, item)? else {
            return Ok(false);
        };
        // Logged only now, with the entry known present: a delete record
        // in the WAL always replays.
        let lsn = w.wal.log_delete(rect_key(rect), item)?;
        remove_entry(&mut pages, found, rect, item)?;
        w.logical_writes.fetch_add(1, Ordering::Relaxed);
        drop(gate);
        self.group_commit(w, lsn)?;
        Ok(true)
    }

    /// Flushes every dirty page and the metadata to the store, fsyncs,
    /// checkpoints (and truncates) the WAL, and clears the overlay —
    /// under the exclusive gate, so the image is an exact snapshot of all
    /// committed operations. Resident shard frames are refreshed in
    /// place so read caching stays coherent after the overlay empties.
    ///
    /// A crash *during* the page flush can tear the image; recovering
    /// from that needs the physical WAL ([`crate::recover`]) and is out
    /// of scope for the logical writer. The pages are flushed in place
    /// and the WAL is truncated only afterwards, so a crash (or a log
    /// error) between the two leaves the *new* image under the *old* log:
    /// [`crate::replay_committed`] is idempotent over that window — an
    /// insert whose entry the image already holds is skipped, a delete of
    /// an absent entry is a no-op.
    pub fn checkpoint(&self) -> io::Result<()> {
        let w = self.writer_state()?;
        let _gate = w.op_gate.write();
        let overlay: Vec<(u64, Arc<[u8]>)> = w
            .overlay
            .read()
            .iter()
            .map(|(id, f)| (*id, Arc::clone(f)))
            .collect();
        for (id, frame) in &overlay {
            self.store.write_page_shared(PageId(*id), frame)?;
            w.page_writes.fetch_add(1, Ordering::Relaxed);
            self.latch(PageId(*id)).refresh(PageId(*id), frame);
        }
        let mut meta = w.meta.lock().clone();
        // The session free list is not persisted: pages still on it leak
        // on reopen (documented trade — the on-disk free list stays out of
        // the latch protocol).
        meta.free_head = 0;
        meta.level_starts = Vec::new();
        let mut buf = vec![0u8; PAGE_SIZE];
        meta.encode(&mut buf);
        self.store.write_page_shared(PageId(0), &buf)?;
        w.page_writes.fetch_add(1, Ordering::Relaxed);
        self.store.flush_shared()?;
        w.wal.checkpoint()?;
        w.overlay.write().clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use rtree_buffer::LruPolicy;
    use rtree_geom::Point;
    use rtree_index::BulkLoader;

    fn sample_rects(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.97;
                let y = (i as f64 * 0.414_213) % 0.97;
                Rect::new(x, y, x + 0.01, y + 0.01)
            })
            .collect()
    }

    #[test]
    fn single_thread_matches_in_memory() {
        let rects = sample_rects(800);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
        for q in [
            Rect::new(0.1, 0.1, 0.4, 0.3),
            Rect::point(Point::new(0.5, 0.5)),
            Rect::new(0.0, 0.0, 1.0, 1.0),
        ] {
            let mut a = disk.query(&q).unwrap();
            let mut b = tree.search(&q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn concurrent_queries_are_correct_and_counted() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(20).load(&rects);
        let disk = Arc::new(
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 50, LruPolicy::new()).unwrap(),
        );

        let queries: Vec<Rect> = (0..64)
            .map(|i| {
                let x = (i as f64 * 0.37) % 0.8;
                let y = (i as f64 * 0.59) % 0.8;
                Rect::new(x, y, x + 0.1, y + 0.1)
            })
            .collect();
        let expected: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let mut v = tree.search(q);
                v.sort_unstable();
                v
            })
            .collect();

        std::thread::scope(|scope| {
            for t in 0..4 {
                let disk = Arc::clone(&disk);
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    for (q, want) in queries.iter().zip(expected).skip(t).step_by(4) {
                        let mut got = disk.query(q).unwrap();
                        got.sort_unstable();
                        assert_eq!(&got, want);
                    }
                });
            }
        });
        assert!(disk.physical_reads() > 0);
    }

    #[test]
    fn query_batch_matches_sequential_across_thread_counts() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let queries: Vec<Rect> = (0..48)
            .map(|i| {
                let x = (i as f64 * 0.37) % 0.8;
                let y = (i as f64 * 0.59) % 0.8;
                Rect::new(x, y, x + 0.1, y + 0.1)
            })
            .collect();
        let expected: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let mut v = tree.search(q);
                v.sort_unstable();
                v
            })
            .collect();

        for threads in [1, 3, 4, 64, 0] {
            let disk =
                ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 48, 4, LruPolicy::new)
                    .unwrap();
            let got = disk.query_batch(&queries, threads).unwrap();
            assert_eq!(got.len(), queries.len());
            for (i, mut g) in got.into_iter().enumerate() {
                g.sort_unstable();
                assert_eq!(g, expected[i], "threads {threads}, query {i}");
            }
            assert!(disk.physical_reads() > 0);
        }
    }

    #[test]
    fn query_batch_single_thread_dedups_shared_pages() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let queries: Vec<Rect> = (0..32)
            .map(|i| {
                let x = (i as f64 * 0.11) % 0.5;
                Rect::new(x, x, x + 0.2, x + 0.2)
            })
            .collect();

        // Cold batch with a tiny buffer: dedup, not cache capacity, must
        // bound the reads at the distinct-page count.
        let batch =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 4, LruPolicy::new()).unwrap();
        batch.query_batch(&queries, 1).unwrap();
        let batch_reads = batch.physical_reads();

        // Equally cold sequential run reads every distinct page at least
        // once, plus whatever the small buffer forces it to re-read.
        let seq = ConcurrentDiskRTree::create(MemStore::new(), &tree, 4, LruPolicy::new()).unwrap();
        for q in &queries {
            seq.query(q).unwrap();
        }
        assert!(
            batch_reads <= seq.physical_reads(),
            "batch {} vs sequential {}",
            batch_reads,
            seq.physical_reads()
        );

        let stats = batch.buffer_stats();
        assert_eq!(stats.hits + stats.misses, stats.accesses);
    }

    #[test]
    fn query_batch_empty_and_miss_batches() {
        let rects = sample_rects(300);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 16, LruPolicy::new()).unwrap();
        assert!(disk.query_batch(&[], 4).unwrap().is_empty());
        let far = vec![Rect::new(2.0, 2.0, 3.0, 3.0); 5];
        let out = disk.query_batch(&far, 2).unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(Vec::is_empty));
        // Root-MBR filtering: nothing was charged to the pool.
        assert_eq!(disk.physical_reads(), 0);
    }

    #[test]
    fn pinning_works_shared() {
        let rects = sample_rects(1_500);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 40, LruPolicy::new()).unwrap();
        disk.pin_top_levels(2).unwrap();
        disk.reset_counters();
        disk.query(&Rect::point(Point::new(0.3, 0.3))).unwrap();
        // Only unpinned levels can cost reads.
        assert!(disk.physical_reads() <= u64::from(disk.meta().height));
    }

    #[test]
    fn open_round_trip() {
        let rects = sample_rects(400);
        let tree = BulkLoader::nearest_x(10).load(&rects);
        let mut store = MemStore::new();
        {
            let d = ConcurrentDiskRTree::create(&mut store, &tree, 8, LruPolicy::new()).unwrap();
            assert_eq!(d.meta().items, 400);
        }
        let d = ConcurrentDiskRTree::open(&mut store, 8, LruPolicy::new()).unwrap();
        assert_eq!(d.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap().len(), 400);
    }

    type PolicyFactory = Box<dyn Fn() -> Box<dyn ReplacementPolicy>>;

    /// One factory per replacement policy, labelled.
    fn policy_table() -> Vec<(&'static str, PolicyFactory)> {
        vec![
            ("lru", Box::new(|| Box::new(rtree_buffer::LruPolicy::new()))),
            (
                "lru2",
                Box::new(|| Box::new(rtree_buffer::LruKPolicy::new(2))),
            ),
            (
                "fifo",
                Box::new(|| Box::new(rtree_buffer::FifoPolicy::new())),
            ),
            (
                "clock",
                Box::new(|| Box::new(rtree_buffer::ClockPolicy::new())),
            ),
            (
                "random",
                Box::new(|| Box::new(rtree_buffer::RandomPolicy::new(42))),
            ),
        ]
    }

    #[test]
    fn shared_counts_match_sequential_counts() {
        // With one thread, the concurrent wrapper must count exactly like
        // the plain DiskRTree (same replacement decisions) — for every
        // policy, pinning depth and query kind, across a resize.
        let rects = sample_rects(1_200);
        let tree = BulkLoader::hilbert(12).load(&rects);
        for (name, policy) in policy_table() {
            for pin in 0..3 {
                let concurrent =
                    ConcurrentDiskRTree::create(MemStore::new(), &tree, 25, policy()).unwrap();
                let mut plain =
                    crate::DiskRTree::create(MemStore::new(), &tree, 25, policy()).unwrap();
                for frames in [25, 17] {
                    concurrent.set_pinned_levels(0).unwrap();
                    concurrent.resize_buffer(frames, &policy).unwrap();
                    concurrent.set_pinned_levels(pin).unwrap();
                    plain.set_pinned_levels(0).unwrap();
                    plain.resize_buffer(frames, policy()).unwrap();
                    plain.set_pinned_levels(pin).unwrap();
                    for i in 0..300 {
                        let x = (i as f64 * 0.217) % 0.9;
                        let y = (i as f64 * 0.431) % 0.9;
                        let (q, p) = (Rect::new(x, y, x + 0.05, y + 0.05), Point::new(x, y));
                        match i % 3 {
                            0 => {
                                assert_eq!(concurrent.query(&q).unwrap(), plain.query(&q).unwrap())
                            }
                            1 => assert_eq!(
                                concurrent.query_point(&p).unwrap(),
                                plain.query_point(&p).unwrap()
                            ),
                            _ => assert_eq!(
                                concurrent.nearest_neighbors(&p, 1 + i % 7).unwrap(),
                                plain.nearest_neighbors(&p, 1 + i % 7).unwrap()
                            ),
                        }
                    }
                    let what = format!("{name}, {pin} pinned levels, {frames} frames");
                    assert_eq!(concurrent.physical_reads(), plain.physical_reads());
                    // The uncharged root peek is the one designed difference:
                    // the concurrent tree keeps the peeked frame for its
                    // lifetime, the sequential tree peeks again whenever the
                    // root is not resident.
                    let (shared, seq) = (concurrent.io_stats(), plain.io_stats());
                    assert_eq!(shared.peek_reads, seq.peek_reads.min(1), "{what}");
                    let peek_reads = seq.peek_reads;
                    assert_eq!(
                        IoStats {
                            peek_reads,
                            ..shared
                        },
                        seq,
                        "{what}"
                    );
                    assert_eq!(concurrent.buffer_stats(), plain.buffer_stats(), "{what}");
                }
            }
        }
    }

    #[test]
    fn shard_resolution_rules() {
        // Explicit counts round up to a power of two…
        assert_eq!(resolve_shards(3, 1024), 4);
        assert_eq!(resolve_shards(8, 1024), 8);
        // …but never exceed the capacity (every shard needs a frame).
        assert_eq!(resolve_shards(8, 5), 4);
        assert_eq!(resolve_shards(16, 1), 1);
        // 0 = auto: one per hardware thread, still a power of two.
        let auto = resolve_shards(0, 1 << 20);
        assert!(auto.is_power_of_two() && auto >= 1);
    }

    #[test]
    fn sharded_queries_match_in_memory() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk = Arc::new(
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 48, 4, LruPolicy::new)
                .unwrap(),
        );
        assert_eq!(disk.shard_count(), 4);

        let queries: Vec<Rect> = (0..96)
            .map(|i| {
                let x = (i as f64 * 0.41) % 0.85;
                let y = (i as f64 * 0.23) % 0.85;
                Rect::new(x, y, x + 0.08, y + 0.08)
            })
            .collect();
        let expected: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let mut v = tree.search(q);
                v.sort_unstable();
                v
            })
            .collect();

        std::thread::scope(|scope| {
            for t in 0..8 {
                let disk = Arc::clone(&disk);
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    for (q, want) in queries.iter().zip(expected).skip(t).step_by(8) {
                        let mut got = disk.query(q).unwrap();
                        got.sort_unstable();
                        assert_eq!(&got, want);
                    }
                });
            }
        });
        let stats = disk.buffer_stats();
        assert!(stats.accesses > 0);
        assert_eq!(stats.hits + stats.misses, stats.accesses);
        assert!(disk.physical_reads() > 0);
        assert_eq!(disk.io_stats().writes, 0);
    }

    #[test]
    fn sharded_capacity_is_split_proportionally() {
        let rects = sample_rects(1_000);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 10, 4, LruPolicy::new)
                .unwrap();
        let caps: Vec<usize> = disk
            .shards
            .iter()
            .map(|s| s.lock().pool().capacity())
            .collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
    }

    #[test]
    fn root_peek_is_cached_and_counted() {
        let rects = sample_rects(600);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 8, LruPolicy::new()).unwrap();
        // A query outside every MBR touches only the root peek.
        let far = Rect::new(0.995, 0.995, 1.0, 1.0);
        for _ in 0..5 {
            assert!(disk.query(&far).unwrap().is_empty());
        }
        let io = disk.io_stats();
        assert_eq!(io.reads, 0, "root miss must not charge the buffer");
        assert_eq!(io.peek_reads, 1, "peek is read once, then cached");
        assert_eq!(io.total(), 1, "the physical transfer is not dropped");
    }

    #[test]
    fn pin_out_of_range_is_an_error_not_a_panic() {
        let rects = sample_rects(300);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 16, LruPolicy::new()).unwrap();
        let levels = disk.meta().level_starts.len();
        let err = disk.pin_top_levels(levels + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // The valid range still works afterwards.
        disk.pin_top_levels(1).unwrap();

        // The sequential tree answers the same way, including for a level
        // table gone stale through mutation.
        let mut seq =
            crate::DiskRTree::create(MemStore::new(), &tree, 16, LruPolicy::new()).unwrap();
        let err = seq.pin_top_levels(levels + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = seq.set_pinned_levels(levels + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        seq.pin_top_levels(1).unwrap();
        seq.insert(rects[0], 9_999).unwrap();
        let err = seq.pin_top_levels(1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn failed_read_backs_out_the_admission() {
        let tree = BulkLoader::hilbert(10).load(&sample_rects(300));
        let q = Rect::new(0.2, 0.2, 0.5, 0.5);
        // Store reads: 1 = meta page at open, then either the root pin, or
        // the cached root peek followed by the root's demand fetch.
        for (fail_at, pin) in [(2, true), (3, false)] {
            let mut store = MemStore::new();
            ConcurrentDiskRTree::create(&mut store, &tree, 64, LruPolicy::new()).unwrap();
            let faulty =
                crate::FaultStore::new(store, rtree_wal::CrashSwitch::new()).fail_read_at(fail_at);
            let disk = ConcurrentDiskRTree::open(faulty, 64, LruPolicy::new()).unwrap();
            let attempt = || match pin {
                true => disk.pin_top_levels(1),
                false => disk.query(&q).map(drop),
            };
            assert!(attempt().is_err(), "injected fault surfaces");
            assert_eq!(disk.physical_reads(), 0);
            // The retry misses again and re-reads: the root counts once.
            attempt().unwrap();
            let want = if pin { 1 } else { tree.count_accesses(&q) };
            assert_eq!(disk.physical_reads(), want as u64, "pin {pin}");
        }
    }

    #[test]
    fn sharded_pinning_distributes_and_exempts() {
        let rects = sample_rects(2_500);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk = Arc::new(
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 64, 4, LruPolicy::new)
                .unwrap(),
        );
        disk.pin_top_levels(2).unwrap();
        let pinned: usize = disk.shards.iter().map(|s| s.lock().pinned_count()).sum();
        let expect = (disk.meta().level_starts[2] - 1) as usize;
        assert_eq!(pinned, expect, "every top-level page pinned exactly once");
        assert!(
            disk.shards
                .iter()
                .filter(|s| s.lock().pinned_count() > 0)
                .count()
                > 1,
            "pinned pages should spread across shards"
        );
        disk.reset_counters();
        disk.query(&Rect::point(Point::new(0.4, 0.4))).unwrap();
        assert!(disk.physical_reads() <= u64::from(disk.meta().height));
    }

    /// Many threads query while another thread pins the top levels — the
    /// latch protocol must keep results correct and the pool consistent.
    #[test]
    fn pin_while_querying_stress() {
        let rects = sample_rects(3_000);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk = Arc::new(
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 128, 4, LruPolicy::new)
                .unwrap(),
        );
        let queries: Vec<Rect> = (0..48)
            .map(|i| {
                let x = (i as f64 * 0.173) % 0.85;
                let y = (i as f64 * 0.377) % 0.85;
                Rect::new(x, y, x + 0.06, y + 0.06)
            })
            .collect();
        let expected: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let mut v = tree.search(q);
                v.sort_unstable();
                v
            })
            .collect();

        std::thread::scope(|scope| {
            for t in 0..8 {
                let disk = Arc::clone(&disk);
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..6 {
                        for (q, want) in queries
                            .iter()
                            .zip(expected)
                            .skip((t + round) % 8)
                            .step_by(8)
                        {
                            let mut got = disk.query(q).unwrap();
                            got.sort_unstable();
                            assert_eq!(&got, want);
                        }
                    }
                });
            }
            let pinner = Arc::clone(&disk);
            scope.spawn(move || {
                for p in [1usize, 2, 1, 2] {
                    pinner.pin_top_levels(p).unwrap();
                }
            });
        });
        let stats = disk.buffer_stats();
        assert_eq!(stats.hits + stats.misses, stats.accesses);
        // Pinned pages stayed pinned and within capacity.
        for shard in disk.shards.iter() {
            let s = shard.lock();
            assert!(s.pool().len() <= s.pool().capacity());
            assert_eq!(s.frame_count(), s.pool().len());
        }
    }

    #[test]
    fn reset_counters_clears_every_shard() {
        let rects = sample_rects(1_000);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 32, 4, LruPolicy::new)
                .unwrap();
        for i in 0..20 {
            let x = (i as f64 * 0.31) % 0.9;
            disk.query(&Rect::new(x, x, x + 0.05, x + 0.05)).unwrap();
        }
        assert!(disk.physical_reads() > 0);
        disk.reset_counters();
        assert_eq!(disk.io_stats(), IoStats::default());
        assert_eq!(disk.buffer_stats(), BufferStats::default());
    }

    fn writer_wal() -> GroupWal {
        GroupWal::open(rtree_wal::MemLog::new()).expect("open wal")
    }

    /// Deterministic small rectangle for writer tests, keyed by item id.
    fn item_rect(id: u64) -> Rect {
        let x = ((id.wrapping_mul(2_654_435_761) % 9_973) as f64) / 9_973.0;
        let y = ((id.wrapping_mul(1_327_217_885) % 9_931) as f64) / 9_931.0;
        Rect::new(x, y, x + 0.004, y + 0.004)
    }

    fn probe_queries() -> Vec<Rect> {
        (0..24)
            .map(|i| {
                let x = (i as f64 * 0.207) % 0.85;
                let y = (i as f64 * 0.313) % 0.85;
                Rect::new(x, y, x + 0.15, y + 0.15)
            })
            .collect()
    }

    #[test]
    fn writable_tree_inserts_deletes_and_queries() {
        let tree = ConcurrentDiskRTree::create_writable(
            MemStore::new(),
            8,
            3,
            16,
            LruPolicy::new(),
            writer_wal(),
        )
        .unwrap();
        let n = 300u64;
        for id in 0..n {
            tree.insert(&item_rect(id), id).unwrap();
        }
        assert_eq!(tree.live_items(), n);
        // Single-threaded: every op leads its own commit batch.
        let stats = tree.group_commit_stats().unwrap();
        assert_eq!(stats.committed_ops, n);
        assert_eq!(stats.fsyncs, n);

        // Delete every third item; the rest must stay queryable.
        for id in (0..n).step_by(3) {
            assert!(tree.delete(&item_rect(id), id).unwrap(), "item {id}");
        }
        assert!(!tree.delete(&item_rect(0), 0).unwrap(), "already gone");
        let expected: Vec<u64> = (0..n).filter(|id| id % 3 != 0).collect();
        assert_eq!(tree.live_items(), expected.len() as u64);
        let mut all = tree.query(&Rect::new(0.0, 0.0, 2.0, 2.0)).unwrap();
        all.sort_unstable();
        assert_eq!(all, expected);
        assert!(tree.logical_writes() > n, "deletes counted too");
    }

    /// One insert algorithm: an image does not say which tree wrote it.
    #[test]
    fn both_trees_write_byte_identical_node_pages() {
        let mut store = MemStore::new();
        let mut sequential =
            crate::DiskRTree::create_empty(&mut store, 8, 3, 16, LruPolicy::new()).unwrap();
        let latched = ConcurrentDiskRTree::create_writable(
            MemStore::new(),
            8,
            3,
            16,
            LruPolicy::new(),
            writer_wal(),
        )
        .unwrap();
        for id in 0..600u64 {
            sequential.insert(item_rect(id), id).unwrap();
            latched.insert(&item_rect(id), id).unwrap();
        }
        sequential.flush().unwrap();
        assert!(sequential.meta().height > 2, "splits reached the root");
        drop(sequential);
        latched.checkpoint().unwrap();

        let image = latched.store().snapshot();
        assert_eq!(image.len() as u64, store.page_count() * PAGE_SIZE as u64);
        let mut page = vec![0u8; PAGE_SIZE];
        // Page 0 is the metadata (whose level table the two flavors keep
        // differently); every page after it is a node.
        for id in 1..store.page_count() {
            store.read_page(PageId(id), &mut page).unwrap();
            let at = id as usize * PAGE_SIZE;
            assert!(page == image[at..at + PAGE_SIZE], "node page {id} differs");
        }
    }

    /// The writable tree reads a batch as one latched frontier walk on the
    /// caller's thread, whatever `threads` says, and a query as a batch of
    /// one: the answers, overlay or checkpointed, are the reopened image's.
    #[test]
    fn writable_query_batch_matches_the_read_only_reopen() {
        let tree = ConcurrentDiskRTree::create_writable(
            MemStore::new(),
            8,
            3,
            16,
            LruPolicy::new(),
            writer_wal(),
        )
        .unwrap();
        for id in 0..400u64 {
            tree.insert(&item_rect(id), id).unwrap();
        }
        for id in (0..400u64).step_by(7) {
            assert!(tree.delete(&item_rect(id), id).unwrap());
        }
        let queries = probe_queries();
        let batch = |threads| tree.query_batch(&queries, threads).unwrap();
        let live = [1, 2, 4].map(batch);
        tree.checkpoint().unwrap();
        let image = MemStore::from_bytes(tree.store().snapshot());
        let reopened = ConcurrentDiskRTree::open(image, 16, LruPolicy::new()).unwrap();
        let want = reopened.query_batch(&queries, 1).unwrap();
        assert!(want.iter().any(|r| !r.is_empty()));
        for (threads, got) in [1, 2, 4].into_iter().zip(live) {
            assert_eq!(got, want, "{threads} threads, overlay");
            assert_eq!(batch(threads), want, "{threads} threads, checkpointed");
        }
        for (q, want) in queries.iter().zip(&want) {
            assert_eq!(&tree.query(q).unwrap(), want, "{q:?}");
        }
    }

    /// A [`MemStore`] whose first shared read fails.
    struct FailingReads {
        inner: MemStore,
        failed: std::sync::atomic::AtomicBool,
    }

    impl PageStore for FailingReads {
        fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
            self.inner.read_page(id, buf)
        }
        fn write_page(&mut self, id: PageId, buf: &[u8]) -> io::Result<()> {
            self.inner.write_page(id, buf)
        }
        fn allocate(&mut self) -> io::Result<PageId> {
            self.inner.allocate()
        }
        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl SharedPageStore for FailingReads {
        fn read_page_shared(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
            if !self.failed.swap(true, Ordering::Relaxed) {
                return Err(io::Error::other("injected read fault"));
            }
            self.inner.read_page_shared(id, buf)
        }
    }

    impl ConcurrentPageStore for FailingReads {
        fn write_page_shared(&self, id: PageId, buf: &[u8]) -> io::Result<()> {
            self.inner.write_page_shared(id, buf)
        }
        fn allocate_shared(&self) -> io::Result<PageId> {
            self.inner.allocate_shared()
        }
        fn flush_shared(&self) -> io::Result<()> {
            self.inner.flush_shared()
        }
    }

    /// An insert whose descent fails leaves no log record, so the next
    /// commit cannot make it durable and replay cannot resurrect it.
    #[test]
    fn a_failed_insert_never_becomes_durable() {
        use rtree_wal::{LogBackend, MemLog, StagedLog, WalRecord};
        let bulk = BulkLoader::hilbert(16).load(&sample_rects(3_000));
        let mut image = MemStore::new();
        crate::DiskRTree::create(&mut image, &bulk, 4, LruPolicy::new()).unwrap();
        let image = image.snapshot();
        let store = FailingReads {
            inner: MemStore::from_bytes(image.clone()),
            failed: Default::default(),
        };
        let durable = MemLog::new();
        let wal = GroupWal::open(StagedLog::new(durable.clone())).unwrap();
        let tree = ConcurrentDiskRTree::open_writable(store, 4, LruPolicy::new(), wal).unwrap();
        let (failed, next) = ((item_rect(1), 1_000_002), (item_rect(2), 1_000_003));
        tree.insert(&failed.0, failed.1).unwrap_err();
        tree.insert(&next.0, next.1).unwrap();

        let log = durable.read_all().unwrap();
        let logged: Vec<u64> = rtree_wal::scan(&log)
            .records
            .iter()
            .filter_map(|r| match r {
                WalRecord::OpInsert { item, .. } => Some(*item),
                _ => None,
            })
            .collect();
        assert_eq!(logged, [next.1], "only the insert that succeeded");
        let store = MemStore::from_bytes(image);
        let recovered =
            ConcurrentDiskRTree::open_writable(store, 4, LruPolicy::new(), writer_wal()).unwrap();
        crate::replay_committed(&log, &recovered).unwrap();
        assert!(!recovered.contains(&failed.0, failed.1).unwrap());
        assert!(recovered.contains(&next.0, next.1).unwrap());
    }

    #[test]
    fn deep_deletes_condense_and_shrink_the_tree() {
        // Tiny fanout forces a tall tree, underflows, orphan reinsertion
        // and root shrinking through the exclusive fallback path.
        let tree = ConcurrentDiskRTree::create_writable(
            MemStore::new(),
            4,
            2,
            8,
            LruPolicy::new(),
            writer_wal(),
        )
        .unwrap();
        for id in 0..120u64 {
            tree.insert(&item_rect(id), id).unwrap();
        }
        let grown_height = {
            let w = tree.writer.as_ref().unwrap();
            let m = w.meta.lock();
            assert!(m.height > 2, "tree should be tall (got {})", m.height);
            m.height
        };
        for id in 0..110u64 {
            assert!(tree.delete(&item_rect(id), id).unwrap(), "item {id}");
        }
        {
            let w = tree.writer.as_ref().unwrap();
            let m = w.meta.lock();
            assert!(
                m.height < grown_height,
                "condense should shrink the root ({} -> {})",
                grown_height,
                m.height
            );
        }
        let mut rest = tree.query(&Rect::new(0.0, 0.0, 2.0, 2.0)).unwrap();
        rest.sort_unstable();
        assert_eq!(rest, (110..120).collect::<Vec<u64>>());
        // Dissolved pages are recycled by later growth.
        let freed = tree.writer.as_ref().unwrap().free.lock().len();
        assert!(freed > 0, "condense should have freed pages");
        for id in 200..260u64 {
            tree.insert(&item_rect(id), id).unwrap();
        }
        assert!(
            tree.writer.as_ref().unwrap().free.lock().len() < freed,
            "growth reuses the session free list"
        );
    }

    #[test]
    fn read_only_tree_rejects_writes() {
        let rects = sample_rects(100);
        let bulk = BulkLoader::hilbert(16).load(&rects);
        let tree =
            ConcurrentDiskRTree::create(MemStore::new(), &bulk, 16, LruPolicy::new()).unwrap();
        let err = tree.insert(&item_rect(1), 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        let err = tree.delete(&item_rect(1), 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        let err = tree.checkpoint().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn checkpoint_persists_an_openable_image() {
        let store = MemStore::new();
        let tree =
            ConcurrentDiskRTree::create_writable(store, 8, 3, 16, LruPolicy::new(), writer_wal())
                .unwrap();
        for id in 0..250u64 {
            tree.insert(&item_rect(id), id).unwrap();
        }
        for id in (0..250u64).step_by(5) {
            tree.delete(&item_rect(id), id).unwrap();
        }
        tree.checkpoint().unwrap();
        assert!(
            tree.group_commit_stats().unwrap().committed_ops > 0,
            "ops were committed before the checkpoint truncated the log"
        );
        let wal_len = tree.writer.as_ref().unwrap().wal.len();
        assert_eq!(wal_len, 0, "checkpoint truncates the WAL");
        let image = tree.store.snapshot();

        // The image opens both concurrently (read-only) and sequentially,
        // and agrees with the live writable tree on every probe.
        let reopened =
            ConcurrentDiskRTree::open(MemStore::from_bytes(image.clone()), 16, LruPolicy::new())
                .unwrap();
        let mut seq =
            crate::DiskRTree::open(MemStore::from_bytes(image), 16, LruPolicy::new()).unwrap();
        for q in probe_queries() {
            let mut live = tree.query(&q).unwrap();
            let mut ro = reopened.query(&q).unwrap();
            let mut sq = seq.query(&q).unwrap();
            live.sort_unstable();
            ro.sort_unstable();
            sq.sort_unstable();
            assert_eq!(live, ro);
            assert_eq!(live, sq);
        }
        assert_eq!(reopened.meta().items, tree.live_items());
    }

    /// A `DiskRTree` leaves dissolved pages on the image's free list; a
    /// writable open adopts them, so the store does not grow until they
    /// are used up.
    #[test]
    fn open_writable_recycles_the_images_free_list() {
        let mut disk =
            crate::DiskRTree::create_empty(MemStore::new(), 6, 2, 16, LruPolicy::new()).unwrap();
        for id in 0..200u64 {
            disk.insert(item_rect(id), id).unwrap();
        }
        for id in 0..200u64 {
            assert!(disk.delete(&item_rect(id), id).unwrap());
        }
        disk.flush().unwrap();
        assert_eq!(disk.meta().nodes, 1, "collapsed to a root leaf");
        assert_ne!(disk.meta().free_head, 0, "dissolved pages were freed");
        let store = disk.into_store();
        let pages = store.page_count();

        let tree =
            ConcurrentDiskRTree::open_writable(store, 16, LruPolicy::new(), writer_wal()).unwrap();
        let free = || tree.writer.as_ref().unwrap().free.lock().len() as u64;
        assert_eq!(free(), pages - 2, "all but the meta page and the root");
        let mut id = 0;
        while free() > 0 {
            tree.insert(&item_rect(id), id).unwrap();
            assert_eq!(tree.store.page_count(), pages, "recycled, not grown");
            id += 1;
        }
        while tree.store.page_count() == pages {
            tree.insert(&item_rect(id), id).unwrap();
            id += 1;
        }
        assert_eq!(free(), 0, "the store grows only once the list is used up");

        tree.checkpoint().unwrap();
        let image = MemStore::from_bytes(tree.store.snapshot());
        let mut seq = crate::DiskRTree::open(image, 16, LruPolicy::new()).unwrap();
        let mut all = seq.query(&Rect::new(0.0, 0.0, 2.0, 2.0)).unwrap();
        all.sort_unstable();
        assert_eq!(all, (0..id).collect::<Vec<u64>>());
    }

    #[test]
    fn open_writable_rejects_a_corrupt_free_list() {
        use crate::page::encode_free_page;
        let open = |patch: &dyn Fn(&mut MemStore) -> u64| {
            let mut store = MemStore::new();
            let mut meta = materialize_empty(&mut store, 6, 2, false).unwrap();
            meta.free_head = patch(&mut store);
            let mut buf = vec![0u8; PAGE_SIZE];
            meta.encode(&mut buf);
            store.write_page(PageId(0), &buf).unwrap();
            ConcurrentDiskRTree::open_writable(store, 16, LruPolicy::new(), writer_wal())
                .map(drop)
                .unwrap_err()
        };
        // The head names a live node: bad tag.
        let err = open(&|_| 1);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), PageError::BadMagic.to_string());
        // A free page chaining to itself: the walk is bounded.
        let err = open(&|store| {
            let id = store.allocate().unwrap();
            let mut buf = vec![0u8; PAGE_SIZE];
            encode_free_page(id.0, &mut buf);
            store.write_page(id, &buf).unwrap();
            id.0
        });
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("free list cycles"), "{err}");
        // The head points past the store: the read fails, typed by the store.
        assert_eq!(open(&|_| 99).kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Satellite: N concurrent writers + a reader match the sequential
    /// tree across all five replacement policies. Threads insert disjoint
    /// id ranges and delete only their own items, so the final contents
    /// are deterministic regardless of interleaving.
    #[test]
    fn concurrent_writers_match_sequential_across_policies() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 120;
        let id_of = |t: u64, i: u64| (t << 40) | i;

        // Sequential oracle: same ops, one thread, the paper's tree.
        let mut oracle =
            crate::DiskRTree::create_empty(MemStore::new(), 6, 2, 16, LruPolicy::new()).unwrap();
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let id = id_of(t, i);
                oracle.insert(item_rect(id), id).unwrap();
            }
        }
        for t in 0..THREADS {
            for i in (0..PER_THREAD).step_by(3) {
                let id = id_of(t, i);
                assert!(oracle.delete(&item_rect(id), id).unwrap());
            }
        }

        for (name, make_policy) in policy_table() {
            let tree = ConcurrentDiskRTree::create_writable(
                MemStore::new(),
                6,
                2,
                16,
                BoxedPolicy(make_policy()),
                writer_wal(),
            )
            .unwrap();
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let tree = &tree;
                    scope.spawn(move || {
                        for i in 0..PER_THREAD {
                            let id = id_of(t, i);
                            tree.insert(&item_rect(id), id).unwrap();
                            if i % 3 == 0 {
                                assert!(
                                    tree.delete(&item_rect(id), id).unwrap(),
                                    "own item {id} must be present"
                                );
                            }
                        }
                    });
                }
                // A reader hammering queries concurrently must never
                // deadlock or observe a torn page.
                let tree = &tree;
                scope.spawn(move || {
                    for q in probe_queries().iter().cycle().take(200) {
                        tree.query(q).unwrap();
                    }
                });
            });
            assert_eq!(
                tree.live_items(),
                THREADS * (PER_THREAD - PER_THREAD.div_ceil(3)),
                "policy {name}"
            );
            for q in probe_queries() {
                let mut got = tree.query(&q).unwrap();
                let mut want = oracle.query(&q).unwrap();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "policy {name}, query {q:?}");
            }
            let stats = tree.group_commit_stats().unwrap();
            assert!(
                stats.committed_ops >= THREADS * PER_THREAD,
                "policy {name}: every op commits"
            );
        }
    }

    #[test]
    fn resize_repartitions_shards_and_keeps_pins_and_answers() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk =
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 64, 4, LruPolicy::new)
                .unwrap();
        assert_eq!(disk.buffer_capacity(), 64);
        disk.pin_top_levels(2).unwrap();
        let pinned = disk.pinned_pages();
        assert!(pinned > 0);
        let q = Rect::new(0.1, 0.1, 0.5, 0.5);
        let mut want = disk.query(&q).unwrap();
        want.sort_unstable();

        // Shrinking below the shard count or a shard's pinned share fails
        // with the pools untouched.
        assert_eq!(
            disk.resize_buffer(3, LruPolicy::new).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(
            disk.resize_buffer(pinned.max(4) - 1, LruPolicy::new)
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(disk.buffer_capacity(), 64);
        assert_eq!(disk.pinned_pages(), pinned);

        // A legal resize keeps the pins and the answers; pinned frames
        // carry over so re-reading them costs no I/O.
        disk.resize_buffer(24, LruPolicy::new).unwrap();
        assert_eq!(disk.buffer_capacity(), 24);
        assert_eq!(disk.pinned_pages(), pinned);
        let before = disk.physical_reads();
        let mut got = disk.query(&q).unwrap();
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(disk.physical_reads() >= before, "counters survive resize");
    }

    #[test]
    fn set_pinned_levels_retargets_without_io() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
        disk.pin_top_levels(2).unwrap();
        let deep = disk.pinned_pages();
        let reads = disk.physical_reads();
        // Retargeting to fewer levels unpins without touching the store.
        disk.set_pinned_levels(1).unwrap();
        assert!(disk.pinned_pages() < deep);
        assert_eq!(disk.physical_reads(), reads, "unpin is I/O-free");
        // Re-pinning the already-resident second level is also free.
        disk.set_pinned_levels(2).unwrap();
        assert_eq!(disk.pinned_pages(), deep);
        assert_eq!(disk.physical_reads(), reads, "frames stayed resident");
        disk.set_pinned_levels(0).unwrap();
        assert_eq!(disk.pinned_pages(), 0);
    }

    #[test]
    fn point_query_matches_degenerate_region_query() {
        let rects = sample_rects(1_000);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 32, LruPolicy::new()).unwrap();
        for i in 0..40 {
            let p = Point::new((i as f64 * 0.171) % 1.0, (i as f64 * 0.257) % 1.0);
            let mut a = disk.query_point(&p).unwrap();
            let mut b = disk.query(&Rect { lo: p, hi: p }).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "point {p:?}");
        }
        // Boundary inclusivity: a point on a rect edge matches it.
        let edge = Point::new(rects[7].lo.x, rects[7].lo.y);
        assert!(disk.query_point(&edge).unwrap().contains(&7));
    }

    #[test]
    fn concurrent_knn_matches_in_memory_knn() {
        let rects = sample_rects(1_500);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk = Arc::new(
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 48, LruPolicy::new()).unwrap(),
        );
        let probes = [
            (Point::new(0.5, 0.5), 10),
            (Point::new(0.0, 0.0), 1),
            (Point::new(-3.0, 7.0), 25),
            (Point::new(0.25, 0.75), 1_500),
            (Point::new(0.9, 0.1), 4_000),
        ];
        std::thread::scope(|scope| {
            for t in 0..3 {
                let disk = Arc::clone(&disk);
                let tree = &tree;
                scope.spawn(move || {
                    for (p, k) in probes.iter().skip(t).step_by(3) {
                        let got = disk.nearest_neighbors(p, *k).unwrap();
                        let want = tree.nearest_neighbors(p, *k);
                        let gd: Vec<f64> = got.iter().map(|n| n.distance).collect();
                        let wd: Vec<f64> = want.iter().map(|n| n.distance).collect();
                        assert_eq!(gd, wd, "distance sequence, p {p:?} k {k}");
                    }
                });
            }
        });
        assert!(disk
            .nearest_neighbors(&Point::new(0.5, 0.5), 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn writable_knn_sees_inserts_and_deletes() {
        fn d2(p: &Point, r: &Rect) -> f64 {
            let dx = (r.lo.x - p.x).max(0.0).max(p.x - r.hi.x);
            let dy = (r.lo.y - p.y).max(0.0).max(p.y - r.hi.y);
            dx * dx + dy * dy
        }
        let tree = ConcurrentDiskRTree::create_writable(
            MemStore::new(),
            8,
            3,
            16,
            LruPolicy::new(),
            writer_wal(),
        )
        .unwrap();
        assert!(
            tree.nearest_neighbors(&Point::new(0.5, 0.5), 3)
                .unwrap()
                .is_empty(),
            "empty writable tree"
        );
        let n = 400u64;
        for id in 0..n {
            tree.insert(&item_rect(id), id).unwrap();
        }
        for id in (0..n).step_by(4) {
            assert!(tree.delete(&item_rect(id), id).unwrap());
        }
        let live: Vec<u64> = (0..n).filter(|id| id % 4 != 0).collect();
        for (p, k) in [
            (Point::new(0.5, 0.5), 7),
            (Point::new(0.05, 0.95), 1),
            (Point::new(0.3, 0.3), live.len() + 10),
        ] {
            let got = tree.nearest_neighbors(&p, k).unwrap();
            let mut want: Vec<f64> = live
                .iter()
                .map(|&id| d2(&p, &item_rect(id)).sqrt())
                .collect();
            want.sort_by(f64::total_cmp);
            want.truncate(k);
            let gd: Vec<f64> = got.iter().map(|n| n.distance).collect();
            assert_eq!(gd, want, "p {p:?} k {k}");
            for nb in &got {
                assert!(live.contains(&nb.id), "deleted item {} resurfaced", nb.id);
            }
        }
    }

    /// Adapter: the writable constructor takes `impl ReplacementPolicy`,
    /// the policy table produces boxed ones.
    struct BoxedPolicy(Box<dyn ReplacementPolicy>);

    impl ReplacementPolicy for BoxedPolicy {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn on_hit(&mut self, page: PageId) {
            self.0.on_hit(page);
        }
        fn on_insert(&mut self, page: PageId) {
            self.0.on_insert(page);
        }
        fn evict(&mut self) -> PageId {
            self.0.evict()
        }
        fn remove(&mut self, page: PageId) {
            self.0.remove(page);
        }
        fn on_unpin(&mut self, page: PageId) {
            self.0.on_unpin(page);
        }
    }
}
