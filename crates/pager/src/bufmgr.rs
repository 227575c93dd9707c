//! The buffer manager: a [`BufferPool`] plus page frames over a
//! [`PageStore`], counting physical reads and writes.
//!
//! Writes are write-back ([`BufferManager::write_buffered`]): the page is
//! updated in its frame and marked dirty; it reaches the store only on
//! eviction, [`BufferManager::flush_all`] or [`BufferManager::checkpoint`].
//! When a [`Wal`] is attached, every buffered write logs a full before/after
//! page image first, and a dirty page is never written back before the log
//! is synced — the write-ahead rule that makes crash recovery possible.

use crate::trace::{EventKind, Span, Tracer};
use crate::{PageStore, PAGE_SIZE};
use rtree_buffer::{AccessOutcome, BufferPool, PageId, PinError, ReplacementPolicy};
use rtree_wal::Wal;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

/// Physical I/O counters, shared by every disk-access measurement in the
/// workspace: one shape for reads and writes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Physical page reads from the store.
    pub reads: u64,
    /// Physical page writes to the store.
    pub writes: u64,
    /// Physical reads performed by the *uncharged* root-MBR peek. The
    /// paper's model semantics exclude the peek from `reads` (a node is
    /// accessed iff its MBR intersects the query), but the transfer still
    /// happens — it is surfaced here so no physical I/O is silently
    /// dropped from the accounting.
    pub peek_reads: u64,
    /// The share of `reads` issued by [`BufferManager::prefetch`] rather
    /// than a demand miss (so `prefetch_reads <= reads`, and demand misses
    /// are `reads - prefetch_reads`). Prefetch fills are real physical
    /// transfers — they stay inside `reads` so "physical reads" keeps
    /// meaning every charged page-in — but no query's miss count is
    /// inflated by them: the consuming access later lands as a hit.
    pub prefetch_reads: u64,
}

impl IoStats {
    /// Total physical page transfers, peeks included (`reads` already
    /// includes prefetch fills).
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.peek_reads
    }

    /// Physical reads charged to demand misses (excludes prefetch fills).
    pub fn demand_reads(&self) -> u64 {
        self.reads - self.prefetch_reads
    }
}

/// What [`BufferManager::prefetch`] did for a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The page was read from the store into a frame and **pinned**; the
    /// caller must [`BufferManager::unpin`] it after the consuming access.
    Fetched,
    /// The page was already resident: nothing was read or pinned.
    Resident,
    /// No frame could be reserved (every frame pinned); nothing was read.
    /// The caller should stop issuing readahead for now.
    NoCapacity,
}

/// Why a page is being read into a frame: decides the checksum gate, the
/// counter and the trace event of the one page-in routine.
#[derive(Clone, Copy, PartialEq)]
enum PageIn {
    /// A demand miss or the load of a pinned page.
    Demand,
    /// Readahead: also counted in [`IoStats::prefetch_reads`].
    Prefetch,
    /// The before-image of a buffered write. Unverified: an overwrite must
    /// be able to repair a corrupt page.
    BeforeImage,
}

/// A fresh page frame (one allocation; filled in place at page-in).
fn zeroed_frame() -> Arc<[u8]> {
    Arc::new([0u8; PAGE_SIZE])
}

/// The bytes of `frame`, for overwriting. A frame some reader still holds
/// (a latched manager hands out clones) is left to that reader and replaced
/// by a fresh one, so a reader never sees a frame change under it.
fn exclusive(frame: &mut Arc<[u8]>) -> &mut [u8] {
    if Arc::get_mut(frame).is_none() {
        *frame = zeroed_frame();
    }
    Arc::get_mut(frame).expect("a fresh frame is unshared")
}

/// The buffer cache: page contents held according to the pool's replacement
/// decisions, with every physical page transfer counted. One frame per
/// resident page. Used bare by the sequential [`crate::DiskRTree`], whose
/// fetches borrow a frame, and behind one latch per shard by
/// [`crate::ConcurrentDiskRTree`], whose fetches clone the frame's `Arc` so
/// that decoding runs outside the latch.
pub struct BufferManager<S> {
    store: S,
    pool: BufferPool,
    frames: HashMap<PageId, Arc<[u8]>>,
    /// Scratch frame for reads that bypass a fully pinned pool.
    scratch: Arc<[u8]>,
    stats: IoStats,
    wal: Option<Wal>,
    /// Verify page checksums at read-in (see
    /// [`BufferManager::set_verify_reads`]).
    verify_reads: bool,
    /// The sink (if any) and current attribution of trace events.
    pub(crate) tracer: Tracer,
}

impl<S: PageStore> BufferManager<S> {
    /// Creates a manager with `capacity` frames and the given policy.
    pub fn new(store: S, capacity: usize, policy: impl ReplacementPolicy + 'static) -> Self {
        BufferManager {
            store,
            pool: BufferPool::new(capacity, policy),
            frames: HashMap::with_capacity(capacity + 1),
            scratch: zeroed_frame(),
            stats: IoStats::default(),
            wal: None,
            verify_reads: false,
            tracer: Tracer::default(),
        }
    }

    /// Enables (or disables) checksum verification of every page the
    /// manager reads from the store on the *read* paths — demand misses,
    /// pins, prefetch fills and scratch reads alike (before-image reads on
    /// the buffered-write path are exempt: an overwrite must be able to
    /// repair a corrupt page). With this on, a frame served from the pool
    /// is known-good, so readers may skip their own checksum pass
    /// ([`crate::PageView`], [`crate::NodeSoA::decode_into_trusted`]):
    /// corruption is caught
    /// exactly once, at page-in, instead of on every traversal of a
    /// resident frame. The tree layers enable this; the default is off so
    /// the manager stays format-agnostic for raw-page users.
    pub fn set_verify_reads(&mut self, on: bool) {
        self.verify_reads = on;
    }

    /// Checksum gate applied to freshly read bytes when
    /// [`BufferManager::set_verify_reads`] is on.
    fn verify_read(&self, id: PageId, frame: &[u8]) -> io::Result<()> {
        if self.verify_reads {
            crate::page::verify_checksum(frame).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("page {}: {e}", id.0))
            })?;
        }
        Ok(())
    }

    /// Attaches a write-ahead log; from here on every buffered write is
    /// logged with before/after images and eviction enforces the WAL rule.
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// Physical I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.stats
    }

    /// Number of physical page reads so far.
    pub fn physical_reads(&self) -> u64 {
        self.stats.reads
    }

    /// Number of physical page writes so far.
    pub fn physical_writes(&self) -> u64 {
        self.stats.writes
    }

    /// Resets the I/O counters (e.g. after warm-up).
    pub fn reset_counters(&mut self) {
        self.stats = IoStats::default();
        self.pool.reset_stats();
    }

    /// The underlying pool (for hit-ratio statistics).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The underlying store.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Tears the manager down, discarding frames (dirty pages are *not*
    /// written back — this simulates a crash; use
    /// [`BufferManager::flush_all`] first for an orderly shutdown).
    pub fn into_store(self) -> S {
        self.store
    }

    /// Writes a dirty page's frame to the store and clears its mark. The
    /// caller has synced the log (the WAL rule: the records covering a page
    /// must be durable before its image may overwrite the store).
    fn write_back(&mut self, id: PageId) -> io::Result<()> {
        let frame = self.frames.get(&id).expect("dirty page has a frame");
        self.store.write_page(id, frame)?;
        self.stats.writes += 1;
        self.pool.clear_dirty(id);
        self.tracer.emit_at(id, -1, EventKind::WriteBack);
        Ok(())
    }

    /// Writes the evicted page back if dirty (log first), then gives up its
    /// frame. On an error the frame and the dirty mark are still there.
    fn retire_victim(&mut self, victim: PageId) -> io::Result<Arc<[u8]>> {
        if self.pool.is_dirty(victim) {
            if let Some(wal) = &mut self.wal {
                wal.sync()?;
            }
            self.write_back(victim)?;
        }
        Ok(self
            .frames
            .remove(&victim)
            .expect("resident page has a frame"))
    }

    /// Completes an admission the pool has just made for `id` (a miss, a
    /// pin or a readahead reservation): retires the evicted victim, reads
    /// the page into the frame the victim gave up (a fresh one while the
    /// pool is filling, or when a reader still holds the victim's) and
    /// installs it. On any error the admission is backed out, so the next
    /// access misses and re-reads instead of hitting a frameless resident
    /// entry; the frame, whatever the failed read left in it, is dropped.
    fn page_in(&mut self, id: PageId, evicted: Option<PageId>, why: PageIn) -> io::Result<()> {
        let loaded: io::Result<Arc<[u8]>> = (|| {
            let mut frame = match evicted {
                Some(victim) => self.retire_victim(victim)?,
                None => zeroed_frame(),
            };
            self.store.read_page(id, exclusive(&mut frame))?;
            if why != PageIn::BeforeImage {
                self.verify_read(id, &frame)?;
            }
            Ok(frame)
        })();
        let frame = match loaded {
            Ok(frame) => frame,
            Err(e) => {
                self.pool.unpin(id);
                self.pool.discard(id);
                // A victim that still has its frame was not written back,
                // and that frame is the only copy of its update: it takes
                // back the slot `id` just gave up, dirty mark intact.
                if let Some(victim) = evicted.filter(|v| self.frames.contains_key(v)) {
                    self.pool
                        .admit_pinned(victim)
                        .expect("backing the admission out freed a frame");
                    self.pool.unpin(victim);
                }
                return Err(e);
            }
        };
        self.stats.reads += 1;
        self.stats.prefetch_reads += u64::from(why == PageIn::Prefetch);
        self.frames.insert(id, frame);
        self.tracer.emit(
            id,
            match why {
                PageIn::Prefetch => EventKind::Prefetch,
                _ => EventKind::Miss,
            },
        );
        Ok(())
    }

    /// Reads a page into the scratch frame, bypassing the pool.
    fn fill_scratch(&mut self, id: PageId, verify: bool) -> io::Result<()> {
        self.store.read_page(id, exclusive(&mut self.scratch))?;
        if verify {
            self.verify_read(id, &self.scratch)?;
        }
        Ok(())
    }

    /// One charged access, going to the store only on a miss. Afterwards
    /// the page's bytes are in its frame (`true`) or, when every frame is
    /// pinned, in the scratch frame (`false`).
    fn access(&mut self, id: PageId, why: PageIn) -> io::Result<bool> {
        match self.pool.access(id) {
            AccessOutcome::Hit => self.tracer.emit(id, EventKind::Hit),
            AccessOutcome::Miss { evicted } => self.page_in(id, evicted, why)?,
            AccessOutcome::MissBypass => {
                self.fill_scratch(id, why != PageIn::BeforeImage)?;
                self.stats.reads += 1;
                self.tracer.emit(id, EventKind::Miss);
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Fetches a raw or free-list page, going to the store only on a miss,
    /// under no span or level (span 0, level -1; node pages carry theirs).
    pub fn fetch(&mut self, id: PageId) -> io::Result<&[u8]> {
        Ok(self.fetch_in(id, -1, &mut Span::default())?)
    }

    /// [`BufferManager::fetch`] for `span`, of a page at tree level `level`:
    /// the access is counted in the span and its events carry both. Hands
    /// out the frame itself, so a latched caller can decode outside its latch.
    pub(crate) fn fetch_in(
        &mut self,
        id: PageId,
        level: i16,
        span: &mut Span,
    ) -> io::Result<&Arc<[u8]>> {
        self.tracer.at_level(span, level);
        let reads = self.stats.reads;
        let resident = self.access(id, PageIn::Demand)?;
        span.charge(self.stats.reads != reads);
        if !resident {
            return Ok(&self.scratch);
        }
        Ok(self.frames.get(&id).expect("resident page has a frame"))
    }

    /// Pins a page: loads it (counting the read) and keeps it resident.
    pub fn pin(&mut self, id: PageId) -> io::Result<()> {
        let was_resident = self.pool.contains(id);
        let evicted = self
            .pool
            .pin(id)
            .map_err(|e: PinError| io::Error::new(io::ErrorKind::OutOfMemory, e.to_string()))?;
        if was_resident {
            return Ok(());
        }
        self.page_in(id, evicted, PageIn::Demand)
    }

    /// Reads a page ahead of its demand access. On [`PrefetchOutcome::Fetched`]
    /// the frame is filled and **pinned** so it cannot be evicted before the
    /// access that consumes it — the caller unpins after that access. The
    /// transfer counts as a physical read (`IoStats::reads`, with the
    /// prefetch share mirrored in `IoStats::prefetch_reads`) but **not** as
    /// a pool access: no miss is charged to any query, and the later
    /// consuming access lands as a hit. Emits `EventKind::Prefetch`
    /// instead of a miss.
    pub fn prefetch(&mut self, id: PageId) -> io::Result<PrefetchOutcome> {
        if self.pool.contains(id) {
            return Ok(PrefetchOutcome::Resident);
        }
        if self.pool.pinned_count() >= self.pool.capacity() {
            return Ok(PrefetchOutcome::NoCapacity);
        }
        let evicted = self
            .pool
            .admit_pinned(id)
            .expect("a frame is free: pinned_count < capacity was checked");
        self.page_in(id, evicted, PageIn::Prefetch)?;
        Ok(PrefetchOutcome::Fetched)
    }

    /// Unpins a page pinned by [`BufferManager::pin`] or
    /// [`BufferManager::prefetch`]; it stays resident and re-enters the
    /// replacement order as most recently used.
    pub fn unpin(&mut self, id: PageId) {
        self.pool.unpin(id);
    }

    /// Reads a page *without* charging the buffer: a resident frame is
    /// peeked (no policy touch), a non-resident page goes through the
    /// scratch frame, bypassing the pool and the model's `reads` counter.
    /// That transfer is still physical I/O, so it lands in
    /// [`IoStats::peek_reads`]. Used for the model-semantics root-MBR test
    /// (a node is accessed iff its MBR intersects the query); the caller
    /// attributes the peek ([`Tracer::at_level`]) first.
    pub(crate) fn fetch_uncharged(&mut self, id: PageId) -> io::Result<&Arc<[u8]>> {
        if self.frames.contains_key(&id) {
            return Ok(&self.frames[&id]);
        }
        self.fill_scratch(id, true)?;
        self.stats.peek_reads += 1;
        self.tracer.emit(id, EventKind::PeekRead);
        Ok(&self.scratch)
    }

    /// Replaces the frame of `id`, if it is resident, with an image the
    /// caller has already written to the store.
    pub(crate) fn refresh(&mut self, id: PageId, image: &Arc<[u8]>) {
        if let Some(frame) = self.frames.get_mut(&id) {
            *frame = Arc::clone(image);
        }
    }

    /// Buffered (write-back) page write: updates the frame, marks it dirty,
    /// and — with a WAL attached — logs the full before/after images first.
    /// The store is *not* touched unless the pool is fully pinned (then the
    /// write degrades to logged write-through via the scratch frame).
    pub fn write_buffered(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        assert_eq!(data.len(), PAGE_SIZE);
        // The before-image requires the current page contents.
        if !self.access(id, PageIn::BeforeImage)? {
            if let Some(wal) = &mut self.wal {
                wal.log_page_image(id.0, &self.scratch, data)?;
                wal.sync()?;
                self.tracer.emit(id, EventKind::WalAppend);
            }
            self.store.write_page(id, data)?;
            self.stats.writes += 1;
            self.tracer.emit(id, EventKind::WriteBack);
            return Ok(());
        }
        let frame = self.frames.get_mut(&id).expect("resident page has a frame");
        if let Some(wal) = &mut self.wal {
            wal.log_page_image(id.0, frame, data)?;
            self.tracer.emit(id, EventKind::WalAppend);
        }
        exclusive(frame).copy_from_slice(data);
        self.pool.mark_dirty(id);
        Ok(())
    }

    /// Allocates a fresh zeroed page in the store.
    pub fn allocate(&mut self) -> io::Result<PageId> {
        self.store.allocate()
    }

    /// Commits the current operation: appends a commit marker and syncs the
    /// log. No-op without a WAL.
    pub fn commit(&mut self) -> io::Result<()> {
        if let Some(wal) = &mut self.wal {
            wal.log_commit()?;
        }
        Ok(())
    }

    /// Writes every dirty page back to the store (log first) and issues the
    /// store's durability barrier.
    pub fn flush_all(&mut self) -> io::Result<()> {
        if let Some(wal) = &mut self.wal {
            wal.sync()?;
        }
        for id in self.pool.dirty_pages() {
            self.write_back(id)?;
        }
        self.store.flush()
    }

    /// Checkpoint: flush all dirty pages, then mark the log as redundant
    /// (checkpoint record + truncation). Call only between operations.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.flush_all()?;
        if let Some(wal) = &mut self.wal {
            wal.log_checkpoint()?;
            wal.truncate()?;
        }
        Ok(())
    }

    /// The currently pinned pages, in ascending order: `unpin_all` re-enters
    /// them into the replacement order one by one, so the map's per-instance
    /// iteration order would make the next evictions differ between runs.
    fn pinned_pages(&self) -> Vec<PageId> {
        let mut pinned: Vec<PageId> = self
            .frames
            .keys()
            .copied()
            .filter(|&id| self.pool.is_pinned(id))
            .collect();
        pinned.sort_unstable();
        pinned
    }

    /// Replaces the buffer pool with a fresh one of `capacity` frames under
    /// `policy`. Every dirty page is flushed first (log-first, as always),
    /// so no buffered state is lost; pinned pages *stay pinned* (their
    /// frames carry over) and the pool's hit/miss statistics restart from
    /// zero, while the cumulative [`IoStats`] and the attached WAL are
    /// preserved. Call only between operations.
    ///
    /// # Errors
    /// `InvalidInput` if `capacity` is smaller than the number of currently
    /// pinned pages — shrinking must never evict a pinned page, so the
    /// request is refused with the pool untouched.
    pub fn resize(
        &mut self,
        capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<()> {
        let pinned = self.pinned_pages();
        if capacity < pinned.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cannot resize to {capacity} frames: {} pages are pinned",
                    pinned.len()
                ),
            ));
        }
        self.flush_all()?;
        let mut pool = BufferPool::new(capacity, policy);
        for &id in &pinned {
            pool.admit_pinned(id)
                .expect("capacity was checked against the pinned count");
        }
        self.pool = pool;
        self.frames.retain(|&id, _| self.pool.is_pinned(id));
        Ok(())
    }

    /// Unpins every pinned page. The frames stay resident and re-enter
    /// replacement, so this costs no I/O — it only makes the pages
    /// evictable again (the controller's first step when it re-targets
    /// pinning at a different level set).
    pub fn unpin_all(&mut self) {
        for id in self.pinned_pages() {
            self.pool.unpin(id);
        }
    }

    /// Number of currently pinned pages.
    pub fn pinned_count(&self) -> usize {
        self.pool.pinned_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultStore, MemStore};
    use proptest::prelude::*;
    use rtree_buffer::LruPolicy;
    use rtree_wal::{CrashSwitch, LogBackend, MemLog, Wal, WalRecord};

    /// A store of `pages` pages, page `i` holding `i` in its first byte.
    fn filled_store(pages: usize) -> MemStore {
        let mut store = MemStore::new();
        for i in 0..pages {
            let id = store.allocate().unwrap();
            store.write_page(id, &page(i as u8)).unwrap();
        }
        store
    }

    fn make(pages: usize, capacity: usize) -> BufferManager<MemStore> {
        BufferManager::new(filled_store(pages), capacity, LruPolicy::new())
    }

    fn page(fill: u8) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = fill;
        buf
    }

    impl<S: PageStore> BufferManager<S> {
        /// Number of page frames held, to check against residency (also
        /// from the sharded tree's tests).
        pub(crate) fn frame_count(&self) -> usize {
            self.frames.len()
        }
    }

    #[test]
    fn fetch_caches_and_counts() {
        let mut m = make(4, 2);
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 1);
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 1);
        assert_eq!(m.physical_reads(), 1, "second fetch must hit");
        assert_eq!(m.fetch(PageId(2)).unwrap()[0], 2);
        assert_eq!(m.physical_reads(), 2);
        // Capacity 2: fetching a third page evicts the LRU (page 1).
        assert_eq!(m.fetch(PageId(3)).unwrap()[0], 3);
        assert_eq!(m.physical_reads(), 3);
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 1);
        assert_eq!(m.physical_reads(), 4, "page 1 was evicted");
        assert_eq!(m.frames.len(), 2, "frames track residency");
    }

    #[test]
    fn unpin_all_reenters_replacement_and_allows_shrink() {
        let mut m = make(6, 4);
        m.pin(PageId(1)).unwrap();
        m.pin(PageId(2)).unwrap();
        m.pin(PageId(3)).unwrap();
        assert_eq!(m.pinned_count(), 3);
        // Shrinking below the pinned count is refused...
        assert!(m.resize(2, LruPolicy::new()).is_err());
        // ...but after unpin_all the same shrink succeeds, and unpinning
        // itself costs no I/O.
        let reads = m.physical_reads();
        m.unpin_all();
        assert_eq!(m.pinned_count(), 0);
        assert_eq!(m.physical_reads(), reads);
        m.resize(2, LruPolicy::new()).unwrap();
        assert_eq!(m.pool().capacity(), 2);
    }

    /// Regression: `unpin_all` walked the frame map in its per-instance hash
    /// order, so the released pages' LRU order, and with it every later
    /// eviction and read count, differed between two identical runs.
    #[test]
    fn unpin_all_releases_pages_in_a_reproducible_order() {
        let run = || {
            let mut m = make(64, 40);
            for id in 0..40 {
                m.pin(PageId(id)).unwrap();
            }
            m.unpin_all();
            // Every miss now evicts one of the released pages; coming back
            // to them afterwards hits or misses by the order they left in.
            let mut evicted = Vec::new();
            for id in (40..64).chain(0..40) {
                let before: Vec<PageId> = m.frames.keys().copied().collect();
                m.fetch(PageId(id)).unwrap();
                evicted.extend(before.into_iter().filter(|&page| !m.pool.contains(page)));
            }
            (m.io_stats(), m.pool().stats(), evicted)
        };
        let (first, second) = (run(), run());
        assert_eq!(first, second);
        // Released in ascending order, so LRU gives them up in that order.
        let expected: Vec<PageId> = (0..24).map(PageId).collect();
        assert_eq!(first.2[..24], expected[..]);
    }

    /// The allocation behind the frame of resident page `id`.
    fn frame_ptr<S: PageStore>(m: &BufferManager<S>, id: u64) -> *const u8 {
        Arc::as_ptr(&m.frames[&PageId(id)]).cast()
    }

    #[test]
    fn page_in_reuses_an_unshared_victims_frame() {
        let mut m = make(4, 2);
        // Filling the empty pool allocates: there is no victim to reuse.
        m.fetch(PageId(0)).unwrap();
        m.fetch(PageId(1)).unwrap();
        let (first, second) = (frame_ptr(&m, 0), frame_ptr(&m, 1));
        assert_ne!(first, second);
        // A miss that evicts reads into the allocation the victim gave up.
        assert_eq!(m.fetch(PageId(2)).unwrap()[0], 2);
        assert_eq!(frame_ptr(&m, 2), first, "page 0's frame was not reused");
        assert_eq!(m.fetch(PageId(3)).unwrap()[0], 3);
        assert_eq!(frame_ptr(&m, 3), second);
        assert_eq!(m.frames.len(), 2);
    }

    #[test]
    fn page_in_leaves_a_shared_victims_frame_to_its_reader() {
        let mut m = make(4, 2);
        // What a latched reader does: keep the frame past the fetch.
        let held = Arc::clone(m.fetch_in(PageId(0), -1, &mut Span::default()).unwrap());
        m.fetch(PageId(1)).unwrap();
        assert_eq!(m.fetch(PageId(2)).unwrap()[0], 2, "evicts page 0");
        assert!(!m.pool.contains(PageId(0)));
        assert_eq!(held[..], page(0)[..], "the reader's frame changed under it");
        assert_ne!(frame_ptr(&m, 2), Arc::as_ptr(&held).cast());
    }

    /// A store of `pages` sealed pages that all differ (free-list pages
    /// chaining to `100 + i`), for a manager that verifies its reads.
    fn sealed_store(pages: u64) -> MemStore {
        let mut store = MemStore::new();
        let mut buf = vec![0u8; PAGE_SIZE];
        for i in 0..pages {
            let id = store.allocate().unwrap();
            crate::page::encode_free_page(100 + i, &mut buf);
            store.write_page(id, &buf).unwrap();
        }
        store
    }

    #[test]
    fn failed_page_in_drops_the_reused_frame() {
        // Page 3 is corrupt on the store, and the third read fails once.
        let mut inner = sealed_store(4);
        let mut corrupt = vec![0u8; PAGE_SIZE];
        inner.read_page(PageId(3), &mut corrupt).unwrap();
        corrupt[2000] ^= 0x01;
        inner.write_page(PageId(3), &corrupt).unwrap();
        let store = FaultStore::new(inner, CrashSwitch::new()).fail_read_at(3);
        let mut m = BufferManager::new(store, 2, LruPolicy::new());
        m.set_verify_reads(true);
        // The next fetch of `id` misses and returns the store's bytes.
        fn assert_rereads(m: &mut BufferManager<FaultStore<MemStore>>, id: u64) {
            let mut stored = vec![0u8; PAGE_SIZE];
            m.store_mut().read_page(PageId(id), &mut stored).unwrap();
            let reads = m.physical_reads();
            assert_eq!(m.fetch(PageId(id)).unwrap()[..], stored[..], "page {id}");
            assert_eq!(
                m.physical_reads(),
                reads + 1,
                "page {id} was still resident"
            );
        }
        m.fetch(PageId(0)).unwrap();
        m.fetch(PageId(1)).unwrap();
        // Injected fault: clean victim 0 has given its frame up, and the
        // read into it failed. Neither page keeps it.
        assert!(m.fetch(PageId(2)).is_err());
        assert!(!m.pool.contains(PageId(0)) && !m.pool.contains(PageId(2)));
        assert_eq!(m.frames.keys().copied().collect::<Vec<_>>(), [PageId(1)]);
        assert_rereads(&mut m, 2);
        // Checksum failure: clean victim 1's frame now holds all of corrupt
        // page 3, and is dropped with it.
        let err = m.fetch(PageId(3)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!m.pool.contains(PageId(1)) && !m.pool.contains(PageId(3)));
        assert_eq!(m.frames.keys().copied().collect::<Vec<_>>(), [PageId(2)]);
        assert_rereads(&mut m, 1);
        assert_rereads(&mut m, 0);
        assert!(m.fetch(PageId(3)).is_err(), "page 3 is still corrupt");
        assert_eq!(m.pinned_count(), 0);
        assert_eq!(m.frames.len(), m.pool.len(), "frames track residency");
    }

    #[test]
    fn pinned_page_never_reread() {
        let mut m = make(8, 2);
        m.pin(PageId(0)).unwrap();
        for i in 1..8 {
            m.fetch(PageId(i)).unwrap();
        }
        let before = m.physical_reads();
        assert_eq!(m.fetch(PageId(0)).unwrap()[0], 0);
        assert_eq!(m.physical_reads(), before);
    }

    #[test]
    fn bypass_when_fully_pinned() {
        let mut m = make(4, 2);
        m.pin(PageId(0)).unwrap();
        m.pin(PageId(1)).unwrap();
        assert_eq!(m.fetch(PageId(2)).unwrap()[0], 2);
        assert_eq!(m.fetch(PageId(2)).unwrap()[0], 2);
        // Bypass reads are never cached.
        assert_eq!(m.physical_reads(), 4);
    }

    #[test]
    fn reset_counters() {
        let mut m = make(2, 2);
        m.fetch(PageId(0)).unwrap();
        m.write_buffered(PageId(1), &page(1)).unwrap();
        m.flush_all().unwrap();
        assert_eq!(m.io_stats().writes, 1);
        m.reset_counters();
        assert_eq!(m.io_stats(), IoStats::default());
        assert_eq!(m.pool().stats().accesses, 0);
    }

    #[test]
    fn missing_page_errors() {
        let mut m = make(2, 2);
        assert!(m.fetch(PageId(77)).is_err());
        // The failed admission was backed out: a retry errors again
        // instead of "hitting" a resident page that has no frame.
        assert!(m.fetch(PageId(77)).is_err());
        assert!(m.pin(PageId(77)).is_err());
        assert!(m.write_buffered(PageId(77), &page(1)).is_err());
        assert!(!m.pool().contains(PageId(77)));
        assert_eq!(m.pinned_count(), 0);
    }

    #[test]
    fn buffered_write_defers_store_write_until_eviction() {
        let mut m = make(4, 2);
        m.write_buffered(PageId(0), &page(0xAA)).unwrap();
        assert_eq!(m.physical_writes(), 0, "write-back: store untouched");
        assert_eq!(m.fetch(PageId(0)).unwrap()[0], 0xAA, "frame holds new data");
        // Store still has the old image.
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store_mut().read_page(PageId(0), &mut raw).unwrap();
        assert_eq!(raw[0], 0);
        // Evict page 0 by touching two other pages.
        m.fetch(PageId(1)).unwrap();
        m.fetch(PageId(2)).unwrap();
        assert_eq!(m.physical_writes(), 1, "eviction wrote the dirty page");
        m.store_mut().read_page(PageId(0), &mut raw).unwrap();
        assert_eq!(raw[0], 0xAA);
    }

    #[test]
    fn flush_all_writes_every_dirty_page_once() {
        let mut m = make(4, 4);
        m.write_buffered(PageId(0), &page(10)).unwrap();
        m.write_buffered(PageId(2), &page(12)).unwrap();
        m.write_buffered(PageId(2), &page(13)).unwrap();
        m.flush_all().unwrap();
        assert_eq!(m.physical_writes(), 2, "one write per dirty page");
        assert_eq!(m.pool().dirty_count(), 0);
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store_mut().read_page(PageId(2), &mut raw).unwrap();
        assert_eq!(raw[0], 13, "last buffered content wins");
        // A second flush is a no-op.
        m.flush_all().unwrap();
        assert_eq!(m.physical_writes(), 2);
    }

    #[test]
    fn prefetch_reads_once_and_the_access_hits() {
        let mut m = make(4, 2);
        assert_eq!(m.prefetch(PageId(1)).unwrap(), PrefetchOutcome::Fetched);
        let io = m.io_stats();
        assert_eq!((io.reads, io.prefetch_reads), (1, 1));
        assert_eq!(io.demand_reads(), 0, "no miss charged to anyone");
        assert_eq!(m.pool().stats().accesses, 0, "prefetch is not an access");
        // The consuming access: a hit, no further read.
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 1);
        m.unpin(PageId(1));
        let io = m.io_stats();
        assert_eq!((io.reads, io.prefetch_reads), (1, 1));
        let s = m.pool().stats();
        assert_eq!((s.accesses, s.hits, s.misses), (1, 1, 0));
    }

    #[test]
    fn prefetched_page_survives_pressure_until_unpinned() {
        let mut m = make(8, 2);
        m.prefetch(PageId(1)).unwrap();
        // Demand traffic fills and churns the other frame; page 1 is pinned
        // by the readahead reservation, so it cannot be the victim.
        for i in 2..6 {
            m.fetch(PageId(i)).unwrap();
        }
        let before = m.physical_reads();
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 1);
        assert_eq!(m.physical_reads(), before, "reservation held the frame");
        m.unpin(PageId(1));
    }

    #[test]
    fn prefetch_resident_and_full_pools_are_no_ops() {
        let mut m = make(4, 2);
        m.fetch(PageId(1)).unwrap();
        assert_eq!(m.prefetch(PageId(1)).unwrap(), PrefetchOutcome::Resident);
        assert_eq!(m.io_stats().prefetch_reads, 0);
        m.pin(PageId(0)).unwrap();
        m.pin(PageId(2)).unwrap();
        // Every frame pinned: readahead declines instead of erroring.
        assert_eq!(m.prefetch(PageId(3)).unwrap(), PrefetchOutcome::NoCapacity);
        assert_eq!(m.io_stats().prefetch_reads, 0);
    }

    #[test]
    fn prefetch_missing_page_errors_without_reserving() {
        let mut m = make(2, 2);
        assert!(m.prefetch(PageId(77)).is_err());
        assert!(!m.pool().contains(PageId(77)), "failed read left state");
        assert_eq!(m.pool().pinned_count(), 0);
        assert_eq!(m.io_stats().prefetch_reads, 0);
    }

    #[test]
    fn wal_logs_before_and_after_images() {
        let log = MemLog::new();
        let mut m = make(2, 2);
        m.attach_wal(Wal::open(log.clone()).unwrap());
        m.write_buffered(PageId(1), &page(0x55)).unwrap();
        m.commit().unwrap();
        let records = rtree_wal::scan(&log.read_all().unwrap()).records;
        assert_eq!(records.len(), 2);
        match &records[0] {
            WalRecord::PageImage {
                page_id,
                before,
                after,
                ..
            } => {
                assert_eq!(*page_id, 1);
                assert_eq!(before[0], 1, "before-image is the store content");
                assert_eq!(after[0], 0x55);
            }
            other => panic!("expected page image, got {other:?}"),
        }
        assert!(matches!(records[1], WalRecord::Commit { .. }));
    }

    #[test]
    fn checkpoint_flushes_and_truncates_log() {
        let log = MemLog::new();
        let mut m = make(2, 2);
        m.attach_wal(Wal::open(log.clone()).unwrap());
        m.write_buffered(PageId(0), &page(0x42)).unwrap();
        m.commit().unwrap();
        m.checkpoint().unwrap();
        assert_eq!(log.read_all().unwrap().len(), 0, "log truncated");
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store_mut().read_page(PageId(0), &mut raw).unwrap();
        assert_eq!(raw[0], 0x42);
        assert_eq!(m.pool().dirty_count(), 0);
    }

    #[test]
    fn buffered_write_on_fully_pinned_pool_degrades_to_write_through() {
        let mut m = make(4, 2);
        m.pin(PageId(0)).unwrap();
        m.pin(PageId(1)).unwrap();
        m.write_buffered(PageId(2), &page(0x77)).unwrap();
        assert_eq!(m.physical_writes(), 1, "bypass writes through");
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store_mut().read_page(PageId(2), &mut raw).unwrap();
        assert_eq!(raw[0], 0x77);
    }

    #[test]
    fn resize_preserves_pins_and_refuses_to_shrink_below_them() {
        let mut m = make(8, 4);
        m.pin(PageId(0)).unwrap();
        m.pin(PageId(1)).unwrap();
        m.write_buffered(PageId(1), &page(0xC3)).unwrap();

        // Shrinking below the pinned count is refused, pool untouched.
        let err = m.resize(1, LruPolicy::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(m.pool.pinned_count(), 2, "failed resize changed nothing");
        assert!(m.pool.is_pinned(PageId(0)));

        // A legal resize keeps the pinned pages resident and pinned, with
        // their (flushed) frames intact — no re-read needed.
        m.resize(2, LruPolicy::new()).unwrap();
        assert_eq!(m.pool.pinned_count(), 2);
        assert_eq!(m.frames.len(), 2);
        let before = m.physical_reads();
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 0xC3);
        assert_eq!(m.physical_reads(), before, "pinned frame carried over");
        // The dirty pin was flushed (log-first) before the swap.
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store_mut().read_page(PageId(1), &mut raw).unwrap();
        assert_eq!(raw[0], 0xC3);
    }

    /// Capacity 2 with dirty page 1 next in line for eviction, over a store
    /// that fails its first write: the eviction's write-back fails once.
    fn dirty_victim_over_a_failing_write() -> BufferManager<FaultStore<MemStore>> {
        let store = FaultStore::new(filled_store(4), CrashSwitch::new()).fail_write_at(1);
        let mut m = BufferManager::new(store, 2, LruPolicy::new());
        m.write_buffered(PageId(1), &page(0xAA)).unwrap();
        m.fetch(PageId(2)).unwrap();
        m
    }

    /// After the failed admission of page 3: no trace of it, and the victim
    /// is still resident, dirty and framed, so its update is not lost.
    fn assert_victim_kept_its_update(m: &mut BufferManager<FaultStore<MemStore>>) {
        assert!(!m.pool.contains(PageId(3)), "admission not backed out");
        assert_eq!(m.pinned_count(), 0);
        assert_eq!(m.frames.len(), m.pool.len(), "frames track residency");
        assert!(m.pool.is_dirty(PageId(1)));
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 0xAA, "buffered update lost");
        // The fault was transient: the retry evicts for real, and the
        // update reaches the store.
        assert_eq!(m.fetch(PageId(3)).unwrap()[0], 3);
        m.flush_all().unwrap();
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store_mut().read_page(PageId(1), &mut raw).unwrap();
        assert_eq!(raw[0], 0xAA);
    }

    #[test]
    fn failed_write_back_on_a_demand_miss_keeps_the_dirty_victim() {
        let mut m = dirty_victim_over_a_failing_write();
        assert!(m.fetch(PageId(3)).is_err(), "injected fault surfaces");
        assert_victim_kept_its_update(&mut m);
    }

    #[test]
    fn failed_write_back_on_a_prefetch_keeps_the_dirty_victim() {
        let mut m = dirty_victim_over_a_failing_write();
        assert!(m.prefetch(PageId(3)).is_err(), "injected fault surfaces");
        m.unpin(PageId(3));
        assert_victim_kept_its_update(&mut m);
    }

    #[derive(Clone, Debug)]
    enum Step {
        Fetch(u64),
        Pin(u64),
        Unpin(u64),
        Prefetch(u64),
        Write(u64, u8),
        Resize(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        let id = || 0u64..8;
        prop_oneof![
            id().prop_map(Step::Fetch),
            id().prop_map(Step::Pin),
            id().prop_map(Step::Unpin),
            id().prop_map(Step::Prefetch),
            (id(), any::<u8>()).prop_map(|(id, fill)| Step::Write(id, fill)),
            (1usize..5).prop_map(Step::Resize),
        ]
    }

    /// A transient fault fires once, so a retried call succeeds.
    fn retry<T>(mut call: impl FnMut() -> io::Result<T>) -> T {
        call().or_else(|_| call()).or_else(|_| call()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random scripts over a store with one read and one write failing
        /// at random ordinals: the cache stays consistent after every step,
        /// and no buffered update is lost or invented.
        #[test]
        fn cache_stays_consistent_under_io_faults(
            capacity in 1usize..5,
            fail_read in 1u64..40,
            fail_write in 1u64..12,
            script in prop::collection::vec(step(), 1..60),
        ) {
            let store = FaultStore::new(filled_store(8), CrashSwitch::new())
                .fail_read_at(fail_read)
                .fail_write_at(fail_write);
            let mut m = BufferManager::new(store, capacity, LruPolicy::new());
            // What a fault-free cache would hold: first byte per page.
            let mut shadow: Vec<u8> = (0..8).collect();
            for step in script {
                match step {
                    Step::Fetch(id) => {
                        if let Ok(frame) = m.fetch(PageId(id)) {
                            prop_assert_eq!(frame[0], shadow[id as usize]);
                        }
                    }
                    Step::Pin(id) => drop(m.pin(PageId(id))),
                    Step::Unpin(id) => m.unpin(PageId(id)),
                    Step::Prefetch(id) => drop(m.prefetch(PageId(id))),
                    Step::Write(id, fill) => {
                        if m.write_buffered(PageId(id), &page(fill)).is_ok() {
                            shadow[id as usize] = fill;
                        }
                    }
                    Step::Resize(frames) => drop(m.resize(frames, LruPolicy::new())),
                }
                prop_assert_eq!(m.frames.len(), m.pool.len());
                prop_assert!(m.frames.keys().all(|&id| m.pool.contains(id)));
                prop_assert!(m.pool.dirty_pages().iter().all(|&id| m.pool.contains(id)));
            }
            for id in 0..8 {
                prop_assert_eq!(retry(|| m.fetch(PageId(id)).map(|f| f[0])), shadow[id as usize]);
            }
            retry(|| m.flush_all());
            let mut raw = vec![0u8; PAGE_SIZE];
            for id in 0..8 {
                retry(|| m.store_mut().read_page(PageId(id), &mut raw));
                prop_assert_eq!(raw[0], shadow[id as usize]);
            }
        }
    }
}
