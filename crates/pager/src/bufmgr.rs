//! The buffer manager: a [`BufferPool`] plus page frames over a shared
//! [`PageStore`], counting physical reads and writes.
//!
//! A page is written one way: a tree's checkpoint, having logged the
//! page's images, writes it through to the store and into its frame. The
//! manager keeps no log and no dirty page: a frame always equals the
//! store's page, so an eviction just drops it.

use crate::trace::{EventKind, Span, Tracer};
use crate::{PageStore, PAGE_SIZE};
use rtree_buffer::{AccessOutcome, BufferPool, PageId, PageMap, PinError, ReplacementPolicy};
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
    /// Always 0: nothing reads ahead of its access any more. Kept only
    /// because the `rtree-perf` benchmark names the field; it goes when
    /// that benchmark's names unfreeze.
    pub prefetch_reads: u64,
}

impl IoStats {
    /// Total physical page transfers, peeks included.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.peek_reads
    }
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

/// The checksum check on every page read in — misses, pins and scratch
/// reads alike — so corruption is caught once, at page-in, instead of on
/// every traversal of a resident frame.
fn verify_read(id: PageId, frame: &[u8]) -> io::Result<()> {
    crate::page::verify_checksum(frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("page {}: {e}", id.0)))
}

/// The buffer cache: page contents held according to the pool's replacement
/// decisions, with every physical page transfer counted. One frame per
/// resident page. Each shard of a [`crate::ConcurrentDiskRTree`] is one,
/// behind a latch, over the tree's one store: reads clone the frame's `Arc`
/// so that decoding runs outside the latch. Every page read in is checked
/// against its checksum, so a frame served from the pool is known-good and
/// readers skip their own checksum pass ([`crate::PageView`]).
pub struct BufferManager<S> {
    store: Arc<S>,
    pool: BufferPool,
    frames: PageMap<PageId, Arc<[u8]>>,
    /// Scratch frame for reads that bypass a fully pinned pool.
    scratch: Arc<[u8]>,
    stats: IoStats,
    /// The sink (if any) and current attribution of trace events.
    pub(crate) tracer: Tracer,
}

impl<S: PageStore> BufferManager<S> {
    /// Creates a manager with `capacity` frames and the given policy.
    pub fn new(store: S, capacity: usize, policy: impl ReplacementPolicy + 'static) -> Self {
        BufferManager::over(Arc::new(store), capacity, policy)
    }

    /// [`BufferManager::new`] over a store other managers share (a tree's
    /// shards).
    pub(crate) fn over(
        store: Arc<S>,
        capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> Self {
        BufferManager {
            store,
            pool: BufferPool::new(capacity, policy),
            frames: PageMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            scratch: zeroed_frame(),
            stats: IoStats::default(),
            tracer: Tracer::default(),
        }
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

    /// The one page write: `image` goes to the store as page `id`, counted
    /// and traced as a write-back, and becomes the page's frame if it is
    /// resident. A tree's caller has flushed the page's log records (the WAL
    /// rule).
    pub(crate) fn write_through(&mut self, id: PageId, image: &Arc<[u8]>) -> io::Result<()> {
        self.store.write_page_shared(id, image)?;
        self.stats.writes += 1;
        self.tracer.emit_at(id, -1, EventKind::WriteBack);
        if let Some(frame) = self.frames.get_mut(&id) {
            *frame = Arc::clone(image);
        }
        Ok(())
    }

    /// Page `id`'s bytes for a before-image: its frame, or else the store's,
    /// read uncharged and unverified (an overwrite may repair a bad page).
    pub(crate) fn current(&mut self, id: PageId) -> io::Result<Arc<[u8]>> {
        if let Some(frame) = self.frames.get(&id) {
            return Ok(Arc::clone(frame));
        }
        let mut frame = zeroed_frame();
        self.store.read_page_shared(id, exclusive(&mut frame))?;
        Ok(frame)
    }

    /// Completes an admission the pool has just made for `id` (a miss or a
    /// pin): reads the page into the frame the evicted victim gave up (a
    /// fresh one while the pool is filling, or when a reader still holds
    /// the victim's), checks its checksum, installs and returns it. On any error the admission is backed out, so
    /// the next access misses and re-reads instead of hitting a frameless
    /// resident entry; the frame, whatever the failed read left in it, is dropped.
    fn page_in(&mut self, id: PageId, evicted: Option<PageId>) -> io::Result<Arc<[u8]>> {
        let mut frame = match evicted {
            Some(victim) => self
                .frames
                .remove(&victim)
                .expect("resident page has a frame"),
            None => zeroed_frame(),
        };
        let loaded = self.store.read_page_shared(id, exclusive(&mut frame));
        if let Err(e) = loaded.and_then(|()| verify_read(id, &frame)) {
            self.pool.unpin(id);
            self.pool.discard(id);
            return Err(e);
        }
        self.stats.reads += 1;
        self.frames.insert(id, Arc::clone(&frame));
        self.tracer.emit(id, EventKind::Miss);
        Ok(frame)
    }

    /// Reads a page into the scratch frame, bypassing the pool.
    fn fill_scratch(&mut self, id: PageId) -> io::Result<()> {
        self.store
            .read_page_shared(id, exclusive(&mut self.scratch))?;
        verify_read(id, &self.scratch)
    }

    /// Fetches a raw or free-list page, going to the store only on a miss,
    /// under no span or level (span 0, level -1; node pages carry theirs).
    pub fn fetch(&mut self, id: PageId) -> io::Result<&[u8]> {
        self.fetch_in(id, -1, &mut Span::default())?;
        Ok(self.frames.get(&id).unwrap_or(&self.scratch))
    }

    /// [`BufferManager::fetch`] for `span`, of a page at tree level `level`:
    /// the access is counted in the span and its events carry both. Hands
    /// out the frame itself (the scratch frame's bytes when every frame is
    /// pinned), so a latched caller can decode outside its latch. A hit is
    /// the one lookup that finds the frame; the pool only counts it.
    pub(crate) fn fetch_in(
        &mut self,
        id: PageId,
        level: i16,
        span: &mut Span,
    ) -> io::Result<Arc<[u8]>> {
        self.tracer.at_level(span, level);
        if let Some(frame) = self.frames.get(&id) {
            self.pool.hit(id);
            self.tracer.emit(id, EventKind::Hit);
            span.charge(false);
            return Ok(Arc::clone(frame));
        }
        let frame = match self.pool.access(id) {
            AccessOutcome::Hit => unreachable!("a resident page has a frame"),
            AccessOutcome::Miss { evicted } => self.page_in(id, evicted)?,
            AccessOutcome::MissBypass => {
                self.fill_scratch(id)?;
                self.stats.reads += 1;
                self.tracer.emit(id, EventKind::Miss);
                Arc::clone(&self.scratch)
            }
        };
        span.charge(true);
        Ok(frame)
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
        self.page_in(id, evicted).map(drop)
    }

    /// Unpins a page pinned by [`BufferManager::pin`]; it stays resident
    /// and re-enters the replacement order as most recently used.
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
        self.fill_scratch(id)?;
        self.stats.peek_reads += 1;
        self.tracer.emit(id, EventKind::PeekRead);
        Ok(&self.scratch)
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
    /// `policy`. No frame holds anything the store lacks, so the dropped
    /// ones cost no I/O; pinned pages *stay pinned* (their frames carry
    /// over) and the pool's hit/miss statistics restart from zero, while
    /// the cumulative [`IoStats`] are preserved. Call only between
    /// operations.
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
    use rtree_wal::{CrashSwitch, GroupWal, LogBackend, MemLog, WalRecord};

    fn make(pages: u64, capacity: usize) -> BufferManager<MemStore> {
        BufferManager::new(sealed_store(pages), capacity, LruPolicy::new())
    }

    /// A sealed page (a free-list page) that carries `fill`.
    fn page(fill: u8) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        crate::page::encode_free_page(u64::from(fill), &mut buf);
        buf
    }

    /// The `fill` a [`page`] carries.
    fn fill(frame: &[u8]) -> u8 {
        crate::page::decode_free_page(frame).expect("a sealed page") as u8
    }

    /// Page `id` as the store holds it.
    fn stored<S: PageStore>(m: &BufferManager<S>, id: u64) -> io::Result<Vec<u8>> {
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store.read_page_shared(PageId(id), &mut raw)?;
        Ok(raw)
    }

    /// [`page`] as the image a write hands over.
    fn image(fill: u8) -> Arc<[u8]> {
        Arc::from(page(fill))
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
        assert_eq!(fill(m.fetch(PageId(1)).unwrap()), 1);
        assert_eq!(fill(m.fetch(PageId(1)).unwrap()), 1);
        assert_eq!(m.physical_reads(), 1, "second fetch must hit");
        assert_eq!(fill(m.fetch(PageId(2)).unwrap()), 2);
        assert_eq!(m.physical_reads(), 2);
        // Capacity 2: fetching a third page evicts the LRU (page 1).
        assert_eq!(fill(m.fetch(PageId(3)).unwrap()), 3);
        assert_eq!(m.physical_reads(), 3);
        assert_eq!(fill(m.fetch(PageId(1)).unwrap()), 1);
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
        assert_eq!(fill(m.fetch(PageId(2)).unwrap()), 2);
        assert_eq!(frame_ptr(&m, 2), first, "page 0's frame was not reused");
        assert_eq!(fill(m.fetch(PageId(3)).unwrap()), 3);
        assert_eq!(frame_ptr(&m, 3), second);
        assert_eq!(m.frames.len(), 2);
    }

    #[test]
    fn page_in_leaves_a_shared_victims_frame_to_its_reader() {
        let mut m = make(4, 2);
        // What a latched reader does: keep the frame past the fetch.
        let held = m.fetch_in(PageId(0), -1, &mut Span::default()).unwrap();
        m.fetch(PageId(1)).unwrap();
        assert_eq!(fill(m.fetch(PageId(2)).unwrap()), 2, "evicts page 0");
        assert!(!m.pool.contains(PageId(0)));
        assert_eq!(held[..], page(0)[..], "the reader's frame changed under it");
        assert_ne!(frame_ptr(&m, 2), Arc::as_ptr(&held).cast());
    }

    /// A store of `pages` sealed pages, page `i` carrying `i` ([`page`]).
    fn sealed_store(pages: u64) -> MemStore {
        let mut store = MemStore::new();
        for i in 0..pages {
            let id = store.allocate().unwrap();
            store.write_page(id, &page(i as u8)).unwrap();
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
        // The next fetch of `id` misses and returns the store's bytes.
        fn assert_rereads(m: &mut BufferManager<FaultStore<MemStore>>, id: u64) {
            let stored = stored(m, id).unwrap();
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
        assert_eq!(fill(m.fetch(PageId(0)).unwrap()), 0);
        assert_eq!(m.physical_reads(), before);
    }

    #[test]
    fn bypass_when_fully_pinned() {
        let mut m = make(4, 2);
        m.pin(PageId(0)).unwrap();
        m.pin(PageId(1)).unwrap();
        assert_eq!(fill(m.fetch(PageId(2)).unwrap()), 2);
        assert_eq!(fill(m.fetch(PageId(2)).unwrap()), 2);
        // Bypass reads are never cached.
        assert_eq!(m.physical_reads(), 4);
    }

    #[test]
    fn reset_counters() {
        let mut m = make(2, 2);
        m.fetch(PageId(0)).unwrap();
        m.write_through(PageId(1), &image(1)).unwrap();
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
        assert!(m.write_through(PageId(77), &image(1)).is_err());
        assert!(!m.pool().contains(PageId(77)));
        assert_eq!(m.pinned_count(), 0);
    }

    /// A checkpoint's before-image is the page as the manager has it: the
    /// frame of a resident page, the store's bytes otherwise.
    #[test]
    fn wal_logs_before_and_after_images() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        let mut m = make(3, 2);
        m.write_through(PageId(2), &image(0x42)).unwrap();
        for (id, fill) in [(1, 0x55), (2, 0x66)] {
            let before = m.current(PageId(id)).unwrap();
            wal.log_page_image(id, &before, &page(fill)).unwrap();
        }
        wal.commit(wal.next_lsn() - 1).unwrap();
        let records = rtree_wal::scan(&log.read_all().unwrap()).records;
        assert_eq!(records.len(), 3);
        for (record, (id, before, after)) in records.iter().zip([(1, 1, 0x55), (2, 0x42, 0x66)]) {
            match record {
                WalRecord::PageImage {
                    page_id,
                    before: b,
                    after: a,
                    ..
                } => assert_eq!((*page_id, fill(b), fill(a)), (id, before, after)),
                other => panic!("expected page image, got {other:?}"),
            }
        }
        assert!(matches!(records[2], WalRecord::Commit { .. }));
    }

    /// The checkpoint's write sequence on one manager: the image logged and
    /// flushed, the page written through to the store and into its
    /// resident frame, the log checkpointed (truncated). The tree's
    /// checkpoint fsyncs the store between the last two.
    #[test]
    fn checkpoint_flushes_and_truncates_log() {
        let log = MemLog::new();
        let wal = GroupWal::open(log.clone()).unwrap();
        let mut m = make(2, 2);
        assert_eq!(fill(m.fetch(PageId(0)).unwrap()), 0);
        let after: Arc<[u8]> = Arc::from(page(0x42));
        wal.log_page_image(0, &m.current(PageId(0)).unwrap(), &after)
            .unwrap();
        wal.flush().unwrap();
        m.write_through(PageId(0), &after).unwrap();
        wal.checkpoint().unwrap();
        assert_eq!(log.read_all().unwrap().len(), 0, "log truncated");
        assert_eq!(fill(&stored(&m, 0).unwrap()), 0x42);
        assert_eq!(
            fill(m.fetch(PageId(0)).unwrap()),
            0x42,
            "the frame is current"
        );
        assert_eq!((m.physical_reads(), m.physical_writes()), (1, 1));
    }

    /// A write needs no frame: on a fully pinned pool it still reaches
    /// the store.
    #[test]
    fn buffered_write_on_fully_pinned_pool_degrades_to_write_through() {
        let mut m = make(4, 2);
        m.pin(PageId(0)).unwrap();
        m.pin(PageId(1)).unwrap();
        m.write_through(PageId(2), &image(0x77)).unwrap();
        assert_eq!(m.physical_writes(), 1, "the write went through");
        assert_eq!(fill(&stored(&m, 2).unwrap()), 0x77);
    }

    #[test]
    fn resize_preserves_pins_and_refuses_to_shrink_below_them() {
        let mut m = make(8, 4);
        m.pin(PageId(0)).unwrap();
        m.pin(PageId(1)).unwrap();
        m.write_through(PageId(1), &image(0xC3)).unwrap();

        // Shrinking below the pinned count is refused, pool untouched.
        let err = m.resize(1, LruPolicy::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(m.pool.pinned_count(), 2, "failed resize changed nothing");
        assert!(m.pool.is_pinned(PageId(0)));

        // A legal resize keeps the pinned pages resident and pinned, with
        // their frames intact — no re-read needed.
        m.resize(2, LruPolicy::new()).unwrap();
        assert_eq!(m.pool.pinned_count(), 2);
        assert_eq!(m.frames.len(), 2);
        let before = m.physical_reads();
        assert_eq!(fill(m.fetch(PageId(1)).unwrap()), 0xC3);
        assert_eq!(m.physical_reads(), before, "pinned frame carried over");
        assert_eq!(m.physical_writes(), 1, "a resize writes nothing");
    }

    #[derive(Clone, Debug)]
    enum Step {
        Fetch(u64),
        Pin(u64),
        Unpin(u64),
        Write(u64, u8),
        Resize(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        let id = || 0u64..8;
        prop_oneof![
            id().prop_map(Step::Fetch),
            id().prop_map(Step::Pin),
            id().prop_map(Step::Unpin),
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
        /// and no written page is lost or invented, in its frame or in the
        /// store.
        #[test]
        fn cache_stays_consistent_under_io_faults(
            capacity in 1usize..5,
            fail_read in 1u64..40,
            fail_write in 1u64..12,
            script in prop::collection::vec(step(), 1..60),
        ) {
            let store = FaultStore::new(sealed_store(8), CrashSwitch::new())
                .fail_read_at(fail_read)
                .fail_write_at(fail_write);
            let mut m = BufferManager::new(store, capacity, LruPolicy::new());
            // What a fault-free cache would hold: first byte per page.
            let mut shadow: Vec<u8> = (0..8).collect();
            for step in script {
                match step {
                    Step::Fetch(id) => {
                        if let Ok(frame) = m.fetch(PageId(id)) {
                            prop_assert_eq!(fill(frame), shadow[id as usize]);
                        }
                    }
                    Step::Pin(id) => drop(m.pin(PageId(id))),
                    Step::Unpin(id) => m.unpin(PageId(id)),
                    Step::Write(id, fill) => {
                        if m.write_through(PageId(id), &image(fill)).is_ok() {
                            shadow[id as usize] = fill;
                        }
                    }
                    Step::Resize(frames) => drop(m.resize(frames, LruPolicy::new())),
                }
                prop_assert_eq!(m.frames.len(), m.pool.len());
                prop_assert!(m.frames.keys().all(|&id| m.pool.contains(id)));
            }
            for id in 0..8 {
                prop_assert_eq!(retry(|| m.fetch(PageId(id)).map(fill)), shadow[id as usize]);
                prop_assert_eq!(fill(&retry(|| stored(&m, id))), shadow[id as usize]);
            }
        }
    }
}
