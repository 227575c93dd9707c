//! Disk-backed R-tree execution.
//!
//! Query traversal reads pages where they lie in the buffer pool, through
//! [`PageView`]: the dispatched [`rtree_geom`] SIMD kernels filter the
//! entries on the frame's own coordinate planes (in code space on
//! compressed pages) and nothing is decoded. The seed's
//! entry-at-a-time walk is [`DiskRTree::query_scalar`], the differential
//! reference the `simd_traversal` bench and the `simd_vs_seed` /
//! `compress_vs_seed` suites hold every kernel and page format against.
//!
//! This module also holds the one writer of new tree images,
//! [`write_image`], behind every `create*` constructor of both trees.

use crate::mutate::mbr;
use crate::page::{decode_free_page, encode_free_page};
use crate::seam::{PageRead, PageWrite};
use crate::trace::{Span, TreeTrace};
use crate::walk::{self, BatchOutput};
use crate::{
    BufferManager, NodePage, PageMeta, PageStore, PageView, PrefetchOutcome, MAX_ENTRIES_PACKED,
    MAX_ENTRIES_PER_PAGE, PAGE_SIZE,
};
use rtree_buffer::{PageId, ReplacementPolicy};
use rtree_geom::{Point, Rect};
use rtree_index::{Neighbor, RTree};
use std::io;

/// An R-tree materialized onto pages, queried through a buffer manager that
/// counts physical reads — the end-to-end ground truth for the paper's
/// disk-access metric.
///
/// Pages are laid out in level order (meta page 0, root page 1, then the
/// rest of each level contiguously), matching the page numbering used by
/// the analytic model and the trace simulator, so "pin the top `p` levels"
/// means the same page set everywhere.
/// # Examples
///
/// ```
/// use rtree_buffer::LruPolicy;
/// use rtree_geom::Rect;
/// use rtree_index::BulkLoader;
/// use rtree_pager::{DiskRTree, MemStore};
///
/// let rects: Vec<Rect> = (0..300)
///     .map(|i| {
///         let x = (i as f64 * 0.618) % 0.99;
///         let y = (i as f64 * 0.414) % 0.99;
///         Rect::new(x, y, x + 0.005, y + 0.005)
///     })
///     .collect();
/// let tree = BulkLoader::hilbert(20).load(&rects);
/// let mut disk = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
///
/// // Cold query: every touched node costs a physical read...
/// let (hits, reads) = disk.query_counting(&Rect::new(0.2, 0.2, 0.4, 0.4)).unwrap();
/// assert!(reads > 0);
/// // ...re-running it is free, the pages are buffered.
/// let (hits2, reads2) = disk.query_counting(&Rect::new(0.2, 0.2, 0.4, 0.4)).unwrap();
/// assert_eq!(reads2, 0);
/// assert_eq!(hits.len(), hits2.len());
/// ```
pub struct DiskRTree<S: PageStore> {
    pub(crate) mgr: BufferManager<S>,
    pub(crate) meta: PageMeta,
    /// Span ids, query metrics, and the sink whose presence makes spans
    /// live.
    pub(crate) trace: TreeTrace,
}

/// One operation's view of the tree, the sequential seam for reads and
/// writes: one pool, no latches, so the latch hooks stay empty. Fetches are
/// charged as [`BufferManager::fetch`] charges them and counted in the
/// operation's span; stores go through the write-back buffer (and its WAL);
/// freed pages go on the on-disk free list headed in the metadata.
pub(crate) struct Pages<'a, S: PageStore> {
    mgr: &'a mut BufferManager<S>,
    meta: &'a mut PageMeta,
    span: Span<'a>,
}

impl<S: PageStore> Pages<'_, S> {
    /// The root's MBR from an uncharged peek (`None` for an empty tree): as in
    /// the model, a walk accesses the root only if its MBR intersects the query.
    fn root_mbr(&mut self) -> io::Result<Option<Rect>> {
        let (root, level) = (self.meta.root, self.meta.root_level());
        self.mgr.tracer.at_level(&self.span, level as i16);
        Ok(PageView::new(self.mgr.fetch_uncharged(PageId(root))?, level)?.mbr()?)
    }
}

impl<S: PageStore> PageRead for Pages<'_, S> {
    fn fetch(&mut self, page: u64, level: u16) -> io::Result<&[u8]> {
        let (id, level) = (PageId(page), level as i16);
        Ok(self.mgr.fetch_in(id, level, &mut self.span)?)
    }

    fn prefetch(&mut self, page: u64, level: u16) -> io::Result<PrefetchOutcome> {
        self.mgr.tracer.at_level(&self.span, level as i16);
        self.mgr.prefetch(PageId(page))
    }

    fn release(&mut self, page: u64) {
        self.mgr.unpin(PageId(page));
    }
}

impl<S: PageStore> PageWrite for Pages<'_, S> {
    fn meta<R>(&mut self, f: impl FnOnce(&mut PageMeta) -> R) -> R {
        f(self.meta)
    }

    fn store(&mut self, id: u64, node: &NodePage) -> io::Result<()> {
        let mut buf = vec![0u8; PAGE_SIZE];
        // Layout-preserving: internal pages of a compressed tree are
        // re-quantized on every rewrite. Expansion is monotone (the new
        // frame contains the rewritten entries), so the containment
        // invariant queries rely on survives arbitrary mutation.
        node.encode_with(&mut buf, self.meta.layout_at(node.level));
        self.mgr.tracer.at_level(&self.span, node.level as i16);
        self.mgr.write_buffered(PageId(id), &buf)
    }

    fn alloc(&mut self) -> io::Result<u64> {
        if self.meta.free_head == 0 {
            return Ok(self.mgr.allocate()?.0);
        }
        let id = self.meta.free_head;
        self.meta.free_head = decode_free_page(self.mgr.fetch(PageId(id))?)?;
        Ok(id)
    }

    /// Pushes a page onto the free list (logged like any other write).
    fn free(&mut self, id: u64) -> io::Result<()> {
        let mut buf = vec![0u8; PAGE_SIZE];
        encode_free_page(self.meta.free_head, &mut buf);
        self.mgr.tracer.at_level(&self.span, -1);
        self.mgr.write_buffered(PageId(id), &buf)?;
        self.meta.free_head = id;
        Ok(())
    }
}

impl<S: PageStore> Drop for Pages<'_, S> {
    /// What drives the manager next (a write, a pin, a flush) has no span.
    fn drop(&mut self) {
        self.mgr.tracer.at_level(&Span::default(), -1);
    }
}

impl<S: PageStore> DiskRTree<S> {
    /// Assembles a handle from an already-initialized manager and metadata
    /// (single construction point so trace state stays in one place).
    pub(crate) fn from_parts(mut mgr: BufferManager<S>, meta: PageMeta) -> Self {
        // Checksums are verified once, when a page enters the pool; the
        // traversal loops then read resident frames as trusted.
        mgr.set_verify_reads(true);
        DiskRTree {
            mgr,
            meta,
            trace: TreeTrace::default(),
        }
    }
    /// Serializes `tree` into `store` and returns a handle with the given
    /// buffer capacity and policy.
    ///
    /// # Panics
    /// Panics if the tree is empty or its node capacity exceeds
    /// [`crate::MAX_ENTRIES_PER_PAGE`].
    pub fn create(
        mut store: S,
        tree: &RTree,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        let meta = materialize(&mut store, tree, false)?;
        Ok(Self::from_parts(
            BufferManager::new(store, buffer_capacity, policy),
            meta,
        ))
    }

    /// Like [`DiskRTree::create`], but materializing a *compressed*
    /// (format v4) image: leaf pages stay exact-`f64` SoA, internal levels
    /// are repacked bottom-up into Packed pages of up to
    /// [`crate::MAX_ENTRIES_PACKED`] quantized entries. The higher internal
    /// fan-out shrinks the tree's internal footprint ~2.5×, so at an equal
    /// frame budget more of the buffer is left for leaves — the mechanism
    /// behind the buffering paper's fewer-disk-accesses prediction, which
    /// the macrobench measures. Decoded routing rects conservatively
    /// contain the true ones, so query results are exactly the
    /// uncompressed tree's.
    ///
    /// # Panics
    /// Panics if the tree is empty or its node capacity exceeds
    /// [`crate::MAX_ENTRIES_PER_PAGE`].
    pub fn create_compressed(
        mut store: S,
        tree: &RTree,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        let meta = materialize(&mut store, tree, true)?;
        Ok(Self::from_parts(
            BufferManager::new(store, buffer_capacity, policy),
            meta,
        ))
    }

    /// Opens a previously materialized tree.
    pub fn open(
        mut store: S,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(0), &mut buf)?;
        let meta = PageMeta::decode(&buf)?;
        Ok(Self::from_parts(
            BufferManager::new(store, buffer_capacity, policy),
            meta,
        ))
    }

    /// The stored metadata.
    pub fn meta(&self) -> &PageMeta {
        &self.meta
    }

    /// Attaches a write-ahead log to the underlying buffer manager; from
    /// here on [`DiskRTree::insert`] and [`DiskRTree::delete`] are logged
    /// and recoverable via [`crate::recover`].
    pub fn attach_wal(&mut self, wal: rtree_wal::Wal) {
        self.mgr.attach_wal(wal);
    }

    /// Writes all dirty pages back and issues the store's durability
    /// barrier.
    pub fn flush(&mut self) -> io::Result<()> {
        self.mgr.flush_all()
    }

    /// Flushes everything and truncates the attached log (if any). Call
    /// only between operations.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.mgr.checkpoint()
    }

    /// Physical I/O counters so far.
    pub fn io_stats(&self) -> crate::IoStats {
        self.mgr.io_stats()
    }

    /// Tears the tree down and returns the bare store, discarding buffered
    /// (dirty) state — the crash path for recovery tests. Call
    /// [`DiskRTree::flush`] first for an orderly shutdown.
    pub fn into_store(self) -> S {
        self.mgr.into_store()
    }

    /// Number of node pages per level, root level first.
    ///
    /// # Panics
    /// Panics after a mutation: inserts and deletes abandon the bulk-load
    /// level-order layout, so the level table is cleared.
    pub fn pages_per_level(&self) -> Vec<u64> {
        assert!(
            !self.meta.level_starts.is_empty(),
            "level table is stale: the tree has been mutated since bulk load"
        );
        let mut out = Vec::with_capacity(self.meta.level_starts.len());
        for (i, &start) in self.meta.level_starts.iter().enumerate() {
            let end = self
                .meta
                .level_starts
                .get(i + 1)
                .copied()
                .unwrap_or(self.meta.nodes + 1);
            out.push(end - start);
        }
        out
    }

    /// Pins the top `p` levels into the buffer (reads them once).
    ///
    /// # Errors
    /// `InvalidInput` if `p` exceeds the height, or after a mutation (the
    /// level-order layout no longer holds); `OutOfMemory` if the pool
    /// cannot hold the pinned pages.
    pub fn pin_top_levels(&mut self, p: usize) -> io::Result<()> {
        for page in self.meta.top_level_pages(p)? {
            let level = self.meta.onpage_level_of(page);
            self.mgr.tracer.at_level(&Span::default(), level);
            self.mgr.pin(PageId(page))?;
        }
        Ok(())
    }

    /// Re-targets pinning at the top `p` levels: everything currently
    /// pinned is unpinned (frames stay resident, no I/O), then the top `p`
    /// levels are pinned. `p = 0` just unpins. The idempotent actuator the
    /// tuning controller calls — re-applying the current pinning is free.
    /// Errors like [`DiskRTree::pin_top_levels`].
    pub fn set_pinned_levels(&mut self, p: usize) -> io::Result<()> {
        self.mgr.unpin_all();
        if p > 0 {
            self.pin_top_levels(p)?;
        }
        Ok(())
    }

    /// Number of currently pinned pages.
    pub fn pinned_pages(&self) -> usize {
        self.mgr.pinned_count()
    }

    /// Buffer pool capacity in frames.
    pub fn buffer_capacity(&self) -> usize {
        self.mgr.pool().capacity()
    }

    /// Replaces the buffer pool with `capacity` frames under `policy`,
    /// flushing all dirty pages first so no buffered state is lost. The
    /// cache starts cold except for pinned pages, which stay pinned with
    /// their frames; the pool statistics restart, while the cumulative
    /// [`crate::IoStats`] and any attached WAL survive. Call only between
    /// operations. Refuses (`InvalidInput`) a capacity smaller than the
    /// pinned page count rather than evicting a pinned page.
    pub fn resize_buffer(
        &mut self,
        capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<()> {
        self.mgr.resize(capacity, policy)
    }

    /// Physical page reads so far.
    pub fn physical_reads(&self) -> u64 {
        self.mgr.physical_reads()
    }

    /// Physical page writes so far.
    pub fn physical_writes(&self) -> u64 {
        self.mgr.physical_writes()
    }

    /// Resets read counters (e.g. after warm-up).
    pub fn reset_counters(&mut self) {
        self.mgr.reset_counters();
    }

    /// Buffer hit ratio so far.
    pub fn hit_ratio(&self) -> f64 {
        self.mgr.pool().stats().hit_ratio()
    }

    /// Buffer pool access statistics so far.
    pub fn buffer_stats(&self) -> rtree_buffer::BufferStats {
        self.mgr.pool().stats()
    }

    /// Opens a read operation: the tree under a fresh span.
    fn reader(&mut self) -> Pages<'_, S> {
        Pages {
            mgr: &mut self.mgr,
            meta: &mut self.meta,
            span: self.trace.span(),
        }
    }

    /// Opens a write operation: the tree under no span.
    pub(crate) fn writer(&mut self) -> Pages<'_, S> {
        Pages {
            mgr: &mut self.mgr,
            meta: &mut self.meta,
            span: Span::default(),
        }
    }

    /// Executes a region query, returning matching item ids. Every page
    /// whose MBR intersects the query is fetched through the buffer
    /// manager; physical reads accumulate in [`DiskRTree::physical_reads`].
    pub fn query(&mut self, query: &Rect) -> io::Result<Vec<u64>> {
        let (root, level) = (self.meta.root, self.meta.root_level());
        let mut pages = self.reader();
        match pages.root_mbr()? {
            Some(mbr) if mbr.intersects(query) => walk::region(&mut pages, root, level, query),
            _ => Ok(Vec::new()),
        }
    }

    /// Runs `queries` as one batch — the same result sets as
    /// [`DiskRTree::query`] per query, but level-synchronously: a page
    /// shared between queries is fetched once, each level is visited in
    /// page order, and up to `prefetch_window` upcoming pages of the level
    /// are kept read-in ahead of their demand access (0 = no readahead).
    pub fn query_batch(
        &mut self,
        queries: &[Rect],
        prefetch_window: usize,
    ) -> io::Result<BatchOutput> {
        let mut out = BatchOutput::new(queries.len());
        if queries.is_empty() {
            return Ok(out);
        }
        let (root, level) = (self.meta.root, self.meta.root_level());
        let mut pages = self.reader();
        if let Some(mbr) = pages.root_mbr()? {
            walk::frontier(
                &mut pages,
                root,
                level,
                Some(&mbr),
                queries,
                prefetch_window,
                &mut out,
            )?;
        }
        Ok(out)
    }

    /// The seed's entry-at-a-time region query, the differential reference
    /// for every kernel and page format: decodes pages into [`NodePage`]
    /// (one `(rect, pointer)` entry at a time, whatever the page layout)
    /// and tests each entry with [`Rect::intersects`] — no in-place view,
    /// no dispatched kernel. Visits pages in exactly the same order
    /// as [`DiskRTree::query`], so on the same image results *and* I/O
    /// counts must match: the `simd_vs_seed` and `compress_vs_seed` suites
    /// and the `simd_traversal` bench rely on this.
    pub fn query_scalar(&mut self, query: &Rect) -> io::Result<Vec<u64>> {
        let mut results = Vec::new();
        let root = self.meta.root;
        let root_level = self.meta.root_level();
        let mut pages = self.reader();
        pages.mgr.tracer.at_level(&pages.span, root_level as i16);
        let root_node = NodePage::decode(pages.mgr.fetch_uncharged(PageId(root))?)?;
        if root_node.entries.is_empty() || !mbr(&root_node.entries).intersects(query) {
            return Ok(results);
        }

        let mut stack = vec![(root, root_level)];
        while let Some((pid, level)) = stack.pop() {
            let node = NodePage::decode(pages.fetch(pid, level)?)?;
            debug_assert_eq!(node.level, level, "stack level mirrors the page");
            for (r, ptr) in &node.entries {
                if r.intersects(query) {
                    if node.level == 0 {
                        results.push(*ptr);
                    } else {
                        stack.push((*ptr, level - 1));
                    }
                }
            }
        }
        Ok(results)
    }

    /// Point query: item ids whose rectangle contains `p` (boundary
    /// inclusive). It *is* [`DiskRTree::query`] on the degenerate rectangle
    /// `[p, p]`: same kernel, same results, same page accesses.
    pub fn query_point(&mut self, p: &Point) -> io::Result<Vec<u64>> {
        self.query(&Rect { lo: *p, hi: *p })
    }

    /// The `k` items nearest to `p` (by rectangle distance, closest first;
    /// ties broken arbitrarily), via best-first search over pages with the
    /// dispatched SIMD distance kernel pruning every node's entries against
    /// the current k-th-best bound before they are enqueued.
    pub fn nearest_neighbors(&mut self, p: &Point, k: usize) -> io::Result<Vec<Neighbor>> {
        let (root, level, items) = (self.meta.root, self.meta.root_level(), self.meta.items);
        walk::nearest(&mut self.reader(), root, level, items, p, k)
    }

    /// Executes a query and also reports how many physical reads it caused.
    pub fn query_counting(&mut self, query: &Rect) -> io::Result<(Vec<u64>, u64)> {
        let before = self.mgr.physical_reads();
        let results = self.query(query)?;
        Ok((results, self.mgr.physical_reads() - before))
    }
}

/// Node capacities of a new image.
struct Capacities {
    /// Leaf capacity — and the internal capacity too, unless `compressed`.
    max_entries: usize,
    /// Guttman's `m`, the condense-tree threshold.
    min_entries: usize,
    /// A compressed (format v4) image: internal pages are Packed, up to
    /// [`MAX_ENTRIES_PACKED`] quantized entries each.
    compressed: bool,
}

/// Writes a new tree image into an empty `store` — meta page 0, then one
/// page per node in level order, root level first, each level contiguous —
/// and returns its metadata. Every `create*` constructor ends here: page
/// numbering and [`PageMeta`] assembly exist once.
///
/// `nodes[k]` is the node count of on-page level `k` (leaf level first);
/// `entries_of(k, i)` yields node `i` of level `k`, asked for one node at a
/// time in page order, so no level is ever held as a whole. At level 0 a
/// pointer is an item id; above it, the index of the child within level
/// `k − 1`, which becomes a page id here. `level_table` records the
/// level-order layout in the meta page; a tree that is about to be mutated
/// in place never relies on it.
///
/// # Panics
/// Panics if a capacity is out of range: `2 <= M <= 102`, Guttman's
/// `1 <= m <= M/2`.
fn write_image<S: PageStore>(
    store: &mut S,
    nodes: &[usize],
    mut entries_of: impl FnMut(usize, usize) -> Vec<(Rect, u64)>,
    caps: Capacities,
    items: u64,
    level_table: bool,
) -> io::Result<PageMeta> {
    let Capacities {
        max_entries,
        min_entries,
        compressed,
    } = caps;
    assert!(
        (2..=MAX_ENTRIES_PER_PAGE).contains(&max_entries),
        "node capacity {max_entries} out of range 2..={MAX_ENTRIES_PER_PAGE}"
    );
    assert!(
        min_entries >= 1 && 2 * min_entries <= max_entries,
        "min fill {min_entries} must satisfy 1 <= m <= M/2"
    );

    let mut start_of = vec![0u64; nodes.len()];
    let mut next_page = 1u64;
    for k in (0..nodes.len()).rev() {
        start_of[k] = next_page;
        next_page += nodes[k] as u64;
    }
    let meta = PageMeta {
        root: 1,
        height: nodes.len() as u32,
        max_entries: max_entries as u32,
        min_entries: min_entries as u32,
        items,
        nodes: next_page - 1,
        free_head: 0,
        level_starts: if level_table {
            start_of.iter().rev().copied().collect()
        } else {
            Vec::new()
        },
        internal_max_entries: if compressed {
            MAX_ENTRIES_PACKED as u32
        } else {
            max_entries as u32
        },
        compressed,
    };

    let mut buf = vec![0u8; PAGE_SIZE];
    let meta_page = store.allocate()?;
    debug_assert_eq!(meta_page, PageId(0));
    meta.encode(&mut buf);
    store.write_page(meta_page, &buf)?;
    for k in (0..nodes.len()).rev() {
        for i in 0..nodes[k] {
            let mut entries = entries_of(k, i);
            if k > 0 {
                for (_, child) in &mut entries {
                    *child += start_of[k - 1];
                }
            }
            let level = k as u16;
            let pid = store.allocate()?;
            NodePage { level, entries }.encode_with(&mut buf, meta.layout_at(level));
            store.write_page(pid, &buf)?;
        }
    }
    Ok(meta)
}

/// Writes the image of an empty tree: an empty root leaf under the meta
/// page.
pub(crate) fn materialize_empty<S: PageStore>(
    store: &mut S,
    max_entries: usize,
    min_entries: usize,
    level_table: bool,
) -> io::Result<PageMeta> {
    let caps = Capacities {
        max_entries,
        min_entries,
        compressed: false,
    };
    write_image(store, &[1], |_, _| Vec::new(), caps, 0, level_table)
}

/// Serializes `tree` into `store` through [`write_image`]. Leaf pages are
/// the tree's leaves, left to right, as exact-`f64` SoA pages. Uncompressed,
/// the internal levels are the tree's own; `compressed` (a format v4 image)
/// they are *not* copied from the tree but rebuilt bottom-up by chunking
/// consecutive children into full Packed pages, so the repacked tree is
/// usually shallower and its internal footprint far smaller.
pub(crate) fn materialize<S: PageStore>(
    store: &mut S,
    tree: &RTree,
    compressed: bool,
) -> io::Result<PageMeta> {
    assert!(!tree.is_empty(), "cannot materialize an empty tree");
    // `node_ids` is level order, root first: split it into levels, leaf
    // level first, noting each node's position within its level.
    let ids = tree.node_ids();
    let mut levels = vec![Vec::new(); tree.height() as usize];
    let mut position = vec![0u64; ids.iter().map(|i| i.index() + 1).max().expect("non-empty")];
    for id in ids {
        let level = &mut levels[tree.node(id).level() as usize];
        position[id.index()] = level.len() as u64;
        level.push(id);
    }
    // The levels above the leaves, as entries pointing into the level
    // below: small (a node per page-full of children), so held whole.
    let mut upper: Vec<Vec<Vec<(Rect, u64)>>> = Vec::new();
    if compressed {
        let mut below: Vec<Rect> = levels[0].iter().map(|id| tree.node(*id).mbr()).collect();
        while below.len() > 1 {
            let slots: Vec<(Rect, u64)> = below.iter().copied().zip(0u64..).collect();
            let level: Vec<Vec<(Rect, u64)>> = slots
                .chunks(MAX_ENTRIES_PACKED)
                .map(<[_]>::to_vec)
                .collect();
            below = level.iter().map(|entries| mbr(entries)).collect();
            upper.push(level);
        }
    } else {
        let slots = |id: &_| {
            let n = tree.node(*id);
            let slot = |j| (n.rect(j), position[n.child(j).index()]);
            (0..n.len()).map(slot).collect()
        };
        upper.extend(
            levels[1..]
                .iter()
                .map(|ids| ids.iter().map(slots).collect()),
        );
    }
    let mut nodes = vec![levels[0].len()];
    nodes.extend(upper.iter().map(Vec::len));
    let entries_of = |k: usize, i: usize| match k {
        0 => tree.node(levels[0][i]).entries().collect(),
        _ => std::mem::take(&mut upper[k - 1][i]),
    };
    let caps = Capacities {
        max_entries: tree.max_entries(),
        min_entries: tree.min_entries(),
        compressed,
    };
    write_image(store, &nodes, entries_of, caps, tree.len() as u64, true)
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
                Rect::new(x, y, x + 0.012, y + 0.012)
            })
            .collect()
    }

    fn disk_tree(n: usize, cap: usize, buffer: usize) -> (DiskRTree<MemStore>, RTree, Vec<Rect>) {
        let rects = sample_rects(n);
        let tree = BulkLoader::hilbert(cap).load(&rects);
        let disk = DiskRTree::create(MemStore::new(), &tree, buffer, LruPolicy::new()).unwrap();
        (disk, tree, rects)
    }

    #[test]
    fn disk_query_matches_in_memory_query() {
        let (mut disk, tree, _) = disk_tree(600, 10, 50);
        for q in [
            Rect::new(0.1, 0.1, 0.4, 0.3),
            Rect::point(Point::new(0.5, 0.5)),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.9, 0.9, 0.95, 0.95),
        ] {
            let mut a = disk.query(&q).unwrap();
            let mut b = tree.search(&q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn physical_reads_equal_nodes_accessed_cold() {
        let (mut disk, tree, _) = disk_tree(600, 10, 1000);
        let q = Rect::new(0.2, 0.2, 0.5, 0.5);
        let (_, reads) = disk.query_counting(&q).unwrap();
        assert_eq!(
            reads,
            tree.count_accesses(&q) as u64,
            "cold reads = nodes touched"
        );
        // Re-running the same query is free: everything is cached.
        let (_, reads2) = disk.query_counting(&q).unwrap();
        assert_eq!(reads2, 0);
    }

    #[test]
    fn meta_survives_reopen() {
        let rects = sample_rects(300);
        let tree = BulkLoader::nearest_x(10).load(&rects);
        let mut store = MemStore::new();
        {
            let disk = DiskRTree::create(&mut store, &tree, 10, LruPolicy::new()).unwrap();
            assert_eq!(disk.meta().items, 300);
        }
        let mut disk = DiskRTree::open(&mut store, 10, LruPolicy::new()).unwrap();
        assert_eq!(disk.meta().items, 300);
        assert_eq!(disk.meta().nodes, tree.node_count() as u64);
        let mut a = disk.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();
        a.sort_unstable();
        assert_eq!(a.len(), 300);
    }

    #[test]
    fn pages_per_level_matches_tree() {
        let (disk, tree, _) = disk_tree(500, 10, 10);
        let stats = tree.stats();
        let expect: Vec<u64> = stats.nodes_per_level().iter().map(|&n| n as u64).collect();
        assert_eq!(disk.pages_per_level(), expect);
    }

    #[test]
    fn pinning_top_levels_avoids_rereads() {
        let (mut disk, _, _) = disk_tree(2_000, 10, 30);
        disk.pin_top_levels(2).unwrap();
        disk.reset_counters();
        // A point query through pinned levels only pays for the leaves (and
        // unpinned internal levels).
        let (_, reads) = disk
            .query_counting(&Rect::point(Point::new(0.4, 0.4)))
            .unwrap();
        let height = disk.meta().height as u64;
        assert!(
            reads <= height,
            "at most one unpinned page per level expected, got {reads}"
        );
    }

    #[test]
    fn simd_and_scalar_queries_agree_with_equal_io() {
        // Same image, two handles: one queried through the SIMD path, the
        // other through the seed's entry-at-a-time path — results and
        // physical reads must be identical.
        let rects = sample_rects(800);
        let tree = BulkLoader::hilbert(12).load(&rects);
        let mut simd = DiskRTree::create(MemStore::new(), &tree, 40, LruPolicy::new()).unwrap();
        let mut seed = DiskRTree::create(MemStore::new(), &tree, 40, LruPolicy::new()).unwrap();
        for q in [
            Rect::new(0.1, 0.1, 0.4, 0.3),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::point(Point::new(0.5, 0.5)),
            Rect::new(0.99, 0.99, 1.0, 1.0),
        ] {
            assert_eq!(
                simd.query(&q).unwrap(),
                seed.query_scalar(&q).unwrap(),
                "{q}"
            );
            assert_eq!(simd.physical_reads(), seed.physical_reads(), "{q}");
        }
    }

    /// The image writer's output is pinned byte for byte: whole-image
    /// CRC-32s recorded from the build that still had three materializers
    /// (PR 16), one per form an image is born in.
    #[test]
    fn image_writer_reproduces_the_recorded_images() {
        let crc = |store: MemStore| {
            let image = store.snapshot();
            (image.len() / PAGE_SIZE, rtree_wal::crc32::checksum(&image))
        };
        let rects: Vec<Rect> = (0..3_000)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.96;
                let y = (i as f64 * 0.414_213) % 0.96;
                Rect::new(x, y, x + 0.015, y + 0.015)
            })
            .collect();
        let tree = BulkLoader::hilbert(16).load(&rects);
        let v3 = DiskRTree::create(MemStore::new(), &tree, 4, LruPolicy::new()).unwrap();
        assert_eq!(crc(v3.into_store()), (202, 2_624_670_787), "v3");
        let v4 = DiskRTree::create_compressed(MemStore::new(), &tree, 4, LruPolicy::new()).unwrap();
        assert_eq!(crc(v4.into_store()), (190, 1_670_899_625), "v4");
        let empty = DiskRTree::create_empty(MemStore::new(), 16, 6, 4, LruPolicy::new()).unwrap();
        assert_eq!(crc(empty.into_store()), (2, 3_701_525_664), "empty");
        // The writable tree's empty image records no level table.
        let mut store = MemStore::new();
        materialize_empty(&mut store, 16, 6, false).unwrap();
        assert_eq!(crc(store), (2, 0x6d3a_a3ff), "empty, no level table");
    }

    #[test]
    fn point_query_matches_degenerate_rect_query() {
        let (mut disk, tree, _) = disk_tree(600, 10, 50);
        for p in [Point::new(0.3, 0.3), Point::new(0.77, 0.12)] {
            let mut by_point = disk.query_point(&p).unwrap();
            let mut by_rect = tree.search(&Rect::point(p));
            by_point.sort_unstable();
            by_rect.sort_unstable();
            assert_eq!(by_point, by_rect);
        }
    }

    #[test]
    fn disk_knn_matches_in_memory_knn() {
        let (mut disk, tree, _) = disk_tree(700, 10, 60);
        for (p, k) in [
            (Point::new(0.5, 0.5), 10),
            (Point::new(0.0, 0.0), 1),
            (Point::new(0.9, 0.1), 25),
            (Point::new(0.4, 0.6), 700),  // whole tree
            (Point::new(0.4, 0.6), 2000), // more than the tree holds
        ] {
            let got = disk.nearest_neighbors(&p, k).unwrap();
            let want = tree.nearest_neighbors(&p, k);
            assert_eq!(got.len(), want.len(), "k={k}");
            // Distances must agree exactly; ids may differ within a
            // distance tie, so compare (distance, id) multisets.
            let mut g: Vec<(u64, u64)> = got.iter().map(|n| (n.distance.to_bits(), n.id)).collect();
            let mut w: Vec<(u64, u64)> =
                want.iter().map(|n| (n.distance.to_bits(), n.id)).collect();
            g.sort_unstable();
            w.sort_unstable();
            // Tied tails may legitimately pick different members; compare
            // the distance sequence always, and ids where distances are
            // unique.
            assert_eq!(
                g.iter().map(|e| e.0).collect::<Vec<_>>(),
                w.iter().map(|e| e.0).collect::<Vec<_>>(),
                "distance sequence, k={k}"
            );
        }
        assert!(disk
            .nearest_neighbors(&Point::new(0.5, 0.5), 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn failed_read_backs_out_the_admission() {
        let tree = BulkLoader::hilbert(10).load(&sample_rects(300));
        let q = Rect::new(0.2, 0.2, 0.5, 0.5);
        // Store reads: 1 = meta page at open, then either the root pin, or
        // the uncharged root peek followed by the root's demand fetch.
        for (fail_at, pin) in [(2, true), (3, false)] {
            let mut store = MemStore::new();
            DiskRTree::create(&mut store, &tree, 64, LruPolicy::new()).unwrap();
            let faulty =
                crate::FaultStore::new(store, rtree_wal::CrashSwitch::new()).fail_read_at(fail_at);
            let mut disk = DiskRTree::open(faulty, 64, LruPolicy::new()).unwrap();
            let mut attempt = || match pin {
                true => disk.pin_top_levels(1),
                false => disk.query(&q).map(drop),
            };
            assert!(attempt().is_err(), "injected fault surfaces");
            // The retry misses again and re-reads: the root counts once.
            attempt().unwrap();
            let want = if pin { 1 } else { tree.count_accesses(&q) };
            assert_eq!(disk.physical_reads(), want as u64, "pin {pin}");
        }
    }

    #[test]
    fn query_missing_root_region_costs_nothing() {
        let (mut disk, _, _) = disk_tree(200, 10, 10);
        disk.reset_counters();
        let (hits, reads) = disk
            .query_counting(&Rect::new(0.995, 0.995, 1.0, 1.0))
            .unwrap();
        // This corner is outside every MBR for our generator.
        assert!(hits.is_empty());
        assert_eq!(reads, 0, "root miss must not charge the buffer");
    }
}
