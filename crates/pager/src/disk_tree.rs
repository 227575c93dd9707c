//! The sequential disk tree: a one-shard [`ConcurrentDiskRTree`] whose
//! writer attaches at its first write.
//!
//! [`DiskRTree`] reads through the tree it owns — every query, pin, resize,
//! counter and trace call is [`ConcurrentDiskRTree`]'s, reached by deref —
//! and adds the constructors and `&mut` entry points to the one writer:
//! [`ConcurrentDiskRTree::insert`], [`ConcurrentDiskRTree::delete`] and
//! [`ConcurrentDiskRTree::checkpoint`], logical op records in a
//! group-commit [`rtree_wal::GroupWal`], dirty pages in a no-steal overlay
//! until a checkpoint.
//!
//! This module also holds the one writer of new tree images,
//! [`write_image`], behind every `create*` constructor of both trees.

use crate::concurrent::once;
use crate::mutate::mbr;
use crate::page::{point_capacity, widen_point_span};
use crate::{
    ConcurrentDiskRTree, NodePage, PageMeta, PageStore, MAX_ENTRIES_PACKED, MAX_ENTRIES_PER_PAGE,
    PAGE_SIZE,
};
use rtree_buffer::{PageId, ReplacementPolicy};
use rtree_geom::Rect;
use rtree_index::RTree;
use rtree_wal::{GroupWal, MemLog};
use std::io;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// An R-tree materialized onto pages, queried through a buffer manager that
/// counts physical reads — the end-to-end ground truth for the paper's
/// disk-access metric.
///
/// It is a one-shard [`ConcurrentDiskRTree`], to which it dereferences for
/// every read, pin, resize and counter. A tree that is never written is
/// exactly that tree, read-only. The first [`DiskRTree::insert`] or
/// [`DiskRTree::delete`] attaches the concurrent tree's writer, logging to
/// the log [`DiskRTree::attach_wal`] gave (or to memory); from then on the
/// tree reads the way a writable tree does, and its [`ConcurrentDiskRTree::meta`]
/// is refreshed after every write.
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
/// let disk = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
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
    core: ConcurrentDiskRTree<S>,
    /// The log the writer will take at the first write.
    wal: Option<GroupWal>,
}

impl<S: PageStore> Deref for DiskRTree<S> {
    type Target = ConcurrentDiskRTree<S>;

    fn deref(&self) -> &ConcurrentDiskRTree<S> {
        &self.core
    }
}

impl<S: PageStore> DerefMut for DiskRTree<S> {
    fn deref_mut(&mut self) -> &mut ConcurrentDiskRTree<S> {
        &mut self.core
    }
}

impl<S: PageStore> DiskRTree<S> {
    /// Assembles the one-shard tree over an image whose metadata is `meta`.
    fn assemble(
        store: S,
        meta: PageMeta,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> Self {
        DiskRTree {
            core: ConcurrentDiskRTree::assemble(store, meta, buffer_capacity, 1, once(policy)),
            wal: None,
        }
    }

    /// Serializes `tree` into `store` and returns a handle with the given
    /// buffer capacity and policy.
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
        let meta = materialize(&store, tree, false)?;
        Ok(Self::assemble(store, meta, buffer_capacity, policy))
    }

    /// Like [`DiskRTree::create`], but materializing a *compressed*
    /// (format v4) image: internal levels are repacked bottom-up into
    /// Packed pages of up to [`crate::MAX_ENTRIES_PACKED`] quantized
    /// entries. The higher internal fan-out shrinks the tree's internal
    /// footprint ~2.5×, so at an equal frame budget more of the buffer is
    /// left for leaves — the mechanism behind the buffering paper's
    /// fewer-disk-accesses prediction, which `rtree-bench`'s
    /// `compressed_reads` test pins. Leaves stay exact: when every item is
    /// a point they are repacked into point-body pages of up to
    /// [`crate::MAX_ENTRIES_POINTS`], otherwise they stay SoA. Decoded
    /// routing rects conservatively contain the true ones, so query results
    /// are exactly the uncompressed tree's.
    ///
    /// # Panics
    /// Panics if the tree is empty or its node capacity exceeds
    /// [`crate::MAX_ENTRIES_PER_PAGE`].
    pub fn create_compressed(
        store: S,
        tree: &RTree,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        let meta = materialize(&store, tree, true)?;
        Ok(Self::assemble(store, meta, buffer_capacity, policy))
    }

    /// Creates an empty, mutable tree: a meta page and an empty root leaf.
    ///
    /// `min_entries` is Guttman's `m`; it must satisfy
    /// `1 <= m <= max_entries / 2` so a split can always produce two legal
    /// nodes.
    ///
    /// # Panics
    /// Panics if the capacities are out of range.
    pub fn create_empty(
        store: S,
        max_entries: usize,
        min_entries: usize,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        let meta = materialize_empty(&store, max_entries, min_entries, true)?;
        Ok(Self::assemble(store, meta, buffer_capacity, policy))
    }

    /// Opens a previously materialized tree.
    pub fn open(
        store: S,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        let meta = ConcurrentDiskRTree::read_meta(&store)?;
        Ok(Self::assemble(store, meta, buffer_capacity, policy))
    }

    /// Gives the writer its write-ahead log: the operations from the first
    /// write on are logged there and, after a crash, restored by
    /// [`crate::recover`], [`ConcurrentDiskRTree::open_writable`] and
    /// [`crate::replay_committed`]; a failed log flush fails the operation
    /// and poisons the log.
    ///
    /// # Panics
    /// Panics if the tree has been written: the writer has its log.
    pub fn attach_wal(&mut self, wal: GroupWal) {
        assert!(!self.is_writable(), "attach the log before the first write");
        self.wal = Some(wal);
    }

    /// Runs one write on the writable tree, attaching its writer first if
    /// this is the first, and refreshes the metadata snapshot.
    fn write<R>(
        &mut self,
        op: impl FnOnce(&ConcurrentDiskRTree<S>) -> io::Result<R>,
    ) -> io::Result<R> {
        if !self.is_writable() {
            let wal = match &self.wal {
                Some(wal) => wal.clone(),
                None => GroupWal::open(MemLog::new())?,
            };
            self.core.attach_writer(wal)?;
        }
        let done = op(&self.core);
        self.core.sync_meta();
        done
    }

    /// Inserts an item: [`ConcurrentDiskRTree::insert`], one group commit.
    pub fn insert(&mut self, rect: Rect, item: u64) -> io::Result<()> {
        self.write(|tree| tree.insert(&rect, item))
    }

    /// Deletes the exact `(rect, item)` entry if present, condensing
    /// underfull nodes and reinserting their orphaned entries
    /// ([`ConcurrentDiskRTree::delete`]). Returns whether it was found.
    pub fn delete(&mut self, rect: &Rect, item: u64) -> io::Result<bool> {
        self.write(|tree| tree.delete(rect, item))
    }

    /// Makes the image durable: on a written tree the
    /// [`ConcurrentDiskRTree::checkpoint`] (the overlay written back, the
    /// store fsynced, the log truncated); on one never written, the store's
    /// durability barrier alone.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        match self.is_writable() {
            true => self.write(ConcurrentDiskRTree::checkpoint),
            false => self.store().flush_shared(),
        }
    }

    /// The same as [`DiskRTree::checkpoint`].
    pub fn flush(&mut self) -> io::Result<()> {
        self.checkpoint()
    }

    /// Tears the tree down and returns the bare store, discarding the
    /// overlay — the crash path for recovery tests. Call
    /// [`DiskRTree::flush`] first for an orderly shutdown.
    pub fn into_store(self) -> S {
        let ConcurrentDiskRTree { store, shards, .. } = self.core;
        drop(shards);
        let store = Arc::try_unwrap(store).ok();
        store.expect("the shard held the only other handle on the store")
    }
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
/// `k − 1`, which becomes a page id here. `[M, m]` are the node capacity
/// and Guttman's min fill; a `compressed` (format v4) image has Packed
/// internal pages of up to [`MAX_ENTRIES_PACKED`] entries. `level_table`
/// records the level-order layout in the meta page; a tree that is about
/// to be mutated in place never relies on it.
///
/// # Panics
/// Panics if a capacity is out of range: `2 <= M <= 102`, Guttman's
/// `1 <= m <= M/2`.
fn write_image<S: PageStore>(
    store: &S,
    nodes: &[usize],
    mut entries_of: impl FnMut(usize, usize) -> Vec<(Rect, u64)>,
    [max_entries, min_entries]: [usize; 2],
    compressed: bool,
    items: u64,
    level_table: bool,
) -> io::Result<PageMeta> {
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
    let meta_page = store.allocate_shared()?;
    debug_assert_eq!(meta_page, PageId(0));
    meta.encode(&mut buf);
    store.write_page_shared(meta_page, &buf)?;
    for k in (0..nodes.len()).rev() {
        for i in 0..nodes[k] {
            let mut entries = entries_of(k, i);
            if k > 0 {
                for (_, child) in &mut entries {
                    *child += start_of[k - 1];
                }
            }
            let level = k as u16;
            let pid = store.allocate_shared()?;
            NodePage { level, entries }.encode_for(&meta, &mut buf);
            store.write_page_shared(pid, &buf)?;
        }
    }
    Ok(meta)
}

/// Writes the image of an empty tree: an empty root leaf under the meta
/// page.
pub(crate) fn materialize_empty<S: PageStore>(
    store: &S,
    max_entries: usize,
    min_entries: usize,
    level_table: bool,
) -> io::Result<PageMeta> {
    let caps = [max_entries, min_entries];
    write_image(store, &[1], |_, _| Vec::new(), caps, false, 0, level_table)
}

/// Serializes `tree` into `store` through [`write_image`]. Uncompressed,
/// the pages are the tree's nodes, leaves as exact-`f64` SoA pages.
/// `compressed` (a format v4 image), the internal levels are *not* copied
/// from the tree but rebuilt bottom-up by chunking consecutive children into
/// full Packed pages, so the repacked tree is usually shallower and its
/// internal footprint far smaller. When every item is a point (and each
/// page's ids fit its deltas), so are the leaves: the items, in leaf order,
/// chunked into full point-body pages — MBRs in one pass, entries in another.
pub(crate) fn materialize<S: PageStore>(
    store: &S,
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
    let items = || levels[0].iter().flat_map(|id| tree.node(*id).entries());
    let chunk = point_capacity(tree.max_entries());
    let mut points = compressed;
    // The levels above the leaves, as entries pointing into the level
    // below: small (a node per page-full of children), so held whole.
    let mut upper: Vec<Vec<Vec<(Rect, u64)>>> = Vec::new();
    let mut nodes = vec![levels[0].len()];
    if compressed {
        // Point bodies of `chunk` items in leaf order, if each can hold its
        // own: their MBRs and id spans (afresh per chunk) in one walk.
        let mut below: Vec<Rect> = Vec::new();
        let mut span = None;
        for (j, e) in items().enumerate() {
            match below.last_mut() {
                Some(mbr) if j % chunk != 0 => *mbr = mbr.union(&e.0),
                _ => below.push(e.0),
            }
            span = span.filter(|_| j % chunk != 0);
            if !widen_point_span(&mut span, &e) {
                points = false;
                below = levels[0].iter().map(|id| tree.node(*id).mbr()).collect();
                break;
            }
        }
        nodes[0] = below.len();
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
    nodes.extend(upper.iter().map(Vec::len));
    let mut stream = items();
    let entries_of = |k: usize, i: usize| match k {
        0 if points => stream.by_ref().take(chunk).collect(),
        0 => tree.node(levels[0][i]).entries().collect(),
        _ => std::mem::take(&mut upper[k - 1][i]),
    };
    let caps = [tree.max_entries(), tree.min_entries()];
    write_image(
        store,
        &nodes,
        entries_of,
        caps,
        compressed,
        tree.len() as u64,
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use rtree_buffer::LruPolicy;
    use rtree_geom::{HilbertCurve, Point};
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
        let (disk, tree, _) = disk_tree(600, 10, 50);
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
        let (disk, tree, _) = disk_tree(600, 10, 1000);
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
        let disk = DiskRTree::create(MemStore::new(), &tree, 10, LruPolicy::new()).unwrap();
        assert_eq!(disk.meta().items, 300);
        let disk = DiskRTree::open(disk.into_store(), 10, LruPolicy::new()).unwrap();
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
        let (disk, _, _) = disk_tree(2_000, 10, 30);
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
        let simd = DiskRTree::create(MemStore::new(), &tree, 40, LruPolicy::new()).unwrap();
        let seed = DiskRTree::create(MemStore::new(), &tree, 40, LruPolicy::new()).unwrap();
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
    /// CRC-32s recorded from the build that still had three materializers,
    /// one per form an image is born in, and (clustered) from the build
    /// that still recomputed a curve key at every sort comparison — its v4
    /// image re-recorded when point leaves got the point body.
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
        // The lattice above has no tied Hilbert keys; tight clusters do, so
        // these images also pin the packer's order among tied entries.
        let rects = rtree_datagen::ClusteredPoints::new(20_000, 8, 0.002).generate(3);
        // The loader's key: the center's cell on the order-16 curve.
        let curve = HilbertCurve::new(16);
        let mut keys: Vec<u64> = rects.iter().map(|r| curve.index_of(&r.center())).collect();
        keys.sort_unstable();
        let ties = keys.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(ties >= 100, "only {ties} tied keys");
        let tree = BulkLoader::hilbert(100).load(&rects);
        let v3 = DiskRTree::create(MemStore::new(), &tree, 4, LruPolicy::new()).unwrap();
        assert_eq!(crc(v3.into_store()), (204, 3_240_902_090), "clustered v3");
        let v4 = DiskRTree::create_compressed(MemStore::new(), &tree, 4, LruPolicy::new()).unwrap();
        // Every item is a point: 101 point-body leaves of up to 199.
        assert_eq!(crc(v4.into_store()), (103, 2_471_138_826), "clustered v4");
        let empty = DiskRTree::create_empty(MemStore::new(), 16, 6, 4, LruPolicy::new()).unwrap();
        assert_eq!(crc(empty.into_store()), (2, 3_701_525_664), "empty");
        // The writable tree's empty image records no level table.
        let store = MemStore::new();
        materialize_empty(&store, 16, 6, false).unwrap();
        assert_eq!(crc(store), (2, 0x6d3a_a3ff), "empty, no level table");
    }

    /// Every capacity the packing loader accepts yields a tree an image can
    /// hold; caps 2 and 3 used to record a min fill above `cap / 2`.
    #[test]
    fn packed_trees_of_every_loader_capacity_write_an_image() {
        let rects = sample_rects(60);
        for cap in 2..=5 {
            for loader in [BulkLoader::hilbert(cap), BulkLoader::str_pack(cap)] {
                let tree = loader.load(&rects);
                let disk = DiskRTree::create(MemStore::new(), &tree, 8, LruPolicy::new())
                    .unwrap_or_else(|e| panic!("cap {cap}: {e}"));
                let all = disk.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();
                assert_eq!(all.len(), 60, "cap {cap}");
            }
        }
    }

    #[test]
    fn point_query_matches_degenerate_rect_query() {
        let (disk, tree, _) = disk_tree(600, 10, 50);
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
        let (disk, tree, _) = disk_tree(700, 10, 60);
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
            let disk = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new());
            let store = disk.unwrap().into_store();
            let faulty =
                crate::FaultStore::new(store, rtree_wal::CrashSwitch::new()).fail_read_at(fail_at);
            let disk = DiskRTree::open(faulty, 64, LruPolicy::new()).unwrap();
            let attempt = || match pin {
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
        let (disk, _, _) = disk_tree(200, 10, 10);
        disk.reset_counters();
        let (hits, reads) = disk
            .query_counting(&Rect::new(0.995, 0.995, 1.0, 1.0))
            .unwrap();
        // This corner is outside every MBR for our generator.
        assert!(hits.is_empty());
        assert_eq!(reads, 0, "root miss must not charge the buffer");
    }
}
