//! Guttman's insert and condense-tree delete, written once against the
//! write seam ([`PageWrite`]), plus its sequential instantiation: the
//! mutable [`DiskRTree`] operations, executed page-by-page through the
//! buffer manager.
//!
//! On the sequential tree every page touched by an operation goes through
//! [`crate::BufferManager::write_buffered`], so with a WAL attached
//! ([`crate::DiskRTree::attach_wal`]) the full before/after images are
//! logged and the operation is recoverable: each public call ends with a
//! commit marker, making it a single-op transaction. The concurrent tree
//! runs the same functions over its exclusive-gate view.
//!
//! Mutations abandon the bulk-load level-order page layout; the metadata's
//! level table is cleared on the first insert or delete and the layout-
//! dependent helpers refuse to run afterwards
//! ([`crate::DiskRTree::pin_top_levels`] with `InvalidInput`,
//! [`crate::DiskRTree::pages_per_level`] by panicking). Freed pages go on
//! an intrusive free list (head in the meta page, `FREE`-tagged pages
//! chaining to the next) and are reused before the store grows.

use crate::disk_tree::{materialize_empty, DiskRTree};
use crate::page::PageLayout;
use crate::seam::PageWrite;
use crate::{BufferManager, NodePage, PageMeta, PageStore, PAGE_SIZE};
use rtree_buffer::{PageId, ReplacementPolicy};
use rtree_geom::Rect;
use std::io;

/// Magic tag at offset 0 of a page on the free list.
const FREE_MAGIC: &[u8; 4] = b"FREE";
/// Byte offset of the next-free-page pointer inside a free page. Offsets
/// 8..12 hold the page CRC (the buffer manager verifies every page at
/// page-in, free pages included), so the pointer sits past it.
const FREE_NEXT_OFFSET: usize = 16;

pub(crate) fn mbr(entries: &[(Rect, u64)]) -> Rect {
    entries
        .iter()
        .skip(1)
        .fold(entries[0].0, |acc, (r, _)| acc.union(r))
}

/// Guttman's ChooseLeaf criterion: least enlargement, ties broken by
/// smaller area, then lower slot.
pub(crate) fn choose_subtree(entries: &[(Rect, u64)], rect: &Rect) -> usize {
    let mut best = 0;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, (r, _)) in entries.iter().enumerate() {
        let enlargement = r.enlargement(rect);
        let area = r.area();
        if enlargement < best_enlargement || (enlargement == best_enlargement && area < best_area) {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}

/// A raw page entry: rectangle plus child page id (internal) or item id (leaf).
pub(crate) type PageEntry = (Rect, u64);

/// Guttman's quadratic split over raw page entries.
pub(crate) fn quadratic_split(
    mut entries: Vec<PageEntry>,
    min: usize,
) -> (Vec<PageEntry>, Vec<PageEntry>) {
    debug_assert!(entries.len() >= 2 && entries.len() >= 2 * min);

    // PickSeeds: the pair wasting the most area if grouped together.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let waste = entries[i].0.union(&entries[j].0).area()
                - entries[i].0.area()
                - entries[j].0.area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    // Remove the higher index first so the lower stays valid.
    let b_seed = entries.swap_remove(seed_b);
    let a_seed = entries.swap_remove(seed_a);
    let mut group_a = vec![a_seed];
    let mut group_b = vec![b_seed];
    let mut rect_a = group_a[0].0;
    let mut rect_b = group_b[0].0;

    while !entries.is_empty() {
        // If one group must absorb everything left to reach the minimum
        // fill, hand the remainder over wholesale.
        let remaining = entries.len();
        if group_a.len() + remaining == min {
            group_a.append(&mut entries);
            break;
        }
        if group_b.len() + remaining == min {
            group_b.append(&mut entries);
            break;
        }

        // PickNext: the entry with the strongest preference.
        let (mut pick, mut pick_diff) = (0, f64::NEG_INFINITY);
        for (i, (r, _)) in entries.iter().enumerate() {
            let d_a = rect_a.enlargement(r);
            let d_b = rect_b.enlargement(r);
            let diff = (d_a - d_b).abs();
            if diff > pick_diff {
                pick_diff = diff;
                pick = i;
            }
        }
        let entry = entries.swap_remove(pick);
        let d_a = rect_a.enlargement(&entry.0);
        let d_b = rect_b.enlargement(&entry.0);
        // Resolve ties by smaller area, then smaller group.
        let to_a = if d_a != d_b {
            d_a < d_b
        } else if rect_a.area() != rect_b.area() {
            rect_a.area() < rect_b.area()
        } else {
            group_a.len() <= group_b.len()
        };
        if to_a {
            rect_a = rect_a.union(&entry.0);
            group_a.push(entry);
        } else {
            rect_b = rect_b.union(&entry.0);
            group_b.push(entry);
        }
    }
    (group_a, group_b)
}

/// Stores `node` as page `id`, first splitting off a new sibling if it
/// overflows its level's capacity. Returns the MBR of what stayed in `id`
/// and the parent entry of the sibling, if one was made.
fn store_or_split<W: PageWrite>(
    pages: &mut W,
    meta: &mut PageMeta,
    id: u64,
    node: &mut NodePage,
) -> io::Result<(Rect, Option<PageEntry>)> {
    let layout = meta.layout_at(node.level);
    if node.entries.len() <= meta.capacity_at(node.level) {
        pages.store(id, node, layout)?;
        return Ok((mbr(&node.entries), None));
    }
    let (a, b) = quadratic_split(std::mem::take(&mut node.entries), meta.min_entries as usize);
    node.entries = a;
    pages.store(id, node, layout)?;
    let sibling = NodePage {
        level: node.level,
        entries: b,
    };
    let sibling_id = pages.alloc(meta)?;
    pages.store(sibling_id, &sibling, layout)?;
    meta.nodes += 1;
    Ok((
        mbr(&node.entries),
        Some((mbr(&sibling.entries), sibling_id)),
    ))
}

/// Inserts `entry` into a node at `target_level`, splitting upward as
/// needed (AdjustTree). `target_level` is 0 for items; orphan reinsertion
/// passes the level the entry originally lived at.
pub(crate) fn insert_entry<W: PageWrite>(
    pages: &mut W,
    meta: &mut PageMeta,
    entry: PageEntry,
    target_level: u16,
) -> io::Result<()> {
    // Descend to the insertion node, remembering the path.
    let mut path: Vec<(u64, usize)> = Vec::new();
    let mut child_id = meta.root;
    let mut node = pages.load(child_id)?;
    while node.level > target_level {
        let slot = choose_subtree(&node.entries, &entry.0);
        path.push((child_id, slot));
        child_id = node.entries[slot].1;
        node = pages.load(child_id)?;
    }
    debug_assert_eq!(node.level, target_level, "target level must exist");
    node.entries.push(entry);

    // Store (splitting if overfull), then walk the path up adjusting
    // rectangles and installing split siblings.
    let mut level = node.level;
    let (mut child_mbr, mut split) = store_or_split(pages, meta, child_id, &mut node)?;
    while let Some((pid, slot)) = path.pop() {
        let mut parent = pages.load(pid)?;
        debug_assert_eq!(parent.entries[slot].1, child_id);
        parent.entries[slot].0 = child_mbr;
        parent.entries.extend(split.take());
        level = parent.level;
        (child_mbr, split) = store_or_split(pages, meta, pid, &mut parent)?;
        child_id = pid;
    }

    if let Some(sibling) = split {
        // The root itself split: grow the tree by one level.
        let new_root = NodePage {
            level: level + 1,
            entries: vec![(child_mbr, child_id), sibling],
        };
        let new_root_id = pages.alloc(meta)?;
        pages.store(new_root_id, &new_root, meta.layout_at(new_root.level))?;
        meta.root = new_root_id;
        meta.height += 1;
        meta.nodes += 1;
    }
    Ok(())
}

/// Finds the leaf holding the exact `(rect, item)` entry below `pid`,
/// filling `path` with `(page, slot)` pairs from `pid` down.
pub(crate) fn find_leaf<W: PageWrite>(
    pages: &mut W,
    pid: u64,
    rect: &Rect,
    item: u64,
    path: &mut Vec<(u64, usize)>,
) -> io::Result<Option<u64>> {
    let node = pages.load(pid)?;
    if node.level == 0 {
        let found = node.entries.iter().any(|(r, p)| *p == item && r == rect);
        return Ok(found.then_some(pid));
    }
    for (slot, (r, child)) in node.entries.iter().enumerate() {
        if r.contains_rect(rect) {
            path.push((pid, slot));
            if let Some(leaf) = find_leaf(pages, *child, rect, item, path)? {
                return Ok(Some(leaf));
            }
            path.pop();
        }
    }
    Ok(None)
}

/// Removes `(rect, item)` from the leaf [`find_leaf`] located (`path` is
/// its root-to-leaf path), then runs CondenseTree — dissolving underfull
/// nodes, tightening ancestor rectangles, reinserting orphans at their
/// original level — and ShrinkTree.
pub(crate) fn remove_entry<W: PageWrite>(
    pages: &mut W,
    meta: &mut PageMeta,
    leaf_id: u64,
    mut path: Vec<(u64, usize)>,
    rect: &Rect,
    item: u64,
) -> io::Result<()> {
    let mut cur = pages.load(leaf_id)?;
    let pos = cur
        .entries
        .iter()
        .position(|(r, p)| *p == item && r == rect)
        .expect("find_leaf verified the entry");
    cur.entries.remove(pos);

    let min = meta.min_entries as usize;
    let mut orphans: Vec<(u16, Vec<PageEntry>)> = Vec::new();
    let mut cur_id = leaf_id;
    while let Some((parent_id, slot)) = path.pop() {
        let mut parent = pages.load(parent_id)?;
        debug_assert_eq!(parent.entries[slot].1, cur_id);
        if cur.entries.len() < min {
            orphans.push((cur.level, std::mem::take(&mut cur.entries)));
            pages.free(meta, cur_id)?;
            meta.nodes -= 1;
            parent.entries.remove(slot);
        } else {
            pages.store(cur_id, &cur, meta.layout_at(cur.level))?;
            parent.entries[slot].0 = mbr(&cur.entries);
        }
        cur_id = parent_id;
        cur = parent;
    }
    // `cur` is now the root; it may legally underflow (or empty out
    // entirely when it is a leaf).
    pages.store(cur_id, &cur, meta.layout_at(cur.level))?;

    // Reinsert orphaned entries at their original level, highest first,
    // so subtrees land before the entries that would go under them.
    orphans.sort_by_key(|o| std::cmp::Reverse(o.0));
    for (level, entries) in orphans {
        for entry in entries {
            insert_entry(pages, meta, entry, level)?;
        }
    }

    // ShrinkTree: while the root is internal with a single child, the
    // child becomes the root.
    loop {
        let root_id = meta.root;
        let root = pages.load(root_id)?;
        if root.level == 0 || root.entries.len() != 1 {
            break;
        }
        meta.root = root.entries[0].1;
        meta.height -= 1;
        pages.free(meta, root_id)?;
        meta.nodes -= 1;
    }
    meta.items -= 1;
    Ok(())
}

/// The sequential write seam: nodes go through the write-back buffer (and
/// its WAL, if attached); freed pages go on an intrusive on-disk free list.
impl<S: PageStore> PageWrite for BufferManager<S> {
    fn load(&mut self, id: u64) -> io::Result<NodePage> {
        Ok(NodePage::decode(self.fetch(PageId(id))?)?)
    }

    fn store(&mut self, id: u64, node: &NodePage, layout: PageLayout) -> io::Result<()> {
        let mut buf = vec![0u8; PAGE_SIZE];
        // Layout-preserving: internal pages of a compressed tree are
        // re-quantized on every rewrite. Expansion is monotone (the new
        // frame contains the rewritten entries), so the containment
        // invariant queries rely on survives arbitrary mutation.
        node.encode_with(&mut buf, layout);
        self.write_buffered(PageId(id), &buf)
    }

    fn alloc(&mut self, meta: &mut PageMeta) -> io::Result<u64> {
        if meta.free_head == 0 {
            return Ok(self.allocate()?.0);
        }
        let id = meta.free_head;
        let frame = self.fetch(PageId(id))?;
        if &frame[0..4] != FREE_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("free-list page {id} lacks the FREE tag"),
            ));
        }
        meta.free_head = u64::from_le_bytes(
            frame[FREE_NEXT_OFFSET..FREE_NEXT_OFFSET + 8]
                .try_into()
                .expect("8 bytes"),
        );
        Ok(id)
    }

    /// Pushes a page onto the free list (logged like any other write).
    fn free(&mut self, meta: &mut PageMeta, id: u64) -> io::Result<()> {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0..4].copy_from_slice(FREE_MAGIC);
        buf[FREE_NEXT_OFFSET..FREE_NEXT_OFFSET + 8].copy_from_slice(&meta.free_head.to_le_bytes());
        crate::page::seal(&mut buf);
        self.write_buffered(PageId(id), &buf)?;
        meta.free_head = id;
        Ok(())
    }
}

impl<S: PageStore> DiskRTree<S> {
    /// Creates an empty, mutable tree: a meta page and an empty root leaf.
    ///
    /// `min_entries` is Guttman's `m`; it must satisfy
    /// `1 <= m <= max_entries / 2` so a split can always produce two legal
    /// nodes.
    ///
    /// # Panics
    /// Panics if the capacities are out of range.
    pub fn create_empty(
        mut store: S,
        max_entries: usize,
        min_entries: usize,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        let meta = materialize_empty(&mut store, max_entries, min_entries, vec![1])?;
        Ok(DiskRTree::from_parts(
            BufferManager::new(store, buffer_capacity, policy),
            meta,
        ))
    }

    /// Inserts an item, logging every touched page and committing at the
    /// end. Runs Guttman's ChooseLeaf / QuadraticSplit / AdjustTree over
    /// pages.
    pub fn insert(&mut self, rect: Rect, item: u64) -> io::Result<()> {
        debug_assert!(rect.is_valid(), "inserting an invalid rectangle");
        self.in_span(|t| {
            insert_entry(&mut t.mgr, &mut t.meta, (rect, item), 0)?;
            t.meta.items += 1;
            t.finish_op()
        })
    }

    /// Deletes the exact `(rect, item)` entry if present, condensing
    /// underfull nodes and reinserting their orphaned entries. Returns
    /// whether the entry was found.
    pub fn delete(&mut self, rect: &Rect, item: u64) -> io::Result<bool> {
        self.in_span(|t| {
            let mut path = Vec::new();
            let Some(leaf) = find_leaf(&mut t.mgr, t.meta.root, rect, item, &mut path)? else {
                return Ok(false);
            };
            remove_entry(&mut t.mgr, &mut t.meta, leaf, path, rect, item)?;
            t.finish_op()?;
            Ok(true)
        })
    }

    /// Writes the updated metadata and commits the operation.
    fn finish_op(&mut self) -> io::Result<()> {
        // The level-order layout is gone after any mutation.
        self.meta.level_starts.clear();
        let mut buf = vec![0u8; PAGE_SIZE];
        self.meta.encode(&mut buf);
        self.mgr.write_buffered(PageId(0), &buf)?;
        self.mgr.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use rtree_buffer::LruPolicy;
    use rtree_index::RTreeBuilder;

    fn rects(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.95;
                let y = (i as f64 * 0.414_213) % 0.95;
                Rect::new(x, y, x + 0.02, y + 0.02)
            })
            .collect()
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree_queries_empty() {
        let mut t = DiskRTree::create_empty(MemStore::new(), 8, 3, 16, LruPolicy::new()).unwrap();
        assert_eq!(t.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap(), vec![]);
        assert_eq!(t.meta().items, 0);
    }

    #[test]
    fn inserts_match_in_memory_reference() {
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 8, 3, 32, LruPolicy::new()).unwrap();
        let mut reference = RTreeBuilder::new(8).min_entries(3).build();
        for (i, r) in rects(500).iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
            reference.insert(*r, i as u64);
        }
        assert_eq!(disk.meta().items, 500);
        assert!(disk.meta().height > 1, "tree must have grown");
        for q in [
            Rect::new(0.1, 0.1, 0.4, 0.3),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.8, 0.05, 0.9, 0.6),
        ] {
            assert_eq!(
                sorted(disk.query(&q).unwrap()),
                sorted(reference.search(&q)),
                "query {q}"
            );
        }
    }

    #[test]
    fn deletes_match_in_memory_reference() {
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 8, 3, 32, LruPolicy::new()).unwrap();
        let mut reference = RTreeBuilder::new(8).min_entries(3).build();
        let rs = rects(400);
        for (i, r) in rs.iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
            reference.insert(*r, i as u64);
        }
        // Delete every other item, forcing plenty of condensing.
        for (i, r) in rs.iter().enumerate().step_by(2) {
            assert!(disk.delete(r, i as u64).unwrap(), "item {i} present");
            assert!(reference.delete(r, i as u64));
        }
        assert_eq!(disk.meta().items, 200);
        let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(
            sorted(disk.query(&everything).unwrap()),
            sorted(reference.search(&everything))
        );
        // Deleting a missing entry reports false and changes nothing.
        assert!(!disk.delete(&rs[0], 0).unwrap());
        assert_eq!(disk.meta().items, 200);
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 8, 3, 32, LruPolicy::new()).unwrap();
        let rs = rects(150);
        for (i, r) in rs.iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
        }
        for (i, r) in rs.iter().enumerate() {
            assert!(disk.delete(r, i as u64).unwrap());
        }
        assert_eq!(disk.meta().items, 0);
        assert_eq!(disk.meta().height, 1, "tree collapsed to a root leaf");
        assert_eq!(disk.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap(), vec![]);
        // Everything freed is reusable: page count must not grow much on
        // reinsertion.
        let pages_before = disk.mgr.store_mut().page_count();
        for (i, r) in rs.iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
        }
        assert_eq!(
            sorted(disk.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap()).len(),
            150
        );
        assert_eq!(
            disk.mgr.store_mut().page_count(),
            pages_before,
            "free list reuses every dissolved page"
        );
    }

    #[test]
    fn mutated_tree_survives_flush_and_reopen() {
        let mut store = MemStore::new();
        let rs = rects(300);
        {
            let mut disk =
                DiskRTree::create_empty(&mut store, 10, 4, 16, LruPolicy::new()).unwrap();
            for (i, r) in rs.iter().enumerate() {
                disk.insert(*r, i as u64).unwrap();
            }
            for (i, r) in rs.iter().enumerate().take(100) {
                disk.delete(r, i as u64).unwrap();
            }
            disk.flush().unwrap();
        }
        let mut disk = DiskRTree::open(&mut store, 16, LruPolicy::new()).unwrap();
        assert_eq!(disk.meta().items, 200);
        let got = sorted(disk.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap());
        assert_eq!(got, (100..300).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "level table is stale")]
    fn mutation_invalidates_level_table() {
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 8, 3, 16, LruPolicy::new()).unwrap();
        disk.insert(Rect::new(0.1, 0.1, 0.2, 0.2), 7).unwrap();
        disk.pages_per_level();
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let entries: Vec<(Rect, u64)> = rects(11)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (r, i as u64))
            .collect();
        let (a, b) = quadratic_split(entries, 4);
        assert_eq!(a.len() + b.len(), 11);
        assert!(a.len() >= 4, "group A below min fill: {}", a.len());
        assert!(b.len() >= 4, "group B below min fill: {}", b.len());
    }

    #[test]
    fn writes_are_buffered_until_flush() {
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 8, 3, 64, LruPolicy::new()).unwrap();
        for (i, r) in rects(50).iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
        }
        // A 64-frame buffer easily holds this tree: nothing was evicted, so
        // no physical write has happened since creation.
        assert_eq!(disk.physical_writes(), 0);
        disk.flush().unwrap();
        assert!(disk.physical_writes() > 0);
    }
}
