//! Guttman's insert and condense-tree delete, written once against the
//! write seam ([`PageWrite`]), plus the mutable [`DiskRTree`] operations
//! (FindLeaf is a walk, [`find_leaf`]). Every node is loaded at the level
//! the descent reached, so a pointer cycle fails an operation, not hangs it.
//!
//! On the sequential tree every page touched by an operation goes through
//! [`crate::BufferManager::write_buffered`], so with a WAL attached
//! ([`crate::DiskRTree::attach_wal`]) the full before/after images are
//! logged and the operation is recoverable: each public call ends with a
//! commit marker, making it a single-op transaction. The concurrent tree
//! runs the same functions over its cursor: the insert descent under latch
//! crabbing, CondenseTree under its exclusive gate.
//!
//! Mutations abandon the bulk-load level-order page layout; the metadata's
//! level table is cleared on the first insert or delete and the layout-
//! dependent helpers refuse to run afterwards
//! ([`crate::DiskRTree::pin_top_levels`] with `InvalidInput`,
//! [`crate::DiskRTree::pages_per_level`] by panicking). Freed pages go on
//! an intrusive free list (head in the meta page, `FREE`-tagged pages
//! chaining to the next) and are reused before the store grows.

use crate::disk_tree::{materialize_empty, DiskRTree};
use crate::seam::PageWrite;
use crate::walk::{find_leaf, Found};
use crate::{BufferManager, NodePage, PageStore, PAGE_SIZE};
use rtree_buffer::{PageId, ReplacementPolicy};
use rtree_geom::Rect;
use rtree_index::{choose_subtree, QuadraticSplit, SplitPolicy};
use std::io;

pub(crate) fn mbr(entries: &[(Rect, u64)]) -> Rect {
    entries
        .iter()
        .skip(1)
        .fold(entries[0].0, |acc, (r, _)| acc.union(r))
}

/// Inserts `entry` into a node at `target_level` — 0 for items; orphan
/// reinsertion passes the level the entry originally lived at.
///
/// One top-down pass (ChooseLeaf): each parent slot is grown to cover the
/// entry before the descent leaves the page, and the page is stored only
/// when the slot actually grew, so no upward rectangle pass follows. A
/// non-full node cannot split, so no split below it can pass it: the
/// descent says so ([`PageWrite::split_safe`]) and keeps on its path only
/// the full ancestors beneath it. AdjustTree then walks up that retained
/// path and nothing else; once it is exhausted the overfull node is the
/// root, and the tree grows a level.
pub(crate) fn insert_entry<W: PageWrite>(
    pages: &mut W,
    entry: (Rect, u64),
    target_level: u16,
) -> io::Result<()> {
    let capacity = |pages: &mut W, level: u16| pages.meta(|m| m.capacity_at(level));
    let (mut id, root_level) = pages.meta(|m| (m.root, m.root_level()));
    let mut node = pages.load(id, root_level)?;
    // The ancestors a split can still reach, with the slot taken in each.
    let mut path: Vec<(u64, NodePage, usize)> = Vec::new();
    loop {
        if node.entries.len() < capacity(pages, node.level) {
            pages.split_safe();
            path.clear();
        }
        if node.level <= target_level {
            break;
        }
        let slot = choose_subtree(node.entries.iter().map(|e| &e.0), &entry.0);
        let (covered, child) = node.entries[slot];
        let grown = covered.union(&entry.0);
        if grown != covered {
            node.entries[slot].0 = grown;
            pages.store(id, &node)?;
        }
        pages.latch(child);
        let below = pages.load(child, node.level - 1)?;
        path.push((id, node, slot));
        (id, node) = (child, below);
    }
    debug_assert_eq!(node.level, target_level, "target level must exist");
    node.entries.push(entry);

    while node.entries.len() > capacity(pages, node.level) {
        let min = pages.meta(|m| m.min_entries as usize);
        let rects: Vec<Rect> = node.entries.iter().map(|e| e.0).collect();
        let (stay, go) = QuadraticSplit.split(&rects, min);
        let sibling = NodePage {
            level: node.level,
            entries: go.iter().map(|&i| node.entries[i]).collect(),
        };
        node.entries = stay.iter().map(|&i| node.entries[i]).collect();
        pages.store(id, &node)?;
        let sibling_id = pages.alloc()?;
        pages.store(sibling_id, &sibling)?;
        pages.meta(|m| m.nodes += 1);
        let (parent_id, mut parent) = match path.pop() {
            Some((parent_id, mut parent, slot)) => {
                debug_assert_eq!(parent.entries[slot].1, id);
                parent.entries[slot].0 = mbr(&node.entries);
                (parent_id, parent)
            }
            None => {
                // The root itself split: grow the tree by one level.
                let root_id = pages.alloc()?;
                pages.meta(|m| {
                    m.root = root_id;
                    m.height += 1;
                    m.nodes += 1;
                });
                let entries = vec![(mbr(&node.entries), id)];
                let level = node.level + 1;
                (root_id, NodePage { level, entries })
            }
        };
        parent.entries.push((mbr(&sibling.entries), sibling_id));
        (id, node) = (parent_id, parent);
    }
    pages.store(id, &node)
}

/// Removes `(rect, item)` from the leaf [`find_leaf`] located (`path` is
/// its root-to-leaf path), then runs CondenseTree — dissolving underfull
/// nodes, tightening ancestor rectangles, reinserting orphans at their
/// original level — and ShrinkTree.
pub(crate) fn remove_entry<W: PageWrite>(
    pages: &mut W,
    (leaf_id, mut path): Found,
    rect: &Rect,
    item: u64,
) -> io::Result<()> {
    let mut cur = pages.load(leaf_id, 0)?;
    let pos = cur
        .entries
        .iter()
        .position(|(r, p)| *p == item && r == rect)
        .expect("find_leaf verified the entry");
    cur.entries.remove(pos);

    let min = pages.meta(|m| m.min_entries as usize);
    let mut orphans: Vec<(u16, Vec<(Rect, u64)>)> = Vec::new();
    let mut cur_id = leaf_id;
    while let Some((parent_id, slot)) = path.pop() {
        let mut parent = pages.load(parent_id, cur.level + 1)?;
        debug_assert_eq!(parent.entries[slot].1, cur_id);
        if cur.entries.len() < min {
            orphans.push((cur.level, std::mem::take(&mut cur.entries)));
            pages.free(cur_id)?;
            pages.meta(|m| m.nodes -= 1);
            parent.entries.remove(slot);
        } else {
            pages.store(cur_id, &cur)?;
            parent.entries[slot].0 = mbr(&cur.entries);
        }
        cur_id = parent_id;
        cur = parent;
    }
    // `cur` is now the root; it may legally underflow (or empty out
    // entirely when it is a leaf).
    pages.store(cur_id, &cur)?;

    // Reinsert orphaned entries at their original level, highest first,
    // so subtrees land before the entries that would go under them.
    orphans.sort_by_key(|o| std::cmp::Reverse(o.0));
    for (level, entries) in orphans {
        for entry in entries {
            insert_entry(pages, entry, level)?;
        }
    }

    // ShrinkTree: while the root is internal with a single child, the
    // child becomes the root.
    loop {
        let (root_id, level) = pages.meta(|m| (m.root, m.root_level()));
        let root = pages.load(root_id, level)?;
        if level == 0 || root.entries.len() != 1 {
            break;
        }
        pages.free(root_id)?;
        pages.meta(|m| {
            m.root = root.entries[0].1;
            m.height -= 1;
            m.nodes -= 1;
        });
    }
    pages.meta(|m| m.items -= 1);
    Ok(())
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
        let meta = materialize_empty(&mut store, max_entries, min_entries, true)?;
        Ok(DiskRTree::from_parts(
            BufferManager::new(store, buffer_capacity, policy),
            meta,
        ))
    }

    /// Inserts an item, logging every page it changes and committing at
    /// the end. Runs Guttman's ChooseLeaf / QuadraticSplit / AdjustTree
    /// over pages.
    pub fn insert(&mut self, rect: Rect, item: u64) -> io::Result<()> {
        debug_assert!(rect.is_valid(), "inserting an invalid rectangle");
        insert_entry(&mut self.writer(), (rect, item), 0)?;
        self.meta.items += 1;
        self.finish_op()
    }

    /// Deletes the exact `(rect, item)` entry if present, condensing
    /// underfull nodes and reinserting their orphaned entries. Returns
    /// whether the entry was found.
    pub fn delete(&mut self, rect: &Rect, item: u64) -> io::Result<bool> {
        let mut pages = self.writer();
        let (root, level) = pages.meta(|m| (m.root, m.root_level()));
        let Some(found) = find_leaf(&mut pages, root, level, rect, item)? else {
            return Ok(false);
        };
        remove_entry(&mut pages, found, rect, item)?;
        drop(pages);
        self.finish_op()?;
        Ok(true)
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
    use crate::seam::PageRead;
    use crate::{MemStore, PageMeta};
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

    /// What the insert descent asked of its view, in order.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Call {
        Latch(u64),
        Load(u64),
        SplitSafe,
        Store(u64),
        Alloc(u64),
    }
    use Call::*;

    /// A scripted write seam (capacity 4, min fill 2) that records every
    /// call and can fail the n-th load.
    struct Script {
        meta: PageMeta,
        pages: std::collections::BTreeMap<u64, NodePage>,
        calls: Vec<Call>,
        /// Fail the n-th load (1-based).
        fail_load: Option<usize>,
        /// The image of the page fetched last.
        frame: Vec<u8>,
    }

    /// A small square item at `x`.
    fn sq(x: f64) -> Rect {
        Rect::new(x, 0.0, x + 0.04, 0.04)
    }

    impl Script {
        /// Root page 1 over `children` (all of one level) as pages `2..`;
        /// the root's slots are the children's MBRs.
        fn new(children: Vec<NodePage>) -> Self {
            let mut pages = std::collections::BTreeMap::new();
            let root = NodePage {
                level: children[0].level + 1,
                entries: (2..)
                    .zip(&children)
                    .map(|(id, c)| (mbr(&c.entries), id))
                    .collect(),
            };
            let (height, nodes) = (root.level as u32 + 1, children.len() as u64 + 1);
            pages.insert(1, root);
            pages.extend((2..).zip(children));
            let mut meta = materialize_empty(&mut MemStore::new(), 4, 2, false).expect("meta");
            (meta.height, meta.nodes) = (height, nodes);
            Script {
                meta,
                pages,
                calls: Vec::new(),
                fail_load: None,
                frame: vec![0u8; PAGE_SIZE],
            }
        }

        /// A two-level tree: leaf `i` holds `fills[i]` squares in the band
        /// starting at `x = i / 4`.
        fn leaves(fills: &[usize]) -> Self {
            let leaf = |(i, &fill): (usize, &usize)| NodePage {
                level: 0,
                entries: (0..fill)
                    .map(|j| (sq(i as f64 * 0.25 + j as f64 * 0.05), (10 * i + j) as u64))
                    .collect(),
            };
            Script::new(fills.iter().enumerate().map(leaf).collect())
        }

        fn insert(mut self, entry: (Rect, u64), level: u16) -> (Self, io::Result<()>) {
            let result = insert_entry(&mut self, entry, level);
            (self, result)
        }
    }

    impl PageRead for Script {
        fn fetch(&mut self, id: u64, _level: u16) -> io::Result<&[u8]> {
            let loads = self.calls.iter().filter(|c| matches!(c, Load(_))).count();
            if self.fail_load == Some(loads + 1) {
                return Err(io::Error::other("scripted fault"));
            }
            self.calls.push(Load(id));
            self.pages[&id].encode(&mut self.frame);
            Ok(&self.frame)
        }
    }

    impl PageWrite for Script {
        fn meta<R>(&mut self, f: impl FnOnce(&mut PageMeta) -> R) -> R {
            f(&mut self.meta)
        }
        fn store(&mut self, id: u64, node: &NodePage) -> io::Result<()> {
            assert!(node.entries.len() <= 4, "stored page {id} overfull");
            self.calls.push(Store(id));
            self.pages.insert(id, node.clone());
            Ok(())
        }
        fn alloc(&mut self) -> io::Result<u64> {
            let allocated = self.calls.iter().filter_map(|c| match c {
                Alloc(id) => Some(*id),
                _ => None,
            });
            let id = allocated
                .chain(self.pages.keys().copied())
                .max()
                .expect("a root")
                + 1;
            self.calls.push(Alloc(id));
            Ok(id)
        }
        fn free(&mut self, _id: u64) -> io::Result<()> {
            unreachable!("an insert frees nothing")
        }
        fn latch(&mut self, child: u64) {
            self.calls.push(Latch(child));
        }
        fn split_safe(&mut self) {
            self.calls.push(SplitSafe);
        }
    }

    /// Every slot of internal page `id` is exactly its child's MBR.
    fn assert_slots_exact(s: &Script, id: u64) {
        for (rect, child) in &s.pages[&id].entries {
            assert_eq!(
                *rect,
                mbr(&s.pages[child].entries),
                "slot of {child} in {id}"
            );
        }
    }

    #[test]
    fn no_split_insert_stores_the_parent_only_if_its_slot_grew() {
        // Inside leaf 2's rectangle: the root is read, never written.
        let (s, r) = Script::leaves(&[2, 2]).insert((sq(0.02), 99), 0);
        r.unwrap();
        let quiet = [Load(1), SplitSafe, Latch(2), Load(2), SplitSafe, Store(2)];
        assert_eq!(s.calls, quiet);
        assert_slots_exact(&s, 1);

        // Outside it: the slot is grown and stored before the child is
        // latched, and what it grew to is exactly the child's new MBR.
        let (s, r) = Script::leaves(&[2, 2]).insert((sq(0.1), 99), 0);
        r.unwrap();
        let grown = [
            Load(1),
            SplitSafe,
            Store(1),
            Latch(2),
            Load(2),
            SplitSafe,
            Store(2),
        ];
        assert_eq!(s.calls, grown);
        assert_slots_exact(&s, 1);
        assert_eq!(s.pages[&2].entries.len(), 3);
    }

    #[test]
    fn leaf_split_stops_at_a_split_safe_parent() {
        let (s, r) = Script::leaves(&[4, 2]).insert((sq(0.02), 99), 0);
        r.unwrap();
        // The full leaf is not announced split-safe; its halves go to pages
        // 2 and 4 and the retained parent takes the new slot.
        let calls = [
            Load(1),
            SplitSafe,
            Latch(2),
            Load(2),
            Store(2),
            Alloc(4),
            Store(4),
            Store(1),
        ];
        assert_eq!(s.calls, calls);
        assert_slots_exact(&s, 1);
        assert_eq!(s.pages[&1].entries.len(), 3);
        assert_eq!((s.meta.root, s.meta.height, s.meta.nodes), (1, 2, 4));
    }

    #[test]
    fn split_through_a_full_root_grows_the_tree() {
        let (s, r) = Script::leaves(&[4, 2, 2, 2]).insert((sq(0.02), 99), 0);
        r.unwrap();
        // Nothing on the path is split-safe, so nothing is released: leaf,
        // then root, then a new root over the root's halves.
        let calls = [
            Load(1),
            Latch(2),
            Load(2),
            Store(2),
            Alloc(6),
            Store(6),
            Store(1),
            Alloc(7),
            Store(7),
            Alloc(8),
            Store(8),
        ];
        assert_eq!(s.calls, calls);
        assert_eq!((s.meta.root, s.meta.height, s.meta.nodes), (8, 3, 8));
        assert_eq!(s.pages[&8].level, 2);
        for id in [8, 1, 7] {
            assert_slots_exact(&s, id);
        }
    }

    #[test]
    fn orphan_reinsertion_stops_at_its_level() {
        // Level-1 nodes over leaf pages the descent must never ask for.
        let internal = |first: u64| NodePage {
            level: 1,
            entries: (first..first + 2)
                .map(|child| (sq(child as f64 * 0.01), child))
                .collect(),
        };
        let tree = Script::new(vec![internal(10), internal(40)]);
        let (s, r) = tree.insert((sq(0.13), 77), 1);
        r.unwrap();
        let calls = [
            Load(1),
            SplitSafe,
            Store(1),
            Latch(2),
            Load(2),
            SplitSafe,
            Store(2),
        ];
        assert_eq!(s.calls, calls);
        assert_eq!(s.pages[&2].entries.last(), Some(&(sq(0.13), 77)));
        assert_slots_exact(&s, 1);
    }

    #[test]
    fn a_failed_load_ends_the_insert_at_once() {
        for fills in [&[2, 2][..], &[4, 2, 2, 2]] {
            let (ok, r) = Script::leaves(fills).insert((sq(0.22), 99), 0);
            r.unwrap();
            for nth in 1..=2 {
                let mut faulty = Script::leaves(fills);
                faulty.fail_load = Some(nth);
                let (s, r) = faulty.insert((sq(0.22), 99), 0);
                assert_eq!(r.unwrap_err().to_string(), "scripted fault");
                // Exactly the calls that precede that load; no store, hook
                // or allocation follows the error.
                let loads = ok
                    .calls
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| matches!(c, Load(_)));
                let (cut, _) = loads.clone().nth(nth - 1).expect("two loads");
                assert_eq!(s.calls, ok.calls[..cut], "fills {fills:?}, load {nth}");
                assert_eq!(s.meta.nodes, fills.len() as u64 + 1);
            }
        }
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
    fn page_split_respects_min_fill() {
        // 11 entries into a capacity-10 root leaf: the one split that
        // follows must leave both pages at or above the minimum fill of 4.
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 10, 4, 16, LruPolicy::new()).unwrap();
        for (i, r) in rects(11).into_iter().enumerate() {
            disk.insert(r, i as u64).unwrap();
        }
        let root = disk.meta().root;
        let mut pages = disk.writer();
        let root = pages.load(root, 1).unwrap();
        assert_eq!(root.entries.len(), 2);
        let mut total = 0;
        for (_, child) in root.entries {
            let fill = pages.load(child, 0).unwrap().entries.len();
            assert!(fill >= 4, "page {child} below min fill: {fill}");
            total += fill;
        }
        assert_eq!(total, 11);
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
