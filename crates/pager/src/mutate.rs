//! Guttman's insert and condense-tree delete, written once against the
//! write seam ([`PageWrite`]); FindLeaf is a walk
//! ([`crate::walk::find_leaf`]). Every node is loaded at the level the
//! descent reached, so a pointer cycle fails an operation, not hangs it.
//!
//! The one writer, [`crate::ConcurrentDiskRTree`]'s (which
//! [`crate::DiskRTree`] attaches at its first write), runs these functions
//! over its cursor: the insert descent under latch crabbing, CondenseTree
//! under its exclusive gate, every store into the no-steal overlay. It logs
//! each operation as one logical record and commits it.
//!
//! Mutations abandon the bulk-load level-order page layout; the metadata's
//! level table is cleared on the first insert or delete and the layout-
//! dependent helpers refuse to run afterwards
//! ([`crate::ConcurrentDiskRTree::pin_top_levels`] with `InvalidInput`,
//! [`crate::ConcurrentDiskRTree::pages_per_level`] by panicking). Freed
//! pages go on the session free list, and a checkpoint writes it out as an
//! intrusive on-disk list (head in the meta page, `FREE`-tagged pages
//! chaining to the next); they are reused before the store grows.

use crate::seam::PageWrite;
use crate::walk::Found;
use crate::NodePage;
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
/// when the slot actually grew, so no upward rectangle pass follows. A node
/// with room for the entry cannot split, so no split below it can pass it:
/// the descent says so ([`PageWrite::split_safe`]) and keeps on its path
/// only the full ancestors beneath it. AdjustTree then walks up that
/// retained path and nothing else; once it is exhausted the overfull node
/// is the root, and the tree grows a level.
///
/// A node's capacity is its layout's ([`crate::PageMeta::format_of`]), so
/// the node the entry lands in is judged with the entry in it; it splits
/// with min fill `m`. Only a point leaf of over `M + m` that the entry made
/// SoA can overflow a half, the one holding the entry, whose rest still
/// fits the point body: the entry moves to the other half, which has room.
pub(crate) fn insert_entry<W: PageWrite>(
    pages: &mut W,
    entry: (Rect, u64),
    target_level: u16,
) -> io::Result<()> {
    let capacity = |pages: &mut W, node: &NodePage, incoming: Option<&(Rect, u64)>| {
        let entries = node.entries.iter().chain(incoming);
        pages.meta(|m| m.format_of(node.level, entries).1)
    };
    let (mut id, root_level) = pages.meta(|m| (m.root, m.root_level()));
    let mut node = pages.load(id, root_level)?;
    // The ancestors a split can still reach, with the slot taken in each.
    let mut path: Vec<(u64, NodePage, usize)> = Vec::new();
    loop {
        let lands = (node.level == target_level).then_some(&entry);
        if node.entries.len() < capacity(pages, &node, lands) {
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

    let excess =
        |pages: &mut W, n: &NodePage| n.entries.len().saturating_sub(capacity(pages, n, None));
    while excess(pages, &node) > 0 {
        let min = pages.meta(|m| m.min_entries as usize);
        let rects: Vec<Rect> = node.entries.iter().map(|e| e.0).collect();
        let (stay, go) = QuadraticSplit.split(&rects, min);
        let mut sibling = NodePage {
            level: node.level,
            entries: go.iter().map(|&i| node.entries[i]).collect(),
        };
        node.entries = stay.iter().map(|&i| node.entries[i]).collect();
        // Only the half holding `entry` can overflow: it hands `entry` over.
        if excess(pages, &sibling) > 0 {
            std::mem::swap(&mut node.entries, &mut sibling.entries);
        }
        if excess(pages, &node) > 0 {
            let k = node.entries.iter().position(|e| *e == entry);
            let moved = node.entries.remove(k.expect("the half holding `entry`"));
            sibling.entries.push(moved);
        }
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

/// Removes `(rect, item)` from the leaf [`crate::walk::find_leaf`] located
/// (`path` is its root-to-leaf path), then runs CondenseTree — dissolving
/// underfull nodes, tightening ancestor rectangles, reinserting orphans at
/// their original level — and ShrinkTree.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk_tree::materialize_empty;
    use crate::seam::PageRead;
    use crate::{DiskRTree, MemStore, PageLayout, PageMeta, PageStore, PAGE_SIZE};
    use rtree_buffer::LruPolicy;
    use rtree_geom::Point;
    use rtree_index::{BulkLoader, RTree, RTreeBuilder};
    use rtree_wal::{crc32, CrashSwitch, FaultLog, GroupWal, LogBackend, LogPoisoned, MemLog};

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
            let mut meta = materialize_empty(&MemStore::new(), 4, 2, false).expect("meta");
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
            self.pages[&id].encode_with(&mut self.frame, PageLayout::Soa);
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
        let t = DiskRTree::create_empty(MemStore::new(), 8, 3, 16, LruPolicy::new()).unwrap();
        assert_eq!(t.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap(), vec![]);
        assert_eq!(t.meta().items, 0);
    }

    /// Rects that spiral outward from the centre, each further out than
    /// every one before it: inserted in order, each grows the root MBR.
    fn growing(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let d = 0.45 * i as f64 / n as f64;
                let (sx, sy) = [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)][i % 4];
                let (x, y) = (0.5 + sx * d, 0.5 + sy * d);
                Rect::new(x, y, x + 0.004, y + 0.004)
            })
            .collect()
    }

    /// The three ways a mutable disk tree starts, each beside its in-memory
    /// reference and with the items it holds or takes (ids are positions):
    /// bulk-loaded from `rs[..loaded]`, and empty, both taking `rs`; and a
    /// compressed image of points (M = 100, m = 40), bulk-loaded from the
    /// corners of `rs[..loaded]`, which takes corners with every seventh
    /// item of `rs` in between. Returns the tree, the reference, the first
    /// id still to insert and the items.
    fn starts(rs: &[Rect], loaded: usize) -> [(DiskRTree<MemStore>, RTree, usize, Vec<Rect>); 3] {
        let bulk = BulkLoader::hilbert(8).load(&rs[..loaded]);
        let disk = DiskRTree::create(MemStore::new(), &bulk, 32, LruPolicy::new()).unwrap();
        let empty = DiskRTree::create_empty(MemStore::new(), 8, 3, 32, LruPolicy::new()).unwrap();
        let reference = RTreeBuilder::new(8).min_entries(3).build();
        let corner = |(i, r): (usize, &Rect)| match i >= loaded && i.is_multiple_of(7) {
            true => *r,
            false => Rect::point(r.lo),
        };
        let mixed: Vec<Rect> = rs.iter().enumerate().map(corner).collect();
        let points = BulkLoader::hilbert(100).load(&mixed[..loaded]);
        let v4 = DiskRTree::create_compressed(MemStore::new(), &points, 32, LruPolicy::new());
        [
            (disk, bulk, loaded, rs.to_vec()),
            (empty, reference, 0, rs.to_vec()),
            (v4.unwrap(), points, loaded, mixed),
        ]
    }

    /// Every leaf of `disk`, left to right: its layout and entries.
    fn leaves(disk: &DiskRTree<MemStore>) -> Vec<(PageLayout, Vec<(Rect, u64)>)> {
        let mut todo = vec![(disk.meta().root, disk.meta().root_level())];
        let mut out = Vec::new();
        while let Some((id, level)) = todo.pop() {
            let (layout, node) = disk.node(id, level).unwrap();
            match level {
                0 => out.push((layout, node.entries)),
                _ => todo.extend(node.entries.iter().rev().map(|e| (e.1, level - 1))),
            }
        }
        out
    }

    /// Every leaf is written in the layout its entries call for and fits
    /// that layout's capacity (a point body only on a compressed tree).
    fn assert_leaf_formats(disk: &DiskRTree<MemStore>, what: &str) {
        let meta = disk.meta().clone();
        for (layout, entries) in leaves(disk) {
            let (want, capacity) = meta.format_of(0, &entries);
            assert_eq!(layout, want, "{what}: {} entries", entries.len());
            assert!(
                entries.len() <= capacity,
                "{what}: {} entries",
                entries.len()
            );
        }
    }

    /// Queries through the root peek after a write of `r`: over `r` itself
    /// (beyond the root's MBR before an insert grew it) and over
    /// everything, each against the in-memory reference. A root frame
    /// cached across the write answers with the old root and fails here.
    fn probe(disk: &DiskRTree<MemStore>, reference: &RTree, r: &Rect, what: &str) {
        for q in [*r, Rect::new(-1.0, -1.0, 2.0, 2.0)] {
            let got = sorted(disk.query(&q).unwrap());
            assert_eq!(got, sorted(reference.search(&q)), "{what}, query {q}");
        }
    }

    #[test]
    fn inserts_match_in_memory_reference() {
        for (mut disk, mut reference, from, rs) in starts(&growing(500), 100) {
            probe(&disk, &reference, &rs[0], "before any insert");
            for (i, r) in rs.iter().enumerate().skip(from) {
                disk.insert(*r, i as u64).unwrap();
                reference.insert(*r, i as u64);
                let what = format!("from {from}, insert {i}");
                probe(&disk, &reference, r, &what);
                assert_leaf_formats(&disk, &what);
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
    }

    #[test]
    fn deletes_match_in_memory_reference() {
        for (mut disk, mut reference, from, rs) in starts(&rects(400), 200) {
            for (i, r) in rs.iter().enumerate().skip(from) {
                disk.insert(*r, i as u64).unwrap();
                reference.insert(*r, i as u64);
            }
            // Delete every other item, forcing plenty of condensing.
            for (i, r) in rs.iter().enumerate().step_by(2) {
                assert!(disk.delete(r, i as u64).unwrap(), "item {i} present");
                assert!(reference.delete(r, i as u64));
                let what = format!("from {from}, delete {i}");
                probe(&disk, &reference, r, &what);
                assert_leaf_formats(&disk, &what);
            }
            assert_eq!(disk.meta().items, 200);
            // Deleting a missing entry reports false and changes nothing.
            assert!(!disk.delete(&rs[0], 0).unwrap());
            assert_eq!(disk.meta().items, 200);
            // The rest: the tree condenses and shrinks to a root leaf.
            for (i, r) in rs.iter().enumerate().skip(1).step_by(2) {
                assert!(disk.delete(r, i as u64).unwrap(), "item {i} present");
                assert!(reference.delete(r, i as u64));
                let what = format!("from {from}, delete {i}");
                probe(&disk, &reference, r, &what);
                assert_leaf_formats(&disk, &what);
            }
            assert_eq!(disk.meta().height, 1, "tree collapsed to a root leaf");
        }
    }

    /// Points `ks` of a quasi-random sequence in the square of side 0.2 at
    /// `(at, at)`, with ids `10_000·at + k`.
    fn cluster(at: f64, ks: std::ops::Range<u64>) -> Vec<(Rect, u64)> {
        let frac = |v: f64| v - v.floor();
        let point = |k: u64| {
            let (x, y) = (frac(k as f64 * 0.618_034), frac(k as f64 * 0.414_214));
            let id = (10_000.0 * at) as u64 + k;
            (Rect::point(Point::new(at + 0.2 * x, at + 0.2 * y)), id)
        };
        ks.map(point).collect()
    }

    /// A compressed tree of points (M = 100, m = 40) through every layout
    /// change a leaf can go through, queried against the reference after
    /// each write. The rectangle that enters a leaf of 150 points finds it
    /// full for the SoA body it now needs: the descent must not call that
    /// leaf split-safe, or the split that follows grows a false root over
    /// its two halves and the other leaf is lost. A point whose id lies 2³³
    /// from its leaf's ids needs the SoA body just as a rectangle does.
    #[test]
    fn point_leaves_take_the_layout_their_entries_need() {
        let (a, b) = (0.1, 0.7);
        let bulk: Vec<Rect> = [cluster(a, 0..50), cluster(b, 0..50)]
            .concat()
            .iter()
            .map(|e| e.0)
            .collect();
        // One root leaf of 100 points; the loader numbers items 0..100.
        let mut reference = BulkLoader::hilbert(100).load(&bulk);
        let disk = DiskRTree::create_compressed(MemStore::new(), &reference, 64, LruPolicy::new());
        let mut disk = disk.unwrap();
        let mut write = |disk: &mut DiskRTree<MemStore>, (r, id): (Rect, u64), insert: bool| {
            if insert {
                disk.insert(r, id).unwrap();
                reference.insert(r, id);
            } else {
                assert!(disk.delete(&r, id).unwrap() && reference.delete(&r, id));
            }
            probe(disk, &reference, &r, &format!("{id}"));
            assert_leaf_formats(disk, &format!("{id}"));
            leaves(disk)
        };
        let shape = |leaves: &[(PageLayout, Vec<(Rect, u64)>)]| -> Vec<(PageLayout, usize)> {
            leaves.iter().map(|(l, e)| (*l, e.len())).collect()
        };
        // Points up to 2M − 1 = 199 in the root leaf, then a split into two
        // point leaves, one per cluster.
        let mut last = Vec::new();
        for e in [cluster(a, 50..85), cluster(b, 50..114)].concat() {
            last = write(&mut disk, e, true);
        }
        assert_eq!(shape(&last), [(PageLayout::Points, 199)]);
        let last = write(&mut disk, cluster(a, 85..86)[0], true);
        assert_eq!(
            shape(&last),
            [(PageLayout::Points, 86), (PageLayout::Points, 114)]
        );
        // A rectangle into the point leaf of 86: re-encoded SoA, no split.
        let r1 = (Rect::new(0.15, 0.15, 0.16, 0.16), 9_001);
        let last = write(&mut disk, r1, true);
        assert_eq!(
            shape(&last),
            [(PageLayout::Soa, 87), (PageLayout::Points, 114)]
        );
        // The other leaf up to 150 points, then a rectangle into it: two
        // halves between m and M, the rectangle's SoA.
        let mut last = Vec::new();
        for e in cluster(b, 114..150) {
            last = write(&mut disk, e, true);
        }
        assert_eq!(
            shape(&last),
            [(PageLayout::Soa, 87), (PageLayout::Points, 150)]
        );
        let r2 = (Rect::new(0.75, 0.75, 0.76, 0.76), 9_002);
        let last = write(&mut disk, r2, true);
        assert_eq!(
            (disk.meta().height, last.len()),
            (2, 3),
            "{:?}",
            shape(&last)
        );
        for (layout, entries) in &last[1..] {
            assert!((40..=100).contains(&entries.len()), "{:?}", shape(&last));
            let holds = entries.contains(&r2);
            assert_eq!(*layout == PageLayout::Soa, holds, "{:?}", shape(&last));
        }
        // Deleting the rectangles returns both pages to the point body.
        write(&mut disk, r1, false);
        let last = write(&mut disk, r2, false);
        assert!(
            last.iter().all(|l| l.0 == PageLayout::Points),
            "{:?}",
            shape(&last)
        );
        // A point 2³³ ids away into the leaf of 86: SoA, no split; deleting
        // it returns the leaf to the point body.
        let (p, id) = cluster(a, 86..87)[0];
        let far = (p, id + (1 << 33));
        let last = write(&mut disk, far, true);
        assert_eq!(last.len(), 3, "{:?}", shape(&last));
        for (layout, entries) in &last {
            let holds = entries.contains(&far);
            assert_eq!(*layout == PageLayout::Soa, holds, "{:?}", shape(&last));
            assert!(!holds || entries.len() == 87, "{:?}", shape(&last));
        }
        let last = write(&mut disk, far, false);
        assert!(
            last.iter().all(|l| l.0 == PageLayout::Points),
            "{:?}",
            shape(&last)
        );
    }

    /// A rectangle into a full leaf of 2M − 1 = 199 points splits it at
    /// min fill m. Where the rectangle lands in a half of at most M, that
    /// half is SoA and the other keeps the point body; where it lands in a
    /// larger half, it moves to the other one. Either way the SoA half has
    /// room for the next rectangle.
    #[test]
    fn a_full_point_leaf_splits_with_room_beside_the_rectangle() {
        let shape = |disk: &DiskRTree<MemStore>| -> Vec<(PageLayout, usize)> {
            let mut s: Vec<_> = leaves(disk).iter().map(|(l, e)| (*l, e.len())).collect();
            s.sort_unstable_by_key(|&(l, _)| l == PageLayout::Points);
            s
        };
        // The cluster turned half a circle about its centre and listed in
        // reverse: there the split's second half is the one that overflows.
        let turned =
            |(r, id): (Rect, u64)| (Rect::point(Point::new(0.4 - r.lo.x, 0.4 - r.lo.y)), id);
        let runs = [
            (
                cluster(0.1, 0..199),
                0.12,
                0.25,
                [(PageLayout::Soa, 91), (PageLayout::Points, 109)],
            ),
            (
                cluster(0.1, 0..199),
                0.12,
                0.15,
                [(PageLayout::Soa, 91), (PageLayout::Points, 109)],
            ),
            (
                cluster(0.1, 0..199).into_iter().map(turned).rev().collect(),
                0.27,
                0.25,
                [(PageLayout::Soa, 91), (PageLayout::Points, 109)],
            ),
        ];
        for (points, x, y, want) in runs {
            let bulk: Vec<Rect> = points[..100].iter().map(|e| e.0).collect();
            let mut reference = BulkLoader::hilbert(100).load(&bulk);
            let disk =
                DiskRTree::create_compressed(MemStore::new(), &reference, 64, LruPolicy::new());
            let mut disk = disk.unwrap();
            for &(r, id) in &points[100..] {
                disk.insert(r, id).unwrap();
                reference.insert(r, id);
            }
            assert_eq!(shape(&disk), [(PageLayout::Points, 199)]);
            let r = Rect::new(x, y, x + 0.01, y + 0.01);
            disk.insert(r, 9_001).unwrap();
            reference.insert(r, 9_001);
            assert_eq!(shape(&disk), want);
            probe(&disk, &reference, &r, "rectangle");
            assert_leaf_formats(&disk, "rectangle");
        }
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
        let pages_before = disk.store().page_count();
        for (i, r) in rs.iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
        }
        assert_eq!(
            sorted(disk.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap()).len(),
            150
        );
        assert_eq!(
            disk.store().page_count(),
            pages_before,
            "free list reuses every dissolved page"
        );
    }

    #[test]
    fn mutated_tree_survives_flush_and_reopen() {
        let rs = rects(300);
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 10, 4, 16, LruPolicy::new()).unwrap();
        for (i, r) in rs.iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
        }
        for (i, r) in rs.iter().enumerate().take(100) {
            disk.delete(r, i as u64).unwrap();
        }
        disk.flush().unwrap();
        let disk = DiskRTree::open(disk.into_store(), 16, LruPolicy::new()).unwrap();
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
        let (_, root) = disk.node(disk.meta().root, 1).unwrap();
        assert_eq!(root.entries.len(), 2);
        let mut total = 0;
        for (_, child) in root.entries {
            let fill = disk.node(child, 0).unwrap().1.entries.len();
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
        // No-steal: the dirty pages stay in the overlay, so no physical
        // write has happened since creation.
        assert_eq!(disk.physical_writes(), 0);
        disk.flush().unwrap();
        assert!(disk.physical_writes() > 0);
    }
    /// The op log is pinned byte for byte: the CRC-32 of the log images a
    /// fixed insert/delete/checkpoint workload leaves, each read just
    /// before a checkpoint truncates it and once at the end. Recorded from
    /// [`crate::ConcurrentDiskRTree::create_writable`] run on one thread while the
    /// sequential tree still had a page-image writer of its own: the
    /// sequential tree now writes the very same log.
    #[test]
    fn op_log_reproduces_the_recorded_bytes() {
        let log = MemLog::new();
        let mut disk = DiskRTree::create_empty(MemStore::new(), 8, 3, 6, LruPolicy::new()).unwrap();
        disk.attach_wal(GroupWal::open(log.clone()).unwrap());
        let rs = rects(300);
        let mut image = Vec::new();
        for (i, r) in rs.iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
            if i % 100 == 99 {
                image.extend(log.read_all().unwrap());
                disk.checkpoint().unwrap();
            }
        }
        for (i, r) in rs.iter().enumerate().step_by(3) {
            assert!(disk.delete(r, i as u64).unwrap());
        }
        assert!(!disk.delete(&rs[0], 0).unwrap(), "a miss logs nothing");
        image.extend(log.read_all().unwrap());
        assert_eq!(
            (image.len(), crc32::checksum(&image)),
            (29_600, 1_696_328_258)
        );
    }

    /// A failed fsync never acknowledges: the op whose flush fails gets the
    /// error, and every later write gets [`LogPoisoned`] until the log is
    /// reopened, instead of an acknowledgement resting on records whose
    /// durability is unknown.
    #[test]
    fn a_failed_log_sync_fails_the_op_and_poisons_the_log() {
        let backend = FaultLog::new(MemLog::new(), CrashSwitch::new()).fail_sync_at(1);
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 8, 3, 16, LruPolicy::new()).unwrap();
        disk.attach_wal(GroupWal::open(backend).unwrap());
        let rs = rects(2);
        let first = disk.insert(rs[0], 0).unwrap_err();
        assert!(first.to_string().contains("injected"), "{first}");
        let poisoned =
            |e: io::Error| assert!(e.get_ref().is_some_and(|e| e.is::<LogPoisoned>()), "{e}");
        poisoned(disk.insert(rs[1], 1).unwrap_err());
        poisoned(disk.checkpoint().unwrap_err());
    }
}
