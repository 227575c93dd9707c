//! The four tree walks, each written once against [`PageRead`].
//!
//! The order in which a walk fetches pages *is* the buffer's input, so it
//! is part of the contract: the depth-first region walk fetches in
//! stack-pop order, the frontier walk and FindLeaf in ascending page id
//! within each level with every shared page fetched once, the kNN search
//! best-first in a total order: nearer first, then earlier discovered,
//! with items before pages at equal distance. `tests::*_order` pins all
//! four against golden vectors.
//! The region and kNN walks allocate only their answer: they work in the
//! thread's [`Scratch`].

use crate::seam::PageRead;
use crate::PageView;
use rtree_geom::{Point, Rect};
use rtree_index::Neighbor;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io;

/// A leaf FindLeaf located, with its root-to-leaf `(page, slot)` path.
pub(crate) type Found = (u64, Vec<(u64, usize)>);

/// Counters describing one batch execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: u64,
    /// Queries whose rectangle intersected the root MBR (the rest cost
    /// nothing, mirroring the model semantics).
    pub active_queries: u64,
    /// Deduplicated `(page, query-set)` work items processed — every pool
    /// access the batch performed.
    pub work_items: u64,
    /// Page requests *before* dedup: the accesses the same queries would
    /// have made traversing alone. `page_requests - work_items` is the
    /// traffic dedup removed.
    pub page_requests: u64,
    /// Frontier steps executed (tree levels touched).
    pub levels: u32,
}

/// Per-query result sets plus execution counters.
#[derive(Clone, Debug, Default)]
pub struct BatchOutput {
    /// `results[i]` are the item ids matching `queries[i]`, in traversal
    /// order (sort before comparing across execution strategies).
    pub results: Vec<Vec<u64>>,
    /// What the execution did.
    pub stats: BatchStats,
}

impl BatchOutput {
    pub(crate) fn new(queries: usize) -> Self {
        BatchOutput {
            results: vec![Vec::new(); queries],
            stats: BatchStats {
                queries: queries as u64,
                ..BatchStats::default()
            },
        }
    }

    /// Appends the output of the batch's next contiguous slice.
    pub(crate) fn append(&mut self, next: BatchOutput) {
        self.results.extend(next.results);
        let (a, b) = (&mut self.stats, next.stats);
        a.queries += b.queries;
        a.active_queries += b.active_queries;
        a.work_items += b.work_items;
        a.page_requests += b.page_requests;
        a.levels = a.levels.max(b.levels);
    }
}

/// The region and kNN walks' working vectors, kept between walks on a
/// thread: emptied before each (a walk that failed part-way leaves nothing
/// behind) and dropped after one that left more than [`KEEP`] bytes of room.
#[derive(Default)]
struct Scratch {
    matches: Vec<u32>,
    stack: Vec<(u64, u16)>,
    ids: Vec<u64>,
    within: Vec<(u32, f64)>,
    best: Vec<(Key, Rect, u64)>,
    runs: Vec<Run>,
    heads: BinaryHeap<Reverse<(Key, usize)>>,
}

impl Scratch {
    /// The room the vectors hold, in bytes.
    fn bytes(&self) -> usize {
        fn room<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let runs: usize = self.runs.iter().map(|r| room(&r.children)).sum();
        let heads = self.heads.capacity() * std::mem::size_of::<Reverse<(Key, usize)>>();
        let region = room(&self.matches) + room(&self.stack) + room(&self.ids);
        region + room(&self.within) + room(&self.best) + room(&self.runs) + runs + heads
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The room a thread's scratch keeps between walks: a long answer or a
/// large k gives its room back.
const KEEP: usize = 64 << 10;

/// Runs `walk` on this thread's scratch; walks clear `matches` and `within` per page.
fn with_scratch<R>(walk: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with_borrow_mut(|s| {
        s.stack.clear();
        s.ids.clear();
        s.best.clear();
        s.heads.clear();
        let answer = walk(s);
        if s.bytes() > KEEP {
            *s = Scratch::default();
        }
        answer
    })
}

/// Longer answers are handed over whole, not copied out of the scratch.
const COPY_OUT: usize = 4096;

/// Depth-first region walk from `root`: every page whose MBR intersects
/// `query` is fetched, in stack-pop order, and read in place.
pub(crate) fn region<P: PageRead>(
    src: &mut P,
    root: u64,
    root_level: u16,
    query: &Rect,
) -> io::Result<Vec<u64>> {
    with_scratch(|s| {
        // Each stack entry carries the node's level — children of a level-L
        // node sit at L - 1 — so every fetch can be attributed to it and the
        // view can refuse a page that claims another (which bounds the depth).
        s.stack.push((root, root_level));
        while let Some((pid, level)) = s.stack.pop() {
            let view = PageView::new(src.fetch(pid, level)?, level)?;
            s.matches.clear();
            view.intersecting(query, &mut s.matches)?;
            let ptrs = s.matches.iter().map(|&i| view.ptr(i as usize));
            if level == 0 {
                s.ids.extend(ptrs);
            } else {
                s.stack.extend(ptrs.map(|child| (child, level - 1)));
            }
        }
        Ok(match s.ids.len() {
            n if n > COPY_OUT => std::mem::take(&mut s.ids),
            _ => s.ids.to_vec(),
        })
    })
}

/// Level-synchronous walk of a whole batch. The frontier maps each page to
/// the queries that need it, so a page shared by k queries is fetched
/// once, when the walk consumes it, and each level is visited in ascending
/// page id (sequential under the bulk-loaded layout).
///
/// Queries missing `root_mbr` never touch the buffer (`None` = all active).
pub(crate) fn frontier<P: PageRead>(
    src: &mut P,
    root: u64,
    root_level: u16,
    root_mbr: Option<&Rect>,
    queries: &[Rect],
    out: &mut BatchOutput,
) -> io::Result<()> {
    let active: Vec<u32> = (0..queries.len() as u32)
        .filter(|&q| root_mbr.is_none_or(|mbr| mbr.intersects(&queries[q as usize])))
        .collect();
    out.stats.active_queries = active.len() as u64;
    if active.is_empty() {
        return Ok(());
    }
    // The BTreeMap keys the dedup *and* yields each level in page order.
    let mut frontier: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    frontier.insert(root, active);
    let mut level = root_level;
    let mut matched: Vec<u32> = Vec::new();
    while !frontier.is_empty() {
        out.stats.levels += 1;
        for (page, qids) in std::mem::take(&mut frontier) {
            let view = PageView::new(src.fetch(page, level)?, level)?;
            out.stats.work_items += 1;
            out.stats.page_requests += qids.len() as u64;
            for qid in qids {
                matched.clear();
                view.intersecting(&queries[qid as usize], &mut matched)?;
                for &e in &matched {
                    let ptr = view.ptr(e as usize);
                    if level == 0 {
                        out.results[qid as usize].push(ptr);
                    } else {
                        frontier.entry(ptr).or_default().push(qid);
                    }
                }
            }
        }
        src.level_done(frontier.keys().copied());
        level = level.saturating_sub(1);
    }
    Ok(())
}

/// FindLeaf: the leaf below `root` holding the exact entry `(rect, item)`.
/// Level-synchronous like [`frontier`] — each level in ascending page id,
/// [`PageRead::level_done`] between levels — and in place: the kernel
/// prefilters a page's entries by intersection, then a child is a candidate
/// if its rectangle contains `rect`, and a leaf entry matches if it is
/// `(rect, item)`. Stops at the first leaf holding the entry.
pub(crate) fn find_leaf<P: PageRead>(
    src: &mut P,
    root: u64,
    root_level: u16,
    rect: &Rect,
    item: u64,
) -> io::Result<Option<Found>> {
    // A level's candidate pages, ascending, each with its path from the root.
    let mut pages = BTreeMap::from([(root, Vec::new())]);
    let mut level = root_level;
    let mut matches: Vec<u32> = Vec::new();
    loop {
        let mut next = BTreeMap::new();
        for (pid, path) in pages {
            let view = PageView::new(src.fetch(pid, level)?, level)?;
            matches.clear();
            view.intersecting(rect, &mut matches)?;
            for slot in matches.iter().map(|&i| i as usize) {
                let r = view.rect(slot);
                if level == 0 && view.ptr(slot) == item && r == *rect {
                    return Ok(Some((pid, path)));
                }
                if level > 0 && r.contains_rect(rect) {
                    let down = || [&path[..], &[(pid, slot)]].concat();
                    next.entry(view.ptr(slot)).or_insert_with(down);
                }
            }
        }
        if next.is_empty() {
            return Ok(None);
        }
        src.level_done(next.keys().copied());
        (pages, level) = (next, level - 1);
    }
}

/// A kNN candidate's place in the walk's total order: `(min-distance² as
/// bits, discovery sequence)`. Bits order like the value for every
/// `d² ≥ +0`, +∞ included, and the kernel admits no NaN, so the key is a
/// plain integer pair; no two candidates share a `seq`, so none tie.
type Key = (u64, u64);

/// The children an expanded internal page left unexpanded, each `(key,
/// page)` at `level`; `head` indexes the nearest.
#[derive(Default)]
struct Run {
    children: Vec<(Key, u64)>,
    head: usize,
    level: u16,
}

impl Run {
    /// Drops the children no nearer than `kth` (the bound only tightens, so
    /// they can never be expanded) and returns the nearest one left.
    fn rescan(&mut self, kth: Option<u64>) -> Option<Key> {
        if let Some(bound) = kth {
            self.children.retain(|c| c.0 .0 < bound);
        }
        let (head, &(key, _)) = self.children.iter().enumerate().min_by_key(|c| c.1 .0)?;
        self.head = head;
        Some(key)
    }
}

/// Best-first kNN over pages (Hjaltason & Samet) on a tree of `items`
/// items: the `k` nearest to `p`, closest first. Candidates are totally
/// ordered by (min-distance², discovery sequence), items before pages at
/// equal distance, so the answer and the fetch order depend on the pages
/// alone.
///
/// Only pages are queued. A leaf's `k` nearest items, selected from its
/// hits, are merged into `best`, the `k` nearest so far in order. An
/// expanded internal page keeps its surviving
/// children once, as a [`Run`], and `heads` holds each run's nearest child;
/// taking one rescans only its run. The walk stops when `best` holds `k`
/// items and the nearest pending page is no nearer than the k-th, and never
/// before. The SIMD distance kernel discards every entry beyond the k-th
/// item's distance in the same pass that computes the rest.
pub(crate) fn nearest<P: PageRead>(
    src: &mut P,
    root: u64,
    root_level: u16,
    items: u64,
    p: &Point,
    k: usize,
) -> io::Result<Vec<Neighbor>> {
    if k == 0 || items == 0 {
        return Ok(Vec::new());
    }
    with_scratch(|s| {
        let (mut seq, mut runs) = (0u64, 0);
        let kth = |best: &[(Key, Rect, u64)]| (best.len() == k).then(|| best[k - 1].0 .0);
        let (mut pid, mut level) = (root, root_level);
        loop {
            let view = PageView::new(src.fetch(pid, level)?, level)?;
            s.within.clear();
            let bound = kth(&s.best).map_or(f64::INFINITY, f64::from_bits);
            view.min_dist2_within(p, bound, &mut s.within)?;
            // Discovery order is page order, then entry order.
            let base = seq;
            seq += s.within.last().map_or(0, |&(i, _)| u64::from(i) + 1);
            let key = |&(i, d2): &(u32, f64)| (d2.to_bits(), base + u64::from(i));
            if level == 0 {
                // Keys are unique: only the leaf's k nearest can be among the
                // k nearest, and a later item displaces the k-th only if nearer.
                if s.within.len() > k {
                    s.within.select_nth_unstable_by_key(k - 1, key);
                    s.within.truncate(k);
                }
                let item =
                    |e: &(u32, f64)| (key(e), view.rect(e.0 as usize), view.ptr(e.0 as usize));
                s.best.extend(s.within.iter().map(item));
                s.best.sort_unstable_by_key(|b| b.0);
                s.best.truncate(k);
            } else {
                s.runs.resize_with(s.runs.len().max(runs + 1), Run::default);
                let run = &mut s.runs[runs];
                run.children.clear();
                run.children
                    .extend(s.within.iter().map(|e| (key(e), view.ptr(e.0 as usize))));
                run.level = level - 1;
                if let Some(key) = run.rescan(None) {
                    s.heads.push(Reverse((key, runs)));
                }
                runs += 1;
            }
            let bound = kth(&s.best);
            match s.heads.pop() {
                Some(Reverse((key, r))) if bound.is_none_or(|bound| key.0 < bound) => {
                    let run = &mut s.runs[r];
                    (pid, level) = (run.children.swap_remove(run.head).1, run.level);
                    if let Some(key) = run.rescan(bound) {
                        s.heads.push(Reverse((key, r)));
                    }
                }
                _ => break,
            }
        }
        Ok(s.best
            .iter()
            .map(|&((d2, _), rect, id)| Neighbor {
                id,
                rect,
                distance: f64::from_bits(d2).sqrt(),
            })
            .collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::mbr;
    use crate::{NodePage, PageLayout, PAGE_SIZE};
    use std::collections::HashMap;

    /// A scripted read seam over a fixed seven-page tree whose page ids are
    /// deliberately *not* in discovery order:
    ///
    /// ```text
    ///            1            level 2
    ///        3       2        level 1   (root lists 3 before 2)
    ///      7   4   6   5      level 0   (3 lists 7,4; 2 lists 6,5)
    /// ```
    /// Leaf `n` holds items `10n` and `10n + 1`, left to right along x.
    struct Script {
        pages: HashMap<u64, Vec<u8>>,
        fetched: Vec<u64>,
        /// Fail the n-th fetch (1-based).
        fail_at: Option<usize>,
        /// The page sets announced through `level_done`.
        coupled: Vec<Vec<u64>>,
    }

    impl Script {
        fn new() -> Self {
            Script::with_extra(&[])
        }

        /// The tree above with `extra` `(leaf, entry)` pairs appended to
        /// their leaves, and the slots above them grown to match.
        fn with_extra(extra: &[(u64, (Rect, u64))]) -> Self {
            let leaf = |page: u64, x: f64| {
                let mut entries = vec![
                    (Rect::new(x, 0.0, x + 0.1, 0.1), page * 10),
                    (Rect::new(x + 0.1, 0.1, x + 0.2, 0.2), page * 10 + 1),
                ];
                entries.extend(extra.iter().filter(|e| e.0 == page).map(|e| e.1));
                (page, NodePage { level: 0, entries })
            };
            let leaves = [leaf(7, 0.0), leaf(4, 0.25), leaf(6, 0.55), leaf(5, 0.8)];
            let over = |page: u64, level: u16, kids: &[&(u64, NodePage)]| {
                let entries = kids.iter().map(|(id, n)| (mbr(&n.entries), *id)).collect();
                (page, NodePage { level, entries })
            };
            let left = over(3, 1, &[&leaves[0], &leaves[1]]);
            let right = over(2, 1, &[&leaves[2], &leaves[3]]);
            let root = over(1, 2, &[&left, &right]);
            let pages = leaves
                .into_iter()
                .chain([left, right, root])
                .map(|(id, node)| {
                    let mut buf = vec![0u8; PAGE_SIZE];
                    node.encode_with(&mut buf, PageLayout::Soa);
                    (id, buf)
                })
                .collect();
            Script {
                pages,
                fetched: Vec::new(),
                fail_at: None,
                coupled: Vec::new(),
            }
        }
    }

    impl PageRead for Script {
        fn fetch(&mut self, page: u64, level: u16) -> io::Result<&[u8]> {
            if self.fail_at == Some(self.fetched.len() + 1) {
                return Err(io::Error::other("scripted fault"));
            }
            self.fetched.push(page);
            let frame = &self.pages[&page];
            assert_eq!(NodePage::decode(frame).unwrap().level, level, "page {page}");
            Ok(frame)
        }

        fn level_done(&mut self, next: impl Iterator<Item = u64>) {
            self.coupled.push(next.collect());
        }
    }

    const EVERYTHING: Rect = Rect {
        lo: Point { x: 0.0, y: 0.0 },
        hi: Point { x: 1.0, y: 1.0 },
    };

    #[test]
    fn depth_first_order() {
        let mut s = Script::new();
        let got = region(&mut s, 1, 2, &EVERYTHING).unwrap();
        assert_eq!(s.fetched, [1, 2, 5, 6, 3, 4, 7], "stack-pop order");
        assert_eq!(got, [50, 51, 60, 61, 40, 41, 70, 71]);

        let mut s = Script::new();
        s.fail_at = Some(3);
        assert!(region(&mut s, 1, 2, &EVERYTHING).is_err());
        assert_eq!(s.fetched, [1, 2]);
    }

    /// q0 needs leaves 7, 4, 6; q1 needs 4, 6, 5; a third query misses the
    /// root MBR.
    fn batch() -> [Rect; 3] {
        [
            Rect::new(0.05, 0.0, 0.6, 0.2),
            Rect::new(0.3, 0.0, 0.85, 0.2),
            Rect::new(0.0, 0.5, 1.0, 1.0),
        ]
    }

    #[test]
    fn frontier_order() {
        let mut s = Script::new();
        let root_mbr = Rect::new(0.0, 0.0, 1.0, 0.2);
        let mut out = BatchOutput::new(3);
        frontier(&mut s, 1, 2, Some(&root_mbr), &batch(), &mut out).unwrap();
        assert_eq!(
            s.fetched,
            [1, 2, 3, 4, 5, 6, 7],
            "ascending id per level, each shared page once"
        );
        assert_eq!(s.coupled, [vec![2, 3], vec![4, 5, 6, 7], vec![]]);
        assert_eq!(out.results[0], [40, 41, 60, 70, 71]);
        assert_eq!(out.results[1], [40, 41, 50, 60, 61]);
        assert!(out.results[2].is_empty());
        let want = BatchStats {
            queries: 3,
            active_queries: 2,
            work_items: 7,
            page_requests: 2 + 4 + 6,
            levels: 3,
        };
        assert_eq!(out.stats, want);
    }

    #[test]
    fn frontier_error_releases_reservations() {
        // A failed fetch ends the walk there: nothing after it is read, and
        // the seam is asked to couple only the levels that were finished.
        for k in 1..=7 {
            let mut s = Script::new();
            s.fail_at = Some(k);
            let mut out = BatchOutput::new(3);
            let err = frontier(&mut s, 1, 2, None, &batch(), &mut out).unwrap_err();
            assert_eq!(err.to_string(), "scripted fault");
            assert_eq!(s.fetched, (1..k as u64).collect::<Vec<_>>());
            let finished: &[Vec<u64>] = match k {
                1 => &[],
                2 | 3 => &[vec![2, 3]],
                _ => &[vec![2, 3], vec![4, 5, 6, 7]],
            };
            assert_eq!(s.coupled, finished, "fault at fetch {k}");
        }
    }

    #[test]
    fn find_leaf_order() {
        // `s` sits in both subtrees: as item 99 in leaf 4 (under 3) and as
        // item 98 in leaf 6 (under 2), so both level-1 pages are candidates
        // and are visited in page order, 2 before 3, though the root lists 3
        // first; leaves likewise, 4 before 6.
        let s = Rect::new(0.5, 0.05, 0.52, 0.1);
        let script = || Script::with_extra(&[(4, (s, 99)), (6, (s, 98))]);
        let find = |item: u64| {
            let mut seam = script();
            let got = find_leaf(&mut seam, 1, 2, &s, item).unwrap();
            (got, seam.fetched, seam.coupled)
        };
        let coupled = vec![vec![2, 3], vec![4, 6]];
        let (got, fetched, c) = find(98);
        assert_eq!(got, Some((6, vec![(1, 1), (2, 0)])), "root slot 1, then 6");
        assert_eq!((fetched, c), (vec![1, 2, 3, 4, 6], coupled.clone()));
        // The first leaf holding the entry ends the walk: 6 is never read.
        let (got, fetched, c) = find(99);
        assert_eq!(got, Some((4, vec![(1, 0), (3, 1)])));
        assert_eq!((fetched, c), (vec![1, 2, 3, 4], coupled.clone()));
        // A rectangle match with another id is not the entry.
        let (got, fetched, c) = find(97);
        assert_eq!(got, None);
        assert_eq!((fetched, c), (vec![1, 2, 3, 4, 6], coupled));

        // Intersecting both subtrees but contained in neither: only the
        // root is read, and nothing is coupled.
        let mut seam = script();
        let straddle = Rect::new(0.46, 0.0, 0.54, 0.1);
        assert_eq!(find_leaf(&mut seam, 1, 2, &straddle, 98).unwrap(), None);
        assert_eq!((seam.fetched, seam.coupled), (vec![1], vec![]));

        let mut seam = script();
        seam.fail_at = Some(3);
        assert!(find_leaf(&mut seam, 1, 2, &s, 98).is_err());
        assert_eq!(seam.fetched, [1, 2]);
    }

    #[test]
    fn best_first_order() {
        let p = Point::new(0.52, 0.1);
        let mut s = Script::new();
        let got = nearest(&mut s, 1, 2, 8, &p, 2).unwrap();
        // Right subtree first (nearer), its far leaf 5 never; then the left
        // subtree, whose leaf 7 is pruned by the 2nd-best bound.
        assert_eq!(s.fetched, [1, 2, 6, 3, 4], "heap order");
        assert_eq!(got.iter().map(|n| n.id).collect::<Vec<_>>(), [60, 41]);

        let mut s = Script::new();
        s.fail_at = Some(4);
        assert!(nearest(&mut s, 1, 2, 8, &p, 2).is_err());
        assert_eq!(s.fetched, [1, 2, 6]);
    }

    #[test]
    fn scratch_gives_back_a_large_walks_room() {
        use crate::{DiskRTree, MemStore};
        use rtree_buffer::LruPolicy;
        use rtree_index::BulkLoader;
        let rects: Vec<Rect> = (0..20_000)
            .map(|i| {
                let (x, y) = ((i as f64 * 0.618_034) % 1.0, (i as f64 * 0.414_214) % 1.0);
                Rect::point(Point::new(x, y))
            })
            .collect();
        let tree = BulkLoader::hilbert(50).load(&rects);
        let disk = DiskRTree::create(MemStore::new(), &tree, 1_000, LruPolicy::new()).unwrap();
        let held = || SCRATCH.with_borrow(Scratch::bytes);
        let centre = Point::new(0.5, 0.5);
        assert_eq!(disk.nearest_neighbors(&centre, 8).unwrap().len(), 8);
        let small = held();
        assert!(small > 0, "a small walk keeps its room");
        assert_eq!(disk.nearest_neighbors(&centre, 5_000).unwrap().len(), 5_000);
        assert!(held() <= KEEP, "large k: {} bytes kept", held());
        assert_eq!(disk.query(&EVERYTHING).unwrap().len(), rects.len());
        assert!(held() <= KEEP, "long answer: {} bytes kept", held());
    }

    #[test]
    fn best_first_tie_goes_to_the_item() {
        // Item 99 in leaf 5 is leaf 6's MBR, so from p, right of everything,
        // the 3rd-nearest item (after 51 and 50) lies exactly as far as leaf
        // 6. Items precede nodes at equal distance: leaf 6 is never read,
        // though its item 61 ties with 99 too.
        let leaf6 = Rect::new(0.55, 0.0, 0.55 + 0.2, 0.2);
        let p = Point::new(1.1, 0.1);
        let mut s = Script::with_extra(&[(5, (leaf6, 99))]);
        let got = nearest(&mut s, 1, 2, 9, &p, 3).unwrap();
        assert_eq!(s.fetched, [1, 2, 5]);
        assert_eq!(got.iter().map(|n| n.id).collect::<Vec<_>>(), [51, 50, 99]);
        assert_eq!(got[2].distance, p.x - leaf6.hi.x);
    }
}
