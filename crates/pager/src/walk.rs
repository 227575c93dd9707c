//! The four tree walks, each written once against [`PageRead`].
//!
//! The order in which a walk fetches pages *is* the buffer's input, so it
//! is part of the contract: the depth-first region walk fetches in
//! stack-pop order, the frontier walk and FindLeaf in ascending page id
//! within each level with every shared page fetched once, the kNN search
//! in best-first (heap) order. `tests::*_order` pins all four against
//! golden vectors.

use crate::seam::PageRead;
use crate::{PageView, PrefetchOutcome};
use rtree_geom::{Point, Rect};
use rtree_index::Neighbor;
use std::cmp::Ordering;
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
    /// Frames filled by the readahead window.
    pub prefetched: u64,
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
}

/// Depth-first region walk from `root`: every page whose MBR intersects
/// `query` is fetched, in stack-pop order, and read in place.
pub(crate) fn region<P: PageRead>(
    src: &mut P,
    root: u64,
    root_level: u16,
    query: &Rect,
) -> io::Result<Vec<u64>> {
    let mut results = Vec::new();
    let mut matches: Vec<u32> = Vec::new();
    // Each stack entry carries the node's level — children of a level-L
    // node sit at L - 1 — so every fetch can be attributed to it and the
    // view can refuse a page that claims another (which bounds the depth).
    let mut stack = vec![(root, root_level)];
    while let Some((pid, level)) = stack.pop() {
        let view = PageView::new(src.fetch(pid, level)?, level)?;
        matches.clear();
        view.intersecting(query, &mut matches)?;
        let ptrs = matches.iter().map(|&i| view.ptr(i as usize));
        if level == 0 {
            results.extend(ptrs);
        } else {
            stack.extend(ptrs.map(|child| (child, level - 1)));
        }
    }
    Ok(results)
}

/// Level-synchronous walk of a whole batch. The frontier maps each page to
/// the queries that need it, so a page shared by k queries is fetched
/// once, and each level is visited in ascending page id (sequential
/// under the bulk-loaded layout). Up to `window` upcoming pages of the
/// level are kept read-in through [`PageRead::prefetch`]; every reservation
/// is handed back on consumption, and on error before it propagates.
///
/// Queries missing `root_mbr` never touch the buffer (`None` = all active).
pub(crate) fn frontier<P: PageRead>(
    src: &mut P,
    root: u64,
    root_level: u16,
    root_mbr: Option<&Rect>,
    queries: &[Rect],
    window: usize,
    out: &mut BatchOutput,
) -> io::Result<()> {
    let active: Vec<u32> = (0..queries.len() as u32)
        .filter(|&q| match root_mbr {
            Some(mbr) => mbr.intersects(&queries[q as usize]),
            None => true,
        })
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
    let mut reserved: Vec<u64> = Vec::new();

    let mut run = || -> io::Result<()> {
        while !frontier.is_empty() {
            out.stats.levels += 1;
            let items: Vec<(u64, Vec<u32>)> = std::mem::take(&mut frontier).into_iter().collect();
            let mut ahead = 0; // next item the readahead will consider
            for (i, (page, qids)) in items.iter().enumerate() {
                // `NoCapacity` pauses the window; it resumes once
                // consumption hands reservations back.
                while ahead < items.len() && ahead <= i + window {
                    if ahead > i {
                        match src.prefetch(items[ahead].0, level)? {
                            PrefetchOutcome::NoCapacity => break,
                            PrefetchOutcome::Resident => {}
                            PrefetchOutcome::Fetched => {
                                reserved.push(items[ahead].0);
                                out.stats.prefetched += 1;
                            }
                        }
                    }
                    ahead += 1;
                }
                let view = PageView::new(src.fetch(*page, level)?, level)?;
                out.stats.work_items += 1;
                out.stats.page_requests += qids.len() as u64;
                for &qid in qids {
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
                // The view borrowed the seam until here; no pool operation
                // sits between the fetch and this release either way.
                if let Some(pos) = reserved.iter().position(|p| p == page) {
                    reserved.swap_remove(pos);
                    src.release(*page);
                }
            }
            src.level_done(frontier.keys().copied());
            level = level.saturating_sub(1);
        }
        Ok(())
    };
    let result = run();
    debug_assert!(result.is_err() || reserved.is_empty());
    for page in reserved {
        src.release(page);
    }
    result
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

/// A kNN search-queue entry ordered by ascending distance (the heap is a
/// max-heap, so the ordering is inverted).
struct KnnEntry {
    dist2: f64,
    kind: KnnKind,
}

enum KnnKind {
    /// An unexpanded node page (level 0 = leaf).
    Node(u64, u16),
    /// A leaf entry.
    Item { rect: Rect, id: u64 },
}

impl PartialEq for KnnEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2
    }
}
impl Eq for KnnEntry {}
impl PartialOrd for KnnEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KnnEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist2
            .partial_cmp(&self.dist2)
            .expect("kernel distances are never NaN")
    }
}

/// Total order for kernel distances (never NaN — see the geom NaN policy).
#[derive(Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("distance is never NaN")
    }
}

/// Best-first kNN over pages (Hjaltason & Samet) on a tree of `items`
/// items: the `k` nearest to `p`, closest first. The SIMD distance kernel
/// both computes every enqueued distance and discards entries beyond the
/// current k-th-best bound in one pass.
pub(crate) fn nearest<P: PageRead>(
    src: &mut P,
    root: u64,
    root_level: u16,
    items: u64,
    p: &Point,
    k: usize,
) -> io::Result<Vec<Neighbor>> {
    let mut result = Vec::with_capacity(k.min(items as usize));
    if k == 0 || items == 0 {
        return Ok(result);
    }
    let mut within: Vec<(u32, f64)> = Vec::new();
    let mut queue = BinaryHeap::new();
    // Max-heap of the k smallest *item* distances seen so far: once full,
    // its top is a sound upper bound — no entry farther than it can be
    // among the k nearest, so the kernel discards such entries in-pass.
    let mut best_k: BinaryHeap<OrdF64> = BinaryHeap::with_capacity(k + 1);
    queue.push(KnnEntry {
        dist2: 0.0,
        kind: KnnKind::Node(root, root_level),
    });
    while let Some(entry) = queue.pop() {
        match entry.kind {
            KnnKind::Item { rect, id } => {
                result.push(Neighbor {
                    id,
                    rect,
                    distance: entry.dist2.sqrt(),
                });
                if result.len() == k {
                    break;
                }
            }
            KnnKind::Node(pid, level) => {
                let bound = if best_k.len() == k {
                    best_k.peek().expect("k > 0").0
                } else {
                    f64::INFINITY
                };
                let view = PageView::new(src.fetch(pid, level)?, level)?;
                within.clear();
                view.min_dist2_within(p, bound, &mut within)?;
                for &(i, d2) in &within {
                    let kind = if level == 0 {
                        best_k.push(OrdF64(d2));
                        if best_k.len() > k {
                            best_k.pop();
                        }
                        KnnKind::Item {
                            rect: view.rect(i as usize),
                            id: view.ptr(i as usize),
                        }
                    } else {
                        KnnKind::Node(view.ptr(i as usize), level - 1)
                    };
                    queue.push(KnnEntry { dist2: d2, kind });
                }
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::mbr;
    use crate::{NodePage, PAGE_SIZE};
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
        readahead: bool,
        reserved: Vec<u64>,
        reservations_taken: usize,
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
                    node.encode(&mut buf);
                    (id, buf)
                })
                .collect();
            Script {
                pages,
                fetched: Vec::new(),
                fail_at: None,
                readahead: false,
                reserved: Vec::new(),
                reservations_taken: 0,
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

        fn prefetch(&mut self, page: u64, _level: u16) -> io::Result<PrefetchOutcome> {
            if !self.readahead {
                return Ok(PrefetchOutcome::NoCapacity);
            }
            self.reserved.push(page);
            self.reservations_taken += 1;
            Ok(PrefetchOutcome::Fetched)
        }

        fn release(&mut self, page: u64) {
            let pos = self.reserved.iter().position(|&p| p == page);
            self.reserved
                .swap_remove(pos.expect("released a reservation never taken"));
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
        for readahead in [false, true] {
            let mut s = Script::new();
            s.readahead = readahead;
            let root_mbr = Rect::new(0.0, 0.0, 1.0, 0.2);
            let mut out = BatchOutput::new(3);
            frontier(&mut s, 1, 2, Some(&root_mbr), &batch(), 2, &mut out).unwrap();
            assert_eq!(
                s.fetched,
                [1, 2, 3, 4, 5, 6, 7],
                "ascending id per level, each shared page once"
            );
            assert_eq!(out.results[0], [40, 41, 60, 70, 71]);
            assert_eq!(out.results[1], [40, 41, 50, 60, 61]);
            assert!(out.results[2].is_empty());
            let want = BatchStats {
                queries: 3,
                active_queries: 2,
                work_items: 7,
                page_requests: 2 + 4 + 6,
                prefetched: if readahead { 4 } else { 0 },
                levels: 3,
            };
            assert_eq!(out.stats, want);
            assert_eq!(s.reservations_taken as u64, want.prefetched);
            assert!(s.reserved.is_empty(), "every reservation handed back");
        }
    }

    #[test]
    fn frontier_error_releases_reservations() {
        for k in 1..=7 {
            let mut s = Script::new();
            s.readahead = true;
            s.fail_at = Some(k);
            let mut out = BatchOutput::new(3);
            let err = frontier(&mut s, 1, 2, None, &batch(), 2, &mut out).unwrap_err();
            assert_eq!(err.to_string(), "scripted fault");
            assert_eq!(s.fetched, (1..k as u64).collect::<Vec<_>>());
            assert!(s.reserved.is_empty(), "fault at fetch {k} leaked a pin");
        }
        // The fault at fetch 4 struck with leaves 5 and 6 reserved.
        let mut s = Script::new();
        s.readahead = true;
        s.fail_at = Some(4);
        let _ = frontier(&mut s, 1, 2, None, &batch(), 2, &mut BatchOutput::new(3));
        assert_eq!(s.reservations_taken, 3, "page 3, then leaves 5 and 6");
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
}
