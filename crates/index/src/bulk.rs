//! Bottom-up packing loaders (§2.2 of the paper).
//!
//! All packing loaders share the paper's *General Algorithm*: order the `R`
//! rectangles, place consecutive runs of `n` into leaf nodes, then
//! recursively pack the resulting MBRs until a single root remains. The
//! loaders differ only in how rectangles are ordered at each level:
//!
//! * **NX (Nearest-X)** — sort by the x-coordinate of the rectangle center
//!   (Roussopoulos & Leifker).
//! * **HS (Hilbert Sort)** — sort centers by Hilbert-curve distance from the
//!   origin (Kamel & Faloutsos).
//! * **Morton** — Z-order variant of HS (extension; ablation for curve
//!   locality).
//! * **STR** — Sort-Tile-Recursive (Leutenegger, López & Edgington, the
//!   authors' cited follow-up [7]; extension).
//!
//! Every ordering reads only the rectangle centers: a coordinate, or the
//! center's position along a space-filling curve.
//!
//! [`TupleAtATime`] wraps Guttman insertion so that TAT can be used through
//! the same interface as the packing loaders.

use crate::node::NodeId;
use crate::split::SplitPolicy;
use crate::tree::RTree;
use rtree_geom::{HilbertCurve, MortonCurve, Point, Rect};

/// The ordering strategy used by the general packing algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackingOrder {
    /// Sort by center x-coordinate (the paper's NX).
    NearestX,
    /// Sort centers along a Hilbert curve of the given order — bits per
    /// axis — (the paper's HS).
    Hilbert { order: u32 },
    /// Sort centers along a Morton / Z-order curve (extension).
    Morton { order: u32 },
    /// Sort-Tile-Recursive slicing (extension).
    Str,
}

impl PackingOrder {
    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            PackingOrder::NearestX => "NX",
            PackingOrder::Hilbert { .. } => "HS",
            PackingOrder::Morton { .. } => "MORTON",
            PackingOrder::Str => "STR",
        }
    }

    /// Permutes `entries` into packing order for one level of the tree; the
    /// curve orders compute each key once and keep tied entries in input
    /// order. `cap` is the node capacity (needed by STR to shape its tiles).
    pub fn arrange(&self, entries: &mut [(Rect, u64)], cap: usize) {
        match *self {
            Self::NearestX => sort_by_center(entries, |c| c.x),
            Self::Hilbert { order } => {
                let curve = HilbertCurve::new(order);
                entries.sort_by_cached_key(|e| curve.index_of(&e.0.center()));
            }
            Self::Morton { order } => {
                let curve = MortonCurve::new(order);
                entries.sort_by_cached_key(|e| curve.index_of(&e.0.center()));
            }
            Self::Str => str_tile(entries, cap),
        }
    }
}

/// STR (ref. [7]) in 2-D: sort the (non-empty) `entries` by center x;
/// with `P = ceil(r/n)` pages to fill, cut the run into
/// `S = ceil(sqrt(P))` vertical slabs of `S * n` rectangles and sort each
/// slab by center y. Consecutive runs of `n` then form the tiles.
fn str_tile(entries: &mut [(Rect, u64)], cap: usize) {
    sort_by_center(entries, |c| c.x);
    // `sqrt`, not `powf(0.5)`: the arithmetic every recorded table was
    // produced with.
    let pages_per_slab = (entries.len().div_ceil(cap) as f64).sqrt();
    for slab in entries.chunks_mut(pages_per_slab.ceil() as usize * cap) {
        sort_by_center(slab, |c| c.y);
    }
}

/// Stable sort by one coordinate of the center.
fn sort_by_center(entries: &mut [(Rect, u64)], coord: impl Fn(Point) -> f64) {
    entries.sort_by(|a, b| {
        coord(a.0.center())
            .partial_cmp(&coord(b.0.center()))
            .expect("rect coordinates are finite")
    });
}

/// A bottom-up packing loader.
///
/// # Examples
///
/// ```
/// use rtree_index::BulkLoader;
/// use rtree_geom::Rect;
///
/// let rects: Vec<Rect> = (0..230)
///     .map(|i| {
///         let x = (i as f64 * 0.618) % 0.99;
///         let y = (i as f64 * 0.414) % 0.99;
///         Rect::new(x, y, x + 0.01, y + 0.01)
///     })
///     .collect();
/// let tree = BulkLoader::hilbert(10).load(&rects);
/// // ceil(230/10) = 23 leaves, 3 level-1 nodes, 1 root.
/// assert_eq!(tree.node_count(), 27);
/// assert_eq!(tree.height(), 3);
/// assert_eq!(tree.search(&Rect::new(0.0, 0.0, 1.0, 1.0)).len(), 230);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BulkLoader {
    cap: usize,
    order: PackingOrder,
}

impl BulkLoader {
    /// Creates a loader with an explicit ordering.
    ///
    /// # Panics
    /// Panics if `cap < 2`.
    pub fn new(cap: usize, order: PackingOrder) -> Self {
        assert!(cap >= 2, "node capacity must be at least 2");
        BulkLoader { cap, order }
    }

    /// The paper's NX loader.
    pub fn nearest_x(cap: usize) -> Self {
        Self::new(cap, PackingOrder::NearestX)
    }

    /// The paper's HS loader (default Hilbert order 16).
    pub fn hilbert(cap: usize) -> Self {
        Self::new(
            cap,
            PackingOrder::Hilbert {
                order: HilbertCurve::DEFAULT_ORDER,
            },
        )
    }

    /// Morton / Z-order loader (extension).
    pub fn morton(cap: usize) -> Self {
        Self::new(
            cap,
            PackingOrder::Morton {
                order: MortonCurve::DEFAULT_ORDER,
            },
        )
    }

    /// Sort-Tile-Recursive loader (extension).
    pub fn str_pack(cap: usize) -> Self {
        Self::new(cap, PackingOrder::Str)
    }

    /// The ordering used.
    pub fn order(&self) -> PackingOrder {
        self.order
    }

    /// Loads rectangles, assigning item ids `0..rects.len()`.
    pub fn load(&self, rects: &[Rect]) -> RTree {
        let entries: Vec<(Rect, u64)> = rects.iter().copied().zip(0..rects.len() as u64).collect();
        self.load_entries(entries)
    }

    /// Loads explicit `(rect, id)` items.
    pub fn load_entries(&self, mut items: Vec<(Rect, u64)>) -> RTree {
        let mut tree = RTree::builder(self.cap.max(4)).build();
        // Packing never splits, so it keeps any cap >= 2 (the builder wants
        // >= 4) and a min fill an image can record, at most cap / 2.
        tree.max_entries = self.cap;
        tree.min_entries = tree.min_entries.min(self.cap / 2);
        if items.is_empty() {
            return tree;
        }
        tree.len = items.len();
        for (r, _) in &items {
            assert!(r.is_valid(), "cannot load invalid rect {r}");
        }

        // The General Algorithm: order the level's entries, place runs of
        // `cap` into nodes, and pack the nodes' (MBR, id) entries the same
        // way until one node — the root — holds them all.
        let mut level = 0u32;
        let root_id = loop {
            self.order.arrange(&mut items, self.cap);
            let mut upper: Vec<(Rect, u64)> = Vec::with_capacity(items.len().div_ceil(self.cap));
            for chunk in items.chunks(self.cap) {
                let id = tree.alloc(level);
                for (r, p) in chunk {
                    tree.node_mut(id).push(*r, *p);
                }
                upper.push((tree.node(id).mbr(), id.index() as u64));
            }
            if let [(_, root)] = upper[..] {
                break NodeId(root as u32);
            }
            items = upper;
            level += 1;
        };
        // Slot 0 was pre-allocated by the builder as an empty leaf root;
        // release it unless it became the real root.
        let placeholder = NodeId(0);
        tree.root = root_id;
        if root_id != placeholder {
            tree.dealloc(placeholder);
        }
        tree
    }
}

/// Tuple-at-a-time loading (the paper's TAT): Guttman insertion of one
/// rectangle at a time with a configurable split heuristic.
pub struct TupleAtATime {
    cap: usize,
    split: Option<Box<dyn Fn() -> Box<dyn SplitPolicy>>>,
    reinsert: Option<f64>,
}

impl TupleAtATime {
    /// TAT with the paper's quadratic split.
    pub fn quadratic(cap: usize) -> Self {
        TupleAtATime {
            cap,
            split: None,
            reinsert: None,
        }
    }

    /// The full R*-tree configuration: R* split, overlap-aware
    /// ChooseSubtree and 30% forced reinsertion (extension; the paper's
    /// reference \[1\]).
    pub fn rstar(cap: usize) -> Self {
        let mut t = Self::with_split(cap, crate::rstar::RStarSplit);
        t.reinsert = Some(0.3);
        t
    }

    /// TAT with an arbitrary split policy (ablation).
    pub fn with_split<P: SplitPolicy + Clone + 'static>(cap: usize, policy: P) -> Self {
        TupleAtATime {
            cap,
            split: Some(Box::new(move || Box::new(policy.clone()))),
            reinsert: None,
        }
    }

    /// Loads rectangles, assigning item ids `0..rects.len()`.
    pub fn load(&self, rects: &[Rect]) -> RTree {
        let mut builder = RTree::builder(self.cap);
        if let Some(make) = &self.split {
            builder = builder.split_policy(BoxedPolicy(make()));
        }
        if let Some(f) = self.reinsert {
            builder = builder.forced_reinsert(f);
        }
        let mut tree = builder.build();
        for (i, r) in rects.iter().enumerate() {
            tree.insert(*r, i as u64);
        }
        tree
    }
}

struct BoxedPolicy(Box<dyn SplitPolicy>);

impl SplitPolicy for BoxedPolicy {
    fn split(&self, rects: &[Rect], min: usize) -> (Vec<usize>, Vec<usize>) {
        self.0.split(rects, min)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtree_geom::Point;

    fn squares(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                // Low-discrepancy-ish scatter, deterministic.
                let x = (i as f64 * 0.754_877_666) % 1.0;
                let y = (i as f64 * 0.569_840_296) % 1.0;
                Rect::centered(Point::new(x.min(0.99), y.min(0.99)), 0.005, 0.005)
            })
            .map(|r| r.clamp_unit().expect("generated inside unit square"))
            .collect()
    }

    fn check_loader(loader: BulkLoader, n: usize) -> RTree {
        let rects = squares(n);
        let tree = loader.load(&rects);
        tree.validate().expect("packed tree must be valid");
        assert_eq!(tree.len(), n);
        // Every item must be findable.
        for (i, r) in rects.iter().enumerate() {
            assert!(tree.search(r).contains(&(i as u64)));
        }
        tree
    }

    #[test]
    fn nx_structure() {
        let t = check_loader(BulkLoader::nearest_x(10), 500);
        // ceil(500/10) = 50 leaves, 5 level-1 nodes, 1 root.
        assert_eq!(t.node_count(), 56);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn hilbert_structure() {
        let t = check_loader(BulkLoader::hilbert(10), 500);
        assert_eq!(t.node_count(), 56);
    }

    #[test]
    fn morton_structure() {
        let t = check_loader(BulkLoader::morton(10), 500);
        assert_eq!(t.node_count(), 56);
    }

    #[test]
    fn str_structure() {
        let t = check_loader(BulkLoader::str_pack(10), 500);
        assert_eq!(t.node_count(), 56);
    }

    #[test]
    fn last_group_may_be_short() {
        // The paper: "the last group may contain less than n rectangles".
        let t = check_loader(BulkLoader::hilbert(10), 101);
        assert_eq!(t.height(), 3); // 11 leaves -> 2 nodes -> root
        assert_eq!(t.node_count(), 11 + 2 + 1);
    }

    #[test]
    fn single_item_tree() {
        let t = check_loader(BulkLoader::nearest_x(10), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn exactly_one_full_leaf() {
        let t = check_loader(BulkLoader::hilbert(10), 10);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn empty_load() {
        let t: RTree = BulkLoader::hilbert(10).load(&[]);
        assert!(t.is_empty());
        t.validate().unwrap();
    }

    #[test]
    fn hilbert_beats_nx_on_total_leaf_area() {
        // The qualitative fact the whole paper leans on: HS produces
        // better-clustered leaves than NX on 2-D scattered data.
        let rects = squares(2000);
        let area = |t: &RTree| -> f64 {
            t.level_mbrs()
                .last()
                .expect("leaf level exists")
                .iter()
                .map(Rect::area)
                .sum()
        };
        let hs = area(&BulkLoader::hilbert(20).load(&rects));
        let nx = area(&BulkLoader::nearest_x(20).load(&rects));
        assert!(hs < nx, "HS leaf area {hs} not better than NX {nx}");
    }

    #[test]
    fn tat_loads_and_validates() {
        let rects = squares(300);
        let t = TupleAtATime::quadratic(10).load(&rects);
        t.validate().unwrap();
        assert_eq!(t.len(), 300);
        // TAT space utilization is worse: strictly more nodes than packing.
        let packed = BulkLoader::hilbert(10).load(&rects);
        assert!(t.node_count() > packed.node_count());
    }

    /// One rect per cell `(x, y, size)`: centers on a 3 × 3 grid with four
    /// extents each, so curve keys tie heavily, under scrambled ids.
    fn tied_entries(cells: &[(u8, u8, u8)]) -> Vec<(Rect, u64)> {
        cells
            .iter()
            .enumerate()
            .map(|(i, &(cx, cy, size))| {
                let c = Point::new(0.2 + 0.3 * cx as f64, 0.2 + 0.3 * cy as f64);
                let side = 0.002 * (1 + size) as f64;
                let id = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (Rect::centered(c, side, side), id)
            })
            .collect()
    }

    proptest! {
        /// The curve orders are the stable per-comparison key sort, the
        /// oracle kept here only: tied keys keep their input order.
        #[test]
        fn curve_orders_match_the_stable_key_sort(
            cells in prop::collection::vec((0u8..3, 0u8..3, 0u8..4), 1..400),
            order in 1u32..17,
        ) {
            let entries = tied_entries(&cells);
            for packing in [PackingOrder::Hilbert { order }, PackingOrder::Morton { order }] {
                let mut got = entries.clone();
                packing.arrange(&mut got, 10);
                let mut want = entries.clone();
                if let PackingOrder::Hilbert { .. } = packing {
                    want.sort_by_key(|(r, _)| HilbertCurve::new(order).index_of(&r.center()));
                } else {
                    want.sort_by_key(|(r, _)| MortonCurve::new(order).index_of(&r.center()));
                }
                prop_assert_eq!(got, want, "{}", packing.name());
            }
        }
    }

    #[test]
    fn small_capacity_packing() {
        let t = check_loader(BulkLoader::str_pack(2), 33);
        assert_eq!(t.max_entries(), 2);
        assert!(t.height() >= 5);
        // Every capacity records a min fill an image can hold (<= cap / 2);
        // the builder's 40 % fill stays for the caps it accepts.
        for (cap, min) in [(2, 1), (3, 1), (4, 2), (10, 4)] {
            assert_eq!(
                check_loader(BulkLoader::hilbert(cap), 50).min_entries(),
                min
            );
        }
    }
}
