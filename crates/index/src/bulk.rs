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
//! The general algorithm is written once, for any [`Bounds`]: the orderings
//! only read center coordinates and curve keys, so the same loader packs
//! the 2-D trees of the paper and the N-d trees of `rtree-nd`.
//!
//! [`TupleAtATime`] wraps Guttman insertion so that TAT can be used through
//! the same interface as the packing loaders.

use crate::bounds::Bounds;
use crate::node::NodeId;
use crate::split::SplitPolicy;
use crate::tree::RTree;
use rtree_geom::{HilbertCurve, MortonCurve, Rect};

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

    /// Permutes `entries` into packing order for one level of the tree.
    /// `cap` is the node capacity (needed by STR to shape its tiles).
    fn arrange<B: Bounds>(&self, entries: &mut [(B, u64)], cap: usize) {
        match *self {
            PackingOrder::NearestX => sort_by_center(entries, 0),
            PackingOrder::Hilbert { order } => entries.sort_by_key(|(b, _)| b.hilbert_key(order)),
            PackingOrder::Morton { order } => entries.sort_by_key(|(b, _)| b.morton_key(order)),
            PackingOrder::Str => str_tile(entries, cap, 0),
        }
    }
}

/// STR as ref. [7] states it for `k` dimensions: sort the (non-empty)
/// `entries` by center along `axis`; with `k` axes left and `P = ceil(r/n)`
/// pages to fill, cut the run into `ceil(P^(1/k))` slabs of
/// `n * ceil(P^((k-1)/k))` entries and tile each slab along the remaining
/// axes. Consecutive runs of `n` then form the tiles. In 2-D this is the
/// familiar `S = ceil(sqrt(P))` vertical slices of `S * n` rectangles,
/// each sorted by y.
fn str_tile<B: Bounds>(entries: &mut [(B, u64)], cap: usize, axis: usize) {
    sort_by_center(entries, axis);
    let k = B::DIM - axis;
    if k == 1 {
        return;
    }
    let pages = entries.len().div_ceil(cap) as f64;
    // `sqrt`, not `powf(0.5)`: the arithmetic every recorded 2-D table was
    // produced with.
    let pages_per_slab = if k == 2 {
        pages.sqrt()
    } else {
        pages.powf((k - 1) as f64 / k as f64)
    };
    for slab in entries.chunks_mut(pages_per_slab.ceil() as usize * cap) {
        str_tile(slab, cap, axis + 1);
    }
}

fn sort_by_center<B: Bounds>(entries: &mut [(B, u64)], axis: usize) {
    entries.sort_by(|a, b| {
        a.0.center_coord(axis)
            .partial_cmp(&b.0.center_coord(axis))
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
    pub fn load<B: Bounds>(&self, rects: &[B]) -> RTree<B> {
        let entries: Vec<(B, u64)> = rects.iter().copied().zip(0..rects.len() as u64).collect();
        self.load_entries(entries)
    }

    /// Loads explicit `(rect, id)` items.
    pub fn load_entries<B: Bounds>(&self, mut items: Vec<(B, u64)>) -> RTree<B> {
        let mut tree = RTree::builder(self.cap.max(4)).build();
        // The builder enforces cap >= 4 for splits; packing never splits, so
        // we honor the requested capacity exactly.
        tree.max_entries = self.cap;
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
            let mut upper: Vec<(B, u64)> = Vec::with_capacity(items.len().div_ceil(self.cap));
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
    /// reference [1]).
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

    #[test]
    fn small_capacity_packing() {
        let t = check_loader(BulkLoader::str_pack(2), 33);
        assert_eq!(t.max_entries(), 2);
        assert!(t.height() >= 5);
    }
}
