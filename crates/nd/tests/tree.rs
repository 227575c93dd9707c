//! The generic tree and loader of `rtree-index` instantiated with
//! `RectN<D>`: structure, search and packing quality in 3-D and 4-D, and
//! the proof that `RectN<2>` is the 2-D tree — same nodes, same order,
//! same coordinates as `Rect`.

use rtree_geom::Rect;
use rtree_index::{Bounds, BulkLoader, RTree};
use rtree_nd::{PointN, RectN};

/// Pseudo-random scatter (splitmix-style hash, decorrelated per axis — a
/// rank-1 lattice would put everything on parallel lines and make a
/// misleading packing benchmark).
fn scattered<const D: usize>(n: usize) -> Vec<RectN<D>> {
    let hash = |mut x: u64| -> f64 {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let mut c = [0.0; D];
            for (d, v) in c.iter_mut().enumerate() {
                *v = hash((i as u64) << 8 | d as u64) * 0.94 + 0.03;
            }
            RectN::centered(PointN::new(c), [0.01; D])
        })
        .collect()
}

fn inserted<const D: usize>(rects: &[RectN<D>], cap: usize) -> RTree<RectN<D>> {
    let mut tree = RTree::builder(cap).build();
    for (i, r) in rects.iter().enumerate() {
        tree.insert(*r, i as u64);
    }
    tree
}

fn scan<const D: usize>(rects: &[RectN<D>], q: &RectN<D>) -> Vec<u64> {
    let hits = rects.iter().enumerate().filter(|(_, r)| r.intersects(q));
    hits.map(|(i, _)| i as u64).collect()
}

#[test]
fn every_loader_packs_and_finds_in_3d() {
    let rects = scattered::<3>(1_000);
    for loader in [
        BulkLoader::nearest_x(10),
        BulkLoader::str_pack(10),
        BulkLoader::morton(10),
        BulkLoader::hilbert(10),
    ] {
        let tree = loader.load(&rects);
        tree.validate().unwrap();
        assert_eq!(tree.len(), 1_000);
        // ceil division per level: 100 + 10 + 1.
        assert_eq!(tree.node_count(), 111, "{:?}", loader.order());
        for (i, r) in rects.iter().enumerate().step_by(37) {
            assert!(tree.search(r).contains(&(i as u64)));
        }
    }
}

#[test]
fn insertion_and_search_in_3d_and_4d() {
    let rects = scattered::<3>(216);
    let tree = inserted(&rects, 8);
    tree.validate().unwrap();
    assert_eq!(tree.len(), 216);
    assert!(tree.height() >= 3);
    let q = RectN::new(PointN::new([0.1, 0.1, 0.1]), PointN::new([0.5, 0.4, 0.6]));
    let mut got = tree.search(&q);
    got.sort_unstable();
    assert_eq!(got, scan(&rects, &q));

    let points: Vec<RectN<4>> = (0..200)
        .map(|i| {
            let c = [0.618, 0.414, 0.259, 0.175].map(|k| (i as f64 * k) % 1.0);
            RectN::point(PointN::new(c))
        })
        .collect();
    let tree = inserted(&points, 5);
    tree.validate().unwrap();
    assert_eq!(tree.search(&RectN::unit()).len(), 200);
}

#[test]
fn level_mbrs_cover_every_node_root_first() {
    let tree = inserted(&scattered::<3>(125), 6);
    let levels = tree.level_mbrs();
    assert_eq!(levels.len(), tree.height() as usize);
    assert_eq!(levels[0].len(), 1);
    let total: usize = levels.iter().map(Vec::len).sum();
    assert_eq!(total, tree.node_count());
}

#[test]
fn small_and_empty_loads() {
    let tree = BulkLoader::str_pack(10).load(&scattered::<3>(5));
    assert_eq!((tree.height(), tree.node_count()), (1, 1));
    tree.validate().unwrap();
    let empty = BulkLoader::str_pack(10).load(&[] as &[RectN<2>]);
    assert!(empty.is_empty());
    assert!(empty.search(&RectN::unit()).is_empty());
    empty.validate().unwrap();
}

#[test]
fn hilbert_no_worse_than_morton_3d() {
    // Curve locality: Hilbert leaves should pack at least as tightly as
    // Morton on scattered data (total MBR margin).
    let rects = scattered::<3>(4_000);
    let margin =
        |t: &RTree<RectN<3>>| -> f64 { t.level_mbrs().iter().flatten().map(RectN::margin).sum() };
    let hs = margin(&BulkLoader::hilbert(16).load(&rects));
    let mo = margin(&BulkLoader::morton(16).load(&rects));
    assert!(hs <= mo * 1.02, "hilbert margin {hs} vs morton {mo}");
}

#[test]
fn str_packs_tighter_leaves_than_insertion_4d() {
    // Leaf level only: with ref. [7]'s slab rule the last slab of each axis
    // is a thin remainder, and over this tree's 8 level-1 nodes that costs
    // about what the tighter leaves save.
    let rects = scattered::<4>(2_000);
    let packed = BulkLoader::str_pack(16).load(&rects);
    let grown = inserted(&rects, 16);
    let leaf_volume = |t: &RTree<RectN<4>>| -> f64 {
        let levels = t.level_mbrs();
        levels
            .last()
            .expect("leaf level")
            .iter()
            .map(RectN::volume)
            .sum()
    };
    assert!(leaf_volume(&packed) < leaf_volume(&grown));
    assert!(packed.node_count() < grown.node_count());
}

/// Every node in `node_ids()` order: arena slot, level, pointers, boxes.
type Shape = Vec<(usize, u32, Vec<u64>, Vec<[f64; 4]>)>;

fn shape<B: Bounds>(tree: &RTree<B>, coords: impl Fn(&B) -> [f64; 4]) -> Shape {
    let describe = |id: &rtree_index::NodeId| {
        let n = tree.node(*id);
        let ptrs = (0..n.len()).map(|i| n.ptr(i)).collect();
        let boxes = n.rects().iter().map(&coords).collect();
        (id.index(), n.level(), ptrs, boxes)
    };
    tree.node_ids().iter().map(describe).collect()
}

#[test]
fn rect_n_2_builds_the_two_d_tree() {
    let flat: Vec<Rect> = (0..700)
        .map(|i| {
            let x = (i as f64 * 0.754_877_666) % 0.97;
            let y = (i as f64 * 0.569_840_296) % 0.97;
            Rect::new(x, y, x + 0.004 + (i % 7) as f64 * 0.003, y + 0.01)
        })
        .collect();
    let lifted: Vec<RectN<2>> = flat
        .iter()
        .map(|r| RectN::new(PointN::new([r.lo.x, r.lo.y]), PointN::new([r.hi.x, r.hi.y])))
        .collect();
    let of_rect = |r: &Rect| [r.lo.x, r.lo.y, r.hi.x, r.hi.y];
    let of_rect_n = |r: &RectN<2>| [r.lo.coord(0), r.lo.coord(1), r.hi.coord(0), r.hi.coord(1)];

    for loader in [BulkLoader::nearest_x(9), BulkLoader::str_pack(9)] {
        let (a, b) = (loader.load(&flat), loader.load(&lifted));
        assert_eq!(
            shape(&a, of_rect),
            shape(&b, of_rect_n),
            "{:?}",
            loader.order()
        );
    }
    // TAT with the quadratic split: every enlargement, tie-break and seed
    // choice must come out the same for the trees to match node for node.
    let mut a = RTree::builder(9).build();
    let mut b = RTree::builder(9).build();
    for (i, (r, rn)) in flat.iter().zip(&lifted).enumerate() {
        a.insert(*r, i as u64);
        b.insert(*rn, i as u64);
    }
    assert!(a.height() >= 3);
    assert_eq!(shape(&a, of_rect), shape(&b, of_rect_n));
}
