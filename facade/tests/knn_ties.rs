//! kNN against a brute-force oracle where ties are the rule, not the
//! exception: points stacked on a coarse dyadic grid (so equal distances
//! are bit-equal), queried from the data itself, at every `k` from one to
//! past the tree's size.
//!
//! The disk walk orders candidates by (min-distance², discovery sequence),
//! items before pages at equal distance, so among equidistant items the
//! one it returns is fixed by the pages alone. That is pinned here: the
//! same ids come back under every buffer size from one frame to the whole
//! image, every replacement policy, every rect kernel and both tree
//! flavors; the distances are bit-equal to the oracle's on v3 and v4
//! images alike. The far-point guard pins the other edge: when every
//! distance overflows to +∞, all three trees still return `min(k, items)`
//! neighbours.

use buffered_rtrees::buffer::PolicyKind;
use buffered_rtrees::geom::{Point, Rect};
use buffered_rtrees::index::{BulkLoader, Neighbor, RTree};
use buffered_rtrees::pager::{ConcurrentDiskRTree, DiskRTree, MemStore};
use buffered_rtrees::wal::{GroupWal, MemLog};
use proptest::prelude::*;

mod kernels;
use kernels::for_each_kernel;

/// Textbook minimum squared distance — what every kernel computes,
/// bit for bit.
fn dist2(p: &Point, r: &Rect) -> f64 {
    let dx = (r.lo.x - p.x).max(0.0).max(p.x - r.hi.x);
    let dy = (r.lo.y - p.y).max(0.0).max(p.y - r.hi.y);
    dx * dx + dy * dy
}

/// The `k` smallest distances, ascending (which items realise them is the
/// walk's business).
fn oracle(rects: &[Rect], p: &Point, k: usize) -> Vec<u64> {
    let mut d: Vec<f64> = rects.iter().map(|r| dist2(p, r)).collect();
    d.sort_by(f64::total_cmp);
    d.iter().take(k).map(|d2| d2.sqrt().to_bits()).collect()
}

/// `(id, distance bits)` per neighbour: what two answers must share.
fn answer(got: &[Neighbor]) -> Vec<(u64, u64)> {
    got.iter().map(|n| (n.id, n.distance.to_bits())).collect()
}

/// Checks one answer against the oracle and the data.
fn checked(got: &[Neighbor], rects: &[Rect], p: &Point, k: usize, what: &str) -> Vec<(u64, u64)> {
    let dist: Vec<u64> = got.iter().map(|n| n.distance.to_bits()).collect();
    assert_eq!(dist, oracle(rects, p, k), "{what}: distances");
    let mut ids: Vec<u64> = got.iter().map(|n| n.id).collect();
    for n in got {
        assert_eq!(n.rect, rects[n.id as usize], "{what}: item {} rect", n.id);
        assert_eq!(
            dist2(p, &n.rect).sqrt(),
            n.distance,
            "{what}: item {}",
            n.id
        );
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), got.len(), "{what}: duplicate ids");
    answer(got)
}

/// A point on the 1/8 grid, or a rectangle spanning grid cells.
fn arb_rect() -> impl Strategy<Value = Rect> {
    let g = |i: u32| i as f64 / 8.0;
    prop_oneof![
        (0u32..8, 0u32..8).prop_map(move |(x, y)| Rect::point(Point::new(g(x), g(y)))),
        (0u32..8, 0u32..8, 0u32..3, 0u32..3).prop_map(move |(x, y, w, h)| Rect::new(
            g(x),
            g(y),
            g(x + w),
            g(y + h)
        )),
    ]
}

/// `tree`'s v3 or v4 image and its page count.
fn image(tree: &RTree, v4: bool) -> (usize, Vec<u8>) {
    let lru = PolicyKind::Lru.build(0);
    let disk = match v4 {
        false => DiskRTree::create(MemStore::new(), tree, 1, lru),
        true => DiskRTree::create_compressed(MemStore::new(), tree, 1, lru),
    }
    .expect("materialize");
    (disk.meta().nodes as usize, disk.into_store().snapshot())
}

fn open(image: &[u8], frames: usize, policy: PolicyKind) -> DiskRTree<MemStore> {
    let store = MemStore::from_bytes(image.to_vec());
    DiskRTree::open(store, frames, policy.build(0xD1CE)).expect("open")
}

/// The three disk-tree flavors over one image, each with its own pool.
fn flavors(image: &[u8], frames: usize, policy: PolicyKind) -> Vec<(&'static str, Knn)> {
    let store = || MemStore::from_bytes(image.to_vec());
    let disk = open(image, frames, policy);
    let shared =
        ConcurrentDiskRTree::open_sharded(store(), frames, 2, || policy.build(0xD1CE)).unwrap();
    let wal = GroupWal::open(MemLog::new()).expect("wal");
    let writable =
        ConcurrentDiskRTree::open_writable(store(), frames, policy.build(0xD1CE), wal).unwrap();
    vec![
        ("disk", Knn::Disk(disk)),
        ("shared", Knn::Shared(shared)),
        ("writable", Knn::Shared(writable)),
    ]
}

enum Knn {
    Disk(DiskRTree<MemStore>),
    Shared(ConcurrentDiskRTree<MemStore>),
}

impl Knn {
    fn nearest(&mut self, p: &Point, k: usize) -> Vec<Neighbor> {
        match self {
            Knn::Disk(t) => t.nearest_neighbors(p, k),
            Knn::Shared(t) => t.nearest_neighbors(p, k),
        }
        .expect("knn")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tied_knn_matches_the_oracle_and_is_deterministic(
        rects in prop::collection::vec(arb_rect(), 40..220),
        picks in prop::collection::vec(0usize..10_000, 3),
        cap in 4usize..12,
    ) {
        let n = rects.len();
        let tree = BulkLoader::hilbert(cap).load(&rects);
        let probes: Vec<Point> = picks.iter().map(|&i| rects[i % n].lo).collect();
        let ks: Vec<usize> = (1..=8).chain([100, 5_000, n + 1]).collect();
        for (format, v4) in [("v3", false), ("v4", true)] {
            let (pages, image) = image(&tree, v4);
            // The answer every other configuration must reproduce, id for
            // id and bit for bit.
            let mut reference = Knn::Disk(open(&image, 1, PolicyKind::Lru));
            let mut want = Vec::new();
            for p in &probes {
                for &k in &ks {
                    let got = reference.nearest(p, k);
                    want.push(checked(&got, &rects, p, k, &format!("{format} k {k}")));
                }
            }
            let agree = |tree: &mut Knn, what: &str| {
                let mut w = want.iter();
                for p in &probes {
                    for &k in &ks {
                        let got = answer(&tree.nearest(p, k));
                        assert_eq!(&got, w.next().unwrap(), "{format} {what} k {k} at {p:?}");
                    }
                }
            };
            for frames in 1..=pages {
                for policy in PolicyKind::ALL {
                    let mut disk = Knn::Disk(open(&image, frames, policy));
                    agree(&mut disk, &format!("{} frames {frames}", policy.name()));
                }
            }
            for_each_kernel(|kernel| {
                for (flavor, mut tree) in flavors(&image, pages / 2 + 1, PolicyKind::Lru) {
                    agree(&mut tree, &format!("{kernel} {flavor}"));
                }
            });
        }
    }
}

/// Every distance from a point at (or past) the edge of the f64 range
/// overflows to +∞, so every candidate ties at +∞. The walk must still
/// fill its answer: a stop rule of "stop once the nearest page is at
/// least the bound" with a bound of +∞ would return nothing.
#[test]
fn far_point_returns_min_k_items_at_infinity() {
    let rects: Vec<Rect> = (0..300)
        .map(|i| {
            let (x, y) = ((i % 20) as f64 / 20.0, (i / 20) as f64 / 20.0);
            Rect::new(x, y, x + 0.01, y + 0.01)
        })
        .collect();
    let tree = BulkLoader::hilbert(8).load(&rects);
    let (_, image) = image(&tree, false);
    for p in [Point::new(1e300, 0.5), Point::new(f64::INFINITY, 0.5)] {
        for k in [1, 7, 300, 301] {
            let want = k.min(rects.len());
            let mut answers = vec![("memory", tree.nearest_neighbors(&p, k))];
            for (flavor, mut t) in flavors(&image, 4, PolicyKind::Lru) {
                answers.push((flavor, t.nearest(&p, k)));
            }
            for (flavor, got) in answers {
                assert_eq!(got.len(), want, "{flavor}: k {k} at {p:?}");
                assert!(got.iter().all(|n| n.distance == f64::INFINITY), "{flavor}");
            }
        }
    }
}
