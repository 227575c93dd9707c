//! Differential suite: compressed (v4) images must be observationally
//! *exact* against the seed's scalar traversal (`DiskRTree::query_scalar`)
//! of the uncompressed v3 image —
//! same region/point/kNN answers — across every replacement policy,
//! sequentially, sharded, and batched.
//!
//! Exactness holds by construction: leaves stay full-precision f64, and
//! internal MBRs are quantized with conservative rounding (decoded rects
//! contain the true rects), so traversal can only over-visit, never skip
//! a qualifying leaf — and the leaf refine step removes the overshoot
//! from the answer. What v4 buys is density: 253 internal entries per
//! 4 KiB page instead of 102, so at equal frame budgets the buffer holds
//! more of the tree and demand reads can only go down. Both halves are
//! pinned here. Run with `RTREE_KERNEL=scalar` to hold the suite against
//! the scalar kernel; CI exercises both.

use buffered_rtrees::buffer::{
    ClockPolicy, FifoPolicy, LruKPolicy, LruPolicy, RandomPolicy, ReplacementPolicy,
};
use buffered_rtrees::geom::{Point, Rect};
use buffered_rtrees::index::{BulkLoader, RTree};
use buffered_rtrees::pager::{DiskRTree, MemStore};

fn dataset() -> Vec<Rect> {
    (0..3_000)
        .map(|i| {
            let x = (i as f64 * 0.618_033) % 0.96;
            let y = (i as f64 * 0.414_213) % 0.96;
            Rect::new(x, y, x + 0.015, y + 0.015)
        })
        .collect()
}

fn query_stream(n: usize) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.37) % 0.85;
            let y = (i as f64 * 0.59) % 0.85;
            let w = 0.01 + (i % 7) as f64 * 0.02;
            Rect::new(x, y, (x + w).min(1.0), (y + w).min(1.0))
        })
        .collect()
}

type PolicyCtor = Box<dyn Fn() -> Box<dyn ReplacementPolicy>>;

fn policies() -> Vec<(&'static str, PolicyCtor)> {
    vec![
        (
            "lru",
            Box::new(|| Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>),
        ),
        (
            "fifo",
            Box::new(|| Box::new(FifoPolicy::new()) as Box<dyn ReplacementPolicy>),
        ),
        (
            "clock",
            Box::new(|| Box::new(ClockPolicy::new()) as Box<dyn ReplacementPolicy>),
        ),
        (
            "lru-2",
            Box::new(|| Box::new(LruKPolicy::new(2)) as Box<dyn ReplacementPolicy>),
        ),
        (
            "random",
            Box::new(|| Box::new(RandomPolicy::new(0xD1CE)) as Box<dyn ReplacementPolicy>),
        ),
    ]
}

/// Boxed-policy adapter: the tree constructors take `impl ReplacementPolicy`.
struct Boxed(Box<dyn ReplacementPolicy>);

impl ReplacementPolicy for Boxed {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn on_hit(&mut self, page: buffered_rtrees::buffer::PageId) {
        self.0.on_hit(page);
    }
    fn on_insert(&mut self, page: buffered_rtrees::buffer::PageId) {
        self.0.on_insert(page);
    }
    fn evict(&mut self) -> buffered_rtrees::buffer::PageId {
        self.0.evict()
    }
    fn remove(&mut self, page: buffered_rtrees::buffer::PageId) {
        self.0.remove(page);
    }
    fn on_unpin(&mut self, page: buffered_rtrees::buffer::PageId) {
        self.0.on_unpin(page);
    }
}

/// Node capacity 16 keeps the tree deep enough (188 leaves, two internal
/// levels on v3) that v4's repack to a single 253-entry internal level is
/// structural, not cosmetic.
fn tree() -> RTree {
    BulkLoader::hilbert(16).load(&dataset())
}

fn make_pair(
    tree: &RTree,
    buffer: usize,
    policy: &dyn Fn() -> Box<dyn ReplacementPolicy>,
) -> (DiskRTree<MemStore>, DiskRTree<MemStore>) {
    let seed = DiskRTree::create(MemStore::new(), tree, buffer, Boxed(policy()))
        .expect("create seed (v3)");
    let v4 = DiskRTree::create_compressed(MemStore::new(), tree, buffer, Boxed(policy()))
        .expect("create v4");
    (seed, v4)
}

#[test]
fn region_queries_match_seed_across_all_policies() {
    let tree = tree();
    let stream = query_stream(250);
    // Starved buffer: replacement decisions, not capacity, shape the reads.
    let buffer = 12;
    for (name, policy) in policies() {
        let (mut seed, mut v4) = make_pair(&tree, buffer, &policy);
        for (i, q) in stream.iter().enumerate() {
            let want = seed.query_scalar(q).expect("seed query");
            let got = v4.query_scalar(q).expect("v4 query");
            // The repack preserves leaf order, so even the result order
            // survives compression — byte-for-byte, no sorting tolerance.
            assert_eq!(want, got, "policy {name}, query {i}");
        }
        // Same answers from fewer pages: at an equal frame budget the
        // denser format must never demand *more* reads than the seed.
        let (a, b) = (seed.io_stats(), v4.io_stats());
        assert!(
            b.demand_reads() <= a.demand_reads(),
            "policy {name}: v4 demand reads {} > seed {}",
            b.demand_reads(),
            a.demand_reads()
        );
        assert!(a.reads > 0, "policy {name}: the stream must actually miss");
    }
}

#[test]
fn simd_and_scalar_kernels_agree_on_v4_pages() {
    // The kernel dispatch and the page format are independent axes: the
    // SIMD path decodes Packed pages into the same SoA planes the scalar
    // path reads, so both must produce the seed answers on v4 images.
    let tree = tree();
    let stream = query_stream(120);
    let (mut seed, mut v4) = make_pair(&tree, 16, &|| {
        Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>
    });
    for (i, q) in stream.iter().enumerate() {
        let want = seed.query_scalar(q).expect("seed");
        assert_eq!(want, v4.query(q).expect("simd on v4"), "query {i} (simd)");
        assert_eq!(
            want,
            v4.query_scalar(q).expect("scalar on v4"),
            "query {i} (scalar)"
        );
    }
}

#[test]
fn point_and_knn_queries_match_seed() {
    let tree = tree();
    let (mut seed, mut v4) = make_pair(&tree, 20, &|| {
        Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>
    });
    for i in 0..60 {
        let p = Point::new((i as f64 * 0.171) % 1.0, (i as f64 * 0.257) % 1.0);
        let want = seed
            .query_scalar(&Rect { lo: p, hi: p })
            .expect("seed point");
        assert_eq!(want, v4.query_point(&p).expect("v4 point"), "point {i}");
    }
    for (i, k) in [(0usize, 1usize), (1, 10), (2, 100), (3, 5_000)] {
        let p = Point::new((i as f64 * 0.31) % 1.0, (i as f64 * 0.47) % 1.0);
        let a = seed.nearest_neighbors(&p, k).expect("seed knn");
        let b = v4.nearest_neighbors(&p, k).expect("v4 knn");
        // Internal distances on v4 are lower bounds (expanded MBRs), so
        // best-first expansion stays admissible: the *answers* — ids and
        // exact leaf distances — are identical.
        let da: Vec<(u64, f64)> = a.iter().map(|n| (n.id, n.distance)).collect();
        let db: Vec<(u64, f64)> = b.iter().map(|n| (n.id, n.distance)).collect();
        assert_eq!(da, db, "knn answers, probe {i} k {k}");
        let want = tree.nearest_neighbors(&p, k);
        let dw: Vec<(u64, f64)> = want.iter().map(|n| (n.id, n.distance)).collect();
        assert_eq!(da, dw, "knn vs in-memory, probe {i} k {k}");
    }
}

#[test]
fn sharded_and_batch_traversal_match_seed_on_v4() {
    use buffered_rtrees::pager::ConcurrentDiskRTree;
    let tree = tree();
    let stream = query_stream(96);
    let seed_answers: Vec<Vec<u64>> = {
        let (mut seed, _) = make_pair(&tree, 24, &|| {
            Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>
        });
        stream
            .iter()
            .map(|q| seed.query_scalar(q).expect("seed"))
            .collect()
    };

    // A v4 image opened sharded answers like the seed.
    let v4_store = DiskRTree::create_compressed(MemStore::new(), &tree, 4, LruPolicy::new())
        .expect("materialize v4")
        .into_store();
    let sharded = ConcurrentDiskRTree::open_sharded(v4_store, 24, 4, LruPolicy::new)
        .expect("open v4 sharded");
    for (i, q) in stream.iter().enumerate() {
        assert_eq!(
            sharded.query(q).expect("sharded v4"),
            seed_answers[i],
            "query {i}"
        );
    }

    // The batch scheduler on the same image: answers are per-query
    // unordered, so compare as sets.
    let got = sharded.query_batch(&stream, 2).expect("batch v4");
    for (i, mut r) in got.into_iter().enumerate() {
        r.sort_unstable();
        let mut want = seed_answers[i].clone();
        want.sort_unstable();
        assert_eq!(r, want, "batch query {i}");
    }
}

#[test]
fn v4_meta_reopens_with_capacities_intact() {
    let tree = tree();
    let stream = query_stream(40);
    let seed_answers: Vec<Vec<u64>> = {
        let (mut seed, _) = make_pair(&tree, 16, &|| {
            Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>
        });
        stream
            .iter()
            .map(|q| seed.query_scalar(q).expect("seed"))
            .collect()
    };

    let store = DiskRTree::create_compressed(MemStore::new(), &tree, 4, LruPolicy::new())
        .expect("materialize v4")
        .into_store();
    let mut reopened = DiskRTree::open(store, 16, LruPolicy::new()).expect("v4 image must open");
    assert!(reopened.meta().compressed, "meta must say compressed");
    assert_eq!(
        reopened.meta().internal_max_entries,
        buffered_rtrees::pager::MAX_ENTRIES_PACKED as u32
    );
    assert_eq!(reopened.meta().max_entries, 16, "leaf capacity unchanged");
    for (i, q) in stream.iter().enumerate() {
        assert_eq!(
            reopened.query(q).expect("query"),
            seed_answers[i],
            "query {i}"
        );
    }
}

#[test]
fn mutations_on_v4_images_stay_exact() {
    // Insert and delete through the compressed format (internal nodes
    // re-quantize on every rewrite), then check every query against a
    // brute-force scan of the surviving items.
    let rects = dataset();
    let tree = tree();
    let mut v4 = DiskRTree::create_compressed(MemStore::new(), &tree, 32, LruPolicy::new())
        .expect("create v4");

    let mut items: Vec<(Rect, u64)> = rects
        .iter()
        .enumerate()
        .map(|(i, r)| (*r, i as u64))
        .collect();

    // 300 inserts clustered where the data lives, then 150 deletes of
    // originals spread across the id space.
    for j in 0..300u64 {
        let x = (j as f64 * 0.777) % 0.9;
        let y = (j as f64 * 0.333) % 0.9;
        let r = Rect::new(x, y, x + 0.012, y + 0.012);
        let id = 1_000_000 + j;
        v4.insert(r, id).expect("insert");
        items.push((r, id));
    }
    for j in 0..150u64 {
        let id = j * 17 % 3_000;
        let Some(pos) = items.iter().position(|(_, i)| *i == id) else {
            continue;
        };
        let (r, _) = items.remove(pos);
        assert!(v4.delete(&r, id).expect("delete"), "item {id} must exist");
    }

    for (i, q) in query_stream(120).iter().enumerate() {
        let mut got = v4.query_scalar(q).expect("query");
        got.sort_unstable();
        let mut want: Vec<u64> = items
            .iter()
            .filter(|(r, _)| r.intersects(q))
            .map(|(_, id)| *id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "query {i} after mutations");
    }
}
