//! Differential suite: the SIMD traversal on v3 (SoA) pages must be
//! observationally identical to the seed's scalar traversal on v2 (AoS)
//! pages — same results, same I/O counts — across every replacement
//! policy, sequentially and sharded.
//!
//! The invariant this pins is stronger than "same answers": the SIMD path
//! visits pages in exactly the order the seed path did, so the buffer sees
//! the identical access string and every policy makes the identical
//! eviction decisions. A perturbation of a single miss count is a
//! regression even if the result sets still match. Run with
//! `RTREE_KERNEL=scalar` to hold the whole suite against the scalar
//! kernel; CI exercises both.

use buffered_rtrees::buffer::{
    ClockPolicy, FifoPolicy, LruKPolicy, LruPolicy, RandomPolicy, ReplacementPolicy,
};
use buffered_rtrees::geom::{Point, Rect};
use buffered_rtrees::index::{BulkLoader, RTree};
use buffered_rtrees::pager::{ConcurrentDiskRTree, DiskRTree, IoStats, MemStore, PageLayout};
use buffered_rtrees::wal::crc32;

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

fn tree() -> RTree {
    BulkLoader::hilbert(16).load(&dataset())
}

fn make_pair(
    tree: &RTree,
    buffer: usize,
    policy: &dyn Fn() -> Box<dyn ReplacementPolicy>,
) -> (DiskRTree<MemStore>, DiskRTree<MemStore>) {
    let v2 = DiskRTree::create_with_layout(
        MemStore::new(),
        tree,
        buffer,
        Boxed(policy()),
        PageLayout::Aos,
    )
    .expect("create v2");
    let v3 = DiskRTree::create(MemStore::new(), tree, buffer, Boxed(policy())).expect("create v3");
    (v2, v3)
}

#[test]
fn region_queries_match_seed_across_all_policies_with_equal_io() {
    let tree = tree();
    let stream = query_stream(250);
    // Starved buffer: replacement decisions, not capacity, shape the reads.
    let buffer = 12;
    for (name, policy) in policies() {
        let (mut v2, mut v3) = make_pair(&tree, buffer, &policy);
        for (i, q) in stream.iter().enumerate() {
            let seed = v2.query_scalar(q).expect("seed query");
            let simd = v3.query(q).expect("simd query");
            // Identical traversal order means identical result order — no
            // sorting tolerance.
            assert_eq!(seed, simd, "policy {name}, query {i}");
        }
        let (a, b): (IoStats, IoStats) = (v2.io_stats(), v3.io_stats());
        assert_eq!(a, b, "policy {name}: I/O must not be perturbed");
        assert!(a.reads > 0, "policy {name}: the stream must actually miss");
        assert_eq!(
            v2.buffer_stats(),
            v3.buffer_stats(),
            "policy {name}: identical access string, identical hit/miss"
        );
    }
}

#[test]
fn crossed_paths_agree_on_both_layouts() {
    // The kernel dispatch and the page layout are independent axes: the
    // SIMD path on v2 pages and the scalar path on v3 pages must both
    // produce the seed answers.
    let tree = tree();
    let stream = query_stream(120);
    let (mut v2, mut v3) = make_pair(&tree, 16, &|| {
        Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>
    });
    for (i, q) in stream.iter().enumerate() {
        let seed = v2.query_scalar(q).expect("seed");
        assert_eq!(seed, v2.query(q).expect("simd on v2"), "query {i} (v2)");
        assert_eq!(
            seed,
            v3.query_scalar(q).expect("scalar on v3"),
            "query {i} (v3)"
        );
    }
}

#[test]
fn point_and_knn_queries_match_seed_with_equal_io() {
    let tree = tree();
    let (mut v2, mut v3) = make_pair(&tree, 20, &|| {
        Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>
    });
    for i in 0..60 {
        let p = Point::new((i as f64 * 0.171) % 1.0, (i as f64 * 0.257) % 1.0);
        let seed = v2.query_scalar(&Rect { lo: p, hi: p }).expect("seed point");
        assert_eq!(seed, v3.query_point(&p).expect("simd point"), "point {i}");
    }
    v2.reset_counters();
    v3.reset_counters();
    for (i, k) in [(0usize, 1usize), (1, 10), (2, 100), (3, 5_000)] {
        let p = Point::new((i as f64 * 0.31) % 1.0, (i as f64 * 0.47) % 1.0);
        let a = v2.nearest_neighbors(&p, k).expect("v2 knn");
        let b = v3.nearest_neighbors(&p, k).expect("v3 knn");
        let da: Vec<f64> = a.iter().map(|n| n.distance).collect();
        let db: Vec<f64> = b.iter().map(|n| n.distance).collect();
        assert_eq!(da, db, "knn distance sequence, probe {i} k {k}");
        // Same best-first expansion on both layouts: same page reads.
        assert_eq!(v2.io_stats(), v3.io_stats(), "knn I/O, probe {i} k {k}");
        let want = tree.nearest_neighbors(&p, k);
        let dw: Vec<f64> = want.iter().map(|n| n.distance).collect();
        assert_eq!(da, dw, "knn vs in-memory, probe {i} k {k}");
    }
}

#[test]
fn sharded_traversal_matches_seed_on_both_layouts() {
    let tree = tree();
    let stream = query_stream(96);
    let seed_answers: Vec<Vec<u64>> = {
        let (mut v2, _) = make_pair(&tree, 24, &|| {
            Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>
        });
        stream
            .iter()
            .map(|q| v2.query_scalar(q).expect("seed"))
            .collect()
    };

    let v2_store =
        DiskRTree::create_with_layout(MemStore::new(), &tree, 4, LruPolicy::new(), PageLayout::Aos)
            .expect("materialize v2")
            .into_store();
    let shard2 = ConcurrentDiskRTree::open_sharded(v2_store, 24, 4, LruPolicy::new)
        .expect("open v2 sharded");
    let shard3 = ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 24, 4, LruPolicy::new)
        .expect("create v3 sharded");

    for (i, q) in stream.iter().enumerate() {
        assert_eq!(
            shard2.query(q).expect("sharded v2"),
            seed_answers[i],
            "query {i} (v2)"
        );
        assert_eq!(
            shard3.query(q).expect("sharded v3"),
            seed_answers[i],
            "query {i} (v3)"
        );
    }
    assert_eq!(
        shard2.physical_reads(),
        shard3.physical_reads(),
        "identical access strings shard-by-shard"
    );

    // The batch path answers the same stream too, on both layouts.
    for (t, got) in [
        shard2.query_batch(&stream, 1).expect("batch v2"),
        shard3.query_batch(&stream, 2).expect("batch v3"),
    ]
    .into_iter()
    .enumerate()
    {
        for (i, mut r) in got.into_iter().enumerate() {
            r.sort_unstable();
            let mut want = seed_answers[i].clone();
            want.sort_unstable();
            assert_eq!(r, want, "tree {t}, batch query {i}");
        }
    }
}

#[test]
fn v2_meta_version_still_opens_and_queries() {
    // A seed-era image carries format version 2 in its meta page. Build an
    // AoS image, stamp the meta back to version 2 (resealing the
    // checksum), and the current build must open and answer from it.
    let tree = tree();
    let stream = query_stream(40);
    let seed_answers: Vec<Vec<u64>> = {
        let (mut v2, _) = make_pair(&tree, 16, &|| {
            Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>
        });
        stream
            .iter()
            .map(|q| v2.query_scalar(q).expect("seed"))
            .collect()
    };

    let mut store =
        DiskRTree::create_with_layout(MemStore::new(), &tree, 4, LruPolicy::new(), PageLayout::Aos)
            .expect("materialize")
            .into_store();
    {
        use buffered_rtrees::pager::PageStore;
        let mut page0 = vec![0u8; 4096];
        store
            .read_page(buffered_rtrees::buffer::PageId(0), &mut page0)
            .expect("read meta");
        page0[4..8].copy_from_slice(&2u32.to_le_bytes());
        page0[8..12].fill(0);
        let crc = crc32::checksum(&page0);
        page0[8..12].copy_from_slice(&crc.to_le_bytes());
        store
            .write_page(buffered_rtrees::buffer::PageId(0), &page0)
            .expect("write meta");
    }
    let mut reopened =
        DiskRTree::open(store, 16, LruPolicy::new()).expect("v2-version image must open");
    for (i, q) in stream.iter().enumerate() {
        assert_eq!(
            reopened.query(q).expect("query"),
            seed_answers[i],
            "query {i}"
        );
    }
}
