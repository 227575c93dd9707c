//! Differential suite: the SIMD traversal must be observationally
//! identical to the seed's scalar entry-at-a-time traversal
//! (`DiskRTree::query_scalar`) of the same v3 (SoA) image — same results,
//! same I/O counts — across every replacement policy, sequentially and
//! sharded.
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
use buffered_rtrees::pager::{
    ConcurrentDiskRTree, DiskRTree, IoStats, MemStore, NodePage, NodeSoA, PageError, PageStore,
};
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

/// Two handles on identical v3 images: the first is only ever queried
/// through the seed path (`query_scalar`, `nearest_neighbors`), the second
/// through the SIMD path.
fn make_pair(
    tree: &RTree,
    buffer: usize,
    policy: &dyn Fn() -> Box<dyn ReplacementPolicy>,
) -> (DiskRTree<MemStore>, DiskRTree<MemStore>) {
    let create =
        || DiskRTree::create(MemStore::new(), tree, buffer, Boxed(policy())).expect("create v3");
    (create(), create())
}

#[test]
fn region_queries_match_seed_across_all_policies_with_equal_io() {
    let tree = tree();
    let stream = query_stream(250);
    // Starved buffer: replacement decisions, not capacity, shape the reads.
    let buffer = 12;
    for (name, policy) in policies() {
        let (mut seed, mut simd) = make_pair(&tree, buffer, &policy);
        for (i, q) in stream.iter().enumerate() {
            let want = seed.query_scalar(q).expect("seed query");
            let got = simd.query(q).expect("simd query");
            // Identical traversal order means identical result order — no
            // sorting tolerance.
            assert_eq!(want, got, "policy {name}, query {i}");
        }
        let (a, b): (IoStats, IoStats) = (seed.io_stats(), simd.io_stats());
        assert_eq!(a, b, "policy {name}: I/O must not be perturbed");
        assert!(a.reads > 0, "policy {name}: the stream must actually miss");
        assert_eq!(
            seed.buffer_stats(),
            simd.buffer_stats(),
            "policy {name}: identical access string, identical hit/miss"
        );
    }
}

#[test]
fn crossed_paths_agree_on_both_layouts() {
    // The kernel dispatch and the page layout are independent axes: on a
    // v3 image and on a v4 (Packed internal pages) image alike, the SIMD
    // path and the scalar path must both produce the seed answers.
    let tree = tree();
    let stream = query_stream(120);
    let (mut seed, mut v3) = make_pair(&tree, 16, &|| {
        Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>
    });
    let mut v4 = DiskRTree::create_compressed(MemStore::new(), &tree, 16, LruPolicy::new())
        .expect("create v4");
    for (i, q) in stream.iter().enumerate() {
        let want = seed.query_scalar(q).expect("seed");
        for (name, image) in [("v3", &mut v3), ("v4", &mut v4)] {
            assert_eq!(want, image.query(q).expect("simd"), "query {i} ({name})");
            assert_eq!(
                want,
                image.query_scalar(q).expect("scalar"),
                "query {i} ({name})"
            );
        }
    }
}

#[test]
fn point_and_knn_queries_match_seed_with_equal_io() {
    let tree = tree();
    let (mut seed, mut simd) = make_pair(&tree, 20, &|| {
        Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>
    });
    for i in 0..60 {
        let p = Point::new((i as f64 * 0.171) % 1.0, (i as f64 * 0.257) % 1.0);
        let want = seed
            .query_scalar(&Rect { lo: p, hi: p })
            .expect("seed point");
        assert_eq!(want, simd.query_point(&p).expect("simd point"), "point {i}");
    }
    assert_eq!(seed.io_stats(), simd.io_stats(), "point-query I/O");
    for (i, k) in [(0usize, 1usize), (1, 10), (2, 100), (3, 5_000)] {
        let p = Point::new((i as f64 * 0.31) % 1.0, (i as f64 * 0.47) % 1.0);
        let got = simd.nearest_neighbors(&p, k).expect("knn");
        let dg: Vec<f64> = got.iter().map(|n| n.distance).collect();
        let want = tree.nearest_neighbors(&p, k);
        let dw: Vec<f64> = want.iter().map(|n| n.distance).collect();
        assert_eq!(dg, dw, "knn vs in-memory, probe {i} k {k}");
    }
}

#[test]
fn sharded_traversal_matches_seed_on_both_layouts() {
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

    // A v3 image written by the sequential tree and reopened sharded, one
    // written by the sharded constructor, and a v4 image reopened sharded.
    let v3_store = DiskRTree::create(MemStore::new(), &tree, 4, LruPolicy::new())
        .expect("materialize v3")
        .into_store();
    let reopened = ConcurrentDiskRTree::open_sharded(v3_store, 24, 4, LruPolicy::new)
        .expect("open v3 sharded");
    let created =
        ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 24, 4, LruPolicy::new)
            .expect("create v3 sharded");
    let v4_store = DiskRTree::create_compressed(MemStore::new(), &tree, 4, LruPolicy::new())
        .expect("materialize v4")
        .into_store();
    let packed = ConcurrentDiskRTree::open_sharded(v4_store, 24, 4, LruPolicy::new)
        .expect("open v4 sharded");

    for (i, q) in stream.iter().enumerate() {
        for (name, shards) in [
            ("reopened", &reopened),
            ("created", &created),
            ("v4", &packed),
        ] {
            assert_eq!(
                shards.query(q).expect("sharded query"),
                seed_answers[i],
                "query {i} ({name})"
            );
        }
    }
    assert_eq!(
        reopened.physical_reads(),
        created.physical_reads(),
        "identical access strings shard-by-shard"
    );

    // The batch path answers the same stream too, on both layouts.
    for (t, got) in [
        reopened.query_batch(&stream, 1).expect("batch v3"),
        packed.query_batch(&stream, 2).expect("batch v4"),
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

/// Re-seals a page's CRC-32 (bytes 8..12, computed with the field zeroed)
/// after a raw patch.
fn reseal(page: &mut [u8]) {
    page[8..12].fill(0);
    let crc = crc32::checksum(page);
    page[8..12].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn v2_images_are_rejected_with_typed_errors() {
    // Format v2 (array-of-structs node bodies) is retired. What identifies
    // a seed-era image is version 2 in its meta page and layout flag 0 in
    // its node pages; stamp each onto a current image (resealing the
    // checksum) and the build must refuse it with a typed error rather
    // than misread the planes.
    let page_id = buffered_rtrees::buffer::PageId;
    let mut store = DiskRTree::create(MemStore::new(), &tree(), 4, LruPolicy::new())
        .expect("materialize")
        .into_store();
    let mut page = vec![0u8; 4096];

    store.read_page(page_id(1), &mut page).expect("read root");
    page[6..8].copy_from_slice(&0u16.to_le_bytes());
    reseal(&mut page);
    assert_eq!(
        NodePage::decode(&page),
        Err(PageError::UnsupportedLayout(0))
    );
    assert_eq!(
        NodeSoA::decode(&page).unwrap_err(),
        PageError::UnsupportedLayout(0)
    );
    store.write_page(page_id(1), &page).expect("write root");
    let mut flagged = DiskRTree::open(&mut store, 16, LruPolicy::new()).expect("meta is current");
    let err = flagged.query(&query_stream(1)[0]).unwrap_err();
    assert!(
        err.to_string().contains("layout flag 0"),
        "query must surface the typed layout error, got: {err}"
    );

    store.read_page(page_id(0), &mut page).expect("read meta");
    page[4..8].copy_from_slice(&2u32.to_le_bytes());
    reseal(&mut page);
    store.write_page(page_id(0), &page).expect("write meta");
    let err = DiskRTree::open(store, 16, LruPolicy::new())
        .map(drop)
        .unwrap_err();
    assert!(
        err.to_string().contains("unsupported format version 2"),
        "open must surface the typed version error, got: {err}"
    );
}
