//! CRC-valid images that are nevertheless wrong, under the real trees.
//!
//! The checksum only vouches that a page is what was written; a crafted (or
//! buggy) writer can seal anything. Two families are pinned here, each
//! through every walk — depth-first `query` / `query_point`,
//! level-synchronous `query_batch`, best-first `nearest_neighbors` — and
//! through the writes, whose loads and FindLeaf read pages the same way:
//!
//! * **Pointer cycles.** Two pages that both claim level 1 and point at each
//!   other. A walk must believe the level it *descended to*, not the level a
//!   page claims, or it never reaches a leaf: every walk, insert and delete
//!   has to fail with `InvalidData` (a typed level mismatch), not hang.
//! * **Corrupt entries behind a valid CRC.** An inverted or non-finite
//!   rectangle on a leaf, a non-finite coordinate on a point leaf, inverted
//!   codes on a Packed internal page. The
//!   walks read pages in place and validate inside the scan, so the visit
//!   must fail on the first (page-in) *and* on every later (resident-hit)
//!   visit — nothing is validated once and trusted afterwards.
//!
//! The walks keep their working vectors between calls on a thread, so a
//! walk that fails part-way (a corrupt leaf, a read fault) is followed by
//! good ones that must still return exactly the oracle's answer.

use rtree_buffer::{LruPolicy, PageId};
use rtree_geom::{Point, Rect};
use rtree_index::{BulkLoader, RTree};
use rtree_pager::{
    ConcurrentDiskRTree, DiskRTree, FaultStore, MemStore, NodePage, PageError, PageLayout,
    PageMeta, PageStore, PageView, PAGE_SIZE,
};
use rtree_wal::{CrashSwitch, GroupWal, MemLog};
use std::io;
use std::sync::mpsc;
use std::time::Duration;

/// Runs `walk` on its own thread and fails the test if it does not come
/// back: a walk caught in a pointer cycle never would.
fn within_timeout<T: Send + 'static>(what: &str, walk: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(walk()));
    rx.recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|_| panic!("{what} did not terminate on a cyclic image"))
}

fn assert_invalid_data<T: std::fmt::Debug>(what: &str, got: io::Result<T>) {
    let err = got.expect_err(what);
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
}

/// A height-2 image whose root (page 1, level 1) points at page 2, which
/// also claims level 1 and points back at the root. Every page is sealed.
fn cyclic_image() -> MemStore {
    let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
    let mut store = MemStore::new();
    let mut buf = vec![0u8; PAGE_SIZE];
    let meta = PageMeta {
        root: 1,
        height: 2,
        max_entries: 4,
        min_entries: 2,
        items: 8,
        nodes: 2,
        free_head: 0,
        level_starts: vec![1, 2],
        internal_max_entries: 4,
        compressed: false,
    };
    for id in 0..3u64 {
        assert_eq!(store.allocate().unwrap(), PageId(id));
        match id {
            0 => meta.encode(&mut buf),
            _ => NodePage {
                level: 1,
                entries: vec![(everything, 3 - id)],
            }
            .encode_with(&mut buf, PageLayout::Soa),
        }
        store.write_page(PageId(id), &buf).unwrap();
    }
    store
}

#[test]
fn depth_first_walk_refuses_a_pointer_cycle() {
    let got = within_timeout("query", || {
        let tree = DiskRTree::open(cyclic_image(), 8, LruPolicy::new()).unwrap();
        let region = tree.query(&Rect::new(0.2, 0.2, 0.4, 0.4));
        (region, tree.query_point(&Point::new(0.5, 0.5)))
    });
    assert_invalid_data("query", got.0);
    assert_invalid_data("query_point", got.1);
}

#[test]
fn frontier_walk_refuses_a_pointer_cycle() {
    let queries = [Rect::new(0.2, 0.2, 0.4, 0.4), Rect::new(0.6, 0.1, 0.7, 0.9)];
    let got = within_timeout("query_batch", move || {
        let tree = DiskRTree::open(cyclic_image(), 8, LruPolicy::new()).unwrap();
        tree.query_batch(&queries, 1).map(|out| out.results)
    });
    assert_invalid_data("query_batch", got);
}

#[test]
fn best_first_walk_refuses_a_pointer_cycle() {
    let got = within_timeout("nearest_neighbors", || {
        let tree = DiskRTree::open(cyclic_image(), 8, LruPolicy::new()).unwrap();
        tree.nearest_neighbors(&Point::new(0.5, 0.5), 3)
    });
    assert_invalid_data("nearest_neighbors", got);
}

/// A writable concurrent tree over `store`, with a fresh log.
fn writable(store: MemStore) -> ConcurrentDiskRTree<MemStore> {
    let wal = GroupWal::open(MemLog::new()).unwrap();
    ConcurrentDiskRTree::open_writable(store, 256, LruPolicy::new(), wal).unwrap()
}

#[test]
fn writes_refuse_a_pointer_cycle() {
    let r = Rect::new(0.2, 0.2, 0.3, 0.3);
    let sequential = || DiskRTree::open(cyclic_image(), 8, LruPolicy::new()).unwrap();
    let got = within_timeout("insert", move || sequential().insert(r, 9));
    assert_invalid_data("insert", got);
    let got = within_timeout("delete", move || sequential().delete(&r, 9));
    assert_invalid_data("delete", got);
    let got = within_timeout("concurrent insert", move || {
        writable(cyclic_image()).insert(&r, 9)
    });
    assert_invalid_data("concurrent insert", got);
    let got = within_timeout("concurrent delete", move || {
        writable(cyclic_image()).delete(&r, 9)
    });
    assert_invalid_data("concurrent delete", got);
}

/// Deleting `(rect, item)` from `image` must fail with `InvalidData` on
/// both trees, cold and — the corrupt frame now resident — warm.
fn assert_delete_fails_every_time(what: &str, image: &[u8], (rect, item): (Rect, u64)) {
    /// `delete` answers with its outcome and the tree's physical reads.
    fn twice(what: String, mut delete: impl FnMut() -> (io::Result<bool>, u64)) {
        let (got, reads) = delete();
        assert_invalid_data(&format!("cold {what}"), got);
        let (got, again) = delete();
        assert_invalid_data(&format!("warm {what}"), got);
        assert_eq!(
            again, reads,
            "the warm {what} met the corrupt page resident"
        );
    }
    let store = || MemStore::from_bytes(image.to_vec());
    let mut tree = DiskRTree::open(store(), 256, LruPolicy::new()).unwrap();
    twice(format!("{what}: delete"), || {
        (tree.delete(&rect, item), tree.physical_reads())
    });
    let tree = writable(store());
    twice(format!("{what}: concurrent delete"), || {
        (tree.delete(&rect, item), tree.physical_reads())
    });
}

/// The in-memory tree of [`sound_image`]: 2 000 small rectangles.
fn sound_tree() -> RTree {
    let rects: Vec<Rect> = (0..2_000)
        .map(|i| {
            let x = (i as f64 * 0.618_033) % 0.97;
            let y = (i as f64 * 0.414_213) % 0.97;
            Rect::new(x, y, x + 0.01, y + 0.01)
        })
        .collect();
    BulkLoader::hilbert(50).load(&rects)
}

/// A 2 000-item compressed image (Packed root over SoA leaves) as bytes.
fn sound_image() -> Vec<u8> {
    DiskRTree::create_compressed(MemStore::new(), &sound_tree(), 64, LruPolicy::new())
        .unwrap()
        .into_store()
        .snapshot()
}

/// Re-seals a page's CRC-32 (bytes 8..12, computed with the field zeroed).
fn reseal(page: &mut [u8]) {
    page[8..12].fill(0);
    let crc = rtree_wal::crc32::checksum(page);
    page[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// Every walk over `image` must fail with `InvalidData`, cold and — the
/// corrupt frame now resident, so no further read — warm.
fn assert_every_walk_fails_every_time(what: &str, image: Vec<u8>) {
    let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
    let centre = Point::new(0.5, 0.5);
    type Walk = fn(&mut DiskRTree<MemStore>, &Rect, &Point) -> io::Result<usize>;
    let walks: [(&str, Walk); 4] = [
        ("query", |t, q, _| t.query(q).map(|r| r.len())),
        ("query_point", |t, _, p| t.query_point(p).map(|r| r.len())),
        ("query_batch", |t, q, _| {
            t.query_batch(&[*q, *q], 1).map(|o| o.results.len())
        }),
        ("nearest_neighbors", |t, _, p| {
            t.nearest_neighbors(p, 5_000).map(|r| r.len())
        }),
    ];
    for (name, walk) in walks {
        let store = MemStore::from_bytes(image.clone());
        let mut tree = DiskRTree::open(store, 256, LruPolicy::new()).unwrap();
        assert_invalid_data(
            &format!("{what}: cold {name}"),
            walk(&mut tree, &everything, &centre),
        );
        let reads = tree.physical_reads();
        assert_invalid_data(
            &format!("{what}: warm {name}"),
            walk(&mut tree, &everything, &centre),
        );
        assert_eq!(
            tree.physical_reads(),
            reads,
            "{what}: the warm {name} met the corrupt page as a resident hit"
        );
    }
}

#[test]
fn corrupt_leaf_entry_fails_every_walk_on_every_visit() {
    let image = sound_image();
    // The leaf under the query point, so even the point walk meets it.
    let leaf = centre_leaf(&image);
    // The sound entry beside the planted one: deleting it reads the leaf.
    let kept = NodePage::decode(&image[leaf * PAGE_SIZE..][..PAGE_SIZE])
        .unwrap()
        .entries[0];
    for (what, patch) in SOA_PATCHES {
        let mut image = image.clone();
        let page = &mut image[leaf * PAGE_SIZE..][..PAGE_SIZE];
        // Slot 1, so the planted entry is not the one the probe found.
        patch(page, SOA_LO_X + 8, SOA_HI_X + 8);
        reseal(page);
        assert!(NodePage::decode(page).is_err(), "{what} must not decode");
        assert_delete_fails_every_time(what, &image, kept);
        assert_every_walk_fails_every_time(what, image);
    }
}

/// SoA planes: lo.x[0] at byte 16, hi.x[0] at 16 + 2·816.
const SOA_LO_X: usize = 16;
const SOA_HI_X: usize = 16 + 2 * 816;

/// Corruptions of one SoA entry, given the offsets of its lo.x and hi.x.
type Patch = fn(&mut [u8], usize, usize);
const SOA_PATCHES: [(&str, Patch); 2] = [
    ("inverted rect", |page, lo, hi| {
        for i in 0..8 {
            page.swap(lo + i, hi + i);
        }
    }),
    ("non-finite rect", |page, _, hi| {
        page[hi..hi + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
    }),
];

#[test]
fn inverted_codes_on_a_packed_page_fail_every_walk_on_every_visit() {
    let mut image = sound_image();
    let root = &mut image[PAGE_SIZE..2 * PAGE_SIZE];
    assert_eq!(PageLayout::of(root).unwrap(), PageLayout::Packed);
    // Packed planes: lo.x codes at byte 48, hi.x codes at 48 + 2·506; give
    // entry 2 a low code above its high code.
    let (lo, hi) = (48 + 2 * 2, 48 + 2 * 506 + 2 * 2);
    root[lo..lo + 2].copy_from_slice(&900u16.to_le_bytes());
    root[hi..hi + 2].copy_from_slice(&100u16.to_le_bytes());
    reseal(root);
    assert!(NodePage::decode(root).is_err());
    // The peek keeps the refused root: later queries fail without reading it again.
    let store = MemStore::from_bytes(image.clone());
    let tree = DiskRTree::open(store, 256, LruPolicy::new()).unwrap();
    for _ in 0..3 {
        let err = tree.query(&Rect::new(0.0, 0.0, 1.0, 1.0));
        assert_invalid_data("inverted codes: peek", err);
    }
    assert_eq!(tree.io_stats().peek_reads, 1, "the root is read once");
    assert_every_walk_fails_every_time("inverted codes", image);
}

/// A 2 001-point compressed image, the centre among the points: a Packed
/// root over point-body leaves.
fn point_image() -> Vec<u8> {
    let points: Vec<Rect> = (0..2_000)
        .map(|i| {
            let (x, y) = ((i as f64 * 0.618_033) % 0.97, (i as f64 * 0.414_213) % 0.97);
            Rect::point(Point::new(x, y))
        })
        .chain([Rect::point(Point::new(0.5, 0.5))])
        .collect();
    let tree = BulkLoader::hilbert(100).load(&points);
    DiskRTree::create_compressed(MemStore::new(), &tree, 64, LruPolicy::new())
        .unwrap()
        .into_store()
        .snapshot()
}

/// The first leaf of `image` with an entry covering the centre, so even the
/// point walk meets it.
fn centre_leaf(image: &[u8]) -> usize {
    let meta = PageMeta::decode(&image[..PAGE_SIZE]).unwrap();
    let centre = Point::new(0.5, 0.5);
    (meta.level_starts[1]..=meta.nodes)
        .find(|&id| {
            let page = &image[id as usize * PAGE_SIZE..][..PAGE_SIZE];
            let node = NodePage::decode(page).unwrap();
            node.level == 0 && node.entries.iter().any(|(r, _)| r.contains_point(&centre))
        })
        .expect("a leaf covers the centre") as usize
}

/// Point leaves are read through the SoA kernels: a NaN or infinite
/// coordinate is `CorruptRect` under every kernel, from every scan the view
/// offers and from both decoders, and fails every walk on every visit; a
/// count above the body's 203 slots is `EntryOverflow`.
#[test]
fn corrupt_point_leaf_fails_under_every_kernel() {
    let image = point_image();
    let leaf = centre_leaf(&image);
    let sound = &image[leaf * PAGE_SIZE..][..PAGE_SIZE];
    assert_eq!(PageLayout::of(sound).unwrap(), PageLayout::Points);
    let kept = NodePage::decode(sound).unwrap().entries[0];
    // Point planes: x[0] at byte 24, y[0] at 24 + 1624; slot 1 is planted.
    for (what, at, bad) in [
        ("NaN x", 24 + 8, f64::NAN),
        ("+inf y", 24 + 1624 + 8, f64::INFINITY),
        ("-inf y", 24 + 1624 + 8, f64::NEG_INFINITY),
    ] {
        let mut image = image.clone();
        let page = &mut image[leaf * PAGE_SIZE..][..PAGE_SIZE];
        page[at..at + 8].copy_from_slice(&bad.to_le_bytes());
        reseal(page);
        let corrupt = Err(PageError::CorruptRect);
        assert_eq!(NodePage::decode(page).map(drop), corrupt, "{what}");
        let dispatched = rtree_geom::active_kernel();
        for kernel in rtree_geom::available_kernels() {
            rtree_geom::set_kernel(kernel).unwrap();
            let view = PageView::new(page, 0).expect("the header is sound");
            let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
            assert_eq!(view.intersecting(&everything, &mut Vec::new()), corrupt);
            let p = Point::new(0.5, 0.5);
            assert_eq!(view.min_dist2_within(&p, 1.0, &mut Vec::new()), corrupt);
            assert_eq!(
                view.mbr(),
                Err(PageError::CorruptRect),
                "{what}, {kernel:?}"
            );
        }
        rtree_geom::set_kernel(dispatched).unwrap();
        assert_delete_fails_every_time(what, &image, kept);
        assert_every_walk_fails_every_time(what, image);
    }
    let mut page = sound.to_vec();
    page[4..6].copy_from_slice(&204u16.to_le_bytes());
    reseal(&mut page);
    let overflow = Err(PageError::EntryOverflow(204));
    assert_eq!(NodePage::decode(&page).map(drop), overflow);
    assert_eq!(PageView::new(&page, 0).map(drop), overflow);
}

/// Layout flag 3, the retired point body with 8-byte ids, is an unknown
/// layout: a sealed leaf carrying it is `UnsupportedLayout(3)` to the
/// decoder and the view, and fails every walk and write on every visit.
/// (`tests/adapters.rs` shows the adapter refuses it too.)
#[test]
fn a_retired_flag_3_leaf_is_an_unsupported_layout() {
    let mut image = point_image();
    let leaf = centre_leaf(&image);
    let kept = NodePage::decode(&image[leaf * PAGE_SIZE..][..PAGE_SIZE])
        .unwrap()
        .entries[0];
    let page = &mut image[leaf * PAGE_SIZE..][..PAGE_SIZE];
    page[6..8].copy_from_slice(&3u16.to_le_bytes());
    reseal(page);
    let retired = PageError::UnsupportedLayout(3);
    assert_eq!(NodePage::decode(page), Err(retired.clone()));
    assert_eq!(PageView::new(page, 0).err(), Some(retired.clone()));
    assert_eq!(PageLayout::of(page), Err(retired));
    assert_delete_fails_every_time("flag 3", &image, kept);
    assert_every_walk_fails_every_time("flag 3", image);
}

/// Every walk, run on this thread over fresh trees of the sound image, gives
/// exactly the oracle's answer: nothing a failed walk left in the thread's
/// scratch reaches it.
fn assert_good_walks_after(what: &str, image: &[u8], oracle: &RTree) {
    let open = || DiskRTree::open(MemStore::from_bytes(image.to_vec()), 256, LruPolicy::new());
    let sorted = |mut ids: Vec<u64>| {
        ids.sort_unstable();
        ids
    };
    let (q, r) = (Rect::new(0.3, 0.3, 0.6, 0.6), Rect::new(0.7, 0.1, 0.8, 0.5));
    let centre = Point::new(0.5, 0.5);
    let tree = open().unwrap();
    assert_eq!(
        sorted(tree.query(&q).unwrap()),
        sorted(oracle.search(&q)),
        "{what}: query"
    );
    let got = tree.query_point(&centre).unwrap();
    assert_eq!(
        sorted(got),
        sorted(oracle.point_search(&centre)),
        "{what}: query_point"
    );
    let batch = tree.query_batch(&[q, r], 1).unwrap().results;
    let batch: Vec<Vec<u64>> = batch.into_iter().map(sorted).collect();
    let want = [oracle.search(&q), oracle.search(&r)].map(sorted);
    assert_eq!(batch, want, "{what}: query_batch");
    let near = |n: Vec<rtree_index::Neighbor>| n.iter().map(|n| n.distance).collect::<Vec<_>>();
    let got = near(tree.nearest_neighbors(&centre, 10).unwrap());
    assert_eq!(
        got,
        near(oracle.nearest_neighbors(&centre, 10)),
        "{what}: nearest"
    );
    // FindLeaf: the delete finds its entry, and only that entry goes.
    let (rect, item) = oracle.items().find(|e| e.0.intersects(&q)).unwrap();
    let mut tree = open().unwrap();
    assert!(
        tree.delete(&rect, item).unwrap(),
        "{what}: delete found nothing"
    );
    let mut want = sorted(oracle.search(&q));
    want.retain(|&id| id != item);
    assert_eq!(
        sorted(tree.query(&q).unwrap()),
        want,
        "{what}: after delete"
    );
}

/// One walk over `tree`: the region, batch and kNN walks over everything,
/// and a delete of `kept` (FindLeaf).
fn walk<S: PageStore>(name: &str, tree: &mut DiskRTree<S>, kept: (Rect, u64)) -> io::Result<()> {
    let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
    match name {
        "query" => tree.query(&everything).map(drop),
        "query_batch" => tree.query_batch(&[everything, kept.0], 1).map(drop),
        "nearest_neighbors" => tree
            .nearest_neighbors(&Point::new(0.5, 0.5), 5_000)
            .map(drop),
        _ => tree.delete(&kept.0, kept.1).map(drop),
    }
}

#[test]
fn a_walk_that_fails_part_way_leaves_no_scratch_behind() {
    let (oracle, image) = (sound_tree(), sound_image());
    let leaf = centre_leaf(&image);
    let kept = NodePage::decode(&image[leaf * PAGE_SIZE..][..PAGE_SIZE])
        .unwrap()
        .entries[0];
    let mut corrupt = image.clone();
    let page = &mut corrupt[leaf * PAGE_SIZE..][..PAGE_SIZE];
    let (what, invert) = SOA_PATCHES[0];
    invert(page, SOA_LO_X + 8, SOA_HI_X + 8);
    reseal(page);
    for name in ["query", "query_batch", "nearest_neighbors", "delete"] {
        // A corrupt leaf: the walk has read the pages before it.
        let store = MemStore::from_bytes(corrupt.clone());
        let mut tree = DiskRTree::open(store, 256, LruPolicy::new()).unwrap();
        assert_invalid_data(&format!("{what}: {name}"), walk(name, &mut tree, kept));
        assert_good_walks_after(&format!("{name} after {what}"), &image, &oracle);
        // A read fault at every read the walk makes in turn, the last ones
        // deep inside it (the first is the open's meta page).
        let mut faults = 0;
        for n in 2.. {
            let store = MemStore::from_bytes(image.clone());
            let store = FaultStore::new(store, CrashSwitch::new()).fail_read_at(n);
            let mut tree = DiskRTree::open(store, 256, LruPolicy::new()).unwrap();
            if walk(name, &mut tree, kept).is_ok() {
                break;
            }
            faults += 1;
            assert_good_walks_after(&format!("{name} after read fault {n}"), &image, &oracle);
        }
        assert!(faults >= 3, "{name}: only {faults} reads to fail");
    }
}
