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
//!   rectangle on a leaf, inverted codes on a Packed internal page. The
//!   walks read pages in place and validate inside the scan, so the visit
//!   must fail on the first (page-in) *and* on every later (resident-hit)
//!   visit — nothing is validated once and trusted afterwards.

use rtree_buffer::{LruPolicy, PageId};
use rtree_geom::{Point, Rect};
use rtree_index::BulkLoader;
use rtree_pager::{
    ConcurrentDiskRTree, DiskRTree, MemStore, NodePage, PageLayout, PageMeta, PageStore, PAGE_SIZE,
};
use rtree_wal::{GroupWal, MemLog};
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
            .encode(&mut buf),
        }
        store.write_page(PageId(id), &buf).unwrap();
    }
    store
}

#[test]
fn depth_first_walk_refuses_a_pointer_cycle() {
    let got = within_timeout("query", || {
        let mut tree = DiskRTree::open(cyclic_image(), 8, LruPolicy::new()).unwrap();
        let region = tree.query(&Rect::new(0.2, 0.2, 0.4, 0.4));
        (region, tree.query_point(&Point::new(0.5, 0.5)))
    });
    assert_invalid_data("query", got.0);
    assert_invalid_data("query_point", got.1);
    let got = within_timeout("concurrent query", || {
        let tree = ConcurrentDiskRTree::open(cyclic_image(), 8, LruPolicy::new()).unwrap();
        tree.query(&Rect::new(0.2, 0.2, 0.4, 0.4))
    });
    assert_invalid_data("concurrent query", got);
}

#[test]
fn frontier_walk_refuses_a_pointer_cycle() {
    let queries = [Rect::new(0.2, 0.2, 0.4, 0.4), Rect::new(0.6, 0.1, 0.7, 0.9)];
    let got = within_timeout("query_batch", move || {
        let mut tree = DiskRTree::open(cyclic_image(), 8, LruPolicy::new()).unwrap();
        tree.query_batch(&queries, 2).map(|out| out.results)
    });
    assert_invalid_data("query_batch", got);
    let got = within_timeout("concurrent query_batch", move || {
        let tree = ConcurrentDiskRTree::open(cyclic_image(), 8, LruPolicy::new()).unwrap();
        tree.query_batch(&queries, 1)
    });
    assert_invalid_data("concurrent query_batch", got);
}

#[test]
fn best_first_walk_refuses_a_pointer_cycle() {
    let got = within_timeout("nearest_neighbors", || {
        let mut tree = DiskRTree::open(cyclic_image(), 8, LruPolicy::new()).unwrap();
        tree.nearest_neighbors(&Point::new(0.5, 0.5), 3)
    });
    assert_invalid_data("nearest_neighbors", got);
    let got = within_timeout("concurrent nearest_neighbors", || {
        let tree = ConcurrentDiskRTree::open(cyclic_image(), 8, LruPolicy::new()).unwrap();
        tree.nearest_neighbors(&Point::new(0.5, 0.5), 3)
    });
    assert_invalid_data("concurrent nearest_neighbors", got);
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

/// A 2 000-item compressed image (Packed root over SoA leaves) as bytes.
fn sound_image() -> Vec<u8> {
    let rects: Vec<Rect> = (0..2_000)
        .map(|i| {
            let x = (i as f64 * 0.618_033) % 0.97;
            let y = (i as f64 * 0.414_213) % 0.97;
            Rect::new(x, y, x + 0.01, y + 0.01)
        })
        .collect();
    let tree = BulkLoader::hilbert(50).load(&rects);
    DiskRTree::create_compressed(MemStore::new(), &tree, 64, LruPolicy::new())
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
            t.query_batch(&[*q, *q], 2).map(|o| o.results.len())
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
    let meta = PageMeta::decode(&image[..PAGE_SIZE]).unwrap();
    // The leaf under the query point, so even the point walk meets it.
    let centre = Point::new(0.5, 0.5);
    let leaf = (meta.level_starts[1]..=meta.nodes)
        .find(|&id| {
            let page = &image[id as usize * PAGE_SIZE..][..PAGE_SIZE];
            let node = NodePage::decode(page).unwrap();
            node.level == 0 && node.entries.iter().any(|(r, _)| r.contains_point(&centre))
        })
        .expect("some leaf entry covers the centre") as usize;
    // The sound entry beside the planted one: deleting it reads the leaf.
    let kept = NodePage::decode(&image[leaf * PAGE_SIZE..][..PAGE_SIZE])
        .unwrap()
        .entries[0];
    // SoA planes: lo.x[0] at byte 16, hi.x[0] at 16 + 2·816.
    let (lo_x, hi_x) = (16usize, 16 + 2 * 816);
    type Patch = fn(&mut [u8], usize, usize);
    let patches: [(&str, Patch); 2] = [
        ("inverted rect", |page, lo, hi| {
            for i in 0..8 {
                page.swap(lo + i, hi + i);
            }
        }),
        ("non-finite rect", |page, _, hi| {
            page[hi..hi + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
        }),
    ];
    for (what, patch) in patches {
        let mut image = image.clone();
        let page = &mut image[leaf * PAGE_SIZE..][..PAGE_SIZE];
        // Slot 1, so the planted entry is not the one the probe found.
        patch(page, lo_x + 8, hi_x + 8);
        reseal(page);
        assert!(NodePage::decode(page).is_err(), "{what} must not decode");
        assert_delete_fails_every_time(what, &image, kept);
        assert_every_walk_fails_every_time(what, image);
    }
}

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
    assert_every_walk_fails_every_time("inverted codes", image);
}
