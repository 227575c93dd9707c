//! The library reaches a page store only through its `&self` I/O. A
//! wrapper shaped like the `rtree-perf` benchmark's timing store — it
//! implements all three store traits, `PageStore`'s `&mut` methods
//! included — counts the calls to those `&mut` methods while a tree is
//! created, reopened, queried, written and checkpointed, then crashes and
//! is recovered, opened writable and replayed. None may happen, and every
//! answer must equal the same session's over a bare `MemStore`.

use rtree_buffer::{LruPolicy, PageId};
use rtree_geom::Rect;
use rtree_index::BulkLoader;
use rtree_pager::{
    recover, replay_committed, ConcurrentDiskRTree, ConcurrentPageStore, DiskRTree, MemStore,
    PageStore, SharedPageStore,
};
use rtree_wal::{GroupWal, LogBackend, MemLog};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `inner`, with every call to a `&mut` store method counted.
struct Counted<S> {
    inner: S,
    exclusive: Arc<AtomicU64>,
}

impl<S> Counted<S> {
    fn note(&self) {
        self.exclusive.fetch_add(1, Ordering::Relaxed);
    }
}

impl<S: PageStore> PageStore for Counted<S> {
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.note();
        self.inner.read_page(id, buf)
    }
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> io::Result<()> {
        self.note();
        self.inner.write_page(id, buf)
    }
    fn allocate(&mut self) -> io::Result<PageId> {
        self.note();
        self.inner.allocate()
    }
    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
    fn flush(&mut self) -> io::Result<()> {
        self.note();
        self.inner.flush()
    }
}

impl<S: SharedPageStore> SharedPageStore for Counted<S> {
    fn read_page_shared(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_page_shared(id, buf)
    }
}

impl<S: ConcurrentPageStore> ConcurrentPageStore for Counted<S> {
    fn write_page_shared(&self, id: PageId, buf: &[u8]) -> io::Result<()> {
        self.inner.write_page_shared(id, buf)
    }
    fn allocate_shared(&self) -> io::Result<PageId> {
        self.inner.allocate_shared()
    }
    fn flush_shared(&self) -> io::Result<()> {
        self.inner.flush_shared()
    }
}

fn square(i: u64, side: f64) -> Rect {
    let (x, y) = ((i as f64 * 0.618_034) % 0.97, (i as f64 * 0.414_214) % 0.97);
    Rect::new(x, y, x + side, y + side)
}

/// The answers of one session over `store`: query results, replay counts
/// and physical reads, in order.
fn session<S: PageStore>(store: S) -> Vec<Vec<u64>> {
    let mut queries: Vec<Rect> = (0..6).map(|i| square(i * 97, 0.2)).collect();
    queries.push(Rect::new(0.0, 0.0, 1.0, 1.0));
    let ask = |tree: &ConcurrentDiskRTree<S>| -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = (queries.iter())
            .map(|q| {
                let mut hits = tree.query(q).unwrap();
                hits.sort_unstable();
                hits
            })
            .collect();
        out.push(vec![tree.physical_reads()]);
        out
    };

    let rects: Vec<Rect> = (0..1_500).map(|i| square(i, 0.01)).collect();
    let tree = BulkLoader::hilbert(16).load(&rects);
    let disk = DiskRTree::create(store, &tree, 24, LruPolicy::new()).unwrap();
    let mut disk = DiskRTree::open(disk.into_store(), 24, LruPolicy::new()).unwrap();
    let mut answers = ask(&disk);

    // Writes before the checkpoint land in the image; those after it only
    // in the log, for the replay.
    let log = MemLog::new();
    disk.attach_wal(GroupWal::open(log.clone()).unwrap());
    for id in 5_000..5_060 {
        disk.insert(square(id, 0.02), id).unwrap();
    }
    disk.checkpoint().unwrap();
    for id in 6_000..6_040 {
        disk.insert(square(id, 0.02), id).unwrap();
    }
    answers.extend(ask(&disk));

    // Crash: the overlay is lost; the store and the log survive.
    let store = disk.into_store();
    let bytes = log.read_all().unwrap();
    recover(&store, &bytes).unwrap();
    let wal = GroupWal::open(MemLog::new()).unwrap();
    let tree = ConcurrentDiskRTree::open_writable(store, 24, LruPolicy::new(), wal).unwrap();
    let replayed = replay_committed(&bytes, &tree).unwrap();
    answers.push(vec![replayed.applied_inserts]);
    answers.extend(ask(&tree));
    answers
}

#[test]
fn the_library_calls_only_shared_store_io() {
    let exclusive = Arc::new(AtomicU64::new(0));
    let counted = session(Counted {
        inner: MemStore::new(),
        exclusive: Arc::clone(&exclusive),
    });
    assert_eq!(
        exclusive.load(Ordering::Relaxed),
        0,
        "the library called a `&mut` store method"
    );
    let bare = session(MemStore::new());
    assert_eq!(counted, bare);
    // The last answers: the replay's count, then the recovered tree's.
    assert_eq!(
        bare[bare.len() - 9],
        [40],
        "the post-checkpoint inserts replay"
    );
    assert_eq!(bare[bare.len() - 2].len(), 1_600, "every item survives");
}
