//! Crash-recovery property tests: a random insert/delete workload runs
//! against a WAL-attached [`DiskRTree`] over a fault-injecting store (or a
//! fault-injecting log), crashes at an arbitrary point, and is recovered
//! from the surviving log + store the one way every tree restarts:
//! `recover`, a writable open, `replay_committed`. The recovered tree must
//! answer every query exactly like an in-memory reference tree that
//! applied only the committed operations — across LRU, Clock and FIFO
//! replacement, with and without torn writes. The writable
//! [`ConcurrentDiskRTree`] gets the same treatment for a crash inside its
//! checkpoint.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_buffer::{ClockPolicy, FifoPolicy, LruPolicy, ReplacementPolicy};
use rtree_geom::Rect;
use rtree_index::{BulkLoader, RTreeBuilder};
use rtree_pager::{
    recover, replay_committed, ConcurrentDiskRTree, DiskRTree, FaultStore, MemStore, PageStore,
};
use rtree_wal::{CrashSwitch, FaultLog, GroupWal, LogBackend, MemLog, WalRecord};
use std::io;
use std::time::Duration;

/// Node capacity (Guttman's `M`) for the workload trees.
const MAX: usize = 8;
/// Minimum fill (`m`).
const MIN: usize = 3;
/// Buffer frames: far fewer than the tree's pages, so reads miss
/// constantly.
const FRAMES: usize = 8;
/// Operations per workload.
const OPS: usize = 1000;

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Runs the workload until it finishes or the injected fault fires — it
/// must have, by the end, when `switch` is given — then simulates the
/// reboot: buffered state is discarded, the store is recovered from the
/// log, opened writable and the log's committed ops replayed, and the
/// recovered tree is swept against the reference.
fn drive<S: PageStore>(
    mut disk: DiskRTree<S>,
    log: MemLog,
    seed: u64,
    extract: impl FnOnce(S) -> MemStore,
    switch: &CrashSwitch,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reference = RTreeBuilder::new(MAX).min_entries(MIN).build();
    let mut live: Vec<(Rect, u64)> = Vec::new();
    let mut next_id = 0u64;

    for op in 0..OPS {
        let result = if !live.is_empty() && rng.gen_bool(0.4) {
            let k = rng.gen_range(0..live.len());
            let (rect, id) = live[k];
            match disk.delete(&rect, id) {
                Ok(found) => {
                    assert!(found, "live entry {id} must be on disk");
                    live.swap_remove(k);
                    assert!(reference.delete(&rect, id));
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else {
            let x = rng.gen_range(0.0..0.9);
            let y = rng.gen_range(0.0..0.9);
            let w = rng.gen_range(0.001..0.08);
            let h = rng.gen_range(0.001..0.08);
            let rect = Rect::new(x, y, x + w, y + h);
            let id = next_id;
            next_id += 1;
            match disk.insert(rect, id) {
                Ok(()) => {
                    live.push((rect, id));
                    reference.insert(rect, id);
                    Ok(())
                }
                Err(e) => Err(e),
            }
        };
        // The reference applied the op only if the disk committed it; the
        // first injected fault aborts the run mid-operation.
        if result.is_err() {
            break;
        }
        // Periodic checkpoints exercise log truncation; a checkpoint can
        // crash too (mid-flush), which must also recover.
        if op % 193 == 192 && disk.checkpoint().is_err() {
            break;
        }
    }

    assert!(switch.is_tripped(), "the injected fault never fired");

    // Reboot: drop all buffered state (the overlay included) and restart.
    let store = extract(disk.into_store());
    let log = log.read_all().unwrap();
    recover(&store, &log).unwrap();
    let wal = GroupWal::open(MemLog::new()).unwrap();
    let recovered = ConcurrentDiskRTree::open_writable(store, 64, LruPolicy::new(), wal).unwrap();
    replay_committed(&log, &recovered).unwrap();

    assert_eq!(
        recovered.live_items(),
        reference.len() as u64,
        "recovered item count must match committed operations"
    );
    let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
    assert_eq!(
        sorted(recovered.query(&everything).unwrap()),
        sorted(reference.search(&everything)),
        "full sweep must match the reference"
    );
    for _ in 0..8 {
        let x = rng.gen_range(0.0..0.8);
        let y = rng.gen_range(0.0..0.8);
        let q = Rect::new(
            x,
            y,
            x + rng.gen_range(0.01..0.3),
            y + rng.gen_range(0.01..0.3),
        );
        assert_eq!(
            sorted(recovered.query(&q).unwrap()),
            sorted(reference.search(&q)),
            "region query {q} must match the reference"
        );
    }
}

/// Crash on the `at`-th physical page write (optionally tearing it).
fn run_store_crash(seed: u64, at: u64, torn: bool, policy: impl ReplacementPolicy + 'static) {
    let (log, switch) = (MemLog::new(), CrashSwitch::new());
    let store = FaultStore::new(MemStore::new(), switch.clone()).crash_at_write(at, torn);
    let mut disk = DiskRTree::create_empty(store, MAX, MIN, FRAMES, policy).unwrap();
    disk.attach_wal(GroupWal::open(log.clone()).unwrap());
    drive(disk, log, seed, FaultStore::into_inner, &switch);
}

/// Crash on the `at`-th log append (optionally leaving a torn tail).
fn run_log_crash(seed: u64, at: u64, torn: bool, policy: impl ReplacementPolicy + 'static) {
    let (log, switch) = (MemLog::new(), CrashSwitch::new());
    let backend = FaultLog::new(log.clone(), switch.clone()).crash_at_append(at, torn);
    let mut disk = DiskRTree::create_empty(MemStore::new(), MAX, MIN, FRAMES, policy).unwrap();
    disk.attach_wal(GroupWal::open(backend).unwrap());
    drive(disk, log, seed, |s| s, &switch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The store is written only by the checkpoints (every 193 ops), after
    // the two bootstrap writes of `create_empty`: a run writes ≥ 85 pages
    // in its five checkpoints (the least over 200 seeds), so
    // `at in 3..80` lands inside a checkpoint in every case. The log
    // appends once per commit and twice per checkpoint, 1 010 times over a
    // run, so `at in 1..1000` fires in every case too.

    #[test]
    fn lru_recovers_from_store_crash(seed in any::<u64>(), at in 3u64..80, torn in any::<bool>()) {
        run_store_crash(seed, at, torn, LruPolicy::new());
    }

    #[test]
    fn clock_recovers_from_store_crash(seed in any::<u64>(), at in 3u64..80, torn in any::<bool>()) {
        run_store_crash(seed, at, torn, ClockPolicy::new());
    }

    #[test]
    fn fifo_recovers_from_store_crash(seed in any::<u64>(), at in 3u64..80, torn in any::<bool>()) {
        run_store_crash(seed, at, torn, FifoPolicy::new());
    }

    #[test]
    fn lru_recovers_from_log_crash(seed in any::<u64>(), at in 1u64..1000, torn in any::<bool>()) {
        run_log_crash(seed, at, torn, LruPolicy::new());
    }

    #[test]
    fn clock_recovers_from_log_crash(seed in any::<u64>(), at in 1u64..1000, torn in any::<bool>()) {
        run_log_crash(seed, at, torn, ClockPolicy::new());
    }

    #[test]
    fn fifo_recovers_from_log_crash(seed in any::<u64>(), at in 1u64..1000, torn in any::<bool>()) {
        run_log_crash(seed, at, torn, FifoPolicy::new());
    }
}

/// A read fault (bad sector) surfaces as a typed error, not a panic or
/// silent corruption. The writes start from a bulk-loaded image, whose
/// pages the inserts read from the store.
#[test]
fn transient_read_fault_is_an_error_not_a_panic() {
    let rects: Vec<Rect> = (0..2_000)
        .map(|i| {
            let (x, y) = ((i as f64 * 0.618_033) % 0.9, (i as f64 * 0.414_213) % 0.9);
            Rect::new(x, y, x + 0.01, y + 0.01)
        })
        .collect();
    let bulk = BulkLoader::hilbert(MAX).load(&rects);
    let image = DiskRTree::create(MemStore::new(), &bulk, 4, LruPolicy::new()).unwrap();
    let store = FaultStore::new(image.into_store(), CrashSwitch::new()).fail_read_at(40);
    let mut disk = DiskRTree::open(store, 4, LruPolicy::new()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut failure = None;
    for i in 0..200u64 {
        let x = rng.gen_range(0.0..0.9);
        let y = rng.gen_range(0.0..0.9);
        if let Err(e) = disk.insert(Rect::new(x, y, x + 0.01, y + 0.01), 10_000 + i) {
            failure = Some(e);
            break;
        }
    }
    let err = failure.expect("the injected read fault must surface");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// The checkpoint crash window: `checkpoint` writes the new image in place
/// and only then truncates the log, so a log fault between the two leaves
/// the *new* image under the *old* log. Replaying that log must not apply
/// the inserts the image already holds a second time.
#[test]
fn replay_is_idempotent_across_the_checkpoint_crash_window() {
    const K: u64 = 40;
    let rect_of = |id: u64| {
        let x = (id as f64 * 0.137) % 0.9;
        Rect::new(x, x, x + 0.005, x + 0.005)
    };
    let durable = MemLog::new();
    // One thread: every commit is its own append, the checkpoint's image
    // flush is append K + 1, and its `Checkpoint` record append K + 2.
    let log = FaultLog::new(durable.clone(), CrashSwitch::new()).crash_at_append(K + 2, false);
    let tree = ConcurrentDiskRTree::create_writable(
        MemStore::new(),
        MAX,
        MIN,
        FRAMES,
        LruPolicy::new(),
        GroupWal::open(log).unwrap(),
    )
    .unwrap();
    for id in 0..K {
        tree.insert(&rect_of(id), id).unwrap();
    }
    tree.checkpoint()
        .expect_err("the log dies under the checkpoint record");

    let recovered = ConcurrentDiskRTree::open_writable(
        MemStore::from_bytes(tree.store().snapshot()),
        FRAMES,
        LruPolicy::new(),
        GroupWal::open(MemLog::new()).unwrap(),
    )
    .unwrap();
    assert_eq!(recovered.live_items(), K, "the image was flushed whole");
    replay_committed(&durable.read_all().unwrap(), &recovered).unwrap();
    assert_eq!(recovered.live_items(), K);
    let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
    assert_eq!(
        sorted(recovered.query(&everything).unwrap()),
        (0..K).collect::<Vec<u64>>(),
        "every id exactly once"
    );
}

/// `ops` seeded inserts and deletes on a writable concurrent tree; `live`
/// holds every acknowledged entry.
fn mutate<S: PageStore>(
    tree: &ConcurrentDiskRTree<S>,
    rng: &mut StdRng,
    ops: usize,
    live: &mut Vec<(Rect, u64)>,
) {
    for _ in 0..ops {
        if !live.is_empty() && rng.gen_bool(0.4) {
            let (rect, id) = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(tree.delete(&rect, id).unwrap(), "live entry {id}");
        } else {
            let (x, y) = (rng.gen_range(0.0..0.9), rng.gen_range(0.0..0.9));
            let (w, h) = (rng.gen_range(0.001..0.08), rng.gen_range(0.001..0.08));
            let rect = Rect::new(x, y, x + w, y + h);
            let id = rng.gen();
            tree.insert(&rect, id).unwrap();
            live.push((rect, id));
        }
    }
}

/// A writable concurrent tree over `store`, with a fresh log over `log`.
fn writable<S: PageStore, P: ReplacementPolicy + 'static>(
    store: S,
    policy: P,
    log: impl LogBackend + 'static,
) -> io::Result<ConcurrentDiskRTree<S>> {
    ConcurrentDiskRTree::open_writable(store, FRAMES, policy, GroupWal::open(log)?)
}

/// Crash on one of the writes of a concurrent checkpoint. A base image
/// with a few hundred entries is checkpointed cleanly; then a second
/// session mutates it and checkpoints over a store that crashes on write
/// `1 + pick % w` of that checkpoint's `w` (counted by a fault-free dry run
/// of the same session), tearing it when `torn`. Restarting the one way —
/// `recover`, open, `replay_committed` — must give back every
/// acknowledged op, and nothing else.
fn run_checkpoint_crash<P: ReplacementPolicy + 'static>(
    seed: u64,
    pick: u64,
    torn: bool,
    policy: impl Fn() -> P,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live = Vec::new();
    let base = {
        let tree = ConcurrentDiskRTree::create_writable(
            MemStore::new(),
            MAX,
            MIN,
            FRAMES,
            policy(),
            GroupWal::open(MemLog::new()).unwrap(),
        )
        .unwrap();
        mutate(&tree, &mut rng, 300, &mut live);
        tree.checkpoint().unwrap();
        tree.store().snapshot()
    };
    let session = |store, live: &mut Vec<(Rect, u64)>, log: MemLog| {
        let tree = writable(store, policy(), log).unwrap();
        mutate(&tree, &mut rng.clone(), 200, live);
        let result = tree.checkpoint();
        (tree, result)
    };
    let store =
        |base: &[u8]| FaultStore::new(MemStore::from_bytes(base.to_vec()), CrashSwitch::new());
    let (dry, done) = session(store(&base), &mut live.clone(), MemLog::new());
    done.unwrap();
    let writes = dry.io_stats().writes;
    assert!(writes > 2, "the checkpoint wrote {writes} pages");

    let at = 1 + pick % writes;
    let log = MemLog::new();
    let (tree, crashed) = session(
        store(&base).crash_at_write(at, torn),
        &mut live,
        log.clone(),
    );
    crashed.expect_err("the store crashes inside the checkpoint");

    let store = MemStore::from_bytes(tree.store().inner().snapshot());
    let log = log.read_all().unwrap();
    recover(&store, &log).unwrap();
    let recovered = writable(store, policy(), MemLog::new()).unwrap();
    replay_committed(&log, &recovered).unwrap();
    let what = format!("crash on write {at} of {writes}, torn {torn}");
    assert_eq!(recovered.live_items(), live.len() as u64, "{what}");
    let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
    let ids = |q: &Rect| {
        sorted(
            live.iter()
                .filter(|(r, _)| r.intersects(q))
                .map(|e| e.1)
                .collect(),
        )
    };
    assert_eq!(
        sorted(recovered.query(&everything).unwrap()),
        ids(&everything),
        "{what}"
    );
    for _ in 0..8 {
        let (x, y) = (rng.gen_range(0.0..0.8), rng.gen_range(0.0..0.8));
        let q = Rect::new(
            x,
            y,
            x + rng.gen_range(0.01..0.3),
            y + rng.gen_range(0.01..0.3),
        );
        assert_eq!(
            sorted(recovered.query(&q).unwrap()),
            ids(&q),
            "{what}, query {q}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lru_recovers_from_checkpoint_crash(seed in any::<u64>(), pick in any::<u64>(), torn in any::<bool>()) {
        run_checkpoint_crash(seed, pick, torn, LruPolicy::new);
    }

    #[test]
    fn clock_recovers_from_checkpoint_crash(seed in any::<u64>(), pick in any::<u64>(), torn in any::<bool>()) {
        run_checkpoint_crash(seed, pick, torn, ClockPolicy::new);
    }

    #[test]
    fn fifo_recovers_from_checkpoint_crash(seed in any::<u64>(), pick in any::<u64>(), torn in any::<bool>()) {
        run_checkpoint_crash(seed, pick, torn, FifoPolicy::new);
    }
}

/// A log that keeps every record it is given (a checkpoint's truncation is
/// a no-op) and takes its time over each sync, so that writers pile up
/// between logging an op and committing it.
#[derive(Clone, Default)]
struct SlowHistory(MemLog);

impl LogBackend for SlowHistory {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.append(bytes)
    }
    fn sync(&mut self) -> io::Result<()> {
        std::thread::sleep(Duration::from_micros(200));
        Ok(())
    }
    fn read_all(&self) -> io::Result<Vec<u8>> {
        self.0.read_all()
    }
    fn truncate(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn len(&self) -> u64 {
        self.0.len()
    }
}

/// The ordering hazard: a writer logs its op under the shared gate and
/// commits after releasing it. Were its leader's `Commit` to land between
/// two of a checkpoint's page images, `recover` would redo the images
/// before it and undo the ones after, leaving a mixed image. The
/// checkpoint commits every logged op before it stages an image, so no
/// `Commit` ever falls between its first image and its `Checkpoint`.
#[test]
fn no_commit_lands_between_a_checkpoints_images() {
    let history = SlowHistory::default();
    let wal = GroupWal::open(history.clone()).unwrap();
    wal.set_commit_delay(Duration::from_micros(300));
    let tree = ConcurrentDiskRTree::create_writable(
        MemStore::new(),
        MAX,
        MIN,
        FRAMES,
        LruPolicy::new(),
        wal,
    )
    .unwrap();
    let rect_of = |id: u64| {
        let x = (id.wrapping_mul(2_654_435_761) % 9_973) as f64 / 9_973.0 * 0.9;
        let y = (id.wrapping_mul(1_327_217_885) % 9_931) as f64 / 9_931.0 * 0.9;
        Rect::new(x, y, x + 0.01, y + 0.01)
    };
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let tree = &tree;
            scope.spawn(move || {
                for i in 0..60u64 {
                    let id = (t << 32) | i;
                    tree.insert(&rect_of(id), id).unwrap();
                    if i % 4 == 0 {
                        assert!(tree.delete(&rect_of(id), id).unwrap());
                    }
                }
            });
        }
        let tree = &tree;
        scope.spawn(move || {
            for _ in 0..12 {
                tree.checkpoint().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });
    assert_eq!(tree.live_items(), 4 * 45);

    let (mut imaging, mut checkpoints) = (false, 0);
    for record in rtree_wal::scan(&history.0.read_all().unwrap()).records {
        match record {
            WalRecord::PageImage { .. } => imaging = true,
            WalRecord::Commit { lsn } => assert!(
                !imaging,
                "commit {lsn} landed between a checkpoint's first image and its record"
            ),
            WalRecord::Checkpoint { lsn } => {
                assert!(imaging, "checkpoint {lsn} logged no image");
                (imaging, checkpoints) = (false, checkpoints + 1);
            }
            _ => {}
        }
    }
    assert_eq!(checkpoints, 12);
}
