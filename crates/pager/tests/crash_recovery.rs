//! Crash-recovery property tests: a random insert/delete workload runs
//! against a WAL-attached [`DiskRTree`] over a fault-injecting store (or a
//! fault-injecting log), crashes at an arbitrary point, and is recovered
//! from the surviving log + store. The recovered tree must answer every
//! query exactly like an in-memory reference tree that applied only the
//! committed operations — across LRU, Clock and FIFO replacement, with and
//! without torn writes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_buffer::{ClockPolicy, FifoPolicy, LruPolicy, ReplacementPolicy};
use rtree_geom::Rect;
use rtree_index::RTreeBuilder;
use rtree_pager::{recover, DiskRTree, FaultStore, MemStore, PageStore};
use rtree_wal::{CrashSwitch, FaultLog, LogBackend, MemLog, Wal};

/// Node capacity (Guttman's `M`) for the workload trees.
const MAX: usize = 8;
/// Minimum fill (`m`).
const MIN: usize = 3;
/// Buffer frames: small enough that evictions (and hence write-backs that
/// the crash can land on) happen constantly.
const FRAMES: usize = 8;
/// Operations per workload.
const OPS: usize = 1000;

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Runs the workload until it finishes or the injected fault fires, then
/// simulates the reboot: buffered state is discarded, the log is replayed
/// against the bare store, and the recovered tree is swept against the
/// reference.
fn drive<S: PageStore>(
    mut disk: DiskRTree<S>,
    log: MemLog,
    seed: u64,
    extract: impl FnOnce(S) -> MemStore,
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

    // Reboot: drop all buffered frames (dirty pages included) and replay.
    let mut store = extract(disk.into_store());
    recover(&mut store, &log.read_all().unwrap()).unwrap();
    let mut recovered = DiskRTree::open(store, 64, LruPolicy::new()).unwrap();

    assert_eq!(
        recovered.meta().items,
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
    let log = MemLog::new();
    let store = FaultStore::new(MemStore::new(), CrashSwitch::new()).crash_at_write(at, torn);
    let mut disk = DiskRTree::create_empty(store, MAX, MIN, FRAMES, policy).unwrap();
    disk.attach_wal(Wal::open(log.clone()).unwrap());
    drive(disk, log, seed, FaultStore::into_inner);
}

/// Crash on the `at`-th log append (optionally leaving a torn tail).
fn run_log_crash(seed: u64, at: u64, torn: bool, policy: impl ReplacementPolicy + 'static) {
    let log = MemLog::new();
    let backend = FaultLog::new(log.clone(), CrashSwitch::new()).crash_at_append(at, torn);
    let mut disk = DiskRTree::create_empty(MemStore::new(), MAX, MIN, FRAMES, policy).unwrap();
    disk.attach_wal(Wal::open(backend).unwrap());
    drive(disk, log, seed, |s| s);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // `at in 3..` skips the two bootstrap writes of `create_empty`, which
    // happen before the WAL is attached.

    #[test]
    fn lru_recovers_from_store_crash(seed in any::<u64>(), at in 3u64..400, torn in any::<bool>()) {
        run_store_crash(seed, at, torn, LruPolicy::new());
    }

    #[test]
    fn clock_recovers_from_store_crash(seed in any::<u64>(), at in 3u64..400, torn in any::<bool>()) {
        run_store_crash(seed, at, torn, ClockPolicy::new());
    }

    #[test]
    fn fifo_recovers_from_store_crash(seed in any::<u64>(), at in 3u64..400, torn in any::<bool>()) {
        run_store_crash(seed, at, torn, FifoPolicy::new());
    }

    #[test]
    fn lru_recovers_from_log_crash(seed in any::<u64>(), at in 1u64..3000, torn in any::<bool>()) {
        run_log_crash(seed, at, torn, LruPolicy::new());
    }

    #[test]
    fn clock_recovers_from_log_crash(seed in any::<u64>(), at in 1u64..3000, torn in any::<bool>()) {
        run_log_crash(seed, at, torn, ClockPolicy::new());
    }

    #[test]
    fn fifo_recovers_from_log_crash(seed in any::<u64>(), at in 1u64..3000, torn in any::<bool>()) {
        run_log_crash(seed, at, torn, FifoPolicy::new());
    }
}

/// A read fault (bad sector) surfaces as a typed error, not a panic or
/// silent corruption, and does not poison later reads.
#[test]
fn transient_read_fault_is_an_error_not_a_panic() {
    let store = FaultStore::new(MemStore::new(), CrashSwitch::new()).fail_read_at(40);
    let mut disk = DiskRTree::create_empty(store, MAX, MIN, 4, LruPolicy::new()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut failure = None;
    for i in 0..200u64 {
        let x = rng.gen_range(0.0..0.9);
        let y = rng.gen_range(0.0..0.9);
        if let Err(e) = disk.insert(Rect::new(x, y, x + 0.01, y + 0.01), i) {
            failure = Some(e);
            break;
        }
    }
    let err = failure.expect("the injected read fault must surface");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// The checkpoint crash window: `checkpoint` flushes the new image in
/// place and only then truncates the log, so a log fault between the two
/// leaves the *new* image under the *old* log. Replaying that log must not
/// apply the inserts the image already holds a second time.
#[test]
fn replay_is_idempotent_across_the_checkpoint_crash_window() {
    use rtree_pager::{replay_committed, ConcurrentDiskRTree};
    use rtree_wal::GroupWal;

    const K: u64 = 40;
    let rect_of = |id: u64| {
        let x = (id as f64 * 0.137) % 0.9;
        Rect::new(x, x, x + 0.005, x + 0.005)
    };
    let durable = MemLog::new();
    // One thread: every commit is its own append, so the checkpoint record
    // is append K + 1.
    let log = FaultLog::new(durable.clone(), CrashSwitch::new()).crash_at_append(K + 1, false);
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
