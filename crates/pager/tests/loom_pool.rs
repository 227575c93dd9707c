//! Model-checking test (built only with `RUSTFLAGS="--cfg loom"`) for the
//! sharded buffer cache: the real [`ConcurrentDiskRTree`], driven inside
//! `loom::model` so every explored schedule re-runs the true fetch path —
//! a per-shard latch around the one buffer cache, counters inside it —
//! and re-checks the counter reconciliation invariants. Under the real
//! loom the schedules are exhaustively enumerated; under the vendored shim
//! it is bounded schedule exploration (64 seeded schedules per `model`
//! call).
//!
//! The invariants mirror what the accounting oracle (and `trace_vs_stats`)
//! assume: every access is classified as exactly one hit or miss, every
//! miss does exactly one physical read, and the totals reconcile after the
//! threads join regardless of interleaving.

#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;
use rtree_buffer::{LruPolicy, ReplacementPolicy};
use rtree_geom::Rect;
use rtree_index::BulkLoader;
use rtree_pager::{ConcurrentDiskRTree, MemStore};

#[test]
fn sharded_tree_counters_reconcile_under_exploration() {
    loom::model(|| {
        let rects: Vec<Rect> = (0..200)
            .map(|i| {
                let x = (i % 20) as f64 / 20.0;
                let y = (i / 20) as f64 / 10.0;
                Rect::new(x, y, x + 0.04, y + 0.04)
            })
            .collect();
        let tree = BulkLoader::hilbert(8).load(&rects);
        let disk = Arc::new(
            ConcurrentDiskRTree::create_sharded(
                MemStore::new(),
                &tree,
                8,
                2,
                || -> Box<dyn ReplacementPolicy> { Box::new(LruPolicy::new()) },
            )
            .unwrap(),
        );

        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let disk = Arc::clone(&disk);
                thread::spawn(move || {
                    for i in 0..4u64 {
                        let x = ((t * 7 + i * 3) % 10) as f64 / 10.0;
                        let q = Rect::new(x, x, x + 0.2, x + 0.2);
                        disk.query(&q).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let io = disk.io_stats();
        let pool = disk.buffer_stats();
        assert_eq!(pool.accesses, pool.hits + pool.misses);
        assert_eq!(io.reads, pool.misses, "one physical read per miss");
        assert_eq!(io.writes, 0, "read-only workload");
    });
}
