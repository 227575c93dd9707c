//! Property test: for *arbitrary* trees, buffer sizes, pinning depths and
//! query workloads, the physical execution path (`DiskRTree` over pages +
//! buffer manager) and the simulation path (`SimTree` trace replayed
//! through a bare `BufferPool`) must agree on
//!
//! 1. the query *results* — the disk tree returns exactly the ids the
//!    in-memory `RTree` returns, and
//! 2. the query *cost* — per-query physical reads equal the trace-replay
//!    miss count under the same (deterministic, LRU) policy and pinning.
//!
//! `tests/disk_vs_trace.rs` checks (2) for one fixed synthetic workload;
//! this file generalises both claims over proptest-generated inputs.

use buffered_rtrees::buffer::{BufferPool, LruPolicy, PageId};
use buffered_rtrees::index::BulkLoader;
use buffered_rtrees::pager::{DiskRTree, MemStore};
use buffered_rtrees::sim::SimTree;
use proptest::prelude::*;

use buffered_rtrees::geom::Rect;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (
        (0.0f64..=0.95, 0.0f64..=0.95),
        (0.0f64..=0.08, 0.0f64..=0.08),
    )
        .prop_map(|((x, y), (w, h))| Rect::new(x, y, x + w, y + h))
}

/// Queries mix extended regions with degenerate (point) rectangles.
fn arb_query() -> impl Strategy<Value = Rect> {
    prop_oneof![
        arb_rect(),
        (0.0f64..=1.0, 0.0f64..=1.0).prop_map(|(x, y)| Rect::new(x, y, x, y)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn disk_matches_reference_results_and_sim_trace_costs(
        rects in prop::collection::vec(arb_rect(), 1..300),
        queries in prop::collection::vec(arb_query(), 1..40),
        cap in 4usize..24,
        buffer in 4usize..40,
        pin in 0usize..=1,
    ) {
        let tree = BulkLoader::hilbert(cap).load(&rects);
        let sim_tree = SimTree::from_tree(&tree);
        let pin = pin.min(sim_tree.height());

        // Physical side. DiskRTree pages are 1-based (page 0 = meta).
        let disk =
            DiskRTree::create(MemStore::new(), &tree, buffer, LruPolicy::new()).unwrap();
        disk.pin_top_levels(pin).unwrap();
        disk.reset_counters();

        // Trace side: SimTree pages are 0-based, shifted by one relative to
        // the disk layout, but LRU only sees access order so the shift is
        // invisible to miss counting.
        let mut pool = BufferPool::new(buffer, LruPolicy::new());
        for page in 0..sim_tree.pages_in_top_levels(pin) {
            pool.pin(PageId(page as u64)).unwrap();
        }
        // `pin` charges the initial load as a miss; the disk side reset its
        // counters after pinning, so reset here to keep the ledgers aligned.
        pool.reset_stats();

        let mut trace = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let before = disk.physical_reads();
            let mut got = disk.query(q).unwrap();
            let disk_reads = disk.physical_reads() - before;

            // (1) identical result sets, independent of traversal order.
            let mut want = tree.search(q);
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(&got, &want, "query {} result set", i);

            // (2) identical cost under the lockstep pool.
            trace.clear();
            sim_tree.trace_into(q, &mut trace);
            let mut misses = 0u64;
            for &p in &trace {
                if pool.access(p).is_miss() {
                    misses += 1;
                }
            }
            prop_assert_eq!(
                disk_reads, misses,
                "query {}: physical reads vs trace-replay misses (pin {})",
                i, pin
            );
        }

        // The aggregate stats reconcile too: every physical read was a pool
        // miss and vice versa.
        prop_assert_eq!(disk.physical_reads(), pool.stats().misses);
    }
}
