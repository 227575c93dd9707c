//! The batched walk's two contracts, proven over arbitrary inputs:
//!
//! 1. **Equivalence** — for any tree, buffer size, replacement policy and
//!    query batch, `query_batch` with one worker returns exactly
//!    the result set per query that sequential `DiskRTree::query` (and
//!    the in-memory reference) returns.
//! 2. **Cost dominance** — from a cold buffer, the batch performs at most
//!    as many physical reads as the same queries run sequentially against
//!    an equally cold tree. This holds for *every* policy, including
//!    RANDOM: dedup means each distinct page is fetched once per batch,
//!    while the sequential run must read each distinct page at least once.
//!
//! The accounting identities (`misses == physical reads`,
//! `hits + misses == accesses`) ride along on every case.

use proptest::prelude::*;
use rtree_buffer::{
    ClockPolicy, FifoPolicy, LruKPolicy, LruPolicy, RandomPolicy, ReplacementPolicy,
};
use rtree_geom::Rect;
use rtree_index::BulkLoader;
use rtree_pager::{DiskRTree, MemStore};

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

/// All five replacement policies, index-selected so one proptest run
/// sweeps the full matrix.
fn make_policy(which: usize, seed: u64) -> Box<dyn ReplacementPolicy> {
    match which {
        0 => Box::new(LruPolicy::new()),
        1 => Box::new(LruKPolicy::new(2)),
        2 => Box::new(FifoPolicy::new()),
        3 => Box::new(ClockPolicy::new()),
        _ => Box::new(RandomPolicy::new(seed)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batch_equals_sequential_and_never_reads_more(
        rects in prop::collection::vec(arb_rect(), 1..300),
        queries in prop::collection::vec(arb_query(), 1..40),
        cap in 4usize..24,
        buffer in 4usize..40,
        which in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let tree = BulkLoader::hilbert(cap).load(&rects);

        // Cold batch run.
        let batch_tree =
            DiskRTree::create(MemStore::new(), &tree, buffer, make_policy(which, seed)).unwrap();
        let out = batch_tree.query_batch(&queries, 1).unwrap();
        let batch_reads = batch_tree.physical_reads();

        // Equally cold sequential run under the same policy (RANDOM is
        // seeded, so both sides see the identical eviction stream).
        let seq_tree =
            DiskRTree::create(MemStore::new(), &tree, buffer, make_policy(which, seed)).unwrap();
        let mut seq_reads = 0u64;
        for (i, q) in queries.iter().enumerate() {
            let before = seq_tree.physical_reads();
            let mut seq = seq_tree.query(q).unwrap();
            seq_reads += seq_tree.physical_reads() - before;

            let mut got = out.results[i].clone();
            let mut want = tree.search(q);
            got.sort_unstable();
            seq.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(&got, &seq, "query {}: batch vs sequential", i);
            prop_assert_eq!(&got, &want, "query {}: batch vs reference", i);
        }

        prop_assert!(
            batch_reads <= seq_reads,
            "policy {}: batch read {} pages, sequential {}",
            which, batch_reads, seq_reads
        );

        // Accounting identities on the batch side.
        let pool = batch_tree.buffer_stats();
        prop_assert_eq!(pool.misses, batch_reads);
        prop_assert_eq!(pool.hits + pool.misses, pool.accesses);
        prop_assert_eq!(pool.accesses, out.stats.work_items);
        // Dedup: one pool access per distinct (level-synchronous) work
        // item, never more than the undeduplicated request count.
        prop_assert!(out.stats.work_items <= out.stats.page_requests);
    }
}
