//! The level-synchronous batch executor: configuration and entry point.
//! The walk itself lives behind [`DiskRTree::query_batch`], written once
//! against the pager's page-access seam.

use rtree_geom::Rect;
use rtree_pager::{BatchOutput, DiskRTree, PageStore};
use std::io;

/// Tuning knobs for a [`BatchExecutor`].
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// How many frontier pages ahead of the one being consumed the executor
    /// keeps read-in through [`rtree_pager::BufferManager::prefetch`]. `0`
    /// disables readahead. The window is naturally bounded by the buffer:
    /// when every frame is pinned the manager declines
    /// ([`rtree_pager::PrefetchOutcome::NoCapacity`]) and the executor falls
    /// back to demand fetching until reservations free up.
    pub prefetch_window: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { prefetch_window: 8 }
    }
}

/// Executes batches of rectangle queries against a [`DiskRTree`] with page
/// dedup, `PageId`-sorted level-synchronous traversal and buffer-aware
/// prefetch. See the crate docs for the algorithm.
///
/// # Examples
///
/// ```
/// use rtree_buffer::LruPolicy;
/// use rtree_exec::BatchExecutor;
/// use rtree_geom::Rect;
/// use rtree_index::BulkLoader;
/// use rtree_pager::{DiskRTree, MemStore};
///
/// let rects: Vec<Rect> = (0..400)
///     .map(|i| {
///         let x = (i as f64 * 0.618) % 0.95;
///         let y = (i as f64 * 0.414) % 0.95;
///         Rect::new(x, y, x + 0.01, y + 0.01)
///     })
///     .collect();
/// let tree = BulkLoader::hilbert(16).load(&rects);
/// let mut disk = DiskRTree::create(MemStore::new(), &tree, 32, LruPolicy::new()).unwrap();
///
/// let queries: Vec<Rect> = (0..8)
///     .map(|i| {
///         let x = i as f64 * 0.1;
///         Rect::new(x, x, x + 0.2, x + 0.2)
///     })
///     .collect();
/// let out = BatchExecutor::new().execute(&mut disk, &queries).unwrap();
/// assert_eq!(out.results.len(), 8);
/// // Overlapping queries share pages: dedup removed real traffic.
/// assert!(out.stats.work_items <= out.stats.page_requests);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchExecutor {
    config: BatchConfig,
}

impl BatchExecutor {
    /// An executor with the default configuration.
    pub fn new() -> Self {
        BatchExecutor::default()
    }

    /// An executor with an explicit configuration.
    pub fn with_config(config: BatchConfig) -> Self {
        BatchExecutor { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Runs `queries` as one batch against `tree`. Equivalent to calling
    /// [`DiskRTree::query`] per query — same result sets — but pages shared
    /// between queries are fetched once, each level is visited in page
    /// order, and the readahead window keeps upcoming frontier pages
    /// resident.
    pub fn execute<S: PageStore>(
        &self,
        tree: &mut DiskRTree<S>,
        queries: &[Rect],
    ) -> io::Result<BatchOutput> {
        tree.query_batch(queries, self.config.prefetch_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_buffer::{ClockPolicy, LruPolicy};
    use rtree_index::BulkLoader;
    use rtree_pager::MemStore;

    fn sample_rects(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.97;
                let y = (i as f64 * 0.414_213) % 0.97;
                Rect::new(x, y, x + 0.012, y + 0.012)
            })
            .collect()
    }

    fn queries(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.37) % 0.8;
                let y = (i as f64 * 0.59) % 0.8;
                Rect::new(x, y, x + 0.08, y + 0.08)
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_results() {
        let rects = sample_rects(800);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 40, LruPolicy::new()).unwrap();
        let qs = queries(24);
        let out = BatchExecutor::new().execute(&mut disk, &qs).unwrap();
        for (i, q) in qs.iter().enumerate() {
            let mut got = out.results[i].clone();
            let mut want = tree.search(q);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {i}");
        }
        assert_eq!(out.stats.queries, 24);
        assert!(out.stats.work_items <= out.stats.page_requests);
        assert_eq!(out.stats.levels, disk.meta().height);
    }

    #[test]
    fn cold_batch_reads_each_distinct_page_at_most_once() {
        let rects = sample_rects(1_500);
        let tree = BulkLoader::hilbert(10).load(&rects);
        // Tiny buffer + readahead: the per-batch dedup (not cache capacity)
        // must bound the reads.
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 8, ClockPolicy::new()).unwrap();
        let qs = queries(16);
        let out = BatchExecutor::new().execute(&mut disk, &qs).unwrap();
        assert!(disk.physical_reads() <= out.stats.work_items);
        assert_eq!(
            disk.io_stats().demand_reads() + disk.io_stats().prefetch_reads,
            disk.physical_reads()
        );
    }

    #[test]
    fn prefetch_window_zero_disables_readahead() {
        let rects = sample_rects(600);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 16, LruPolicy::new()).unwrap();
        let out = BatchExecutor::with_config(BatchConfig { prefetch_window: 0 })
            .execute(&mut disk, &queries(12))
            .unwrap();
        assert_eq!(out.stats.prefetched, 0);
        assert_eq!(disk.io_stats().prefetch_reads, 0);
    }

    #[test]
    fn readahead_turns_demand_misses_into_hits() {
        let rects = sample_rects(1_200);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
        let out = BatchExecutor::new()
            .execute(&mut disk, &queries(16))
            .unwrap();
        assert!(out.stats.prefetched > 0, "readahead engaged");
        assert_eq!(disk.io_stats().prefetch_reads, out.stats.prefetched);
        // Every prefetched frame was consumed as a pool hit.
        assert!(disk.buffer_stats().hits >= out.stats.prefetched);
        // No reservation leaked.
        assert_eq!(disk.buffer_stats().accesses, out.stats.work_items);
    }

    #[test]
    fn queries_outside_the_root_mbr_cost_nothing() {
        let rects = sample_rects(300);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 16, LruPolicy::new()).unwrap();
        let far = vec![Rect::new(0.995, 0.995, 1.0, 1.0); 4];
        let out = BatchExecutor::new().execute(&mut disk, &far).unwrap();
        assert_eq!(out.stats.active_queries, 0);
        assert_eq!(disk.physical_reads(), 0);
        assert!(out.results.iter().all(Vec::is_empty));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let rects = sample_rects(100);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 8, LruPolicy::new()).unwrap();
        let out = BatchExecutor::new().execute(&mut disk, &[]).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(disk.physical_reads(), 0);
    }
}
