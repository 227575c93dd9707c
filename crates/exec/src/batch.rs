//! The level-synchronous batch executor's entry point. The walk itself
//! lives behind [`rtree_pager::ConcurrentDiskRTree::query_batch`], written
//! once against the pager's page-access seam.

use rtree_geom::Rect;
use rtree_pager::{BatchOutput, ConcurrentPageStore, DiskRTree};
use std::io;

/// Has no settings. Kept only because the `rtree-perf` benchmark names it
/// (through [`BatchExecutor::with_config`]); it goes when that benchmark's
/// names unfreeze.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchConfig;

/// Executes batches of rectangle queries against a [`DiskRTree`] with page
/// dedup and `PageId`-sorted level-synchronous traversal. See the crate
/// docs for the algorithm.
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
pub struct BatchExecutor;

impl BatchExecutor {
    /// An executor.
    pub fn new() -> Self {
        BatchExecutor
    }

    /// The same as [`BatchExecutor::new`]; kept for `rtree-perf` (see
    /// [`BatchConfig`]).
    pub fn with_config(_config: BatchConfig) -> Self {
        BatchExecutor
    }

    /// Runs `queries` as one batch against `tree`, on the caller's thread:
    /// the batch walk [`rtree_pager::ConcurrentDiskRTree::query_batch`]
    /// with one worker. Equivalent to calling
    /// [`rtree_pager::ConcurrentDiskRTree::query`] per query — same result
    /// sets — but pages shared between queries are fetched once and each
    /// level is visited in page order.
    pub fn execute<S: ConcurrentPageStore + Send>(
        &self,
        tree: &mut DiskRTree<S>,
        queries: &[Rect],
    ) -> io::Result<BatchOutput> {
        tree.query_batch(queries, 1)
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
        // Tiny buffer: the per-batch dedup (not cache capacity) must bound
        // the reads, and every work item is one pool access.
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 8, ClockPolicy::new()).unwrap();
        let qs = queries(16);
        let out = BatchExecutor::new().execute(&mut disk, &qs).unwrap();
        assert!(disk.physical_reads() <= out.stats.work_items);
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
