//! Unit tests of the batched walk on one worker,
//! `ConcurrentDiskRTree::query_batch(queries, 1)`, the way the sequential
//! server engine runs it: result sets, per-batch dedup, and the batches
//! that cost nothing.

#[cfg(test)]
mod tests {
    use crate::{DiskRTree, MemStore};
    use rtree_buffer::{ClockPolicy, LruPolicy};
    use rtree_geom::Rect;
    use rtree_index::BulkLoader;

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
        let disk = DiskRTree::create(MemStore::new(), &tree, 40, LruPolicy::new()).unwrap();
        let qs = queries(24);
        let out = disk.query_batch(&qs, 1).unwrap();
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
        let disk = DiskRTree::create(MemStore::new(), &tree, 8, ClockPolicy::new()).unwrap();
        let qs = queries(16);
        let out = disk.query_batch(&qs, 1).unwrap();
        assert!(disk.physical_reads() <= out.stats.work_items);
        assert_eq!(disk.buffer_stats().accesses, out.stats.work_items);
    }

    #[test]
    fn queries_outside_the_root_mbr_cost_nothing() {
        let rects = sample_rects(300);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk = DiskRTree::create(MemStore::new(), &tree, 16, LruPolicy::new()).unwrap();
        let far = vec![Rect::new(0.995, 0.995, 1.0, 1.0); 4];
        let out = disk.query_batch(&far, 1).unwrap();
        assert_eq!(out.stats.active_queries, 0);
        assert_eq!(disk.physical_reads(), 0);
        assert!(out.results.iter().all(Vec::is_empty));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let rects = sample_rects(100);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk = DiskRTree::create(MemStore::new(), &tree, 8, LruPolicy::new()).unwrap();
        let out = disk.query_batch(&[], 1).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(disk.physical_reads(), 0);
    }
}
