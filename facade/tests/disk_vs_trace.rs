//! Exact equivalence of the two execution paths: for the *same* query
//! sequence, the physical `DiskRTree` (pages + buffer manager) and the
//! trace-driven pool simulation must produce identical miss counts — LRU is
//! deterministic, page numbering matches, and traversal order matches.

use buffered_rtrees::buffer::{BufferPool, LruPolicy, PageId};
use buffered_rtrees::datagen::SyntheticRegion;
use buffered_rtrees::index::BulkLoader;
use buffered_rtrees::model::Workload;
use buffered_rtrees::pager::{DiskRTree, MemStore};
use buffered_rtrees::sim::{QuerySampler, SimTree};

fn run_pair(buffer: usize, pin_levels: usize, queries: usize) {
    let rects = SyntheticRegion::new(2_500).generate(99);
    let tree = BulkLoader::hilbert(25).load(&rects);
    let sim_tree = SimTree::from_tree(&tree);

    // Physical side. DiskRTree pages are 1-based (page 0 = meta).
    let disk = DiskRTree::create(MemStore::new(), &tree, buffer, LruPolicy::new()).unwrap();
    disk.pin_top_levels(pin_levels).unwrap();
    disk.reset_counters();

    // Trace side: same queries through a bare pool; SimTree pages are
    // 0-based, shifted by one relative to the disk layout.
    let mut pool = BufferPool::new(buffer, LruPolicy::new());
    for page in 0..sim_tree.pages_in_top_levels(pin_levels) {
        pool.pin(PageId(page as u64)).unwrap();
    }
    let mut pool_misses = 0u64;

    let workload = Workload::uniform_region(0.03, 0.03);
    let mut s1 = QuerySampler::new(&workload, 4242);
    let mut s2 = QuerySampler::new(&workload, 4242);
    let mut trace = Vec::new();
    for i in 0..queries {
        let q1 = s1.sample();
        let q2 = s2.sample();
        assert_eq!(q1, q2, "samplers must stay in lockstep");

        let before = disk.physical_reads();
        let hits = disk.query(&q1).unwrap();
        let disk_reads = disk.physical_reads() - before;

        trace.clear();
        sim_tree.trace_into(&q2, &mut trace);
        let mut misses = 0u64;
        for &p in &trace {
            if pool.access(p).is_miss() {
                misses += 1;
            }
        }
        pool_misses += misses;

        assert_eq!(
            disk_reads,
            misses,
            "query {i}: physical {disk_reads} vs trace {misses} (hits {})",
            hits.len()
        );
    }
    assert_eq!(disk.physical_reads(), pool_misses);
}

#[test]
fn identical_miss_streams_small_buffer() {
    run_pair(10, 0, 1_500);
}

#[test]
fn identical_miss_streams_medium_buffer() {
    run_pair(60, 0, 1_500);
}

#[test]
fn identical_miss_streams_with_pinning() {
    run_pair(40, 2, 1_500);
}

#[test]
fn identical_miss_streams_buffer_larger_than_tree() {
    run_pair(200, 0, 800);
}
