//! Differential suite for the trace layer: the event stream emitted by the
//! pager's trace hooks must reconcile *exactly* with the counters the
//! buffer manager keeps anyway (`IoStats`, `BufferStats`) — on the
//! sequential `DiskRTree`, on the write path, and on the sharded
//! `ConcurrentDiskRTree` under real concurrency. The last two tests run
//! with no sink attached: the accounting must not depend on one.

use buffered_rtrees::buffer::{
    ClockPolicy, FifoPolicy, LruKPolicy, LruPolicy, RandomPolicy, ReplacementPolicy,
};
use buffered_rtrees::datagen::SyntheticRegion;
use buffered_rtrees::exec::{BatchConfig, BatchExecutor};
use buffered_rtrees::geom::Rect;
use buffered_rtrees::index::{BulkLoader, RTree};
use buffered_rtrees::model::Workload;
use buffered_rtrees::obs::{CountingSink, EventKind, RingSink, TraceSink};
use buffered_rtrees::pager::{ConcurrentDiskRTree, DiskRTree, MemStore};
use buffered_rtrees::sim::QuerySampler;
use buffered_rtrees::wal::{MemLog, Wal};
use std::collections::HashMap;
use std::sync::Arc;

fn policies(seed: u64) -> Vec<(&'static str, Box<dyn ReplacementPolicy>)> {
    vec![
        ("LRU", Box::new(LruPolicy::new())),
        ("LRU2", Box::new(LruKPolicy::lru2())),
        ("FIFO", Box::new(FifoPolicy::new())),
        ("CLOCK", Box::new(ClockPolicy::new())),
        ("RANDOM", Box::new(RandomPolicy::new(seed))),
    ]
}

fn sample_tree(n: usize, seed: u64) -> RTree {
    let rects = SyntheticRegion::new(n).generate(seed);
    BulkLoader::hilbert(16).load(&rects)
}

/// Sequential read path: for every policy, the counting sink's view of
/// the run equals the I/O and pool statistics.
#[test]
fn sequential_trace_reconciles_with_io_stats() {
    let tree = sample_tree(2_000, 7);
    for (name, policy) in policies(0xBEEF) {
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 24, policy).unwrap();
        let sink = Arc::new(CountingSink::new());
        disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
        disk.pin_top_levels(1).unwrap();

        let workload = Workload::uniform_region(0.04, 0.04);
        let mut sampler = QuerySampler::new(&workload, 1234);
        for _ in 0..600 {
            disk.query(&sampler.sample()).unwrap();
        }

        let io = disk.io_stats();
        let pool = disk.buffer_stats();
        let c = sink.counts();
        assert_eq!(c.misses, io.reads, "{name}: misses vs physical reads");
        assert_eq!(c.peek_reads, io.peek_reads, "{name}: peek reads");
        assert_eq!(c.write_backs, io.writes, "{name}: write backs");
        assert_eq!(c.accesses(), pool.accesses, "{name}: logical accesses");
        assert_eq!(c.hits, pool.hits, "{name}: hits");
        assert!(c.misses > 0, "{name}: workload must actually miss");
        assert!(c.hits > 0, "{name}: workload must actually hit");
    }
}

/// Write path: inserts, deletes, WAL appends, checkpoints, and the
/// final flush all show up in the event stream with the same totals as
/// the I/O counters.
#[test]
fn write_path_trace_reconciles_with_io_stats() {
    let rects = SyntheticRegion::new(900).generate(21);
    for (name, policy) in policies(0xD00D) {
        let mut disk = DiskRTree::create_empty(MemStore::new(), 12, 5, 16, policy).unwrap();
        let sink = Arc::new(CountingSink::new());
        disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
        disk.attach_wal(Wal::open(MemLog::new()).unwrap());

        for (i, r) in rects.iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
            if i % 250 == 249 {
                disk.checkpoint().unwrap();
            }
        }
        for (i, r) in rects.iter().enumerate().take(300) {
            assert!(disk.delete(r, i as u64).unwrap(), "{name}: delete {i}");
        }
        disk.flush().unwrap();

        let io = disk.io_stats();
        let pool = disk.buffer_stats();
        let c = sink.counts();
        assert_eq!(c.misses, io.reads, "{name}: misses vs physical reads");
        assert_eq!(c.write_backs, io.writes, "{name}: write backs");
        assert_eq!(c.peek_reads, io.peek_reads, "{name}: peek reads");
        assert_eq!(c.accesses(), pool.accesses, "{name}: logical accesses");
        assert!(c.write_backs > 0, "{name}: writes must have happened");
        assert!(c.wal_appends > 0, "{name}: WAL must have been appended");
    }
}

/// Ring attribution: replaying queries one at a time, the per-query
/// physical read delta reported by `query_counting` equals the number
/// of Miss events carrying that query's id, and every traversal event
/// has a known level.
#[test]
fn ring_sink_attributes_reads_to_query_ids() {
    let tree = sample_tree(1_500, 3);
    let mut disk = DiskRTree::create(MemStore::new(), &tree, 20, LruPolicy::new()).unwrap();
    let sink = Arc::new(RingSink::new(1 << 16));
    disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));

    let workload = Workload::uniform_region(0.05, 0.05);
    let mut sampler = QuerySampler::new(&workload, 99);
    let mut reads_by_query: HashMap<u64, u64> = HashMap::new();
    let mut next_qid = 0u64;
    for _ in 0..250 {
        let (_results, reads) = disk.query_counting(&sampler.sample()).unwrap();
        next_qid += 1;
        reads_by_query.insert(next_qid, reads);
    }

    let mut miss_events: HashMap<u64, u64> = HashMap::new();
    for e in sink.events() {
        match e.kind {
            EventKind::Miss if e.query_id != 0 => {
                *miss_events.entry(e.query_id).or_default() += 1;
            }
            EventKind::Hit | EventKind::Miss => {
                assert!(e.level >= 0, "traversal events know their level");
            }
            _ => {}
        }
        if e.query_id != 0 && matches!(e.kind, EventKind::Hit | EventKind::Miss) {
            assert!(
                e.level >= 0,
                "query-attributed traversal events know their level"
            );
        }
    }
    assert_eq!(sink.dropped(), 0, "ring must be large enough for the run");
    for (qid, reads) in &reads_by_query {
        assert_eq!(
            miss_events.get(qid).copied().unwrap_or(0),
            *reads,
            "query {qid}: miss events vs physical read delta"
        );
    }
    // No phantom query ids either.
    for qid in miss_events.keys() {
        assert!(reads_by_query.contains_key(qid), "unknown query id {qid}");
    }
}

/// Batched execution path: with readahead in play, the reconciliation
/// splits — Miss events cover the demand reads, Prefetch events the
/// readahead fills, and together they equal the physical read counter.
/// Pool accesses stay pure: a prefetch is charged only when its
/// consuming access lands (as a Hit).
#[test]
fn batch_trace_reconciles_with_io_stats() {
    let tree = sample_tree(2_000, 13);
    for (name, policy) in policies(0xABBA) {
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 32, policy).unwrap();
        let sink = Arc::new(CountingSink::new());
        disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));

        let workload = Workload::uniform_region(0.04, 0.04);
        let mut sampler = QuerySampler::new(&workload, 4321);
        let stream: Vec<_> = (0..600).map(|_| sampler.sample()).collect();
        let exec = BatchExecutor::with_config(BatchConfig { prefetch_window: 6 });
        let mut prefetched = 0u64;
        for chunk in stream.chunks(32) {
            prefetched += exec.execute(&mut disk, chunk).unwrap().stats.prefetched;
        }

        let io = disk.io_stats();
        let pool = disk.buffer_stats();
        let c = sink.counts();
        assert_eq!(
            c.misses + c.prefetches,
            io.reads,
            "{name}: misses + prefetches vs physical reads"
        );
        assert_eq!(c.reads(), io.reads, "{name}: EventCounts::reads()");
        assert_eq!(c.misses, io.demand_reads(), "{name}: demand reads");
        assert_eq!(c.prefetches, io.prefetch_reads, "{name}: prefetch reads");
        assert_eq!(c.prefetches, prefetched, "{name}: executor's own count");
        assert_eq!(c.peek_reads, io.peek_reads, "{name}: peek reads");
        assert_eq!(c.accesses(), pool.accesses, "{name}: logical accesses");
        assert_eq!(c.hits, pool.hits, "{name}: hits");
        assert_eq!(c.hits + c.misses, pool.accesses, "{name}: hits + misses");
        assert!(c.prefetches > 0, "{name}: readahead must have engaged");
        assert!(c.hits > 0, "{name}: consuming accesses must hit");
    }
}

/// Batch span attribution: each batch runs under one operation id; the
/// Miss + Prefetch events carrying that id equal the batch's physical
/// read delta, and every batch event knows its level.
#[test]
fn batch_ring_attributes_reads_to_spans() {
    let tree = sample_tree(1_500, 31);
    let mut disk = DiskRTree::create(MemStore::new(), &tree, 24, LruPolicy::new()).unwrap();
    let sink = Arc::new(RingSink::new(1 << 16));
    disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));

    let workload = Workload::uniform_region(0.05, 0.05);
    let mut sampler = QuerySampler::new(&workload, 55);
    let exec = BatchExecutor::with_config(BatchConfig { prefetch_window: 4 });
    let mut reads_by_span: HashMap<u64, u64> = HashMap::new();
    let mut span = 0u64;
    for _ in 0..40 {
        let chunk: Vec<_> = (0..16).map(|_| sampler.sample()).collect();
        let before = disk.physical_reads();
        exec.execute(&mut disk, &chunk).unwrap();
        span += 1; // op ids are allocated monotonically from 1
        reads_by_span.insert(span, disk.physical_reads() - before);
    }

    assert_eq!(sink.dropped(), 0, "ring must be large enough for the run");
    let mut read_events: HashMap<u64, u64> = HashMap::new();
    for e in sink.events() {
        if matches!(e.kind, EventKind::Miss | EventKind::Prefetch) && e.query_id != 0 {
            *read_events.entry(e.query_id).or_default() += 1;
        }
        if matches!(
            e.kind,
            EventKind::Hit | EventKind::Miss | EventKind::Prefetch
        ) {
            assert!(e.level >= 0, "batch traversal events know their level");
        }
    }
    for (span, reads) in &reads_by_span {
        assert_eq!(
            read_events.get(span).copied().unwrap_or(0),
            *reads,
            "batch {span}: read events vs physical read delta"
        );
    }
    for span in read_events.keys() {
        assert!(
            reads_by_span.contains_key(span),
            "unknown batch span {span}"
        );
    }
}

/// Sharded concurrent path: N threads hammer the tree; after joining,
/// the counting sink reconciles with the aggregated shard counters for
/// every policy.
#[test]
fn sharded_trace_reconciles_with_io_stats() {
    let tree = sample_tree(2_500, 17);
    for (name, _p) in policies(1) {
        let mut disk = ConcurrentDiskRTree::create_sharded(
            MemStore::new(),
            &tree,
            32,
            4,
            || -> Box<dyn ReplacementPolicy> {
                match name {
                    "LRU" => Box::new(LruPolicy::new()),
                    "LRU2" => Box::new(LruKPolicy::lru2()),
                    "FIFO" => Box::new(FifoPolicy::new()),
                    "CLOCK" => Box::new(ClockPolicy::new()),
                    _ => Box::new(RandomPolicy::new(42)),
                }
            },
        )
        .unwrap();
        let sink = Arc::new(CountingSink::new());
        disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
        let disk = Arc::new(disk);
        disk.pin_top_levels(1).unwrap();

        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let disk = Arc::clone(&disk);
                scope.spawn(move || {
                    let workload = Workload::uniform_region(0.04, 0.04);
                    let mut sampler = QuerySampler::new(&workload, 777 + t);
                    for _ in 0..300 {
                        disk.query(&sampler.sample()).unwrap();
                    }
                });
            }
        });

        let io = disk.io_stats();
        let pool = disk.buffer_stats();
        let c = sink.counts();
        assert_eq!(c.misses, io.reads, "{name}: misses vs physical reads");
        assert_eq!(c.peek_reads, io.peek_reads, "{name}: peek reads");
        assert_eq!(c.accesses(), pool.accesses, "{name}: logical accesses");
        assert_eq!(c.hits, pool.hits, "{name}: hits");
    }
}

/// Concurrent ring soundness: after every worker joins, the merged
/// per-thread rings hold exactly as many events as the sink's atomic
/// admission counter, which in turn equals the counter totals.
#[test]
fn concurrent_ring_loses_nothing_after_join() {
    let tree = sample_tree(2_000, 29);
    let mut disk = ConcurrentDiskRTree::create_sharded(
        MemStore::new(),
        &tree,
        48,
        4,
        || -> Box<dyn ReplacementPolicy> { Box::new(LruPolicy::new()) },
    )
    .unwrap();
    let sink = Arc::new(RingSink::new(1 << 17));
    disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
    let disk = Arc::new(disk);

    let threads = 4u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let disk = Arc::clone(&disk);
            scope.spawn(move || {
                let workload = Workload::uniform_region(0.05, 0.05);
                let mut sampler = QuerySampler::new(&workload, 31 + t);
                for _ in 0..400 {
                    disk.query(&sampler.sample()).unwrap();
                }
            });
        }
    });

    let events = sink.events();
    assert_eq!(sink.dropped(), 0, "ring sized for the whole run");
    assert_eq!(events.len() as u64, sink.recorded(), "merged == admitted");
    assert!(
        sink.threads() >= threads as usize,
        "each worker registered its own ring"
    );

    let io = disk.io_stats();
    let pool = disk.buffer_stats();
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut peeks = 0u64;
    for e in &events {
        match e.kind {
            EventKind::Hit => hits += 1,
            EventKind::Miss => misses += 1,
            EventKind::PeekRead => peeks += 1,
            _ => {}
        }
    }
    assert_eq!(misses, io.reads, "ring misses vs physical reads");
    assert_eq!(peeks, io.peek_reads, "ring peeks vs peek reads");
    assert_eq!(hits + misses, pool.accesses, "ring events vs accesses");
    assert_eq!(
        hits + misses + peeks,
        sink.recorded(),
        "read-only run emits only traversal events"
    );
}

/// With no sink attached the query path counts exactly as before.
#[test]
fn no_sink_path_still_counts_reads() {
    let rects = SyntheticRegion::new(800).generate(5);
    let tree = BulkLoader::hilbert(16).load(&rects);
    let mut disk = DiskRTree::create(MemStore::new(), &tree, 10, LruPolicy::new()).unwrap();
    let all = Rect::new(0.0, 0.0, 1.0, 1.0);
    let hits = disk.query(&all).unwrap();
    assert_eq!(hits.len(), 800);
    assert!(disk.io_stats().reads > 0);
    assert_eq!(
        disk.buffer_stats().accesses,
        disk.buffer_stats().hits + disk.buffer_stats().misses
    );
}

/// The batch path's split accounting (demand + prefetch = physical) holds
/// with no sink attached too.
#[test]
fn no_sink_batch_path_splits_read_accounting() {
    let rects = SyntheticRegion::new(1_200).generate(9);
    let tree = BulkLoader::hilbert(10).load(&rects);
    let mut disk = DiskRTree::create(MemStore::new(), &tree, 48, LruPolicy::new()).unwrap();
    let queries: Vec<Rect> = (0..24)
        .map(|i| {
            let x = (i as f64 * 0.31) % 0.8;
            Rect::new(x, x, x + 0.1, x + 0.1)
        })
        .collect();
    let out = BatchExecutor::new().execute(&mut disk, &queries).unwrap();
    let io = disk.io_stats();
    assert_eq!(io.demand_reads() + io.prefetch_reads, io.reads);
    assert_eq!(io.prefetch_reads, out.stats.prefetched);
    assert_eq!(disk.buffer_stats().accesses, out.stats.work_items);
    assert_eq!(
        disk.buffer_stats().accesses,
        disk.buffer_stats().hits + disk.buffer_stats().misses
    );
}
