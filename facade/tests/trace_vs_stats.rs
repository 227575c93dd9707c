//! Differential suite for the trace layer: the event stream emitted by the
//! pager's trace hooks must reconcile *exactly* with the counters the
//! buffer manager keeps anyway (`IoStats`, `BufferStats`) — on the
//! sequential `DiskRTree`, on both writers' write paths, and on the sharded
//! `ConcurrentDiskRTree` under real concurrency. The last two tests run
//! with no sink attached: the accounting must not depend on one.

use buffered_rtrees::buffer::{
    ClockPolicy, FifoPolicy, LruKPolicy, LruPolicy, RandomPolicy, ReplacementPolicy,
};
use buffered_rtrees::datagen::SyntheticRegion;
use buffered_rtrees::geom::Rect;
use buffered_rtrees::index::{BulkLoader, RTree};
use buffered_rtrees::model::Workload;
use buffered_rtrees::obs::{CountingSink, EventKind, IoEvent, TraceSink};
use buffered_rtrees::pager::{ConcurrentDiskRTree, DiskRTree, MemStore};
use buffered_rtrees::sim::QuerySampler;
use buffered_rtrees::wal::{GroupWal, MemLog};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Keeps every event, in arrival order.
#[derive(Default)]
struct EventLog(Mutex<Vec<IoEvent>>);

impl TraceSink for EventLog {
    fn record(&self, event: IoEvent) {
        self.0.lock().unwrap().push(event);
    }
}

impl EventLog {
    fn events(&self) -> Vec<IoEvent> {
        self.0.lock().unwrap().clone()
    }
}

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
        disk.attach_wal(GroupWal::open(MemLog::new()).unwrap());

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

/// Span attribution: replaying queries one at a time, the per-query
/// physical read delta reported by `query_counting` equals the number
/// of Miss events carrying that query's id, and every traversal event
/// has a known level.
#[test]
fn ring_sink_attributes_reads_to_query_ids() {
    let tree = sample_tree(1_500, 3);
    let mut disk = DiskRTree::create(MemStore::new(), &tree, 20, LruPolicy::new()).unwrap();
    let sink = Arc::new(EventLog::default());
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

/// Batched execution path: Miss events equal the physical read counter,
/// and Hit + Miss events the pool's accesses, for every policy. A batch
/// touches each page once, so the hits come from the pinned root.
#[test]
fn batch_trace_reconciles_with_io_stats() {
    let tree = sample_tree(2_000, 13);
    for (name, policy) in policies(0xABBA) {
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 32, policy).unwrap();
        let sink = Arc::new(CountingSink::new());
        disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
        disk.pin_top_levels(1).unwrap();

        let workload = Workload::uniform_region(0.04, 0.04);
        let mut sampler = QuerySampler::new(&workload, 4321);
        let stream: Vec<_> = (0..600).map(|_| sampler.sample()).collect();
        for chunk in stream.chunks(32) {
            disk.query_batch(chunk, 1).unwrap();
        }

        let io = disk.io_stats();
        let pool = disk.buffer_stats();
        let c = sink.counts();
        assert_eq!(c.misses, io.reads, "{name}: misses vs physical reads");
        assert_eq!(c.peek_reads, io.peek_reads, "{name}: peek reads");
        assert_eq!(c.accesses(), pool.accesses, "{name}: logical accesses");
        assert_eq!(c.hits, pool.hits, "{name}: hits");
        assert_eq!(c.hits + c.misses, pool.accesses, "{name}: hits + misses");
        assert!(
            c.misses > 0 && c.hits > 0,
            "{name}: the run both missed and hit"
        );
    }
}

/// Batch span attribution: each batch runs under one operation id; the
/// Miss events carrying that id equal the batch's physical read delta,
/// and every batch event knows its level.
#[test]
fn batch_ring_attributes_reads_to_spans() {
    let tree = sample_tree(1_500, 31);
    let mut disk = DiskRTree::create(MemStore::new(), &tree, 24, LruPolicy::new()).unwrap();
    let sink = Arc::new(EventLog::default());
    disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));

    let workload = Workload::uniform_region(0.05, 0.05);
    let mut sampler = QuerySampler::new(&workload, 55);
    let mut reads_by_span: HashMap<u64, u64> = HashMap::new();
    let mut span = 0u64;
    for _ in 0..40 {
        let chunk: Vec<_> = (0..16).map(|_| sampler.sample()).collect();
        let before = disk.physical_reads();
        disk.query_batch(&chunk, 1).unwrap();
        span += 1; // op ids are allocated monotonically from 1
        reads_by_span.insert(span, disk.physical_reads() - before);
    }

    let mut read_events: HashMap<u64, u64> = HashMap::new();
    for e in sink.events() {
        if e.kind == EventKind::Miss && e.query_id != 0 {
            *read_events.entry(e.query_id).or_default() += 1;
        }
        if matches!(e.kind, EventKind::Hit | EventKind::Miss) {
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

/// Writable concurrent path: inserts, deletes and a checkpoint, which
/// writes the overlay back through the tree's one shard — every page write
/// is a traced write-back, for every policy.
#[test]
fn writable_concurrent_trace_reconciles_with_io_stats() {
    let rects = SyntheticRegion::new(600).generate(41);
    for (name, policy) in policies(0xFACE) {
        let mut disk = ConcurrentDiskRTree::create_writable(
            MemStore::new(),
            12,
            5,
            16,
            policy,
            GroupWal::open(MemLog::new()).unwrap(),
        )
        .unwrap();
        let sink = Arc::new(CountingSink::new());
        disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
        for (i, r) in rects.iter().enumerate() {
            disk.insert(r, i as u64).unwrap();
        }
        disk.checkpoint().unwrap();
        for (i, r) in rects.iter().enumerate().take(200) {
            assert!(disk.delete(r, i as u64).unwrap(), "{name}: delete {i}");
        }
        disk.checkpoint().unwrap();

        let io = disk.io_stats();
        let pool = disk.buffer_stats();
        let c = sink.counts();
        assert_eq!(c.write_backs, io.writes, "{name}: write backs");
        assert_eq!(c.misses, io.reads, "{name}: misses vs physical reads");
        assert_eq!(c.peek_reads, io.peek_reads, "{name}: peek reads");
        assert_eq!(c.accesses(), pool.accesses, "{name}: logical accesses");
        assert!(c.write_backs > 0, "{name}: the checkpoints wrote pages");
    }
}

/// Concurrent counting soundness: after 4 workers join, the counting
/// sink's per-level slots sum to its totals, and the totals reconcile with
/// the shard counters.
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
    let sink = Arc::new(CountingSink::new());
    disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
    let disk = Arc::new(disk);

    std::thread::scope(|scope| {
        for t in 0..4u64 {
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

    let c = sink.counts();
    let levels = sink.level_counts();
    let level_hits: u64 = levels.iter().map(|l| l.hits).sum();
    let level_misses: u64 = levels.iter().map(|l| l.misses).sum();
    assert_eq!(
        (level_hits, level_misses),
        (c.hits, c.misses),
        "levels vs totals"
    );
    assert!(
        levels.iter().all(|l| l.level >= 0),
        "every traversal event knows its level"
    );

    let io = disk.io_stats();
    let pool = disk.buffer_stats();
    assert_eq!(c.misses, io.reads, "misses vs physical reads");
    assert_eq!(c.peek_reads, io.peek_reads, "peeks vs peek reads");
    assert_eq!(c.hits, pool.hits, "hits vs pool hits");
    assert_eq!(c.accesses(), pool.accesses, "events vs accesses");
    assert!(c.misses > 0 && c.hits > 0, "the run both missed and hit");
    assert_eq!(
        (
            c.write_backs,
            c.wal_appends,
            c.latch_waits,
            c.group_commit_flushes
        ),
        (0, 0, 0, 0),
        "read-only run emits only traversal events"
    );
}

/// With no sink attached the query path counts exactly as before.
#[test]
fn no_sink_path_still_counts_reads() {
    let rects = SyntheticRegion::new(800).generate(5);
    let tree = BulkLoader::hilbert(16).load(&rects);
    let disk = DiskRTree::create(MemStore::new(), &tree, 10, LruPolicy::new()).unwrap();
    let all = Rect::new(0.0, 0.0, 1.0, 1.0);
    let hits = disk.query(&all).unwrap();
    assert_eq!(hits.len(), 800);
    assert!(disk.io_stats().reads > 0);
    assert_eq!(
        disk.buffer_stats().accesses,
        disk.buffer_stats().hits + disk.buffer_stats().misses
    );
}

/// The batch path's read accounting (one pool access per work item, split
/// into hits and misses, the misses being the physical reads) holds with
/// no sink attached too.
#[test]
fn no_sink_batch_path_splits_read_accounting() {
    let rects = SyntheticRegion::new(1_200).generate(9);
    let tree = BulkLoader::hilbert(10).load(&rects);
    let disk = DiskRTree::create(MemStore::new(), &tree, 48, LruPolicy::new()).unwrap();
    let queries: Vec<Rect> = (0..24)
        .map(|i| {
            let x = (i as f64 * 0.31) % 0.8;
            Rect::new(x, x, x + 0.1, x + 0.1)
        })
        .collect();
    let out = disk.query_batch(&queries, 1).unwrap();
    assert_eq!(disk.io_stats().reads, disk.buffer_stats().misses);
    assert_eq!(disk.buffer_stats().accesses, out.stats.work_items);
    assert_eq!(
        disk.buffer_stats().accesses,
        disk.buffer_stats().hits + disk.buffer_stats().misses
    );
}
