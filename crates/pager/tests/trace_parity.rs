//! One span rule for both trees: a single-shard `ConcurrentDiskRTree` and a
//! `DiskRTree` over the same image, driven by the same region / point / kNN
//! / batch stream, must open the same spans, put the same charged events
//! under each, and record the same reads and accesses histograms — and on
//! both, a span is live only while a sink is attached.

use rtree_buffer::LruPolicy;
use rtree_geom::{Point, Rect};
use rtree_index::{BulkLoader, RTree};
use rtree_obs::{EventKind, RingSink, TraceSink};
use rtree_pager::{ConcurrentDiskRTree, DiskRTree, MemStore};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Events per (span, kind). The root peek is left out: the sequential tree
/// peeks inside the span whenever the root is not resident, the concurrent
/// tree once per tree and outside any span — and a peek charges nothing.
fn per_span(sink: &RingSink) -> BTreeMap<(u64, String), u64> {
    assert_eq!(sink.dropped(), 0, "ring sized for the whole run");
    let mut counts = BTreeMap::new();
    for e in sink.events() {
        if e.kind != EventKind::PeekRead {
            *counts
                .entry((e.query_id, format!("{:?}", e.kind)))
                .or_default() += 1;
        }
    }
    counts
}

fn sample_tree(n: usize) -> RTree {
    let rects: Vec<Rect> = (0..n)
        .map(|i| {
            let x = (i as f64 * 0.618_033) % 0.97;
            let y = (i as f64 * 0.414_213) % 0.97;
            Rect::new(x, y, x + 0.01, y + 0.01)
        })
        .collect();
    BulkLoader::hilbert(12).load(&rects)
}

#[test]
fn both_trees_open_the_same_spans_and_record_the_same_metrics() {
    let tree = sample_tree(1_800);
    let image = DiskRTree::create(MemStore::new(), &tree, 4, LruPolicy::new())
        .unwrap()
        .into_store()
        .snapshot();

    // 14 frames: far fewer than the tree's pages, so spans really miss.
    let open = || MemStore::from_bytes(image.clone());
    let mut seq = DiskRTree::open(open(), 14, LruPolicy::new()).unwrap();
    let mut conc = ConcurrentDiskRTree::open(open(), 14, LruPolicy::new()).unwrap();
    let (seq_sink, conc_sink) = (
        Arc::new(RingSink::new(1 << 17)),
        Arc::new(RingSink::new(1 << 17)),
    );
    seq.set_trace_sink(Some(Arc::clone(&seq_sink) as Arc<dyn TraceSink>));
    conc.set_trace_sink(Some(Arc::clone(&conc_sink) as Arc<dyn TraceSink>));

    let sorted = |mut ids: Vec<u64>| {
        ids.sort_unstable();
        ids
    };
    let mut spans = 0u64;
    for i in 0..240u64 {
        let x = (i as f64 * 0.754_877) % 0.9;
        let y = (i as f64 * 0.569_840) % 0.9;
        spans += 1;
        match i % 4 {
            0 => {
                // Every sixth region lies outside the root's MBR: a span
                // all the same, with nothing charged to it.
                let q = if i % 24 == 0 {
                    Rect::new(2.0, 2.0, 3.0, 3.0)
                } else {
                    Rect::new(x, y, x + 0.06, y + 0.06)
                };
                let got = sorted(conc.query(&q).unwrap());
                assert_eq!(sorted(seq.query(&q).unwrap()), got, "region {i}");
            }
            1 => {
                let p = Point::new(x + 0.005, y + 0.005);
                let got = sorted(conc.query_point(&p).unwrap());
                assert_eq!(sorted(seq.query_point(&p).unwrap()), got, "point {i}");
            }
            2 => {
                let p = Point::new(x, y);
                let got = conc.nearest_neighbors(&p, 7).unwrap();
                assert_eq!(seq.nearest_neighbors(&p, 7).unwrap(), got, "kNN {i}");
            }
            _ => {
                let batch: Vec<Rect> = (0..6)
                    .map(|j| {
                        let d = j as f64 * 0.013;
                        Rect::new(x + d, y, x + d + 0.04, y + 0.04)
                    })
                    .collect();
                // No readahead, one worker: the same walk on both trees.
                let got = conc.query_batch(&batch, 1).unwrap();
                assert_eq!(seq.query_batch(&batch, 0).unwrap().results, got);
            }
        }
    }

    let (a, b) = (seq.query_metrics(), conc.query_metrics());
    assert_eq!(a.latency_ns.count(), spans, "one record per operation");
    assert_eq!(a.reads_per_query, b.reads_per_query, "reads histograms");
    assert_eq!(a.pins_per_query, b.pins_per_query, "accesses histograms");
    assert!(a.reads_per_query.sum() > 0, "the run must have missed");
    assert_eq!(a.reads_per_query.sum(), seq.io_stats().reads);
    assert_eq!(a.pins_per_query.sum(), seq.buffer_stats().accesses);

    let events = per_span(&seq_sink);
    assert_eq!(events, per_span(&conc_sink), "per-span event counts");
    assert!(
        events.keys().all(|(span, _)| (1..=spans).contains(span)),
        "every charged event belongs to one of the run's spans"
    );
}

/// 50 queries with no sink leave no span behind; then, with a ring
/// attached, 10 more open spans 1..=10, and each span's miss events equal
/// the physical reads its query did.
macro_rules! spans_are_live_only_with_a_sink {
    ($name:ident, $tree:ident) => {
        #[test]
        fn $name() {
            let (tree, store) = (sample_tree(1_500), MemStore::new());
            let mut tree = $tree::create(store, &tree, 12, LruPolicy::new()).unwrap();
            let region = |i: u64| {
                let x = (i as f64 * 0.754_877) % 0.9;
                let y = (i as f64 * 0.569_840) % 0.9;
                Rect::new(x, y, x + 0.05, y + 0.05)
            };
            for i in 0..50 {
                tree.query(&region(i)).unwrap();
            }
            assert_eq!(tree.query_metrics().latency_ns.count(), 0, "no sink");

            let sink = Arc::new(RingSink::new(1 << 14));
            tree.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
            let mut reads = BTreeMap::new();
            for span in 1..=10u64 {
                let before = tree.io_stats().reads;
                tree.query(&region(50 + span)).unwrap();
                reads.insert(span, tree.io_stats().reads - before);
            }
            assert_eq!(tree.query_metrics().latency_ns.count(), 10);
            assert!(reads.values().sum::<u64>() > 0, "the queries must miss");

            let mut misses: BTreeMap<u64, u64> = BTreeMap::new();
            for e in sink.events() {
                if e.kind != EventKind::PeekRead {
                    assert!((1..=10).contains(&e.query_id), "span {}", e.query_id);
                    *misses.entry(e.query_id).or_default() += u64::from(e.kind == EventKind::Miss);
                }
            }
            assert_eq!(misses, reads, "miss events per span vs physical reads");
        }
    };
}

spans_are_live_only_with_a_sink!(sequential_spans_are_live_only_with_a_sink, DiskRTree);
spans_are_live_only_with_a_sink!(
    concurrent_spans_are_live_only_with_a_sink,
    ConcurrentDiskRTree
);
