//! A read on a warm, fully resident tree allocates only the answer it
//! returns: every page is a buffer hit, and the walks keep their working
//! vectors between calls, so what is left to the allocator is the `Vec`
//! handed back (none at all for an empty answer).
//!
//! A counting global allocator counts the calls each thread makes; the
//! stream is the benchmark's own kind (clustered points on a compressed
//! image, Zipf-skewed region, point and kNN queries).

use rtree_buffer::LruPolicy;
use rtree_datagen::trace::{generate, MixWeights, Skew, TraceOp, TraceSpec};
use rtree_datagen::ClusteredPoints;
use rtree_geom::Rect;
use rtree_index::BulkLoader;
use rtree_pager::{DiskRTree, MemStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold as they are; counting touches a
// `const`-initialised thread-local `Cell<u64>`, which neither allocates nor
// panics (`try_with` skips a thread already tearing its locals down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_resident_read_allocates_only_its_answer() {
    let points = ClusteredPoints::new(100_000, 64, 0.02).generate(42);
    let tree = BulkLoader::hilbert(100).load(&points);
    let disk =
        DiskRTree::create_compressed(MemStore::new(), &tree, 4_096, LruPolicy::new()).unwrap();
    let pages = disk.meta().nodes as usize;
    assert!(pages < 4_096, "the buffer holds the whole image");
    disk.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();

    let spec = TraceSpec {
        ops: 6_000,
        qx: 0.003,
        qy: 0.003,
        skew: Skew::Zipf { theta: 0.99 },
        mix: MixWeights::read_only(),
        seed: 7,
    };
    let stream = generate(&points, &spec).ops;
    let run = |op: &TraceOp| match op {
        TraceOp::Region(r) => disk.query(r).unwrap().len(),
        TraceOp::Point(p) => disk.query_point(p).unwrap().len(),
        TraceOp::Knn(p, k) => disk.nearest_neighbors(p, *k as usize).unwrap().len(),
        TraceOp::Insert(..) | TraceOp::Delete(..) => unreachable!("a read-only mix"),
    };
    // Warm-up: every page resident, and the walks' vectors grown.
    for op in &stream {
        run(op);
    }
    let reads = disk.physical_reads();

    // [calls, operations, results] per kind: region, point, kNN.
    let mut tally = [[0u64; 3]; 3];
    for op in &stream {
        let kind = match op {
            TraceOp::Region(_) => 0,
            TraceOp::Point(_) => 1,
            _ => 2,
        };
        let before = CALLS.with(Cell::get);
        let results = run(op);
        let calls = CALLS.with(Cell::get) - before;
        let t = &mut tally[kind];
        (t[0], t[1], t[2]) = (t[0] + calls, t[1] + 1, t[2] + results as u64);
    }
    assert_eq!(disk.physical_reads(), reads, "every access was a hit");
    for (name, [calls, ops, results], bound) in [
        ("region", tally[0], 1.5),
        ("point", tally[1], 1.5),
        ("kNN", tally[2], 2.0),
    ] {
        assert!(
            ops > 0 && results > 0,
            "the stream has {name} queries with answers"
        );
        let mean = calls as f64 / ops as f64;
        assert!(
            mean <= bound,
            "{name}: {mean:.2} allocator calls per query over {ops} queries (bound {bound})"
        );
    }
}
