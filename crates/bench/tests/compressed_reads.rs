//! What the compressed page format (v4) buys, in page counts: at an equal
//! frame budget a v4 image of the same tree costs fewer physical reads per
//! operation than the v3 image, under every replacement policy, and the
//! paper's buffer model — run over each *on-disk image* — predicts the
//! size of the gap.
//!
//! v4 packs 253 internal entries per page against v3's 102, so the
//! repacked tree is one level shallower and more of a starved buffer is
//! left for leaves. Both images answer every query identically (the
//! conservative quantizer only over-visits), so the read counts compare
//! the same work. Every number here is a count: the streams, the policies
//! (RANDOM is seeded) and the images are deterministic.

use rtree_bench::{synthetic_region, Loader};
use rtree_buffer::{PageId, PolicyKind, ReplacementPolicy};
use rtree_core::{BufferModel, TreeDescription, Workload};
use rtree_datagen::trace::{center_pool, generate, MixWeights, Skew, TraceOp, TraceSpec};
use rtree_geom::Rect;
use rtree_index::{BulkLoader, RTree};
use rtree_pager::{DiskRTree, IoStats, MemStore, NodePage, PageStore, PAGE_SIZE};

#[derive(Clone, Copy)]
enum Format {
    V3,
    V4,
}

fn materialize(
    format: Format,
    tree: &RTree,
    frames: usize,
    policy: Box<dyn ReplacementPolicy>,
) -> DiskRTree<MemStore> {
    match format {
        Format::V3 => DiskRTree::create(MemStore::new(), tree, frames, policy),
        Format::V4 => DiskRTree::create_compressed(MemStore::new(), tree, frames, policy),
    }
    .expect("materialize")
}

/// Applies every op and returns the I/O it cost and an order-sensitive
/// digest of the answers. kNN absorbs distances, not ids: which of several
/// equidistant items comes back is an artifact of the page layout, the
/// distance sequence is not.
fn replay(tree: &mut DiskRTree<MemStore>, ops: &[TraceOp]) -> (IoStats, u64) {
    tree.reset_counters();
    let mut digest = 0u64;
    let mut absorb =
        |id: u64| digest = digest.rotate_left(7) ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for op in ops {
        match op {
            TraceOp::Region(r) => tree
                .query(r)
                .expect("region")
                .into_iter()
                .for_each(&mut absorb),
            TraceOp::Point(p) => tree
                .query_point(p)
                .expect("point")
                .into_iter()
                .for_each(&mut absorb),
            TraceOp::Knn(p, k) => tree
                .nearest_neighbors(p, *k as usize)
                .expect("knn")
                .into_iter()
                .for_each(|n| absorb(n.distance.to_bits())),
            TraceOp::Insert(r, id) => tree.insert(*r, *id).expect("insert"),
            TraceOp::Delete(r, id) => absorb(u64::from(tree.delete(r, *id).expect("delete"))),
        }
    }
    (tree.io_stats(), digest)
}

/// The image's bytes and its per-level MBRs as stored, so for v4 the model
/// sees the repacked internal levels and their conservatively rounded
/// MBRs — the rectangles traversal actually tests.
fn image(format: Format, tree: &RTree) -> (Vec<u8>, TreeDescription) {
    let disk = materialize(format, tree, 1, PolicyKind::Lru.build(0));
    let meta = disk.meta().clone();
    let mut store = disk.into_store();
    let mut buf = vec![0u8; PAGE_SIZE];
    let starts = &meta.level_starts;
    let levels = (0..starts.len())
        .map(|k| {
            let end = starts.get(k + 1).copied().unwrap_or(meta.nodes + 1);
            (starts[k]..end)
                .map(|id| {
                    store.read_page(PageId(id), &mut buf).expect("read page");
                    let node = NodePage::decode(&buf).expect("decode page");
                    let rects: Vec<Rect> = node.entries.iter().map(|(r, _)| *r).collect();
                    Rect::mbr_of(&rects)
                })
                .collect()
        })
        .collect();
    (store.snapshot(), TreeDescription::from_levels(levels))
}

fn spec(ops: usize, mix: MixWeights, seed: u64) -> TraceSpec {
    TraceSpec {
        ops,
        qx: 0.05,
        qy: 0.05,
        skew: Skew::Zipf { theta: 1.0 },
        mix,
        seed,
    }
}

/// Zipf(1.0) read-only stream at 12 frames over 4 000 synthetic regions
/// (HS, cap 30: 134 leaves under two internal levels on v3, one 253-entry
/// level on v4), replayed after a 750-op read-only warm-up. Reads are
/// pinned exactly; the measured v4/v3 ratio under LRU, the policy the
/// model describes, must land within ±0.35 of the model's ratio
/// (0.770 against 0.772).
#[test]
fn v4_reads_fewer_pages_than_v3_on_zipf_under_every_policy() {
    let (frames, ops) = (12, 3_000);
    let rects = synthetic_region(4_000);
    let tree = Loader::Hs.build(30, &rects);
    let measured = spec(ops, MixWeights::read_only(), 0x7AC3 + 3);
    let warm = generate(
        &rects,
        &spec(ops / 4, MixWeights::read_only(), measured.seed ^ 0xFF),
    );
    let trace = generate(&rects, &measured);
    // The model draws its centers from the pool the generator used.
    let workload = Workload::data_driven(
        0.05,
        0.05,
        center_pool(&rects, measured.skew, measured.seed),
    );
    let images = [image(Format::V3, &tree), image(Format::V4, &tree)];
    let [model_v3, model_v4] = images
        .each_ref()
        .map(|(_, desc)| BufferModel::new(desc, &workload).expected_disk_accesses(frames));
    assert!(
        (model_v3 - 3.0381).abs() < 1e-4 && (model_v4 - 2.3448).abs() < 1e-4,
        "model {model_v3} -> {model_v4}"
    );

    // (v3, v4) physical reads over the 3 000 measured ops, per policy.
    let expected: [(u64, u64); 5] = [
        (9070, 6985),
        (10306, 7547),
        (8769, 6930),
        (8209, 6062),
        (10191, 7526),
    ];
    for (policy, want) in PolicyKind::ALL.into_iter().zip(expected) {
        let [(v3, v3_answers), (v4, v4_answers)] = images.each_ref().map(|(bytes, _)| {
            let store = MemStore::from_bytes(bytes.clone());
            let mut disk = DiskRTree::open(store, frames, policy.build(0xD1CE)).expect("open");
            replay(&mut disk, &warm.ops);
            replay(&mut disk, &trace.ops)
        });
        let name = policy.name();
        assert_eq!(
            v3_answers, v4_answers,
            "{name}: v4 answers diverged from v3"
        );
        assert_eq!((v3.reads, v4.reads), want, "{name}: reads moved");
        assert!(v4.reads < v3.reads, "{name}: v4 does not read fewer pages");
        if policy == PolicyKind::Lru {
            let measured_ratio = v4.reads as f64 / v3.reads as f64;
            let model_ratio = model_v4 / model_v3;
            assert!(
                (measured_ratio - model_ratio).abs() <= 0.35,
                "{name}: ratio {measured_ratio:.3} vs model {model_ratio:.3}"
            );
        }
    }
}

fn data(n: usize) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.618_033) % 0.95;
            let y = (i as f64 * 0.414_213) % 0.95;
            Rect::new(x, y, x + 0.01, y + 0.01)
        })
        .collect()
}

/// Two cold replays against fresh materializations of one tree issue the
/// same I/O and return the same answers, and a v4 image answers the stream
/// exactly like v3 with no more reads.
#[test]
fn replay_digests_are_deterministic_and_format_independent() {
    let rects = data(900);
    let tree = BulkLoader::hilbert(16).load(&rects);
    let lru = || PolicyKind::Lru.build(0);
    let ops = generate(&rects, &spec(400, MixWeights::read_only(), 42)).ops;
    let (v3, v3_answers) = replay(&mut materialize(Format::V3, &tree, 12, lru()), &ops);
    let again = replay(&mut materialize(Format::V3, &tree, 12, lru()), &ops);
    assert_eq!((v3, v3_answers), again);
    let (v4, v4_answers) = replay(&mut materialize(Format::V4, &tree, 12, lru()), &ops);
    assert_eq!(v3_answers, v4_answers, "v4 must answer exactly like v3");
    assert!(v4.reads <= v3.reads);
}

#[test]
fn described_store_matches_v4_repack() {
    let tree = BulkLoader::hilbert(16).load(&data(1_200));
    let (_, d3) = image(Format::V3, &tree);
    let (_, d4) = image(Format::V4, &tree);
    // Same leaf level, fewer pages above it.
    assert_eq!(
        d3.level(d3.height() - 1).len(),
        d4.level(d4.height() - 1).len()
    );
    assert!(d4.total_nodes() < d3.total_nodes());
    // The smaller footprint shows in the model at a starved frame budget.
    let w = Workload::uniform_region(0.04, 0.04);
    let model = |d| BufferModel::new(d, &w).expected_disk_accesses(8);
    assert!(model(&d4) < model(&d3));
}
