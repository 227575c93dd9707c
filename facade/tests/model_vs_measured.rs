//! Model-vs-measured differential suite: the paper's
//! analytic LRU buffer model (eq. 6) against the *real* disk-backed tree —
//! not the flat page-stream simulator — across tree shapes × workloads ×
//! all five replacement policies, plus the pinned variant.
//!
//! The measured quantity is steady-state physical reads per query from the
//! pager's `IoStats` after a model-sized warm-up. Tolerances:
//!
//! * **LRU / CLOCK** — the model *is* an LRU model, and CLOCK approximates
//!   LRU stack behaviour closely on these read-only streams: 12% relative
//!   or 0.06 reads/query absolute, the same band the sim-side agreement
//!   tests use for short runs (the paper's ≤2% needs 20 × 1M-query
//!   batches).
//! * **LRU-2** — scan-resistant: single-touch leaf pages never displace
//!   twice-touched internals, so LRU-2 *beats* plain LRU on point-query
//!   streams and the LRU model overestimates it by up to ~35%. The band is
//!   40% relative / 0.15 absolute, one-sided in practice.
//! * **FIFO / RANDOM** — no recency: the model is knowingly wrong for
//!   them, but the paper's point survives — it still lands in the right
//!   regime. 35% relative or 0.15 absolute documents exactly how far off
//!   "wrong policy, right model" runs.
//!
//! A failure here means the analytic model and the pager diverged — one of
//! them (or the warm-up handling) has a bug.

use buffered_rtrees::buffer::{
    ClockPolicy, FifoPolicy, LruKPolicy, LruPolicy, RandomPolicy, ReplacementPolicy,
};
use buffered_rtrees::datagen::zipf_workload;
use buffered_rtrees::geom::{Point, Rect};
use buffered_rtrees::index::BulkLoader;
use buffered_rtrees::model::{BufferModel, TreeDescription, Workload};
use buffered_rtrees::pager::{DiskRTree, MemStore};
use buffered_rtrees::sim::QuerySampler;

const POLICIES: &[&str] = &["LRU", "LRU2", "FIFO", "CLOCK", "RANDOM"];

fn policy(name: &str) -> Box<dyn ReplacementPolicy> {
    match name {
        "LRU" => Box::new(LruPolicy::new()),
        "LRU2" => Box::new(LruKPolicy::lru2()),
        "FIFO" => Box::new(FifoPolicy::new()),
        "CLOCK" => Box::new(ClockPolicy::new()),
        "RANDOM" => Box::new(RandomPolicy::new(0xD1FF)),
        other => panic!("unknown policy {other}"),
    }
}

/// (relative, absolute) tolerance band for a policy, per the module docs.
fn tolerance(name: &str) -> (f64, f64) {
    match name {
        "LRU2" => (0.40, 0.15),
        "FIFO" | "RANDOM" => (0.35, 0.15),
        _ => (0.12, 0.06),
    }
}

fn assert_close(model: f64, measured: f64, rel: f64, abs: f64, what: &str) {
    let diff = (model - measured).abs();
    assert!(
        diff <= abs || diff / measured.abs().max(1e-12) <= rel,
        "{what}: model {model:.4} vs measured {measured:.4} \
         (diff {diff:.4}, band {rel:.2}/{abs:.2})"
    );
}

fn scattered_squares(n: usize, seed_mix: f64) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.618_033_988 + seed_mix) % 1.0;
            let y = (i as f64 * 0.414_213_562 + seed_mix * 0.37) % 1.0;
            Rect::centered(
                Point::new(x.clamp(0.01, 0.99), y.clamp(0.01, 0.99)),
                0.012,
                0.012,
            )
        })
        .collect()
}

/// Steady-state physical reads per query on the real disk tree: warm up
/// past the model's own `N*` (bounded), reset the physical counters,
/// then measure.
fn measure(
    tree: &buffered_rtrees::index::RTree,
    workload: &Workload,
    buffer: usize,
    pin: usize,
    policy: Box<dyn ReplacementPolicy>,
    model: &BufferModel,
    seed: u64,
) -> f64 {
    let disk = DiskRTree::create(MemStore::new(), tree, buffer, policy).expect("create");
    if pin > 0 {
        disk.pin_top_levels(pin).expect("pin");
    }
    let warm = match model.warmup(buffer).queries() {
        Some(n) => (n as usize).saturating_mul(4).clamp(1_000, 12_000),
        None => 1_000,
    };
    let mut sampler = QuerySampler::new(workload, seed);
    for _ in 0..warm {
        disk.query(&sampler.sample()).expect("warm query");
    }
    disk.reset_counters();
    let queries = 4_000;
    for _ in 0..queries {
        disk.query(&sampler.sample()).expect("query");
    }
    disk.io_stats().reads as f64 / queries as f64
}

/// The full differential matrix for one tree shape.
fn check_shape(rects: &[Rect], cap: usize, buffers: &[usize], label: &str) {
    let tree = BulkLoader::hilbert(cap).load(rects);
    let desc = TreeDescription::from_tree(&tree);
    let workloads = [
        ("point", Workload::uniform_point()),
        ("region5", Workload::uniform_region(0.05, 0.05)),
        // Zipf(1.1) query-follows-data: the skewed stream the online
        // controller is built for, via the same center-multiset trick.
        ("zipf", zipf_workload(rects, 0.02, 0.02, 1.1, 4_096, 0xA11)),
    ];
    for (wname, workload) in &workloads {
        let model = BufferModel::new(&desc, workload);
        for &b in buffers {
            for &pname in POLICIES {
                let measured = measure(&tree, workload, b, 0, policy(pname), &model, 0x5EED);
                let (rel, abs) = tolerance(pname);
                assert_close(
                    model.expected_disk_accesses(b),
                    measured,
                    rel,
                    abs,
                    &format!("{label}/{wname}/B={b}/{pname}"),
                );
            }
        }
    }
}

#[test]
fn model_matches_disk_tree_across_policies_shape_a() {
    // Three levels: [1, ~13, ~250] at cap 20.
    let rects = scattered_squares(5_000, 0.0);
    check_shape(&rects, 20, &[25, 80], "hs20");
}

#[test]
fn model_matches_disk_tree_across_policies_shape_b() {
    // Four levels at cap 10: deeper tree, different fan-out, STR packing.
    let rects = scattered_squares(3_000, 0.5);
    let tree = BulkLoader::str_pack(10).load(&rects);
    let desc = TreeDescription::from_tree(&tree);
    assert!(
        desc.height() >= 3,
        "shape b must be deep: {:?}",
        desc.nodes_per_level()
    );
    let workloads = [
        ("point", Workload::uniform_point()),
        ("region5", Workload::uniform_region(0.05, 0.05)),
    ];
    for (wname, workload) in &workloads {
        let model = BufferModel::new(&desc, workload);
        for &b in &[30usize, 90] {
            for &pname in POLICIES {
                let measured = measure(&tree, workload, b, 0, policy(pname), &model, 0x5EED);
                let (rel, abs) = tolerance(pname);
                assert_close(
                    model.expected_disk_accesses(b),
                    measured,
                    rel,
                    abs,
                    &format!("str10/{wname}/B={b}/{pname}"),
                );
            }
        }
    }
}

#[test]
fn pinned_model_matches_pinned_disk_tree() {
    // The pinned variant (eq. 6 on the unpinned levels with capacity
    // B − pinned) against a tree with `pin_top_levels` actually applied.
    // LRU only: pinning is defined within the LRU model.
    let rects = scattered_squares(5_000, 0.0);
    let tree = BulkLoader::hilbert(20).load(&rects);
    let desc = TreeDescription::from_tree(&tree);
    for workload in [
        Workload::uniform_point(),
        Workload::uniform_region(0.05, 0.05),
    ] {
        let model = BufferModel::new(&desc, &workload);
        for b in [25usize, 80] {
            for pin in 1..=2usize {
                let Ok(expected) = model.expected_disk_accesses_pinned(b, pin) else {
                    continue; // infeasible pinning at this buffer
                };
                let measured = measure(
                    &tree,
                    &workload,
                    b,
                    pin,
                    Box::new(LruPolicy::new()),
                    &model,
                    0x5EED,
                );
                assert_close(
                    expected,
                    measured,
                    0.12,
                    0.06,
                    &format!("pinned/B={b}/pin={pin}"),
                );
            }
        }
    }
}
