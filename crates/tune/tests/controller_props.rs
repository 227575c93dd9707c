//! Property tests for the self-tuning controller (ISSUE 8 satellite):
//!
//! 1. **Floor** — a committed decision never asks for a buffer below the
//!    configured floor, below its own pinning's page count, or above the
//!    budget; actuation order (unpin → resize → re-pin) means the live
//!    tree's pinned frames never block the resize either.
//! 2. **Convergence** — on a stationary workload the decision sequence
//!    goes quiescent after at most a handful of moves.
//! 3. **Hysteresis / min-interval** — over any query stream, committed
//!    decisions are bounded by `1 + (ticks − 1) / min_interval`.
//! 4. **Transparency** — adaptive query answers equal non-adaptive ones:
//!    tuning only moves caching state, never results.

use proptest::prelude::*;
use rtree_buffer::LruPolicy;
use rtree_core::TreeDescription;
use rtree_geom::Rect;
use rtree_index::BulkLoader;
use rtree_pager::{DiskRTree, MemStore};
use rtree_tune::{actuate, Controller, ControllerConfig, Setting};

fn sample_rects(n: usize, stride: f64) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * stride) % 0.95;
            let y = (i as f64 * (stride * 0.7 + 0.1)) % 0.95;
            Rect::new(x, y, x + 0.01, y + 0.01)
        })
        .collect()
}

/// Deterministic query stream: uniform when `cluster` is false, confined
/// to one corner cell when true.
fn query(i: usize, cluster: bool) -> Rect {
    let (cx, cy) = if cluster {
        (
            0.05 + (i as f64 * 0.618_033_988) % 0.1,
            0.05 + (i as f64 * 0.414_213_562) % 0.1,
        )
    } else {
        (
            (i as f64 * 0.618_033_988) % 0.9,
            (i as f64 * 0.414_213_562) % 0.9,
        )
    };
    Rect::new(cx, cy, cx + 0.05, cy + 0.05)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: every committed decision respects the floor, the
    /// budget, and leaves at least one unpinned frame for its pinning.
    #[test]
    fn decisions_respect_floor_budget_and_pinning(
        budget in 8usize..128,
        min_buffer in 1usize..16,
        items in 400usize..2_000,
        cluster in any::<bool>(),
        batches in 4usize..20,
    ) {
        let rects = sample_rects(items, 0.618_033);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let desc = TreeDescription::from_tree(&tree);
        let min_buffer = min_buffer.min(budget);
        let cfg = ControllerConfig {
            min_buffer,
            min_samples: 32,
            min_interval: 1,
            ..ControllerConfig::new(budget)
        };
        let initial = Setting { buffer: budget, pin_levels: 0 };
        let c = Controller::new(desc.clone(), initial, cfg);
        let mut fed = 0usize;
        for _ in 0..batches {
            for _ in 0..64 {
                let q = query(fed, cluster);
                c.observe_query(&q);
                fed += 1;
            }
            c.tick_with(|_| Ok(())).unwrap();
        }
        for d in c.decisions() {
            prop_assert!(d.to.buffer >= min_buffer, "below floor: {d}");
            prop_assert!(d.to.buffer <= budget, "over budget: {d}");
            let pinned: usize = desc.pages_in_top_levels(d.to.pin_levels);
            prop_assert!(
                pinned < d.to.buffer || d.to.pin_levels == desc.height(),
                "pinning {} pages does not fit {} frames: {d}",
                pinned,
                d.to.buffer
            );
        }
    }

    /// Property 3: hysteresis plus the minimum interval bound how often
    /// the controller may actuate, whatever the stream does.
    #[test]
    fn actuation_frequency_is_bounded(
        min_interval in 1u64..16,
        ticks in 1usize..80,
        flip_every in 1usize..10,
    ) {
        let rects = sample_rects(1_200, 0.618_033);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let cfg = ControllerConfig {
            min_samples: 16,
            min_interval,
            ..ControllerConfig::new(64)
        };
        let c = Controller::new(
            TreeDescription::from_tree(&tree),
            Setting { buffer: 64, pin_levels: 0 },
            cfg,
        );
        let mut fed = 0usize;
        let mut committed = 0u64;
        for t in 0..ticks {
            // An adversarial stream: the distribution flips repeatedly.
            let cluster = (t / flip_every) % 2 == 0;
            for _ in 0..48 {
                let q = query(fed, cluster);
                c.observe_query(&q);
                fed += 1;
            }
            if c.tick_with(|_| Ok(())).unwrap().is_some() {
                committed += 1;
            }
        }
        let bound = 1 + (ticks as u64 - 1) / min_interval;
        prop_assert!(
            committed <= bound,
            "{committed} actuations in {ticks} ticks exceeds bound {bound}"
        );
    }
}

/// Property 2: a stationary workload quiesces — after the first few
/// moves the decision sequence stops growing for good.
#[test]
fn stationary_workload_quiesces() {
    for cluster in [false, true] {
        let rects = sample_rects(1_500, 0.618_033);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk = DiskRTree::create(MemStore::new(), &tree, 96, LruPolicy::new()).unwrap();
        let cfg = ControllerConfig {
            min_samples: 64,
            min_interval: 2,
            ..ControllerConfig::new(96)
        };
        let c = Controller::new(
            TreeDescription::from_tree(&tree),
            Setting {
                buffer: 96,
                pin_levels: 0,
            },
            cfg,
        );
        let mut fed = 0usize;
        let mut last_decision_tick = 0u64;
        for _ in 0..60 {
            for _ in 0..32 {
                let q = query(fed, cluster);
                c.observe_query(&q);
                disk.query(&q).unwrap();
                fed += 1;
            }
            if let Some(d) = c.tick_with(|s| actuate(&disk, s)).unwrap() {
                last_decision_tick = d.tick;
            }
        }
        assert!(
            last_decision_tick <= 20,
            "cluster={cluster}: still actuating at tick {last_decision_tick}"
        );
        assert!(
            c.decisions().len() <= 3,
            "cluster={cluster}: {} decisions on a stationary stream",
            c.decisions().len()
        );
    }
}

/// Property 4: tuning never changes query answers — run the same stream
/// (with a mid-run distribution shift) against a tuned and an untuned
/// tree and compare every result.
#[test]
fn adaptive_results_equal_non_adaptive_results() {
    let rects = sample_rects(1_800, 0.618_033);
    let tree = BulkLoader::hilbert(16).load(&rects);
    let tuned = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
    let plain = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
    let cfg = ControllerConfig {
        min_samples: 32,
        min_interval: 2,
        hysteresis: 0.01,
        ..ControllerConfig::new(64)
    };
    let c = Controller::new(
        TreeDescription::from_tree(&tree),
        Setting {
            buffer: 64,
            pin_levels: 0,
        },
        cfg,
    );
    let mut decisions = 0usize;
    for i in 0..1_200 {
        let q = query(i, i >= 600);
        c.observe_query(&q);
        let mut a = tuned.query(&q).unwrap();
        let mut b = plain.query(&q).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "query {i} diverged");
        if i % 20 == 0 && c.tick_with(|s| actuate(&tuned, s)).unwrap().is_some() {
            decisions += 1;
        }
    }
    assert!(
        decisions >= 1,
        "the shift must trigger at least one actuation"
    );
}
