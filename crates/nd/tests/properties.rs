//! Property tests for the N-dimensional layer (3-D instantiation).

use proptest::prelude::*;
use rtree_index::{BulkLoader, RTree};
use rtree_nd::{PointN, RectN, WorkloadN};

fn arb_point() -> impl Strategy<Value = PointN<3>> {
    ([0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0]).prop_map(PointN::new)
}

fn arb_rect() -> impl Strategy<Value = RectN<3>> {
    (arb_point(), arb_point()).prop_map(|(a, b)| RectN::new(a.min(&b), a.max(&b)))
}

fn arb_rects(max: usize) -> impl Strategy<Value = Vec<RectN<3>>> {
    prop::collection::vec(arb_rect(), 1..max)
}

fn scan(rects: &[RectN<3>], q: &RectN<3>) -> Vec<u64> {
    let mut v: Vec<u64> = rects
        .iter()
        .enumerate()
        .filter(|(_, r)| r.intersects(q))
        .map(|(i, _)| i as u64)
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn union_contains_both_3d(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a) && u.contains_rect(&b));
        prop_assert!(u.volume() + 1e-12 >= a.volume().max(b.volume()));
    }

    #[test]
    fn intersection_contained_in_both_3d(a in arb_rect(), b in arb_rect()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i) && b.contains_rect(&i));
        } else {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn centered_expansion_intersection_rule_3d(
        r in arb_rect(),
        c in arb_point(),
        q in [0.0f64..=0.4, 0.0f64..=0.4, 0.0f64..=0.4],
    ) {
        let query = RectN::centered(c, q);
        prop_assert_eq!(
            r.intersects(&query),
            r.expand_centered(&q).contains_point(&c)
        );
    }

    #[test]
    fn str_load_agrees_with_scan_3d(rects in arb_rects(200), q in arb_rect(), cap in 4usize..24) {
        let tree = BulkLoader::str_pack(cap).load(&rects);
        tree.validate().expect("invariants");
        let mut hits = tree.search(&q);
        hits.sort_unstable();
        prop_assert_eq!(hits, scan(&rects, &q));
    }

    #[test]
    fn morton_load_agrees_with_scan_3d(rects in arb_rects(200), q in arb_rect(), cap in 4usize..24) {
        let tree = BulkLoader::morton(cap).load(&rects);
        tree.validate().expect("invariants");
        let mut hits = tree.search(&q);
        hits.sort_unstable();
        prop_assert_eq!(hits, scan(&rects, &q));
    }

    #[test]
    fn insertion_agrees_with_scan_3d(rects in arb_rects(120), q in arb_rect(), cap in 4usize..12) {
        let mut tree = RTree::builder(cap).build();
        for (i, r) in rects.iter().enumerate() {
            tree.insert(*r, i as u64);
        }
        tree.validate().expect("invariants");
        let mut hits = tree.search(&q);
        hits.sort_unstable();
        prop_assert_eq!(hits, scan(&rects, &q));
    }

    #[test]
    fn probabilities_valid_3d(rects in arb_rects(64), q in [0.0f64..0.9, 0.0f64..0.9, 0.0f64..0.9]) {
        let w = WorkloadN::uniform_region(q);
        for r in &rects {
            // Probabilities need clamped rects inside the unit cube.
            if let Some(clamped) = r.intersection(&RectN::unit()) {
                let p = w.access_probability(&clamped);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&p), "p = {}", p);
            }
        }
    }

    #[test]
    fn model_monotone_in_buffer_3d(rects in arb_rects(150), cap in 4usize..16) {
        let tree = BulkLoader::str_pack(cap).load(&rects);
        let model = rtree_nd::buffer_model(&tree, &WorkloadN::uniform_point());
        let total = tree.node_count();
        let mut last = f64::INFINITY;
        for b in [1usize, 2, 4, 8, total.max(1)] {
            let ed = model.expected_disk_accesses(b);
            prop_assert!(ed <= last + 1e-9);
            last = ed;
        }
        prop_assert_eq!(model.expected_disk_accesses(total + 1), 0.0);
    }
}
