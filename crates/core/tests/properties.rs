//! Property-based tests for the analytic models: structural invariants
//! that must hold for *any* tree description and workload.

use proptest::prelude::*;
use rtree_core::{BufferModel, MixedWorkload, NodeAccessModel, TreeDescription, Workload};
use rtree_geom::{Point, Rect};

/// A random but well-formed tree description: a root covering everything,
/// plus 1–3 lower levels of rectangles inside the unit square.
fn arb_desc() -> impl Strategy<Value = TreeDescription> {
    let rect = ((0.0f64..=0.9, 0.0f64..=0.9), (0.01f64..=0.4, 0.01f64..=0.4))
        .prop_map(|((x, y), (w, h))| Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0)));
    prop::collection::vec(prop::collection::vec(rect, 1..24), 1..4).prop_map(|mut levels| {
        // Make it a plausible hierarchy: root = MBR of everything.
        let all: Vec<Rect> = levels.iter().flatten().copied().collect();
        let root = Rect::mbr_of(&all);
        let mut v = vec![vec![root]];
        v.append(&mut levels);
        TreeDescription::from_levels(v)
    })
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(Workload::uniform_point()),
        (0.0f64..0.9, 0.0f64..0.9).prop_map(|(qx, qy)| Workload::uniform_region(qx, qy)),
        (
            prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 1..40),
            0.0f64..0.5
        )
            .prop_map(|(pts, q)| {
                let centers: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
                Workload::data_driven(q, q, centers)
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn probabilities_are_valid(desc in arb_desc(), w in arb_workload()) {
        for level in w.access_probabilities(&desc) {
            for p in level {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&p), "p = {p}");
            }
        }
    }

    #[test]
    fn distinct_nodes_monotone_and_bounded(desc in arb_desc(), w in arb_workload()) {
        let m = BufferModel::new(&desc, &w);
        let mut last = 0.0;
        for n in [1u64, 2, 5, 20, 100, 10_000] {
            let d = m.distinct_nodes(n);
            prop_assert!(d + 1e-9 >= last, "D not monotone at N={n}");
            prop_assert!(d <= desc.total_nodes() as f64 + 1e-9);
            last = d;
        }
        // D(1) is the expected nodes per query.
        prop_assert!((m.distinct_nodes(1) - m.expected_node_accesses()).abs() < 1e-9);
    }

    #[test]
    fn disk_accesses_monotone_in_buffer(desc in arb_desc(), w in arb_workload()) {
        let m = BufferModel::new(&desc, &w);
        let total = desc.total_nodes();
        let mut last = f64::INFINITY;
        for b in [1usize, 2, 4, 8, 16, 32, total.max(1)] {
            let ed = m.expected_disk_accesses(b);
            prop_assert!(ed <= last + 1e-9, "ED not monotone at B={b}");
            prop_assert!(ed >= -1e-12);
            last = ed;
        }
        prop_assert_eq!(m.expected_disk_accesses(total + 1), 0.0);
    }

    #[test]
    fn disk_accesses_never_exceed_node_accesses(desc in arb_desc(), w in arb_workload(), b in 1usize..64) {
        let m = BufferModel::new(&desc, &w);
        prop_assert!(m.expected_disk_accesses(b) <= m.expected_node_accesses() + 1e-9);
    }

    #[test]
    fn pinned_results_are_bounded_and_whole_tree_is_free(
        desc in arb_desc(), w in arb_workload(), b in 2usize..128,
    ) {
        // NOTE: "pinning never hurts" is NOT asserted for arbitrary
        // descriptions — the model correctly predicts a penalty when the
        // pinned levels are colder than what they displace. The paper's
        // claim is about real R-trees (hot roots); `facade/tests/paper_claims.rs`
        // checks it on loader-built trees.
        let m = BufferModel::new(&desc, &w);
        for p in 1..=m.max_pinnable_levels(b) {
            if let Ok(pinned) = m.expected_disk_accesses_pinned(b, p) {
                prop_assert!(pinned >= -1e-12);
                prop_assert!(pinned <= m.expected_node_accesses() + 1e-9);
            }
        }
        let all = desc.height();
        if m.pinned_pages(all) < b {
            prop_assert_eq!(m.expected_disk_accesses_pinned(b, all).unwrap(), 0.0);
        }
    }

    #[test]
    fn kf_closed_form_matches_sum_for_interior_trees(desc in arb_desc()) {
        // For point queries with all-interior MBRs the clamped sum equals
        // the closed-form A.
        let model = NodeAccessModel::new(&desc);
        let diff = (model.kamel_faloutsos(0.0, 0.0)
            - model.expected_node_accesses(&Workload::uniform_point()))
        .abs();
        prop_assert!(diff < 1e-9);
    }

    #[test]
    fn region_probability_matches_rect_algebra(desc in arb_desc(), q in (0.0f64..0.9, 0.0f64..0.9)) {
        // The closed-form C*D probability must equal the geometric
        // definition: area(extend_tr(R) ∩ U') / area(U').
        let (qx, qy) = q;
        let w = Workload::uniform_region(qx, qy);
        let u_prime = Rect::new(qx, qy, 1.0, 1.0);
        for (_, r) in desc.iter() {
            let expect = r
                .extend_tr(qx, qy)
                .intersection(&u_prime)
                .map_or(0.0, |i| i.area())
                / u_prime.area();
            prop_assert!((w.access_probability(r) - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn mixture_probability_is_convex_combination(
        desc in arb_desc(),
        wa in arb_workload(),
        wb in arb_workload(),
        weight in 0.01f64..0.99,
    ) {
        let mix = MixedWorkload::new(vec![(weight, wa.clone()), (1.0 - weight, wb.clone())]);
        let ma = BufferModel::new(&desc, &wa).expected_node_accesses();
        let mb = BufferModel::new(&desc, &wb).expected_node_accesses();
        let mm = BufferModel::new_mixed(&desc, &mix).expected_node_accesses();
        prop_assert!((mm - (weight * ma + (1.0 - weight) * mb)).abs() < 1e-9);
    }

    #[test]
    fn warmup_is_monotone_in_buffer(desc in arb_desc(), w in arb_workload()) {
        let m = BufferModel::new(&desc, &w);
        let mut last = 0u64;
        for b in [1usize, 2, 4, 8, 16] {
            match m.warmup_queries(b) {
                Some(n) => {
                    prop_assert!(n >= last, "N* not monotone at B={b}");
                    last = n;
                }
                None => {
                    // Once the buffer holds everything, it holds everything
                    // for all larger buffers too.
                    prop_assert_eq!(m.warmup_queries(b * 2), None);
                }
            }
        }
    }
}
