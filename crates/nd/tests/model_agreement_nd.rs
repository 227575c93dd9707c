//! The paper's §4 validation, repeated in higher dimensions: the
//! dimension-free buffer model driven by N-D access probabilities must
//! agree with an LRU simulation over the N-D tree. This is the concrete
//! form of the paper's "generalizations to higher dimensions are
//! straightforward".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_buffer::{BufferPool, LruPolicy, PageId};
use rtree_index::{BulkLoader, NodeId, RTree};
use rtree_nd::{buffer_model, PointN, RectN, WorkloadN};
use std::collections::HashMap;

fn scattered<const D: usize>(n: usize, seed: u64) -> Vec<RectN<D>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut c = [0.0; D];
            for v in c.iter_mut() {
                *v = rng.gen_range(0.02..0.98);
            }
            RectN::centered(PointN::new(c), [0.012; D])
        })
        .collect()
}

/// Simulates LRU disk accesses per query for a uniform workload.
fn simulate<const D: usize>(
    tree: &RTree<RectN<D>>,
    workload: &WorkloadN<D>,
    buffer: usize,
    queries: usize,
    seed: u64,
) -> (f64, f64) {
    // `node_ids` is level order, root first: the page numbering the
    // probability matrix of `access_probabilities` is aligned with.
    let pages: HashMap<NodeId, u64> = tree.node_ids().into_iter().zip(0..).collect();
    let mut pool = BufferPool::new(buffer, LruPolicy::new());
    let mut rng = StdRng::seed_from_u64(seed);
    let q = workload.sizes();
    let sample = move |rng: &mut StdRng| -> RectN<D> {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            let tr = rng.gen_range(q[i]..=1.0);
            lo[i] = tr - q[i];
            hi[i] = tr;
        }
        RectN::new(PointN::new(lo), PointN::new(hi))
    };

    // Warm-up.
    let mut warm = 0usize;
    while !pool.is_full() && warm < 60_000 {
        let query = sample(&mut rng);
        tree.search_with(
            &query,
            |id, _| {
                pool.access(PageId(pages[&id]));
            },
            |_| {},
        );
        warm += 1;
    }
    pool.reset_stats();

    let mut misses = 0u64;
    let mut nodes = 0u64;
    for _ in 0..queries {
        let query = sample(&mut rng);
        tree.search_with(
            &query,
            |id, _| {
                nodes += 1;
                if pool.access(PageId(pages[&id])).is_miss() {
                    misses += 1;
                }
            },
            |_| {},
        );
    }
    (
        misses as f64 / queries as f64,
        nodes as f64 / queries as f64,
    )
}

fn check<const D: usize>(n: usize, cap: usize, q: [f64; D], buffers: &[usize]) {
    let rects = scattered::<D>(n, 42 + D as u64);
    let tree = BulkLoader::str_pack(cap).load(&rects);
    tree.validate().expect("valid tree");
    let workload = if q.iter().all(|&v| v == 0.0) {
        WorkloadN::uniform_point()
    } else {
        WorkloadN::uniform_region(q)
    };
    let model = buffer_model(&tree, &workload);

    for &b in buffers {
        let (sim_ed, sim_nodes) = simulate(&tree, &workload, b, 30_000, 7 + b as u64);
        let predicted = model.expected_disk_accesses(b);
        // Bufferless sanity first.
        let visits = model.expected_node_accesses();
        assert!(
            (visits - sim_nodes).abs() / sim_nodes.max(1e-9) < 0.08,
            "{D}-D node accesses: model {visits:.3} vs sim {sim_nodes:.3}"
        );
        let diff = (predicted - sim_ed).abs();
        assert!(
            diff <= 0.07 || diff / sim_ed.max(1e-9) <= 0.15,
            "{D}-D at B={b}: model {predicted:.4} vs sim {sim_ed:.4}"
        );
    }
}

#[test]
fn three_d_point_queries_agree() {
    check::<3>(4_000, 16, [0.0; 3], &[20, 80]);
}

#[test]
fn three_d_region_queries_agree() {
    check::<3>(4_000, 16, [0.1; 3], &[40, 120]);
}

#[test]
fn four_d_point_queries_agree() {
    check::<4>(3_000, 16, [0.0; 4], &[20, 80]);
}

#[test]
fn two_d_special_case_matches_main_crate() {
    // The N-D implementation at D = 2 must agree with the dedicated 2-D
    // crates on access probabilities for the same rectangles.
    let rects2d: Vec<rtree_geom::Rect> = (0..300)
        .map(|i| {
            let x = (i as f64 * 0.618_033) % 0.9;
            let y = (i as f64 * 0.414_213) % 0.9;
            rtree_geom::Rect::new(x, y, x + 0.05, y + 0.05)
        })
        .collect();
    let w2 = rtree_core::Workload::uniform_region(0.07, 0.13);
    let wn = WorkloadN::uniform_region([0.07, 0.13]);
    for r in &rects2d {
        let rn = RectN::new(PointN::new([r.lo.x, r.lo.y]), PointN::new([r.hi.x, r.hi.y]));
        let a = w2.access_probability(r);
        let b = wn.access_probability(&rn);
        assert!((a - b).abs() < 1e-12, "2-D mismatch: {a} vs {b}");
    }
}

#[test]
fn data_driven_probabilities_in_3d() {
    let rects = scattered::<3>(1_000, 99);
    let tree = BulkLoader::str_pack(16).load(&rects);
    let centers: Vec<PointN<3>> = rects.iter().map(RectN::center).collect();
    let workload = WorkloadN::data_driven([0.05; 3], centers);
    let model = buffer_model(&tree, &workload);
    // Sanity: data-driven accesses at least hit the root and one leaf path.
    assert!(model.expected_node_accesses() >= tree.height() as f64 * 0.5);
    assert!(model.expected_disk_accesses(10) <= model.expected_node_accesses());
}
