//! N-dimensional generalization of the buffered R-tree study.
//!
//! The paper describes everything in 2-D "for notational simplicity" and
//! notes that "R-trees generalize easily to dimensions higher than two"
//! and that model "generalizations to higher dimensions are
//! straightforward". This crate delivers both, const-generic over the
//! dimension `D`:
//!
//! * [`PointN`] / [`RectN`] — hyper-rectangle algebra (volume, margin,
//!   per-axis extents, the center-fixed expansion of §3.2 and the
//!   corner-extension of §3.1 generalized to products over axes).
//! * `impl rtree_index::Bounds for RectN<D>` — which is all the R-tree
//!   needs: `RTree<RectN<D>>` is the workspace's one in-memory tree
//!   (Guttman quadratic-split insertion, region search, level MBRs,
//!   validation) and `BulkLoader` its one packing loader (NX, STR by the
//!   slab rule of the authors' STR paper, Morton, and HS over the N-D
//!   Hilbert curve of Skilling's transpose algorithm, [`HilbertCurveN`]).
//! * [`WorkloadN`] — uniform point, uniform region (boundary-clamped) and
//!   data-driven access probabilities over the unit hypercube.
//! * The buffer model itself is dimension-free: [`WorkloadN`] produces the
//!   per-level probability matrix and [`rtree_core::BufferModel`] consumes
//!   it via `from_probabilities` unchanged — which is precisely the
//!   paper's "straightforward" claim, made concrete.
//!
//! What stays 2-D only is what `rtree-index` fences off on `RTree<Rect>`
//! (deletion, kNN, tree statistics, the linear and R* splits) and
//! everything below the tree: the pager's page format stores four
//! coordinates per entry. The N-D pipeline is validated against an LRU
//! simulation in 3-D and 4-D in `tests/model_agreement_nd.rs`.

mod bounds;
mod hilbert;
mod point;
mod rect;
mod workload;

pub use hilbert::{hilbert_index_nd, HilbertCurveN};
pub use point::PointN;
pub use rect::RectN;
pub use workload::WorkloadN;

use rtree_index::RTree;

/// Builds the dimension-free buffer model from an N-D tree and workload.
pub fn buffer_model<const D: usize>(
    tree: &RTree<RectN<D>>,
    workload: &WorkloadN<D>,
) -> rtree_core::BufferModel {
    rtree_core::BufferModel::from_probabilities(workload.access_probabilities(&tree.level_mbrs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_index::BulkLoader;

    #[test]
    fn end_to_end_model_in_three_dimensions() {
        // A quick 3-D smoke test of the whole pipeline.
        let rects: Vec<RectN<3>> = (0..500)
            .map(|i| {
                let c = PointN::new([
                    (i as f64 * 0.618_033_988) % 0.95 + 0.02,
                    (i as f64 * 0.414_213_562) % 0.95 + 0.02,
                    (i as f64 * 0.259_921_049) % 0.95 + 0.02,
                ]);
                RectN::centered(c, [0.02; 3])
            })
            .collect();
        let tree = BulkLoader::str_pack(16).load(&rects);
        tree.validate().expect("valid 3-D tree");
        let model = buffer_model(&tree, &WorkloadN::uniform_point());
        let all = tree.node_count();
        assert!(model.expected_node_accesses() >= 1.0);
        assert_eq!(model.expected_disk_accesses(all + 1), 0.0);
        assert!(model.expected_disk_accesses(2) > model.expected_disk_accesses(all / 2));
    }
}
