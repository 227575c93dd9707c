//! Tree statistics: the geometric aggregates the analytic model is built on
//! (`M_i`, `A`, `Lx`, `Ly`) plus packing-quality measures.

use crate::tree::RTree;
use rtree_geom::Rect;

/// Aggregates for one tree level (paper numbering: level 0 = root).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LevelStats {
    /// Number of nodes at this level (the paper's `M_i`).
    pub nodes: usize,
    /// Sum of node MBR areas at this level.
    pub total_area: f64,
    /// Sum of node MBR x-extents (contribution to `Lx`).
    pub total_x_extent: f64,
    /// Sum of node MBR y-extents (contribution to `Ly`).
    pub total_y_extent: f64,
    /// Average node fill (entries / capacity).
    pub avg_fill: f64,
}

/// Whole-tree statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TreeStats {
    /// Per-level aggregates, root (level 0) first.
    pub levels: Vec<LevelStats>,
    /// Total number of nodes `M`.
    pub total_nodes: usize,
    /// Sum of all MBR areas (the paper's `A`).
    pub total_area: f64,
    /// Sum of all MBR x-extents (the paper's `Lx`).
    pub total_x_extent: f64,
    /// Sum of all MBR y-extents (the paper's `Ly`).
    pub total_y_extent: f64,
    /// Number of items stored.
    pub items: usize,
    /// Overall space utilization: items / (leaf nodes × capacity).
    pub leaf_utilization: f64,
}

impl TreeStats {
    /// Nodes per level, root first — the content of the paper's Table 2.
    pub fn nodes_per_level(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.nodes).collect()
    }
}

impl RTree {
    /// Computes per-level and whole-tree statistics.
    pub fn stats(&self) -> TreeStats {
        let height = self.height() as usize;
        let mut levels = vec![LevelStats::default(); height];
        let mut fill_sums = vec![0usize; height];
        for id in self.node_ids() {
            let n = self.node(id);
            if n.is_empty() {
                continue;
            }
            let paper_level = height - 1 - n.level() as usize;
            let mbr = n.mbr();
            let l = &mut levels[paper_level];
            l.nodes += 1;
            l.total_area += mbr.area();
            l.total_x_extent += mbr.x_extent();
            l.total_y_extent += mbr.y_extent();
            fill_sums[paper_level] += n.len();
        }
        for (l, &fill) in levels.iter_mut().zip(fill_sums.iter()) {
            if l.nodes > 0 {
                l.avg_fill = fill as f64 / (l.nodes * self.max_entries()) as f64;
            }
        }
        let leaf = levels.last().copied().unwrap_or_default();
        TreeStats {
            total_nodes: levels.iter().map(|l| l.nodes).sum(),
            total_area: levels.iter().map(|l| l.total_area).sum(),
            total_x_extent: levels.iter().map(|l| l.total_x_extent).sum(),
            total_y_extent: levels.iter().map(|l| l.total_y_extent).sum(),
            items: self.len(),
            leaf_utilization: if leaf.nodes > 0 {
                self.len() as f64 / (leaf.nodes * self.max_entries()) as f64
            } else {
                0.0
            },
            levels,
        }
    }
}

/// Convenience: aggregates over a plain list of rectangles (used to report
/// model inputs for externally supplied MBR lists).
pub fn rect_aggregates(rects: &[Rect]) -> (f64, f64, f64) {
    let mut area = 0.0;
    let mut lx = 0.0;
    let mut ly = 0.0;
    for r in rects {
        area += r.area();
        lx += r.x_extent();
        ly += r.y_extent();
    }
    (area, lx, ly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::BulkLoader;
    use rtree_geom::Point;

    fn sample_tree(n: usize, cap: usize) -> RTree {
        let rects: Vec<Rect> = (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033_988) % 1.0;
                let y = (i as f64 * 0.414_213_562) % 1.0;
                Rect::centered(
                    Point::new(x.clamp(0.01, 0.99), y.clamp(0.01, 0.99)),
                    0.01,
                    0.01,
                )
            })
            .collect();
        BulkLoader::hilbert(cap).load(&rects)
    }

    #[test]
    fn nodes_per_level_matches_ceil_division() {
        // This arithmetic is what produces the paper's Table 2.
        let t = sample_tree(1000, 25);
        let s = t.stats();
        // 1000/25 = 40 leaves, 40/25 -> 2, then the root.
        assert_eq!(s.nodes_per_level(), vec![1, 2, 40]);
        assert_eq!(s.total_nodes, 43);
        assert_eq!(s.items, 1000);
    }

    #[test]
    fn packed_leaves_are_full() {
        let t = sample_tree(1000, 25);
        let s = t.stats();
        assert!((s.leaf_utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn root_level_is_first() {
        let t = sample_tree(1000, 25);
        let s = t.stats();
        assert_eq!(s.levels[0].nodes, 1);
        // Root MBR covers everything, so its area >= any leaf's.
        assert!(s.levels[0].total_area <= 1.0 + 1e-9);
        assert!(s.levels[0].total_area >= s.levels[2].total_area / s.levels[2].nodes as f64);
    }

    #[test]
    fn aggregates_are_sums_over_levels() {
        let t = sample_tree(500, 10);
        let s = t.stats();
        let area: f64 = s.levels.iter().map(|l| l.total_area).sum();
        assert!((area - s.total_area).abs() < 1e-12);
        // level_mbrs agrees with stats.
        let mbrs = t.level_mbrs();
        assert_eq!(mbrs.len(), s.levels.len());
        for (lvl, rects) in mbrs.iter().enumerate() {
            assert_eq!(rects.len(), s.levels[lvl].nodes);
            let (a, lx, ly) = rect_aggregates(rects);
            assert!((a - s.levels[lvl].total_area).abs() < 1e-12);
            assert!((lx - s.levels[lvl].total_x_extent).abs() < 1e-12);
            assert!((ly - s.levels[lvl].total_y_extent).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_tree_stats() {
        let t = RTree::builder(8).build();
        let s = t.stats();
        assert_eq!(s.total_nodes, 0);
        assert_eq!(s.items, 0);
        assert_eq!(s.leaf_utilization, 0.0);
    }
}
