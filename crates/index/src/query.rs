//! Region and point search.
//!
//! The traversal retrieves *all and only* the rectangles (internal or not)
//! intersecting the query region — the semantics assumed by both the model
//! and the paper's simulator. [`RTree::trace`] returns the node access
//! sequence, which is what gets replayed against a buffer pool.

use crate::node::NodeId;
use crate::tree::RTree;
use rtree_geom::{Point, Rect};

/// Per-query access statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Number of tree nodes touched (the metric of the bufferless models).
    pub nodes_accessed: usize,
    /// Number of matching items reported.
    pub results: usize,
}

impl RTree {
    /// Returns the ids of all items whose rectangle intersects `query`.
    pub fn search(&self, query: &Rect) -> Vec<u64> {
        let mut out = Vec::new();
        self.search_with(query, |_, _| {}, |id| out.push(id));
        out
    }

    /// Returns the ids of all items whose rectangle contains `p`.
    pub fn point_search(&self, p: &Point) -> Vec<u64> {
        self.search(&Rect::point(*p))
    }

    /// Region search with callbacks: `on_node(id, level)` fires for every
    /// node accessed (root first, depth-first), `on_item` for every match.
    pub fn search_with(
        &self,
        query: &Rect,
        mut on_node: impl FnMut(NodeId, u32),
        mut on_item: impl FnMut(u64),
    ) -> QueryStats {
        let mut stats = QueryStats::default();
        if self.is_empty() {
            return stats;
        }
        // The paper's access semantics: a node is accessed iff its MBR
        // intersects the query. Parent entries encode this for all non-root
        // nodes; the root's own MBR must be checked explicitly (both the
        // analytic model and the paper's simulator treat the root the same
        // way as any other node).
        if !self.node(self.root).mbr().intersects(query) {
            return stats;
        }
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            stats.nodes_accessed += 1;
            on_node(id, n.level());
            if n.is_leaf() {
                for (r, item) in n.entries() {
                    if r.intersects(query) {
                        stats.results += 1;
                        on_item(item);
                    }
                }
            } else {
                for i in 0..n.len() {
                    if n.rect(i).intersects(query) {
                        stack.push(n.child(i));
                    }
                }
            }
        }
        stats
    }

    /// The sequence of nodes a region query touches, root first. A node
    /// appears iff its parent entry rectangle intersects the query, which —
    /// because parent rectangles contain child MBRs — is exactly the set of
    /// all nodes whose MBR intersects the query.
    pub fn trace(&self, query: &Rect) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.search_with(query, |id, _| out.push(id), |_| {});
        out
    }

    /// Counts nodes accessed by a query without materializing results.
    pub fn count_accesses(&self, query: &Rect) -> usize {
        self.search_with(query, |_, _| {}, |_| {}).nodes_accessed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::BulkLoader;

    fn grid_tree(n: usize, cap: usize) -> (RTree, Vec<Rect>) {
        let mut rects = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let x = i as f64 / n as f64;
                let y = j as f64 / n as f64;
                rects.push(Rect::new(x, y, x + 0.5 / n as f64, y + 0.5 / n as f64));
            }
        }
        (BulkLoader::hilbert(cap).load(&rects), rects)
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let t = RTree::builder(4).build();
        assert!(t.search(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert_eq!(t.count_accesses(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0);
    }

    #[test]
    fn full_cover_query_returns_all() {
        let (t, rects) = grid_tree(10, 8);
        let mut hits = t.search(&Rect::new(0.0, 0.0, 1.0, 1.0));
        hits.sort_unstable();
        let expect: Vec<u64> = (0..rects.len() as u64).collect();
        assert_eq!(hits, expect);
    }

    #[test]
    fn search_matches_linear_scan() {
        let (t, rects) = grid_tree(13, 6);
        let queries = [
            Rect::new(0.0, 0.0, 0.3, 0.3),
            Rect::new(0.45, 0.45, 0.55, 0.55),
            Rect::new(0.9, 0.0, 1.0, 1.0),
            Rect::point(Point::new(0.31, 0.72)),
        ];
        for q in &queries {
            let mut hits = t.search(q);
            hits.sort_unstable();
            let mut expect: Vec<u64> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.intersects(q))
                .map(|(i, _)| i as u64)
                .collect();
            expect.sort_unstable();
            assert_eq!(hits, expect);
        }
    }

    #[test]
    fn trace_equals_flat_mbr_scan() {
        // The paper's simulator checks every node MBR independently; the
        // hierarchical traversal must touch exactly the same set.
        let (t, _) = grid_tree(12, 5);
        let q = Rect::new(0.2, 0.3, 0.43, 0.41);
        let mut traced = t.trace(&q);
        traced.sort_unstable();
        let mut flat: Vec<NodeId> = t
            .node_ids()
            .into_iter()
            .filter(|id| t.node(*id).mbr().intersects(&q))
            .collect();
        flat.sort_unstable();
        assert_eq!(traced, flat);
    }

    #[test]
    fn trace_starts_at_root() {
        let (t, _) = grid_tree(10, 5);
        let q = Rect::point(Point::new(0.5, 0.5));
        let trace = t.trace(&q);
        assert_eq!(trace[0], t.root());
    }

    #[test]
    fn stats_count_matches_trace_len() {
        let (t, _) = grid_tree(9, 5);
        let q = Rect::new(0.1, 0.1, 0.6, 0.2);
        assert_eq!(t.count_accesses(&q), t.trace(&q).len());
    }
}
