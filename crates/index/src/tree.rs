//! The R-tree container: arena storage, construction, and invariant checks.

use crate::bounds::Bounds;
use crate::node::{Node, NodeId};
use crate::split::{QuadraticSplit, SplitPolicy};
use rtree_geom::Rect;
use std::fmt;
use std::sync::Arc;

/// Builder for an empty [`RTree`] used with tuple-at-a-time insertion.
///
/// Defaults match the paper's TAT configuration: Guttman insertion with the
/// quadratic split heuristic and a 40% minimum fill.
pub struct RTreeBuilder<B = Rect> {
    max_entries: usize,
    min_entries: Option<usize>,
    split: Arc<dyn SplitPolicy<B>>,
    reinsert_fraction: Option<f64>,
}

impl<B: Bounds> RTreeBuilder<B> {
    /// Starts a builder with the given node capacity (the paper's `n`).
    ///
    /// # Panics
    /// Panics if `max_entries < 4`.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "node capacity must be at least 4");
        RTreeBuilder {
            max_entries,
            min_entries: None,
            split: Arc::new(QuadraticSplit),
            reinsert_fraction: None,
        }
    }

    /// Overrides the minimum fill (must be `2..=max_entries/2`).
    pub fn min_entries(mut self, m: usize) -> Self {
        assert!(m >= 2 && m <= self.max_entries / 2, "invalid min_entries");
        self.min_entries = Some(m);
        self
    }

    /// Overrides the node split policy (default: [`QuadraticSplit`]).
    pub fn split_policy(mut self, p: impl SplitPolicy<B> + 'static) -> Self {
        self.split = Arc::new(p);
        self
    }

    /// Enables the R*-tree insertion path: on the first overflow at each
    /// level of an insertion, this fraction of the node's entries (those
    /// farthest from the node center) is removed and reinserted instead of
    /// splitting, and ChooseSubtree minimizes overlap enlargement at the
    /// target level (Beckmann et al., the paper's reference [1]).
    ///
    /// # Panics
    /// Panics unless `0 < fraction <= 0.45`.
    pub fn forced_reinsert(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 0.45,
            "reinsert fraction must be in (0, 0.45]"
        );
        self.reinsert_fraction = Some(fraction);
        self
    }

    /// Builds the empty tree.
    pub fn build(self) -> RTree<B> {
        let max = self.max_entries;
        let min = self.min_entries.unwrap_or_else(|| (max * 2 / 5).max(2));
        let nodes = vec![Node::new(0, max)];
        RTree {
            nodes,
            free: Vec::new(),
            root: NodeId(0),
            max_entries: max,
            min_entries: min,
            len: 0,
            split: self.split,
            reinsert_fraction: self.reinsert_fraction,
        }
    }
}

/// An R-tree over `(B, u64)` items — `(Rect, u64)` unless said otherwise.
///
/// Nodes live in an arena (`Vec<Node>`) and are addressed by [`NodeId`]; one
/// node corresponds to one disk page in the buffering study.
#[derive(Clone)]
pub struct RTree<B = Rect> {
    pub(crate) nodes: Vec<Node<B>>,
    pub(crate) free: Vec<NodeId>,
    pub(crate) root: NodeId,
    pub(crate) max_entries: usize,
    pub(crate) min_entries: usize,
    pub(crate) len: usize,
    pub(crate) split: Arc<dyn SplitPolicy<B>>,
    pub(crate) reinsert_fraction: Option<f64>,
}

impl<B: Bounds> fmt::Debug for RTree<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RTree")
            .field("len", &self.len)
            .field("height", &self.height())
            .field("node_count", &self.node_count())
            .field("max_entries", &self.max_entries)
            .field("min_entries", &self.min_entries)
            .finish()
    }
}

impl<B: Bounds> RTree<B> {
    /// Starts building an empty tree with the given node capacity.
    pub fn builder(max_entries: usize) -> RTreeBuilder<B> {
        RTreeBuilder::new(max_entries)
    }

    /// Number of items stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no items are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node capacity (the paper's `n`).
    #[inline]
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Minimum fill enforced by deletion/splits (not binding on the root).
    #[inline]
    pub fn min_entries(&self) -> usize {
        self.min_entries
    }

    /// Root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of levels (a tree with only a root leaf has height 1).
    #[inline]
    pub fn height(&self) -> u32 {
        self.node(self.root).level + 1
    }

    /// Live node count (the number of pages the tree occupies).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Borrows a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node<B> {
        &self.nodes[id.index()]
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node<B> {
        &mut self.nodes[id.index()]
    }

    pub(crate) fn alloc(&mut self, level: u32) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = Node::new(level, self.max_entries);
            id
        } else {
            let id = NodeId::from_index(self.nodes.len());
            self.nodes.push(Node::new(level, self.max_entries));
            id
        }
    }

    pub(crate) fn dealloc(&mut self, id: NodeId) {
        self.nodes[id.index()] = Node::new(0, 0);
        self.free.push(id);
    }

    /// Iterator over the ids of all live nodes, root first, in breadth-first
    /// (level) order — the traversal order used when materializing the tree
    /// onto pages.
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.node_count());
        let mut frontier = vec![self.root];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for id in &frontier {
                let n = self.node(*id);
                if !n.is_leaf() {
                    for i in 0..n.len() {
                        next.push(n.child(i));
                    }
                }
            }
            out.extend_from_slice(&frontier);
            frontier = next;
        }
        out
    }

    /// Iterates over all stored items as `(rect, id)` pairs, in arbitrary
    /// order.
    pub fn items(&self) -> impl Iterator<Item = (B, u64)> + '_ {
        self.node_ids()
            .into_iter()
            .filter(|id| self.node(*id).is_leaf())
            .flat_map(move |id| {
                // node_ids() holds only live ids; collect per-leaf entries.
                self.node(id).entries().collect::<Vec<_>>()
            })
    }

    /// Per-level MBRs of all nodes, **in the paper's level numbering**:
    /// index 0 is the root level, index `H` the leaf level. The MBR of a
    /// node is the tight bounding box of its entries.
    ///
    /// This is the only input the analytic model needs (§3: "we compute the
    /// minimum bounding rectangles of tree nodes and use these as input to
    /// our buffer model").
    pub fn level_mbrs(&self) -> Vec<Vec<B>> {
        let height = self.height() as usize;
        let mut levels: Vec<Vec<B>> = vec![Vec::new(); height];
        for id in self.node_ids() {
            let n = self.node(id);
            if n.is_empty() {
                continue; // only possible for an empty root
            }
            // Paper level = height-1 - node.level (root is paper level 0).
            let paper_level = height - 1 - n.level as usize;
            levels[paper_level].push(n.mbr());
        }
        levels
    }

    /// Checks all structural invariants; used pervasively in tests.
    pub fn validate(&self) -> Result<(), ValidationError> {
        let root = self.node(self.root);
        if self.len == 0 {
            if !(root.is_leaf() && root.is_empty()) {
                return Err(ValidationError::new("empty tree must be a bare leaf root"));
            }
            return Ok(());
        }
        let mut item_count = 0usize;
        self.validate_node(self.root, self.node(self.root).level, true, &mut item_count)?;
        if item_count != self.len {
            return Err(ValidationError::new(format!(
                "item count mismatch: counted {item_count}, len {}",
                self.len
            )));
        }
        Ok(())
    }

    fn validate_node(
        &self,
        id: NodeId,
        expected_level: u32,
        is_root: bool,
        item_count: &mut usize,
    ) -> Result<(), ValidationError> {
        let n = self.node(id);
        if n.level != expected_level {
            return Err(ValidationError::new(format!(
                "node {id:?}: level {} but expected {expected_level}",
                n.level
            )));
        }
        if n.len() > self.max_entries {
            return Err(ValidationError::new(format!(
                "node {id:?}: overflow ({} > {})",
                n.len(),
                self.max_entries
            )));
        }
        if is_root {
            // Guttman: the root has at least two children unless it is a leaf.
            if !n.is_leaf() && n.len() < 2 {
                return Err(ValidationError::new("internal root with < 2 children"));
            }
        }
        for r in n.rects() {
            if !r.is_valid() {
                return Err(ValidationError::new(format!(
                    "node {id:?}: invalid rect {r}"
                )));
            }
        }
        if n.is_leaf() {
            *item_count += n.len();
        } else {
            for i in 0..n.len() {
                let child_id = n.child(i);
                let child = self.node(child_id);
                if child.is_empty() {
                    return Err(ValidationError::new(format!("empty child {child_id:?}")));
                }
                // Bulk-loaded trees may underfill interior slots only on the
                // rightmost path; Guttman trees enforce min_entries. We check
                // the weaker invariant (non-empty) plus tight MBRs, which both
                // construction paths must satisfy.
                let mbr = child.mbr();
                if n.rect(i) != mbr {
                    return Err(ValidationError::new(format!(
                        "node {id:?} entry {i}: stored rect {} != child MBR {mbr}",
                        n.rect(i)
                    )));
                }
                self.validate_node(child_id, expected_level - 1, false, item_count)?;
            }
        }
        Ok(())
    }
}

/// Error produced by [`RTree::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    message: String,
}

impl ValidationError {
    fn new(message: impl Into<String>) -> Self {
        ValidationError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R-tree invariant violated: {}", self.message)
    }
}

impl std::error::Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_is_valid() {
        let t: RTree = RTree::builder(8).build();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.node_count(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn builder_defaults() {
        let t: RTree = RTree::builder(10).build();
        assert_eq!(t.max_entries(), 10);
        assert_eq!(t.min_entries(), 4); // 40% of 10
    }

    #[test]
    fn builder_min_entries_override() {
        let t: RTree = RTree::builder(10).min_entries(5).build();
        assert_eq!(t.min_entries(), 5);
    }

    #[test]
    #[should_panic]
    fn builder_rejects_tiny_capacity() {
        let _: RTreeBuilder = RTree::builder(3);
    }

    #[test]
    #[should_panic]
    fn builder_rejects_bad_min() {
        let _: RTreeBuilder = RTree::builder(8).min_entries(7);
    }

    #[test]
    fn items_iterates_everything() {
        let mut t = RTree::builder(4).build();
        for i in 0..30u64 {
            let v = i as f64 / 40.0;
            t.insert(Rect::new(v, v, v + 0.01, v + 0.01), i);
        }
        let mut ids: Vec<u64> = t.items().map(|(_, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..30).collect::<Vec<u64>>());
        // Rects come back unchanged.
        let (r, id) = t.items().find(|(_, id)| *id == 7).expect("item 7");
        assert_eq!(
            r,
            Rect::new(7.0 / 40.0, 7.0 / 40.0, 7.0 / 40.0 + 0.01, 7.0 / 40.0 + 0.01)
        );
        assert_eq!(id, 7);
    }

    #[test]
    fn items_of_empty_tree() {
        let t: RTree = RTree::builder(4).build();
        assert_eq!(t.items().count(), 0);
    }

    #[test]
    fn alloc_reuses_freed_slots() {
        let mut t: RTree = RTree::builder(8).build();
        let a = t.alloc(0);
        t.dealloc(a);
        let b = t.alloc(1);
        assert_eq!(a, b);
        assert_eq!(t.node(b).level(), 1);
    }
}
