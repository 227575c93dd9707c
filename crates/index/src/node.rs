//! Tree nodes.
//!
//! A node stores up to `max_entries` entries, each a rectangle plus a
//! pointer — exactly the paper's description of an R-tree node, and exactly
//! what is serialized into one disk page by `rtree-pager`. At leaf level the
//! pointer is an opaque item id; at internal levels it is a child [`NodeId`].

use rtree_geom::Rect;

/// Identifier of a node inside an [`crate::RTree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `NodeId` from a raw index (used by the pager when
    /// mapping nodes to pages).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32"))
    }
}

/// One R-tree node: a level tag plus parallel arrays of rectangles and
/// pointers. `level == 0` is the leaf level (note: the *paper* numbers
/// levels from the root down; the conversion happens in
/// [`crate::RTree::level_mbrs`]).
#[derive(Clone, Debug)]
pub struct Node {
    pub(crate) level: u32,
    pub(crate) rects: Vec<Rect>,
    pub(crate) ptrs: Vec<u64>,
}

impl Node {
    pub(crate) fn new(level: u32, cap: usize) -> Self {
        Node {
            level,
            rects: Vec::with_capacity(cap + 1),
            ptrs: Vec::with_capacity(cap + 1),
        }
    }

    /// Height of this node above the leaf level (0 = leaf).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// True if this is a leaf node.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True if the node has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The rectangle of entry `i`.
    #[inline]
    pub fn rect(&self, i: usize) -> Rect {
        self.rects[i]
    }

    /// All entry rectangles.
    #[inline]
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Raw pointer value of entry `i` (child node index or item id).
    #[inline]
    pub fn ptr(&self, i: usize) -> u64 {
        self.ptrs[i]
    }

    /// Child node id of entry `i`.
    ///
    /// # Panics
    /// Panics if this is a leaf node.
    #[inline]
    pub fn child(&self, i: usize) -> NodeId {
        assert!(!self.is_leaf(), "leaf nodes have no children");
        NodeId(self.ptrs[i] as u32)
    }

    /// Item id of entry `i`.
    ///
    /// # Panics
    /// Panics if this is an internal node.
    #[inline]
    pub fn item_id(&self, i: usize) -> u64 {
        assert!(self.is_leaf(), "internal nodes have no items");
        self.ptrs[i]
    }

    /// Minimum bounding rectangle of all entries.
    ///
    /// # Panics
    /// Panics if the node is empty.
    pub fn mbr(&self) -> Rect {
        Rect::mbr_of(&self.rects)
    }

    /// Iterator over `(rect, pointer)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (Rect, u64)> + '_ {
        self.rects.iter().copied().zip(self.ptrs.iter().copied())
    }

    pub(crate) fn push(&mut self, rect: Rect, ptr: u64) {
        self.rects.push(rect);
        self.ptrs.push(ptr);
    }

    pub(crate) fn remove(&mut self, i: usize) -> (Rect, u64) {
        (self.rects.swap_remove(i), self.ptrs.swap_remove(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_accessors() {
        let mut n = Node::new(0, 4);
        assert!(n.is_leaf());
        assert!(n.is_empty());
        n.push(Rect::new(0.0, 0.0, 0.5, 0.5), 7);
        n.push(Rect::new(0.25, 0.25, 1.0, 1.0), 9);
        assert_eq!(n.len(), 2);
        assert_eq!(n.item_id(0), 7);
        assert_eq!(n.mbr(), Rect::new(0.0, 0.0, 1.0, 1.0));
        let entries: Vec<_> = n.entries().collect();
        assert_eq!(entries[1], (Rect::new(0.25, 0.25, 1.0, 1.0), 9));
    }

    #[test]
    fn child_accessor_on_internal() {
        let mut n = Node::new(2, 4);
        n.push(Rect::new(0.0, 0.0, 0.1, 0.1), 3);
        assert_eq!(n.child(0), NodeId(3));
        assert!(!n.is_leaf());
    }

    #[test]
    #[should_panic]
    fn child_on_leaf_panics() {
        let mut n = Node::new(0, 4);
        n.push(Rect::new(0.0, 0.0, 0.1, 0.1), 3);
        let _ = n.child(0);
    }

    #[test]
    #[should_panic]
    fn item_on_internal_panics() {
        let mut n = Node::new(1, 4);
        n.push(Rect::new(0.0, 0.0, 0.1, 0.1), 3);
        let _ = n.item_id(0);
    }

    #[test]
    fn remove_swaps() {
        let mut n = Node::new(0, 4);
        n.push(Rect::new(0.0, 0.0, 0.1, 0.1), 1);
        n.push(Rect::new(0.2, 0.2, 0.3, 0.3), 2);
        n.push(Rect::new(0.4, 0.4, 0.5, 0.5), 3);
        let (_, id) = n.remove(0);
        assert_eq!(id, 1);
        assert_eq!(n.len(), 2);
        assert_eq!(n.item_id(0), 3); // swap_remove moved the last entry in
    }

    #[test]
    fn node_id_round_trip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
    }
}
