//! Tuple-at-a-time insertion: Guttman's algorithm (the paper's TAT loader)
//! plus the R*-tree insertion path (reference [1] of the paper) as an
//! opt-in — overlap-aware ChooseSubtree and forced reinsertion.

use crate::node::NodeId;
use crate::tree::RTree;
use rtree_geom::Rect;
use std::sync::Arc;

/// Guttman's ChooseLeaf criterion over the entries of one node: the slot
/// whose rectangle needs the least enlargement to include `new`, ties
/// broken by smaller area, then lower slot. The pager's on-page insert
/// descends by this function too.
pub fn choose_subtree<'a>(rects: impl IntoIterator<Item = &'a Rect>, new: &Rect) -> usize {
    let mut best = 0usize;
    let mut best_enl = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, r) in rects.into_iter().enumerate() {
        let enl = r.enlargement(new);
        let area = r.area();
        if enl < best_enl || (enl == best_enl && area < best_area) {
            best = i;
            best_enl = enl;
            best_area = area;
        }
    }
    best
}

impl RTree {
    /// Inserts one item using the tree's configured insertion algorithm:
    /// Guttman by default (ChooseLeaf by least enlargement, split on
    /// overflow, AdjustTree upward), or the R* path when the tree was built
    /// with [`crate::RTreeBuilder::forced_reinsert`].
    pub fn insert(&mut self, rect: Rect, id: u64) {
        assert!(rect.is_valid(), "cannot insert invalid rect {rect}");
        self.insert_at_level(rect, id, 0);
        self.len += 1;
    }

    /// Inserts an entry at a given node level (level 0 = leaf). Levels above
    /// 0 are used by condense-tree and forced reinsertion to re-attach
    /// subtrees; `ptr` is then a child [`NodeId`] index.
    pub(crate) fn insert_at_level(&mut self, rect: Rect, ptr: u64, level: u32) {
        if self.reinsert_fraction.is_some() {
            // One forced reinsert per level per top-level insertion
            // (R* overflow treatment); levels fit in a u64 bitmask.
            let mut reinserted: u64 = 0;
            self.insert_entry(rect, ptr, level, &mut reinserted);
        } else {
            let mut no_reinserts = u64::MAX; // every level already "done"
            self.insert_entry(rect, ptr, level, &mut no_reinserts);
        }
    }

    /// Chooses the child slot to descend into from `node` for an entry with
    /// rectangle `rect` heading to `target_level`.
    fn choose_subtree_slot(&self, node: NodeId, rect: &Rect, target_level: u32) -> usize {
        let n = self.node(node);
        // R* refinement: when the children are at the target level, minimize
        // *overlap* enlargement (ties: area enlargement, then area). Only
        // active for R*-configured trees; Guttman always uses enlargement.
        if self.reinsert_fraction.is_some() && n.level() == target_level + 1 {
            let rects = n.rects();
            let overlap = |a: &Rect, b: &Rect| a.intersection(b).map_or(0.0, |i| i.area());
            let mut best = 0usize;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for (i, r) in rects.iter().enumerate() {
                let grown = r.union(rect);
                let mut overlap_delta = 0.0;
                for (j, other) in rects.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    overlap_delta += overlap(&grown, other) - overlap(r, other);
                }
                let key = (overlap_delta, r.enlargement(rect), r.area());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            return best;
        }
        choose_subtree(n.rects(), rect)
    }

    /// Core insertion: descend to `level`, install, then resolve overflows
    /// walking back up (forced reinsert once per level if configured,
    /// otherwise split).
    fn insert_entry(&mut self, rect: Rect, ptr: u64, level: u32, reinserted: &mut u64) {
        debug_assert!(level <= self.node(self.root).level);

        let mut path: Vec<(NodeId, usize)> = Vec::new();
        let mut current = self.root;
        while self.node(current).level > level {
            let slot = self.choose_subtree_slot(current, &rect, level);
            path.push((current, slot));
            current = self.node(current).child(slot);
        }

        self.node_mut(current).push(rect, ptr);

        // Resolve an overflow at `current` (bottom), then walk up.
        let mut split_off: Option<NodeId> = None;
        if self.node(current).len() > self.max_entries {
            match self.try_forced_reinsert(current, &path, reinserted) {
                Some(removed) => {
                    // Tree is consistent again; reinsert and stop this walk.
                    self.reinsert_entries(removed, reinserted);
                    return;
                }
                None => split_off = Some(self.split_node(current)),
            }
        }

        while let Some((parent, slot)) = path.pop() {
            // Refresh the parent's rectangle for the adjusted child.
            let child_id = self.node(parent).child(slot);
            let mbr = self.node(child_id).mbr();
            self.node_mut(parent).rects[slot] = mbr;

            if let Some(new_node) = split_off.take() {
                let new_mbr = self.node(new_node).mbr();
                self.node_mut(parent).push(new_mbr, new_node.index() as u64);
                if self.node(parent).len() > self.max_entries {
                    match self.try_forced_reinsert(parent, &path, reinserted) {
                        Some(removed) => {
                            self.finish_tightening(&mut path);
                            self.reinsert_entries(removed, reinserted);
                            return;
                        }
                        None => split_off = Some(self.split_node(parent)),
                    }
                }
            }
        }

        // Root split: grow the tree by one level.
        if let Some(new_node) = split_off {
            let old_root = self.root;
            let root_level = self.node(old_root).level + 1;
            let new_root = self.alloc(root_level);
            let m1 = self.node(old_root).mbr();
            let m2 = self.node(new_node).mbr();
            let r = self.node_mut(new_root);
            r.push(m1, old_root.index() as u64);
            r.push(m2, new_node.index() as u64);
            self.root = new_root;
        }
    }

    /// R* overflow treatment: if enabled, not yet done at this node's level
    /// during the current insertion, and the node is not the root, remove
    /// the ~30% of entries whose centers lie farthest from the node's MBR
    /// center, tighten every ancestor on `path`, and return the removed
    /// entries as `(level, rect, ptr)` for reinsertion.
    fn try_forced_reinsert(
        &mut self,
        node: NodeId,
        path: &[(NodeId, usize)],
        reinserted: &mut u64,
    ) -> Option<Vec<(u32, Rect, u64)>> {
        let fraction = self.reinsert_fraction?;
        let level = self.node(node).level;
        let is_root = node == self.root;
        if is_root || level >= 64 || (*reinserted >> level) & 1 == 1 {
            return None;
        }
        let len = self.node(node).len();
        let p = ((len as f64 * fraction).ceil() as usize)
            .max(1)
            .min(len.saturating_sub(self.min_entries));
        if p == 0 {
            return None;
        }
        *reinserted |= 1 << level;

        // Sort entry indices by distance of their center from the node MBR
        // center, farthest first ("far" candidates leave).
        let center = self.node(node).mbr().center();
        let mut order: Vec<usize> = (0..len).collect();
        let n = self.node(node);
        order.sort_by(|&a, &b| {
            let da = n.rect(a).center().distance(&center);
            let db = n.rect(b).center().distance(&center);
            db.partial_cmp(&da).expect("finite distances")
        });
        let mut doomed: Vec<usize> = order[..p].to_vec();
        // Remove by descending index so swap_remove stays stable.
        doomed.sort_unstable_by(|a, b| b.cmp(a));
        let mut removed = Vec::with_capacity(p);
        for i in doomed {
            let (r, ptr) = self.node_mut(node).remove(i);
            removed.push((level, r, ptr));
        }
        // Close-reinsert (the R* paper's recommendation): nearest first.
        removed.sort_by(|a, b| {
            let da = a.1.center().distance(&center);
            let db = b.1.center().distance(&center);
            da.partial_cmp(&db).expect("finite distances")
        });

        // Tighten every ancestor on the path, bottom-up.
        for &(parent, slot) in path.iter().rev() {
            let child_id = self.node(parent).child(slot);
            let mbr = self.node(child_id).mbr();
            self.node_mut(parent).rects[slot] = mbr;
        }
        Some(removed)
    }

    /// Tightens the remaining ancestors of a walk that ends early because a
    /// forced reinsert resolved the overflow.
    fn finish_tightening(&mut self, path: &mut Vec<(NodeId, usize)>) {
        while let Some((parent, slot)) = path.pop() {
            let child_id = self.node(parent).child(slot);
            let mbr = self.node(child_id).mbr();
            self.node_mut(parent).rects[slot] = mbr;
        }
    }

    fn reinsert_entries(&mut self, removed: Vec<(u32, Rect, u64)>, reinserted: &mut u64) {
        for (level, r, ptr) in removed {
            // The tree may have grown/shrunk meanwhile; the level of an
            // entry is intrinsic, so re-attach at the same level.
            self.insert_entry(r, ptr, level, reinserted);
        }
    }

    /// Splits an overflowing node in place; returns the id of the new
    /// sibling holding the second group.
    fn split_node(&mut self, id: NodeId) -> NodeId {
        let level = self.node(id).level;
        let sibling = self.alloc(level);
        let policy = Arc::clone(&self.split);

        let node = self.node_mut(id);
        let rects = std::mem::take(&mut node.rects);
        let ptrs = std::mem::take(&mut node.ptrs);
        let (g1, g2) = policy.split(&rects, self.min_entries.min(rects.len() / 2));

        {
            let node = self.node_mut(id);
            for &i in &g1 {
                node.push(rects[i], ptrs[i]);
            }
        }
        {
            let sib = self.node_mut(sibling);
            for &i in &g2 {
                sib.push(rects[i], ptrs[i]);
            }
        }
        sibling
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{LinearSplit, QuadraticSplit};
    use crate::tree::RTreeBuilder;

    fn grid_rects(n: usize) -> Vec<Rect> {
        // n x n grid of small squares.
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let x = i as f64 / n as f64;
                let y = j as f64 / n as f64;
                out.push(Rect::new(x, y, x + 0.4 / n as f64, y + 0.4 / n as f64));
            }
        }
        out
    }

    fn rstar_builder(cap: usize) -> RTreeBuilder {
        RTree::builder(cap)
            .split_policy(crate::rstar::RStarSplit)
            .forced_reinsert(0.3)
    }

    #[test]
    fn single_insert() {
        let mut t = RTree::builder(4).build();
        t.insert(Rect::new(0.1, 0.1, 0.2, 0.2), 42);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn overflow_splits_root_leaf() {
        let mut t = RTree::builder(4).build();
        for (i, r) in grid_rects(3).into_iter().take(5).enumerate() {
            t.insert(r, i as u64);
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.height(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn many_inserts_keep_invariants_quadratic() {
        let mut t = RTree::builder(8).split_policy(QuadraticSplit).build();
        for (i, r) in grid_rects(20).into_iter().enumerate() {
            t.insert(r, i as u64);
            if i % 97 == 0 {
                t.validate().unwrap();
            }
        }
        assert_eq!(t.len(), 400);
        assert!(t.height() >= 3);
        t.validate().unwrap();
    }

    #[test]
    fn many_inserts_keep_invariants_linear() {
        let mut t = RTree::builder(8).split_policy(LinearSplit).build();
        for (i, r) in grid_rects(15).into_iter().enumerate() {
            t.insert(r, i as u64);
        }
        assert_eq!(t.len(), 225);
        t.validate().unwrap();
    }

    #[test]
    fn many_inserts_keep_invariants_rstar() {
        let mut t = rstar_builder(8).build();
        for (i, r) in grid_rects(20).into_iter().enumerate() {
            t.insert(r, i as u64);
            if i % 97 == 0 {
                t.validate().unwrap();
            }
        }
        assert_eq!(t.len(), 400);
        t.validate().unwrap();
    }

    #[test]
    fn rstar_items_all_findable() {
        let mut t = rstar_builder(6).build();
        let rects = grid_rects(14);
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        for (i, r) in rects.iter().enumerate() {
            assert!(t.search(r).contains(&(i as u64)), "item {i} lost");
        }
    }

    #[test]
    fn rstar_beats_guttman_on_leaf_area() {
        // The point of forced reinsertion: tighter leaves than plain
        // quadratic-split insertion on scattered data.
        let rects: Vec<Rect> = (0..1500)
            .map(|i| {
                let x = (i as f64 * 0.618_033_988) % 0.95;
                let y = (i as f64 * 0.414_213_562) % 0.95;
                Rect::new(x, y, x + 0.01, y + 0.01)
            })
            .collect();
        let total_area =
            |t: &RTree| -> f64 { t.level_mbrs().iter().flatten().map(Rect::area).sum() };
        let mut guttman = RTree::builder(16).build();
        let mut rstar = rstar_builder(16).build();
        for (i, r) in rects.iter().enumerate() {
            guttman.insert(*r, i as u64);
            rstar.insert(*r, i as u64);
        }
        rstar.validate().unwrap();
        let (g, r) = (total_area(&guttman), total_area(&rstar));
        assert!(r < g, "R* total MBR area {r} not better than Guttman {g}");
    }

    #[test]
    fn rstar_delete_reinsert_cycle() {
        let mut t = rstar_builder(6).build();
        let rects = grid_rects(10);
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        for (i, r) in rects.iter().enumerate().take(50) {
            assert!(t.delete(r, i as u64));
        }
        t.validate().unwrap();
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn all_items_findable_after_inserts() {
        let mut t = RTree::builder(6).build();
        let rects = grid_rects(12);
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        for (i, r) in rects.iter().enumerate() {
            let hits = t.search(r);
            assert!(hits.contains(&(i as u64)), "item {i} lost");
        }
    }

    #[test]
    fn duplicate_rects_allowed() {
        let mut t = RTree::builder(4).build();
        let r = Rect::new(0.5, 0.5, 0.6, 0.6);
        for i in 0..50 {
            t.insert(r, i);
        }
        assert_eq!(t.len(), 50);
        t.validate().unwrap();
        assert_eq!(t.search(&r).len(), 50);
    }

    #[test]
    fn duplicate_rects_with_rstar() {
        // Forced reinsert on identical rects must terminate (distance ties).
        let mut t = rstar_builder(4).build();
        let r = Rect::new(0.5, 0.5, 0.6, 0.6);
        for i in 0..60 {
            t.insert(r, i);
        }
        assert_eq!(t.len(), 60);
        t.validate().unwrap();
    }
}
