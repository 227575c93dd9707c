//! Actuation: how a [`Setting`](crate::Setting) reaches a live tree.
//!
//! The actuation order is always **unpin → resize → re-pin**: unpinning
//! first means the resize never has to refuse a shrink because of stale
//! pins, and re-pinning last reloads (or, if the frames survived, merely
//! re-marks) exactly the pages the new plan wants. The replacement policy
//! of the fresh pool is always LRU — the controller's predictions come
//! from the paper's LRU model, so actuating any other policy would break
//! the model-vs-measured contract the tuner is built on.
//!
//! If re-pinning fails midway the tree is left resized but (partially)
//! unpinned and the error is propagated; the controller does not record
//! the decision, so the next tick simply retries the same idempotent
//! sequence.

use crate::Setting;
use rtree_buffer::LruPolicy;
use rtree_pager::{ConcurrentDiskRTree, PageStore};
use std::io;

/// Makes `setting` live on `tree` (a `DiskRTree` is one, by deref):
/// unpin → resize → re-pin. A sharded tree's resize re-partitions the
/// capacity across its shards; on a writable tree the operation gate
/// serializes it against in-flight work. Safe to retry after an error.
pub fn actuate<S: PageStore>(tree: &ConcurrentDiskRTree<S>, setting: Setting) -> io::Result<()> {
    // A mutated tree has no level table; pinning silently degrades to
    // "none" rather than panicking mid-actuation.
    let pin = setting.pin_levels.min(tree.meta().level_starts.len());
    tree.set_pinned_levels(0)?;
    tree.resize_buffer(setting.buffer, LruPolicy::new)?;
    tree.set_pinned_levels(pin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::Rect;
    use rtree_index::BulkLoader;
    use rtree_pager::{DiskRTree, MemStore};

    fn rects(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.97;
                let y = (i as f64 * 0.414_213) % 0.97;
                Rect::new(x, y, x + 0.01, y + 0.01)
            })
            .collect()
    }

    #[test]
    fn actuator_applies_resize_and_pin() {
        let tree = BulkLoader::hilbert(16).load(&rects(1_500));
        let disk = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
        actuate(
            &disk,
            Setting {
                buffer: 32,
                pin_levels: 2,
            },
        )
        .unwrap();
        assert_eq!(disk.buffer_capacity(), 32);
        assert!(disk.pinned_pages() > 0);
        // Re-target down to no pinning at a smaller size.
        actuate(
            &disk,
            Setting {
                buffer: 8,
                pin_levels: 0,
            },
        )
        .unwrap();
        assert_eq!(disk.buffer_capacity(), 8);
        assert_eq!(disk.pinned_pages(), 0);
    }

    #[test]
    fn actuator_applies_to_a_shared_sharded_tree() {
        let tree = BulkLoader::hilbert(16).load(&rects(1_500));
        let disk =
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 64, 4, LruPolicy::new)
                .unwrap();
        actuate(
            &disk,
            Setting {
                buffer: 32,
                pin_levels: 1,
            },
        )
        .unwrap();
        assert_eq!(disk.buffer_capacity(), 32);
        assert_eq!(disk.pinned_pages(), 1);
        actuate(
            &disk,
            Setting {
                buffer: 16,
                pin_levels: 0,
            },
        )
        .unwrap();
        assert_eq!(disk.buffer_capacity(), 16);
        assert_eq!(disk.pinned_pages(), 0);
    }
}
