//! Actuators: how a [`Setting`](crate::Setting) reaches a live tree.
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
use rtree_pager::{ConcurrentDiskRTree, DiskRTree, PageStore, SharedPageStore};
use std::io;

/// Applies settings to some tree.
pub trait Actuator {
    /// Makes `setting` live. Must be safe to retry after an error.
    fn apply(&mut self, setting: Setting) -> io::Result<()>;
}

/// The buffer controls of a live tree. Both tree flavors run the same
/// buffer cache, so they differ only in how they are borrowed: the
/// sequential tree exclusively, the concurrent tree shared (its resize
/// re-partitions the capacity across the existing shards; on a writable
/// tree the operation gate serializes it against in-flight work).
pub trait BufferControls {
    /// Levels of the bulk-load level table (0 once a mutation cleared it).
    fn level_count(&self) -> usize;
    /// Unpins everything, then pins the top `p` levels.
    fn set_pinned_levels(&mut self, p: usize) -> io::Result<()>;
    /// Replaces the buffer with a cold LRU one of `capacity` frames.
    fn resize_lru(&mut self, capacity: usize) -> io::Result<()>;
}

impl<S: PageStore> BufferControls for DiskRTree<S> {
    fn level_count(&self) -> usize {
        self.meta().level_starts.len()
    }
    fn set_pinned_levels(&mut self, p: usize) -> io::Result<()> {
        DiskRTree::set_pinned_levels(self, p)
    }
    fn resize_lru(&mut self, capacity: usize) -> io::Result<()> {
        self.resize_buffer(capacity, LruPolicy::new())
    }
}

impl<S: SharedPageStore> BufferControls for &ConcurrentDiskRTree<S> {
    fn level_count(&self) -> usize {
        self.meta().level_starts.len()
    }
    fn set_pinned_levels(&mut self, p: usize) -> io::Result<()> {
        ConcurrentDiskRTree::set_pinned_levels(self, p)
    }
    fn resize_lru(&mut self, capacity: usize) -> io::Result<()> {
        self.resize_buffer(capacity, LruPolicy::new)
    }
}

/// The actuator: unpin → resize → re-pin on a borrowed tree (`&mut disk`,
/// or `&mut &shared` for the concurrent tree).
pub struct DiskActuator<'a, T: BufferControls>(pub &'a mut T);

impl<T: BufferControls> Actuator for DiskActuator<'_, T> {
    fn apply(&mut self, setting: Setting) -> io::Result<()> {
        // A mutated tree has no level table; pinning silently degrades to
        // "none" rather than panicking mid-actuation.
        let pin = setting.pin_levels.min(self.0.level_count());
        self.0.set_pinned_levels(0)?;
        self.0.resize_lru(setting.buffer)?;
        self.0.set_pinned_levels(pin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_buffer::LruPolicy;
    use rtree_geom::Rect;
    use rtree_index::BulkLoader;
    use rtree_pager::MemStore;

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
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
        DiskActuator(&mut disk)
            .apply(Setting {
                buffer: 32,
                pin_levels: 2,
            })
            .unwrap();
        assert_eq!(disk.buffer_capacity(), 32);
        assert!(disk.pinned_pages() > 0);
        // Re-target down to no pinning at a smaller size.
        DiskActuator(&mut disk)
            .apply(Setting {
                buffer: 8,
                pin_levels: 0,
            })
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
        DiskActuator(&mut &disk)
            .apply(Setting {
                buffer: 32,
                pin_levels: 1,
            })
            .unwrap();
        assert_eq!(disk.buffer_capacity(), 32);
        assert_eq!(disk.pinned_pages(), 1);
        DiskActuator(&mut &disk)
            .apply(Setting {
                buffer: 16,
                pin_levels: 0,
            })
            .unwrap();
        assert_eq!(disk.buffer_capacity(), 16);
        assert_eq!(disk.pinned_pages(), 0);
    }
}
