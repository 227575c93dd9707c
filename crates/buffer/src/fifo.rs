//! First-in/first-out replacement (ablation baseline).

use crate::{PageId, PageSet, ReplacementPolicy};
use std::collections::VecDeque;

/// FIFO policy: victims leave in arrival order; references do not refresh a
/// page's position. Removals are lazy (tombstoned) so all operations stay
/// amortized O(1).
pub struct FifoPolicy {
    queue: VecDeque<PageId>,
    live: PageSet<PageId>,
}

impl FifoPolicy {
    /// Creates an empty FIFO tracker.
    pub fn new() -> Self {
        FifoPolicy {
            queue: VecDeque::new(),
            live: PageSet::default(),
        }
    }
}

impl Default for FifoPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn on_hit(&mut self, _page: PageId) {
        // FIFO ignores references.
    }

    fn on_insert(&mut self, page: PageId) {
        debug_assert!(!self.live.contains(&page), "double insert");
        self.queue.push_back(page);
        self.live.insert(page);
    }

    fn evict(&mut self) -> PageId {
        while let Some(page) = self.queue.pop_front() {
            if self.live.remove(&page) {
                return page;
            }
            // Tombstone from an earlier `remove`; skip.
        }
        panic!("evict from empty FIFO");
    }

    fn remove(&mut self, page: PageId) {
        self.live.remove(&page);
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn name(&self) -> &'static str {
        "FIFO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_arrival_order_despite_hits() {
        let mut p = FifoPolicy::new();
        for i in 0..3 {
            p.on_insert(PageId(i));
        }
        p.on_hit(PageId(0));
        p.on_hit(PageId(0));
        assert_eq!(p.evict(), PageId(0));
        assert_eq!(p.evict(), PageId(1));
        assert_eq!(p.evict(), PageId(2));
    }

    #[test]
    fn remove_skips_tombstones() {
        let mut p = FifoPolicy::new();
        for i in 0..3 {
            p.on_insert(PageId(i));
        }
        p.remove(PageId(0));
        assert_eq!(p.len(), 2);
        assert_eq!(p.evict(), PageId(1));
    }

    #[test]
    fn reinsert_after_evict() {
        let mut p = FifoPolicy::new();
        p.on_insert(PageId(7));
        assert_eq!(p.evict(), PageId(7));
        p.on_insert(PageId(7));
        assert_eq!(p.len(), 1);
        assert_eq!(p.evict(), PageId(7));
    }

    #[test]
    #[should_panic]
    fn evict_empty_panics() {
        let mut p = FifoPolicy::new();
        let _ = p.evict();
    }
}
