//! LRU-K replacement (O'Neil, O'Neil & Weikum) — the classical database
//! refinement of LRU, added as an ablation baseline: the paper models plain
//! LRU, and LRU-K quantifies how much a history-aware policy would change
//! its conclusions.

use crate::{PageId, PageMap, ReplacementPolicy};
use std::collections::BTreeSet;

/// Reference history of one page: the times of its last `K` references,
/// most recent first.
#[derive(Clone, Debug)]
struct History {
    times: Vec<u64>,
}

/// LRU-K policy: evicts the page whose `K`-th most recent reference is
/// oldest (pages with fewer than `K` references are treated as having an
/// infinitely old `K`-th reference and evicted first, breaking ties by the
/// least recent last reference).
pub struct LruKPolicy {
    k: usize,
    clock: u64,
    pages: PageMap<PageId, History>,
    /// Eviction order: (k-th reference time or 0, last reference time, page).
    order: BTreeSet<(u64, u64, PageId)>,
}

impl LruKPolicy {
    /// Creates an LRU-K tracker.
    ///
    /// # Panics
    /// Panics if `k` is 0.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "LRU-K requires k >= 1");
        LruKPolicy {
            k,
            clock: 0,
            pages: PageMap::default(),
            order: BTreeSet::new(),
        }
    }

    /// Standard LRU-2.
    pub fn lru2() -> Self {
        Self::new(2)
    }

    fn key_of(&self, h: &History) -> (u64, u64) {
        let kth = h.times.get(self.k - 1).copied().unwrap_or(0);
        let last = h.times.first().copied().unwrap_or(0);
        (kth, last)
    }

    fn touch(&mut self, page: PageId, fresh: bool) {
        self.clock += 1;
        let now = self.clock;
        let k = self.k;
        if fresh {
            let h = History { times: vec![now] };
            let key = self.key_of(&h);
            self.pages.insert(page, h);
            self.order.insert((key.0, key.1, page));
        } else {
            let old_key = {
                let h = self.pages.get(&page).expect("touch of untracked page");
                self.key_of(h)
            };
            self.order.remove(&(old_key.0, old_key.1, page));
            let h = self.pages.get_mut(&page).expect("checked above");
            h.times.insert(0, now);
            h.times.truncate(k);
            let new_key = {
                let h = self.pages.get(&page).expect("still present");
                self.key_of(h)
            };
            self.order.insert((new_key.0, new_key.1, page));
        }
    }
}

impl ReplacementPolicy for LruKPolicy {
    fn on_hit(&mut self, page: PageId) {
        self.touch(page, false);
    }

    fn on_insert(&mut self, page: PageId) {
        debug_assert!(!self.pages.contains_key(&page), "double insert");
        self.touch(page, true);
    }

    fn evict(&mut self) -> PageId {
        let &(a, b, page) = self.order.iter().next().expect("evict from empty LRU-K");
        self.order.remove(&(a, b, page));
        self.pages.remove(&page);
        page
    }

    fn remove(&mut self, page: PageId) {
        if let Some(h) = self.pages.remove(&page) {
            let kth = h.times.get(self.k - 1).copied().unwrap_or(0);
            let last = h.times.first().copied().unwrap_or(0);
            self.order.remove(&(kth, last, page));
        }
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn name(&self) -> &'static str {
        "LRU-K"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_degenerates_to_lru() {
        let mut p = LruKPolicy::new(1);
        for i in 0..4 {
            p.on_insert(PageId(i));
        }
        p.on_hit(PageId(0));
        assert_eq!(p.evict(), PageId(1));
        assert_eq!(p.evict(), PageId(2));
        assert_eq!(p.evict(), PageId(3));
        assert_eq!(p.evict(), PageId(0));
    }

    #[test]
    fn single_reference_pages_evicted_before_doubly_referenced() {
        let mut p = LruKPolicy::lru2();
        p.on_insert(PageId(1)); // one reference
        p.on_insert(PageId(2));
        p.on_hit(PageId(1)); // now two references
                             // Page 2 has no 2nd reference -> infinitely old backward distance.
        assert_eq!(p.evict(), PageId(2));
        assert_eq!(p.evict(), PageId(1));
    }

    #[test]
    fn scan_resistance() {
        // The signature LRU-2 property: a one-time scan does not flush
        // pages with an established reference history.
        let mut p = LruKPolicy::lru2();
        for i in 0..3u64 {
            p.on_insert(PageId(i));
            p.on_hit(PageId(i)); // hot set: two references each
        }
        for i in 100..103u64 {
            p.on_insert(PageId(i)); // scan: single references
        }
        // Evictions take the scan pages first.
        let mut victims = std::collections::HashSet::new();
        for _ in 0..3 {
            victims.insert(p.evict().0);
        }
        assert_eq!(victims, [100u64, 101, 102].into_iter().collect());
    }

    #[test]
    fn remove_keeps_order_consistent() {
        let mut p = LruKPolicy::lru2();
        for i in 0..4 {
            p.on_insert(PageId(i));
        }
        p.on_hit(PageId(0));
        p.remove(PageId(1));
        assert_eq!(p.len(), 3);
        // Page 2 is now the oldest single-reference page.
        assert_eq!(p.evict(), PageId(2));
    }

    #[test]
    fn history_is_bounded_to_k() {
        let mut p = LruKPolicy::lru2();
        p.on_insert(PageId(7));
        for _ in 0..100 {
            p.on_hit(PageId(7));
        }
        assert_eq!(p.pages[&PageId(7)].times.len(), 2);
        assert_eq!(p.len(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        let _ = LruKPolicy::new(0);
    }

    #[test]
    #[should_panic]
    fn evict_empty_panics() {
        let mut p = LruKPolicy::lru2();
        let _ = p.evict();
    }
}
