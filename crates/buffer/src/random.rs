//! Random replacement (ablation baseline).

use crate::{PageId, PageMap, ReplacementPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random policy: evicts a uniformly random tracked page. Deterministic for
/// a given seed, like every randomized component in this workspace.
pub struct RandomPolicy {
    pages: Vec<PageId>,
    map: PageMap<PageId, usize>,
    rng: StdRng,
}

impl RandomPolicy {
    /// Creates an empty tracker with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            pages: Vec::new(),
            map: PageMap::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn on_hit(&mut self, _page: PageId) {
        // Random replacement ignores references.
    }

    fn on_insert(&mut self, page: PageId) {
        debug_assert!(!self.map.contains_key(&page), "double insert");
        self.map.insert(page, self.pages.len());
        self.pages.push(page);
    }

    fn evict(&mut self) -> PageId {
        assert!(!self.pages.is_empty(), "evict from empty random policy");
        let i = self.rng.gen_range(0..self.pages.len());
        let page = self.pages.swap_remove(i);
        self.map.remove(&page);
        if let Some(&moved) = self.pages.get(i) {
            self.map.insert(moved, i);
        }
        page
    }

    fn remove(&mut self, page: PageId) {
        if let Some(i) = self.map.remove(&page) {
            self.pages.swap_remove(i);
            if let Some(&moved) = self.pages.get(i) {
                self.map.insert(moved, i);
            }
        }
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn name(&self) -> &'static str {
        "RANDOM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_only_tracked_pages() {
        let mut p = RandomPolicy::new(7);
        for i in 0..16 {
            p.on_insert(PageId(i));
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            let v = p.evict();
            assert!(v.0 < 16);
            assert!(seen.insert(v), "page evicted twice");
        }
        assert!(p.is_empty());
    }

    #[test]
    fn deterministic_for_seed() {
        let run = |seed| {
            let mut p = RandomPolicy::new(seed);
            for i in 0..8 {
                p.on_insert(PageId(i));
            }
            (0..8).map(|_| p.evict().0).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43)); // overwhelmingly likely
    }

    #[test]
    fn remove_keeps_map_consistent() {
        let mut p = RandomPolicy::new(1);
        for i in 0..4 {
            p.on_insert(PageId(i));
        }
        p.remove(PageId(0)); // swap_remove moves page 3 into slot 0
        p.remove(PageId(3)); // must still find it
        assert_eq!(p.len(), 2);
    }
}
