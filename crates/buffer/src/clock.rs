//! Clock (second-chance) replacement (ablation baseline).

use crate::{PageId, PageMap, ReplacementPolicy};

#[derive(Clone, Copy)]
struct Frame {
    page: PageId,
    referenced: bool,
    occupied: bool,
}

/// Clock policy: frames on a circular list with a reference bit; the hand
/// sweeps, clearing bits, and evicts the first unreferenced frame.
pub struct ClockPolicy {
    frames: Vec<Frame>,
    free: Vec<usize>,
    map: PageMap<PageId, usize>,
    hand: usize,
}

impl ClockPolicy {
    /// Creates an empty clock tracker.
    pub fn new() -> Self {
        ClockPolicy {
            frames: Vec::new(),
            free: Vec::new(),
            map: PageMap::default(),
            hand: 0,
        }
    }
}

impl Default for ClockPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn on_hit(&mut self, page: PageId) {
        let i = *self.map.get(&page).expect("on_hit for untracked page");
        self.frames[i].referenced = true;
    }

    fn on_insert(&mut self, page: PageId) {
        debug_assert!(!self.map.contains_key(&page), "double insert");
        let frame = Frame {
            page,
            referenced: false,
            occupied: true,
        };
        let i = if let Some(i) = self.free.pop() {
            self.frames[i] = frame;
            i
        } else {
            self.frames.push(frame);
            self.frames.len() - 1
        };
        self.map.insert(page, i);
    }

    fn evict(&mut self) -> PageId {
        assert!(!self.map.is_empty(), "evict from empty clock");
        loop {
            if self.frames.is_empty() {
                unreachable!("map non-empty implies frames exist");
            }
            let i = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let f = &mut self.frames[i];
            if !f.occupied {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            f.occupied = false;
            let page = f.page;
            self.free.push(i);
            self.map.remove(&page);
            return page;
        }
    }

    fn remove(&mut self, page: PageId) {
        if let Some(i) = self.map.remove(&page) {
            self.frames[i].occupied = false;
            self.free.push(i);
        }
    }

    fn on_unpin(&mut self, page: PageId) {
        // A fresh insert carries a cleared reference bit and would be the
        // hand's first victim — the opposite of the "most recently used"
        // contract for freshly unpinned pages. Insert, then set the bit so
        // the page survives the hand's next sweep.
        self.on_insert(page);
        let i = *self.map.get(&page).expect("just inserted");
        self.frames[i].referenced = true;
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn name(&self) -> &'static str {
        "CLOCK"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreferenced_page_evicted_first() {
        let mut p = ClockPolicy::new();
        for i in 0..3 {
            p.on_insert(PageId(i));
        }
        p.on_hit(PageId(0));
        // Hand at 0: page 0 referenced -> second chance; page 1 evicted.
        assert_eq!(p.evict(), PageId(1));
    }

    #[test]
    fn all_referenced_degenerates_to_sweep() {
        let mut p = ClockPolicy::new();
        for i in 0..3 {
            p.on_insert(PageId(i));
            p.on_hit(PageId(i));
        }
        // Every bit cleared during the first sweep, then frame 0 is evicted.
        assert_eq!(p.evict(), PageId(0));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn remove_frees_frame() {
        let mut p = ClockPolicy::new();
        p.on_insert(PageId(1));
        p.on_insert(PageId(2));
        p.remove(PageId(1));
        assert_eq!(p.len(), 1);
        assert_eq!(p.evict(), PageId(2));
        assert!(p.is_empty());
    }

    #[test]
    fn frames_are_reused() {
        let mut p = ClockPolicy::new();
        for round in 0..10u64 {
            for i in 0..4u64 {
                p.on_insert(PageId(round * 10 + i));
            }
            for _ in 0..4 {
                p.evict();
            }
        }
        assert!(p.frames.len() <= 4, "frame slab grew: {}", p.frames.len());
    }

    #[test]
    #[should_panic]
    fn evict_empty_panics() {
        let mut p = ClockPolicy::new();
        let _ = p.evict();
    }
}
