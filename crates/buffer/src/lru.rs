//! Least-recently-used replacement with O(1) operations.

use crate::{PageId, ReplacementPolicy};
use std::collections::HashMap;

const NIL: u32 = u32::MAX;

struct Slot {
    page: PageId,
    prev: u32,
    next: u32,
}

/// LRU policy: an intrusive doubly-linked recency list over a slab, plus a
/// page → slot map. `evict` removes the tail (least recently used).
pub struct LruPolicy {
    slots: Vec<Slot>,
    free: Vec<u32>,
    map: HashMap<PageId, u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
}

impl LruPolicy {
    /// Creates an empty LRU tracker.
    pub fn new() -> Self {
        LruPolicy {
            slots: Vec::new(),
            free: Vec::new(),
            map: HashMap::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

impl Default for LruPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementPolicy for LruPolicy {
    fn on_hit(&mut self, page: PageId) {
        let i = *self.map.get(&page).expect("on_hit for untracked page");
        self.unlink(i);
        self.push_front(i);
    }

    fn on_insert(&mut self, page: PageId) {
        debug_assert!(!self.map.contains_key(&page), "double insert");
        let i = if let Some(i) = self.free.pop() {
            self.slots[i as usize].page = page;
            i
        } else {
            let i = u32::try_from(self.slots.len()).expect("too many buffered pages");
            self.slots.push(Slot {
                page,
                prev: NIL,
                next: NIL,
            });
            i
        };
        self.map.insert(page, i);
        self.push_front(i);
    }

    fn evict(&mut self) -> PageId {
        let i = self.tail;
        assert!(i != NIL, "evict from empty LRU");
        let page = self.slots[i as usize].page;
        self.unlink(i);
        self.free.push(i);
        self.map.remove(&page);
        page
    }

    fn remove(&mut self, page: PageId) {
        if let Some(i) = self.map.remove(&page) {
            self.unlink(i);
            self.free.push(i);
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn name(&self) -> &'static str {
        "LRU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut p = LruPolicy::new();
        for i in 0..4 {
            p.on_insert(PageId(i));
        }
        // Touch 0 and 1; LRU order (oldest first) is now 2, 3, 0, 1.
        p.on_hit(PageId(0));
        p.on_hit(PageId(1));
        assert_eq!(p.evict(), PageId(2));
        assert_eq!(p.evict(), PageId(3));
        assert_eq!(p.evict(), PageId(0));
        assert_eq!(p.evict(), PageId(1));
        assert!(p.is_empty());
    }

    #[test]
    fn remove_mid_list() {
        let mut p = LruPolicy::new();
        for i in 0..3 {
            p.on_insert(PageId(i));
        }
        p.remove(PageId(1));
        assert_eq!(p.len(), 2);
        assert_eq!(p.evict(), PageId(0));
        assert_eq!(p.evict(), PageId(2));
    }

    #[test]
    fn remove_untracked_is_noop() {
        let mut p = LruPolicy::new();
        p.on_insert(PageId(5));
        p.remove(PageId(99));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn slots_are_reused() {
        let mut p = LruPolicy::new();
        for round in 0..10u64 {
            for i in 0..8u64 {
                p.on_insert(PageId(round * 100 + i));
            }
            for _ in 0..8 {
                p.evict();
            }
        }
        assert!(p.slots.len() <= 8, "slab grew: {}", p.slots.len());
    }

    #[test]
    #[should_panic]
    fn evict_empty_panics() {
        let mut p = LruPolicy::new();
        let _ = p.evict();
    }
}
