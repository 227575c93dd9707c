//! Per-page reader/writer latches for the concurrent tree's writer mode.
//!
//! A latch protects the *physical* page image for the duration of one
//! structure-modifying step; it is held for the span of a crabbing descent,
//! not a transaction (locks for isolation are out of scope — operations are
//! single-op transactions). The table is address-based: pages hold no latch
//! state on disk, the table materializes an entry only while a page is
//! latched, so the memory footprint tracks the number of *in-flight*
//! operations, not the tree size.
//!
//! # Lock order (deadlock freedom)
//!
//! Every owner acquires latches strictly **top-down**: the meta latch
//! ([`META_LATCH`]), then the root page, then one tree level at a time
//! toward the leaves. Writers crab a single root-to-leaf path; readers
//! couple breadth-first, latching all of a level's children before
//! releasing the level above. No acquisition ever targets a level at or
//! above one the owner already released from-below — so every wait edge in
//! the wait-for graph points down the tree, edges between readers never
//! block (shared-shared), and a cycle would need an upward edge that the
//! protocol cannot produce. Split propagation and condense walk **upward
//! only through latches already held**, acquiring nothing.

use rtree_buffer::PageMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks the slot map, recovering from poisoning (a panicking holder must
/// not wedge every other operation).
fn lock(m: &Mutex<PageMap<u64, LatchSlot>>) -> MutexGuard<'_, PageMap<u64, LatchSlot>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Latch key guarding the tree metadata (root id, height): acquired before
/// any page latch. Page 0 *is* the meta page, so the key doubles as its
/// page latch.
pub(crate) const META_LATCH: u64 = 0;

#[derive(Default)]
struct LatchSlot {
    readers: u32,
    writer: bool,
    /// Owners blocked on this slot (kept so release only wakes when needed).
    waiters: u32,
}

/// The latch table: one logical reader/writer latch per page id, allocated
/// on demand and freed when the last holder releases.
#[derive(Default)]
pub(crate) struct LatchTable {
    slots: Mutex<PageMap<u64, LatchSlot>>,
    wake: Condvar,
}

impl LatchTable {
    pub(crate) fn new() -> Self {
        LatchTable::default()
    }

    /// Acquires the latch for `id`, shared or `exclusive`. Returns `true`
    /// if the caller had to wait (latch-contention accounting).
    pub(crate) fn acquire(&self, id: u64, exclusive: bool) -> bool {
        let mut slots = lock(&self.slots);
        let mut waited = false;
        loop {
            let slot = slots.entry(id).or_default();
            if !(slot.writer || exclusive && slot.readers > 0) {
                match exclusive {
                    true => slot.writer = true,
                    false => slot.readers += 1,
                }
                return waited;
            }
            waited = true;
            slot.waiters += 1;
            slots = self
                .wake
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = slots.get_mut(&id) {
                slot.waiters -= 1;
            }
        }
    }

    /// Releases a latch previously acquired on `id` in the given mode.
    pub(crate) fn unlock(&self, id: u64, exclusive: bool) {
        let mut slots = lock(&self.slots);
        let slot = slots.get_mut(&id).expect("unlocking an unheld latch");
        if exclusive {
            debug_assert!(slot.writer && slot.readers == 0);
            slot.writer = false;
        } else {
            debug_assert!(!slot.writer && slot.readers > 0);
            slot.readers -= 1;
        }
        let idle = !slot.writer && slot.readers == 0;
        let has_waiters = slot.waiters > 0;
        if idle && !has_waiters {
            slots.remove(&id);
        }
        drop(slots);
        if has_waiters {
            // One condvar for the whole table: waiters re-check their own
            // slot, so waking all is correct (if thundering) and keeps the
            // table allocation-free on the release path.
            self.wake.notify_all();
        }
    }

    /// Number of currently materialized latch slots (tests only).
    #[cfg(test)]
    pub(crate) fn live_slots(&self) -> usize {
        lock(&self.slots).len()
    }
}

/// A held set of latches released in LIFO order on drop — crash-safe
/// against panics inside an operation.
pub(crate) struct LatchSet<'t> {
    table: &'t LatchTable,
    held: Vec<(u64, bool)>,
}

impl<'t> LatchSet<'t> {
    pub(crate) fn new(table: &'t LatchTable) -> Self {
        LatchSet {
            table,
            held: Vec::new(),
        }
    }

    /// Acquires `id` in the requested mode and records it. Returns whether
    /// the acquisition had to wait.
    pub(crate) fn acquire(&mut self, id: u64, exclusive: bool) -> bool {
        let waited = self.table.acquire(id, exclusive);
        self.held.push((id, exclusive));
        waited
    }

    /// Releases every held latch except the most recent `keep` (crabbing:
    /// the child just proved split-safe, so the ancestors can go).
    pub(crate) fn release_all_but_last(&mut self, keep: usize) {
        let cut = self.held.len().saturating_sub(keep);
        for (id, exclusive) in self.held.drain(..cut) {
            self.table.unlock(id, exclusive);
        }
    }

    /// Number of latches currently held (tests only).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.held.len()
    }
}

impl Drop for LatchSet<'_> {
    fn drop(&mut self) {
        while let Some((id, exclusive)) = self.held.pop() {
            self.table.unlock(id, exclusive);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn shared_latches_coexist_exclusive_excludes() {
        let t = LatchTable::new();
        assert!(!t.acquire(5, false));
        assert!(!t.acquire(5, false));
        t.unlock(5, false);
        t.unlock(5, false);
        assert!(!t.acquire(5, true));
        t.unlock(5, true);
        assert_eq!(t.live_slots(), 0, "idle slots are reclaimed");
    }

    #[test]
    fn exclusive_blocks_until_readers_drain() {
        let t = Arc::new(LatchTable::new());
        let entered = Arc::new(AtomicU64::new(0));
        t.acquire(1, false);
        let writer = {
            let t = Arc::clone(&t);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                let waited = t.acquire(1, true);
                entered.store(1, Ordering::SeqCst);
                t.unlock(1, true);
                waited
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(entered.load(Ordering::SeqCst), 0, "writer must wait");
        t.unlock(1, false);
        assert!(writer.join().unwrap(), "the wait was observed");
        assert_eq!(entered.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn latch_set_releases_on_drop_and_crabs() {
        let t = LatchTable::new();
        {
            let mut set = LatchSet::new(&t);
            set.acquire(META_LATCH, true);
            set.acquire(10, true);
            set.acquire(11, true);
            assert_eq!(set.len(), 3);
            set.release_all_but_last(1);
            assert_eq!(set.len(), 1);
            assert_eq!(t.live_slots(), 1, "ancestors released");
        }
        assert_eq!(t.live_slots(), 0, "drop released the rest");
    }

    #[test]
    fn contended_counter_is_exact_under_exclusive_latching() {
        let t = Arc::new(LatchTable::new());
        let counter = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        t.acquire(3, true);
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        t.unlock(3, true);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1600);
        assert_eq!(t.live_slots(), 0);
    }
}
