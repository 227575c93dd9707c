//! Step-controlled scheduling hooks for deterministic concurrency testing.
//!
//! The chaos harness wants to *steer* thread interleavings from a seed: the
//! same seed must exercise the same logical schedule on every run. The hook
//! point is the store itself — every concurrent page miss funnels through
//! [`crate::SharedPageStore::read_page_shared`], so a wrapper that perturbs
//! the caller right there reaches exactly the moments where shard latches,
//! counters and frame publication interact.
//!
//! [`StepStore`] assigns each shared read a global step number and looks the
//! step up in a seed-derived [`StepSchedule`]. The schedule's actions are
//! *bounded delays* (yields and short sleeps), never blocking handoffs: the
//! concurrent tree holds its shard latch across the store read, so a
//! schedule that parked reader A until reader B arrived could deadlock
//! against the latch B is queued on. Bounded perturbation keeps every
//! schedule deadlock-free while still forcing the overlap windows (two
//! threads racing one shard, a slow miss straddling a fast hit burst) that
//! a free-running test rarely opens. Oracle verdicts stay deterministic
//! because the invariants checked — result sets, counter reconciliation —
//! are interleaving-insensitive by design.

use crate::store::{ConcurrentPageStore, SharedPageStore};
use crate::PageStore;
use rtree_buffer::PageId;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What a thread does when its shared read reaches a given step.
const ACTION_CLASSES: u64 = 6;

/// A deterministic per-step action table derived from a single seed.
///
/// Step `n` maps to an action via a splitmix64 stream, so two runs with the
/// same seed subject the `n`-th shared read to the same perturbation — the
/// closest a preemptive runtime gets to replaying a logical interleaving.
#[derive(Clone, Debug)]
pub struct StepSchedule {
    seed: u64,
}

impl StepSchedule {
    /// Creates the schedule for `seed`.
    pub fn from_seed(seed: u64) -> Self {
        StepSchedule { seed }
    }

    /// The seed this schedule was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Action class for step `n` (stateless: pure function of seed + step).
    fn action(&self, step: u64) -> u64 {
        // splitmix64 of (seed ^ step-tweak): cheap, stateless, well mixed.
        let mut z = self
            .seed
            .wrapping_add(step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % ACTION_CLASSES
    }

    /// Executes the action for step `n`: nothing, 1–3 scheduler yields, or
    /// a short sleep that holds the caller (and any latch it owns) open
    /// long enough for other threads to pile up behind it.
    fn perturb(&self, step: u64) {
        match self.action(step) {
            0 | 1 => {}
            n @ 2..=4 => {
                for _ in 0..(n - 1) {
                    std::thread::yield_now();
                }
            }
            _ => std::thread::sleep(Duration::from_micros(50)),
        }
    }
}

/// A [`SharedPageStore`] wrapper that subjects every shared read to its
/// [`StepSchedule`] — the pager-side hook the chaos harness drives thread
/// interleavings through.
///
/// Exclusive (`&mut`) operations pass straight through so the sequential
/// write path keeps its exact accounting; only the concurrent read path is
/// perturbed.
pub struct StepStore<S> {
    inner: S,
    schedule: StepSchedule,
    steps: AtomicU64,
}

impl<S> StepStore<S> {
    /// Wraps `inner` under `schedule`.
    pub fn new(inner: S, schedule: StepSchedule) -> Self {
        StepStore {
            inner,
            schedule,
            steps: AtomicU64::new(0),
        }
    }

    /// Shared reads issued so far (== steps consumed).
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Unwraps the inner store.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PageStore> PageStore for StepStore<S> {
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> io::Result<()> {
        self.inner.write_page(id, buf)
    }

    fn allocate(&mut self) -> io::Result<PageId> {
        self.inner.allocate()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: SharedPageStore> SharedPageStore for StepStore<S> {
    fn read_page_shared(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        let step = self.steps.fetch_add(1, Ordering::Relaxed);
        self.schedule.perturb(step);
        self.inner.read_page_shared(id, buf)
    }
}

impl<S: ConcurrentPageStore> ConcurrentPageStore for StepStore<S> {
    /// Shared writes are perturbed too: a writer stalled here holds its page
    /// latches open, which is exactly the window the mutator phase wants
    /// other writers and readers to pile into. Still bounded delays only —
    /// the schedule can stretch an interleaving but never deadlock one.
    fn write_page_shared(&self, id: PageId, buf: &[u8]) -> io::Result<()> {
        let step = self.steps.fetch_add(1, Ordering::Relaxed);
        self.schedule.perturb(step);
        self.inner.write_page_shared(id, buf)
    }

    fn allocate_shared(&self) -> io::Result<PageId> {
        self.inner.allocate_shared()
    }

    fn flush_shared(&self) -> io::Result<()> {
        self.inner.flush_shared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemStore, PAGE_SIZE};

    #[test]
    fn schedule_is_deterministic() {
        let a = StepSchedule::from_seed(42);
        let b = StepSchedule::from_seed(42);
        let c = StepSchedule::from_seed(43);
        let seq_a: Vec<u64> = (0..64).map(|s| a.action(s)).collect();
        let seq_b: Vec<u64> = (0..64).map(|s| b.action(s)).collect();
        let seq_c: Vec<u64> = (0..64).map(|s| c.action(s)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same schedule");
        assert_ne!(seq_a, seq_c, "different seed, different schedule");
        // The stream uses every action class eventually.
        let classes: std::collections::HashSet<u64> = (0..256).map(|s| a.action(s)).collect();
        assert_eq!(classes.len() as u64, ACTION_CLASSES);
    }

    #[test]
    fn step_store_counts_and_delegates() {
        let mut inner = MemStore::new();
        let id = inner.allocate().unwrap();
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 0xAB;
        inner.write_page(id, &page).unwrap();

        let store = StepStore::new(inner, StepSchedule::from_seed(7));
        let mut buf = vec![0u8; PAGE_SIZE];
        for _ in 0..10 {
            store.read_page_shared(id, &mut buf).unwrap();
            assert_eq!(buf[0], 0xAB);
        }
        assert_eq!(store.steps(), 10);
        // Exclusive path is untouched (no step consumed).
        let mut store = store;
        store.read_page(id, &mut buf).unwrap();
        assert_eq!(store.steps(), 10);
        assert_eq!(store.into_inner().page_count(), 1);
    }
}
