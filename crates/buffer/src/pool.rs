//! The buffer pool: residency tracking, eviction, pinning, statistics.

use crate::{PageId, PageSet, ReplacementPolicy};
use std::fmt;

/// Result of one page access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The page was resident (no disk access).
    Hit,
    /// The page was not resident; it was read from disk and cached,
    /// evicting `evicted` if the pool was full.
    Miss { evicted: Option<PageId> },
    /// The page was not resident and could not be cached because every
    /// frame is pinned; it was read from disk and bypassed the pool.
    MissBypass,
}

impl AccessOutcome {
    /// True if the access required a disk read.
    pub fn is_miss(&self) -> bool {
        !matches!(self, AccessOutcome::Hit)
    }
}

/// Counters accumulated by a pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Total page accesses.
    pub accesses: u64,
    /// Accesses satisfied from the pool.
    pub hits: u64,
    /// Accesses that required a disk read.
    pub misses: u64,
}

impl BufferStats {
    /// Fraction of accesses satisfied from the pool.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

impl std::ops::AddAssign for BufferStats {
    fn add_assign(&mut self, rhs: Self) {
        self.accesses += rhs.accesses;
        self.hits += rhs.hits;
        self.misses += rhs.misses;
    }
}

/// Error returned by [`BufferPool::pin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinError {
    /// Pinning the page would exceed the pool capacity.
    CapacityExceeded,
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinError::CapacityExceeded => write!(f, "pinning would exceed buffer capacity"),
        }
    }
}

impl std::error::Error for PinError {}

/// A fixed-capacity buffer pool over page *identities*.
///
/// Pinned pages occupy capacity but are exempt from replacement — exactly
/// the paper's pinning semantics ("simply reduce the number of buffer pages
/// by the number of pages in these pinned levels").
///
/// # Examples
///
/// ```
/// use rtree_buffer::{AccessOutcome, BufferPool, LruPolicy, PageId};
///
/// let mut pool = BufferPool::new(2, LruPolicy::new());
/// assert!(pool.access(PageId(1)).is_miss());
/// assert_eq!(pool.access(PageId(1)), AccessOutcome::Hit);
/// pool.access(PageId(2));
/// // Capacity 2: page 1 is now least recently used and gets evicted.
/// pool.access(PageId(1));
/// match pool.access(PageId(3)) {
///     AccessOutcome::Miss { evicted } => assert_eq!(evicted, Some(PageId(2))),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub struct BufferPool {
    capacity: usize,
    policy: Box<dyn ReplacementPolicy>,
    resident: PageSet<PageId>,
    pinned: PageSet<PageId>,
    stats: BufferStats,
}

impl BufferPool {
    /// Creates a pool with room for `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize, policy: impl ReplacementPolicy + 'static) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        BufferPool {
            capacity,
            policy: Box::new(policy),
            resident: PageSet::with_capacity_and_hasher(capacity + 1, Default::default()),
            pinned: PageSet::default(),
            stats: BufferStats::default(),
        }
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident pages (pinned included).
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True if no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// True once the pool holds `capacity` pages — the end of the paper's
    /// warm-up period (`N*` queries).
    pub fn is_full(&self) -> bool {
        self.resident.len() >= self.capacity
    }

    /// True if the page is resident.
    pub fn contains(&self, page: PageId) -> bool {
        self.resident.contains(&page)
    }

    /// True if the page is pinned.
    pub fn is_pinned(&self, page: PageId) -> bool {
        self.pinned.contains(&page)
    }

    /// Replacement policy name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Resets the statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = BufferStats::default();
    }

    /// Accesses a page, updating residency, policy state and statistics.
    pub fn access(&mut self, page: PageId) -> AccessOutcome {
        if self.resident.contains(&page) {
            self.hit(page);
            return AccessOutcome::Hit;
        }
        self.stats.accesses += 1;
        self.stats.misses += 1;
        let evicted = if self.resident.len() >= self.capacity {
            if self.policy.is_empty() {
                // Every frame is pinned: the read bypasses the pool.
                return AccessOutcome::MissBypass;
            }
            let victim = self.policy.evict();
            let removed = self.resident.remove(&victim);
            debug_assert!(removed, "policy evicted a non-resident page");
            Some(victim)
        } else {
            None
        };
        self.resident.insert(page);
        self.policy.on_insert(page);
        AccessOutcome::Miss { evicted }
    }

    /// The hit half of [`BufferPool::access`], for a caller whose own lookup
    /// found `page` resident: counts it and tells the policy unless pinned.
    #[inline]
    pub fn hit(&mut self, page: PageId) {
        self.stats.accesses += 1;
        self.stats.hits += 1;
        if self.pinned.is_empty() || !self.pinned.contains(&page) {
            self.policy.on_hit(page);
        }
    }

    /// Pins a page: it becomes resident (loaded from disk if needed —
    /// counted as a miss) and exempt from replacement until unpinned.
    /// Returns the page evicted to make room, if any — the caller owns its
    /// frame.
    pub fn pin(&mut self, page: PageId) -> Result<Option<PageId>, PinError> {
        let was_resident = self.resident.contains(&page);
        let evicted = self.admit_pinned(page)?;
        if !was_resident {
            self.stats.accesses += 1;
            self.stats.misses += 1;
        }
        Ok(evicted)
    }

    /// Like [`BufferPool::pin`] but *without* touching the access/hit/miss
    /// statistics: re-admits a page the caller already holds — a pinned
    /// page carried over by a resize — so no access is charged for it.
    pub fn admit_pinned(&mut self, page: PageId) -> Result<Option<PageId>, PinError> {
        if self.pinned.contains(&page) {
            return Ok(None);
        }
        if self.resident.contains(&page) {
            self.policy.remove(page);
            self.pinned.insert(page);
            return Ok(None);
        }
        if self.pinned.len() >= self.capacity {
            return Err(PinError::CapacityExceeded);
        }
        let evicted = if self.resident.len() >= self.capacity {
            if self.policy.is_empty() {
                return Err(PinError::CapacityExceeded);
            }
            let victim = self.policy.evict();
            self.resident.remove(&victim);
            Some(victim)
        } else {
            None
        };
        self.resident.insert(page);
        self.pinned.insert(page);
        Ok(evicted)
    }

    /// Unpins a page; it stays resident and re-enters the replacement order
    /// as most recently used (via [`ReplacementPolicy::on_unpin`], so even
    /// policies whose fresh inserts are immediately evictable honor this).
    pub fn unpin(&mut self, page: PageId) {
        if self.pinned.remove(&page) {
            self.policy.on_unpin(page);
        }
    }

    /// Removes an unpinned resident page from the pool without an eviction
    /// decision — invalidation, e.g. when a buffer manager refuses a page
    /// whose frame failed checksum verification at read-in and must back
    /// the admission out so the next access misses again. Returns whether
    /// the page was resident. No-op (returning `false`) on pinned pages:
    /// a pinned frame is someone's live reference.
    pub fn discard(&mut self, page: PageId) -> bool {
        if self.pinned.contains(&page) || !self.resident.remove(&page) {
            return false;
        }
        self.policy.remove(page);
        true
    }

    /// Number of pinned pages.
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockPolicy, FifoPolicy, LruKPolicy, LruPolicy, RandomPolicy, ReplacementPolicy};

    /// One freshly built instance of every policy, labelled.
    fn all_policies() -> Vec<(&'static str, Box<dyn ReplacementPolicy>)> {
        vec![
            ("LRU", Box::new(LruPolicy::new())),
            ("FIFO", Box::new(FifoPolicy::new())),
            ("CLOCK", Box::new(ClockPolicy::new())),
            ("RANDOM", Box::new(RandomPolicy::new(0xFEED))),
            ("LRU-K", Box::new(LruKPolicy::lru2())),
        ]
    }

    #[test]
    fn hits_and_misses_counted() {
        let mut pool = BufferPool::new(2, LruPolicy::new());
        assert!(pool.access(PageId(1)).is_miss());
        assert_eq!(pool.access(PageId(1)), AccessOutcome::Hit);
        assert!(pool.access(PageId(2)).is_miss());
        let s = pool.stats();
        assert_eq!((s.accesses, s.hits, s.misses), (3, 1, 2));
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_chain() {
        let mut pool = BufferPool::new(2, LruPolicy::new());
        pool.access(PageId(1));
        pool.access(PageId(2));
        pool.access(PageId(1)); // 2 is now LRU
        match pool.access(PageId(3)) {
            AccessOutcome::Miss { evicted } => assert_eq!(evicted, Some(PageId(2))),
            other => panic!("expected miss, got {other:?}"),
        }
        assert!(pool.contains(PageId(1)));
        assert!(!pool.contains(PageId(2)));
    }

    #[test]
    fn pinned_pages_survive_any_pressure() {
        let mut pool = BufferPool::new(3, LruPolicy::new());
        pool.pin(PageId(0)).unwrap();
        for i in 1..100 {
            pool.access(PageId(i));
        }
        assert!(pool.contains(PageId(0)));
        assert!(pool.is_pinned(PageId(0)));
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn pin_capacity_enforced() {
        let mut pool = BufferPool::new(2, LruPolicy::new());
        pool.pin(PageId(0)).unwrap();
        pool.pin(PageId(1)).unwrap();
        assert_eq!(pool.pin(PageId(2)), Err(PinError::CapacityExceeded));
        // Fully pinned pool: misses bypass.
        assert_eq!(pool.access(PageId(9)), AccessOutcome::MissBypass);
        assert!(!pool.contains(PageId(9)));
    }

    #[test]
    fn pin_resident_page_removes_from_policy() {
        let mut pool = BufferPool::new(2, LruPolicy::new());
        pool.access(PageId(1));
        pool.access(PageId(2));
        pool.pin(PageId(1)).unwrap(); // 1 no longer evictable
        match pool.access(PageId(3)) {
            AccessOutcome::Miss { evicted } => assert_eq!(evicted, Some(PageId(2))),
            other => panic!("unexpected {other:?}"),
        }
        assert!(pool.contains(PageId(1)));
    }

    #[test]
    fn unpin_reenters_replacement() {
        let mut pool = BufferPool::new(1, LruPolicy::new());
        pool.pin(PageId(1)).unwrap();
        pool.unpin(PageId(1));
        match pool.access(PageId(2)) {
            AccessOutcome::Miss { evicted } => assert_eq!(evicted, Some(PageId(1))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pin_is_idempotent() {
        let mut pool = BufferPool::new(2, LruPolicy::new());
        pool.pin(PageId(1)).unwrap();
        pool.pin(PageId(1)).unwrap();
        assert_eq!(pool.pinned_count(), 1);
        let s = pool.stats();
        assert_eq!(s.misses, 1, "second pin must not re-read");
    }

    #[test]
    fn admit_pinned_skips_stats_until_the_consuming_access() {
        let mut pool = BufferPool::new(2, LruPolicy::new());
        assert_eq!(pool.admit_pinned(PageId(1)), Ok(None));
        assert_eq!(pool.stats(), BufferStats::default(), "admission is silent");
        assert!(pool.is_pinned(PageId(1)));
        // The next access is a hit — the only statistics the admission ever
        // produces.
        assert_eq!(pool.access(PageId(1)), AccessOutcome::Hit);
        let s = pool.stats();
        assert_eq!((s.accesses, s.hits, s.misses), (1, 1, 0));
        pool.unpin(PageId(1));
        // Pinned-full pool refuses further admissions cleanly.
        pool.pin(PageId(2)).unwrap();
        pool.pin(PageId(3)).unwrap();
        assert_eq!(
            pool.admit_pinned(PageId(4)),
            Err(PinError::CapacityExceeded)
        );
    }

    #[test]
    fn admit_pinned_evicts_like_pin() {
        let mut pool = BufferPool::new(1, LruPolicy::new());
        pool.access(PageId(1));
        assert_eq!(pool.admit_pinned(PageId(2)), Ok(Some(PageId(1))));
        assert!(pool.is_pinned(PageId(2)));
        assert!(!pool.contains(PageId(1)));
    }

    #[test]
    fn works_with_fifo() {
        let mut pool = BufferPool::new(2, FifoPolicy::new());
        pool.access(PageId(1));
        pool.access(PageId(2));
        pool.access(PageId(1)); // FIFO ignores the touch
        match pool.access(PageId(3)) {
            AccessOutcome::Miss { evicted } => assert_eq!(evicted, Some(PageId(1))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fill_tracking() {
        let mut pool = BufferPool::new(3, LruPolicy::new());
        assert!(!pool.is_full());
        for i in 0..3 {
            pool.access(PageId(i));
        }
        assert!(pool.is_full());
        assert_eq!(pool.len(), 3);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = BufferPool::new(0, LruPolicy::new());
    }

    /// Regression (per policy): an unpinned page re-enters the replacement
    /// order as most recently used, so with an older eviction candidate
    /// available the freshly unpinned page must not be the immediate victim.
    #[test]
    fn unpinned_page_is_not_the_immediate_victim() {
        for (name, policy) in all_policies() {
            if name == "RANDOM" {
                // Random has no recency order; covered by the residency
                // check in `unpin_keeps_page_resident_and_tracked`.
                continue;
            }
            let mut pool = BufferPool::new(2, policy);
            pool.pin(PageId(1)).unwrap();
            assert!(pool.access(PageId(2)).is_miss());
            pool.unpin(PageId(1));
            match pool.access(PageId(3)) {
                AccessOutcome::Miss { evicted } => {
                    assert_eq!(
                        evicted,
                        Some(PageId(2)),
                        "{name}: unpinned page evicted first"
                    )
                }
                other => panic!("{name}: unexpected {other:?}"),
            }
            assert!(pool.contains(PageId(1)), "{name}: unpinned page gone");
        }
    }

    /// Clock-specific regression: `unpin` used to re-insert the page with a
    /// cleared reference bit, so a hand sweep that cleared every other bit
    /// evicted the freshly unpinned page. With `on_unpin` setting the bit,
    /// the unpinned page survives one full sweep like a hot page.
    #[test]
    fn clock_unpinned_page_survives_hand_sweep() {
        let mut pool = BufferPool::new(3, ClockPolicy::new());
        pool.pin(PageId(1)).unwrap();
        pool.access(PageId(2));
        pool.access(PageId(3));
        pool.unpin(PageId(1));
        // Reference 2 and 3 so the sweep must clear their bits and reach
        // page 1's frame before settling on a victim.
        assert_eq!(pool.access(PageId(2)), AccessOutcome::Hit);
        assert_eq!(pool.access(PageId(3)), AccessOutcome::Hit);
        match pool.access(PageId(5)) {
            AccessOutcome::Miss { evicted } => assert_eq!(evicted, Some(PageId(2))),
            other => panic!("unexpected {other:?}"),
        }
        assert!(pool.contains(PageId(1)), "unpinned page lost to the sweep");
    }

    #[test]
    fn unpin_keeps_page_resident_and_tracked() {
        for (name, policy) in all_policies() {
            let mut pool = BufferPool::new(2, policy);
            pool.pin(PageId(1)).unwrap();
            pool.unpin(PageId(1));
            assert!(pool.contains(PageId(1)), "{name}: page not resident");
            assert!(!pool.is_pinned(PageId(1)), "{name}: page still pinned");
            // The page is evictable again: enough pressure cycles it out.
            for i in 10..40 {
                pool.access(PageId(i));
            }
            assert!(!pool.contains(PageId(1)), "{name}: page never evicted");
        }
    }

    /// `MissBypass` accounting (per policy): a miss against a fully pinned
    /// pool still counts as an access and a miss, and leaves residency,
    /// pin set and policy state untouched.
    #[test]
    fn miss_bypass_counts_and_leaves_pool_untouched() {
        for (name, policy) in all_policies() {
            let mut pool = BufferPool::new(2, policy);
            pool.pin(PageId(0)).unwrap();
            pool.pin(PageId(1)).unwrap();
            let before = pool.stats();
            for round in 0..3u64 {
                assert_eq!(
                    pool.access(PageId(100 + round)),
                    AccessOutcome::MissBypass,
                    "{name}: expected bypass"
                );
                assert!(!pool.contains(PageId(100 + round)), "{name}: bypass cached");
            }
            let s = pool.stats();
            assert_eq!(s.accesses, before.accesses + 3, "{name}: accesses");
            assert_eq!(s.misses, before.misses + 3, "{name}: misses");
            assert_eq!(s.hits, before.hits, "{name}: hits");
            assert_eq!(pool.len(), 2, "{name}: residency changed");
            assert_eq!(pool.pinned_count(), 2, "{name}: pins changed");
            // Pinned pages still hit.
            assert_eq!(pool.access(PageId(0)), AccessOutcome::Hit, "{name}");
        }
    }

    /// Fully pinned pool (per policy): further pins fail cleanly and an
    /// unpin restores normal replacement.
    #[test]
    fn fully_pinned_pool_recovers_after_unpin() {
        for (name, policy) in all_policies() {
            let mut pool = BufferPool::new(2, policy);
            pool.pin(PageId(0)).unwrap();
            pool.pin(PageId(1)).unwrap();
            assert_eq!(
                pool.pin(PageId(2)),
                Err(PinError::CapacityExceeded),
                "{name}"
            );
            pool.unpin(PageId(0));
            match pool.access(PageId(2)) {
                AccessOutcome::Miss { evicted } => {
                    assert_eq!(evicted, Some(PageId(0)), "{name}: wrong victim")
                }
                other => panic!("{name}: unexpected {other:?}"),
            }
            assert!(pool.contains(PageId(1)), "{name}: pinned page lost");
        }
    }
}
