//! Buffer pool with pluggable replacement policies and page pinning.
//!
//! The paper models an **LRU** buffer (following Bhide, Dan & Dias) and
//! studies pinning the top levels of the R-tree in the pool (§3.3, §5.5).
//! This crate provides the pool used by both the trace-driven simulator
//! (`rtree-sim`) and the physical buffer manager (`rtree-pager`), plus
//! FIFO / Clock / Random replacement as ablation baselines.
//!
//! The pool tracks *which* pages are resident, not their contents — content
//! management is the pager's job. That split keeps the simulator allocation
//! free on the hot path.

mod clock;
mod fifo;
mod kind;
mod lru;
mod lruk;
mod pool;
mod random;

pub use clock::ClockPolicy;
pub use fifo::FifoPolicy;
pub use kind::PolicyKind;
pub use lru::LruPolicy;
pub use lruk::LruKPolicy;
pub use pool::{AccessOutcome, BufferPool, BufferStats, PinError};
pub use random::RandomPolicy;

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a buffered page. In the R-tree study one page holds one
/// tree node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// The page-keyed maps' hasher: a multiply per `u64`, rotated so its high bits pick the
/// bucket. Page ids are the engine's own, so SipHash's flood resistance buys nothing.
#[derive(Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed by page id ([`PageId`] or its `u64`), hashed by [`PageHasher`].
pub type PageMap<K, V> = HashMap<K, V, BuildHasherDefault<PageHasher>>;
/// A set of page ids, hashed by [`PageHasher`].
pub type PageSet<K> = HashSet<K, BuildHasherDefault<PageHasher>>;

/// A replacement policy tracks the set of *evictable* (resident, unpinned)
/// pages and chooses victims.
///
/// Contract: a page is either *tracked* (after `on_insert`, until `evict`
/// returns it or `remove` is called) or not; `on_hit` is only called for
/// tracked pages, and `evict` is only called when at least one page is
/// tracked.
pub trait ReplacementPolicy: Send {
    /// A tracked page was referenced again.
    fn on_hit(&mut self, page: PageId);
    /// Starts tracking a page that just became resident (and evictable).
    fn on_insert(&mut self, page: PageId);
    /// Chooses a victim, removes it from tracking and returns it.
    fn evict(&mut self) -> PageId;
    /// Stops tracking a page (e.g. it is being pinned).
    fn remove(&mut self, page: PageId);
    /// A pinned page was released and re-enters the evictable set. The
    /// contract (see [`BufferPool::unpin`]) is that the page re-enters the
    /// replacement order *as most recently used*. The default defers to
    /// `on_insert`; policies whose fresh inserts are immediately evictable
    /// (Clock's cleared reference bit) must override this.
    fn on_unpin(&mut self, page: PageId) {
        self.on_insert(page);
    }
    /// Number of tracked pages.
    fn len(&self) -> usize;
    /// True if no pages are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Short policy name for experiment output.
    fn name(&self) -> &'static str;
}

/// Boxed policies forward to the inner policy, so heterogeneous policy
/// choices (CLI flags, per-shard factories) can use `Box<dyn
/// ReplacementPolicy>` wherever an `impl ReplacementPolicy` is expected.
impl ReplacementPolicy for Box<dyn ReplacementPolicy> {
    fn on_hit(&mut self, page: PageId) {
        (**self).on_hit(page);
    }
    fn on_insert(&mut self, page: PageId) {
        (**self).on_insert(page);
    }
    fn evict(&mut self) -> PageId {
        (**self).evict()
    }
    fn remove(&mut self, page: PageId) {
        (**self).remove(page);
    }
    fn on_unpin(&mut self, page: PageId) {
        (**self).on_unpin(page);
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}
