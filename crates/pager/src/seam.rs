//! The page-access seam: the only way a tree algorithm touches a page.
//!
//! The paper's metric — disk accesses per query under LRU — is a function
//! of the page-access *sequence*, so that sequence is defined exactly once:
//! the walks (FindLeaf among them) in [`crate::walk`] and Guttman's
//! insert/condense in [`crate::mutate`] are written against these two
//! traits and nothing else. What a seam implementation hides is *where* a
//! page comes from and what an access costs: which pool is charged, which
//! latch is held, which trace span the event belongs to. The algorithms are
//! generic over the seam (monomorphized, never `dyn`). Writes read pages
//! the way walks do: [`PageWrite::load`] is a level-checked fetch.
//!
//! One view type implements both: the cursor over
//! [`crate::ConcurrentDiskRTree`] (shard pools behind the writer overlay,
//! shared-latch coupling between levels, exclusive-latch crabbing for the
//! insert descent), which [`crate::DiskRTree`] reads and writes through
//! too. With no latches in play (a read-only tree, or the exclusive gate
//! held) its hooks are inert: the paper's configuration.

use crate::{NodePage, PageMeta, PageView};
use std::io;

/// The read side: charged page fetches in the order a walk asks for them.
pub(crate) trait PageRead {
    /// Fetches `page` — a node at on-page `level` (0 = leaf) — charging
    /// the access to whatever buffer sits behind the seam. The frame has
    /// passed its checksum (at page-in), so callers decode it trusted.
    fn fetch(&mut self, page: u64, level: u16) -> io::Result<&[u8]>;

    /// A level-synchronous walk finished a level and will visit exactly
    /// `next` (ascending) on the level below: the hook where a latching
    /// seam couples — latch all of `next`, then let go of the level above.
    fn level_done(&mut self, _next: impl Iterator<Item = u64>) {}
}

/// The write side: whole-node load/store plus page allocation, for the
/// structure-changing algorithms. The view owns the tree's *live* metadata
/// (root, height, node count, free list). The two hooks are all a crabbing
/// writer needs of the insert descent; a view with the tree to itself
/// leaves them empty.
pub(crate) trait PageWrite: PageRead {
    /// Runs `f` on the live metadata (locked, if at all, only for the call).
    fn meta<R>(&mut self, f: impl FnOnce(&mut PageMeta) -> R) -> R;

    /// Fetches node `id` at `level` and materializes it, validating every
    /// entry: a page at another level, or a corrupt entry, is `InvalidData`.
    fn load(&mut self, id: u64, level: u16) -> io::Result<NodePage> {
        let entries = PageView::new(self.fetch(id, level)?, level)?.entries()?;
        Ok(NodePage { level, entries })
    }

    /// Encodes `node`, in the layout its tree writes it in, as page `id`.
    fn store(&mut self, id: u64, node: &NodePage) -> io::Result<()>;

    /// Allocates a page, reusing freed ones before growing the store.
    fn alloc(&mut self) -> io::Result<u64>;

    /// Returns a dissolved page for reuse.
    fn free(&mut self, id: u64) -> io::Result<()>;

    /// The insert descent will next load `child` of the node it holds.
    fn latch(&mut self, _child: u64) {}

    /// The node just loaded is non-full: no split can propagate above it,
    /// so whatever the descent holds above it may be let go.
    fn split_safe(&mut self) {}
}
