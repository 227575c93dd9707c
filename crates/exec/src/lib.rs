//! Batched query execution for disk-backed R-trees.
//!
//! The paper's central claim is that inter-query buffer locality — not
//! nodes visited — determines R-tree cost. A single query traversal only
//! exploits that locality by accident: whatever the replacement policy
//! happens to have kept resident. This crate makes it deliberate. A
//! [`BatchExecutor`] runs a *batch* of point/range queries together,
//! level-synchronously:
//!
//! 1. The BFS frontier holds `(page, query-set)` work items. A page needed
//!    by k queries of the batch appears **once**, carrying all k query ids
//!    — it is fetched and decoded once instead of k times (dedup).
//! 2. Each level's frontier is processed in ascending `PageId` order. The
//!    bulk-loaded layout stores each level contiguously, so the access
//!    pattern within a level is sequential.
//! 3. A bounded readahead window of upcoming frontier pages is filled
//!    through [`rtree_pager::BufferManager::prefetch`]: the frames are read
//!    early, held (pinned) until their consuming access, and charged as
//!    physical reads but never as query misses.
//! 4. Per-node filtering runs the [`rtree_geom::RectSoA`] rect-vs-many-rects
//!    kernel: the node's entry rectangles in flat SoA layout tested against
//!    each query of the work item.
//!
//! Results are identical to running [`rtree_pager::DiskRTree::query`] per
//! query, and — from a cold buffer — the batch never performs more physical
//! reads than the sequential runs combined, under *any* replacement policy:
//! each distinct page is read at most once per batch
//! (`tests/batch_vs_sequential.rs` proves both properties over arbitrary
//! trees, buffers, policies and batches).

mod batch;

pub use batch::{BatchConfig, BatchExecutor};
pub use rtree_pager::{BatchOutput, BatchStats};
