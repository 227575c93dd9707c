//! Physical page storage for R-trees: page format, page stores, a buffer
//! manager, and disk-backed query execution.
//!
//! The paper's whole argument is that *disk accesses*, not nodes visited,
//! determine query cost. This crate closes the loop physically: tree nodes
//! are serialized one-per-page (the paper assumes "exactly one node fits
//! per page"), queries run against a [`DiskRTree`] through a
//! [`BufferManager`], and the manager counts real page reads — giving an
//! end-to-end measurement the analytic model and the trace simulation can
//! be checked against (`validate_disk` experiment).
//!
//! Pages are 4 KiB, little-endian, CRC-32-sealed, in one of three node
//! layouts (see [`PageLayout`]; the `page` module is the only code that
//! knows a byte offset): SoA (five coordinate/pointer planes the SIMD
//! kernels stream, ≤ 102 entries — above the paper's largest node capacity
//! of 100), and on compressed (v4) trees Packed internal pages (16-bit
//! codes relative to the page's bounding rect, conservatively rounded,
//! ≤ 253 entries) and the point body of a leaf of points (exact `x`, `y`
//! planes and 4-byte id deltas from the page's least id, ≤ 203 entries). Checksums are verified once, where bytes
//! enter a buffer pool; decoding returns a typed [`PageError`] on
//! corruption.
//!
//! Every algorithm that decides *which pages are touched in which order* —
//! the depth-first region walk, the level-synchronous batched walk, kNN,
//! Guttman's insert and condense-tree — is written once against the
//! crate-private page-access seam (`seam`, `walk`, `mutate`). There is one
//! disk tree, [`ConcurrentDiskRTree`], and every read runs through its
//! cursor over its (one or more) latched shards. It has one writer, the
//! seam's write side on the same cursor: the writable constructors attach
//! it, and [`DiskRTree`] — the tree with one shard and `&mut` entry points
//! — attaches it at its first write.
//!
//! The writer is no-steal: dirty pages live in an overlay until a
//! checkpoint, each operation is one logical record in a group-commit
//! [`rtree_wal::GroupWal`], and the checkpoint — the one in-place page
//! write — logs its pages' full images before writing them. A crashed tree
//! restarts one way: [`recover`] (which undoes a checkpoint that died
//! part-way), a writable open, [`replay_committed`]. [`FaultStore`] injects
//! torn writes, short appends and read faults to exercise exactly those
//! paths.

mod adapters;
mod bufmgr;
mod concurrent;
mod disk_tree;
mod fault;
mod latch;
mod mutate;
mod page;
mod recovery;
mod sched;
mod seam;
mod store;
mod trace;
mod walk;

#[doc(hidden)]
pub use adapters::NodeSoA;
pub use bufmgr::{BufferManager, IoStats};
pub use concurrent::ConcurrentDiskRTree;
pub use disk_tree::DiskRTree;
pub use fault::FaultStore;
pub use page::{
    NodePage, PageError, PageLayout, PageMeta, PageView, MAX_ENTRIES_PACKED, MAX_ENTRIES_PER_PAGE,
    MAX_ENTRIES_POINTS, PAGE_SIZE,
};
pub use recovery::{recover, replay_committed, RecoveryReport, ReplaySummary};
pub use sched::{StepSchedule, StepStore};
pub use store::{ConcurrentPageStore, FileStore, MemStore, PageStore, SharedPageStore};
pub use walk::{BatchOutput, BatchStats};

#[cfg(test)]
mod batch;
