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
//! Pages are 4 KiB, little-endian, CRC-32-sealed, in one of two node
//! layouts (see [`PageLayout`]; the `page` module is the only code that
//! knows a byte offset): v3 SoA (five coordinate/pointer planes the SIMD
//! kernels stream, ≤ 102 entries — above the paper's largest node capacity
//! of 100) and v4 Packed (internal pages of compressed trees: 16-bit codes
//! relative to the page's bounding rect, conservatively rounded, ≤ 253
//! entries; leaves stay exact). Checksums are verified once, where bytes
//! enter a buffer pool; decoding returns a typed [`PageError`] on
//! corruption.
//!
//! Every algorithm that decides *which pages are touched in which order* —
//! the depth-first region walk, the level-synchronous batched walk, kNN,
//! Guttman's insert and condense-tree — is written once against the
//! crate-private page-access seam (`seam`, `walk`, `mutate`). The seam has
//! two instantiations: a per-operation view of the [`BufferManager`] behind
//! the sequential [`DiskRTree`], and cursors over the sharded,
//! latch-crabbing [`ConcurrentDiskRTree`].
//!
//! The substrate is *writable*: [`DiskRTree::insert`] and
//! [`DiskRTree::delete`] go through the buffer manager's write-back path,
//! with an attached [`rtree_wal::Wal`] logging full page images so
//! [`recover`] can replay a crashed tree back to its last committed state
//! (the concurrent tree logs logical operations to a group-commit WAL and
//! recovers with [`replay_committed`]). [`FaultStore`] injects torn writes,
//! short appends and read faults to exercise exactly those paths.

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

pub use bufmgr::{BufferManager, IoStats, PrefetchOutcome};
pub use concurrent::ConcurrentDiskRTree;
pub use disk_tree::DiskRTree;
pub use fault::FaultStore;
pub use page::{
    NodePage, NodeSoA, PageError, PageLayout, PageMeta, PageView, MAX_ENTRIES_PACKED,
    MAX_ENTRIES_PER_PAGE, PAGE_SIZE,
};
pub use recovery::{recover, replay_committed, RecoveryReport, ReplaySummary};
pub use sched::{StepSchedule, StepStore};
pub use store::{ConcurrentPageStore, FileStore, MemStore, PageStore, SharedPageStore};
pub use walk::{BatchOutput, BatchStats};
