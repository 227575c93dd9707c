//! Trace-driven buffer simulation (§4 of the paper).
//!
//! The paper validates its analytic model against a simulator that "models
//! an LRU buffer and, like the model, takes as input the list of the MBRs
//! for all nodes at all levels", generating random queries and requesting
//! every node whose MBR intersects the query from the buffer pool.
//! Confidence intervals come from batch means (the paper uses 20 batches of
//! 1,000,000 queries; batch sizes here are configurable).
//!
//! Two trace sources are provided:
//!
//! * [`SimTree`] — a compact, traversable copy of a real `RTree` whose
//!   pages are numbered in level order (root = page 0). Traversal prunes,
//!   so tracing costs O(nodes accessed).
//! * [`flat_trace`] — the paper's literal formulation: scan every MBR
//!   independently. Identical output (parent MBRs contain child MBRs), used
//!   to cross-check the traversal in tests.

mod queries;
mod runner;
mod sim_tree;
mod stats;

pub use queries::{MixedSampler, QuerySampler};
pub use rtree_buffer::PolicyKind;
pub use runner::{SimConfig, SimResult, Simulation};
pub use sim_tree::{description_mbrs, flat_trace, SimTree};
pub use stats::BatchMeans;
