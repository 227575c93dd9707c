//! An R-tree index with the loading algorithms studied in
//! Leutenegger & López (ICDE 1998).
//!
//! The crate provides:
//!
//! * [`RTree`] — an arena-backed R-tree storing `(rect, u64)` items, with
//!   Guttman insertion ([`RTreeBuilder`], quadratic or linear node splits),
//!   deletion with condense-tree, and region/point search.
//! * [`BulkLoader`] — bottom-up packing loaders: **NX** (nearest-X),
//!   **HS** (Hilbert sort), plus Morton and STR as extensions. Together with
//!   tuple-at-a-time insertion (**TAT**) these are the paper's §2.2 loading
//!   algorithms.
//! * Per-level MBR extraction ([`RTree::level_mbrs`]) — the input of the
//!   analytic models in `rtree-core`, using the paper's level numbering
//!   (level 0 = root).
//! * [`RTree::validate`] — structural invariant checking used heavily by
//!   the property-based tests.
//!
//! One tree node corresponds to one disk page throughout the study, so the
//! node capacity (`max_entries`) is the paper's "n rectangles per node".
//!
//! # Two dimensions
//!
//! The paper works in 2-D "for notational simplicity", and so does every
//! layer here: the tree holds `rtree_geom::Rect`, the pager stores four
//! coordinates per entry, and the model, simulator and benchmark read 2-D
//! MBRs. The pager reuses [`choose_subtree`] and [`QuadraticSplit`] for its
//! on-page insert.

mod bulk;
mod delete;
mod insert;
mod knn;
mod node;
mod query;
mod rstar;
mod split;
mod stats;
mod tree;

pub use bulk::{BulkLoader, PackingOrder, TupleAtATime};
pub use insert::choose_subtree;
pub use knn::Neighbor;
pub use node::{Node, NodeId};
pub use query::QueryStats;
pub use rstar::RStarSplit;
pub use split::{LinearSplit, QuadraticSplit, SplitPolicy};
pub use stats::{rect_aggregates, LevelStats, TreeStats};
pub use tree::{RTree, RTreeBuilder, ValidationError};
