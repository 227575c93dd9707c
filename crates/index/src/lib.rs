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
//! # What is generic and what is 2-D only
//!
//! The paper works in 2-D "for notational simplicity" and calls the
//! generalization straightforward, so the tree takes its bounding box as a
//! parameter: [`RTree<B>`](RTree), [`Node<B>`](Node) and
//! [`SplitPolicy<B>`](SplitPolicy) over any [`Bounds`], defaulting to
//! `rtree_geom::Rect` — `RTree` in type position is the 2-D tree. Written
//! once for every dimension: Guttman insertion ([`choose_subtree`],
//! [`QuadraticSplit`], and the R* ChooseSubtree / forced-reinsertion hooks
//! inside the same descent), region search and tracing, the four packing
//! orders of [`BulkLoader`], level MBRs and validation. `rtree-nd` supplies
//! the N-d box; the pager reuses [`choose_subtree`] and [`QuadraticSplit`]
//! for its on-page insert.
//!
//! Only on `RTree<Rect>`, because nothing outside the 2-D study uses them
//! and each would widen [`Bounds`] (containment, point distance, margins,
//! per-axis lower/upper keys): deletion with condense-tree, kNN,
//! [`TreeStats`], [`LinearSplit`], [`RStarSplit`] and [`TupleAtATime`].

mod bounds;
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

pub use bounds::Bounds;
pub use bulk::{BulkLoader, PackingOrder, TupleAtATime};
pub use insert::choose_subtree;
pub use knn::Neighbor;
pub use node::{Node, NodeId};
pub use query::QueryStats;
pub use rstar::RStarSplit;
pub use split::{LinearSplit, QuadraticSplit, SplitPolicy};
pub use stats::{rect_aggregates, LevelStats, TreeStats};
pub use tree::{RTree, RTreeBuilder, ValidationError};
